import csv
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from sequr import bounds, cli, qubit
from sequr.cli import MAX_STARTS, _json_text, main
from sequr.linalg import spectral_resolution
from sequr.optimize import OptimizerResult
from sequr.scenario import load_scenario
from sequr.states import random_hermitian, random_observable, sample_sequence, wigner_joint

ZX_DOC = {
    "dim": 2,
    "observables": {
        "Z": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
        "X": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
    },
    "state": [[0.7071067811865476, 0], [0.7071067811865476, 0]],
}


ZZ_DOC = dict(ZX_DOC, observables={"Z": ZX_DOC["observables"]["Z"],
                                   "Z2": ZX_DOC["observables"]["Z"]})


def miss6_doc() -> dict:
    """Dim-6 scenario of two random observables A and B; one start misses lambda_s."""
    rng = np.random.default_rng(0)
    return {"dim": 6, "observables": {
        name: [[[z.real, z.imag] for z in row] for row in random_hermitian(6, rng)]
        for name in "AB"}}


GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: Golden CLI runs, all exiting 0. Scenario paths are relative to a
#: directory holding ``zx.json``, ``zz.json``, ``deg.json`` and ``miss6.json``.
GOLDEN_CASES = {
    "bounds-zx-pair": ["bounds", "zx.json", "--order", "Z", "X", "--starts", "8"],
    "bounds-zx-triple": ["bounds", "zx.json", "--order", "Z", "X", "Z", "--starts", "8"],
    "bounds-zz-pair": ["bounds", "zz.json", "--order", "Z", "Z2", "--starts", "8"],
    "bounds-zz-triple": ["bounds", "zz.json", "--order", "Z", "Z2", "Z", "--starts", "8"],
    "bounds-zx-chain4": ["bounds", "zx.json", "--order", "Z", "X", "Z", "X", "--starts", "8"],
    # P is degenerate: first (n/a rows, the krishna_parthasarathy floor of the
    # search), last and in the middle
    "bounds-deg-first": ["bounds", "deg.json", "--order", "P", "Q", "--starts", "8"],
    "bounds-deg-last": ["bounds", "deg.json", "--order", "Q", "P", "--starts", "8"],
    "bounds-deg-middle": ["bounds", "deg.json", "--order", "Q", "P", "Q", "--starts", "8"],
    # one start stops above lambda_s: a search miss, in nats and in bits
    "bounds-miss6-pair": ["bounds", "miss6.json", "--order", "A", "B", "--starts", "1"],
    "bounds-miss6-pair-bits": ["bounds", "miss6.json", "--order", "A", "B", "--starts", "1",
                               "--log-base", "2"],
    "table1": ["table1"],
    "sweep": ["sweep", "--theta-min", "0", "--theta-max", "180", "--steps", "7"],
    "verify": ["verify", "--instances", "4", "--dims", "2-3", "--seed", "9"],
    "simulate": ["simulate", "zx.json", "--order", "Z", "X", "--samples", "20000", "--seed", "11"],
    "simulate-zx-chain4": ["simulate", "zx.json", "--order", "Z", "X", "Z", "X",
                           "--samples", "20000", "--seed", "11"],
    # Z2 repeats Z, so every off-diagonal branch has probability zero
    "simulate-zz-triple": ["simulate", "zz.json", "--order", "Z", "Z2", "Z",
                           "--samples", "20000", "--seed", "11"],
}

_TIMING_LINE = re.compile(r'\s*"?timing_s\b')


def run_golden_case(name: str, fmt: str, workdir, capsys) -> tuple:
    """(exit code, stdout without its timing line) of one golden run in ``workdir``."""
    (workdir / "zx.json").write_text(json.dumps(ZX_DOC))
    (workdir / "zz.json").write_text(json.dumps(ZZ_DOC))
    (workdir / "deg.json").write_text(json.dumps(DEGENERATE_DOC))
    (workdir / "miss6.json").write_text(json.dumps(miss6_doc()))
    code = main(GOLDEN_CASES[name] + ["--format", fmt])
    out = capsys.readouterr().out
    return code, "".join(line for line in out.splitlines(keepends=True)
                         if not _TIMING_LINE.match(line))


@pytest.fixture()
def zx_file(tmp_path):
    path = tmp_path / "zx.json"
    path.write_text(json.dumps(ZX_DOC))
    return str(path)


class TestBounds:
    def test_pair_values(self, zx_file, capsys):
        code = main(["bounds", zx_file, "--order", "Z", "X", "--starts", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "lambda_s               0.693147" in out
        assert "maassen_uffink         0.693147" in out
        assert "deutsch                0.316694" in out
        assert "seed=0" in out

    def test_equal_observables_all_zero(self, tmp_path, capsys):
        path = tmp_path / "zz.json"
        path.write_text(json.dumps(ZZ_DOC))
        for order in (["Z", "Z2"], ["Z", "Z2", "Z"]):
            code = main(["bounds", str(path), "--order", *order, "--starts", "8"])
            out = capsys.readouterr().out
            assert code == 0
            for line in out.splitlines():
                if line.startswith(("deutsch", "partovi", "maassen", "krishna", "lambda",
                                    "third")):
                    assert abs(float(line.split()[-1])) <= 1e-6
                    assert line.split()[-1] != "-0"

    def test_triple(self, zx_file, capsys):
        code = main(["bounds", zx_file, "--order", "Z", "X", "Z", "--starts", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "lambda_s3_stagewise" in out
        assert "1.38629" in out

    def test_json_matches_table_values(self, zx_file, capsys):
        main(["bounds", zx_file, "--order", "Z", "X", "--starts", "8"])
        table_out = capsys.readouterr().out
        main(["bounds", zx_file, "--order", "Z", "X", "--starts", "8",
              "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        for name, value in payload["bounds"].items():
            assert f"{value:.6g}" in table_out
        assert payload["seed"] == 0
        assert all(payload["checks"].values())

    def test_log_base_two_reports_bits(self, zx_file, capsys):
        code = main(["bounds", zx_file, "--order", "Z", "X", "--starts", "8",
                     "--log-base", "2", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["bounds"]["lambda_s"] == pytest.approx(1.0, abs=1e-6)
        assert payload["bounds"]["maassen_uffink"] == pytest.approx(1.0, abs=1e-6)

    def test_quiet_drops_header(self, zx_file, capsys):
        main(["bounds", zx_file, "--order", "Z", "X", "--starts", "8", "--quiet"])
        out = capsys.readouterr().out
        assert not out.startswith("#")
        assert "lambda_s" in out

    def test_bad_log_base(self, zx_file, capsys):
        assert main(["bounds", zx_file, "--order", "Z", "X",
                     "--log-base", "0.5"]) == 2

    @pytest.mark.parametrize("argv", [
        ["bounds", "zx.json", "--order", "Z", "X", "--log-base", "nan"],
        ["sweep", "--log-base", "inf"],
        ["table1", "--tolerance", "nan"],
        ["table1", "--tolerance", "inf"],
    ])
    def test_non_finite_flags_rejected(self, zx_file, monkeypatch, capsys, argv):
        monkeypatch.chdir(pathlib.Path(zx_file).parent)
        assert main(argv) == 2
        assert capsys.readouterr().out == ""

    def test_wrong_order_count(self, zx_file, capsys):
        assert main(["bounds", zx_file, "--order", "Z"]) == 2

    def test_long_order_refused_before_reading_the_file(self, capsys):
        assert main(["bounds", "/no/such/file.json", "--order", *"ZXZXZXZ"]) == 2
        assert "--order needs 2 to 6 observable names" in capsys.readouterr().err

    def test_many_starts_refused_before_reading_the_file(self, capsys):
        argv = ["bounds", "/no/such/file.json", "--order", "Z", "X", "--starts"]
        assert main([*argv, str(MAX_STARTS + 1)]) == 2
        err = capsys.readouterr().err
        assert f"--starts {MAX_STARTS + 1} exceeds the limit of {MAX_STARTS}" in err
        # at the cap the flag passes, and the missing file is what fails
        assert main([*argv, str(MAX_STARTS)]) == 2
        assert "exceeds the limit" not in capsys.readouterr().err

    def test_degenerate_observables_in_chains(self, tmp_path, capsys):
        # P is degenerate: accepted in the middle and last places, refused first
        path = tmp_path / "deg.json"
        path.write_text(json.dumps(DEGENERATE_DOC))
        for order, last in ((["Q", "P", "Q"], "third"), (["Q", "Q", "P", "P"], "fourth")):
            code = main(["bounds", str(path), "--order", *order, "--starts", "8"])
            out = capsys.readouterr().out
            assert code == 0
            assert f"check: lambda_s{len(order)}_numeric >= common_state: ok" in out
            assert f"{last}_stage_bound" in out
        assert main(["bounds", str(path), "--order", "P", "Q", "P"]) == 2
        assert "degenerate spectrum" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["bounds", "/no/such/file.json", "--order", "Z", "X"]) == 2

    def test_unknown_observable(self, zx_file, capsys):
        assert main(["bounds", zx_file, "--order", "Z", "Q"]) == 2

    def test_dimension_mismatch_exit_code(self, tmp_path, capsys):
        doc = dict(ZX_DOC)
        doc["dim"] = 3
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["bounds", str(path), "--order", "Z", "X"]) == 3

    @pytest.mark.parametrize("dim", [-1, 0, 1, 17, 10**9])
    def test_dim_out_of_range_is_bad_input(self, dim, tmp_path, capsys):
        # refused before the 2x2 matrices are read against it
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(ZX_DOC, dim=dim)))
        assert main(["bounds", str(path), "--order", "Z", "X"]) == 2
        assert capsys.readouterr().err == (
            f"error: 'dim' {dim} outside supported range 2..16\n")

    def test_optimizer_failure_exit_code(self, zx_file, monkeypatch, capsys):
        from sequr import cli
        from sequr.errors import OptimizerFailure

        def boom(*args, **kwargs):
            raise OptimizerFailure("no optimizer start converged")

        monkeypatch.setattr(cli, "lambda_d_numeric", boom)
        assert main(["bounds", zx_file, "--order", "Z", "X"]) == 4

    def test_search_miss_is_reported_not_violated(self, tmp_path, capsys):
        # with one start, the dim-6 search stops at 1.66023, above lambda_s = 1.46958
        path = tmp_path / "miss.json"
        path.write_text(json.dumps(miss6_doc()))
        argv = ["bounds", str(path), "--order", "A", "B", "--starts", "1"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "check: lambda_s_numeric >= lambda_s: ok" in out
        assert "search miss: lambda_s_numeric is 0.190658 above lambda_s" in out
        # lambda_d <= lambda_s for a pair: the lambda_d search at 2.00546 missed too
        assert "search miss: lambda_d_numeric is 0.535882 above lambda_s" in out
        assert "VIOLATED" not in out
        assert main(argv + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(payload["checks"].values())
        assert payload["search_misses"] == {
            "lambda_d_numeric": {"above": "lambda_s", "gap": 0.535882},
            "lambda_s_numeric": {"above": "lambda_s", "gap": 0.190658}}

    def test_lambda_d_search_above_lambda_s_is_a_miss(self, tmp_path, capsys):
        # 16 starts at seed 30 stop at lambda_d 1.648246, above lambda_s 1.615979
        path = tmp_path / "dim8.json"
        path.write_text(json.dumps({"dim": 8, "observables": {
            name: [[[z.real, z.imag] for z in row] for row in random_observable(8, seed).matrix]
            for name, seed in (("A", 31030), ("B", 32030))}}))
        argv = ["bounds", str(path), "--order", "A", "B", "--starts", "16", "--seed", "30"]
        assert main(argv + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(payload["checks"].values())
        assert payload["search_misses"] == {
            "lambda_d_numeric": {"above": "lambda_s", "gap": 0.0322668}}
        assert main(argv) == 0
        assert "search miss: lambda_d_numeric is 0.0322668 above lambda_s" in (
            capsys.readouterr().out)

    @staticmethod
    def patch_search(scenario, order, offset, floor, tmp_path, monkeypatch) -> str:
        """Write ``scenario``; make ``bounds``' sequential search return ``offset`` plus
        ``floor`` (a ``bounds`` function of ``order``) or, for ``None``, the closed form
        ``common_state``. Returns the scenario path."""
        doc = {"zx": ZX_DOC, "deg": DEGENERATE_DOC}[scenario]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        observables = [spectral_resolution(np.array(
            [[complex(*z) for z in row] for row in doc["observables"][name]]))
            for name in order]
        value = offset + (bounds.lambda_s_chain(observables).common_state if floor is None
                          else getattr(bounds, floor)(*observables))

        def search(*args, **kwargs):
            return OptimizerResult(value=value, minimizer=np.eye(doc["dim"])[0],
                                   starts_converged=1, per_start_values=(value,),
                                   evaluations=1)

        monkeypatch.setattr(cli, "lambda_s_chain_numeric", search)
        return str(path)

    @pytest.mark.parametrize("scenario, order, floor, check", [
        ("zx", ["Z", "X"], None, "lambda_s_numeric >= lambda_s"),
        ("zx", ["Z", "X", "Z"], None, "lambda_s3_numeric >= common_state"),
        ("deg", ["P", "Q"], "krishna_parthasarathy_bound",
         "lambda_s_numeric >= krishna_parthasarathy"),
    ])
    def test_numeric_value_below_closed_form_is_violation(
            self, scenario, order, floor, check, tmp_path, monkeypatch, capsys):
        path = self.patch_search(scenario, order, -1e-2, floor, tmp_path, monkeypatch)
        assert main(["bounds", path, "--order", *order, "--starts", "2"]) == 1
        out = capsys.readouterr().out
        assert f"check: {check}: VIOLATED" in out
        assert "search miss" not in out

    @pytest.mark.parametrize("order, check, numeric, closed", [
        # P is degenerate: the check holds the search to krishna_parthasarathy,
        # the miss is measured from the subspace-searched lambda_s
        (["P", "Q"], "lambda_s_numeric >= krishna_parthasarathy", "lambda_s_numeric",
         "lambda_s"),
        (["Q", "P", "Q"], "lambda_s3_numeric >= common_state", "lambda_s3_numeric",
         "lambda_s3_common_state"),
    ])
    def test_numeric_value_above_closed_form_is_a_miss(
            self, order, check, numeric, closed, tmp_path, monkeypatch, capsys):
        path = self.patch_search("deg", order, 1e-2, None, tmp_path, monkeypatch)
        argv = ["bounds", path, "--order", *order, "--starts", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert f"check: {check}: ok" in out
        assert f"search miss: {numeric} is 0.01 above {closed}" in out
        assert "VIOLATED" not in out
        assert main(argv + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(payload["checks"].values())
        assert payload["search_misses"] == {numeric: {"above": closed, "gap": 0.01}}


    @pytest.mark.parametrize("offset, missed", [(1e-2, True), (5e-5, False)])
    def test_patched_lambda_d_above_lambda_s(self, offset, missed, tmp_path, monkeypatch,
                                             capsys):
        """A lambda_d search more than 1e-4 above lambda_s is a miss, never a violation."""
        path = self.patch_search("zx", ["Z", "X"], 0.0, None, tmp_path, monkeypatch)
        value = math.log(2) + offset  # lambda_s of Z then X

        def search(*args, **kwargs):
            return OptimizerResult(value=value, minimizer=np.eye(2)[0], starts_converged=1,
                                   per_start_values=(value,), evaluations=1)

        monkeypatch.setattr(cli, "lambda_d_numeric", search)
        argv = ["bounds", path, "--order", "Z", "X", "--starts", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "VIOLATED" not in out
        assert ("search miss: lambda_d_numeric is 0.01 above lambda_s" in out) == missed
        assert main(argv + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(payload["checks"].values())
        assert payload["search_misses"] == (
            {"lambda_d_numeric": {"above": "lambda_s", "gap": 0.01}} if missed else {})


class TestTable1:
    def test_default_passes(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") >= 11

    def test_csv_header(self, capsys):
        assert main(["table1", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "theta_deg,lambda_s,lambda_d,lambda_d2,lambda_d1"
        assert len(lines) == 11

    def test_tight_tolerance_fails(self, capsys):
        assert main(["table1", "--tolerance", "1e-9"]) == 1
        assert "mismatch" in capsys.readouterr().out

    def test_json_rows(self, capsys):
        assert main(["table1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["rows"]) == 10
        assert payload["mismatches"] == []
        assert payload["rows"][-1]["lambda_s"] == pytest.approx(math.log(2), abs=1e-5)


class TestSweep:
    def test_named_180_point_grid(self, capsys):
        assert main(["sweep", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "theta_deg,lambda_s,lambda_d,lambda_d2,lambda_d1,regime,chain_ok"
        assert len(lines) == 182
        assert all(line.endswith(",true") for line in lines[1:])

    def test_single_zero_row(self, capsys):
        assert main(["sweep", "--theta-min", "0", "--theta-max", "0",
                     "--steps", "1", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("0,0,0,0,0,")

    def test_90_degree_row_matches_reference(self, capsys):
        assert main(["sweep", "--theta-min", "90", "--theta-max", "90",
                     "--steps", "1", "--format", "csv"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        values = [float(v) for v in row[1:5]]
        assert [round(v, 3) for v in values] == [0.693, 0.693, 0.693, 0.317]

    def test_invalid_range(self, capsys):
        assert main(["sweep", "--theta-min", "10", "--theta-max", "5"]) == 2
        assert main(["sweep", "--steps", "0"]) == 2
        assert main(["sweep", "--theta-max", "999"]) == 2


class TestVerify:
    def test_small_run_passes(self, capsys):
        assert main(["verify", "--instances", "5", "--dims", "2-3"]) == 0
        out = capsys.readouterr().out
        assert "15/15 properties passed" in out
        assert "seed=42" in out

    def test_zero_instances_rejected(self, capsys):
        assert main(["verify", "--instances", "0"]) == 2

    def test_bad_dims_rejected(self, capsys):
        assert main(["verify", "--instances", "5", "--dims", "1-99"]) == 2

    def test_csv_rows(self, capsys):
        assert main(["verify", "--instances", "4", "--dims", "2-3", "--seed", "9",
                     "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["name", "ok", "checked", "margin"]
        assert len(rows) == 16
        assert all(ok == "true" and int(checked) > 0 and float(margin) >= 0
                   for _, ok, checked, margin in rows[1:])

    def test_rerun_is_byte_identical(self, capsys):
        assert main(["verify", "--instances", "4", "--dims", "2-3", "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "--instances", "4", "--dims", "2-3", "--seed", "9"]) == 0
        second = capsys.readouterr().out
        assert first == second


class TestSimulate:
    def test_interference_scenario(self, zx_file, capsys):
        code = main(["simulate", zx_file, "--order", "Z", "X",
                     "--samples", "20000", "--seed", "11"])
        out = capsys.readouterr().out
        assert code == 0
        assert "interference_gap: analytic 0.5" in out
        assert "samples=20000" in out and "seed=11" in out

    def test_repeated_measurement_correlated(self, tmp_path, capsys):
        doc = dict(ZX_DOC)
        doc["state"] = [[[0.25, 0], [0, 0]], [[0, 0], [0.75, 0]]]
        path = tmp_path / "zz.json"
        path.write_text(json.dumps(doc))
        code = main(["simulate", str(path), "--order", "Z", "Z",
                     "--samples", "5000", "--seed", "3", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        empirical = np.array(payload["joint"]["empirical"])
        assert empirical[0, 1] == empirical[1, 0] == 0.0
        assert empirical.sum() == pytest.approx(1.0, abs=1e-9)

    def test_empirical_entropy_close_to_analytic(self, zx_file, capsys):
        main(["simulate", zx_file, "--order", "Z", "X", "--samples", "100000",
              "--seed", "5", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        for marginal in payload["marginals"]:
            delta = abs(marginal["entropy_empirical"] - marginal["entropy_analytic"])
            assert delta <= 3 * marginal["entropy_stderr"] + 1e-6

    def test_csv_rows_are_joint_cells(self, zx_file, capsys):
        assert main(["simulate", zx_file, "--order", "Z", "X", "Z",
                     "--samples", "20000", "--seed", "11", "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["Z", "X", "Z", "analytic", "empirical"]
        assert len(rows) == 1 + 2**3
        assert {tuple(r[:3]) for r in rows[1:]} == {
            (a, b, c) for a in ("-1", "1") for b in ("-1", "1") for c in ("-1", "1")}
        analytic = np.array([float(r[3]) for r in rows[1:]])
        empirical = np.array([float(r[4]) for r in rows[1:]])
        assert analytic.sum() == pytest.approx(1.0) and empirical.sum() == pytest.approx(1.0)
        assert np.abs(analytic - empirical).max() < 0.02

    def test_long_order_rejected_before_allocating(self, zx_file, capsys):
        assert main(["simulate", zx_file, "--order", *(["Z"] * 21)]) == 2
        assert "exceeds the limit" in capsys.readouterr().err

    def test_zero_samples_rejected(self, zx_file, capsys):
        assert main(["simulate", zx_file, "--order", "Z", "X", "--samples", "0"]) == 2

    @pytest.mark.parametrize("diagonal", [(0.5 + 5e-9, 0.5), (1 + 5e-9, -5e-9),
                                          (1 + 5e-11, -5e-11)])
    def test_density_state_within_load_tolerance(self, diagonal, tmp_path, capsys):
        # the loader accepts a trace and eigenvalues within 1e-8; the table
        # and the sampler hold the state to 1e-9 and 1e-10
        path = write_diagonal_state(tmp_path / "rho.json", diagonal)
        assert main(["simulate", path, "--order", "Z", "X", "--samples", "1000",
                     "--format", "json"]) == 0
        analytic = json.loads(capsys.readouterr().out)["joint"]["analytic"]
        assert np.sum(analytic) == pytest.approx(1.0, abs=1e-9)

    def test_density_state_outside_load_tolerance(self, tmp_path, monkeypatch, capsys):
        path = write_diagonal_state(tmp_path / "rho.json", (0.5 + 2e-8, 0.5))
        monkeypatch.setattr(cli, "sample_sequence", lambda *args: pytest.fail("sampled"))
        assert main(["simulate", path, "--order", "Z", "X", "--samples", "1000"]) == 2
        assert "density operator trace 1.0000000199999999+0.0j != 1" in capsys.readouterr().err


def write_diagonal_state(path, diagonal) -> str:
    """The Z/X scenario with the density matrix diag(diagonal) as its state."""
    doc = dict(ZX_DOC, state=[[[diagonal[0], 0], [0, 0]], [[0, 0], [diagonal[1], 0]]])
    path.write_text(json.dumps(doc))
    return str(path)


def write_chain_scenario(path, dim: int, seed: int, state: bool = True) -> str:
    """Random observables A, B, C and D, where D has two eigenvalues of multiplicity dim/2."""
    rng = np.random.default_rng(seed)
    matrices = {name: random_hermitian(dim, rng) for name in "ABC"}
    _, u = np.linalg.eigh(random_hermitian(dim, rng))
    matrices["D"] = u @ np.diag([1.0] * (dim // 2) + [-1.0] * (dim - dim // 2)) @ u.conj().T
    doc = {"dim": dim, "observables": {
        name: [[[z.real, z.imag] for z in row] for row in m] for name, m in matrices.items()}}
    if state:
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        doc["state"] = [[z.real, z.imag] for z in psi / np.linalg.norm(psi)]
    path.write_text(json.dumps(doc))
    return str(path)


NAN, INF = float("nan"), float("inf")


class TestJsonText:
    """``_json_text`` writes exactly what ``json.dumps(value, indent=2)`` writes."""

    @pytest.mark.parametrize("value", [
        {}, [], (), {"a": {}, "b": [], "c": [[], {}, ()]}, [[[]]], [{}],
        None, True, False, 0, 2**100, -(2**70), "", 'quote " backslash \\ tab \t',
        "non-ASCII \u00e9 \u2211 \U0001f600", "new\nline", {"key \"\u00e9\n": "x"},
        NAN, INF, -INF, -0.0, 1e-06, 5e-324, 0.1, 1e16, 1.7976931348623157e308,
        [NAN], [1.5, NAN], [INF, 0.5], [0.1, -INF], [-0.0, 1e-06, 5e-324, 1e16],
        {"x": [0.25, NAN], "y": [[1e-06, -0.0], [INF]]},
        [1, 2.0, 3], [1.0, True], [0.5, None], [0.5, "0.5"], [0.5, [0.5]], (1.0, 2.0),
        [np.float64(0.1), 0.2], {"n": np.float64(1e-07)},
        {1: 0.5, 2.5: "x", None: True, False: NAN}, {1: [0.5, 1.5], 2.5: "x", None: {"a": 1}},
        [0.5, [], {}, ()], {"a": 0.5, "b": [], "c": "x"},
        {"rows": [{"a": [0.1, 0.2], "b": {"c": [[], [0.3]]}}, {"a": []}]},
    ], ids=lambda value: type(value).__name__)
    def test_matches_json_dumps(self, value):
        assert _json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [
        np.array([0.5]), np.array([0.1, 0.2, 0.1]), np.arange(24.0).reshape(2, 3, 4),
        np.linspace(0, 1, 16).reshape(2, 2, 2, 1, 2), np.ones((1, 1, 1)), np.ones((3, 1)),
        np.array([-0.0, 0.0, 0.0, -0.0]), np.array([[NAN, INF], [-INF, NAN]]),
        np.array([1e-05, 5e-324, -5e-324, 1e16, 1.7976931348623157e308]),
        np.array([[0.25] * 5] * 4), np.array([np.nan, -np.nan, np.float64("nan")]),
        np.arange(12.0).reshape(3, 4)[:, ::2], np.arange(6.0)[::-2],
        np.zeros((2, 0)), np.zeros(0), np.array(0.5), np.arange(6).reshape(2, 3),
        np.array([[True, False]]), np.array([0.5, 0.25], dtype=np.float32),
        {"a": np.array([0.1, 0.1]), "b": [np.array([[1.5, NAN]]), 0.5]},
        [np.array([-0.0, 1e-05]), {"c": np.array([[[2.0]]])}],
        {1: np.array([0.5, 0.5]), "k": [np.array([0.25])]},
        pytest.param(["x", np.array([0.5, 0.25])], id="list-after-str"), {"s": "a\nb", "a": np.array([[0.5], [1.5]])},
        {"n": None, "a": np.array([0.5]), "m": None, "b": np.zeros(0), "c": [None, np.ones(2)]},
    ], ids=lambda value: type(value).__name__)
    @pytest.mark.parametrize("depth", [0, 1, 3])
    def test_arrays_match_json_dumps_of_tolist(self, value, depth):
        # nested ``depth`` lists deep, so the array is written at every indent
        for _ in range(depth):
            value = [value]
        expected = json.dumps(value, indent=2, default=np.ndarray.tolist)
        assert _json_text(value) == expected

    @pytest.mark.parametrize("value", [{0.5}, 1j, [0.5, {"a": 1j}], {"a": np.array([1.0]), "b": {1}}],
                             ids=["set", "complex", "nested-complex", "set-after-array"])
    def test_unserializable_raises_type_error(self, value):
        with pytest.raises(TypeError) as expected:
            json.dumps(value, indent=2, default=lambda obj: obj.tolist()
                       if isinstance(obj, np.ndarray) else json.JSONEncoder().default(obj))
        with pytest.raises(TypeError, match=re.escape(str(expected.value))):
            _json_text(value)

    @pytest.mark.parametrize("dim,order,state", [
        (2, "A B", True), (2, "D A", True), (3, "A B C", False), (4, "A D B", True),
        (4, "A B C A", False), (5, "D B", True), (8, "A B C", True), (8, "A D B C", True),
    ])
    def test_simulate_payload(self, dim, order, state, tmp_path, monkeypatch, capsys):
        path = write_chain_scenario(tmp_path / "chain.json", dim, dim, state)
        payloads = []
        emit = cli._emit
        monkeypatch.setattr(cli, "_emit", lambda args, payload, *rest, **header: (
            payloads.append(payload), emit(args, payload, *rest, **header)))
        assert main(["simulate", path, "--order", *order.split(), "--samples", "5000",
                     "--seed", "7", "--format", "json"]) == 0
        # the joint cells are ndarrays in the payload, written as their tolist()
        expected = json.dumps(payloads[0], indent=2, default=np.ndarray.tolist)
        assert capsys.readouterr().out == expected + "\n"


def reference_rows(joint, freqs) -> tuple:
    """Simulate's table and csv cell rows as written with ``np.ndindex`` and numpy scalars."""
    labels = [[f"{v:.6g}" for v in ax] for ax in joint.axes]
    table, csv_rows = [], []
    for idx in np.ndindex(joint.table.shape):
        outcome = tuple(labels[k][i] for k, i in enumerate(idx))
        label = "(" + ",".join(outcome) + ")"
        p, f = joint.table[idx], freqs[idx]
        table.append(f"{label:<24} {p:>10.6f} {f:>10.6f} {abs(p - f):>10.6f}")
        csv_rows.append(",".join(outcome + (f"{p:.6g}", f"{f:.6g}")))
    return table, csv_rows


def test_simulate_rows_match_the_ndindex_reference(tmp_path, capsys):
    path = write_chain_scenario(tmp_path / "dim4.json", 4, 4)
    argv = ["simulate", path, "--order", "A", "D", "B", "--samples", "100000", "--seed", "5"]
    scenario = load_scenario(path)
    chain, rho = scenario.pick(["A", "D", "B"]), scenario.state_or_mixed()
    joint = wigner_joint(rho, *chain)
    freqs = sample_sequence(rho, chain, 100000, 5) / 100000
    table, csv_rows = reference_rows(joint, freqs)
    assert joint.table.shape == (4, 2, 4) and len(table) == 32

    assert main(argv + ["--format", "table", "--quiet"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:1 + len(table)] == table
    assert lines[1 + len(table)].startswith("marginal A:")
    assert main(argv + ["--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == csv_rows


#: Dim-3 scenario whose first observable P is degenerate, so lambda_s needs a
#: subspace search; Q is nondegenerate.
DEGENERATE_DOC = {
    "dim": 3,
    "observables": {
        "P": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [-1, 0]]],
        "Q": [[[0, 0], [1, 0], [0, 0]], [[1, 0], [0, 0], [0, -1]], [[0, 0], [0, 1], [0.5, 0]]],
    },
    "state": [[0.6, 0], [0, 0.48], [0.64, 0]],
}


class TestLogBase:
    """``--log-base 2`` prints the base-e values divided by ln 2; checks are unchanged."""

    RUNS = {
        "bounds-pair": ["bounds", "zx.json", "--order", "Z", "X", "--starts", "8"],
        "bounds-triple": ["bounds", "zx.json", "--order", "Z", "X", "Z", "--starts", "8"],
        "bounds-degenerate": ["bounds", "deg.json", "--order", "P", "Q", "--starts", "8"],
        "sweep": ["sweep", "--steps", "37"],
        "simulate": ["simulate", "deg.json", "--order", "P", "Q", "--samples", "20000",
                     "--seed", "3"],
    }

    @staticmethod
    def split(payload: dict) -> tuple:
        """(entropy values, verdicts, everything else) of one JSON payload."""
        rest = dict(payload, log_base=None)
        if payload["command"] == "bounds":
            return payload["bounds"], rest.pop("checks"), dict(rest, bounds=None)
        if payload["command"] == "sweep":
            fields = ("lambda_s", "lambda_d", "lambda_d2", "lambda_d1")
            values = [row[f] for row in payload["rows"] for f in fields]
            verdicts = [row["chain_ok"] for row in payload["rows"]]
            rows = [{k: v for k, v in row.items() if k not in fields}
                    for row in payload["rows"]]
            return values, verdicts, dict(rest, rows=rows)
        keys = ("entropy_analytic", "entropy_empirical", "entropy_stderr")
        values = [m[k] for m in payload["marginals"] for k in keys]
        marginals = [{k: v for k, v in m.items() if k not in keys}
                     for m in payload["marginals"]]
        return values, None, dict(rest, marginals=marginals)

    @pytest.mark.parametrize("argv", [["verify", "--log-base", "2"], ["table1", "--log-base", "e"]])
    def test_refused_where_never_read(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --log-base" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_bits_are_nats_over_ln2(self, name, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "zx.json").write_text(json.dumps(ZX_DOC))
        (tmp_path / "deg.json").write_text(json.dumps(DEGENERATE_DOC))
        runs = []
        for base in ("e", "2"):
            code = main(self.RUNS[name] + ["--log-base", base, "--format", "json"])
            payload = json.loads(capsys.readouterr().out)
            payload.pop("timing_s", None)
            runs.append((code,) + self.split(payload))
        (code_e, nats, verdicts_e, rest_e), (code_2, bits, verdicts_2, rest_2) = runs
        assert code_e == code_2 == 0
        assert verdicts_e == verdicts_2
        assert rest_e == rest_2
        if isinstance(nats, dict):
            assert nats.keys() == bits.keys()
            nats, bits = list(nats.values()), list(bits.values())
        assert len(nats) == len(bits) > 0
        for nat, bit in zip(nats, bits):
            if nat is None:
                assert bit is None
            else:
                assert bit == pytest.approx(nat / math.log(2), rel=1e-5, abs=1e-12)


@pytest.mark.parametrize("argv", [
    ["bounds", "/no/such/file.json", "--order", "Z", "X"],
    ["simulate", "/no/such/file.json", "--order", "Z", "X"],
    ["verify"],
    ["table1"],
    ["sweep"],
])
def test_negative_seed_refused_before_any_work(argv, capsys):
    # bounds and simulate are refused before the missing file is read
    assert main(argv + ["--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --seed must be >= 0\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["simulate", "zx.json", "--order", "Z", "X", "--samples", str(2**63)],
    ["sweep", "--steps", str(10**13)],
    ["verify", "--instances", str(10**5 + 1)],
])
def test_oversized_input_rejected(argv, zx_file, monkeypatch, capsys):
    monkeypatch.chdir(pathlib.Path(zx_file).parent)
    assert main(argv) == 2
    assert "exceeds the limit" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_output(name, fmt, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out = run_golden_case(name, fmt, tmp_path, capsys)
    assert code == 0
    assert out == (GOLDEN_DIR / f"{name}.{fmt}").read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_golden_failing_verify(fmt, monkeypatch, capsys):
    """Forced failures print each failing property's worst counterexample.

    With both bounds at 10, joint-entropy-floor fails on an unlabelled check,
    bound-ordering on ``sequential >= KP`` and qubit-bound-chain on
    ``optimal >= MU at 0 deg``.
    """
    def ten(*args, **kwargs):
        return 10.0

    monkeypatch.setattr(bounds, "krishna_parthasarathy_bound", ten)
    monkeypatch.setattr(qubit, "mu_theta", ten)
    assert main(GOLDEN_CASES["verify"] + ["--format", fmt]) == 1
    expected = (GOLDEN_DIR / f"verify-fail.{fmt}").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_import_loads_no_scipy():
    """A cold ``import sequr.cli`` loads no scipy module and has ``numpy.random`` loaded.

    numpy 2 loads ``numpy.random`` on first use; loaded with the package, its
    import is not paid inside the first seeded call of a command.
    """
    script = ("import sys, sequr.cli; print(sorted(m for m in sys.modules "
              "if m == 'scipy' or m.startswith('scipy.'))); print('numpy.random' in sys.modules)")
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.split("\n")[:2] == ["[]", "True"]
