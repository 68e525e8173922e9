"""The benchmark tracer still sees every ``verify`` property and every optimizer run.

``perfbench/tracer.py`` times a property by wrapping the public functions of
``sequr.verify`` that ``ALL_PROPERTIES`` holds. A property that became
private, or moved to another module, would silently read 0 ms. It counts
objective calls by replacing positional argument 0 of
``minimize_over_pure_states`` with a counting wrapper (one call per start
screens ``SCREEN_SIZE`` states, then one call per descent step evaluates a
trial state of every start still running), reads the
config from position 2, and counts subspace searches from
``minimize_in_subspace`` spans under ``bounds``. ``table1`` and ``sweep``
compute the qubit middle band with a one-angle search, so they start no
optimizer run and leave no memo to hit. The tracer rebinds functions across
the package, so it runs in a separate interpreter.
"""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, json
from tracer import PROPERTY_NAMES, Tracer, layer_metrics
import sequr.cli

tracer = Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    code = sequr.cli.main(["verify", "--instances", "2", "--dims", "2"])
metrics = layer_metrics([tracer.spans])
print(json.dumps({"code": code, "property_ms": {
    name: metrics[f"verify.property_ms.{name}"] for name in PROPERTY_NAMES}}))
"""


BOUNDS_SCRIPT = """
import contextlib, io, json, sys
from tracer import Tracer, layer_metrics
import sequr.cli

tracer = Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    code = sequr.cli.main(["bounds", sys.argv[1], "--order", "A", "B", "--starts", "4"])
metrics = layer_metrics([tracer.spans])
print(json.dumps({"code": code, **{key: metrics[key] for key in (
    "optimize.runs", "optimize.evals", "bounds.subspace_searches",
    "optimize.converged_ratio")}}))
"""


QUBIT_SCRIPT = """
import contextlib, io, json, sys
from tracer import Tracer, layer_metrics
import sequr.cli

tracer = Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    code = sequr.cli.main(sys.argv[1:])
metrics = layer_metrics([tracer.spans])
print(json.dumps({
    "code": code,
    "optimize_spans": sum(s[0].startswith("optimize.") for s in tracer.spans),
    "middle_band": sum(s[0] == "qubit.sanchez_ruiz_theta"
                       and s[5]["regime"] == "middle-search" for s in tracer.spans),
    "memo_hits": metrics["qubit.memo_hits"],
}))
"""


def run_traced(script, *args):
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", script, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout)


def test_tracer_times_every_verify_property():
    report = run_traced(SCRIPT)
    assert report["code"] == 0
    assert len(report["property_ms"]) == 15
    assert all(ms > 0 for ms in report["property_ms"].values()), report["property_ms"]


def test_tracer_counts_optimizer_work(tmp_path):
    # dim-4 pair whose first observable has two doubly degenerate eigenvalues,
    # so lambda_s_chain searches both eigenspaces
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    a = q @ np.diag([0.0, 0.0, 1.0, 1.0]) @ q.conj().T
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b = (g + g.conj().T) / 2

    def pairs(m):
        return [[[float(z.real), float(z.imag)] for z in row] for row in m]

    scenario = tmp_path / "degenerate.json"
    scenario.write_text(json.dumps({"dim": 4, "observables": {"A": pairs(a), "B": pairs(b)}}))
    report = run_traced(BOUNDS_SCRIPT, str(scenario))
    # exit 1 is a failed cross-check, which four starts may give; the run completed
    assert report["code"] in (0, 1)
    assert report["optimize.runs"] > 0
    assert report["optimize.evals"] > 0
    assert report["bounds.subspace_searches"] >= 1
    assert report["optimize.converged_ratio"] > 0


@pytest.mark.parametrize("argv", [
    ["table1"],
    ["sweep", "--theta-min", "70", "--theta-max", "110", "--steps", "5"],
])
def test_qubit_commands_start_no_optimizer(argv):
    report = run_traced(QUBIT_SCRIPT, *argv)
    assert report["code"] == 0
    assert report["middle_band"] > 0
    assert report["optimize_spans"] == 0
    assert report["memo_hits"] == 0
