import json

import numpy as np
import pytest

from sequr.errors import DimensionMismatch, ScenarioError
from sequr.scenario import load_scenario, parse_scenario
from sequr.states import random_state

ZX_DOC = {
    "dim": 2,
    "observables": {
        "Z": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
        "X": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
    },
    "state": [[0.7071067811865476, 0], [0.7071067811865476, 0]],
    "labels": {"note": "x+ state"},
}


def test_parse_round_trip():
    scenario = parse_scenario(json.dumps(ZX_DOC))
    assert scenario.dim == 2
    assert set(scenario.observables) == {"Z", "X"}
    assert np.allclose(scenario.observables["Z"].matrix, np.diag([1.0, -1.0]))
    assert scenario.labels == {"note": "x+ state"}
    # vector state becomes the |x+> projector
    assert np.allclose(scenario.state, np.full((2, 2), 0.5), atol=1e-12)


def test_matrix_state():
    doc = dict(ZX_DOC)
    doc["state"] = [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]
    scenario = parse_scenario(json.dumps(doc))
    assert np.allclose(scenario.state, np.eye(2) / 2)


def test_missing_state_falls_back_to_maximally_mixed():
    doc = {k: v for k, v in ZX_DOC.items() if k != "state"}
    scenario = parse_scenario(json.dumps(doc))
    assert scenario.state is None
    assert np.allclose(scenario.state_or_mixed(), np.eye(2) / 2)


def test_pick_preserves_order():
    scenario = parse_scenario(json.dumps(ZX_DOC))
    x, z = scenario.pick(["X", "Z"])
    assert np.allclose(x.matrix, scenario.observables["X"].matrix)
    assert np.allclose(z.matrix, scenario.observables["Z"].matrix)
    with pytest.raises(ScenarioError, match="unknown observable"):
        scenario.pick(["Z", "Q"])


def test_invalid_json():
    with pytest.raises(ScenarioError, match="invalid JSON"):
        parse_scenario("{not json")


def test_non_hermitian_observable():
    doc = dict(ZX_DOC)
    doc["observables"] = {"bad": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}
    with pytest.raises(ScenarioError, match="Hermitian"):
        parse_scenario(json.dumps(doc))


def test_shape_mismatch_is_dimension_error():
    doc = dict(ZX_DOC)
    doc["dim"] = 3
    with pytest.raises(DimensionMismatch):
        parse_scenario(json.dumps(doc))


def test_bad_complex_entry():
    doc = dict(ZX_DOC)
    doc["observables"] = {"bad": [[[1, 0], [0]], [[0], [1, 0]]]}
    with pytest.raises(ScenarioError, match="pair"):
        parse_scenario(json.dumps(doc))


def test_unnormalized_state_vector():
    doc = dict(ZX_DOC)
    doc["state"] = [[1.0, 0], [1.0, 0]]
    with pytest.raises(ScenarioError, match=r"^state vector norm 1\.4142135623730951 != 1$"):
        parse_scenario(json.dumps(doc))


def test_invalid_density_state():
    doc = dict(ZX_DOC)
    doc["state"] = [[[2.0, 0], [0, 0]], [[0, 0], [-1.0, 0]]]
    with pytest.raises(ScenarioError, match="state"):
        parse_scenario(json.dumps(doc))


@pytest.mark.parametrize("given", [
    np.diag([0.5 + 5e-9, 0.5]), np.diag([1 + 5e-9, -5e-9]), np.diag([1 + 5e-11, -5e-11]),
    random_state(4, seed=3) * (1 + 5e-9),
], ids=["trace-5e-9", "eigenvalue-5e-9", "eigenvalue-5e-11", "pure-4"])
def test_density_state_within_tolerance_is_made_exact(given):
    doc = {"dim": len(given),
           "observables": {"I": [[[x, 0] for x in row] for row in np.eye(len(given)).tolist()]},
           "state": [[[z.real, z.imag] for z in row] for row in given.tolist()]}
    rho = parse_scenario(json.dumps(doc)).state
    assert abs(np.trace(rho) - 1) <= 1e-15
    assert np.abs(rho - rho.conj().T).max() <= 1e-15
    assert np.linalg.eigvalsh(rho).min() >= -1e-15
    assert np.abs(rho - given).max() <= 1e-8


def test_density_state_trace_outside_tolerance_is_refused():
    doc = dict(ZX_DOC)
    doc["state"] = [[[0.5 + 2e-8, 0], [0, 0]], [[0, 0], [0.5, 0]]]
    with pytest.raises(ScenarioError) as info:
        parse_scenario(json.dumps(doc))
    assert str(info.value) == f"state: density operator trace {0.5 + 2e-8 + 0.5}+0.0j != 1"


def test_load_scenario_from_file(tmp_path):
    path = tmp_path / "zx.json"
    path.write_text(json.dumps(ZX_DOC))
    scenario = load_scenario(path)
    assert scenario.dim == 2


def test_load_missing_file():
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario("/nonexistent/scenario.json")


def _walked_matrix(rows, dim, where):
    """Entry-by-entry conversion: the reference for ``_complex_matrix``."""
    if not isinstance(rows, list) or len(rows) != dim:
        raise DimensionMismatch(f"{where}: expected {dim} rows, got {len(rows) if isinstance(rows, list) else type(rows).__name__}")
    out = np.empty((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise DimensionMismatch(f"{where}: row {i} must have {dim} entries")
        for j, entry in enumerate(row):
            if (not isinstance(entry, (list, tuple)) or len(entry) != 2
                    or not all(isinstance(x, (int, float)) for x in entry)):
                raise ScenarioError(f"{where}[{i}][{j}]: expected a [re, im] number pair, got {entry!r}")
            out[i, j] = complex(entry[0], entry[1])
    return out


def _outcome(convert, rows, dim):
    try:
        return "ok", convert(rows, dim, "m").view(np.int64).tolist()  # bits: NaN equals NaN
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


_RANDOM = np.random.default_rng(0).standard_normal((3, 3, 2)).tolist()


@pytest.mark.parametrize("rows, dim", [
    (_RANDOM, 3),
    ([[[1, 0], [True, False]], [[False, 1], (2.5, -0.0)]], 2),
    ([[[2**70 + 1, -(2**64)], [0, float("nan")]], [[float("inf"), 0], [-0.0, 1e-300]]], 2),
    ([[[10**400, 0], [0, 0]], [[0, 0], [0, 0]]], 2),
    ([[[1, 0], [0]], [[0], [1, 0]]], 2),
    ([[[1, 0], ["0", 0]], [[0, 0], [1, 0]]], 2),
    ([[[1, 0], [0, None]], [[0, 0], [1, 0]]], 2),
    ([[[1, 0], [[0], 0]], [[0, 0], [1, 0]]], 2),
    ([[[1, 0], {"re": 0}], [[0, 0], [1, 0]]], 2),
    ([[[1, 0], [0, 0, 0]], [[0, 0], [1, 0]]], 2),
    ([[[1, 0], "ab"], [[0, 0], [1, 0]]], 2),
    ([[[1, 0], [0, 0]], [[0, 0]]], 2),
    ([[[1, 0], [0, 0]], "row"], 2),
    ([[[1, 0], ["x", 0]], [[0, 0]]], 2),
    ([[[10**400, 0], ["x", 0]], [[0, 0], [0, 0]]], 2),
    ([[[1, 0]], [[0, 0], [1, 0]]], 2),
    ([[[1, 0], [0, 0]]], 2),
    ({"a": 1}, 2),
    ([], 0),
], ids=lambda value: str(value)[:24])
def test_matrix_conversion_matches_entry_walk(rows, dim):
    from sequr.scenario import _complex_matrix

    assert _outcome(_complex_matrix, rows, dim) == _outcome(_walked_matrix, rows, dim)
