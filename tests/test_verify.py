"""The stacked ``verify`` runner and the stacked linear-algebra kernels it stands on.

Stacks must give the bits of one-at-a-time calls, the worst margin must keep
its global instance index across interleaved dimensions, and the printed
margins must stay those of the one-instance-at-a-time runner they replaced.
"""

import csv
import io
import json
import math
import pathlib

import numpy as np
import pytest

from sequr import bounds as bd
from sequr import entropy as ent
from sequr import verify
from sequr.cli import main
from sequr.linalg import (eigh, operator_norm, spectral_resolution, spectral_resolutions,
                          stack_observables)
from sequr.states import (interference_gap, luders_map, outcome_probabilities, pure_density,
                          random_hermitian, random_state_vector, wigner_joint)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _with_spectrum(multiplicities, spread, rng) -> np.ndarray:
    """Hermitian matrix with eigenvalue clusters of the given sizes, each split by ``spread``."""
    dim = sum(multiplicities)
    q, _ = np.linalg.qr(random_hermitian(dim, rng))
    centres = np.repeat(rng.standard_normal(len(multiplicities)), multiplicities)
    return q @ np.diag(centres + spread * np.arange(dim)) @ q.conj().T


def _stack_cases():
    """Stacks mixing nondegenerate, exactly degenerate and near-degenerate spectra."""
    rng = np.random.default_rng(31)
    cases = {}
    for dim in (2, 3, 5, 8):
        generic = [random_hermitian(dim, rng) for _ in range(6)]
        degenerate = [_with_spectrum(m, 0.0, rng) for m in ([2] + [1] * (dim - 2), [dim])]
        near = [_with_spectrum(m, 1e-12, rng) for m in ([1] * (dim - 2) + [2], [dim])]
        cases[f"dim{dim}-generic"] = generic
        cases[f"dim{dim}-mixed"] = generic[:2] + degenerate + generic[2:4] + near
        cases[f"dim{dim}-degenerate"] = [3.0 * np.eye(dim, dtype=complex)] + degenerate + near
    return cases


STACK_CASES = _stack_cases()


def _same_bits(x, y) -> bool:
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("case", sorted(STACK_CASES))
def test_stacked_spectral_resolution_is_bitwise_per_matrix(case):
    matrices = STACK_CASES[case]
    stacked = spectral_resolutions(np.stack(matrices))
    assert len(stacked) == len(matrices)
    for matrix, obs in zip(matrices, stacked):
        single = spectral_resolution(matrix)
        assert obs.multiplicities == single.multiplicities
        assert _same_bits(obs.eigenvalues, single.eigenvalues)
        assert _same_bits(np.ascontiguousarray(obs.projectors), single.projectors)
        assert obs.projectors.flags.c_contiguous and single.projectors.flags.c_contiguous
        assert all(_same_bits(np.ascontiguousarray(v), np.ascontiguousarray(w))
                   for v, w in zip(obs.eigenvectors, single.eigenvectors))
        assert _same_bits(obs.eigenbasis, single.eigenbasis)
    if "degenerate" in case:
        assert not any(obs.is_nondegenerate for obs in stacked)
    if "mixed" in case:
        assert 0 < sum(obs.is_nondegenerate for obs in stacked) < len(stacked)


@pytest.mark.parametrize("case", sorted(STACK_CASES))
def test_stacked_norm_and_eigh_are_bitwise_per_matrix(case):
    stack = np.stack(STACK_CASES[case])
    products = stack @ stack[::-1]  # non-Hermitian, so every singular value differs
    for batch in (stack, products):
        norms = operator_norm(batch)
        assert norms.shape == (len(batch),)
        assert all(_same_bits(np.float64(n), np.float64(operator_norm(m)))
                   for n, m in zip(norms, batch))
    values, vectors = eigh(stack)
    for m, vals, vecs in zip(stack, values, vectors):
        single_values, single_vectors = eigh(m)
        assert _same_bits(vals, single_values) and _same_bits(vecs, single_vectors)


def test_stacked_entry_points_validate_once():
    stack = np.stack([random_hermitian(3, np.random.default_rng(k)) for k in range(4)])
    skewed = stack.copy()
    skewed[2, 0, 1] += 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        spectral_resolutions(skewed)
    with pytest.raises(ValueError, match="Hermitian"):
        eigh(skewed)
    broken = stack.copy()
    broken[1, 1, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        operator_norm(broken)
    with pytest.raises(ValueError, match="square"):
        spectral_resolution(stack)
    with pytest.raises(ValueError, match="stack"):
        spectral_resolutions(stack[0])
    with pytest.raises(ValueError, match="dimension"):
        spectral_resolutions(np.stack([np.eye(17, dtype=complex)] * 2))


def _kernel_groups():
    """Groups of four instances whose observables share eigenspace sizes."""
    rng = np.random.default_rng(17)
    groups = {}
    for dim in (2, 3, 5):
        generic = [1] * dim
        groups[f"dim{dim}-generic"] = (dim, generic, generic, generic)
        pair = [2] + [1] * (dim - 2)
        groups[f"dim{dim}-degenerate-last"] = (dim, generic, generic, pair)
        groups[f"dim{dim}-degenerate-middle"] = (dim, generic, pair, generic)
        if dim > 2:
            groups[f"dim{dim}-degenerate-first"] = (dim, [1] * (dim - 2) + [2], generic, generic)

    def with_sizes(sizes):
        # ascending cluster centres, so every matrix has the eigenspace sizes in this order
        q, _ = np.linalg.qr(random_hermitian(sum(sizes), rng))
        centres = np.repeat(np.cumsum(0.5 + rng.random(len(sizes))), sizes)
        return q @ np.diag(centres) @ q.conj().T

    return {name: (dim, [np.stack([with_sizes(m) for _ in range(4)]) for m in spectra],
                   np.stack([verify._random_density(dim, rng) for _ in range(4)]))
            for name, (dim, *spectra) in groups.items()}


KERNEL_GROUPS = _kernel_groups()


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float if np.isrealobj(value) else complex).tobytes()


def _kernel_calls(a, b, c) -> dict:
    """Every call ``verify`` makes on a group, as ``call(rho, a, b, c)``: the same
    call takes one instance or a stack."""
    calls = {
        "wigner_joint": lambda r, x, y, z: wigner_joint(r, x, y, z).table,
        "entropy_distinct": lambda r, x, y, z: ent.entropy_distinct(r, y),
        "outcome_probabilities": lambda r, x, y, z: outcome_probabilities(r, z),
        "luders_map": lambda r, x, y, z: luders_map(r, y),
        "interference_gap": lambda r, x, y, z: interference_gap(r, x, z),
        "overlap_table": lambda r, x, y, z: bd._overlap_table(y, z),
        "krishna_parthasarathy": lambda r, x, y, z: bd.krishna_parthasarathy_bound(x, y),
        "partovi": lambda r, x, y, z: bd.partovi_bound(x, y),
    }
    for field in ("s_a", "s_b", "s_joint"):
        calls[f"pair {field}"] = lambda r, x, y, z, f=field: getattr(
            ent.entropies_sequential(r, x, y), f)
    for field in ("s_a", "s_b", "s_c", "s_joint"):
        calls[f"triple {field}"] = lambda r, x, y, z, f=field: getattr(
            ent.entropies_sequential_3(r, x, y, z), f)
    for field in ("var_a", "var_b", "robertson_rhs", "var_a_seq", "var_b_seq",
                  "successive_rhs", "c_of_b"):
        calls[field] = lambda r, x, y, z, f=field: getattr(ent.variance_relations(r, x, z), f)
    for field in ("stagewise", "common_state", "second_stage"):
        calls[f"pair {field}"] = lambda r, x, y, z, f=field: getattr(bd.lambda_s_chain([x, y]), f)
        if a.is_nondegenerate:
            calls[f"triple {field}"] = lambda r, x, y, z, f=field: getattr(
                bd.lambda_s_chain([x, y, z]), f)
    if a.is_nondegenerate and b.is_nondegenerate:
        calls["maassen_uffink"] = lambda r, x, y, z: bd.maassen_uffink_bound(x, y)
        calls["deutsch"] = lambda r, x, y, z: bd.deutsch_bound(x, y)
        calls["squared_overlaps"] = lambda r, x, y, z: bd.squared_overlaps(x, y)
    return calls


@pytest.mark.parametrize("case", sorted(KERNEL_GROUPS))
def test_stacked_kernels_are_bitwise_per_instance(case):
    """Every function ``verify`` calls on a stack gives each instance its own bits."""
    dim, matrices, rho = KERNEL_GROUPS[case]
    singles = [spectral_resolutions(m) for m in matrices]
    stacked = [stack_observables(obs) for obs in singles]
    for name, call in _kernel_calls(*stacked).items():
        values = call(rho, *stacked)
        assert len(values) == len(rho), name
        for value, instance in zip(values, zip(rho, *singles)):
            assert _bits(value) == _bits(call(*instance)), name


@pytest.mark.parametrize("names", [("rho", "A", "B"), ("rho", "A", "B", "C"), ("H",), ("B", "C")],
                         ids=" ".join)
def test_draw_is_bitwise_the_generators(names):
    """One ``standard_normal`` call per instance gives the arrays of the generators
    called in turn, and leaves the generator where they leave it."""
    for dim in (2, 3, 5, 16):
        drawn_rng, reference_rng = np.random.default_rng(dim), np.random.default_rng(dim)
        for _ in range(20):
            expected = []
            for name in names:
                if name == "rho":
                    weights = reference_rng.dirichlet(np.ones(int(reference_rng.integers(1, 4))))
                    rho = np.zeros((dim, dim), dtype=complex)
                    for w in weights:
                        rho += w * pure_density(random_state_vector(dim, reference_rng))
                    expected.append(rho)
                else:
                    expected.append(random_hermitian(dim, reference_rng))
            drawn = verify._draw(names, dim, drawn_rng)
            assert len(drawn) == len(names)
            assert all(_same_bits(x, y) for x, y in zip(drawn, expected))
        assert drawn_rng.random() == reference_rng.random()


def _stub_property(margins_by_dim, labels=("first", "second")):
    """A property over one drawn matrix whose margins come from ``margins_by_dim``.

    ``margins_by_dim[dim]`` lists, per instance of that dimension in instance
    order, one margin per label.
    """
    @verify._property("stub", "H")
    def check_stub(h):
        margins = np.array(margins_by_dim[h.dim], dtype=float).reshape(len(h.matrix), len(labels))
        return {"H": h.matrix}, [(margins[:, k], label) for k, label in enumerate(labels)]

    return check_stub


@pytest.mark.parametrize("stack", [64, 5])
def test_runner_resolves_and_groups_each_stack(stack, monkeypatch):
    """The runner hands each body call one group: observables sharing one ``edges``
    each, whose ``.matrix`` rows hold the bits drawn for their instances, in order
    of the group's first instance; the worst margin keeps its global index."""
    sizes = {3: ([1, 1, 1], [2, 1], [1, 2]), 4: ([1, 1, 1, 1], [2, 2], [3, 1], [1, 1, 2])}
    dims, instances, failing = (3, 4), 14, 11
    rng = np.random.default_rng(5)
    drawn = []
    for i in range(instances):
        options = sizes[dims[i % 2]]
        drawn.append([_with_spectrum(options[(i // 2) % len(options)], 0.0, rng),
                      _with_spectrum(options[(i // 2 + i // 4) % len(options)], 0.0, rng)])
    index_of = {a.tobytes(): i for i, (a, _) in enumerate(drawn)}
    edges = [tuple(spectral_resolution(m).edges for m in pair) for pair in drawn]
    expected = []
    for first in range(0, instances, stack):
        for dim in dims:
            at = [i for i in range(first, min(first + stack, instances)) if dims[i % 2] == dim]
            expected += [[i for i in at if edges[i] == key]
                         for key in dict.fromkeys(edges[i] for i in at)]
    assert edges[0] == edges[12] != edges[2] == edges[10]  # dim-3 groups interleave
    draws = iter(drawn)
    monkeypatch.setattr(verify, "_draw", lambda names, dim, rng: next(draws))
    monkeypatch.setattr(verify, "STACK_INSTANCES", stack)
    calls = []

    @verify._property("runner", "A", "B")
    def check_runner(a, b):
        at = [index_of[row.tobytes()] for row in a.matrix]
        calls.append(at)
        for i, row_a, row_b in zip(at, a.matrix, b.matrix):
            assert (a.edges, b.edges) == edges[i]
            assert _same_bits(row_a, drawn[i][0]) and _same_bits(row_b, drawn[i][1])
        margins = np.array([-1.0 if i == failing else 0.5 for i in at])
        return {"A": a.matrix}, [(np.full(len(at), 0.5), "first"), (margins, "second")]

    result = check_runner(0, instances, dims)
    assert calls == expected
    assert (result.ok, result.checked, result.worst) == (False, instances, -1.0)
    assert result.detail.splitlines()[0] == f"second instance {failing} dim {dims[failing % 2]}"
    assert np.array2string(drawn[failing][0], precision=6) in result.detail


def _drawn_matrices(seed, instances, dims):
    rng = np.random.default_rng(seed)
    return [random_hermitian(dims[i % len(dims)], rng) for i in range(instances)]


class TestWorstMargin:
    """Instances 0..4 at dims (2, 3) are 2, 3, 2, 3, 2: dim 2 is stacked first."""

    def test_tie_keeps_global_instance_index(self):
        # instances 1 (dim 3), 2 and 4 (dim 2) tie at -1; instance 1 comes first
        prop = _stub_property({2: [[0.5, 0.5], [-1, 0.5], [-1, -1]],
                               3: [[0.5, -1], [0.5, 0.5]]})
        result = prop(7, 5, (2, 3))
        assert (result.ok, result.checked, result.worst) == (False, 5, -1.0)
        header, first_array = result.detail.splitlines()[:2]
        assert header == "second instance 1 dim 3"
        matrix = _drawn_matrices(7, 5, (2, 3))[1]
        assert np.array2string(matrix, precision=6) in result.detail
        assert first_array == "H="

    def test_tie_within_instance_keeps_check_order(self):
        prop = _stub_property({2: [[0.5, 0.5], [-2, -2], [0.5, 0.5]],
                               3: [[0.5, 0.5], [0.5, -2]]})
        assert prop(7, 5, (2, 3)).detail.startswith("first instance 2 dim 2")

    def test_smaller_margin_wins_over_earlier_instance(self):
        prop = _stub_property({2: [[0.5, 0.5], [-1, 0.5], [0.5, 0.5]],
                               3: [[0.5, 0.5], [0.5, -3]]})
        result = prop(7, 5, (2, 3))
        assert result.worst == -3.0
        assert result.detail.startswith("second instance 3 dim 3")

    def test_nan_fails_and_missing_checks_never_count(self):
        inf, nan = float("inf"), float("nan")
        prop = _stub_property({2: [[nan, inf], [0.25, nan], [inf, inf]],
                               3: [[nan, 0.75], [inf, 0.5]]})
        result = prop(7, 5, (2, 3))
        assert not result.ok and math.isnan(result.worst)
        assert result.detail.startswith("first instance 0 dim 2")
        # NaN ranks below every number, so it beats a negative margin of an earlier instance
        prop = _stub_property({2: [[-1, 0.5], [0.5, nan], [0.5, 0.5]],
                               3: [[0.5, 0.5], [0.5, 0.5]]})
        result = prop(7, 5, (2, 3))
        assert not result.ok and math.isnan(result.worst)
        assert result.detail.startswith("second instance 2 dim 2")
        result = _stub_property({2: [[inf, 0.5]] * 3, 3: [[inf, inf]] * 2})(7, 5, (2, 3))
        assert (result.ok, result.worst, result.detail) == (True, 0.5, "")
        assert _stub_property({2: [[inf, inf]] * 3, 3: [[inf, inf]] * 2})(7, 5, (2, 3)).worst \
            == float("inf")


@pytest.mark.parametrize("stack", [1, 3])
def test_stack_size_changes_no_result(stack, monkeypatch):
    """Drawing and checking in chunks keeps the draw order and the worst margin."""
    props = (verify.check_spectral_resolution, verify.check_luders_fixed_points,
             verify.check_projector_norm_identity, verify.check_transition_doubly_stochastic)
    expected = [prop(5, 7, (2, 3, 4)) for prop in props]
    monkeypatch.setattr(verify, "STACK_INSTANCES", stack)
    assert [prop(5, 7, (2, 3, 4)) for prop in props] == expected


def _one_at_a_time_margins(name, rho, a, b) -> list:
    """The margins of one instance, computed matrix by matrix as before stacking."""
    if name == "spectral-resolution":
        obs, dim = spectral_resolution(a), a.shape[0]
        rebuilt = sum(x * p for x, p in zip(obs.eigenvalues, obs.projectors))
        margins = [1e-9 - operator_norm(rebuilt - a) / max(operator_norm(a), 1e-300),
                   1e-10 - operator_norm(sum(obs.projectors) - np.eye(dim))]
        for k, p in enumerate(obs.projectors):
            margins += [1e-10 - operator_norm(p @ p - p), 1e-9 - abs(operator_norm(p) - 1.0)]
            margins += [1e-10 - operator_norm(p @ q) for q in obs.projectors[k + 1:]]
        return margins
    oa, ob = spectral_resolution(a), spectral_resolution(b)
    if name == "joint-entropy-floor":
        return [1e-9 + (ent.entropies_sequential(rho, oa, ob).s_joint
                        - bd.krishna_parthasarathy_bound(oa, ob))]
    if name == "bound-ordering":
        ls = bd.lambda_s_chain([oa, ob]).common_state
        kp = bd.krishna_parthasarathy_bound(oa, ob)
        margins = [1e-9 + (ls - kp), 1e-9 + (kp - bd.partovi_bound(oa, ob))]
        if oa.is_nondegenerate and ob.is_nondegenerate:
            mu = bd.maassen_uffink_bound(oa, ob)
            margins += [1e-9 + (ls - mu), 1e-9 + (mu - bd.deutsch_bound(oa, ob))]
        return margins
    if name == "sequential-entropy-identities":
        rep, collapsed = ent.entropies_sequential(rho, oa, ob), luders_map(rho, oa)
        return [1e-12 - abs(rep.s_a - ent.entropy_distinct(rho, oa)),
                1e-12 - abs(rep.s_a - ent.entropy_distinct(collapsed, oa)),
                1e-12 - abs(rep.s_b - ent.entropy_distinct(collapsed, ob))]
    if name == "variance-relations":
        rep = ent.variance_relations(rho, oa, ob)
        return [1e-9 + (rep.var_a * rep.var_b - rep.robertson_rhs),
                1e-9 + (rep.var_a_seq * rep.var_b_seq - rep.successive_rhs),
                1e-10 - operator_norm(a @ rep.c_of_b - rep.c_of_b @ a)]
    if name == "projector-norm-identity":
        margins = []
        for p in oa.projectors:
            for q in ob.projectors:
                cross = operator_norm(p @ q) ** 2
                margins += [1e-10 - abs(cross - operator_norm(p @ q @ p)),
                            1e-10 + (0.25 * operator_norm(p + q) ** 2 - cross)]
        return margins
    once = luders_map(rho, oa)
    return ([1e-10 - operator_norm(once @ p - p @ once) for p in oa.projectors]
            + [1e-12 - operator_norm(luders_map(once, oa) - once),
               1e-10 - interference_gap(once, oa, ob)])


@pytest.mark.parametrize("prop", [verify.check_spectral_resolution,
                                  verify.check_projector_norm_identity,
                                  verify.check_luders_fixed_points,
                                  verify.check_joint_entropy_floor,
                                  verify.check_bound_ordering,
                                  verify.check_sequential_entropy_identities,
                                  verify.check_variance_relations], ids=lambda p: p.__name__)
def test_degenerate_instances_keep_their_margins(prop, monkeypatch):
    """Observables with fewer outcomes than their dimension are checked over their
    outcomes only, and instances whose eigenspace sizes differ are checked in
    separate groups, with the margins of one instance at a time (Maassen-Uffink
    and Deutsch only on nondegenerate pairs)."""
    rng = np.random.default_rng(12)
    cases = {dim: [_with_spectrum(m, spread, rng) for m, spread in (
        ([1] * dim, 0.0), ([2] + [1] * (dim - 2), 0.0), ([dim - 1, 1], 1e-12), ([dim], 0.0),
        ([1] * (dim - 2) + [2], 1e-12))] for dim in (3, 4)}
    assert [spectral_resolution(m).n_outcomes for m in cases[4]] == [4, 3, 2, 1, 3]
    rho = {dim: verify._random_density(dim, rng) for dim in (3, 4)}
    # each instance pairs matrix k with matrix k + 1 of its dimension
    instances = [(dim, k) for k in range(5) for dim in (3, 4)]
    drawn = iter(instances)

    def fake_draw(names, dim, rng):
        d, k = next(drawn)
        arrays = {"rho": rho[d], "H": cases[d][k], "A": cases[d][k], "B": cases[d][(k + 1) % 5]}
        return [arrays[name] for name in names]

    monkeypatch.setattr(verify, "_draw", fake_draw)
    result = prop(0, len(instances), (3, 4))
    name = result.name
    expected = min(min(_one_at_a_time_margins(name, rho[d], cases[d][k], cases[d][(k + 1) % 5]))
                   for d, k in instances)
    assert result.worst == expected
    assert result.ok


#: ``.3e`` margins printed by the one-instance-at-a-time runner, in property order.
PER_INSTANCE_MARGINS = {
    ("--instances", "1"): (
        "1.000e-10 1.000e-09 9.997e-13 9.998e-13 9.999e-13 7.333e-02 1.000e-09 6.978e-01 "
        "1.809e-01 1.000e-10 5.634e-04 4.899e-02 1.000e-09 1.000e-10 1.000e-06"),
    ("--dims", "6-8", "--instances", "8", "--seed", "3"): (
        "1.000e-10 1.000e-09 9.994e-13 9.988e-13 9.993e-13 1.466e-01 1.000e-09 2.049e+00 "
        "1.215e-01 1.000e-10 4.059e-01 3.558e-01 1.000e-09 9.999e-11 1.000e-06"),
    ("--instances", "7", "--seed", "5"): (
        "1.000e-10 1.000e-09 9.993e-13 9.988e-13 9.993e-13 3.884e-02 1.000e-09 5.194e-01 "
        "3.225e-02 1.000e-10 2.410e-02 5.552e-02 1.000e-09 1.000e-10 1.000e-06"),
}


@pytest.mark.parametrize("args", sorted(PER_INSTANCE_MARGINS), ids=" ".join)
def test_margins_match_per_instance_runner(args, capsys):
    assert main(["verify", *args, "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
    assert [margin for *_, margin in rows] == PER_INSTANCE_MARGINS[args].split()


#: Runs recorded from the runner that called the library once per instance.
RECORDED_RUNS = {
    "verify-dims6-8.csv": ["--dims", "6-8", "--format", "csv"],
    # two chunk boundaries, and groups of uneven size at every dimension
    "verify-129-dims2-16.json": ["--instances", "129", "--dims", "2-16", "--seed", "7",
                                 "--format", "json"],
}


@pytest.mark.parametrize("name", sorted(RECORDED_RUNS))
def test_recorded_run_matches_golden(name, capsys):
    assert main(["verify", *RECORDED_RUNS[name]]) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / name).read_text(encoding="utf-8")


def test_default_run_matches_golden(capsys):
    """``sequr verify --format json`` at its defaults (seed 42, 200 instances, dims 2-5)."""
    assert main(["verify", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN_DIR / "verify-default.json").read_text(encoding="utf-8")
    assert json.loads(out)["all_ok"]


def test_instance_cap_refused_before_drawing(monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("verify ran past the instance cap")

    monkeypatch.setattr(verify, "run_all", never)
    assert main(["verify", "--instances", str(10**5 + 1)]) == 2
    assert "exceeds the limit of 100000" in capsys.readouterr().err
