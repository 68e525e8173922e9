"""The joint table, the sequential-bound stages and the overlap table against mpmath.

Every value is recomputed at 40 significant digits from the same float64
matrices, by the definitions rather than by the kernels: spectral projectors
from ``mpmath.eighe`` summed over the eigenspaces the code found, the joint
cell Tr[... P_B P_A rho P_A P_B ...] by explicit collapse, the stage entropies
from the joint table of the later observables in each eigenstate of the first,
and c[i, j] = ||P_A(a_i) P_B(b_j)||^2 as the top eigenvalue of P Q P, with the
four distinct-ensemble bounds read off its largest entry. The float results
must agree within 1e-12, one instance at a time and as a stack.
"""

import mpmath
import numpy as np
import pytest

from sequr import bounds as bd
from sequr.linalg import spectral_resolution, stack_observables
from sequr.states import random_hermitian, random_state_vector, wigner_joint

DIGITS = 40
TOL = 1e-12


def _observable(sizes, rng):
    """The resolution of a random Hermitian matrix with eigenspaces of ``sizes``, in
    ascending order; each is exactly degenerate before the product is rounded."""
    q, _ = np.linalg.qr(random_hermitian(sum(sizes), rng))
    centres = np.repeat(np.cumsum(0.5 + rng.random(len(sizes))), sizes)
    obs = spectral_resolution(q @ np.diag(centres) @ q.conj().T)
    assert obs.multiplicities == tuple(sizes)
    return obs


def _state(dim, rng):
    """A mixture of two random pure states."""
    vectors = [random_state_vector(dim, rng) for _ in range(2)]
    return 0.3 * np.outer(vectors[0], vectors[0].conj()) + 0.7 * np.outer(vectors[1],
                                                                           vectors[1].conj())


def _mp(matrix) -> mpmath.matrix:
    return mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in np.asarray(matrix)])


def _projectors(obs) -> list:
    """The spectral projectors of ``obs.matrix``, summed over the eigenspaces of ``obs``."""
    values, vectors = mpmath.eighe(_mp(obs.matrix))
    order = sorted(range(obs.dim), key=lambda i: values[i])
    columns = [vectors[:, i] for i in order]
    projectors = []
    for lo, hi in zip(obs.edges, obs.edges[1:]):
        p = mpmath.zeros(obs.dim)
        for col in columns[lo:hi]:
            p += col * col.H
        projectors.append(p)
    return projectors


def _trace_product(p, s) -> mpmath.mpf:
    n = p.rows
    return mpmath.re(mpmath.fsum(p[i, j] * s[j, i] for i in range(n) for j in range(n)))


def _joint(rho, projector_chain) -> dict:
    """Cell (i_1, ..., i_k) -> Tr[P_k ... P_1 rho P_1 ... P_k], by explicit collapse."""
    collapsed = [((), rho)]
    for projectors in projector_chain[:-1]:
        collapsed = [(idx + (i,), p * s * p) for idx, s in collapsed
                     for i, p in enumerate(projectors)]
    return {idx + (i,): _trace_product(p, s) for idx, s in collapsed
            for i, p in enumerate(projector_chain[-1])}


def _entropy(weights) -> mpmath.mpf:
    return -mpmath.fsum(w * mpmath.log(w) for w in weights if w > 0)


def _chain_bound(projector_chain) -> tuple:
    """(stagewise, common_state, second_stage): the stage entropies of the later
    observables, from each eigenstate of the (nondegenerate) first one."""
    first, *later = projector_chain
    stages = []  # stages[i][k]: stage k entropy from eigenstate i
    for p in first:
        cells = _joint(p, later)
        stages.append([_entropy([mpmath.fsum(v for idx, v in cells.items() if idx[k] == j)
                                 for j in range(len(later[k]))]) for k in range(len(later))])
    return (mpmath.fsum(min(row[k] for row in stages) for k in range(len(later))),
            min(mpmath.fsum(row) for row in stages),
            min(row[-1] for row in stages))


def _overlap(p, q) -> mpmath.mpf:
    values, _ = mpmath.eighe(p * q * p)
    return max(mpmath.re(v) for v in values)


#: (dim, eigenspace sizes of each observable); None is a generic (nondegenerate) spectrum.
CHAINS = [
    (2, [None, None]), (3, [None, None]), (4, [None, None]), (5, [None, None]),
    (3, [[1, 2], [2, 1]]), (4, [[2, 2], [1, 3]]), (5, [[1, 1, 3], [2, 2, 1]]),
    (2, [None, None, None]), (3, [None, [1, 2], None]), (4, [None, None, [2, 1, 1]]),
    (5, [None, [3, 2], [1, 4]]),
    (2, [None, None, None, None]), (3, [None, [2, 1], None, [1, 2]]),
    (4, [None, [2, 2], [1, 3], None]), (5, [None, None, [2, 3], None]),
]


def _cases(dim, spectra, seed, count):
    """``count`` instances of one chain shape, sharing eigenspace sizes."""
    rng = np.random.default_rng(seed)
    sizes = [[1] * dim if s is None else s for s in spectra]
    return [([_observable(s, rng) for s in sizes], _state(dim, rng)) for _ in range(count)]


@pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
@pytest.mark.parametrize("case", range(len(CHAINS)))
def test_joint_cells(case, stacked):
    dim, spectra = CHAINS[case]
    instances = _cases(dim, spectra, 100 + case, 2 if stacked else 1)
    if stacked:
        chain = [stack_observables(list(column)) for column in zip(*(c for c, _ in instances))]
        tables = wigner_joint(np.stack([r for _, r in instances]), *chain).table
    else:
        (chain, rho), = instances
        tables = wigner_joint(rho, *chain).table[None]
    with mpmath.workdps(DIGITS):
        for (observables, rho), table in zip(instances, tables):
            cells = _joint(_mp(rho), [_projectors(obs) for obs in observables])
            assert len(cells) == table.size
            for idx, value in cells.items():
                assert abs(table[idx] - float(value)) <= TOL


@pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
@pytest.mark.parametrize("case", [k for k, (_, s) in enumerate(CHAINS) if s[0] is None])
def test_chain_bound_stages(case, stacked):
    dim, spectra = CHAINS[case]
    instances = _cases(dim, spectra, 200 + case, 2 if stacked else 1)
    if stacked:
        chain = [stack_observables(list(column)) for column in zip(*(c for c, _ in instances))]
        bound = bd.lambda_s_chain(chain)
        fields = np.column_stack([bound.stagewise, bound.common_state, bound.second_stage])
    else:
        bound = bd.lambda_s_chain(instances[0][0])
        fields = [[bound.stagewise, bound.common_state, bound.second_stage]]
    with mpmath.workdps(DIGITS):
        for (observables, _), values in zip(instances, fields):
            expected = _chain_bound([_projectors(obs) for obs in observables])
            assert all(abs(v - float(e)) <= TOL for v, e in zip(values, expected))


def _distinct_bounds(c) -> dict:
    """The four distinct-ensemble bounds from the largest overlap c; Maassen-Uffink and
    Deutsch are Krishna-Parthasarathy and Partovi on nondegenerate spectra."""
    kp, partovi = -mpmath.log(c), 2 * mpmath.log(2 / (1 + mpmath.sqrt(c)))
    return {"krishna_parthasarathy": kp, "maassen_uffink": kp, "partovi": partovi,
            "deutsch": partovi}


@pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
@pytest.mark.parametrize("case", [k for k, (_, s) in enumerate(CHAINS) if len(s) == 2])
def test_overlap_table_and_distinct_bounds(case, stacked):
    dim, spectra = CHAINS[case]
    instances = _cases(dim, spectra, 300 + case, 2 if stacked else 1)
    pairs = ([stack_observables(list(column)) for column in zip(*(c for c, _ in instances))]
             if stacked else instances[0][0])
    tables = bd._overlap_table(*pairs)
    names = {"krishna_parthasarathy": bd.krishna_parthasarathy_bound,
             "partovi": bd.partovi_bound}
    if pairs[0].is_nondegenerate and pairs[1].is_nondegenerate:
        names.update(maassen_uffink=bd.maassen_uffink_bound, deutsch=bd.deutsch_bound)
    values = {name: np.atleast_1d(bound(*pairs)) for name, bound in names.items()}
    if not stacked:
        tables = tables[None]
    with mpmath.workdps(DIGITS):
        for k, ((a, b), _) in enumerate(instances):
            expected = [[_overlap(p, q) for q in _projectors(b)] for p in _projectors(a)]
            assert tables[k].shape == (a.n_outcomes, b.n_outcomes)
            assert all(abs(tables[k][i, j] - float(expected[i][j])) <= TOL
                       for i in range(a.n_outcomes) for j in range(b.n_outcomes))
            closed = _distinct_bounds(max(max(row) for row in expected))
            assert all(abs(values[name][k] - float(closed[name])) <= TOL for name in names)
