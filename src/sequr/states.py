"""States, the projective collapse map, and sequential-measurement joint probabilities.

Density operators are plain complex ``numpy`` arrays. The joint distribution of
an ordered measurement sequence, ``Tr[... P_B P_A rho P_A P_B ...]``, is
computed on the observables' eigenspace isometries, the column blocks
``edges[i]:edges[i + 1]`` of ``Observable.eigenbasis``, rather than on full
projectors: a state collapsed into an eigenspace of multiplicity m is kept as
its m x m block in that eigenspace, and moves to the next observable's
eigenbasis through the overlap of the two isometries. For
nondegenerate observables the blocks are numbers and the table is the Markov
chain ``p_A(i) |<a_i|b_j>|^2 |<b_j|c_k>|^2 ...``. The seeded sampler walks the
same blocks depth first, carrying all the children of a branch in stacked
products and drawing the leaves of a branch in one call, and provides an
independent stochastic oracle for the table; the operator stacks of the
sequential bound and search are collapsed on the same isometries.
``luders_map``, ``outcome_probabilities`` and ``interference_gap`` stay on the
projectors, as the definitional oracle. Every function here that takes a state
and ``Observable``s also takes a stack of states with observables stacked by
``linalg.stack_observables``, and maps it instance by instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
import numpy.random  # noqa: F401  (numpy 2 imports it lazily, inside the first seeded call)

from .linalg import (Observable, _check_dim, _hermitian, _scalar_or_stack, as_complex_matrix,
                     spectral_resolution)

#: Probabilities in [-NEGATIVE_CLIP, 0) are treated as roundoff and clipped to 0.
NEGATIVE_CLIP = 1e-12

#: A probability vector or table whose total is farther than this from 1 is rejected.
TOTAL_TOL = 1e-9

#: Largest joint table (product of the outcome counts) a measurement sequence may have.
MAX_TABLE_CELLS = 2**20

#: Largest sample count ``sample_sequence`` accepts: its counts are int64.
MAX_SAMPLES = int(np.iinfo(np.int64).max)


def normalize_state(vector) -> np.ndarray:
    """Return ``vector`` scaled to unit norm."""
    v = np.asarray(vector, dtype=complex).ravel()
    norm = np.linalg.norm(v)
    if norm == 0 or not np.isfinite(norm):
        raise ValueError("state vector must be nonzero and finite")
    return v / norm


def pure_density(vector) -> np.ndarray:
    """Density operator |psi><psi| of a (normalized) state vector."""
    v = normalize_state(vector)
    return np.outer(v, v.conj())


def check_density(rho: np.ndarray, trace_tol: float = 1e-10, eig_tol: float = 1e-10) -> np.ndarray:
    """Validate a density operator and return it made exact.

    ``rho`` must be Hermitian, with unit trace within ``trace_tol`` and no
    eigenvalue below ``-eig_tol``. The state returned is rebuilt from the
    eigendecomposition of its Hermitian part, with the eigenvalues clipped at
    0 and divided by their sum, as ``pure_density`` normalizes a vector: the
    joint table and the sampler hold a state to tighter tolerances than the
    ones accepted here.
    """
    m = as_complex_matrix(rho)
    if not _hermitian(m):
        raise ValueError("density operator is not Hermitian")
    trace = complex(np.trace(m))
    if abs(trace.real - 1.0) > trace_tol or abs(trace.imag) > trace_tol:
        raise ValueError(f"density operator trace {trace.real}{trace.imag:+}j != 1")
    if np.linalg.eigvalsh(m).min() < -eig_tol:
        raise ValueError("density operator has a negative eigenvalue")
    weights, basis = np.linalg.eigh((m + m.conj().T) / 2)
    weights = np.clip(weights, 0.0, None)
    return (basis * (weights / weights.sum())) @ basis.conj().T


def _clip_probabilities(p: np.ndarray) -> np.ndarray:
    if not p.min() >= -NEGATIVE_CLIP:  # NaN fails too
        raise ValueError(f"probability {p.min():.3g} below clip tolerance or not a number")
    return np.clip(p, 0.0, None)


def outcome_probabilities(rho: np.ndarray, obs: Observable) -> np.ndarray:
    """Outcome distribution Tr[rho P(a_i)] of a single measurement, no collapse.

    ``rho`` and a stacked ``obs`` may carry leading instance axes, which
    broadcast; the distributions are then stacked along them. Each is taken
    by its own contraction, as a stacked one moves the last bit.
    """
    obs.require_same_dim(rho)
    projectors = obs.projectors
    lead = np.broadcast_shapes(projectors.shape[:-3], np.shape(rho)[:-2])
    n, dim = obs.n_outcomes, obs.dim
    pairs = zip(np.broadcast_to(projectors, (*lead, n, dim, dim)).reshape(-1, n, dim, dim),
                np.broadcast_to(rho, (*lead, dim, dim)).reshape(-1, dim, dim))
    p = np.array([np.einsum("kij,ji->k", q, r) for q, r in pairs]).reshape(*lead, n).real
    return _clip_probabilities(p)


def luders_map(rho: np.ndarray, obs: Observable) -> np.ndarray:
    """Non-selective collapse sum_i P(a_i) rho P(a_i), of one operator or of a stack.

    ``rho`` is one (d, d) operator or a stack of shape (..., d, d), mapped
    matrix by matrix; a stacked ``obs`` maps the instances of a stack of the
    same length. The output commutes with every eigenprojector of ``obs``; a
    density operator maps to a density operator.
    """
    obs.require_same_dim(rho)
    projectors = obs.projectors
    out = np.zeros(np.broadcast_shapes(np.shape(rho), projectors.shape[:-3] + (1, 1)),
                   dtype=complex)
    for k in range(obs.n_outcomes):
        p = projectors[..., k, :, :]
        out += p @ rho @ p
    return out


@dataclass(frozen=True)
class JointDistribution:
    """Joint outcome table of an ordered measurement sequence.

    ``axes[k]`` lists the distinct eigenvalues of the k-th observable and
    ``table`` is the nonnegative probability array indexed in the same order.
    The tables of a stack of instances (``wigner_joint`` on stacked
    observables) carry a leading instance axis, in ``table`` and in each of
    ``axes``; each table is normalized and checked on its own.
    """

    axes: tuple
    table: np.ndarray

    def __post_init__(self):
        # the clipped copy is the only one made: it is normalized in place
        table = _clip_probabilities(np.asarray(self.table, dtype=float))
        lead = table.shape[:table.ndim - len(self.axes)]
        totals = table.reshape(*lead, -1).sum(axis=-1)
        off = np.abs(totals - 1.0) > TOTAL_TOL
        if off.any():
            raise ValueError(f"joint table sums to {float(totals[off][0])}, not 1")
        table /= totals.reshape(*lead, *[1] * len(self.axes))
        object.__setattr__(self, "table", table)

    def marginal(self, axis: int) -> np.ndarray:
        lead = self.table.ndim - len(self.axes)
        others = tuple(lead + k for k in range(len(self.axes)) if k != axis)
        return self.table.sum(axis=others)

    def marginals(self) -> list:
        return [self.marginal(k) for k in range(len(self.axes))]


def _table_shape(rho: np.ndarray, observables) -> tuple:
    """Shape of the joint table of ``observables`` measured in order on ``rho``.

    Raises ``ValueError`` for an empty sequence or a table above
    ``MAX_TABLE_CELLS``, before anything is allocated.
    """
    if not observables:
        raise ValueError("need at least one observable")
    for obs in observables:
        obs.require_same_dim(rho)
    shape = tuple(obs.n_outcomes for obs in observables)
    cells = math.prod(shape)
    if cells > MAX_TABLE_CELLS:
        raise ValueError(f"joint table of {cells} cells exceeds the limit of {MAX_TABLE_CELLS}")
    return shape


def _chain_overlaps(observables) -> list:
    """Isometry overlaps of an ordered measurement chain.

    ``overlaps[k][j]`` is ``T_k[j] = B_k^dagger V_{k-1,j}``: the j-th eigenspace
    isometry of the previous observable written in the eigenbasis B_k of
    observable k, whose l-th eigenspace spans rows ``edges[l]:edges[l + 1]``.
    Before the first observable the identity stands in as a single outcome, so
    ``overlaps[0]`` is ``[B_0^dagger]``. Raises ``DimensionMismatch`` before any
    product if the dimensions differ.

    A reduced block ``s`` of a prefix ending in outcome j of observable k - 1
    (the collapsed state is ``V_{k-1,j} s V_{k-1,j}^dagger``) becomes
    ``T_k[j] s T_k[j]^dagger`` in the eigenbasis of observable k; its l-th
    diagonal block is the reduced block of the prefix extended by outcome l,
    and its trace is that prefix's probability.
    """
    overlaps = []
    previous = None
    for obs in observables:
        observables[0].require_same_dim(obs)
        basis_h = obs.eigenbasis.conj().swapaxes(-2, -1)
        # B_0^dagger in C order, the layout of the products it replaces: a
        # transposed view moves table entries in the last bit
        overlaps.append([np.ascontiguousarray(basis_h)] if previous is None
                        else [basis_h @ v for v in previous])
        previous = obs.eigenvectors
    return overlaps


def _sequential_stacks(chain) -> list:
    """Operator stacks whose expectations give each step's outcome distribution.

    The k-th stack has shape (n_k, d, d): the projectors of the k-th observable
    mapped by the collapse of every earlier one, latest first, so each marginal
    of the sequential measurement is an expectation in the initial state. Stage
    0 is ``chain[0].projectors``. Later stages are built on ``_chain_overlaps``:
    a collapse keeps the eigenspace blocks in the eigenbasis B_k of its
    observable, and ``B_{k-1}^dagger B_k`` carries the stack on to B_{k-1}.
    """
    first, *later = chain
    if not later:
        return [first.projectors]
    # B_k^dagger B_{k-1}
    rows = [np.concatenate(level, axis=-1) for level in _chain_overlaps(chain)]
    lead = first.eigenbasis.shape[:-2]
    carried = np.empty((*lead, 0, first.dim, first.dim), dtype=complex)
    for depth in range(len(chain) - 1, 0, -1):
        # stage depth's projectors join the later stages in eigenbasis depth - 1
        r, prior = rows[depth], chain[depth - 1]
        projectors = np.add.reduceat(r.conj()[..., :, :, None] * r[..., :, None, :],
                                     chain[depth].edges[:-1], axis=-3)
        # the eigenspace of prior that each column of its eigenbasis lies in
        label = np.searchsorted(prior.edges[1:], np.arange(prior.dim), side="right")
        carried = np.concatenate([projectors, carried], axis=-3) * (label[:, None] == label)
        back = rows[depth - 1][..., None, :, :]
        carried = back.conj().swapaxes(-2, -1) @ carried @ back
    stops = list(accumulate((obs.n_outcomes for obs in later), initial=0))
    return [first.projectors, *(carried[..., lo:hi, :, :] for lo, hi in zip(stops, stops[1:]))]


def wigner_joint(rho: np.ndarray, *observables: Observable) -> JointDistribution:
    """Joint probability of an ordered sequence of projective measurements.

    For observables A, B, ... measured in that order on state ``rho``, the
    entry for outcomes (a_i, b_j, ...) is
    ``Tr[... P_B(b_j) P_A(a_i) rho P_A(a_i) P_B(b_j) ...]``. Marginals over the
    trailing observables reproduce the shorter chain's distribution.

    The table is built level by level over the chain. Each outcome prefix
    keeps only its m x m reduced block in the eigenspace (of multiplicity m)
    it ended in, and all prefixes ending in the same eigenspace move to each
    next eigenspace by one batched product with the isometry overlaps (see
    ``_chain_overlaps``). The last level keeps only the block traces. For
    nondegenerate observables every block is a number and the table is the
    Markov chain ``p_A(i) |<a_i|b_j>|^2 |<b_j|c_k>|^2 ...``.

    On a stack of states (n, d, d) and stacked observables, the products run
    per instance in the same order, as batched ``matmul``: the n tables are
    those of the instances alone, bit for bit.
    """
    shape = _table_shape(rho, observables)
    overlaps = _chain_overlaps(observables)
    rho = np.asarray(rho, dtype=complex)
    lead = np.broadcast_shapes(rho.shape[:-2], observables[0].eigenbasis.shape[:-2])
    # blocks[j] stacks the reduced blocks of every prefix ending in outcome j
    # of the latest observable, in C order of the outcomes before it, after
    # the instance axes of a stack
    blocks = [np.broadcast_to(rho, (*lead, *rho.shape[-2:]))[..., None, :, :]]
    for obs, level_overlaps in zip(observables[:-1], overlaps[:-1]):
        spans = list(zip(obs.edges[:-1], obs.edges[1:]))
        rows = blocks[0].shape[-3]
        extended = [np.empty((*lead, rows, len(blocks), hi - lo, hi - lo), dtype=complex)
                    for lo, hi in spans]
        for j, (t, block) in enumerate(zip(level_overlaps, blocks)):
            # one product pair per j -> l transition: sharing t @ block across l
            # saves under 10% and moves the last digit of a default verify margin
            for out, (lo, hi) in zip(extended, spans):
                part = t[..., None, lo:hi, :]
                out[..., j, :, :] = part @ block @ part.conj().swapaxes(-2, -1)
        blocks = [out.reshape(*lead, -1, *out.shape[-2:]) for out in extended]
    table = np.empty((*lead, blocks[0].shape[-3], len(blocks), shape[-1]))
    for j, (t, block) in enumerate(zip(overlaps[-1], blocks)):
        # only the diagonal of t @ block @ t^dagger, summed per eigenspace
        t = t[..., None, :, :]
        diagonal = ((t @ block) * t.conj()).sum(axis=-1).real
        table[..., j, :] = np.add.reduceat(diagonal, observables[-1].edges[:-1], axis=-1)
    axes = tuple(obs.eigenvalues.copy() for obs in observables)
    return JointDistribution(axes=axes, table=table.reshape(*lead, *shape))


def interference_gap(rho: np.ndarray, first: Observable, second: Observable) -> float:
    """Largest shift a prior ``first``-measurement induces on ``second``'s distribution.

    Returns ``max_j |Tr[E(rho) P_B(b_j)] - Tr[rho P_B(b_j)]|`` where ``E`` is
    the collapse map of ``first``; zero whenever ``rho`` already commutes with
    the eigenprojectors of ``first``.
    """
    disturbed = outcome_probabilities(luders_map(rho, first), second)
    direct = outcome_probabilities(rho, second)
    return _scalar_or_stack(np.abs(disturbed - direct).max(axis=-1))


def sample_sequence(rho: np.ndarray, chain, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` outcome tuples from a sequential measurement, as a count table.

    Sampling follows the collapse chain: each measurement's outcome is drawn
    from ``Tr[rho P(a_i)]`` and the state collapses to ``P rho P`` (normalized)
    before the next one. A collapsed state is kept as its reduced block in the
    eigenspace it collapsed into, and carried into the next eigenbasis by the
    isometry overlaps of ``_chain_overlaps``; the next outcome probabilities
    are the traces of the diagonal blocks there. Counts are aggregated per
    branch (the split of a branch's samples across the next measurement's
    outcomes is multinomial, exactly as if each tuple were drawn one at a
    time), so runtime does not scale with ``n``.

    Branches draw depth first. Once a branch has drawn its split, the blocks
    and weights of all its children that received samples are carried in
    stacked products, one per eigenspace size, before any child draws; the
    children of a last-but-one branch are leaves whose draws are consecutive,
    so one multinomial call with a row per child draws them all. A child with
    no samples is neither carried nor drawn, so zero-probability branches are
    never visited. Deterministic for a fixed ``seed``. ``rho`` is checked
    once, as ``check_density`` checks its eigenvalues, so a branch weight that
    roundoff makes negative counts as zero. The analytic table of
    ``wigner_joint`` is never read.
    """
    if n < 1:
        raise ValueError("sample count must be >= 1")
    if n > MAX_SAMPLES:
        raise ValueError(f"sample count {n} exceeds the limit of {MAX_SAMPLES}")
    chain = list(chain)
    shape = _table_shape(rho, chain)
    rho = np.asarray(rho, dtype=complex)
    # finite first: eigvalsh can return finite eigenvalues for a NaN matrix
    if not (np.isfinite(rho).all() and np.linalg.eigvalsh(rho).min() >= -1e-10):
        raise ValueError("state must be finite with no eigenvalue below -1e-10")
    # level k carries blocks from the eigenspaces of observable k - 1 (before
    # the first one, the identity as a single outcome) into eigenbasis k; its
    # groups stack the overlaps per eigenspace size m, and slot[j] is the
    # place of outcome j's overlap in its group
    dim = len(rho)
    edges = [np.array([0, dim])] + [np.array(obs.edges) for obs in chain]
    levels = []
    for k, level_overlaps in enumerate(_chain_overlaps(chain)):
        sizes = np.diff(edges[k])
        groups = []
        for m in sorted(set(sizes.tolist())):
            members = np.flatnonzero(sizes == m)
            t = np.stack([level_overlaps[j] for j in members])
            slot = np.zeros(len(sizes), dtype=np.intp)
            slot[members] = np.arange(len(members))
            groups.append((m, t, t.conj(), slot))
        levels.append((sizes, groups, edges[k + 1][:-1]))
    rng = np.random.default_rng(seed)
    counts = np.zeros(shape, dtype=np.int64)
    table = counts[None]  # indexed by the initial outcome too
    last = len(chain) - 1

    def visit(carried, weights, split, depth, idx):
        """Carry and draw the children of a branch that has drawn ``split``.

        ``carried`` is the branch's block in eigenbasis ``depth`` (-1 is the
        initial state), ``weights`` its unnormalized outcome weights and
        ``idx`` its outcomes, a prefix of the table's index.
        """
        live = np.flatnonzero(split)
        sizes, groups, heads = levels[depth + 1]
        children = np.empty((len(live), dim, dim), dtype=complex)
        for m, t, t_conj, slot in groups:
            mask = sizes[live] == m
            members = live[mask]
            span = edges[depth + 1][members, None] + np.arange(m)
            blocks = carried[span[:, :, None], span[:, None, :]] / weights[members, None, None]
            # per child, bit for bit the unstacked t @ block @ t^dagger
            where = slot[members]
            children[mask] = t[where] @ blocks @ t_conj[where].transpose(0, 2, 1)
        child_weights = np.maximum(
            np.add.reduceat(children.diagonal(axis1=1, axis2=2).real, heads, axis=1), 0.0)
        pvals = child_weights / child_weights.sum(axis=1, keepdims=True)
        if depth + 1 == last:
            table[idx][live] = rng.multinomial(split[live], pvals)
            return
        for row, outcome in enumerate(live):
            visit(children[row], child_weights[row], rng.multinomial(split[outcome], pvals[row]),
                  depth + 1, idx + (outcome,))

    visit(rho, np.ones(1), np.array([n], dtype=np.int64), -1, ())
    return counts


def random_state_vector(dim: int, rng) -> np.ndarray:
    """Unit vector with rotation-invariant (complex standard normal) direction."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return normalize_state(v)


def random_state(dim: int, seed: int) -> np.ndarray:
    """Random pure density operator, deterministic for a given seed."""
    _check_dim(dim)
    return pure_density(random_state_vector(dim, np.random.default_rng(seed)))


def random_hermitian(dim: int, rng) -> np.ndarray:
    """Hermitian matrix (G + G^dagger)/2 with complex standard-normal G drawn from ``rng``."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def random_observable(dim: int, seed) -> Observable:
    """Random Hermitian observable (G + G^dagger)/2 with standard-normal G.

    ``seed`` is an integer seed or a ``numpy`` Generator to draw from.
    """
    _check_dim(dim)
    return spectral_resolution(random_hermitian(dim, np.random.default_rng(seed)))
