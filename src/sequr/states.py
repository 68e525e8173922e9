"""States, the projective collapse map, and sequential-measurement joint probabilities.

Density operators are plain complex ``numpy`` arrays. The joint distribution of
an ordered measurement sequence is computed by nested conjugation with the
observables' eigenprojectors; the seeded sampler provides an independent
stochastic oracle for the same distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .linalg import Observable, _check_dim, as_complex_matrix, is_hermitian, spectral_resolution

#: Probabilities in [-NEGATIVE_CLIP, 0) are treated as roundoff and clipped to 0.
NEGATIVE_CLIP = 1e-12

#: A probability table whose total is farther than this from 1 is rejected.
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
    """Validate a density operator: Hermitian, unit trace, eigenvalues >= -eig_tol."""
    m = as_complex_matrix(rho)
    if not is_hermitian(m):
        raise ValueError("density operator is not Hermitian")
    if abs(np.trace(m).real - 1.0) > trace_tol or abs(np.trace(m).imag) > trace_tol:
        raise ValueError(f"density operator trace {np.trace(m):.3g} != 1")
    if np.linalg.eigvalsh(m).min() < -eig_tol:
        raise ValueError("density operator has a negative eigenvalue")
    return m


def _clip_probabilities(p: np.ndarray) -> np.ndarray:
    if p.min() < -NEGATIVE_CLIP:
        raise ValueError(f"probability {p.min():.3g} below clip tolerance")
    return np.clip(p, 0.0, None)


def outcome_probabilities(rho: np.ndarray, obs: Observable) -> np.ndarray:
    """Outcome distribution Tr[rho P(a_i)] of a single measurement, no collapse."""
    obs.require_same_dim(rho)
    p = np.einsum("kij,ji->k", obs.projectors, rho).real
    return _clip_probabilities(p)


def luders_map(rho: np.ndarray, obs: Observable) -> np.ndarray:
    """Non-selective collapse sum_i P(a_i) rho P(a_i).

    The output commutes with every eigenprojector of ``obs`` and is again a
    valid density operator.
    """
    obs.require_same_dim(rho)
    out = np.zeros_like(np.asarray(rho, dtype=complex))
    for p in obs.projectors:
        out += p @ rho @ p
    return out


@dataclass(frozen=True)
class JointDistribution:
    """Joint outcome table of an ordered measurement sequence.

    ``axes[k]`` lists the distinct eigenvalues of the k-th observable and
    ``table`` is the nonnegative probability array indexed in the same order.
    """

    axes: tuple
    table: np.ndarray

    def __post_init__(self):
        table = _clip_probabilities(np.asarray(self.table, dtype=float))
        total = table.sum()
        if abs(total - 1.0) > TOTAL_TOL:
            raise ValueError(f"joint table sums to {total!r}, not 1")
        object.__setattr__(self, "table", table / total)

    def marginal(self, axis: int) -> np.ndarray:
        others = tuple(k for k in range(self.table.ndim) if k != axis)
        return self.table.sum(axis=others)

    def marginals(self) -> list:
        return [self.marginal(k) for k in range(self.table.ndim)]


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


def wigner_joint(rho: np.ndarray, *observables: Observable) -> JointDistribution:
    """Joint probability of an ordered sequence of projective measurements.

    For observables A, B, ... measured in that order on state ``rho``, the
    entry for outcomes (a_i, b_j, ...) is
    ``Tr[... P_B(b_j) P_A(a_i) rho P_A(a_i) P_B(b_j) ...]``. Marginals over the
    trailing observables reproduce the shorter chain's distribution.
    """
    shape = _table_shape(rho, observables)
    table = np.empty(shape, dtype=float)
    for idx in product(*(range(n) for n in shape)):
        state = np.asarray(rho, dtype=complex)
        for obs, i in zip(observables, idx):
            p = obs.projectors[i]
            state = p @ state @ p
        table[idx] = np.trace(state).real
    axes = tuple(obs.eigenvalues.copy() for obs in observables)
    return JointDistribution(axes=axes, table=table)


def interference_gap(rho: np.ndarray, first: Observable, second: Observable) -> float:
    """Largest shift a prior ``first``-measurement induces on ``second``'s distribution.

    Returns ``max_j |Tr[E(rho) P_B(b_j)] - Tr[rho P_B(b_j)]|`` where ``E`` is
    the collapse map of ``first``; zero whenever ``rho`` already commutes with
    the eigenprojectors of ``first``.
    """
    disturbed = outcome_probabilities(luders_map(rho, first), second)
    direct = outcome_probabilities(rho, second)
    return float(np.abs(disturbed - direct).max())


def sample_sequence(rho: np.ndarray, chain, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` outcome tuples from a sequential measurement, as a count table.

    Sampling follows the collapse chain: each measurement's outcome is drawn
    from ``Tr[rho P(a_i)]`` and the state collapses to ``P rho P`` (normalized)
    before the next one. Counts are aggregated per branch (the split of a
    branch's samples across the next measurement's outcomes is multinomial,
    exactly as if each tuple were drawn one at a time), so runtime does not
    scale with ``n``. Deterministic for a fixed ``seed``; zero-probability
    branches are never visited.
    """
    if n < 1:
        raise ValueError("sample count must be >= 1")
    if n > MAX_SAMPLES:
        raise ValueError(f"sample count {n} exceeds the limit of {MAX_SAMPLES}")
    chain = list(chain)
    shape = _table_shape(rho, chain)
    rng = np.random.default_rng(seed)
    counts = np.zeros(shape, dtype=np.int64)

    def descend(state, weight_count, depth, idx):
        if depth == len(chain):
            counts[idx] = weight_count
            return
        obs = chain[depth]
        probs = outcome_probabilities(state, obs)
        total = probs.sum()
        split = rng.multinomial(weight_count, probs / total)
        for i, c in enumerate(split):
            if c == 0:
                continue
            p = obs.projectors[i]
            collapsed = p @ state @ p
            descend(collapsed / np.trace(collapsed).real, c, depth + 1, idx + (i,))

    descend(np.asarray(rho, dtype=complex), n, 0, ())
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
