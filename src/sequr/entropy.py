"""Shannon entropies of measurement outcome distributions, plus the variance relations.

Every entropy is in nats. The ``0 log 0 = 0`` convention is implemented by
giving weights at or below ``WEIGHT_FLOOR`` a zero log term, which is the same
thing at machine precision. Every entropy in the package goes through the one
row-wise kernel ``_entropy``, the optimizer objectives included
(``_quadratic_entropy``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Observable
from .states import (TOTAL_TOL, _clip_probabilities, luders_map, outcome_probabilities,
                     wigner_joint)

#: Weights below this contribute nothing to an entropy sum.
WEIGHT_FLOOR = 1e-15


def _entropy(p: np.ndarray) -> np.ndarray:
    """Entropies -sum p_i log p_i of nonnegative weights, row-wise over the last axis.

    Weights of shape (..., n) give values of shape (...); a 1-D input gives a
    0-d array. Each value is bit-equal to the one of its row alone, whatever
    the layout of ``p``: the log terms are written to a C-order array, so the
    products are summed row by row in C order. Weights at or below
    ``WEIGHT_FLOOR`` get a zero log term, so ``log(0)`` is never taken. A
    weight that rounds slightly above 1 would give a tiny negative sum, so
    every value is clamped at 0 and is never ``-0.0``; a NaN row stays NaN.
    Kept private so that tracing public functions adds nothing to the
    optimizer objectives, which call it on every evaluation.
    """
    log_p = np.log(p, out=np.zeros(p.shape), where=p > WEIGHT_FLOOR)
    # 0 - x is never -0.0, and maximum keeps a NaN row NaN
    return np.maximum(0.0 - (p * log_p).sum(axis=-1), 0.0)


def _quadratic_entropy(stack: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Entropies of the distributions <psi|M_k|psi> for a stack of operators M_k.

    Row-wise like ``_entropy``: ``states`` of shape (..., dim) give values of
    shape (...). A roundoff-negative weight lies below ``WEIGHT_FLOOR`` and adds
    nothing; a NaN state gives a NaN value.
    """
    return _entropy(np.einsum("kij,...i,...j->...k", stack, states.conj(), states).real)


def _quadratic_entropy_gradient(stack: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Wirtinger gradient dS/dpsi-bar = -sum_k (log p_k + 1) M_k psi of ``_quadratic_entropy``.

    Row-wise: ``states`` of shape (..., dim) give gradients of the same shape.
    Weights at or below ``WEIGHT_FLOOR`` get no log term, as the value drops
    them, so the singularity at p_k = 0 never enters. Their ``+ 1`` terms are
    kept: on a stack that sums to the identity the ``+ 1`` terms add up to a
    multiple of psi, which has no component along the unit sphere, so the
    gradient stays zero wherever the value is flat to machine precision.
    """
    m_psi = np.einsum("kij,...j->...ki", stack, states)
    p = np.einsum("...i,...ki->...k", states.conj(), m_psi).real
    log_p = np.log(p, out=np.zeros(p.shape), where=p > WEIGHT_FLOOR)
    return -np.einsum("...k,...ki->...i", log_p + 1.0, m_psi)


def shannon_entropy(weights) -> float:
    """Entropy -sum p_i log p_i of a discrete distribution.

    The result lies in [0, log n]. Raises ``ValueError`` if the weights are
    not a probability distribution (within clipping tolerance).
    """
    p = _clip_probabilities(np.asarray(weights, dtype=float).ravel())
    if p.max(initial=0.0) > 1.0 + TOTAL_TOL:
        raise ValueError("weights must lie in [0, 1]")
    if abs(p.sum() - 1.0) > TOTAL_TOL:
        raise ValueError(f"weights sum to {float(p.sum())}, not 1")
    return float(_entropy(p))


def entropy_distinct(rho: np.ndarray, obs: Observable) -> float:
    """Entropic uncertainty of one observable measured on its own ensemble."""
    return shannon_entropy(outcome_probabilities(rho, obs))


@dataclass(frozen=True)
class EntropyReport:
    """Marginal and joint entropies of a sequential measurement."""

    s_a: float
    s_b: float
    s_joint: float
    s_c: float | None = None


def entropies_sequential(rho: np.ndarray, a: Observable, b: Observable) -> EntropyReport:
    """Entropies of the outcome distributions when ``a`` then ``b`` are measured.

    The first marginal entropy coincides with the distinct-measurement value;
    the second is the distinct-measurement entropy of ``b`` in the collapsed
    state. The joint entropy obeys sub-additivity and dominates both marginals.
    """
    return _sequential_report(wigner_joint(rho, a, b))


def entropies_sequential_3(
    rho: np.ndarray, a: Observable, b: Observable, c: Observable
) -> EntropyReport:
    """Entropies for the three-step sequence ``a``, ``b``, ``c``."""
    return _sequential_report(wigner_joint(rho, a, b, c))


def _sequential_report(joint) -> EntropyReport:
    s_a, s_b, *s_c = (shannon_entropy(p) for p in joint.marginals())
    return EntropyReport(s_a=s_a, s_b=s_b, s_c=s_c[0] if s_c else None,
                         s_joint=shannon_entropy(joint.table))


@dataclass(frozen=True)
class VarianceReport:
    """Variance-form uncertainty data for one pair of observables.

    ``var_a``/``var_b`` are the distinct-ensemble variances with the
    commutator lower bound ``robertson_rhs``. The ``_seq`` variances come from
    the sequential joint distribution; their product is bounded below by the
    squared covariance ``successive_rhs`` of that distribution, which equals
    ``|Tr[rho A C] - Tr[rho A] Tr[rho C]|^2`` for the second observable
    pinched by the first, ``C = sum_i P_A(a_i) B P_A(a_i)`` (``luders_map``
    applied to ``B``), stored in ``c_of_b``.
    """

    var_a: float
    var_b: float
    robertson_rhs: float
    var_a_seq: float
    var_b_seq: float
    successive_rhs: float
    c_of_b: np.ndarray


def variance_relations(rho: np.ndarray, a: Observable, b: Observable) -> VarianceReport:
    """Evaluate both variance-form uncertainty relations for ``a`` and ``b`` on ``rho``."""
    a.require_same_dim(rho)
    b.require_same_dim(rho)
    rho = np.asarray(rho, dtype=complex)

    def expect(m):
        return np.trace(rho @ m)

    var_a = float((expect(a.matrix @ a.matrix) - expect(a.matrix) ** 2).real)
    var_b = float((expect(b.matrix @ b.matrix) - expect(b.matrix) ** 2).real)
    commutator = a.matrix @ b.matrix - b.matrix @ a.matrix
    robertson = 0.25 * abs(expect(commutator)) ** 2

    joint = wigner_joint(rho, a, b)
    pa, pb = joint.marginals()
    ea = float(pa @ joint.axes[0])
    eb = float(pb @ joint.axes[1])
    var_a_seq = float(pa @ joint.axes[0] ** 2) - ea**2
    var_b_seq = float(pb @ joint.axes[1] ** 2) - eb**2
    c_of_b = luders_map(b.matrix, a)
    successive = abs(expect(a.matrix @ c_of_b) - expect(a.matrix) * expect(c_of_b)) ** 2

    return VarianceReport(
        var_a=var_a,
        var_b=var_b,
        robertson_rhs=float(robertson),
        var_a_seq=var_a_seq,
        var_b_seq=var_b_seq,
        successive_rhs=float(successive),
        c_of_b=c_of_b,
    )
