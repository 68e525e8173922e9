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

from .linalg import Observable, _scalar_or_stack
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
    shape (...). Leading axes of ``stack`` (..., n, dim, dim) broadcast
    against those of ``states``. A roundoff-negative weight lies below
    ``WEIGHT_FLOOR`` and adds nothing; a NaN state gives a NaN value.
    """
    return _entropy(np.einsum("...kij,...i,...j->...k", stack, states.conj(), states).real)


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
    return float(_distribution_entropy(np.asarray(weights, dtype=float).ravel()))


def _distribution_entropy(weights: np.ndarray) -> np.ndarray:
    """``shannon_entropy`` row-wise over the last axis, each row checked on its own."""
    p = _clip_probabilities(weights)
    if (p.max(axis=-1, initial=0.0) > 1.0 + TOTAL_TOL).any():
        raise ValueError("weights must lie in [0, 1]")
    totals = p.sum(axis=-1)
    off = np.abs(totals - 1.0) > TOTAL_TOL
    if off.any():
        raise ValueError(f"weights sum to {float(totals[off][0])}, not 1")
    return _entropy(p)


def entropy_distinct(rho: np.ndarray, obs: Observable) -> float:
    """Entropic uncertainty of one observable measured on its own ensemble.

    Stacked like ``outcome_probabilities``: one value per instance.
    """
    return _scalar_or_stack(_distribution_entropy(outcome_probabilities(rho, obs)))


@dataclass(frozen=True)
class EntropyReport:
    """Marginal and joint entropies of a sequential measurement; on stacked
    observables each entropy is an array with one value per instance."""

    s_a: float
    s_b: float
    s_joint: float
    s_c: float | None = None


def entropies_sequential(rho: np.ndarray, a: Observable, b: Observable) -> EntropyReport:
    """Entropies of the outcome distributions when ``a`` then ``b`` are measured.

    The first marginal entropy coincides with the distinct-measurement value;
    the second is the distinct-measurement entropy of ``b`` in the collapsed
    state. The joint entropy obeys sub-additivity and dominates both marginals.
    ``rho`` and stacked observables may carry a leading instance axis, as in
    ``wigner_joint``.
    """
    return _sequential_report(wigner_joint(rho, a, b))


def entropies_sequential_3(
    rho: np.ndarray, a: Observable, b: Observable, c: Observable
) -> EntropyReport:
    """Entropies for the three-step sequence ``a``, ``b``, ``c``."""
    return _sequential_report(wigner_joint(rho, a, b, c))


def _sequential_report(joint) -> EntropyReport:
    lead = joint.table.shape[:joint.table.ndim - len(joint.axes)]
    s_a, s_b, *s_c = (_scalar_or_stack(_distribution_entropy(p)) for p in joint.marginals())
    s_joint = _distribution_entropy(joint.table.reshape(*lead, -1))
    return EntropyReport(s_a=s_a, s_b=s_b, s_c=s_c[0] if s_c else None,
                         s_joint=_scalar_or_stack(s_joint))


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
    """Evaluate both variance-form uncertainty relations for ``a`` and ``b`` on ``rho``.

    Stacked like ``wigner_joint``: every field then holds one value (or one
    ``c_of_b``) per instance.
    """
    a.require_same_dim(rho)
    b.require_same_dim(rho)
    rho = np.asarray(rho, dtype=complex)

    def expect(m):
        return np.trace(rho @ m, axis1=-2, axis2=-1)

    def mean(p, values):
        return (p[..., None, :] @ values[..., :, None])[..., 0, 0]

    var_a = _scalar_or_stack((expect(a.matrix @ a.matrix) - expect(a.matrix) ** 2).real)
    var_b = _scalar_or_stack((expect(b.matrix @ b.matrix) - expect(b.matrix) ** 2).real)
    commutator = a.matrix @ b.matrix - b.matrix @ a.matrix
    robertson = 0.25 * np.abs(expect(commutator)) ** 2

    joint = wigner_joint(rho, a, b)
    pa, pb = joint.marginals()
    ea = mean(pa, joint.axes[0])
    eb = mean(pb, joint.axes[1])
    var_a_seq = _scalar_or_stack(mean(pa, joint.axes[0] ** 2) - ea**2)
    var_b_seq = _scalar_or_stack(mean(pb, joint.axes[1] ** 2) - eb**2)
    c_of_b = luders_map(b.matrix, a)
    successive = np.abs(expect(a.matrix @ c_of_b) - expect(a.matrix) * expect(c_of_b)) ** 2

    return VarianceReport(
        var_a=var_a,
        var_b=var_b,
        robertson_rhs=_scalar_or_stack(robertson),
        var_a_seq=var_a_seq,
        var_b_seq=var_b_seq,
        successive_rhs=_scalar_or_stack(successive),
        c_of_b=c_of_b,
    )
