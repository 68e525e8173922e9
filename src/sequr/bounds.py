"""Closed-form lower bounds on entropic uncertainty sums.

Two families: bounds for observables measured on distinct, identically
prepared ensembles (Deutsch, Partovi, Maassen-Uffink, Krishna-Parthasarathy),
and the optimal bounds for observables measured sequentially on the same
ensemble, which reduce to minimizing the later measurements' entropies over
eigenstates of the first observable. Measurement order matters: none of the
sequential bounds are symmetrized. Every bound is in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .entropy import _entropy, _quadratic_entropy, _quadratic_entropy_gradient
from .linalg import Observable, operator_norm
from .optimize import OptimizerConfig, minimize_in_subspace

#: Starts per subspace dimension when a degenerate eigenspace needs a search.
_SUBSPACE_STARTS = 8


def _require_nondegenerate(*observables: Observable) -> None:
    for obs in observables:
        if not obs.is_nondegenerate:
            raise ValueError(
                "observable has a degenerate spectrum; use the projector-norm "
                "variants (partovi/krishna-parthasarathy) instead"
            )


def squared_overlaps(a: Observable, b: Observable) -> np.ndarray:
    """Matrix of squared eigenvector overlaps |<a_i|b_j>|^2.

    Both spectra must be nondegenerate. The result is doubly stochastic: each
    row and column sums to 1.
    """
    a.require_same_dim(b)
    _require_nondegenerate(a, b)
    return np.abs(a.eigenbasis().conj().T @ b.eigenbasis()) ** 2


def deutsch_bound(a: Observable, b: Observable) -> float:
    """2 log[2 / (1 + max overlap)]; zero only when the observables share an eigenvector."""
    top = math.sqrt(squared_overlaps(a, b).max())
    return 2.0 * math.log(2.0 / (1.0 + top))


def partovi_bound(a: Observable, b: Observable) -> float:
    """2 log[2 / max ||P_A(a_i) + P_B(b_j)||]; degeneracy-safe form of the Deutsch bound."""
    a.require_same_dim(b)
    top = max(
        operator_norm(pa + pb) for pa in a.projectors for pb in b.projectors
    )
    return 2.0 * math.log(2.0 / top)


def maassen_uffink_bound(a: Observable, b: Observable) -> float:
    """log[1 / max |<a_i|b_j>|^2]; equals log(n) for complementary observables."""
    return -math.log(squared_overlaps(a, b).max()) + 0.0


def krishna_parthasarathy_bound(a: Observable, b: Observable) -> float:
    """log[1 / max ||P_A(a_i) P_B(b_j)||^2]; degeneracy-safe and never below Partovi."""
    a.require_same_dim(b)
    top = max(
        operator_norm(pa @ pb) for pa in a.projectors for pb in b.projectors
    )
    return -2.0 * math.log(top) + 0.0


def is_complementary(a: Observable, b: Observable, tol: float = 1e-9) -> bool:
    """True if every squared eigenvector overlap equals 1/dim within ``tol``."""
    u = squared_overlaps(a, b)
    return bool(np.abs(u - 1.0 / a.dim).max() <= tol)


def lambda_s_two(a: Observable, b: Observable, config: OptimizerConfig | None = None) -> float:
    """Optimal bound on the entropy sum when ``a`` is measured before ``b``.

    Equals the smallest entropy the ``b``-distribution can have in an
    eigenstate of ``a``. For a nondegenerate ``a`` this is a minimum over its
    eigenvectors in closed form; a degenerate eigenspace is searched
    numerically (``config`` seeds that search, 8 starts per subspace
    dimension). Order-dependent: swapping the arguments changes the value.
    """
    a.require_same_dim(b)
    candidates = []
    for basis in a.eigenvectors:
        if basis.shape[1] == 1:
            candidates.append(_quadratic_entropy(b.projectors, basis[:, 0]))
        else:
            cfg = replace(config or OptimizerConfig(seed=0),
                          starts=_SUBSPACE_STARTS * basis.shape[1])
            res = minimize_in_subspace(
                lambda psi: _quadratic_entropy(b.projectors, psi),
                [basis[:, k] for k in range(basis.shape[1])],
                cfg,
                gradient=lambda psi: _quadratic_entropy_gradient(b.projectors, psi),
            )
            candidates.append(res.value)
    return min(candidates)


@dataclass(frozen=True)
class TripleBound:
    """Sequential-measurement bound data for a three-observable chain.

    ``stagewise`` minimizes the second- and third-stage entropies over
    independent choices of the initial eigenstate and adds the results;
    ``common_state`` ties both stages to one initial eigenstate and is what an
    unconstrained minimization over states attains, so
    ``common_state >= stagewise`` always. ``second_stage`` is the third
    observable's entropy bound alone.
    """

    stagewise: float
    common_state: float
    second_stage: float


def lambda_s_three(a: Observable, b: Observable, c: Observable) -> TripleBound:
    """Optimal bound data for the sequence ``a``, ``b``, ``c`` (nondegenerate spectra).

    The first-stage term is the two-observable bound for (``a``, ``b``); the
    second-stage term applies the overlap transition of (``b``, ``c``) to the
    first-stage distributions before taking entropies.
    """
    a.require_same_dim(b)
    a.require_same_dim(c)
    _require_nondegenerate(a, b, c)

    u = squared_overlaps(a, b)
    v = squared_overlaps(b, c)
    w = u @ v  # row i: distribution of the third outcome from eigenstate i
    first = np.array([_entropy(row) for row in u])
    second = np.array([_entropy(row) for row in w])
    return TripleBound(
        stagewise=float(first.min() + second.min()),
        common_state=float((first + second).min()),
        second_stage=float(second.min()),
    )


@dataclass(frozen=True)
class BoundReport:
    """All closed-form bounds for one ordered pair of observables.

    ``deutsch`` and ``maassen_uffink`` are ``None`` when either spectrum is
    degenerate (their projector-norm generalizations are always present).
    """

    deutsch: float | None
    partovi: float
    maassen_uffink: float | None
    krishna_parthasarathy: float
    lambda_s: float


def bound_report(
    a: Observable, b: Observable, config: OptimizerConfig | None = None
) -> BoundReport:
    """Evaluate every analytic bound for the ordered pair (``a``, ``b``)."""
    nondegenerate = a.is_nondegenerate and b.is_nondegenerate
    return BoundReport(
        deutsch=deutsch_bound(a, b) if nondegenerate else None,
        partovi=partovi_bound(a, b),
        maassen_uffink=maassen_uffink_bound(a, b) if nondegenerate else None,
        krishna_parthasarathy=krishna_parthasarathy_bound(a, b),
        lambda_s=lambda_s_two(a, b, config),
    )
