"""Closed-form lower bounds on entropic uncertainty sums, in nats.

Distinct-ensemble bounds (Deutsch, Partovi, Maassen-Uffink, Krishna-Parthasarathy)
and the optimal sequential bounds, which minimize the later entropies over
eigenstates of the first observable, so measurement order matters. The closed
forms read the table c[i, j] = ||P_A(a_i) P_B(b_j)||^2 of the eigenprojectors of
A and B, built on the isometries of ``states._chain_overlaps``. Two projectors
have ||P + Q|| = 1 + ||PQ||; for nondegenerate spectra c[i, j] = |<a_i|b_j>|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .entropy import _entropy, _quadratic_entropy, _quadratic_entropy_gradient
from .linalg import Observable
from .optimize import OptimizerConfig, minimize_in_subspace
from .states import _chain_overlaps

#: Starts per subspace dimension when a degenerate eigenspace needs a search.
_SUBSPACE_STARTS = 8


def _overlap_table(a: Observable, b: Observable) -> np.ndarray:
    """c[i, j] = ||P_A(a_i) P_B(b_j)||^2: top squared singular value of block (i, j) of
    ``_chain_overlaps([a, b])``, its squared Frobenius norm unless both eigenspaces are degenerate.
    """
    a.require_same_dim(b)
    edges, (_, blocks) = _chain_overlaps([a, b])
    weights = np.abs(np.hstack(blocks).T) ** 2  # rows: eigenbasis of a, columns: of b
    table = np.add.reduceat(np.add.reduceat(weights, edges[0][:-1]), edges[1][:-1], axis=1)
    for i in (n for n, m in enumerate(a.multiplicities) if m > 1):
        for j in (n for n, m in enumerate(b.multiplicities) if m > 1):
            table[i, j] = np.linalg.norm(blocks[i][edges[1][j]:edges[1][j + 1]], 2) ** 2
    return table


def squared_overlaps(a: Observable, b: Observable) -> np.ndarray:
    """Matrix of squared eigenvector overlaps |<a_i|b_j>|^2.

    Both spectra must be nondegenerate. The result is doubly stochastic: each
    row and column sums to 1.
    """
    a.require_same_dim(b)
    if not (a.is_nondegenerate and b.is_nondegenerate):
        raise ValueError(
            "observable has a degenerate spectrum; use the projector-norm "
            "variants (partovi/krishna-parthasarathy) instead"
        )
    return _overlap_table(a, b)


def deutsch_bound(a: Observable, b: Observable) -> float:
    """2 log[2 / (1 + max |<a_i|b_j>|)]: ``partovi_bound`` on nondegenerate spectra."""
    top = math.sqrt(squared_overlaps(a, b).max())
    return 2.0 * math.log(2.0 / (1.0 + top))


def partovi_bound(a: Observable, b: Observable) -> float:
    """2 log[2 / max ||P_A(a_i) + P_B(b_j)||]; degeneracy-safe form of the Deutsch bound.

    As ||P + Q|| = 1 + ||PQ||, this is 2 log[2 / (1 + max ||P_A(a_i) P_B(b_j)||)].
    """
    return 2.0 * math.log(2.0 / (1.0 + math.sqrt(_overlap_table(a, b).max())))


def maassen_uffink_bound(a: Observable, b: Observable) -> float:
    """log[1 / max |<a_i|b_j>|^2]: ``krishna_parthasarathy_bound`` on nondegenerate spectra."""
    return -math.log(squared_overlaps(a, b).max()) + 0.0


def krishna_parthasarathy_bound(a: Observable, b: Observable) -> float:
    """log[1 / max ||P_A(a_i) P_B(b_j)||^2]; degeneracy-safe and never below Partovi.

    As ||P + Q|| = 1 + ||PQ||, Partovi's bound is 2 log[2 / (1 + t)] <= -2 log t for
    t = max ||P_A(a_i) P_B(b_j)|| <= 1.
    """
    return -math.log(_overlap_table(a, b).max()) + 0.0


def is_complementary(a: Observable, b: Observable, tol: float = 1e-9) -> bool:
    """True if every squared eigenvector overlap equals 1/dim within ``tol``."""
    return bool(np.abs(squared_overlaps(a, b) - 1.0 / a.dim).max() <= tol)


def lambda_s_two(a: Observable, b: Observable, config: OptimizerConfig | None = None) -> float:
    """Optimal bound on the entropy sum when ``a`` is measured before ``b``.

    Equals the smallest entropy the ``b``-distribution can have in an
    eigenstate of ``a``. For a nondegenerate ``a`` this is a minimum over its
    eigenvectors in closed form; a degenerate eigenspace is searched
    numerically (``config`` seeds that search, 8 starts per subspace
    dimension). Order-dependent: swapping the arguments changes the value.
    """
    candidates = _entropy(_overlap_table(a, b))
    for i, basis in enumerate(a.eigenvectors):
        if basis.shape[1] > 1:
            cfg = replace(config or OptimizerConfig(seed=0),
                          starts=_SUBSPACE_STARTS * basis.shape[1])
            candidates[i] = minimize_in_subspace(
                lambda psi: _quadratic_entropy(b.projectors, psi),
                [basis[:, k] for k in range(basis.shape[1])],
                cfg,
                gradient=lambda psi: _quadratic_entropy_gradient(b.projectors, psi),
            ).value
    return float(candidates.min())


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
    u, v = squared_overlaps(a, b), squared_overlaps(b, c)
    w = u @ v  # row i: distribution of the third outcome from eigenstate i
    first, second = _entropy(u), _entropy(w)
    return TripleBound(
        stagewise=float(first.min() + second.min()),
        common_state=float((first + second).min()),
        second_stage=float(second.min()),
    )
