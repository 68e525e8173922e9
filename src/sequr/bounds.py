"""Closed-form lower bounds on entropic uncertainty sums, in nats.

Distinct-ensemble bounds (Deutsch, Partovi, Maassen-Uffink, Krishna-Parthasarathy)
and the optimal sequential bound of a chain of any length (``lambda_s_chain``),
which minimizes the later entropies over eigenstates of the first observable,
so measurement order matters. The distinct-ensemble bounds read the table
c[i, j] = ||P_A(a_i) P_B(b_j)||^2 of the eigenprojectors of A and B, built on
the isometries of ``states._chain_overlaps``. Two projectors have
||P + Q|| = 1 + ||PQ||; for nondegenerate spectra c[i, j] = |<a_i|b_j>|^2.

The bounds, ``squared_overlaps`` and ``lambda_s_chain`` also take observables
stacked by ``linalg.stack_observables`` and then return one value (or table)
per instance, bit-equal to the value of that instance alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .entropy import _quadratic_entropy, _quadratic_entropy_gradient
from .linalg import Observable, _scalar_or_stack
from .optimize import OptimizerConfig, minimize_in_subspace
from .states import _chain_overlaps, _sequential_stacks

#: Starts per subspace dimension when a degenerate eigenspace needs a search.
_SUBSPACE_STARTS = 8


def _overlap_table(a: Observable, b: Observable) -> np.ndarray:
    """c[i, j] = ||P_A(a_i) P_B(b_j)||^2: top squared singular value of block (i, j) of
    ``_chain_overlaps([a, b])``, its squared Frobenius norm unless both eigenspaces are degenerate.
    """
    _, blocks = _chain_overlaps([a, b])
    # rows: eigenbasis of a, columns: of b
    weights = np.abs(np.concatenate(blocks, axis=-1).swapaxes(-2, -1)) ** 2
    table = np.add.reduceat(np.add.reduceat(weights, a.edges[:-1], axis=-2), b.edges[:-1],
                            axis=-1)
    for i in (n for n, m in enumerate(a.multiplicities) if m > 1):
        for j in (n for n, m in enumerate(b.multiplicities) if m > 1):
            block = blocks[i][..., b.edges[j]:b.edges[j + 1], :]
            table[..., i, j] = np.linalg.norm(block, 2, axis=(-2, -1)) ** 2
    return table


def _of_largest(form, table: np.ndarray):
    """``form`` (a ``math`` expression) of the largest entry of each overlap table:
    a float, or an array with one value per instance of a stack."""
    largest = table.max(axis=(-2, -1))
    if largest.ndim == 0:
        return form(largest)
    return np.array([form(c) for c in largest.tolist()]).reshape(largest.shape)


def _partovi_form(c: float) -> float:
    return 2.0 * math.log(2.0 / (1.0 + math.sqrt(c)))


def _krishna_parthasarathy_form(c: float) -> float:
    return -math.log(c) + 0.0


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
    return _of_largest(_partovi_form, squared_overlaps(a, b))


def partovi_bound(a: Observable, b: Observable) -> float:
    """2 log[2 / max ||P_A(a_i) + P_B(b_j)||]; degeneracy-safe form of the Deutsch bound.

    As ||P + Q|| = 1 + ||PQ||, this is 2 log[2 / (1 + max ||P_A(a_i) P_B(b_j)||)].
    """
    return _of_largest(_partovi_form, _overlap_table(a, b))


def maassen_uffink_bound(a: Observable, b: Observable) -> float:
    """log[1 / max |<a_i|b_j>|^2]: ``krishna_parthasarathy_bound`` on nondegenerate spectra."""
    return _of_largest(_krishna_parthasarathy_form, squared_overlaps(a, b))


def krishna_parthasarathy_bound(a: Observable, b: Observable) -> float:
    """log[1 / max ||P_A(a_i) P_B(b_j)||^2]; degeneracy-safe and never below Partovi.

    As ||P + Q|| = 1 + ||PQ||, Partovi's bound is 2 log[2 / (1 + t)] <= -2 log t for
    t = max ||P_A(a_i) P_B(b_j)|| <= 1.
    """
    return _of_largest(_krishna_parthasarathy_form, _overlap_table(a, b))


def is_complementary(a: Observable, b: Observable, tol: float = 1e-9) -> bool:
    """True if every squared eigenvector overlap equals 1/dim within ``tol``."""
    return bool(np.abs(squared_overlaps(a, b) - 1.0 / a.dim).max() <= tol)


@dataclass(frozen=True)
class ChainBound:
    """Sequential bound data of a chain: ``stagewise`` adds each later entropy's own
    minimum over initial eigenstates; ``common_state`` ties every stage to one
    eigenstate and is what an unconstrained minimization over states attains, so
    ``common_state >= stagewise``. ``second_stage`` is the last observable's bound alone.
    """

    stagewise: float
    common_state: float
    second_stage: float


def lambda_s_chain(chain, config: OptimizerConfig | None = None) -> ChainBound:
    """Optimal bound data for measuring the observables of ``chain`` in order.

    From eigenvector a_i of the first observable, stage k has the entropy
    H(<a_i|S_k|a_i>), where the S_k are the ``_sequential_stacks`` of the later
    observables, so any of those may be degenerate. For a pair, a
    degenerate eigenspace of the first observable is searched numerically
    (``config`` seeds that search, 8 starts per subspace dimension); a longer
    chain needs a nondegenerate first observable. Order-dependent: reordering
    the chain changes the value.
    """
    first, *later = chain
    if len(later) > 1 and not first.is_nondegenerate:
        raise ValueError("first observable has a degenerate spectrum; a chain of three "
                         "or more needs a nondegenerate one")
    first.require_same_dim(later[0])
    stacks = _sequential_stacks(later)
    states = first.eigenbasis.swapaxes(-2, -1)
    # stages[k][..., i]: stage k's entropy from eigenvector i
    stages = np.array([_quadratic_entropy(stack[..., None, :, :, :], states) for stack in stacks])
    lead = states.shape[:-2]
    for lo, hi, basis in zip(first.edges, first.edges[1:], first.eigenvectors):
        if hi - lo > 1:
            cfg = replace(config or OptimizerConfig(seed=0), starts=_SUBSPACE_STARTS * (hi - lo))
            for at in np.ndindex(lead):
                stack = stacks[0][at]
                stages[(slice(None), *at, slice(lo, hi))] = minimize_in_subspace(
                    lambda psi: _quadratic_entropy(stack, psi), basis[at].T, cfg,
                    gradient=lambda psi: _quadratic_entropy_gradient(stack, psi),
                ).value
    return ChainBound(stagewise=_scalar_or_stack(stages.min(axis=-1).sum(axis=0)),
                      common_state=_scalar_or_stack(stages.sum(axis=0).min(axis=-1)),
                      second_stage=_scalar_or_stack(stages[-1].min(axis=-1)))


def lambda_s_two(a: Observable, b: Observable, config: OptimizerConfig | None = None) -> float:
    """``lambda_s_chain([a, b], config).common_state``; unexported, kept for perfbench's worker."""
    return lambda_s_chain([a, b], config).common_state


def lambda_s_three(a: Observable, b: Observable, c: Observable) -> ChainBound:
    """``lambda_s_chain([a, b, c])``; unexported, kept for perfbench's worker."""
    return lambda_s_chain([a, b, c])
