"""Dense complex Hermitian linear algebra: eigendecomposition, spectral projectors, operator norm.

Everything here works on plain ``numpy`` arrays of complex dtype. Operators are
small (dimension 2..16) and dense; eigenproblems are delegated to LAPACK via
``numpy.linalg``. ``eigh``, ``operator_norm`` and the spectral resolution also
take stacks ``(n, dim, dim)``, which they validate once and hand to LAPACK in
one call; a stack gives the same bits as its matrices one at a time. An
``Observable`` stores its resolution once, as the ``eigh`` eigenbasis and the
column edges of its eigenspaces; eigenspace blocks and projectors are derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch

MIN_DIM = 2
MAX_DIM = 16

#: Relative tolerance for accepting a matrix as Hermitian.
HERMITICITY_TOL = 1e-8


def as_complex_matrix(matrix, stacked: bool = False) -> np.ndarray:
    """Coerce input to a square complex matrix with finite entries.

    With ``stacked=True`` the input may also be a stack ``(..., dim, dim)`` of
    such matrices. This is the one place input is coerced and checked; the
    kernels below take its output as it is.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim < 2 or (m.ndim > 2 and not stacked) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def _hermitian(m: np.ndarray) -> np.ndarray:
    """Per matrix of a coerced (stack of) matrices: equal to its conjugate transpose
    within ``HERMITICITY_TOL``, relative to its largest entry floored at 1."""
    scale = np.maximum(np.abs(m).max(axis=(-2, -1)), 1.0)
    return np.abs(m - m.conj().swapaxes(-2, -1)).max(axis=(-2, -1)) <= HERMITICITY_TOL * scale


def _checked_hermitian(matrix, stacked: bool = False) -> np.ndarray:
    """``as_complex_matrix``, then ``ValueError`` unless every matrix is Hermitian."""
    m = as_complex_matrix(matrix, stacked)
    if not _hermitian(m).all():
        raise ValueError(f"matrix is not Hermitian within {HERMITICITY_TOL:g}")
    return m


def is_hermitian(matrix: np.ndarray) -> bool:
    """True if ``matrix`` equals its conjugate transpose within ``HERMITICITY_TOL`` (relative)."""
    return bool(_hermitian(as_complex_matrix(matrix)))


def eigh(matrix: np.ndarray):
    """Eigendecompose a Hermitian matrix, or a stack ``(..., dim, dim)`` of them.

    Returns ``(eigenvalues, eigenvectors)`` with real eigenvalues in ascending
    order and orthonormal eigenvectors as the columns of the second array.
    Raises ``ValueError`` if the input is not Hermitian (``is_hermitian``).
    A stack is decomposed by one LAPACK call per matrix, bit-equal to
    decomposing its matrices one at a time.
    """
    return np.linalg.eigh(_checked_hermitian(matrix, stacked=True))


def operator_norm(matrix: np.ndarray):
    """Largest singular value; one per matrix for a stack ``(..., dim, dim)``.

    For Hermitian input this is max |eigenvalue|. A single matrix gives a
    ``float``; a stack gives an array, bit-equal to the per-matrix values.
    """
    m = as_complex_matrix(matrix, stacked=True)
    return _scalar_or_stack(np.linalg.norm(m, ord=2, axis=(-2, -1)))


def default_cluster_tol(eigenvalues: np.ndarray):
    """Degeneracy threshold: 1e-8 times the spectral spread, floored at 1.

    ``eigenvalues`` are ascending along the last axis; a stack of spectra
    gets one threshold per spectrum.
    """
    values = np.asarray(eigenvalues, dtype=float)
    return 1e-8 * np.maximum(values[..., -1] - values[..., 0], 1.0)


@dataclass(frozen=True, eq=False)
class Observable:
    """A Hermitian operator together with its spectral resolution.

    The operator is stored as ``matrix`` and as its distinct ``eigenvalues`` and
    ``eigenbasis``: the read-only ``eigh`` eigenvectors as columns, grouped by
    ascending eigenvalue. Eigenspace i spans columns ``edges[i]:edges[i + 1]``.
    Built on first use: ``eigenvectors[i]``, that column block, and the stack
    ``projectors`` (n_outcomes, dim, dim) of the orthogonal eigenprojectors, so
    the operator is ``sum_i eigenvalues[i] * projectors[i]``. ``matrix`` is a
    read-only copy of the input, so a later write to the caller's array cannot
    pull it away from the stored resolution. Observables compare by identity
    and are hashable.

    ``stack_observables`` builds one Observable for a group of instances that
    share ``edges``: its arrays carry a leading instance axis (``matrix`` is
    (n, dim, dim), ``eigenvalues`` (n, n_outcomes), ``projectors``
    (n, n_outcomes, dim, dim)), and the kernels that take Observables map it
    instance by instance, bit-equal to calling them on each instance.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray  # distinct, strictly increasing
    eigenbasis: np.ndarray = field(repr=False)
    edges: tuple

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    @property
    def n_outcomes(self) -> int:
        return len(self.edges) - 1

    @property
    def multiplicities(self) -> tuple:
        return tuple(hi - lo for lo, hi in zip(self.edges, self.edges[1:]))

    @property
    def is_nondegenerate(self) -> bool:
        return self.n_outcomes == self.dim

    @cached_property
    def eigenvectors(self) -> tuple:
        return tuple(self.eigenbasis[..., lo:hi] for lo, hi in zip(self.edges, self.edges[1:]))

    @cached_property
    def projectors(self) -> np.ndarray:
        """The rank-one projectors of the eigenbasis summed per eigenspace, C-contiguous."""
        rank_one = np.einsum("...ik,...jk->...kij", self.eigenbasis, self.eigenbasis.conj())
        return np.add.reduceat(rank_one, self.edges[:-1], axis=-3)

    def require_same_dim(self, other) -> None:
        dim = other.shape[-1] if isinstance(other, np.ndarray) else other.dim
        if dim != self.dim:
            raise DimensionMismatch(
                f"dimension mismatch: {self.dim} vs {dim}"
            )


def stack_observables(observables) -> Observable:
    """One Observable with a leading instance axis for observables that share ``edges``.

    Raises ``ValueError`` if the edges (the eigenspace sizes) differ.
    """
    edges = observables[0].edges
    if any(obs.edges != edges for obs in observables):
        raise ValueError("stacked observables must have the same eigenspace sizes")
    matrix, basis = (np.stack(arrays) for arrays in
                     zip(*((obs.matrix, obs.eigenbasis) for obs in observables)))
    matrix.flags.writeable = basis.flags.writeable = False
    return Observable(matrix=matrix, eigenvalues=np.stack([obs.eigenvalues for obs in observables]),
                      eigenbasis=basis, edges=edges)


def _scalar_or_stack(values):
    """A 0-d result as a ``float``; a stacked result as the array it is."""
    return float(values) if np.ndim(values) == 0 else values


def _check_dim(dim: int) -> None:
    if not (MIN_DIM <= dim <= MAX_DIM):
        raise ValueError(f"dimension {dim} outside supported range {MIN_DIM}..{MAX_DIM}")


def spectral_resolution(matrix: np.ndarray) -> Observable:
    """Build the spectral resolution of a Hermitian matrix.

    Eigenvalues closer than ``default_cluster_tol`` (``1e-8 * max(spectral
    spread, 1)``) are merged into a single distinct eigenvalue whose projector
    is the sum over the cluster (the reported eigenvalue is the cluster mean).
    This is ``spectral_resolutions`` on a stack of one.
    """
    return _resolve(_checked_hermitian(matrix)[None])[0]


def spectral_resolutions(matrices: np.ndarray) -> list:
    """Spectral resolutions of a stack ``(n, dim, dim)`` of Hermitian matrices.

    Each entry equals ``spectral_resolution`` of that matrix, bit for bit.
    The stack is validated once and decomposed by one ``eigh`` call.
    """
    m = _checked_hermitian(matrices, stacked=True)
    if m.ndim != 3:
        raise ValueError(f"expected a stack of square matrices, got shape {m.shape}")
    return _resolve(m)


def _resolve(m: np.ndarray) -> list:
    """The spectral-resolution kernel on a validated Hermitian stack ``(n, dim, dim)``.

    Ascending eigenvalues are split into eigenspaces wherever a gap exceeds the
    spectrum's cluster threshold. A nondegenerate spectrum keeps the ``eigh``
    eigenvalues as they are; a degenerate one reports each cluster's mean.
    Each ``matrix`` is a view of one read-only copy of the stack.
    """
    dim = m.shape[-1]
    _check_dim(dim)
    m = m.copy()
    m.flags.writeable = False
    values, vectors = np.linalg.eigh(m)
    vectors.flags.writeable = False
    cuts = values[:, 1:] - values[:, :-1] > default_cluster_tol(values)[:, None]
    every = tuple(range(dim + 1))
    observables = []
    for h, vals, vecs, split, whole in zip(m, values, vectors, cuts, cuts.all(axis=1).tolist()):
        if whole:
            edges = every
        else:
            edges = (0, *(np.flatnonzero(split) + 1).tolist(), dim)
            vals = np.array([vals[lo:hi].mean() for lo, hi in zip(edges, edges[1:])])
        observables.append(Observable(matrix=h, eigenvalues=vals, eigenbasis=vecs, edges=edges))
    return observables
