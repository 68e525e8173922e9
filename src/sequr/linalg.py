"""Dense complex Hermitian linear algebra: eigendecomposition, spectral projectors, operator norm.

Everything here works on plain ``numpy`` arrays of complex dtype. Operators are
small (dimension 2..16) and dense; eigenproblems are delegated to LAPACK via
``numpy.linalg``.
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


def as_complex_matrix(matrix) -> np.ndarray:
    """Coerce input to a square complex matrix with finite entries."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix has non-finite entries")
    return m


def is_hermitian(matrix: np.ndarray) -> bool:
    """True if ``matrix`` equals its conjugate transpose within ``HERMITICITY_TOL`` (relative)."""
    m = as_complex_matrix(matrix)
    scale = max(np.abs(m).max(), 1.0)
    return np.abs(m - m.conj().T).max() <= HERMITICITY_TOL * scale


def eigh(matrix: np.ndarray):
    """Eigendecompose a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with real eigenvalues in ascending
    order and orthonormal eigenvectors as the columns of the second array.
    Raises ``ValueError`` if the input is not Hermitian (``is_hermitian``).
    """
    m = as_complex_matrix(matrix)
    if not is_hermitian(m):
        raise ValueError("matrix is not Hermitian within tolerance")
    values, vectors = np.linalg.eigh(m)
    return values, vectors


def operator_norm(matrix: np.ndarray) -> float:
    """Largest singular value. For Hermitian input this is max |eigenvalue|."""
    m = as_complex_matrix(matrix)
    return float(np.linalg.norm(m, ord=2))


def default_cluster_tol(eigenvalues: np.ndarray) -> float:
    """Degeneracy threshold: 1e-8 times the spectral spread, floored at 1."""
    spread = float(eigenvalues[-1] - eigenvalues[0]) if len(eigenvalues) else 0.0
    return 1e-8 * max(spread, 1.0)


@dataclass(frozen=True)
class Observable:
    """A Hermitian operator together with its spectral resolution.

    The operator is stored as ``matrix`` and as the resolution
    ``sum_i eigenvalues[i] * projectors[i]`` into distinct eigenvalues with
    orthogonal eigenprojectors, stacked in one ``(n_outcomes, dim, dim)``
    array. ``eigenvectors[i]`` holds an orthonormal basis
    of the i-th eigenspace as columns, so its shape is
    ``(dim, multiplicities[i])``.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray  # distinct, strictly increasing
    projectors: np.ndarray = field(repr=False)
    multiplicities: tuple = ()
    eigenvectors: tuple = field(default=(), repr=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.eigenvalues)

    @property
    def is_nondegenerate(self) -> bool:
        return all(m == 1 for m in self.multiplicities)

    def eigenbasis(self) -> np.ndarray:
        """All eigenvectors as columns, grouped by ascending eigenvalue (read-only)."""
        return self._eigenbasis

    @cached_property
    def _eigenbasis(self) -> np.ndarray:
        basis = np.hstack(self.eigenvectors)
        basis.flags.writeable = False
        return basis

    def require_same_dim(self, other) -> None:
        dim = other.shape[0] if isinstance(other, np.ndarray) else other.dim
        if dim != self.dim:
            raise DimensionMismatch(
                f"dimension mismatch: {self.dim} vs {dim}"
            )


def _check_dim(dim: int) -> None:
    if not (MIN_DIM <= dim <= MAX_DIM):
        raise ValueError(f"dimension {dim} outside supported range {MIN_DIM}..{MAX_DIM}")


def spectral_resolution(matrix: np.ndarray) -> Observable:
    """Build the spectral resolution of a Hermitian matrix.

    Eigenvalues closer than ``default_cluster_tol`` (``1e-8 * max(spectral
    spread, 1)``) are merged into a single distinct eigenvalue whose projector
    is the sum over the cluster (the reported eigenvalue is the cluster mean).
    """
    m = as_complex_matrix(matrix)
    dim = m.shape[0]
    _check_dim(dim)
    values, vectors = eigh(m)
    cluster_tol = default_cluster_tol(values)

    # Split ascending eigenvalues wherever the gap exceeds the threshold.
    boundaries = [0]
    for k in range(1, dim):
        if values[k] - values[k - 1] > cluster_tol:
            boundaries.append(k)
    boundaries.append(dim)

    distinct = []
    projectors = []
    multiplicities = []
    groups = []
    for start, stop in zip(boundaries[:-1], boundaries[1:]):
        block = vectors[:, start:stop]
        distinct.append(values[start:stop].mean())
        projectors.append(block @ block.conj().T)
        multiplicities.append(stop - start)
        groups.append(block)

    return Observable(
        matrix=m,
        eigenvalues=np.array(distinct),
        projectors=np.stack(projectors),
        multiplicities=tuple(multiplicities),
        eigenvectors=tuple(groups),
    )

