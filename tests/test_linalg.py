import math

import numpy as np
import pytest

from sequr.linalg import (
    default_cluster_tol,
    eigh,
    is_hermitian,
    operator_norm,
    spectral_resolution,
    spectral_resolutions,
)


def _random_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


class TestEigh:
    def test_diagonal(self):
        values, vectors = eigh(np.diag([1.0, -1.0]).astype(complex))
        assert np.allclose(values, [-1.0, 1.0])
        # ascending order puts the -1 eigenvector (e2) first
        assert abs(vectors[1, 0]) == pytest.approx(1.0)
        assert abs(vectors[0, 1]) == pytest.approx(1.0)

    def test_identity(self):
        values, vectors = eigh(np.eye(2, dtype=complex))
        assert np.allclose(values, [1.0, 1.0])
        assert np.allclose(vectors.conj().T @ vectors, np.eye(2), atol=1e-12)

    def test_tilted_spin_overlap_with_z_basis(self):
        # spin axis 60 degrees from z: squared overlap cos^2(30 deg) = 0.75
        theta = math.radians(60)
        n = (math.sin(theta), 0.0, math.cos(theta))
        sn = n[0] * np.array([[0, 1], [1, 0]]) + n[2] * np.diag([1.0, -1.0])
        _, vectors = eigh(sn.astype(complex))
        _, zvecs = eigh(np.diag([1.0, -1.0]).astype(complex))
        overlap = abs(np.vdot(zvecs[:, 0], vectors[:, 0])) ** 2
        assert overlap == pytest.approx(0.75, abs=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_residuals_on_random_matrices(self):
        rng = np.random.default_rng(11)
        for dim in range(2, 9):
            h = _random_hermitian(dim, rng)
            values, vectors = eigh(h)
            residual = operator_norm(h @ vectors - vectors * values)
            assert residual <= 1e-10 * dim * max(operator_norm(h), 1.0)
            assert np.all(np.diff(values) >= 0)


class TestSpectralResolution:
    def test_exact_degeneracy(self):
        obs = spectral_resolution(np.diag([1.0, 1.0, 2.0]).astype(complex))
        assert np.allclose(obs.eigenvalues, [1.0, 2.0])
        assert obs.multiplicities == (2, 1)

    def test_pauli_z(self, sigma_z):
        assert np.allclose(sigma_z.eigenvalues, [-1.0, 1.0])
        assert np.allclose(sigma_z.projectors[0], np.diag([0.0, 1.0]))
        assert np.allclose(sigma_z.projectors[1], np.diag([1.0, 0.0]))

    def test_near_degeneracy_clusters_by_gap(self):
        h = np.diag([1.0, 1.0 + 1e-12, 2.0]).astype(complex)
        # oracle: split the brute-forced eigenvalue list at gaps > tolerance
        raw = np.sort(np.linalg.eigvalsh(h))
        splits = 1 + int(np.sum(np.diff(raw) > 1e-8))
        assert splits == 2
        obs = spectral_resolution(h)
        assert obs.n_outcomes == 2
        assert obs.multiplicities == (2, 1)

    def test_default_cluster_tol_scales_with_spread(self):
        assert default_cluster_tol(np.array([0.0, 0.5])) == pytest.approx(1e-8)
        assert default_cluster_tol(np.array([0.0, 100.0])) == pytest.approx(1e-6)

    def test_observable_helpers(self, sigma_z):
        assert sigma_z.dim == 2
        assert sigma_z.is_nondegenerate
        basis = sigma_z.eigenbasis
        assert np.allclose(basis.conj().T @ basis, np.eye(2), atol=1e-12)

    def test_eigenbasis_is_built_once_and_read_only(self):
        obs = spectral_resolution(np.diag([1.0, 1.0, 2.0]))
        basis = obs.eigenbasis
        assert basis is obs.eigenbasis
        assert np.array_equal(basis, np.hstack(obs.eigenvectors))
        with pytest.raises(ValueError):
            basis[0, 0] = 5.0
        assert obs.edges == (0, 2, 3)
        assert obs.multiplicities == tuple(np.diff(obs.edges))
        for i, block in enumerate(obs.eigenvectors):
            lo, hi = obs.edges[i], obs.edges[i + 1]
            # a view of the eigenbasis columns, not a copy
            assert np.shares_memory(block, basis)
            assert block.strides == basis.strides
            assert np.array_equal(block, basis[:, lo:hi])
            with pytest.raises(ValueError):
                block[0, 0] = 5.0

    def test_projectors_are_built_on_first_use(self):
        rng = np.random.default_rng(5)
        stack = np.stack([_random_hermitian(4, rng), np.diag([1.0, 1.0, 2.0, 3.0])])
        observables = spectral_resolutions(stack)
        assert not any("projectors" in vars(obs) for obs in observables)
        for obs in observables:
            assert obs.projectors is obs.projectors
            assert "projectors" in vars(obs)

    def test_matrix_is_a_read_only_copy_of_the_input(self):
        h = np.diag([1.0, 2.0]).astype(complex)
        obs = spectral_resolution(h)
        h[0, 0] = 5
        assert obs.matrix[0, 0] == 1
        assert np.array_equal(obs.eigenvalues, [1.0, 2.0])
        assert not np.shares_memory(obs.matrix, h)
        with pytest.raises(ValueError):
            obs.matrix[0, 0] = 5
        stack = np.stack([h, h])
        for obs in spectral_resolutions(stack):
            assert not np.shares_memory(obs.matrix, stack)
            assert not obs.matrix.flags.writeable

    def test_observables_compare_by_identity(self):
        h = np.diag([1.0, 2.0])
        obs = spectral_resolution(h)
        assert obs == obs
        assert (spectral_resolution(h) == spectral_resolution(h)) is False
        names = {obs: "Z"}
        assert names[obs] == "Z"
        assert spectral_resolution(h) not in names


def _mixed_stack(dim, rng):
    """Generic, exactly degenerate and near-degenerate (1e-12 splits) spectra, interleaved."""
    def with_spectrum(multiplicities, spread):
        q, _ = np.linalg.qr(_random_hermitian(dim, rng))
        centres = np.repeat(rng.standard_normal(len(multiplicities)), multiplicities)
        return q @ np.diag(centres + spread * np.arange(dim)) @ q.conj().T

    return np.stack([_random_hermitian(dim, rng), with_spectrum([2] + [1] * (dim - 2), 0.0),
                     with_spectrum([dim], 1e-12), _random_hermitian(dim, rng),
                     with_spectrum([1] * (dim - 2) + [2], 1e-12), with_spectrum([dim], 0.0)])


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 16])
def test_resolution_matches_the_stored_projector_formulas(dim):
    """Projectors and eigenvalues against the formulas that built them eagerly.

    Nondegenerate spectra got their rank-one projectors from one stacked einsum,
    degenerate ones ``block @ block^dagger`` per eigenspace and the cluster mean
    as eigenvalue.
    """
    stack = _mixed_stack(dim, np.random.default_rng(dim))
    observables = spectral_resolutions(stack)
    values, vectors = np.linalg.eigh(stack)
    cuts = np.diff(values) > 1e-8 * np.maximum(values[:, -1] - values[:, 0], 1.0)[:, None]
    rank_one = np.ascontiguousarray(np.einsum("nik,njk->nkij", vectors, vectors.conj()))
    assert any(obs.is_nondegenerate for obs in observables)
    assert not all(obs.is_nondegenerate for obs in observables)
    for obs, vals, vecs, split, reference in zip(observables, values, vectors, cuts, rank_one):
        assert obs.edges == (0, *(np.flatnonzero(split) + 1).tolist(), dim)
        assert obs.eigenbasis.tobytes() == vecs.tobytes()
        assert obs.projectors.flags.c_contiguous
        if obs.is_nondegenerate:
            assert obs.eigenvalues.tobytes() == vals.tobytes()
            assert obs.projectors.tobytes() == reference.tobytes()
            continue
        spans = list(zip(obs.edges, obs.edges[1:]))
        means = np.array([vals[lo:hi].mean() for lo, hi in spans])
        assert obs.eigenvalues.tobytes() == means.tobytes()
        blocks = [vecs[:, lo:hi] for lo, hi in spans]
        eager = np.stack([block @ block.conj().T for block in blocks])
        assert np.abs(obs.projectors - eager).max() <= 1e-15


class TestOperatorNorm:
    def test_identity(self):
        for dim in (2, 3, 5):
            assert operator_norm(np.eye(dim)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert operator_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)

    def test_projector_sum(self, sigma_z, sigma_x):
        # ||P_z+ + P_x+||: eigenvalues of a rank-1 projector sum are 1 +- overlap
        total = sigma_z.projectors[1] + sigma_x.projectors[1]
        assert operator_norm(total) == pytest.approx(1.0 + 1.0 / math.sqrt(2), abs=1e-12)


def test_resolution_invariants_on_random_ensemble():
    """Reconstruction, orthogonality and completeness over 500 random matrices."""
    rng = np.random.default_rng(2024)
    for trial in range(500):
        dim = 2 + trial % 7
        h = _random_hermitian(dim, rng)
        obs = spectral_resolution(h)
        rebuilt = sum(a * p for a, p in zip(obs.eigenvalues, obs.projectors))
        assert operator_norm(rebuilt - h) <= 1e-9 * max(operator_norm(h), 1e-300)
        assert operator_norm(sum(obs.projectors) - np.eye(dim)) <= 1e-10
        for i, p in enumerate(obs.projectors):
            assert operator_norm(p) == pytest.approx(1.0, abs=1e-9)
            assert np.linalg.matrix_rank(p, tol=0.5) == obs.multiplicities[i]
            for q in obs.projectors[i + 1:]:
                assert operator_norm(p @ q) <= 1e-10


def test_eigenvalues_invariant_under_unitary_conjugation():
    rng = np.random.default_rng(7)
    for _ in range(50):
        dim = int(rng.integers(2, 9))
        h = _random_hermitian(dim, rng)
        _, u = eigh(_random_hermitian(dim, rng))
        before, _ = eigh(h)
        after, _ = eigh(u @ h @ u.conj().T)
        assert np.abs(before - after).max() <= 1e-9


def test_is_hermitian_tolerance():
    m = np.array([[1.0, 1e-10j], [0.0, 1.0]])
    assert is_hermitian(m)
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_dimension_caps():
    with pytest.raises(ValueError, match="dimension"):
        spectral_resolution(np.eye(17, dtype=complex))
    with pytest.raises(ValueError, match="dimension"):
        spectral_resolution(np.eye(1, dtype=complex))
