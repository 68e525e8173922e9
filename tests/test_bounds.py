import math
import sys

import numpy as np
import pytest

from sequr.bounds import (
    deutsch_bound,
    is_complementary,
    krishna_parthasarathy_bound,
    lambda_s_chain,
    lambda_s_three,
    lambda_s_two,
    maassen_uffink_bound,
    partovi_bound,
    squared_overlaps,
)
from sequr.entropy import _quadratic_entropy, entropies_sequential, shannon_entropy
from sequr.errors import DimensionMismatch
from sequr.linalg import operator_norm, spectral_resolution
from sequr.optimize import OptimizerConfig, lambda_s_chain_numeric
from sequr.qubit import spin_observable
from sequr.states import (_sequential_stacks, pure_density, random_hermitian, random_observable,
                          random_state, wigner_joint)


def tilted_spin(deg):
    theta = math.radians(deg)
    return spin_observable((math.sin(theta), 0.0, math.cos(theta)))


def fourier_pair(n):
    """Computational-basis observable and its discrete-Fourier conjugate."""
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    f = np.exp(2j * math.pi * j * k / n) / math.sqrt(n)
    diag = np.diag(np.arange(n, dtype=float)).astype(complex)
    return spectral_resolution(diag), spectral_resolution(f @ diag @ f.conj().T)


def eigenspace_observable(multiplicities, seed):
    """Observable with eigenspaces of the given multiplicities, in a random orientation."""
    _, u = np.linalg.eigh(random_hermitian(sum(multiplicities), np.random.default_rng(seed)))
    values = np.repeat(np.arange(len(multiplicities), dtype=float), multiplicities)
    obs = spectral_resolution(u @ np.diag(values) @ u.conj().T)
    assert obs.multiplicities == tuple(multiplicities)
    return obs


def projector_pair_bounds(a, b):
    """Partovi and Krishna-Parthasarathy from every pair of d x d eigenprojectors."""
    pairs = [(p, q) for p in a.projectors for q in b.projectors]
    plus = max(operator_norm(p + q) for p, q in pairs)
    times = max(operator_norm(p @ q) for p, q in pairs)
    return 2.0 * math.log(2.0 / plus), -2.0 * math.log(times)


#: Eigenspace multiplicities of (A, B): neither, either or both degenerate, dims 2-8.
MULTIPLICITY_PAIRS = [
    ((1, 1), (1, 1)),
    ((1,) * 5, (1,) * 5),
    ((1,) * 8, (1,) * 8),
    ((2, 1), (1, 1, 1)),
    ((1, 1, 1, 1), (3, 1)),
    ((1,) * 6, (2, 2, 2)),
    ((2,), (1, 1)),
    ((2, 2), (2, 2)),
    ((3, 2, 1), (1, 2, 2, 1)),
    ((1, 3, 3), (4, 1, 2)),
    ((4, 4), (2, 3, 3)),
]


class TestDistinctBounds:
    @pytest.mark.parametrize("mult_a, mult_b", MULTIPLICITY_PAIRS)
    def test_matches_projector_norm_oracle(self, mult_a, mult_b):
        for seed in range(0, 6, 2):
            a = eigenspace_observable(mult_a, seed)
            b = eigenspace_observable(mult_b, seed + 1)
            partovi, kp = projector_pair_bounds(a, b)
            assert partovi_bound(a, b) == pytest.approx(partovi, abs=1e-12)
            assert krishna_parthasarathy_bound(a, b) == pytest.approx(kp, abs=1e-12)
            if a.is_nondegenerate:
                # closed branch: the b-distribution <a_i|P_B(b_j)|a_i> of each eigenvector
                closed = min(shannon_entropy([(v.conj() @ q @ v).real for q in b.projectors])
                             for v in a.eigenbasis.T)
                assert lambda_s_two(a, b) == pytest.approx(closed, abs=1e-12)

    def test_deutsch_at_90(self, sigma_z, sigma_x):
        assert deutsch_bound(sigma_z, sigma_x) == pytest.approx(0.317, abs=5e-4)

    def test_deutsch_zero_for_equal_observables(self, sigma_z):
        assert deutsch_bound(sigma_z, sigma_z) == pytest.approx(0.0, abs=1e-12)

    def test_deutsch_at_60(self, sigma_z):
        assert deutsch_bound(sigma_z, tilted_spin(60)) == pytest.approx(0.139, abs=5e-4)

    def test_deutsch_rejects_degenerate(self, sigma_z):
        eye = spectral_resolution(np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match="degenerate"):
            deutsch_bound(eye, sigma_z)

    def test_partovi_reduces_to_deutsch_when_nondegenerate(self):
        for i in range(30):
            dim = 2 + i % 4
            a = random_observable(dim, seed=40 + i)
            b = random_observable(dim, seed=70 + i)
            assert partovi_bound(a, b) == pytest.approx(deutsch_bound(a, b), abs=1e-12)

    def test_partovi_zero_for_trivial_observable(self, sigma_z):
        eye = spectral_resolution(np.eye(2, dtype=complex))
        assert partovi_bound(eye, sigma_z) == pytest.approx(0.0, abs=1e-12)

    def test_maassen_uffink_at_90(self, sigma_z, sigma_x):
        assert maassen_uffink_bound(sigma_z, sigma_x) == pytest.approx(math.log(2), abs=1e-12)

    def test_maassen_uffink_fourier_is_log_n(self):
        a, b = fourier_pair(4)
        assert maassen_uffink_bound(a, b) == pytest.approx(math.log(4), abs=1e-9)

    def test_kp_reduces_to_maassen_uffink_when_nondegenerate(self):
        for i in range(30):
            dim = 2 + i % 4
            a = random_observable(dim, seed=140 + i)
            b = random_observable(dim, seed=170 + i)
            assert krishna_parthasarathy_bound(a, b) == pytest.approx(
                maassen_uffink_bound(a, b), abs=1e-12
            )

    def test_kp_zero_for_trivial_observable(self, sigma_x):
        eye = spectral_resolution(np.eye(2, dtype=complex))
        assert krishna_parthasarathy_bound(eye, sigma_x) == pytest.approx(0.0, abs=1e-12)

    def test_kp_dominates_partovi(self):
        for i in range(50):
            dim = 2 + i % 5
            a = random_observable(dim, seed=240 + i)
            b = random_observable(dim, seed=270 + i)
            assert krishna_parthasarathy_bound(a, b) >= partovi_bound(a, b) - 1e-9

    def test_projector_norm_identity(self):
        # ||PQ||^2 = ||PQP|| and is at most ||P + Q||^2 / 4
        from sequr.linalg import operator_norm

        for i in range(30):
            dim = 2 + i % 5
            a = random_observable(dim, seed=640 + i)
            b = random_observable(dim, seed=670 + i)
            for p in a.projectors:
                for q in b.projectors:
                    cross = operator_norm(p @ q) ** 2
                    assert cross == pytest.approx(operator_norm(p @ q @ p), abs=1e-10)
                    assert cross <= 0.25 * operator_norm(p + q) ** 2 + 1e-10


class TestSequentialBound:
    def test_complementary_pair(self, sigma_z, sigma_x):
        assert lambda_s_two(sigma_z, sigma_x) == pytest.approx(math.log(2), abs=1e-12)

    def test_spin_pair_at_30(self, sigma_z):
        assert lambda_s_two(sigma_z, tilted_spin(30)) == pytest.approx(0.246, abs=5e-4)

    def test_equal_observables(self, sigma_z):
        assert lambda_s_two(sigma_z, sigma_z) == pytest.approx(0.0, abs=1e-12)

    def test_trivial_first_observable_needs_search(self, sigma_x):
        # maximally degenerate first observable: minimum over the whole space
        eye = spectral_resolution(np.eye(2, dtype=complex))
        assert lambda_s_two(eye, sigma_x) == pytest.approx(0.0, abs=1e-6)

    def test_matches_minimum_over_first_eigenstates(self):
        for i in range(30):
            dim = 2 + i % 3
            a = random_observable(dim, seed=340 + i)
            b = random_observable(dim, seed=370 + i)
            candidates = [
                entropies_sequential(pure_density(a.eigenvectors[k][:, 0]), a, b).s_b
                for k in range(a.n_outcomes)
            ]
            assert lambda_s_two(a, b) == pytest.approx(min(candidates), abs=1e-10)

    def test_lower_bounds_any_state_second_entropy(self):
        for i in range(100):
            dim = 2 + i % 3
            rho = random_state(dim, seed=440 + i)
            a = random_observable(dim, seed=540 + i)
            b = random_observable(dim, seed=640 + i)
            s_b = entropies_sequential(rho, a, b).s_b
            assert s_b >= lambda_s_two(a, b) - 1e-9

    def test_dominates_distinct_bounds(self):
        for i in range(50):
            dim = 2 + i % 5
            a = random_observable(dim, seed=740 + i)
            b = random_observable(dim, seed=840 + i)
            ls = lambda_s_two(a, b)
            assert ls >= maassen_uffink_bound(a, b) - 1e-9
            assert ls >= krishna_parthasarathy_bound(a, b) - 1e-9
            assert maassen_uffink_bound(a, b) >= deutsch_bound(a, b) - 1e-9

    def test_order_matters(self):
        # a generic pair gives different bounds for the two measurement orders
        a = random_observable(3, seed=12)
        b = random_observable(3, seed=34)
        assert abs(lambda_s_two(a, b) - lambda_s_two(b, a)) > 1e-6


class TestTripleBound:
    def test_repeated_first_observable(self, sigma_z, sigma_x):
        c = tilted_spin(40)
        triple = lambda_s_three(sigma_z, sigma_z, c)
        expected = lambda_s_two(sigma_z, c)
        assert triple.stagewise == pytest.approx(expected, abs=1e-12)
        assert triple.common_state == pytest.approx(expected, abs=1e-12)

    def test_repeated_last_observable(self, sigma_z):
        b = tilted_spin(40)
        triple = lambda_s_three(sigma_z, b, b)
        expected = 2 * lambda_s_two(sigma_z, b)
        assert triple.stagewise == pytest.approx(expected, abs=1e-12)
        assert triple.common_state == pytest.approx(expected, abs=1e-12)

    def test_zxz(self, sigma_z, sigma_x):
        triple = lambda_s_three(sigma_z, sigma_x, sigma_z)
        assert triple.stagewise == pytest.approx(2 * math.log(2), abs=1e-12)
        assert triple.common_state == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_common_state_dominates_stagewise(self):
        for i in range(50):
            dim = 2 + i % 2
            a, b, c = (random_observable(dim, seed=s + i) for s in (940, 1040, 1140))
            triple = lambda_s_three(a, b, c)
            assert triple.common_state >= triple.stagewise - 1e-12

    def test_rejects_degenerate(self, sigma_z, sigma_x):
        eye = spectral_resolution(np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match="degenerate"):
            lambda_s_three(eye, sigma_z, sigma_x)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    @pytest.mark.parametrize("length", [2, 3, 4, 5])
    def test_stage_entropies_match_wigner_joint(self, length, dim):
        # oracle: marginal entropies of the joint table of each first eigenvector,
        # built on the isometry blocks instead of the collapsed operator stacks
        rng = np.random.default_rng(100 * length + dim)
        degenerate = (2, dim - 2) if dim > 2 else (2,)
        chain = [random_observable(dim, rng) for _ in range(length)]
        chain[1] = eigenspace_observable(degenerate, 10 * length + dim)
        chain[-1] = eigenspace_observable(degenerate, 20 * length + dim)
        vectors = chain[0].eigenbasis.T
        rows = np.array([[shannon_entropy(p) for p in
                          wigner_joint(pure_density(v), *chain).marginals()[1:]]
                         for v in vectors])
        stages = np.array([_quadratic_entropy(stack, vectors)
                           for stack in _sequential_stacks(chain[1:])]).T
        assert np.abs(stages - rows).max() <= 1e-12
        bound = lambda_s_chain(chain)
        assert bound.stagewise == pytest.approx(rows.min(axis=0).sum(), abs=1e-12)
        assert bound.common_state == pytest.approx(rows.sum(axis=1).min(), abs=1e-12)
        assert bound.second_stage == pytest.approx(rows[:, -1].min(), abs=1e-12)

    def test_search_never_below_common_state_on_4_chains(self):
        for i in range(24):
            dim = 2 + i % 3
            chain = [random_observable(dim, seed=1740 + 4 * i + k) for k in range(4)]
            found = lambda_s_chain_numeric(chain, OptimizerConfig(starts=16, seed=i)).value
            assert found >= lambda_s_chain(chain).common_state - 1e-9

    def test_mixed_dimensions_refused(self, sigma_z, sigma_x):
        c = random_observable(3, seed=1940)
        for chain in ([sigma_z, c], [sigma_z, sigma_x, c], [c, sigma_z, sigma_x]):
            with pytest.raises(DimensionMismatch):
                lambda_s_chain(chain)
            with pytest.raises(DimensionMismatch):
                lambda_s_chain_numeric(chain, OptimizerConfig(starts=1))

    def test_chain_paths_never_call_luders_map(self, monkeypatch):
        # the stacks come from the eigenspace overlaps; the projector form of
        # the collapse is left to the oracles that check them
        def refuse(*args):
            raise AssertionError("luders_map called on the bound or search path")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "sequr" and hasattr(module, "luders_map"):
                monkeypatch.setattr(module, "luders_map", refuse)
        chain = [random_observable(3, seed=s) for s in (1950, 1951, 1952)]
        assert lambda_s_chain(chain).common_state > 0
        assert lambda_s_chain_numeric(chain, OptimizerConfig(starts=1)).value > 0

    def test_degenerate_middle_matches_search(self):
        a, c = random_observable(4, seed=1840), random_observable(4, seed=1841)
        chain = [a, eigenspace_observable((2, 2), 1842), c]
        found = lambda_s_chain_numeric(chain, OptimizerConfig(starts=16, seed=3)).value
        assert found == pytest.approx(lambda_s_chain(chain).common_state, abs=1e-6)


class TestComplementarity:
    def test_pauli_pair(self, sigma_z, sigma_x):
        assert is_complementary(sigma_z, sigma_x)

    def test_same_observable(self, sigma_z):
        assert not is_complementary(sigma_z, sigma_z)

    def test_fourier_bases(self):
        for n in range(2, 9):
            a, b = fourier_pair(n)
            assert is_complementary(a, b)
            u = squared_overlaps(a, b)
            assert np.abs(u - 1.0 / n).max() <= 1e-12


class TestSecondStage:
    def test_equality_when_last_two_equal(self, sigma_z):
        b = tilted_spin(40)
        triple = lambda_s_three(sigma_z, b, b)
        assert triple.second_stage == pytest.approx(lambda_s_two(sigma_z, b), abs=1e-12)
        assert triple.second_stage >= lambda_s_two(sigma_z, b) - 1e-9

    def test_random_triples(self):
        for i in range(100):
            dim = 2 + i % 3
            a, b, c = (random_observable(dim, seed=s + i) for s in (1240, 1340, 1440))
            assert lambda_s_three(a, b, c).second_stage >= lambda_s_two(a, b) - 1e-9

    def test_transition_is_doubly_stochastic(self):
        for i in range(30):
            dim = 2 + i % 5
            b = random_observable(dim, seed=1540 + i)
            c = random_observable(dim, seed=1640 + i)
            u = squared_overlaps(b, c)
            assert np.abs(u.sum(axis=0) - 1.0).max() <= 1e-9
            assert np.abs(u.sum(axis=1) - 1.0).max() <= 1e-9


class TestBoundReport:
    """The bounds ``sequr bounds`` reports for one ordered pair, side by side."""

    def test_nondegenerate_report_consistency(self, sigma_z):
        b = tilted_spin(55)
        kp = krishna_parthasarathy_bound(sigma_z, b)
        mu = maassen_uffink_bound(sigma_z, b)
        partovi = partovi_bound(sigma_z, b)
        assert deutsch_bound(sigma_z, b) == pytest.approx(partovi, abs=1e-12)
        assert mu == pytest.approx(kp, abs=1e-12)
        assert lambda_s_two(sigma_z, b) >= mu - 1e-9
        assert kp >= partovi - 1e-9

    def test_degenerate_report_drops_overlap_bounds(self, sigma_x):
        eye = spectral_resolution(np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match="degenerate spectrum"):
            deutsch_bound(eye, sigma_x)
        with pytest.raises(ValueError, match="degenerate spectrum"):
            maassen_uffink_bound(eye, sigma_x)
        assert partovi_bound(eye, sigma_x) == pytest.approx(0.0, abs=1e-12)
