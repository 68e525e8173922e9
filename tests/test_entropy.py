import math

import numpy as np
import pytest

from sequr.entropy import (
    _entropy,
    entropies_sequential,
    entropies_sequential_3,
    entropy_distinct,
    shannon_entropy,
    variance_relations,
)
from sequr.linalg import spectral_resolution
from sequr.qubit import PAULI_Y
from sequr.states import luders_map, pure_density, random_observable, random_state, wigner_joint


class TestShannonEntropy:
    def test_uniform_is_maximal(self):
        assert shannon_entropy([0.25] * 4) == pytest.approx(math.log(4), abs=1e-12)

    def test_degenerate_is_zero(self):
        assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0

    def test_table_reference_value_at_30_degrees(self):
        p = math.cos(math.radians(15)) ** 2
        assert shannon_entropy([p, 1 - p]) == pytest.approx(0.246, abs=5e-4)

    def test_rejects_bad_distributions(self):
        with pytest.raises(ValueError, match=r"^weights sum to 1\.1, not 1$"):
            shannon_entropy([0.5, 0.6])
        with pytest.raises(ValueError):
            shannon_entropy([1.5, -0.5])
        for weights in ([math.nan, 0.5], [math.nan, 1.0], [0.5, 0.5, math.nan]):
            with pytest.raises(ValueError, match="not a number"):
                shannon_entropy(weights)

    def test_tiny_weights_never_produce_nan(self):
        value = shannon_entropy([1.0 - 1e-16, 1e-16])
        assert math.isfinite(value)
        assert value >= 0.0

    def test_weight_rounded_above_one_gives_positive_zero(self):
        # a certain outcome whose weight rounds a few ulp above 1 made -p log p
        # slightly negative; the result is clamped to +0.0, never -0.0
        for weight in (1.0, 1.0 + 2.0**-52, 1.0 + 4 * 2.0**-52):
            value = shannon_entropy([weight, 0.0])
            assert value == 0.0
            assert math.copysign(1.0, value) == 1.0

    def test_nan_row_stays_nan(self):
        # the public entry points refuse NaN weights; the kernel itself must
        # not turn a NaN row into a finite entropy, nor touch the other rows
        p = np.random.default_rng(5).dirichlet(np.ones(3), size=4)
        p[2, 1] = math.nan
        values = _entropy(p)
        assert math.isnan(values[2])
        for row in (0, 1, 3):
            assert values[row] == _entropy(p[row])
        assert math.isnan(_entropy(np.array([math.nan, 0.5])))

    @pytest.mark.parametrize("n", [2, 3, 8, 17])
    def test_row_wise_kernel_equals_row_calls(self, n):
        # zero, sub-floor and rounded-above-1 weights in some rows; n >= 8 rows
        # take numpy's pairwise sum, and no layout of the stack may change it
        p = np.random.default_rng(n).dirichlet(np.ones(n), size=(3, 4))
        p[0, 0, :n // 2] = 0.0
        p[0, 1, 0] = 1e-16
        p[1, 2] = np.eye(n)[0] * (1.0 + 2.0**-52)
        for stack in (p, p[0], p.transpose(1, 0, 2), np.asfortranarray(p)):
            values = _entropy(stack)
            assert values.shape == stack.shape[:-1]
            assert not np.signbit(values).any()
            for index in np.ndindex(stack.shape[:-1]):
                assert values[index] == _entropy(stack[index])  # a row view, strided if F order


class TestEntropyDistinct:
    def test_eigenstate(self, z_plus, sigma_z):
        assert entropy_distinct(z_plus, sigma_z) == 0.0

    def test_maximally_mixed(self, sigma_z):
        assert entropy_distinct(np.eye(2) / 2, sigma_z) == pytest.approx(math.log(2))

    def test_tilted_spin_reference(self, z_plus):
        theta = math.radians(30)
        tilted = spectral_resolution(
            math.sin(theta) * np.array([[0, 1], [1, 0]], dtype=complex)
            + math.cos(theta) * np.diag([1.0, -1.0]).astype(complex)
        )
        assert entropy_distinct(z_plus, tilted) == pytest.approx(0.246, abs=5e-4)


class TestSequentialEntropies:
    def test_z_plus_z_then_x(self, z_plus, sigma_z, sigma_x):
        rep = entropies_sequential(z_plus, sigma_z, sigma_x)
        assert rep.s_a == pytest.approx(0.0, abs=1e-12)
        assert rep.s_b == pytest.approx(math.log(2), abs=1e-12)
        assert rep.s_joint == pytest.approx(math.log(2), abs=1e-12)

    def test_second_entropy_uniform_after_z_collapse(self, sigma_z, sigma_x):
        rng = np.random.default_rng(17)
        for _ in range(5):
            rho = pure_density(rng.standard_normal(2) + 1j * rng.standard_normal(2))
            rep = entropies_sequential(rho, sigma_z, sigma_x)
            assert rep.s_b == pytest.approx(math.log(2), abs=1e-12)

    def test_repeated_observable_joint_collapses(self, sigma_z):
        rho = np.diag([0.3, 0.7]).astype(complex)
        rep = entropies_sequential(rho, sigma_z, sigma_z)
        assert rep.s_joint == pytest.approx(rep.s_a, abs=1e-12)

    def test_identities_on_random_instances(self):
        for i in range(60):
            dim = 2 + i % 4
            rho = random_state(dim, seed=400 + i)
            a = random_observable(dim, seed=500 + i)
            b = random_observable(dim, seed=600 + i)
            rep = entropies_sequential(rho, a, b)
            collapsed = luders_map(rho, a)
            assert abs(rep.s_a - entropy_distinct(rho, a)) <= 1e-12
            assert abs(rep.s_a - entropy_distinct(collapsed, a)) <= 1e-12
            assert abs(rep.s_b - entropy_distinct(collapsed, b)) <= 1e-12

    def test_subadditivity_and_marginal_bounds(self):
        for i in range(60):
            dim = 2 + i % 4
            rho = random_state(dim, seed=700 + i)
            a = random_observable(dim, seed=800 + i)
            b = random_observable(dim, seed=900 + i)
            rep = entropies_sequential(rho, a, b)
            assert rep.s_a + rep.s_b >= rep.s_joint - 1e-9
            assert rep.s_joint >= max(rep.s_a, rep.s_b) - 1e-9


class TestThreeStepEntropies:
    def test_all_same_observable(self, sigma_z):
        rho = np.diag([0.2, 0.8]).astype(complex)
        expected = shannon_entropy([0.2, 0.8])
        rep = entropies_sequential_3(rho, sigma_z, sigma_z, sigma_z)
        for value in (rep.s_a, rep.s_b, rep.s_c, rep.s_joint):
            assert value == pytest.approx(expected, abs=1e-12)

    def test_zxz_final_entropy(self, z_plus, sigma_z, sigma_x):
        # after collapsing in z then x the state is I/2, so z outcomes are uniform
        rep = entropies_sequential_3(z_plus, sigma_z, sigma_x, sigma_z)
        assert rep.s_c == pytest.approx(math.log(2), abs=1e-12)

    def test_strong_subadditivity_on_random_instances(self):
        for i in range(60):
            dim = 2 + i % 3
            rho = random_state(dim, seed=1100 + i)
            a = random_observable(dim, seed=1200 + i)
            b = random_observable(dim, seed=1300 + i)
            c = random_observable(dim, seed=1400 + i)
            joint = wigner_joint(rho, a, b, c)
            s_abc = shannon_entropy(joint.table)
            s_ab = shannon_entropy(joint.table.sum(axis=2))
            s_bc = shannon_entropy(joint.table.sum(axis=0))
            s_b = shannon_entropy(joint.marginal(1))
            assert s_ab + s_bc >= s_abc + s_b - 1e-9
            rep = entropies_sequential_3(rho, a, b, c)
            assert rep.s_a + rep.s_b + rep.s_c >= rep.s_joint - 1e-9


class TestVarianceRelations:
    def test_eigenstate_gives_zero_variance_and_bound(self, z_plus, sigma_z, sigma_x):
        rep = variance_relations(z_plus, sigma_z, sigma_x)
        assert rep.var_a == pytest.approx(0.0, abs=1e-12)
        assert rep.robertson_rhs == pytest.approx(0.0, abs=1e-12)

    def test_compressed_x_through_z_vanishes(self, x_plus, sigma_z, sigma_x):
        rep = variance_relations(x_plus, sigma_z, sigma_x)
        assert np.abs(rep.c_of_b).max() <= 1e-12
        assert rep.successive_rhs == pytest.approx(0.0, abs=1e-12)

    def test_robertson_equality_case(self, x_plus, sigma_z):
        sigma_y = spectral_resolution(PAULI_Y)
        rep = variance_relations(x_plus, sigma_z, sigma_y)
        assert rep.var_a * rep.var_b == pytest.approx(1.0, abs=1e-12)
        assert rep.robertson_rhs == pytest.approx(1.0, abs=1e-12)

    def test_both_relations_on_random_instances(self):
        for i in range(100):
            dim = 2 + i % 4
            rho = random_state(dim, seed=1500 + i)
            a = random_observable(dim, seed=1600 + i)
            b = random_observable(dim, seed=1700 + i)
            rep = variance_relations(rho, a, b)
            assert rep.var_a * rep.var_b >= rep.robertson_rhs - 1e-9
            assert rep.var_a_seq * rep.var_b_seq >= rep.successive_rhs - 1e-9
            # the operator-form covariance equals the joint-table covariance
            joint = wigner_joint(rho, a, b)
            ea = joint.marginal(0) @ joint.axes[0]
            eb = joint.marginal(1) @ joint.axes[1]
            eab = np.einsum("ij,i,j->", joint.table, joint.axes[0], joint.axes[1])
            assert rep.successive_rhs == pytest.approx((eab - ea * eb) ** 2, abs=1e-9)
            # the compressed observable commutes with the first one
            comm = a.matrix @ rep.c_of_b - rep.c_of_b @ a.matrix
            assert np.abs(comm).max() <= 1e-10
