import math

import numpy as np
import pytest

from sequr import optimize
from sequr.bounds import krishna_parthasarathy_bound, lambda_s_chain, lambda_s_two
from sequr.entropy import _quadratic_entropy_gradient
from sequr.errors import OptimizerFailure
from sequr.linalg import spectral_resolution
from sequr.optimize import (
    OptimizerConfig,
    OptimizerResult,
    lambda_d_numeric,
    lambda_s_chain_numeric,
    minimize_in_subspace,
    minimize_over_pure_states,
)
from sequr.qubit import PAULI_X, PAULI_Z, spin_observable
from sequr.states import _sequential_stacks, random_hermitian, random_observable

CFG = OptimizerConfig(starts=8, seed=7)


def entropy_of(expectations):
    """Entropy of each row of expectations (last axis), in nats."""
    p = np.clip(expectations, 0.0, None)
    log_p = np.log(p, out=np.zeros_like(p), where=p > 1e-15)
    return -(p * log_p).sum(axis=-1)


def expectation(operator):
    """Row-wise objective <psi|operator|psi> for states of shape (..., dim)."""
    return lambda psi: np.einsum("...i,ij,...j->...", psi.conj(), operator, psi).real


def expectation_gradient(operator):
    """Row-wise dF/dpsi-bar = operator psi of ``expectation(operator)``."""
    return lambda psi: psi @ operator.T


def zero_gradient(psi):
    return np.zeros_like(psi)


def tilted_spin(deg):
    theta = math.radians(deg)
    return spin_observable((math.sin(theta), 0.0, math.cos(theta)))


class TestMinimizeOverPureStates:
    def test_expectation_reaches_smallest_eigenvalue(self):
        result = minimize_over_pure_states(expectation(PAULI_Z), dim=2, config=CFG,
                                           gradient=expectation_gradient(PAULI_Z))
        assert result.value == pytest.approx(-1.0, abs=1e-8)
        # minimizer is |z-> up to phase
        assert abs(result.minimizer[1]) == pytest.approx(1.0, abs=1e-4)

    def test_constant_objective(self):
        result = minimize_over_pure_states(lambda psi: np.full(psi.shape[:-1], 2.5),
                                           dim=3, config=CFG, gradient=zero_gradient)
        assert result.value == 2.5
        assert np.linalg.norm(result.minimizer) == pytest.approx(1.0)

    def test_entropy_pair_objective(self):
        z, x = PAULI_Z, PAULI_X

        def objective(psi):
            pz = np.abs(psi) ** 2
            px = np.abs(np.stack([psi[..., 0] + psi[..., 1],
                                  psi[..., 0] - psi[..., 1]], axis=-1)) ** 2 / 2
            return entropy_of(pz) + entropy_of(px)

        stack = np.concatenate([spectral_resolution(m).projectors for m in (z, x)])
        result = minimize_over_pure_states(
            objective, dim=2, config=OptimizerConfig(starts=16, seed=3),
            gradient=lambda psi: _quadratic_entropy_gradient(stack, psi))
        assert result.value == pytest.approx(0.693, abs=5e-4)

    def test_determinism(self):
        obs = random_observable(3, seed=77)

        def objective(psi):
            return entropy_of(
                np.einsum("kij,...i,...j->...k", obs.projectors, psi.conj(), psi).real
            )

        def gradient(psi):
            return _quadratic_entropy_gradient(obs.projectors, psi)

        first = minimize_over_pure_states(objective, 3, CFG, gradient)
        second = minimize_over_pure_states(objective, 3, CFG, gradient)
        assert first.value == second.value
        assert first.per_start_values == second.per_start_values
        assert np.array_equal(first.minimizer, second.minimizer)

    def test_result_invariants(self):
        objective = expectation(PAULI_X)

        result = minimize_over_pure_states(objective, 2, CFG, expectation_gradient(PAULI_X))
        assert result.value == min(result.per_start_values)
        assert objective(result.minimizer) == pytest.approx(result.value, abs=1e-9)
        assert result.starts_converged >= 1

    def test_non_finite_objective_raises(self):
        with pytest.raises(OptimizerFailure, match="non-finite"):
            minimize_over_pure_states(lambda psi: math.inf, 2, CFG, zero_gradient)

    def test_nan_stack_raises(self, sigma_z, sigma_x):
        # the objective checks no probability itself: a NaN operator entry
        # must still stop the search at its finite-value check
        stack = np.concatenate([sigma_z.projectors, sigma_x.projectors])
        stack[0, 0, 0] = math.nan
        with pytest.raises(OptimizerFailure, match="non-finite"):
            optimize._lambda_result([stack], 2, CFG)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(starts=0)
        with pytest.raises(ValueError):
            OptimizerConfig(value_tolerance=0.0)


class TestMinimizeInSubspace:
    def test_one_dimensional_subspace(self):
        basis = [np.array([0.0, 1.0], dtype=complex)]
        result = minimize_in_subspace(
            lambda psi: float((psi.conj() @ PAULI_Z @ psi).real), basis, CFG,
            expectation_gradient(PAULI_Z),
        )
        assert result.value == pytest.approx(-1.0)
        assert result.evaluations == 1

    def test_full_space_matches_global(self):
        obs = random_observable(2, seed=5)
        objective = expectation(obs.matrix)

        basis = [np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)]
        gradient = expectation_gradient(obs.matrix)
        sub = minimize_in_subspace(objective, basis, CFG, gradient)
        full = minimize_over_pure_states(objective, 2, CFG, gradient)
        assert sub.value == pytest.approx(full.value, abs=1e-8)

    def test_empty_basis_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            minimize_in_subspace(lambda psi: 0.0, [], CFG, zero_gradient)

    def test_whole_space_eigenspace_x_entropy(self, sigma_x):
        # first observable is the identity: the search space is all of C^2 and
        # the x-entropy dips to zero at the x eigenstates
        def objective(psi):
            p = np.einsum("kij,...i,...j->...k", sigma_x.projectors,
                          psi.conj(), psi).real
            return entropy_of(p)

        basis = [np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)]
        result = minimize_in_subspace(
            objective, basis, OptimizerConfig(starts=16, seed=11),
            lambda psi: _quadratic_entropy_gradient(sigma_x.projectors, psi))
        assert result.value <= 1e-6

        # oracle: dense Bloch-sphere scan at 0.5 degree resolution
        thetas = np.radians(np.arange(0.0, 180.5, 0.5))
        phis = np.radians(np.arange(0.0, 360.0, 0.5))
        tt, pp = np.meshgrid(thetas, phis, indexing="ij")
        amp0 = np.cos(tt / 2)
        amp1 = np.sin(tt / 2) * np.exp(1j * pp)
        px = np.abs(amp0 + amp1) ** 2 / 2  # overlap with |x+>
        with np.errstate(divide="ignore", invalid="ignore"):
            h = -(px * np.log(px) + (1 - px) * np.log(1 - px))
        h = np.nan_to_num(h, nan=0.0)
        assert h.min() == pytest.approx(0.0, abs=1e-12)
        assert result.value <= h.min() + 1e-6


class TestLambdaDNumeric:
    def test_complementary_pair(self, sigma_z, sigma_x):
        result = lambda_d_numeric(sigma_z, sigma_x, OptimizerConfig(starts=16, seed=2))
        assert result.value == pytest.approx(math.log(2), abs=1e-4)

    def test_30_degrees(self, sigma_z):
        result = lambda_d_numeric(sigma_z, tilted_spin(30),
                                  OptimizerConfig(starts=16, seed=2))
        assert result.value == pytest.approx(0.173, abs=1e-3)

    def test_commuting_observables(self, sigma_z):
        result = lambda_d_numeric(sigma_z, sigma_z, OptimizerConfig(starts=16, seed=2))
        assert result.value == pytest.approx(0.0, abs=1e-6)

    def test_never_below_analytic_bounds(self):
        for i in range(10):
            dim = 2 + i % 3
            a = random_observable(dim, seed=2200 + i)
            b = random_observable(dim, seed=2300 + i)
            result = lambda_d_numeric(a, b, OptimizerConfig(starts=12, seed=i))
            assert result.value >= krishna_parthasarathy_bound(a, b) - 1e-6

    def test_low_angle_minimizer_is_bisector_eigenstate(self, sigma_z):
        # below the regime boundary the optimum sits in an eigenstate of the
        # bisector spin component sigma.(n1+n2)
        theta = math.radians(40)
        b = tilted_spin(40)
        result = lambda_d_numeric(sigma_z, b, OptimizerConfig(starts=16, seed=5))
        bisector = np.array([math.sin(theta), 0, 1 + math.cos(theta)])
        bisector /= np.linalg.norm(bisector)
        eigvecs = spin_observable(tuple(bisector)).eigenvectors
        fidelity = max(
            abs(np.vdot(eigvecs[k][:, 0], result.minimizer)) ** 2 for k in (0, 1)
        )
        assert fidelity >= 1.0 - 1e-4


class TestLambdaSNumeric:
    def test_complementary_pair(self, sigma_z, sigma_x):
        result = lambda_s_chain_numeric([sigma_z, sigma_x], OptimizerConfig(starts=16, seed=2))
        assert result.value == pytest.approx(math.log(2), abs=1e-4)

    def test_50_degrees(self, sigma_z):
        result = lambda_s_chain_numeric([sigma_z, tilted_spin(50)],
                                        OptimizerConfig(starts=16, seed=2))
        assert result.value == pytest.approx(0.469, abs=1e-3)

    def test_equal_observables(self, sigma_x):
        result = lambda_s_chain_numeric([sigma_x, sigma_x], OptimizerConfig(starts=16, seed=2))
        assert result.value == pytest.approx(0.0, abs=1e-6)

    def test_agrees_with_closed_form(self):
        for i in range(15):
            dim = 2 + i % 2
            a = random_observable(dim, seed=2400 + i)
            b = random_observable(dim, seed=2500 + i)
            result = lambda_s_chain_numeric([a, b], OptimizerConfig(starts=16, seed=i))
            assert abs(result.value - lambda_s_two(a, b)) <= 1e-4


class TestLambdaS3Numeric:
    def test_all_equal(self, sigma_z):
        result = lambda_s_chain_numeric([sigma_z, sigma_z, sigma_z],
                                        OptimizerConfig(starts=12, seed=2))
        assert result.value == pytest.approx(0.0, abs=1e-6)

    def test_zxz(self, sigma_z, sigma_x):
        result = lambda_s_chain_numeric([sigma_z, sigma_x, sigma_z],
                                        OptimizerConfig(starts=12, seed=2))
        assert result.value == pytest.approx(2 * math.log(2), abs=1e-3)

    def test_repeated_tail_doubles_pair_bound(self, sigma_z):
        b = tilted_spin(40)
        result = lambda_s_chain_numeric([sigma_z, b, b], OptimizerConfig(starts=12, seed=2))
        assert result.value == pytest.approx(0.722, abs=1e-3)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16])
    def test_sequential_stacks_match_einsum_reference(self, dim):
        def reference(chain):
            # each earlier projector sum conjugates the stack, latest first
            stacks = []
            for depth, obs in enumerate(chain):
                stack = obs.projectors
                for earlier in reversed(chain[:depth]):
                    ps = earlier.projectors
                    stack = np.einsum("mij,kjl,mln->kin", ps, stack, ps)
                stacks.append(stack)
            return stacks

        rng = np.random.default_rng(dim)
        a, b, c = (random_observable(dim, rng) for _ in range(3))
        middle = spectral_resolution(np.diag(np.arange(dim) // 2).astype(complex))
        for chain in ([a], [a, b], [a, b, c], [a, middle, c], [a, b, middle], [c, a, b, a]):
            got, want = _sequential_stacks(chain), reference(chain)
            assert [s.shape for s in got] == [s.shape for s in want]
            for g, w in zip(got, want):
                assert np.abs(g - w).max() <= 1e-15


def wirtinger_differences(f, psi, h=1e-6):
    """Central-difference dF/dpsi-bar = (dF/dx + i dF/dy) / 2, component by component."""
    grad = np.empty(len(psi), dtype=complex)
    for j in range(len(psi)):
        e = np.zeros(len(psi))
        e[j] = h
        dx = (f(psi + e) - f(psi - e)) / (2 * h)
        dy = (f(psi + 1j * e) - f(psi - 1j * e)) / (2 * h)
        grad[j] = 0.5 * (dx + 1j * dy)
    return grad


def sphere_difference(f, psi, v, h=1e-6):
    """Central difference of F along the curve (psi + t v) / |psi + t v| at t = 0."""
    def at(t):
        w = psi + t * v
        return f(w / np.linalg.norm(w))

    return (at(h) - at(-h)) / (2 * h)


def degenerate_observable(dim, rng):
    """Observable with two eigenvalues of multiplicity dim/2 (the identity at dim 2)."""
    q, _ = np.linalg.qr(random_hermitian(dim, rng))
    values = np.repeat([0.0, 1.0], dim // 2) if dim > 2 else np.zeros(2)
    return spectral_resolution(q @ np.diag(values) @ q.conj().T)


def capture_searches(monkeypatch):
    """Record (objective, gradient, dim) of each driver call and skip the search."""
    calls = []

    def spy(objective, dim, config, gradient=None):
        calls.append((objective, gradient, dim))
        state = np.eye(dim, dtype=complex)[0]
        return OptimizerResult(value=0.0, minimizer=state, starts_converged=1,
                               per_start_values=(0.0,), evaluations=1)

    monkeypatch.setattr(optimize, "minimize_over_pure_states", spy)
    return calls


class TestEntropyGradient:
    """Every numeric bound hands the driver the exact gradient of its objective."""

    @pytest.mark.parametrize("dim", [2, 4, 8])
    @pytest.mark.parametrize("case", ["distinct-pair", "sequential-pair", "triple",
                                      "degenerate-subspace"])
    def test_against_central_differences(self, case, dim, monkeypatch):
        rng = np.random.default_rng(100 * dim + len(case))
        a, b, c = (random_observable(dim, rng) for _ in range(3))
        calls = capture_searches(monkeypatch)
        if case == "distinct-pair":
            lambda_d_numeric(a, b, CFG)
        elif case == "sequential-pair":
            lambda_s_chain_numeric([a, b], CFG)
        elif case == "triple":
            lambda_s_chain_numeric([a, b, c], CFG)
        else:
            lambda_s_two(degenerate_observable(dim, rng), b)
        assert calls
        for objective, gradient, n in calls:
            assert gradient is not None
            for _ in range(3):
                psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                psi /= np.linalg.norm(psi)
                expected = wirtinger_differences(objective, psi)
                assert np.abs(gradient(psi) - expected).max() <= 1e-7

                # the driver's gradient on the sphere gives the slope along
                # every direction v, radial parts included, as Re <G|v>; a
                # wrong factor 2 or a missing radial projection changes it
                tangent = optimize._tangent_gradient(gradient, psi[None])[0]
                for _ in range(3):
                    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                    expected = sphere_difference(objective, psi, v)
                    assert abs(np.vdot(tangent, v).real - expected) <= 1e-7

            # row-wise: a stack of states gives the gradient of each row
            rows = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            stacked = gradient(rows)
            for row, g in zip(rows, stacked):
                assert np.abs(g - gradient(row)).max() <= 1e-15


class TestSingleStart:
    @pytest.mark.parametrize("numeric", [
        lambda_d_numeric,
        pytest.param(lambda a, b, config: lambda_s_chain_numeric([a, b], config),
                     id="lambda_s_numeric"),
    ])
    @pytest.mark.parametrize("second", ["z", "x"])
    def test_never_raises(self, numeric, second, sigma_z, sigma_x):
        # the optima sit where outcome probabilities vanish, so a tight
        # gradient tolerance stalls in the line search at the noise floor
        b = sigma_x if second == "x" else sigma_z
        for seed in range(200):
            result = numeric(sigma_z, b, OptimizerConfig(starts=1, seed=seed))
            assert result.starts_converged == 1


class TestScreen:
    """Each start screens ``SCREEN_SIZE`` seeded states in one objective call."""

    def test_screen_rows_are_seeded_unit_states(self):
        dim, config = 3, OptimizerConfig(starts=4, seed=21)
        matrix = np.diag([1.0, 0.0, -1.0])
        energy = expectation(matrix)
        calls = []

        def objective(psi):
            calls.append(psi.copy())
            return energy(psi)

        minimize_over_pure_states(objective, dim, config, expectation_gradient(matrix))
        screens, steps = calls[:config.starts], calls[config.starts:]
        for k, screen in enumerate(screens):
            assert screen.shape == (optimize.SCREEN_SIZE, dim)
            assert np.allclose(np.linalg.norm(screen, axis=1), 1.0, rtol=0, atol=1e-12)
            x0 = optimize._params_to_vector(
                np.random.default_rng(config.seed + k).standard_normal(2 * dim - 1))
            assert np.array_equal(screen[0], x0 / np.linalg.norm(x0))
        # then the starts descend in lockstep: each later call holds one trial
        # row of every start still running, and stopped starts never return
        sizes = [len(step) for step in steps]
        assert sizes and sizes[0] == config.starts
        assert sizes == sorted(sizes, reverse=True)

    @pytest.mark.parametrize("dim", [2, 5])
    def test_evaluations_count_states(self, dim):
        obs = random_observable(dim, seed=41)
        counted = expectation(obs.matrix)
        rows = 0

        def objective(psi):
            nonlocal rows
            rows += math.prod(psi.shape[:-1])
            return counted(psi)

        config = OptimizerConfig(starts=5, seed=3)
        result = minimize_over_pure_states(objective, dim, config,
                                           gradient=expectation_gradient(obs.matrix))
        assert result.evaluations == rows
        assert result.evaluations > optimize.SCREEN_SIZE * config.starts


def test_dim8_basin_coverage():
    # the 40 held-out dim-8 pairs of the basin study: a search stopping more
    # than 1e-4 above the closed form is a miss; the Powell-sweep optimizer
    # missed 6 of them
    misses = []
    for i in range(40):
        a = random_observable(8, 90000 + i)
        b = random_observable(8, 91000 + i)
        result = lambda_s_chain_numeric([a, b], OptimizerConfig(starts=16, seed=5600 + i))
        if result.value - lambda_s_two(a, b) > 1e-4:
            misses.append(i)
    assert len(misses) <= 6, misses


def test_basin_study():
    # the whole basin study: 600 dim-2/3 pairs, 40 dim-8 pairs and 40 dim-8
    # triples, 16 starts each; a search stopping more than 1e-4 (pairs) or
    # 1e-3 (triples) above the closed form is a miss
    instances = [("pair", i, [random_observable(2 + i % 2, 70000 + i),
                              random_observable(2 + i % 2, 80000 + i)], 5000 + i, 1e-4)
                 for i in range(600)]
    instances += [("dim-8 pair", i, [random_observable(8, 90000 + i),
                                     random_observable(8, 91000 + i)], 5600 + i, 1e-4)
                  for i in range(40)]
    instances += [("dim-8 triple", i, [random_observable(8, seed + i)
                                       for seed in (92000, 93000, 94000)], 5700 + i, 1e-3)
                  for i in range(40)]
    misses = [(kind, i) for kind, i, chain, seed, tol in instances
              if lambda_s_chain_numeric(chain, OptimizerConfig(starts=16, seed=seed)).value
              - lambda_s_chain(chain).common_state > tol]
    assert len(misses) <= 5, misses
