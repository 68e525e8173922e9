"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; a failed assertion is the corresponding FAIL.
"""

import math
import time

import numpy as np
import pytest

from sequr.bounds import (
    is_complementary,
    krishna_parthasarathy_bound,
    lambda_s_chain,
    lambda_s_two,
    maassen_uffink_bound,
    partovi_bound,
)
from sequr.entropy import (
    entropies_sequential,
    entropies_sequential_3,
    entropy_distinct,
    shannon_entropy,
    variance_relations,
)
from sequr.linalg import operator_norm, spectral_resolution
from sequr.optimize import OptimizerConfig, lambda_d_numeric, lambda_s_chain_numeric
from sequr.qubit import (
    curve_point,
    sanchez_ruiz_theta,
    spin_observable,
    table1,
    theta_star,
    _theta_star_lhs,
)
from sequr.states import (
    interference_gap,
    luders_map,
    outcome_probabilities,
    pure_density,
    random_observable,
    random_state,
    sample_sequence,
    wigner_joint,
)

REFERENCE_TABLE = (
    (0, 0.000, 0.000, 0.000, 0.000),
    (10, 0.045, 0.028, 0.008, 0.004),
    (20, 0.135, 0.089, 0.031, 0.015),
    (30, 0.246, 0.173, 0.069, 0.034),
    (40, 0.361, 0.271, 0.124, 0.061),
    (50, 0.469, 0.378, 0.197, 0.096),
    (60, 0.562, 0.492, 0.288, 0.139),
    (70, 0.633, 0.604, 0.399, 0.190),
    (80, 0.678, 0.673, 0.533, 0.249),
    (90, 0.693, 0.693, 0.693, 0.317),
)


def tilted_spin(deg):
    theta = math.radians(deg)
    return spin_observable((math.sin(theta), 0.0, math.cos(theta)))


def test_acceptance_01_table_reproduction():
    started = time.perf_counter()
    rows = table1()
    for point, ref in zip(rows, REFERENCE_TABLE):
        computed = (point.lambda_s, point.lambda_d, point.lambda_d2, point.lambda_d1)
        tol = 1e-3 if point.regime == "middle-search" else 5e-4
        for name, got, want in zip(("lambda_s", "lambda_d", "lambda_d2", "lambda_d1"),
                                   computed, ref[1:]):
            assert abs(got - want) <= tol, f"{name} at {ref[0]} deg: {got} vs {want}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"table took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS - all 40 reference-table entries reproduced "
          f"({elapsed:.1f}s)")


def test_acceptance_02_regime_boundary_angle():
    boundary = theta_star()
    assert abs(math.degrees(boundary) - 67.0) <= 0.5
    residual = abs(_theta_star_lhs(boundary) - 2.0)
    assert residual <= 1e-12
    print(f"\nACCEPTANCE 2 PASS - boundary angle {math.degrees(boundary):.3f} deg, "
          f"residual {residual:.1e}")


def test_acceptance_03_complementary_fourier_bases():
    for n in range(2, 9):
        j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        f = np.exp(2j * math.pi * j * k / n) / math.sqrt(n)
        diag = np.diag(np.arange(n, dtype=float)).astype(complex)
        a = spectral_resolution(diag)
        b = spectral_resolution(f @ diag @ f.conj().T)
        assert is_complementary(a, b, tol=1e-9)
        assert abs(maassen_uffink_bound(a, b) - math.log(n)) <= 1e-9
    print("\nACCEPTANCE 3 PASS - Fourier-conjugate bases complementary for n=2..8, "
          "bound log(n)")


def test_acceptance_04_sequential_bound_against_optimizer():
    started = time.perf_counter()
    worst = 0.0
    for i in range(100):
        dim = 2 + i % 2
        a = random_observable(dim, seed=9000 + i)
        b = random_observable(dim, seed=9500 + i)
        assert a.is_nondegenerate and b.is_nondegenerate
        config = OptimizerConfig(starts=16, seed=123 + i)
        numeric = lambda_s_chain_numeric([a, b], config).value
        worst = max(worst, abs(numeric - lambda_s_two(a, b)))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-4, f"worst gap {worst:.2e}"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 4 PASS - closed form matches optimizer on 100 pairs, "
          f"worst gap {worst:.1e} ({elapsed:.1f}s)")


def test_acceptance_05_inequality_chains():
    # random pairs, dimensions 2..6
    for i in range(200):
        dim = 2 + i % 5
        a = random_observable(dim, seed=20000 + i)
        b = random_observable(dim, seed=21000 + i)
        ls = lambda_s_two(a, b)
        kp = krishna_parthasarathy_bound(a, b)
        assert ls >= kp - 1e-9
        assert kp >= partovi_bound(a, b) - 1e-9
        if a.is_nondegenerate and b.is_nondegenerate:
            assert ls >= maassen_uffink_bound(a, b) - 1e-9

    # qubit angle grid at 1 degree steps
    points = {deg: curve_point(math.radians(deg)) for deg in range(0, 91)}
    for deg, p in points.items():
        assert p.lambda_s >= p.lambda_d - 1e-6, f"{deg} deg"
        assert p.lambda_d >= p.lambda_d2 - 1e-6, f"{deg} deg"
        assert p.lambda_d2 >= 2 * p.lambda_d1 - 1e-6, f"{deg} deg"
    zero = points[0]
    assert max(zero.lambda_s, zero.lambda_d, zero.lambda_d2, zero.lambda_d1) <= 1e-6
    ninety = points[90]
    assert abs(ninety.lambda_s - ninety.lambda_d) <= 1e-6
    assert abs(ninety.lambda_d - ninety.lambda_d2) <= 1e-6
    assert ninety.lambda_d2 - 2 * ninety.lambda_d1 > 1e-6
    for deg in range(10, 90, 10):
        p = points[deg]
        assert p.lambda_s - p.lambda_d > 0.003
        assert p.lambda_d - p.lambda_d2 > 1e-3
        assert p.lambda_d2 - 2 * p.lambda_d1 > 1e-6
    print("\nACCEPTANCE 5 PASS - bound chains hold on 200 random pairs and the "
          "1-degree qubit grid, equalities only at 0/90 deg")


def test_acceptance_06_distinct_optimum_regimes_and_minimizers():
    z = spin_observable((0.0, 0.0, 1.0))

    def fidelity_with_eigenstate(direction, minimizer):
        obs = spin_observable(tuple(direction / np.linalg.norm(direction)))
        return max(
            abs(np.vdot(obs.eigenvectors[k][:, 0], minimizer)) ** 2 for k in (0, 1)
        )

    for deg in range(10, 70, 10):
        theta = math.radians(deg)
        b = tilted_spin(deg)
        result = lambda_d_numeric(z, b, OptimizerConfig(starts=16, seed=deg))
        closed, regime = sanchez_ruiz_theta(theta)
        assert regime == "low"
        assert abs(result.value - closed) <= 1e-4
        bisector = np.array([math.sin(theta), 0.0, 1.0 + math.cos(theta)])
        assert fidelity_with_eigenstate(bisector, result.minimizer) >= 0.9999

    for deg in range(120, 180, 10):
        theta = math.radians(deg)
        b = tilted_spin(deg)
        result = lambda_d_numeric(z, b, OptimizerConfig(starts=16, seed=deg))
        closed, regime = sanchez_ruiz_theta(theta)
        assert regime == "high"
        assert abs(result.value - closed) <= 1e-4
        difference = np.array([-math.sin(theta), 0.0, 1.0 - math.cos(theta)])
        assert fidelity_with_eigenstate(difference, result.minimizer) >= 0.9999

    print("\nACCEPTANCE 6 PASS - optimizer reproduces both closed-form regimes and "
          "their minimizing eigenstates")


def test_acceptance_07_identities_and_probability_structure():
    for i in range(200):
        dim = 2 + i % 4
        rho = random_state(dim, seed=30000 + i)
        a = random_observable(dim, seed=31000 + i)
        b = random_observable(dim, seed=32000 + i)

        # eigenprojector algebra
        assert operator_norm(sum(a.projectors) - np.eye(dim)) <= 1e-10
        for m, p in enumerate(a.projectors):
            assert operator_norm(p @ p - p) <= 1e-10
            for q in a.projectors[m + 1:]:
                assert operator_norm(p @ q) <= 1e-10

        # joint-table marginals
        joint = wigner_joint(rho, a, b)
        direct = outcome_probabilities(rho, a)
        collapsed = luders_map(rho, a)
        second = outcome_probabilities(collapsed, b)
        assert np.abs(joint.marginal(0) - direct).max() <= 1e-10
        assert np.abs(joint.marginal(1) - second).max() <= 1e-10

        # sequential entropies equal their distinct-measurement counterparts
        rep = entropies_sequential(rho, a, b)
        assert abs(rep.s_a - entropy_distinct(rho, a)) <= 1e-10
        assert abs(rep.s_a - entropy_distinct(collapsed, a)) <= 1e-10
        assert abs(rep.s_b - entropy_distinct(collapsed, b)) <= 1e-10

        # sub-additivity and the joint-entropy floor
        assert rep.s_a + rep.s_b >= rep.s_joint - 1e-9
        assert rep.s_joint >= krishna_parthasarathy_bound(a, b) - 1e-9

        c = random_observable(dim, seed=33000 + i)
        three = entropies_sequential_3(rho, a, b, c)
        assert three.s_a + three.s_b + three.s_c >= three.s_joint - 1e-9
        full = wigner_joint(rho, a, b, c)
        s_ab = shannon_entropy(full.table.sum(axis=2))
        s_bc = shannon_entropy(full.table.sum(axis=0))
        s_b = shannon_entropy(full.marginal(1))
        assert s_ab + s_bc >= shannon_entropy(full.table) + s_b - 1e-9
    print("\nACCEPTANCE 7 PASS - projector algebra, marginal and entropy identities, "
          "sub-additivity on 200 instances")


def test_acceptance_08_variance_relations():
    for i in range(500):
        dim = 2 + i % 5
        rho = random_state(dim, seed=40000 + i)
        a = random_observable(dim, seed=41000 + i)
        b = random_observable(dim, seed=42000 + i)
        rep = variance_relations(rho, a, b)
        assert rep.var_a * rep.var_b >= rep.robertson_rhs - 1e-9
        assert rep.var_a_seq * rep.var_b_seq >= rep.successive_rhs - 1e-9
        comm = a.matrix @ rep.c_of_b - rep.c_of_b @ a.matrix
        assert operator_norm(comm) <= 1e-10
    print("\nACCEPTANCE 8 PASS - both variance relations and compressed-observable "
          "commutation on 500 instances")


def test_acceptance_09_interference_of_probabilities():
    x_plus = pure_density(np.array([1.0, 1.0]) / math.sqrt(2))
    z = spin_observable((0.0, 0.0, 1.0))
    x = spin_observable((1.0, 0.0, 0.0))
    analytic = interference_gap(x_plus, z, x)
    assert abs(analytic - 0.5) <= 1e-12

    n = 10**6
    counts = sample_sequence(x_plus, [z, x], n=n, seed=2002)
    direct = outcome_probabilities(x_plus, x)
    empirical_gap = float(np.abs(counts.sum(axis=0) / n - direct).max())
    assert abs(empirical_gap - 0.5) <= 0.005
    print(f"\nACCEPTANCE 9 PASS - interference gap analytic 0.5, Monte Carlo "
          f"{empirical_gap:.4f} at 1e6 samples")


def test_acceptance_10_triple_chain_bound():
    disagreements = 0
    arbitration_checked = 0
    worst_gap = 0.0
    for i in range(50):
        dim = 2 + i % 2
        a = random_observable(dim, seed=11000 + i)
        b = random_observable(dim, seed=11500 + i)
        c = random_observable(dim, seed=12000 + i)
        triple = lambda_s_chain([a, b, c])
        assert triple.common_state >= triple.stagewise - 1e-12

        assert triple.second_stage >= lambda_s_two(a, b) - 1e-9

        numeric = lambda_s_chain_numeric([a, b, c], OptimizerConfig(starts=16, seed=321 + i))
        gap = abs(numeric.value - triple.common_state)
        worst_gap = max(worst_gap, gap)
        if triple.common_state - triple.stagewise > 1e-3:
            disagreements += 1
            arbitration_checked += 1
            assert gap <= 1e-3, (
                f"optimizer arbitration failed on triple {i}: numeric {numeric.value} "
                f"vs common-state {triple.common_state}"
            )
    print(f"\nACCEPTANCE 10 PASS - 50 triples: common-state >= stagewise always; "
          f"{disagreements} triples differ by >1e-3 and the optimizer matched the "
          f"common-state value in each (worst overall gap {worst_gap:.1e})")
