import math

import numpy as np
import pytest

from sequr import qubit
from sequr.bounds import lambda_s_two
from sequr.entropy import entropy_distinct
from sequr.optimize import OptimizerConfig, lambda_d_numeric
from sequr.qubit import (
    _PHI_GRID,
    PAULI_X,
    PAULI_Z,
    _middle_search,
    _plane_entropy_sum,
    _theta_star_lhs,
    curve_point,
    deutsch_theta,
    lambda_s_theta,
    mu_theta,
    sanchez_ruiz_theta,
    spin_observable,
    table1,
    theta_star,
)
from sequr.states import pure_density


def binary_entropy(p):
    total = 0.0
    for w in (p, 1 - p):
        if w > 1e-15:
            total -= w * math.log(w)
    return total


class TestSpinObservable:
    def test_z_axis(self):
        assert np.allclose(spin_observable((0, 0, 1)).matrix, PAULI_Z)

    def test_x_axis(self):
        assert np.allclose(spin_observable((1, 0, 0)).matrix, PAULI_X)

    def test_eigenvalues_are_plus_minus_one(self):
        obs = spin_observable((0.6, 0.0, 0.8))
        assert np.allclose(obs.eigenvalues, [-1.0, 1.0])

    def test_overlaps_at_60_degrees(self):
        theta = math.radians(60)
        a = spin_observable((0, 0, 1))
        b = spin_observable((math.sin(theta), 0, math.cos(theta)))
        overlap = abs(np.vdot(a.eigenvectors[1][:, 0], b.eigenvectors[1][:, 0])) ** 2
        assert overlap == pytest.approx(math.cos(theta / 2) ** 2, abs=1e-12)
        assert overlap == pytest.approx(0.75, abs=1e-12)

    def test_rejects_non_unit_vector(self):
        with pytest.raises(ValueError, match=r"unit vector, \|n\| = 1\.4142135623730951$"):
            spin_observable((1.0, 1.0, 0.0))


class TestClosedFormCurves:
    def test_lambda_s_endpoints(self):
        assert lambda_s_theta(0.0) == 0.0
        assert lambda_s_theta(math.pi / 2) == pytest.approx(math.log(2), abs=1e-12)

    def test_lambda_s_at_40(self):
        assert lambda_s_theta(math.radians(40)) == pytest.approx(0.361, abs=5e-4)

    def test_lambda_s_symmetry(self):
        for deg in (10, 35, 62, 81):
            t = math.radians(deg)
            assert lambda_s_theta(t) == pytest.approx(lambda_s_theta(math.pi - t),
                                                      abs=1e-12)

    def test_deutsch_and_mu_at_90(self):
        assert deutsch_theta(math.pi / 2) == pytest.approx(0.317, abs=5e-4)
        assert mu_theta(math.pi / 2) == pytest.approx(0.693, abs=5e-4)

    def test_deutsch_and_mu_at_zero(self):
        assert deutsch_theta(0.0) == 0.0
        assert mu_theta(0.0) == 0.0

    def test_deutsch_and_mu_at_50(self):
        assert deutsch_theta(math.radians(50)) == pytest.approx(0.096, abs=5e-4)
        assert mu_theta(math.radians(50)) == pytest.approx(0.197, abs=5e-4)

    def test_matches_general_bound_on_random_directions(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n1 = rng.standard_normal(3)
            n2 = rng.standard_normal(3)
            n1 /= np.linalg.norm(n1)
            n2 /= np.linalg.norm(n2)
            theta = math.acos(np.clip(n1 @ n2, -1.0, 1.0))
            general = lambda_s_two(spin_observable(tuple(n1)), spin_observable(tuple(n2)))
            assert lambda_s_theta(theta) == pytest.approx(general, abs=1e-10)


class TestThetaStar:
    def test_near_67_degrees(self):
        assert math.degrees(theta_star()) == pytest.approx(67.0, abs=0.5)

    def test_residual(self):
        assert abs(_theta_star_lhs(theta_star()) - 2.0) <= 1e-12

    def test_bracket_validity(self):
        assert _theta_star_lhs(math.pi / 2) < 2.0
        assert _theta_star_lhs(math.pi / 4) > 2.0


class TestSanchezRuiz:
    def test_low_regime_value(self):
        value, regime = sanchez_ruiz_theta(math.radians(30))
        assert regime == "low"
        assert value == pytest.approx(0.173, abs=5e-4)

    def test_middle_regime_value(self):
        value, regime = sanchez_ruiz_theta(math.pi / 2)
        assert regime == "middle-search"
        assert value == pytest.approx(math.log(2), abs=1e-4)

    def test_high_regime_value(self):
        value, regime = sanchez_ruiz_theta(math.radians(120))
        assert regime == "high"
        # direct scalar evaluation of the high-regime closed form
        expected = (binary_entropy(math.cos(math.radians(75)) ** 2)
                    + binary_entropy(math.cos(math.radians(15)) ** 2))
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.4916, abs=1e-4)

    def test_continuity_at_regime_boundaries(self):
        eps = 1e-6
        boundary = theta_star()
        low, _ = sanchez_ruiz_theta(boundary - eps)
        mid, _ = sanchez_ruiz_theta(boundary + eps)
        assert abs(low - mid) <= 1e-4
        mid2, _ = sanchez_ruiz_theta(math.pi - boundary - eps)
        high, _ = sanchez_ruiz_theta(math.pi - boundary + eps)
        assert abs(high - mid2) <= 1e-4

    def test_low_regime_attained_by_bisector_eigenstate(self):
        theta = math.radians(50)
        n1 = np.array([0.0, 0.0, 1.0])
        n2 = np.array([math.sin(theta), 0.0, math.cos(theta)])
        bisector = (n1 + n2) / np.linalg.norm(n1 + n2)
        state = pure_density(spin_observable(tuple(bisector)).eigenvectors[1][:, 0])
        a, b = spin_observable(tuple(n1)), spin_observable(tuple(n2))
        achieved = entropy_distinct(state, a) + entropy_distinct(state, b)
        assert achieved == pytest.approx(sanchez_ruiz_theta(theta)[0], abs=1e-10)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            sanchez_ruiz_theta(-0.1)


class TestTable:
    def test_rows_and_reference_values(self):
        rows = table1()
        assert len(rows) == 10
        by_deg = {round(p.theta_deg): p for p in rows}
        assert (round(by_deg[20].lambda_s, 3), round(by_deg[20].lambda_d, 3),
                round(by_deg[20].lambda_d2, 3), round(by_deg[20].lambda_d1, 3)) == \
            (0.135, 0.089, 0.031, 0.015)
        assert (round(by_deg[70].lambda_s, 3), round(by_deg[70].lambda_d, 3),
                round(by_deg[70].lambda_d2, 3), round(by_deg[70].lambda_d1, 3)) == \
            (0.633, 0.604, 0.399, 0.190)
        zero = by_deg[0]
        assert (zero.lambda_s, zero.lambda_d, zero.lambda_d2, zero.lambda_d1) == \
            (0.0, 0.0, 0.0, 0.0)

    def test_regime_dispatch_uses_computed_boundary(self):
        rows = table1()
        for p in rows:
            expected = ("low" if p.theta <= theta_star() else "middle-search")
            assert p.regime == expected


def test_chain_inequality_on_fine_grid():
    """Bound ordering holds at every whole degree from 0 to 180."""
    for deg in range(0, 181):
        p = curve_point(math.radians(deg))
        assert p.chain_holds(), f"chain fails at {deg} degrees"


def test_strict_gap_between_sequential_and_distinct_optimum():
    for deg in range(10, 90, 10):
        gap = lambda_s_theta(math.radians(deg)) - sanchez_ruiz_theta(math.radians(deg))[0]
        assert gap > 0.003


def test_middle_regime_is_recomputed_not_memoized(monkeypatch):
    calls = []

    def counted(phi, theta):
        calls.append(theta)
        return _plane_entropy_sum(phi, theta)

    monkeypatch.setattr(qubit, "_plane_entropy_sum", counted)
    first, _ = sanchez_ruiz_theta(math.radians(75))
    after_first = len(calls)
    second, _ = sanchez_ruiz_theta(math.radians(75))
    assert after_first > 0
    assert len(calls) > after_first
    assert repr(first) == repr(second)


def _tilted_pair(theta):
    return (spin_observable((0.0, 0.0, 1.0)),
            spin_observable((math.sin(theta), 0.0, math.cos(theta))))


#: Bounds |d/dx h(cos^2(x/2))| = |sin x ln tan(x/2)|, so 2 G bounds the slope
#: of the two-term entropy sum in phi.
SLOPE_BOUND = 0.6628


class TestMiddleSearch:
    def test_matches_multistart(self):
        for deg in range(70, 111, 5):
            theta = math.radians(deg)
            value, regime = sanchez_ruiz_theta(theta)
            assert regime == "middle-search"
            numeric = lambda_d_numeric(*_tilted_pair(theta),
                                       OptimizerConfig(starts=32, seed=0)).value
            assert abs(value - numeric) <= 1e-9, deg
            assert value <= numeric + 1e-12, deg

    def test_slope_bound(self):
        # dense near both ends, where ln tan(x/2) diverges and sin x vanishes
        x = np.concatenate([np.geomspace(1e-300, 1e-2, 20_000),
                            np.linspace(1e-2, math.pi - 1e-2, 200_001),
                            math.pi - np.geomspace(1e-16, 1e-2, 20_000)])
        slope = np.abs(np.sin(x) * np.log(np.tan(x / 2)))
        assert np.all(np.isfinite(slope))
        assert slope.max() <= SLOPE_BOUND
        assert slope.max() >= 0.6627

    def test_grid_certificate_below_every_start(self):
        # any phi lies within half a grid step of a grid point, so the grid
        # minimum minus that much slope is a lower bound on every state
        for theta in np.linspace(theta_star(), math.pi - theta_star(), 43)[1:-1]:
            floor = (_plane_entropy_sum(_PHI_GRID, theta).min()
                     - 2.0 * SLOPE_BOUND * _PHI_GRID[1] / 2.0)
            result = lambda_d_numeric(*_tilted_pair(theta),
                                      OptimizerConfig(starts=16, seed=1))
            assert floor <= min(result.per_start_values), math.degrees(theta)
            assert floor <= sanchez_ruiz_theta(theta)[0]

    def test_agrees_with_closed_forms_at_boundaries(self):
        boundary = theta_star()
        low, regime = sanchez_ruiz_theta(boundary)
        assert regime == "low"
        assert abs(_middle_search(boundary) - low) <= 1e-12
        high, regime = sanchez_ruiz_theta(math.pi - boundary)
        assert regime == "high"
        assert abs(_middle_search(math.pi - boundary) - high) <= 1e-12
