"""Closed-form qubit bound curves for spin components an angle theta apart.

For A and B the spin components along unit vectors with n1 . n2 = cos(theta),
all bounds depend only on theta, and their eigenvector overlaps are
cos^2(theta/2) and sin^2(theta/2). The optimal distinct-ensemble bound has
three regimes: closed forms below theta_star and above pi - theta_star, and a
numeric middle band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

from .entropy import _entropy
from .linalg import Observable, spectral_resolution
from .optimize import OptimizerConfig, lambda_d_numeric

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_MIDDLE_STARTS = 32

#: Slack allowed in each inequality of ``ThetaCurvePoint.chain_holds``.
CHAIN_SLACK = 1e-6


def spin_observable(n) -> Observable:
    """Spin component along a unit 3-vector, as sigma . n with eigenvalues -1, +1."""
    n = np.asarray(n, dtype=float).ravel()
    if n.shape != (3,):
        raise ValueError("direction must be a 3-vector")
    if abs(np.linalg.norm(n) - 1.0) > 1e-9:
        raise ValueError(f"direction must be a unit vector, |n| = {np.linalg.norm(n)!r}")
    return spectral_resolution(n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z)


def lambda_s_theta(theta: float, base: float = math.e) -> float:
    """Optimal sequential bound: binary entropy of cos^2(theta/2). Symmetric about pi/2."""
    p = math.cos(theta / 2.0) ** 2
    return _entropy(np.array([p, 1.0 - p]), math.log(base))


def deutsch_theta(theta: float, base: float = math.e) -> float:
    """Deutsch bound 2 log(2 / (1 + max{|cos theta/2|, |sin theta/2|}))."""
    top = max(abs(math.cos(theta / 2.0)), abs(math.sin(theta / 2.0)))
    return 2.0 * math.log(2.0 / (1.0 + top)) / math.log(base)


def mu_theta(theta: float, base: float = math.e) -> float:
    """Maassen-Uffink bound log(1 / max{cos^2 theta/2, sin^2 theta/2})."""
    top = max(math.cos(theta / 2.0) ** 2, math.sin(theta / 2.0) ** 2)
    return -math.log(top) / math.log(base) + 0.0


def _theta_star_lhs(theta: float) -> float:
    # 1 - cos(t/2) written as 2 sin^2(t/4) to stay accurate near t = 0.
    c = math.cos(theta / 2.0)
    return c * math.log((1.0 + c) / (2.0 * math.sin(theta / 4.0) ** 2))


@lru_cache(maxsize=1)
def theta_star() -> float:
    """Boundary angle of the low closed-form regime, in radians (about 67 degrees).

    Root of cos(t/2) log[(1 + cos t/2)/(1 - cos t/2)] = 2; the left side falls
    monotonically from +inf at 0 to 0 at pi, so the bracket is guaranteed.
    """
    return float(
        brentq(lambda t: _theta_star_lhs(t) - 2.0, 1e-9, math.pi - 1e-9,
               xtol=1e-15, rtol=8.9e-16)
    )


@lru_cache(maxsize=None)
def _middle_value(theta: float, config: OptimizerConfig, base: float) -> float:
    a = spin_observable((0.0, 0.0, 1.0))
    b = spin_observable((math.sin(theta), 0.0, math.cos(theta)))
    return lambda_d_numeric(a, b, config, base).value


def sanchez_ruiz_theta(
    theta: float, config: OptimizerConfig | None = None, base: float = math.e
):
    """Optimal distinct-ensemble bound for spin components theta apart.

    Returns ``(value, regime)`` with regime one of ``low`` (closed form,
    attained in eigenstates of sigma.(n1+n2)), ``high`` (closed form, attained
    in eigenstates of sigma.(n1-n2)) or ``middle-numeric`` (multi-start
    minimization, 32 starts by default, memoized per grid point).
    """
    if not 0.0 <= theta <= math.pi + 1e-12:
        raise ValueError("theta must lie in [0, pi]")
    boundary = theta_star()
    if theta <= boundary:
        return 2.0 * lambda_s_theta(theta / 2.0, base), "low"
    if theta >= math.pi - boundary:
        lo = lambda_s_theta(math.pi / 2.0 + theta / 2.0, base)
        hi = lambda_s_theta(math.pi / 2.0 - theta / 2.0, base)
        return lo + hi, "high"
    config = config or OptimizerConfig(starts=_MIDDLE_STARTS, seed=0)
    return _middle_value(theta, config, base), "middle-numeric"


@dataclass(frozen=True)
class ThetaCurvePoint:
    """One angle on the qubit bound curves (theta in radians)."""

    theta: float
    lambda_s: float
    lambda_d: float
    lambda_d2: float
    lambda_d1: float
    regime: str

    @property
    def theta_deg(self) -> float:
        return math.degrees(self.theta)

    def chain_holds(self) -> bool:
        return (
            self.lambda_s >= self.lambda_d - CHAIN_SLACK
            and self.lambda_d >= self.lambda_d2 - CHAIN_SLACK
            and self.lambda_d2 >= 2.0 * self.lambda_d1 - CHAIN_SLACK
        )


def curve_point(
    theta: float, config: OptimizerConfig | None = None, base: float = math.e
) -> ThetaCurvePoint:
    """Evaluate all four bounds at one angle."""
    value, regime = sanchez_ruiz_theta(theta, config, base)
    return ThetaCurvePoint(
        theta=theta,
        lambda_s=lambda_s_theta(theta, base),
        lambda_d=value,
        lambda_d2=mu_theta(theta, base),
        lambda_d1=deutsch_theta(theta, base),
        regime=regime,
    )


def table1(config: OptimizerConfig | None = None, base: float = math.e) -> list:
    """Bound curves at 0, 10, ..., 90 degrees."""
    return [curve_point(math.radians(d), config, base) for d in range(0, 100, 10)]
