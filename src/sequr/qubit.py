"""Closed-form qubit bound curves for spin components an angle theta apart.

For A and B the spin components along unit vectors with n1 . n2 = cos(theta),
all bounds depend only on theta, and their eigenvector overlaps are
cos^2(theta/2) and sin^2(theta/2). The optimal distinct-ensemble bound has
three regimes: closed forms below theta_star and above pi - theta_star, and a
middle band found by a search over one angle. Moving the Bloch vector out of
the n1-n2 plane only raises the entropy sum, so the optimum is the minimum
over phi of h(cos^2(phi/2)) + h(cos^2((theta - phi)/2)), with h the binary
entropy and phi the angle of the Bloch vector from n1 (Sanchez-Ruiz, Phys.
Lett. A 244, 189 (1998); Ghirardi, Marinatto & Romano, Phys. Lett. A 317, 32
(2003)). Every curve is in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .entropy import _entropy
from .linalg import Observable, spectral_resolution

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

#: Grid over one full period of the in-plane entropy sum, phi in [0, pi].
_PHI_GRID = np.linspace(0.0, math.pi, 257)

#: Slack allowed in each inequality of ``ThetaCurvePoint.chain_margins``.
CHAIN_SLACK = 1e-6


def spin_observable(n) -> Observable:
    """Spin component along a unit 3-vector, as sigma . n with eigenvalues -1, +1."""
    n = np.asarray(n, dtype=float).ravel()
    if n.shape != (3,):
        raise ValueError("direction must be a 3-vector")
    if abs(np.linalg.norm(n) - 1.0) > 1e-9:
        raise ValueError(f"direction must be a unit vector, |n| = {float(np.linalg.norm(n))}")
    return spectral_resolution(n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z)


def lambda_s_theta(theta: float) -> float:
    """Optimal sequential bound: binary entropy of cos^2(theta/2). Symmetric about pi/2."""
    p = math.cos(theta / 2.0) ** 2
    return float(_entropy(np.array([p, 1.0 - p])))


def deutsch_theta(theta: float) -> float:
    """Deutsch bound 2 log(2 / (1 + max{|cos theta/2|, |sin theta/2|}))."""
    top = max(abs(math.cos(theta / 2.0)), abs(math.sin(theta / 2.0)))
    return 2.0 * math.log(2.0 / (1.0 + top))


def mu_theta(theta: float) -> float:
    """Maassen-Uffink bound log(1 / max{cos^2 theta/2, sin^2 theta/2})."""
    top = max(math.cos(theta / 2.0) ** 2, math.sin(theta / 2.0) ** 2)
    return -math.log(top) + 0.0


def _theta_star_lhs(theta: float) -> float:
    # 1 - cos(t/2) written as 2 sin^2(t/4) to stay accurate near t = 0.
    c = math.cos(theta / 2.0)
    return c * math.log((1.0 + c) / (2.0 * math.sin(theta / 4.0) ** 2))


@lru_cache(maxsize=1)
def theta_star() -> float:
    """Boundary angle of the low closed-form regime, in radians (about 67 degrees).

    Root of cos(t/2) log[(1 + cos t/2)/(1 - cos t/2)] = 2; the left side falls
    monotonically from +inf at 0 to 0 at pi, so bisection of that bracket
    runs until the midpoint rounds to an end of it.
    """
    lo, hi = 1e-9, math.pi - 1e-9
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _theta_star_lhs(mid) > 2.0:
            lo = mid
        else:
            hi = mid
    return lo


def _plane_entropy_sum(phi, theta: float):
    """Entropy sum in nats of the two spin components for the in-plane Bloch angle ``phi``.

    The outcome weights are cos^2 and sin^2 of phi/2 and of (theta - phi)/2,
    each computed directly so that neither loses digits to ``1 - p``.
    Vectorized over ``phi``; period pi in ``phi``.
    """
    half = 0.5 * np.stack([phi, theta - phi])
    return _entropy(np.stack([np.cos(half) ** 2, np.sin(half) ** 2], axis=-1)).sum(axis=0)


def _middle_search(theta: float) -> float:
    """Minimum of ``_plane_entropy_sum`` over phi: a grid scan, repeated on finer grids.

    The 257-point scan over one period is repeated on the two cells around
    each scan's minimum until those cells span under 1e-12. The smallest value
    seen is returned, so the result is always the entropy sum of an actual state.
    """
    grid = _PHI_GRID
    lowest = math.inf
    while True:
        values = _plane_entropy_sum(grid, theta)
        best = int(np.argmin(values))
        lowest = min(lowest, float(values[best]))
        step = grid[1] - grid[0]
        if 2.0 * step < 1e-12:
            return lowest
        grid = np.linspace(grid[best] - step, grid[best] + step, len(_PHI_GRID))


def sanchez_ruiz_theta(theta: float):
    """Optimal distinct-ensemble bound for spin components theta apart.

    Returns ``(value, regime)`` with regime one of ``low`` (closed form,
    attained in eigenstates of sigma.(n1+n2)), ``high`` (closed form, attained
    in eigenstates of sigma.(n1-n2)) or ``middle-search`` (minimum over the
    in-plane Bloch angle: a 257-point grid over one period, repeated on finer
    grids around its minimum; computed afresh on every call).
    """
    if not 0.0 <= theta <= math.pi + 1e-12:
        raise ValueError("theta must lie in [0, pi]")
    boundary = theta_star()
    if theta <= boundary:
        return 2.0 * lambda_s_theta(theta / 2.0), "low"
    if theta >= math.pi - boundary:
        lo = lambda_s_theta(math.pi / 2.0 + theta / 2.0)
        hi = lambda_s_theta(math.pi / 2.0 - theta / 2.0)
        return lo + hi, "high"
    return _middle_search(theta), "middle-search"


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

    def chain_margins(self) -> tuple:
        """Slack left in lambda_s >= lambda_d >= lambda_d2 >= 2 lambda_d1; negative fails."""
        return (
            CHAIN_SLACK + (self.lambda_s - self.lambda_d),
            CHAIN_SLACK + (self.lambda_d - self.lambda_d2),
            CHAIN_SLACK + (self.lambda_d2 - 2.0 * self.lambda_d1),
        )

    def chain_holds(self) -> bool:
        return all(margin >= 0.0 for margin in self.chain_margins())


def curve_point(theta: float) -> ThetaCurvePoint:
    """Evaluate all four bounds at one angle."""
    value, regime = sanchez_ruiz_theta(theta)
    return ThetaCurvePoint(
        theta=theta,
        lambda_s=lambda_s_theta(theta),
        lambda_d=value,
        lambda_d2=mu_theta(theta),
        lambda_d1=deutsch_theta(theta),
        regime=regime,
    )


def table1() -> list:
    """Bound curves at 0, 10, ..., 90 degrees."""
    return [curve_point(math.radians(d)) for d in range(0, 100, 10)]
