"""Numerical infima of entropy sums over pure quantum states.

Restricting the search to pure states is exact: the entropy objectives are
concave in the density operator, so their infimum over the convex set of all
states is attained at an extreme point. Each start screens a seeded pool of
``SCREEN_SIZE`` random states (each drawn as 2d-1 reals: first amplitude real,
global phase fixed) in one call of the objective, which picks the basin. All
starts then descend together on the unit sphere: Riemannian gradient descent
with Barzilai-Borwein step sizes and Armijo backtracking (Absil, Mahony &
Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008; Barzilai &
Borwein, IMA J. Numer. Anal. 8, 141 (1988)), one objective call and one
gradient call per step for every start still running. Objectives are
row-wise: they map states of shape (..., dim) to values of shape (...).
Results are deterministic for a fixed config. Entropy objectives are in nats.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .entropy import _quadratic_entropy, _quadratic_entropy_gradient
from .errors import OptimizerFailure
from .linalg import Observable
from .states import _sequential_stacks

#: Random states each start screens in one objective call; the descent starts
#: from the best. The screen only has to reach the basin: the descent then
#: converges in it.
SCREEN_SIZE = 32
#: A start stops when the norm of its tangent gradient falls below ``_GTOL`` or
#: a trial changes its value by at most ``_FTOL`` times the value, accepted or
#: not: next to a vanishing outcome probability the value stops resolving
#: steps before the gradient vanishes. The change is relative to the value
#: alone, so a start at an exact zero of the objective stops only there.
_GTOL = 1e-6
_FTOL = 1e-12
#: Sufficient-decrease constant of the Armijo rule.
_ARMIJO = 1e-4
#: Step length of every start's first step, as an arc length on the sphere.
_FIRST_ARC = 0.1
#: Steps each start may try, backtracking included.
_MAX_ITERATIONS = 2000


@dataclass(frozen=True)
class OptimizerConfig:
    starts: int = 64
    value_tolerance: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError("starts must be >= 1")
        if self.value_tolerance <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class OptimizerResult:
    value: float
    minimizer: np.ndarray  # unit vector achieving ``value``
    starts_converged: int
    per_start_values: tuple
    evaluations: int  # states evaluated: the screens plus every trial point


def _params_to_vector(params: np.ndarray) -> np.ndarray:
    """Vectors of shape (..., dim) for parameter rows of shape (..., 2 dim - 1)."""
    v = np.empty(params.shape[:-1] + ((params.shape[-1] + 1) // 2,), dtype=complex)
    v[..., 0] = params[..., 0]
    v[..., 1:] = params[..., 1::2] + 1j * params[..., 2::2]
    return v


def _row_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Re <u|v> of each row pair: the real inner product of C^dim as R^(2 dim)."""
    return (u.conj() * v).sum(axis=-1).real


def _tangent_gradient(gradient, states: np.ndarray) -> np.ndarray:
    """Gradient on the unit sphere, 2 (g - psi Re <psi|g>), at rows ``states``.

    ``g = gradient(states)`` is dF/dpsi-bar, so 2 g is the gradient of F in the
    real coordinates of C^dim; removing its radial part leaves the tangent one.
    """
    g = gradient(states)
    return 2.0 * (g - states * _row_dot(states, g)[:, None])


def minimize_over_pure_states(objective, dim: int, config: OptimizerConfig,
                              gradient) -> OptimizerResult:
    """Multi-start minimization of ``objective`` over unit vectors in C^dim.

    ``objective`` is row-wise: it maps unit vectors of shape (..., dim) to
    values of shape (...). ``gradient`` maps unit vectors of shape (n, dim) to
    dF/dpsi-bar (the Wirtinger gradient) of shape (n, dim). Start k draws a
    pool of ``SCREEN_SIZE`` parameter rows from a generator seeded with
    ``config.seed + k``, evaluates all of them in one objective call and
    descends from the lowest, so the result depends only on the config. Each
    start steps along minus its ``_tangent_gradient`` by its own
    Barzilai-Borwein length and renormalizes; a trial that fails the Armijo
    rule halves that start's step. The reported value is the minimum over
    starts; the reported minimizer is the lowest-indexed start within
    ``value_tolerance`` of it. A start counts as converged when it stops by
    ``_GTOL`` or ``_FTOL`` within ``_MAX_ITERATIONS`` trials. Raises
    ``OptimizerFailure`` if the objective goes non-finite or no start converges.
    """

    def checked(states):
        values = np.asarray(objective(states), dtype=float)
        if not np.isfinite(values).all():
            raise OptimizerFailure("objective returned a non-finite value")
        return values

    x = np.empty((config.starts, dim), dtype=complex)
    f = np.empty(config.starts)
    for k in range(config.starts):
        pool = np.random.default_rng(config.seed + k).standard_normal((SCREEN_SIZE, 2 * dim - 1))
        screen = _params_to_vector(pool)
        screen /= np.linalg.norm(screen, axis=1, keepdims=True)
        values = checked(screen)
        best = np.argmin(values)
        x[k], f[k] = screen[best], values[best]
    evaluations = SCREEN_SIZE * config.starts

    g = _tangent_gradient(gradient, x)
    slope = _row_dot(g, g)  # squared tangent-gradient norm
    step = _FIRST_ARC / np.maximum(np.sqrt(slope), _GTOL)
    converged = slope < _GTOL**2
    live = np.flatnonzero(~converged)
    for _ in range(_MAX_ITERATIONS):
        if not live.size:
            break
        trial = x[live] - step[live, None] * g[live]
        trial /= np.linalg.norm(trial, axis=1, keepdims=True)
        f_trial = checked(trial)
        evaluations += live.size
        stalled = np.abs(f[live] - f_trial) <= _FTOL * np.abs(f[live])
        accept = f_trial <= f[live] - _ARMIJO * step[live] * slope[live]
        step[live[~accept]] *= 0.5

        moved = live[accept]
        g_new = _tangent_gradient(gradient, trial[accept]) if moved.size else g[moved]
        # Barzilai-Borwein length <s, s> / <s, y> from the step s = -step g
        # and the gradient change y; a step along negative curvature doubles
        y = g_new - g[moved]
        sy = -step[moved] * _row_dot(g[moved], y)
        ss = step[moved] ** 2 * slope[moved]
        curved = sy > 0.0
        step[moved] *= 2.0
        step[moved[curved]] = ss[curved] / sy[curved]
        x[moved], f[moved], g[moved] = trial[accept], f_trial[accept], g_new
        slope[moved] = _row_dot(g_new, g_new)

        done = stalled.copy()
        done[accept] |= slope[moved] < _GTOL**2
        converged[live[done]] = True
        live = live[~done]

    if not converged.any():
        raise OptimizerFailure("no optimizer start converged")

    best = f.min()
    chosen = int(np.argmax(f <= best + config.value_tolerance))
    return OptimizerResult(
        value=float(best),
        minimizer=x[chosen],
        starts_converged=int(converged.sum()),
        per_start_values=tuple(float(v) for v in f),
        evaluations=evaluations,
    )


def minimize_in_subspace(objective, basis, config: OptimizerConfig,
                         gradient) -> OptimizerResult:
    """Minimize over unit vectors in the span of an orthonormal ``basis``.

    Coefficients in the basis are searched exactly like a full-space state,
    then mapped back, so a full-space basis reproduces
    ``minimize_over_pure_states``. ``gradient`` is the full-space dF/dpsi-bar;
    the coefficient gradient is B^dagger g(B c), for rows c as g(c B^T) B-bar.
    """
    vectors = [np.asarray(v, dtype=complex).ravel() for v in basis]
    if not vectors:
        raise ValueError("basis must be nonempty")
    basis = np.column_stack(vectors)
    k = basis.shape[1]
    if k == 1:
        vec = basis[:, 0]
        value = float(objective(vec))
        return OptimizerResult(value=value, minimizer=vec, starts_converged=1,
                               per_start_values=(value,), evaluations=1)

    result = minimize_over_pure_states(lambda c: objective(c @ basis.T), k, config,
                                       lambda c: gradient(c @ basis.T) @ basis.conj())
    return replace(result, minimizer=basis @ result.minimizer)


def _lambda_result(stacks, dim, config) -> OptimizerResult:
    # each stack's expectations sum to 1, so the entropy of the concatenated
    # distribution equals the sum of the per-observable entropies
    merged = np.concatenate(stacks, axis=0)
    return minimize_over_pure_states(partial(_quadratic_entropy, merged), dim, config,
                                     gradient=partial(_quadratic_entropy_gradient, merged))


def lambda_d_numeric(a: Observable, b: Observable,
                     config: OptimizerConfig | None = None) -> OptimizerResult:
    """Optimal distinct-measurement bound: infimum of S(A) + S(B) over states."""
    a.require_same_dim(b)
    config = config or OptimizerConfig()
    return _lambda_result([a.projectors, b.projectors], a.dim, config)


def lambda_s_chain_numeric(chain, config: OptimizerConfig | None = None) -> OptimizerResult:
    """Optimal sequential bound for a chain of observables, found numerically."""
    return _lambda_result(_sequential_stacks(chain), chain[0].dim, config or OptimizerConfig())
