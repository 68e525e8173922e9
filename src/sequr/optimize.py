"""Numerical infima of entropy sums over pure quantum states.

Restricting the search to pure states is exact: the entropy objectives are
concave in the density operator, so their infimum over the convex set of all
states is attained at an extreme point. A pure state in dimension d is
parameterized by 2d-1 reals (first amplitude real, global phase fixed,
normalization applied inside the objective). Each start screens a seeded
pool of ``SCREEN_SIZE`` random states in one call of the objective, which
picks the basin, then runs L-BFGS-B from the best of them to converge in it.
Objectives are row-wise: they map states of shape (..., dim) to values of
shape (...). Results are deterministic and independent of scheduling.
Entropy objectives are in nats.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from .entropy import _quadratic_entropy, _quadratic_entropy_gradient
from .errors import OptimizerFailure
from .linalg import Observable
from .states import _sequential_stacks

_NORM_FLOOR = 1e-12
_PENALTY = 1e30
#: Random states each start screens in one objective call; L-BFGS-B starts
#: from the best. The screen only has to reach the basin: L-BFGS-B then
#: converges in it.
SCREEN_SIZE = 32
#: L-BFGS-B stopping tolerances: projected-gradient norm and relative value change.
#: Near an optimum with vanishing outcome probabilities the value stops
#: resolving changes at gradient norms of about 1e-7, where a smaller
#: ``_GTOL`` ends the line search abnormally instead of converging.
_GTOL = 1e-6
_FTOL = 1e-12
#: L-BFGS-B iteration cap of each start.
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
    evaluations: int  # states evaluated: the screens plus every L-BFGS-B point


def _params_to_vector(params: np.ndarray) -> np.ndarray:
    """Vectors of shape (..., dim) for parameter rows of shape (..., 2 dim - 1)."""
    v = np.empty(params.shape[:-1] + ((params.shape[-1] + 1) // 2,), dtype=complex)
    v[..., 0] = params[..., 0]
    v[..., 1:] = params[..., 1::2] + 1j * params[..., 2::2]
    return v


def _params_to_state(params: np.ndarray) -> np.ndarray | None:
    v = _params_to_vector(params)
    norm = np.linalg.norm(v)
    if norm < _NORM_FLOOR:
        return None
    return v / norm


def _param_gradient(params: np.ndarray, gradient) -> np.ndarray:
    """Gradient of F(v / |v|) in the 2d-1 reals, given ``gradient(psi) = dF/dpsi-bar``.

    With psi = v / |v|, dF = (2 / |v|) Re <g - psi <psi|g>, dv>: the radial
    and phase directions are projected out, then the real and imaginary parts
    of the remaining vector are the derivatives along the real parameters.
    """
    out = np.zeros(len(params))
    v = _params_to_vector(params)
    norm = np.linalg.norm(v)
    if norm < _NORM_FLOOR:
        return out
    state = v / norm
    g = gradient(state)
    g = (2.0 / norm) * (g - state * np.vdot(state, g))
    out[0] = g[0].real
    out[1::2] = g[1:].real
    out[2::2] = g[1:].imag
    return out


def minimize_over_pure_states(
    objective, dim: int, config: OptimizerConfig, gradient=None,
) -> OptimizerResult:
    """Multi-start minimization of ``objective`` over unit vectors in C^dim.

    ``objective`` is row-wise: it maps unit vectors of shape (..., dim) to
    values of shape (...). ``gradient(state)``, if given, returns dF/dpsi-bar
    (the Wirtinger gradient) at one unit vector; without it L-BFGS-B uses
    finite differences. Start k draws a pool of ``SCREEN_SIZE`` parameter rows
    from a generator seeded with ``config.seed + k``, evaluates all of them in
    one objective call, and runs L-BFGS-B from the lowest, so the result
    depends only on the config. The reported value is the minimum over
    starts; the reported minimizer is the lowest-indexed start within
    ``value_tolerance`` of it. A start counts as converged when L-BFGS-B
    does. Raises ``OptimizerFailure`` if the objective goes non-finite or no
    start converges.
    """
    n_params = 2 * dim - 1

    def checked(states):
        values = np.asarray(objective(states), dtype=float)
        if not np.isfinite(values).all():
            raise OptimizerFailure("objective returned a non-finite value")
        return values

    def wrapped(params):
        state = _params_to_state(params)
        return _PENALTY if state is None else checked(state)

    jac = None if gradient is None else partial(_param_gradient, gradient=gradient)
    values = []
    states = []
    converged = 0
    evaluations = 0
    for k in range(config.starts):
        pool = np.random.default_rng(config.seed + k).standard_normal((SCREEN_SIZE, n_params))
        screen = _params_to_vector(pool)
        screen /= np.linalg.norm(screen, axis=1, keepdims=True)
        x0 = pool[np.argmin(checked(screen))]
        res = _scipy_minimize(
            wrapped, x0, method="L-BFGS-B", jac=jac,
            options={"gtol": _GTOL, "ftol": _FTOL, "maxiter": _MAX_ITERATIONS},
        )
        if res.success:
            converged += 1
        evaluations += SCREEN_SIZE + res.nfev
        values.append(float(res.fun))
        states.append(_params_to_state(res.x))

    if converged == 0:
        raise OptimizerFailure("no optimizer start converged")

    best = min(values)
    chosen = next(
        (i for i, (v, s) in enumerate(zip(values, states))
         if s is not None and v <= best + config.value_tolerance),
        None,
    )
    if chosen is None:
        raise OptimizerFailure("no start produced a valid state")
    return OptimizerResult(
        value=best,
        minimizer=states[chosen],
        starts_converged=converged,
        per_start_values=tuple(values),
        evaluations=evaluations,
    )


def minimize_in_subspace(
    objective, basis, config: OptimizerConfig, gradient=None,
) -> OptimizerResult:
    """Minimize over unit vectors in the span of an orthonormal ``basis``.

    Coefficients in the basis are parameterized exactly like a full-space
    state, then mapped back, so a full-space basis reproduces
    ``minimize_over_pure_states``. ``gradient`` is the full-space dF/dpsi-bar;
    the coefficient gradient is B^dagger g(B c).
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

    coefficient_gradient = None
    if gradient is not None:
        adjoint = basis.conj().T

        def coefficient_gradient(c):
            return adjoint @ gradient(basis @ c)

    result = minimize_over_pure_states(lambda c: objective(c @ basis.T), k, config,
                                       gradient=coefficient_gradient)
    return replace(result, minimizer=basis @ result.minimizer)


def _lambda_result(stacks, dim, config) -> OptimizerResult:
    # each stack's expectations sum to 1, so the entropy of the concatenated
    # distribution equals the sum of the per-observable entropies
    merged = np.concatenate(stacks, axis=0)

    def objective(state):
        return _quadratic_entropy(merged, state)

    def gradient(state):
        return _quadratic_entropy_gradient(merged, state)

    return minimize_over_pure_states(objective, dim, config, gradient=gradient)


def lambda_d_numeric(a: Observable, b: Observable,
                     config: OptimizerConfig | None = None) -> OptimizerResult:
    """Optimal distinct-measurement bound: infimum of S(A) + S(B) over states."""
    a.require_same_dim(b)
    config = config or OptimizerConfig()
    return _lambda_result([a.projectors, b.projectors], a.dim, config)


def lambda_s_numeric(a: Observable, b: Observable,
                     config: OptimizerConfig | None = None) -> OptimizerResult:
    """``lambda_s_chain_numeric([a, b], config)``; kept because the benchmark binds it."""
    return lambda_s_chain_numeric([a, b], config)


def lambda_s_chain_numeric(chain, config: OptimizerConfig | None = None) -> OptimizerResult:
    """Optimal sequential bound for a chain of observables, found numerically."""
    return _lambda_result(_sequential_stacks(chain), chain[0].dim, config or OptimizerConfig())
