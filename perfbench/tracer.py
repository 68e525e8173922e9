"""In-memory span tracer for ``sequr``, installed from outside the package.

``install`` wraps every public function of each layer module and rebinds the
wrapper wherever the original is bound, because ``from .x import y`` leaves a
second reference in the importing module (``cli.lambda_d_numeric``,
``qubit.lambda_d_numeric``, ``bounds.minimize_in_subspace``,
``entropy.wigner_joint`` ...). ``verify.ALL_PROPERTIES`` holds references
too, so its entries are wrapped in place.

A span is ``[name, start, end, parent, task, info]``: ``parent`` is the index
of the enclosing span in the same task (-1 at the top), times come from
``time.perf_counter`` and ``info`` holds counts some layers record.
``layer_metrics`` turns the spans of many tasks into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

LAYERS = ("cli", "scenario", "linalg", "states", "entropy", "bounds", "optimize",
          "qubit", "verify")

PROPERTY_NAMES = (
    "spectral-resolution", "eigh-unitary-invariance", "wigner-marginals",
    "luders-fixed-points", "sequential-entropy-identities", "joint-subadditivity",
    "strong-subadditivity", "joint-entropy-floor", "bound-ordering",
    "projector-norm-identity", "sequential-entropy-floor", "second-stage-dominance",
    "transition-doubly-stochastic", "variance-relations", "qubit-bound-chain",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_objective(args, kwargs, info):
    """Replace the objective given to ``minimize_over_pure_states`` by a counting one."""
    objective = _arg(args, kwargs, 0, "objective")

    def counted(state):
        info["evals"] += 1
        return objective(state)

    info["evals"] = 0
    if args:
        return (counted,) + tuple(args[1:]), kwargs
    return args, dict(kwargs, objective=counted)


def _optimizer_result(args, kwargs, result, info):
    config = _arg(args, kwargs, 2, "config")
    best = min(result.per_start_values)
    info.update(
        starts=config.starts,
        converged=result.starts_converged,
        basin=sum(v <= best + config.value_tolerance for v in result.per_start_values),
    )


def _joint_shape(args, kwargs, info):
    observables = args[1:]
    cells = 1
    for obs in observables:
        cells *= obs.n_outcomes
    dim = observables[0].dim
    # per cell and observable, two dense complex d x d products (8 d^3 flop each)
    info.update(cells=cells, flop=cells * len(observables) * 16 * dim**3)
    return args, kwargs


def _regime(args, kwargs, result, info):
    info["regime"] = result[1]


def _closed_form(field):
    def record(args, kwargs, result, info):
        value = result if field is None else getattr(result, field)
        info.update(key=[id(o) for o in args if hasattr(o, "eigenvalues")], value=value)
    return record


def _property_name(args, kwargs, result, info):
    info["property"] = result.name


# Per-function hooks: (before(args, kwargs, info) -> (args, kwargs), after(..., result, info)).
_HOOKS = {
    "optimize.minimize_over_pure_states": (_count_objective, _optimizer_result),
    "states.wigner_joint": (_joint_shape, None),
    "qubit.sanchez_ruiz_theta": (None, _regime),
    "bounds.lambda_s_two": (None, _closed_form(None)),
    "optimize.lambda_s_numeric": (None, _closed_form("value")),
    "bounds.lambda_s_three": (None, _closed_form("common_state")),
    "optimize.lambda_s3_numeric": (None, _closed_form("value")),
}

# Closed form -> its numeric counterpart, for optimize.worst_gap.
_GAP_PAIRS = (("bounds.lambda_s_two", "optimize.lambda_s_numeric"),
              ("bounds.lambda_s_three", "optimize.lambda_s3_numeric"))


class Tracer:
    """Records spans of wrapped calls for one task."""

    def __init__(self, task: int = 0):
        self.task = task
        self.spans = []
        self.enabled = True
        self._stack = []

    def wrap(self, fn, name: str, before=None, after=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            info = {}
            if before is not None:
                args, kwargs = before(args, kwargs, info)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.task, info]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result, info)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of every layer at all of its binding sites."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"sequr.{layer}")
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                hooks = _HOOKS.get(name, (None, None))
                if obj in getattr(module, "ALL_PROPERTIES", ()):
                    hooks = (None, _property_name)
                wrappers[id(obj)] = self.wrap(obj, name, *hooks)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "sequr" and not mod_name.startswith("sequr."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and callable(obj):
                    setattr(module, attr, wrappers[id(obj)])
        verify = sys.modules["sequr.verify"]
        verify.ALL_PROPERTIES = tuple(wrappers[id(p)] for p in verify.ALL_PROPERTIES)


def _self_times(spans) -> list:
    """Duration of each span minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(tasks) -> dict:
    """Per-layer metrics from a list of span lists (one list per traced task).

    Counts and times are totals over all the given tasks.
    """
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    fn_calls, fn_self = {}, {}
    spectral_us, load_s, property_s = [], 0.0, dict.fromkeys(PROPERTY_NAMES, 0.0)
    cells = flop = 0
    opt = {"runs": 0, "starts": 0, "evals": 0, "converged": 0, "basin": 0}
    subspace_searches = middle = memo_hits = 0
    worst_gap = 0.0
    for spans in tasks:
        own = _self_times(spans)
        children = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s[3] >= 0:
                children[s[3]].append(i)
        closed, numeric = {}, {}
        for i, (name, start, end, parent, _task, info) in enumerate(spans):
            layer = name.partition(".")[0]
            calls[layer] += 1
            self_s[layer] += own[i]
            fn_calls[name] = fn_calls.get(name, 0) + 1
            fn_self[name] = fn_self.get(name, 0.0) + own[i]
            if name == "linalg.spectral_resolution":
                spectral_us.append((end - start) * 1e6)
            elif name == "scenario.load_scenario":
                load_s += end - start
            elif name == "states.wigner_joint":
                cells += info["cells"]
                flop += info["flop"]
            elif name == "optimize.minimize_over_pure_states":
                opt["runs"] += 1
                for key in ("starts", "evals", "converged", "basin"):
                    opt[key] += info[key]
            elif name == "optimize.minimize_in_subspace":
                if parent >= 0 and spans[parent][0].startswith("bounds."):
                    subspace_searches += 1
            elif name == "qubit.sanchez_ruiz_theta" and info["regime"] == "middle-numeric":
                middle += 1
                if not _has_descendant(spans, children, i, "optimize.lambda_d_numeric"):
                    memo_hits += 1
            elif layer == "verify" and "property" in info:
                property_s[info["property"]] += end - start
            for closed_name, numeric_name in _GAP_PAIRS:
                if name == closed_name:
                    closed[(numeric_name, tuple(info["key"]))] = info["value"]
                elif name == numeric_name:
                    numeric[(numeric_name, tuple(info["key"]))] = info["value"]
        for key, value in numeric.items():
            if key in closed:
                worst_gap = max(worst_gap, abs(value - closed[key]))

    def ratio(num, den):
        return num / den if den else 0.0

    opt_self_ms = self_s["optimize"] * 1e3
    m = {
        "cli.calls": calls["cli"],
        "cli.self_ms": self_s["cli"] * 1e3,
        "scenario.load_ms": load_s * 1e3,
        "linalg.spectral_resolution.calls": fn_calls.get("linalg.spectral_resolution", 0),
        "linalg.spectral_resolution.us": statistics.median(spectral_us) if spectral_us else 0.0,
        "linalg.self_ms": self_s["linalg"] * 1e3,
        "states.wigner_joint.calls": fn_calls.get("states.wigner_joint", 0),
        "states.wigner_joint.cells": cells,
        "states.wigner_joint.flop_computed": flop,
        "states.wigner_joint.self_ms": fn_self.get("states.wigner_joint", 0.0) * 1e3,
        "states.sample_sequence.calls": fn_calls.get("states.sample_sequence", 0),
        "states.sample_sequence.self_ms": fn_self.get("states.sample_sequence", 0.0) * 1e3,
        "states.luders_map.calls": fn_calls.get("states.luders_map", 0),
        "states.self_ms": self_s["states"] * 1e3,
        "entropy.calls": calls["entropy"],
        "entropy.self_ms": self_s["entropy"] * 1e3,
        "bounds.calls": calls["bounds"],
        "bounds.self_ms": self_s["bounds"] * 1e3,
        "bounds.subspace_searches": subspace_searches,
        "optimize.runs": opt["runs"],
        "optimize.starts": opt["starts"],
        "optimize.evals": opt["evals"],
        "optimize.evals_per_start": ratio(opt["evals"], opt["starts"]),
        "optimize.eval_us": ratio(opt_self_ms * 1e3, opt["evals"]),
        "optimize.self_ms": opt_self_ms,
        "optimize.converged_ratio": ratio(opt["converged"], opt["starts"]),
        "optimize.basin_hit_ratio": ratio(opt["basin"], opt["starts"]),
        "optimize.worst_gap": worst_gap,
        "qubit.calls": calls["qubit"],
        "qubit.middle_band.calls": middle,
        "qubit.memo_hits": memo_hits,
        "qubit.self_ms": self_s["qubit"] * 1e3,
    }
    for prop in PROPERTY_NAMES:
        m[f"verify.property_ms.{prop}"] = property_s[prop] * 1e3
    return m


def _has_descendant(spans, children, index, name) -> bool:
    pending = list(children[index])
    while pending:
        i = pending.pop()
        if spans[i][0] == name:
            return True
        pending.extend(children[i])
    return False
