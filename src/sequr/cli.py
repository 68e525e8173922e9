"""Command line front end.

Subcommands: ``bounds`` (all bounds for a scenario file), ``table1`` (the
reference grid of qubit bound values at 10 degree steps), ``sweep`` (bound
curves on an angle grid), ``verify`` (randomized property suite) and
``simulate`` (seeded Monte Carlo cross-check of the sequential
probabilities). Values are computed and checked in nats, then divided by the
natural log of ``--log-base`` for output. Exit codes: 0 success, 1 verification
mismatch, 2 bad input, 3 dimension mismatch, 4 optimizer failure.
"""

from __future__ import annotations

import argparse
import collections
import io
import itertools
import json
import math
import sys
import time
from dataclasses import replace

import numpy as np

from .bounds import (deutsch_bound, krishna_parthasarathy_bound, lambda_s_chain,
                     maassen_uffink_bound, partovi_bound)
from .entropy import _entropy, shannon_entropy
from .errors import DimensionMismatch, OptimizerFailure, ScenarioError
from .optimize import OptimizerConfig, lambda_d_numeric, lambda_s_chain_numeric
from .qubit import curve_point, table1
from .scenario import load_scenario
from .states import outcome_probabilities, sample_sequence, wigner_joint

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_BAD_INPUT = 2
EXIT_DIMENSION = 3
EXIT_OPTIMIZER = 4

#: Exit code of each error type ``main`` reports, most specific first:
#: ``DimensionMismatch`` and ``ScenarioError`` are both ``ValueError``.
_EXIT_CODES = (
    (DimensionMismatch, EXIT_DIMENSION),
    (OptimizerFailure, EXIT_OPTIMIZER),
    (ValueError, EXIT_BAD_INPUT),
)

#: Published 3-decimal reference values for the 10-degree qubit bound grid:
#: (theta_deg, lambda_s, lambda_d, lambda_d2, lambda_d1), natural log.
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

#: Most angles one ``sweep`` evaluates.
MAX_SWEEP_STEPS = 10**5

#: Most optimizer starts one ``bounds`` search takes.
MAX_STARTS = 10**4

#: Most instances one ``verify`` draws per property.
MAX_VERIFY_INSTANCES = 10**5

#: Ordinal of each position in a chain; its length caps ``bounds --order``.
_ORDINALS = ("first", "second", "third", "fourth", "fifth", "sixth")


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _json_num(x: float) -> float:
    return float(f"{x:.6g}")


def _parse_log_base(text: str) -> float:
    if text == "e":
        return math.e
    try:
        base = float(text)
    except ValueError:
        raise ScenarioError(f"invalid log base {text!r}") from None
    if not 1.0 < base < math.inf:
        raise ScenarioError("log base must be a finite number > 1")
    return base


def _array_json(array: np.ndarray, indent: str) -> str:
    """``json.dumps(array.tolist(), indent=2)`` of a float64 array with cells, at ``indent``.

    Cells are deduplicated on their bit pattern, so ``-0.0`` and NaN keep
    their own texts, and the distinct values are formatted by one
    ``json.dumps``. The texts are joined axis by axis, the last axis first,
    each row of an axis becoming one item of the axis above.
    """
    distinct, where = np.unique(array.reshape(-1).view(np.int64), return_inverse=True)
    texts = np.array(json.dumps(distinct.view(np.float64).tolist())[1:-1].split(", "),
                     dtype=object)
    items = texts[where].tolist()
    for axis in range(array.ndim - 1, -1, -1):
        inner, length = indent + "  " * (axis + 1), array.shape[axis]
        separator, close = ",\n" + inner, f"\n{inner[:-2]}]"
        items = [f"[\n{inner}{separator.join(items[start:start + length])}{close}"
                 for start in range(0, len(items), length)]
    return items[0]


def _json_text(value) -> str:
    """``json.dumps(value, indent=2)``, byte for byte, with each ndarray as its ``tolist()``.

    One ``json.JSONEncoder.iterencode`` pass writes the document into a
    ``StringIO``, in pure Python as ``json.dumps`` does when it indents. The
    ``default`` hook returns ``tolist()`` of an ndarray that is not float64,
    has no cells or is 0-d, and raises json's ``TypeError`` for anything else.
    A float array with cells is encoded as ``None``, and that ``null`` chunk is
    replaced by ``_array_json`` at the indent after the raw newline in the
    last of the three chunks before it that holds one (a list item's line
    opens one chunk back, a dict value's three), as no encoded string holds one.
    """
    arrays = []

    def default(obj):
        if not isinstance(obj, np.ndarray):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        if obj.dtype != np.float64 or obj.size == 0 or obj.ndim == 0:
            return obj.tolist()
        arrays.append(obj)
        return None

    text, recent = io.StringIO(), collections.deque(maxlen=3)
    for chunk in json.JSONEncoder(indent=2, default=default).iterencode(value):
        if arrays:
            line = next((item for item in reversed(recent) if "\n" in item), "")
            chunk = _array_json(arrays.pop(), line[line.rfind("\n") + 1:])
        recent.append(chunk)
        text.write(chunk)
    return text.getvalue()


def _emit(args, payload: dict, csv_rows, table_lines, **header) -> None:
    """Write one command's result to stdout in the format ``args.format`` names.

    ``payload`` is the JSON document, written in one encoder pass as
    ``json.dumps(payload, indent=2)`` writes it, each ndarray in it as its
    ``tolist()`` (see ``_json_text``). ``csv_rows`` (column names first, then
    one tuple of cell strings per row) and ``table_lines`` are only iterated
    in their own format, so they may be generators. Table output opens with a
    ``# <command>  key=value ...`` line built from ``header``, unless
    ``--quiet`` is given. The lines go out through one ``writelines`` call,
    so a long table streams instead of being joined.
    """
    if args.format == "json":
        lines = [_json_text(payload)]
    elif args.format == "csv":
        lines = map(",".join, csv_rows)
    else:
        lines = table_lines
        if not args.quiet:
            lines = itertools.chain(
                [f"# {payload['command']}  "
                 + "  ".join(f"{key}={value}" for key, value in header.items())],
                lines)
    sys.stdout.writelines(f"{line}\n" for line in lines)


#: ``--seed`` help of the commands whose output no seed can change.
_NO_EFFECT_SEED = "accepted and echoed in the output; has no effect on this command"


def _common_flags(parser: argparse.ArgumentParser, seed_default: int,
                  seed_help: str | None = None, log_base: bool = True) -> None:
    if log_base:
        parser.add_argument("--log-base", default="e",
                            help="entropy log base: 'e' (default) or a number > 1")
    parser.add_argument("--format", choices=("table", "csv", "json"), default="table")
    parser.add_argument("--seed", type=int, default=seed_default, help=seed_help)
    parser.add_argument("--quiet", action="store_true",
                        help="suppress echo/header lines in table output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sequr",
        description="Entropic uncertainty bounds for distinct and sequential measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="compute all bounds for observables in a scenario file")
    p.add_argument("file")
    p.add_argument("--order", nargs="+", required=True, metavar="NAME",
                   help=f"2 to {len(_ORDINALS)} observable names, in measurement order")
    p.add_argument("--starts", type=int, default=64)
    _common_flags(p, seed_default=0)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("table1", help="reference grid of qubit bounds, 0..90 degrees")
    p.add_argument("--tolerance", type=float, default=5e-4,
                   help="match tolerance against the 3-decimal reference values "
                        "(middle-band entries get an extra 1e-3)")
    _common_flags(p, seed_default=0, seed_help=_NO_EFFECT_SEED, log_base=False)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("sweep", help="bound curves on an angle grid")
    p.add_argument("--theta-min", type=float, default=0.0)
    p.add_argument("--theta-max", type=float, default=180.0)
    p.add_argument("--steps", type=int, default=181)
    _common_flags(p, seed_default=0, seed_help=_NO_EFFECT_SEED)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the randomized property suite")
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--dims", default="2-5", help="dimension range, e.g. 2-5 or 3")
    _common_flags(p, seed_default=42, log_base=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="Monte Carlo check of sequential probabilities")
    p.add_argument("file")
    p.add_argument("--order", nargs="+", required=True, metavar="NAME")
    p.add_argument("--samples", type=int, default=10**6)
    _common_flags(p, seed_default=0)
    p.set_defaults(func=cmd_simulate)

    return parser


def cmd_bounds(args) -> int:
    ln_base = math.log(_parse_log_base(args.log_base))
    if not 2 <= len(args.order) <= len(_ORDINALS):
        raise ScenarioError(f"--order needs 2 to {len(_ORDINALS)} observable names")
    if args.starts < 1:
        raise ScenarioError("--starts must be >= 1")
    if args.starts > MAX_STARTS:
        raise ScenarioError(f"--starts {args.starts} exceeds the limit of {MAX_STARTS}")
    scenario = load_scenario(args.file)
    observables = scenario.pick(args.order)
    config = OptimizerConfig(starts=args.starts, seed=args.seed)

    started = time.perf_counter()
    bound = lambda_s_chain(observables, config)
    numeric = lambda_s_chain_numeric(observables, config).value
    if len(observables) == 2:
        a, b = observables
        nondegenerate = a.is_nondegenerate and b.is_nondegenerate
        values = {
            "deutsch": deutsch_bound(a, b) if nondegenerate else None,
            "partovi": partovi_bound(a, b),
            "maassen_uffink": maassen_uffink_bound(a, b) if nondegenerate else None,
            "krishna_parthasarathy": krishna_parthasarathy_bound(a, b),
            "lambda_s": bound.common_state,
            "lambda_d_numeric": lambda_d_numeric(a, b, config).value,
            "lambda_s_numeric": numeric,
        }
        # lambda_d <= lambda_s for a pair, so a lambda_d search above lambda_s
        # missed its basin as surely as a lambda_s search above it
        searches = [("lambda_d_numeric", "lambda_s", 1e-4),
                    ("lambda_s_numeric", "lambda_s", 1e-4)]
        # for a degenerate first observable lambda_s is itself a subspace
        # search, so the numeric search is held to the closed form below it
        triples = [("lambda_s", "krishna_parthasarathy", 1e-9),
                   ("krishna_parthasarathy", "partovi", 1e-9),
                   ("lambda_d_numeric", "krishna_parthasarathy", 1e-6),
                   searches[1] if a.is_nondegenerate
                   else ("lambda_s_numeric", "krishna_parthasarathy", 1e-6)]
        if nondegenerate:
            triples += [("lambda_s", "maassen_uffink", 1e-9), ("maassen_uffink", "deutsch", 1e-9)]
        floors = {f"{value} >= {floor}": (value, floor, tol) for value, floor, tol in triples}
    else:
        name = f"lambda_s{len(observables)}"
        values = {
            f"{name}_stagewise": bound.stagewise,
            f"{name}_common_state": bound.common_state,
            f"{_ORDINALS[len(observables) - 1]}_stage_bound": bound.second_stage,
            f"{name}_numeric": numeric,
        }
        searches = [(f"{name}_numeric", f"{name}_common_state", 1e-3)]
        floors = {"common_state >= stagewise": (f"{name}_common_state", f"{name}_stagewise", 1e-9),
                  f"{name}_numeric >= common_state": searches[0]}
    # floors: check label -> (value, its floor, tolerance), both named as in values
    checks = {label: values[value] >= values[floor] - tol
              for label, (value, floor, tol) in floors.items()}
    # a multistart search bounds its infimum only from above: stopping above
    # the closed form is a miss of the search, reported but not a violation
    misses = {}
    for numeric_name, closed_name, tol in searches:
        gap = values[numeric_name] - values[closed_name]
        if gap > tol:
            misses[numeric_name] = (closed_name, gap / ln_base)
    elapsed = time.perf_counter() - started
    values = {k: (None if v is None else v / ln_base) for k, v in values.items()}

    payload = {
        "command": "bounds",
        "file": args.file,
        "order": args.order,
        "dim": scenario.dim,
        "log_base": args.log_base,
        "seed": args.seed,
        "starts": args.starts,
        "bounds": {k: (None if v is None else _json_num(v)) for k, v in values.items()},
        "checks": checks,
        "search_misses": {name: {"above": closed, "gap": _json_num(gap)}
                          for name, (closed, gap) in misses.items()},
        "timing_s": round(elapsed, 3),
    }
    width = max(len(k) for k in values)
    table = [f"{name:<{width}}  "
             + ("n/a (degenerate spectrum)" if value is None else _fmt(value))
             for name, value in values.items()]
    table += [f"check: {name}: {'ok' if verdict else 'VIOLATED'}"
              for name, verdict in checks.items()]
    table += [f"search miss: {name} is {_fmt(gap)} above {closed}"
              for name, (closed, gap) in misses.items()]
    if not args.quiet:
        table.append(f"timing_s {elapsed:.3f}")
    csv_rows = [("bound", "value")]
    csv_rows += [(name, "" if value is None else _fmt(value)) for name, value in values.items()]
    _emit(args, payload, csv_rows, table, file=args.file, order=",".join(args.order),
          dim=scenario.dim, log_base=args.log_base, seed=args.seed, starts=args.starts)
    return EXIT_OK if all(checks.values()) else EXIT_MISMATCH


#: The bound columns of ``table1`` and ``sweep``, as ``ThetaCurvePoint`` fields.
_CURVE_FIELDS = ("lambda_s", "lambda_d", "lambda_d2", "lambda_d1")
_CURVE_HEADER = " ".join(f"{name:>9}" for name in ("theta_deg",) + _CURVE_FIELDS)


def _curve_cells(point) -> str:
    return " ".join(f"{getattr(point, name):>9.6f}" for name in _CURVE_FIELDS)


def _curve_json(point) -> dict:
    return {name: _json_num(getattr(point, name)) for name in _CURVE_FIELDS}


def _curve_csv(point) -> tuple:
    return tuple(_fmt(getattr(point, name)) for name in _CURVE_FIELDS)


def _curve_in_base(point, ln_base: float):
    """``point`` with its bound curves divided by ``ln_base``, for output."""
    return replace(point, **{name: getattr(point, name) / ln_base for name in _CURVE_FIELDS})


def cmd_table1(args) -> int:
    if not 0.0 < args.tolerance < math.inf:
        raise ScenarioError("--tolerance must be positive and finite")
    rows = table1()

    mismatches = []
    for point, ref in zip(rows, REFERENCE_TABLE):
        tol = args.tolerance + (1e-3 if point.regime == "middle-search" else 0.0)
        for name, want in zip(_CURVE_FIELDS, ref[1:]):
            got = getattr(point, name)
            if abs(got - want) > tol:
                mismatches.append((ref[0], name, got, want, tol))

    payload = {
        "command": "table1",
        "log_base": "e",
        "seed": args.seed,
        "rows": [{"theta_deg": round(p.theta_deg), **_curve_json(p), "regime": p.regime}
                 for p in rows],
        "mismatches": [
            {"theta_deg": t, "bound": n, "computed": _json_num(g),
             "reference": w, "tolerance": tol}
            for t, n, g, w, tol in mismatches
        ],
    }
    csv_rows = [("theta_deg",) + _CURVE_FIELDS]
    csv_rows += [(str(round(p.theta_deg)),) + _curve_csv(p) for p in rows]
    table = [_CURVE_HEADER + "  regime"]
    table += [f"{round(p.theta_deg):>9} {_curve_cells(p)}  {p.regime}" for p in rows]
    table += [f"mismatch: theta={t} {n} computed={_fmt(g)} reference={w} tolerance={tol:g}"
              for t, n, g, w, tol in mismatches]
    _emit(args, payload, csv_rows, table,
          log_base="e", seed=args.seed, tolerance=f"{args.tolerance:g}")
    return EXIT_MISMATCH if mismatches else EXIT_OK


def cmd_sweep(args) -> int:
    ln_base = math.log(_parse_log_base(args.log_base))
    if args.steps < 1 or not 0 <= args.theta_min <= args.theta_max <= 180:
        raise ScenarioError("need 0 <= theta-min <= theta-max <= 180 and steps >= 1")
    if args.steps > MAX_SWEEP_STEPS:
        raise ScenarioError(f"--steps {args.steps} exceeds the limit of {MAX_SWEEP_STEPS}")
    grid = np.linspace(args.theta_min, args.theta_max, args.steps)
    points = [curve_point(math.radians(d)) for d in grid]
    chain_ok = [p.chain_holds() for p in points]
    points = [_curve_in_base(p, ln_base) for p in points]

    payload = {
        "command": "sweep",
        "log_base": args.log_base,
        "seed": args.seed,
        "rows": [
            {"theta_deg": _json_num(p.theta_deg), **_curve_json(p),
             "regime": p.regime, "chain_ok": ok}
            for p, ok in zip(points, chain_ok)
        ],
    }
    csv_rows = [("theta_deg",) + _CURVE_FIELDS + ("regime", "chain_ok")]
    csv_rows += [(_fmt(p.theta_deg),) + _curve_csv(p) + (p.regime, str(ok).lower())
                 for p, ok in zip(points, chain_ok)]
    table = [f"{_CURVE_HEADER}  {'regime':<14} chain_ok"]
    table += [f"{p.theta_deg:>9.4g} {_curve_cells(p)}  {p.regime:<14} {str(ok).lower()}"
              for p, ok in zip(points, chain_ok)]
    _emit(args, payload, csv_rows, table,
          theta=f"{args.theta_min:g}..{args.theta_max:g} steps={args.steps}",
          log_base=args.log_base, seed=args.seed)
    return EXIT_OK


def _parse_dims(text: str):
    parts = text.split("-")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise ScenarioError(f"invalid --dims {text!r}, expected N or LO-HI") from None
    if not (2 <= lo <= hi <= 16):
        raise ScenarioError("--dims must lie within 2..16")
    return tuple(range(lo, hi + 1))


def cmd_verify(args) -> int:
    from .verify import run_all

    if args.instances < 1:
        raise ScenarioError("--instances must be >= 1")
    if args.instances > MAX_VERIFY_INSTANCES:
        raise ScenarioError(
            f"--instances {args.instances} exceeds the limit of {MAX_VERIFY_INSTANCES}")
    dims = _parse_dims(args.dims)
    results = run_all(args.seed, args.instances, dims)
    all_ok = all(r.ok for r in results)

    payload = {
        "command": "verify",
        "seed": args.seed,
        "instances": args.instances,
        "dims": args.dims,
        "properties": [
            {"name": r.name, "ok": r.ok, "checked": r.checked,
             "margin": f"{r.worst:.3e}", "detail": r.detail}
            for r in results
        ],
        "all_ok": all_ok,
    }
    csv_rows = [("name", "ok", "checked", "margin")]
    csv_rows += [(r.name, str(r.ok).lower(), str(r.checked), f"{r.worst:.3e}")
                 for r in results]
    table = []
    for r in results:
        mark = "ok  " if r.ok else "FAIL"
        table.append(f"{mark} {r.name:<32} checked={r.checked:<5} margin={r.worst:.3e}")
        if not r.ok:
            table += [f"     {line}" for line in r.detail.splitlines()]
    table.append(f"{sum(r.ok for r in results)}/{len(results)} properties passed")
    _emit(args, payload, csv_rows, table,
          seed=args.seed, instances=args.instances, dims=args.dims)
    return EXIT_OK if all_ok else EXIT_MISMATCH


def cmd_simulate(args) -> int:
    ln_base = math.log(_parse_log_base(args.log_base))
    if args.samples < 1:
        raise ScenarioError("--samples must be >= 1")
    scenario = load_scenario(args.file)
    chain = scenario.pick(args.order)
    rho = scenario.state_or_mixed()

    # the sampler validates the sample count, so an oversized one is refused
    # before the analytic table is built
    counts = sample_sequence(rho, chain, args.samples, args.seed)
    joint = wigner_joint(rho, *chain)
    freqs = counts / args.samples

    entropies = []
    for axis, name in enumerate(args.order):
        analytic_p = joint.marginal(axis)
        empirical_p = freqs.sum(axis=tuple(k for k in range(freqs.ndim) if k != axis))
        s_nats = float(_entropy(empirical_p))
        nz = empirical_p[empirical_p > 0]
        var_nats = float((nz * np.log(nz) ** 2).sum() - s_nats**2)
        stderr = math.sqrt(max(var_nats, 0.0) / args.samples) / ln_base
        entropies.append((name, analytic_p, empirical_p, shannon_entropy(analytic_p) / ln_base,
                          s_nats / ln_base, stderr))

    gap = None
    if len(chain) >= 2:
        direct = outcome_probabilities(rho, chain[-1])
        gap = [float(np.abs(p - direct).max()) for p in entropies[-1][1:3]]

    payload = {
        "command": "simulate",
        "file": args.file,
        "order": args.order,
        "dim": scenario.dim,
        "samples": args.samples,
        "seed": args.seed,
        "log_base": args.log_base,
        "joint": {"axes": [[_json_num(v) for v in ax] for ax in joint.axes]},
        "marginals": [
            {
                "observable": name,
                "analytic": [_json_num(v) for v in pa],
                "empirical": [_json_num(v) for v in pe],
                "entropy_analytic": _json_num(sa),
                "entropy_empirical": _json_num(se),
                "entropy_stderr": _json_num(err),
            }
            for name, pa, pe, sa, se, err in entropies
        ],
    }
    if gap is not None:
        payload["interference_gap"] = {
            "analytic": _json_num(gap[0]), "empirical": _json_num(gap[1]),
        }
    if args.format == "json":
        # the cells only where they are printed, as arrays that _json_text
        # writes as nested lists; table and csv rows read them from cells() below
        payload["joint"].update(analytic=np.round(joint.table, 9),
                                empirical=np.round(freqs, 9))

    labels = [[_fmt(v) for v in ax] for ax in joint.axes]

    def cells():
        """(outcome labels, analytic, empirical) of every joint cell, in C order."""
        return zip(itertools.product(*labels), joint.table.ravel().tolist(),
                   freqs.ravel().tolist())

    def table():
        yield f"{'outcome':<24} {'analytic':>10} {'empirical':>10} {'|diff|':>10}"
        # printf-style: the bytes of f"{label:<24} {p:>10.6f} ..." in half the time
        for outcome, p, f in cells():
            yield "%-24s %10.6f %10.6f %10.6f" % ("(" + ",".join(outcome) + ")", p, f, abs(p - f))
        for name, pa, pe, sa, se, err in entropies:
            yield (f"marginal {name}: analytic [{' '.join(_fmt(v) for v in pa)}] "
                   f"empirical [{' '.join(_fmt(v) for v in pe)}]")
            yield f"entropy {name}: analytic {_fmt(sa)} empirical {_fmt(se)} stderr {_fmt(err)}"
        if gap is not None:
            yield f"interference_gap: analytic {_fmt(gap[0])} empirical {_fmt(gap[1])}"

    def csv_rows():
        yield (*args.order, "analytic", "empirical")
        for outcome, p, f in cells():
            yield outcome + (_fmt(p), _fmt(f))

    _emit(args, payload, csv_rows(), table(), file=args.file, order=",".join(args.order),
          dim=scenario.dim, samples=args.samples, seed=args.seed, log_base=args.log_base)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise ScenarioError("--seed must be >= 0")
        return args.func(args)
    except (ValueError, OptimizerFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
