"""Run one benchmark task in a fresh interpreter and print its result as one JSON line.

Usage: ``python3 perfbench/worker.py < spec.json`` with ``src`` on
``PYTHONPATH``. The import of ``sequr.cli`` is timed first and reported as
``setup_s``; the task itself is timed separately as ``task_s``. With
``"trace": true`` in the spec the tracer is installed after the import and
its spans are returned. Spec kinds: ``setup`` (import only), ``cli`` (call
``sequr.cli.main(argv)`` with stdout captured) and ``chain-lib`` (the
sequential-chain library calls, checked here with tracing off).
"""

import sys
import time

_t0 = time.perf_counter()
import sequr.cli  # noqa: E402

SETUP_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

#: Absolute tolerance for the 3-chain -> 2-chain marginal identity.
MARGINAL_TOL = 1e-12


def _run_cli(argv, result):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = sequr.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    result["task_s"] = time.perf_counter() - start
    result.update(rc=rc, stdout=out.getvalue(), stderr=err.getvalue())


def _run_chain_lib(spec, result, tracer):
    from sequr import bounds, entropy, scenario, states

    start = time.perf_counter()
    sc = scenario.load_scenario(spec["file"])
    a, b, c = sc.pick(spec["order"])
    rho = sc.state_or_mixed()
    three = entropy.entropies_sequential_3(rho, a, b, c)
    triple = bounds.lambda_s_three(a, b, c)
    entropy.variance_relations(rho, a, b)
    result["task_s"] = time.perf_counter() - start

    if tracer is not None:
        tracer.enabled = False
    problems = []
    joint3 = states.wigner_joint(rho, a, b, c)
    joint2 = states.wigner_joint(rho, a, b)
    gap = float(np.abs(joint3.table.sum(axis=2) - joint2.table).max())
    if gap > MARGINAL_TOL:
        problems.append(f"3-chain table does not reduce to the 2-chain one (gap {gap:.3g})")
    two = entropy.entropies_sequential(rho, a, b)
    if max(abs(three.s_a - two.s_a), abs(three.s_b - two.s_b)) > MARGINAL_TOL:
        problems.append("3-chain marginal entropies differ from the 2-chain ones")
    floor = bounds.lambda_s_two(a, b)
    if triple.second_stage < floor - 1e-9:
        problems.append(f"second_stage {triple.second_stage!r} < lambda_s_two {floor!r}")
    result["lib_check"] = "; ".join(problems)


def _peak_rss_mb() -> float:
    """Peak resident set of this process since it started.

    ``ru_maxrss`` is not used: Linux carries it across exec, so it would
    include the resident set of the harness that spawned this worker.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("VmHWM not found in /proc/self/status")


def main() -> int:
    spec = json.loads(sys.stdin.read())
    result = {"setup_s": SETUP_S}
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer(spec["task_id"])
        tracer.install()
    try:
        if spec["kind"] == "cli":
            _run_cli(spec["argv"], result)
        elif spec["kind"] == "chain-lib":
            _run_chain_lib(spec, result, tracer)
        elif spec["kind"] != "setup":
            raise ValueError(f"unknown task kind {spec['kind']!r}")
    except Exception:  # report the failure to the harness instead of dying silently
        result["error"] = traceback.format_exc(limit=5)
    result["maxrss_mb"] = _peak_rss_mb()
    if tracer is not None:
        result["spans"] = tracer.spans
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
