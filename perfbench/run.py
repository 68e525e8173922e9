"""sequr benchmark: cold-CLI workloads, end-to-end metrics, and a traced per-layer run.

Run from the repository root::

    python3 perfbench/run.py --workload numeric-search --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Each task runs in a fresh worker interpreter (``perfbench/worker.py``) that
imports ``sequr`` from ``src``; one task is in flight at a time (a closed
loop with one client). The design, the task mixes and which layer should move
which metric are recorded in ``perfbench/meta.json``. The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``. Spans and the full result go to ``.bench_out/``. The exit
code is non-zero if any task fails its output check or a trace guard fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ".bench_out"
SRC_DIR = "src"

#: BLAS threads per worker. Operators are at most 16 x 16, so more threads
#: only add scheduling noise; the cap is recorded in every result.
BLAS_THREADS = 1

#: Fewest import-time samples behind one ``setup_s``; import-only workers top up.
SETUP_SAMPLES = 5

#: A task taking longer than this is killed and counted as failed.
TASK_TIMEOUT_S = 150.0

#: No task starts after this much wall time, so a run ends within 180 s.
RUN_DEADLINE_S = 150.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "task_p50_ms": "ms",
    "task_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "passed_frac": "ratio",
}


def _per_layer_units() -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}


def _worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath(SRC_DIR)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _run_worker(spec: dict, env: dict) -> dict:
    """Start a worker, hand it ``spec``, and wait for its one-line JSON result."""
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py")],
            input=json.dumps(spec), capture_output=True, text=True, env=env,
            timeout=TASK_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {TASK_TIMEOUT_S:.0f} s"}
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-400:]}"}
    return json.loads(lines[-1])


def _tail(latencies: list):
    """(value, percentile): the highest percentile with at least ten tasks beyond it.

    Below 20 tasks that percentile would not even reach the median, so the
    maximum (percentile 100) is reported instead.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Pass:
    """Outcomes of one pass over a batch (traced or untraced)."""

    def __init__(self):
        self.latencies, self.failures, self.setup, self.rss, self.spans = [], [], [], [], []
        self.by_class = {}
        self.misses = 0

    def add(self, task, result: dict) -> None:
        problem = workloads.check(task, result)
        if problem:
            self.failures.append(f"{task.name}: {problem}")
        else:
            self.misses += workloads.search_missed(task, result)
        self.latencies.append(result.get("task_s", 0.0))
        self.by_class.setdefault(task.name, []).append(result.get("task_s", 0.0))
        if "setup_s" in result:
            self.setup.append(result["setup_s"])
        if "maxrss_mb" in result:
            self.rss.append(result["maxrss_mb"])
        if "spans" in result:
            self.spans.append(result["spans"])

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def tasks_per_s(self) -> float:
        busy = sum(self.latencies)
        return (self.attempted - len(self.failures)) / busy if busy > 0 else 0.0


def _git_commit() -> str:
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    import hashlib

    digest = hashlib.sha256()
    package = os.path.join(SRC_DIR, "sequr")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _provenance(workload: str, seed: int, seconds: int, trace: bool, rounds: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "rounds": rounds,
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "model": "closed loop, one client, one task in flight, one worker process per task",
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run one workload's batch and return the result object plus details."""
    rounds = workloads.rounds_for(workload, seconds)
    if trace:
        # each task runs untraced and traced on the same inputs
        rounds = max(1, rounds // 2)
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
    env = _worker_env()
    plain, traced = Pass(), Pass()
    problems = []
    started = time.perf_counter()
    try:
        batch = workloads.build_batch(workload, seed, rounds, os.path.relpath(scratch))
        for task_id, task in enumerate(batch):
            if time.perf_counter() - started > RUN_DEADLINE_S:
                problems.append(f"deadline: {task_id} of {len(batch)} tasks ran in "
                                f"{RUN_DEADLINE_S:.0f} s")
                break
            if not trace:
                plain.add(task, _run_worker(task.spec, env))
                continue
            # alternate which pass goes first, so order effects cancel in the overhead
            runs = [(plain, task.spec), (traced, dict(task.spec, trace=True, task_id=task_id))]
            for side, spec in runs[::1 if task_id % 2 == 0 else -1]:
                side.add(task, _run_worker(spec, env))
        while len(plain.setup) < SETUP_SAMPLES and time.perf_counter() - started < RUN_DEADLINE_S:
            result = _run_worker({"kind": "setup"}, env)
            if "error" in result:
                problems.append(f"setup probe: {result['error']}")
                break
            plain.setup.append(result["setup_s"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failures = plain.failures + traced.failures
    tail, tail_pct = _tail(plain.latencies) if plain.latencies else (0.0, 100.0)
    end_to_end = {
        "setup_s": statistics.median(plain.setup) if plain.setup else 0.0,
        "tasks_per_s": plain.tasks_per_s(),
        "task_p50_ms": statistics.median(plain.latencies) * 1e3 if plain.latencies else 0.0,
        "task_tail_ms": tail * 1e3,
        "peak_rss_mb": max(plain.rss, default=0.0),
        "passed_frac": (plain.attempted - len(plain.failures)) / max(plain.attempted, 1),
    }
    details = {
        "attempted": plain.attempted,
        "failed": len(plain.failures),
        "failed_frac": len(plain.failures) / max(plain.attempted, 1),
        "task_tail_percentile": tail_pct,
        "search_misses": plain.misses,
        "setup_samples": len(plain.setup),
        "task_ms_by_class": {k: [round(t * 1e3, 3) for t in v] for k, v in plain.by_class.items()},
    }
    metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end.items()}
    if trace:
        layer = tracer.layer_metrics(traced.spans)
        overhead = plain.tasks_per_s() / traced.tasks_per_s() - 1.0 if traced.tasks_per_s() else 0.0
        layer["trace.overhead_frac"] = overhead
        layer["optimize.cross_check_misses"] = traced.misses
        units = _per_layer_units()
        metrics = {k: (v, units[k]) for k, v in layer.items()}
        optimize_share = layer["optimize.self_ms"] / (1e3 * sum(traced.latencies) or 1.0)
        problems += _trace_guards(workload, traced.spans, layer, optimize_share)
        details.update(optimize_share_of_task_time=optimize_share,
                       traced_tasks_per_s=traced.tasks_per_s(),
                       untraced_tasks_per_s=plain.tasks_per_s())
        _write_spans(workload, seed, traced.spans)
    details["failures"] = failures + problems
    return {
        "correct": not failures and not problems,
        "attempted": plain.attempted + traced.attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "end_to_end": end_to_end,
        "details": details,
        "provenance": dict(_provenance(workload, seed, seconds, trace, rounds),
                           trace_overhead_frac=metrics.get("trace.overhead_frac", (None,))[0]),
    }


def _trace_guards(workload: str, spans: list, layer: dict, optimize_share: float) -> list:
    """Coverage and cold-state checks on the traced pass; each returns a failure."""
    layers_seen = {s[0].partition(".")[0] for task in spans for s in task}
    guards = []
    if layer["qubit.memo_hits"] != 0:
        guards.append(f"trace guard: qubit.memo_hits = {layer['qubit.memo_hits']} (tasks not cold)")
    if workload == "numeric-search":
        if "optimize" not in layers_seen:
            guards.append("trace guard: optimize recorded no spans on numeric-search")
        if optimize_share <= 0.5:
            guards.append(f"trace guard: optimize.self_ms is {optimize_share:.1%} of task time "
                          "on numeric-search, not the majority")
    if workload == "chain-tables":
        if "states" not in layers_seen:
            guards.append("trace guard: states recorded no spans on chain-tables")
        if layer["optimize.runs"] != 0:
            guards.append(f"trace guard: optimize.runs = {layer['optimize.runs']} on chain-tables")
    return guards


def _write_spans(workload: str, seed: int, spans: list) -> None:
    path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        for task in spans:
            for span in task:
                handle.write(json.dumps(span) + "\n")


def _print_result(result: dict) -> None:
    d = result["details"]
    for name, value in result["end_to_end"].items():
        note = ""
        if name == "task_tail_ms":
            note = f"  (p{d['task_tail_percentile']:.1f} of {d['attempted']} tasks)"
        print(f"{name:<14} {value:.6g} {END_TO_END_UNITS[name]}{note}")
    print(f"{'failed_frac':<14} {d['failed_frac']:.6g} ratio  "
          f"({d['failed']} failed of {d['attempted']} attempted)")
    print(f"{'search_misses':<14} {d['search_misses']} count  "
          "(bounds tasks whose numeric search stopped above the closed form; bounds exits 1)")
    for failure in d["failures"]:
        print(f"FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC_DIR, "sequr", "cli.py")):
        print(f"error: {SRC_DIR}/sequr not found; run from the repository root",
              file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results[name] = result
        print(f"== {name}")
        _print_result(result)
        with open(os.path.join(OUT_DIR, f"result-{name}-seed{args.seed}-trace{args.trace}.json"),
                  "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2)
        print(json.dumps({"provenance": result["provenance"], "details": result["details"]}))

    if len(results) == 1:
        final = results[names[0]]
        out = {k: final[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
