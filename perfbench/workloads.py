"""Seeded task batches for the benchmark workloads, and the output check of each task.

A task is one cold ``sequr`` invocation (or one group of library calls) with
its own scenario file and seed, both derived from the workload seed. A round
is one task of every class in the workload's mix; a run's batch is a fixed
number of rounds.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

#: Share of ``--seconds`` given to one round of each workload. A run's batch
#: is ``floor(seconds / ROUND_BUDGET_S[workload])`` rounds (at least one), a
#: fixed amount of work for a given ``--seconds``: 2, 1 and 4 rounds at 40 s.
#: A verify-suite round is a single task, so it gets more rounds for a steady
#: median and tail; a chain-tables round already has nine tasks.
ROUND_BUDGET_S = {"numeric-search": 20.0, "chain-tables": 40.0, "verify-suite": 10.0}

SIMULATE_SAMPLES = 10**6

#: Two-sided tail probability of a 5-standard-error deviation.
FIVE_SIGMA_ALPHA = math.erfc(5.0 / math.sqrt(2.0))


@dataclass
class Task:
    """One unit of work: ``spec`` goes to the worker, ``check``/``meta`` stay here."""

    name: str
    spec: dict
    check: str
    meta: dict = field(default_factory=dict)


def _task_seed(seed: int, round_index: int, class_index: int) -> int:
    state = np.random.SeedSequence([seed, round_index, class_index]).generate_state(1)
    return int(state[0] >> 1)


def _hermitian(dim: int, rng, multiplicities=None) -> np.ndarray:
    """Random Hermitian matrix; distinct spectrum unless ``multiplicities`` is given."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    if multiplicities is None:
        return (g + g.conj().T) / 2
    q, _ = np.linalg.qr(g)
    values = np.repeat(np.arange(len(multiplicities), dtype=float), multiplicities)
    m = q @ np.diag(values) @ q.conj().T
    return (m + m.conj().T) / 2


def _pairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in values]


def _state(dim: int, rng, mixed: bool) -> list:
    """Amplitude vector, or a density matrix mixing three random pure states."""
    vectors = rng.standard_normal((3, dim)) + 1j * rng.standard_normal((3, dim))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    if not mixed:
        return _pairs(vectors[0])
    weights = rng.dirichlet(np.ones(3))
    rho = np.einsum("k,ki,kj->ij", weights, vectors, vectors.conj())
    rho = (rho + rho.conj().T) / 2
    return [_pairs(row) for row in rho / np.trace(rho).real]


def write_scenario(path: str, dim: int, seed: int, multiplicities, mixed=False) -> list:
    """Write a scenario with observables A, B, ... and return their names.

    ``multiplicities[k]`` is ``None`` for a random nondegenerate observable or
    the eigenvalue multiplicities of a degenerate one.
    """
    rng = np.random.default_rng(seed)
    names = "ABCD"[: len(multiplicities)]
    doc = {
        "dim": dim,
        "observables": {
            n: [_pairs(row) for row in _hermitian(dim, rng, m)]
            for n, m in zip(names, multiplicities)
        },
        "state": _state(dim, rng, mixed),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return list(names)


def _cells(dim: int, multiplicities) -> int:
    return math.prod(dim if m is None else len(m) for m in multiplicities)


# numeric-search bounds classes: (class, dim, multiplicities per observable).
# The degenerate first observable sends lambda_s_two into its subspace search.
_BOUNDS_CLASSES = (
    ("bounds-pair-d2", 2, (None, None)),
    ("bounds-triple-d2", 2, (None, None, None)),
    ("bounds-pair-d4", 4, (None, None)),
    ("bounds-triple-d4", 4, (None, None, None)),
    ("bounds-degenerate-pair-d4", 4, ((2, 2), None)),
    ("bounds-pair-d8", 8, (None, None)),
    ("bounds-triple-d8", 8, (None, None, None)),
)

SEARCH_STARTS = 16

# chain-tables classes: (class, dim, multiplicities, format, mixed state), or a
# library class where the format is None. Three light classes, three medium
# ones of 4,096 cells each and three heavy ones put the median among the three
# similar medium tasks; task_tail_ms is the slowest task (the dim-16 4-chain).
_CHAIN_CLASSES = (
    ("simulate-2-d8", 8, (None, None), "json", False),
    ("simulate-3-d12-degenerate", 12, (None, (6, 6), None), "json", False),
    ("chain-library-d12", 12, (None, None, None), None, True),
    ("simulate-4-d8", 8, (None, None, None, None), "json", True),
    ("simulate-3-d16", 16, (None, None, None), "table", False),
    ("simulate-3-d16-mixed", 16, (None, None, None), "json", True),
    ("simulate-4-d12", 12, (None, None, None, None), "table", True),
    ("simulate-4-d16", 16, (None, None, None, None), "json", False),
    ("simulate-4-d16-degenerate", 16, (None, (8, 8), None, None), "table", True),
)


#: Middle band of the qubit distinct-measurement bound, in degrees (theta* is about 67.1).
_MIDDLE_BAND = (68.0, 112.0)
#: Five points make the sweep the middle class of a numeric-search round by
#: cost (above table1 and the small bounds, below the dim-4 pair), so the
#: median task is a fixed amount of work rather than a seed-dependent search.
_SWEEP_STEPS = 5


def _numeric_search(seed: int, rounds: int, scratch: str) -> list:
    tasks = []
    for r in range(rounds):
        for c, (name, dim, mult) in enumerate(_BOUNDS_CLASSES):
            s = _task_seed(seed, r, c)
            path = os.path.join(scratch, f"{name}-r{r}.json")
            order = write_scenario(path, dim, s, mult)
            argv = ["bounds", path, "--order", *order, "--starts", str(SEARCH_STARTS),
                    "--format", "json", "--seed", str(s % 100_000)]
            tasks.append(Task(name, {"kind": "cli", "argv": argv}, "bounds",
                              {"degenerate": mult[0] is not None}))
        c = len(_BOUNDS_CLASSES)
        s = _task_seed(seed, r, c)
        tasks.append(Task("table1", {"kind": "cli", "argv": [
            "table1", "--seed", str(s % 100_000)]}, "exit-zero"))
        s = _task_seed(seed, r, c + 1)
        rng = np.random.default_rng(s)
        lo = _MIDDLE_BAND[0] + 4.0 * rng.random()
        hi = _MIDDLE_BAND[1] - 4.0 * rng.random()
        argv = ["sweep", "--theta-min", repr(lo), "--theta-max", repr(hi),
                "--steps", str(_SWEEP_STEPS), "--format", "json", "--seed", str(s % 100_000)]
        tasks.append(Task("sweep-middle-band", {"kind": "cli", "argv": argv}, "sweep",
                          {"steps": _SWEEP_STEPS}))
    return tasks


def _chain_tables(seed: int, rounds: int, scratch: str) -> list:
    tasks = []
    for r in range(rounds):
        for c, (name, dim, mult, fmt, mixed) in enumerate(_CHAIN_CLASSES):
            s = _task_seed(seed, r, c)
            path = os.path.join(scratch, f"{name}-r{r}.json")
            order = write_scenario(path, dim, s, mult, mixed)
            if fmt is None:
                tasks.append(Task(name, {"kind": "chain-lib", "file": path, "order": order},
                                  "lib"))
                continue
            argv = ["simulate", path, "--order", *order, "--samples", str(SIMULATE_SAMPLES),
                    "--format", fmt, "--seed", str(s % 100_000)]
            tasks.append(Task(name, {"kind": "cli", "argv": argv}, "simulate",
                              {"format": fmt, "cells": _cells(dim, mult)}))
    return tasks


def _verify_suite(seed: int, rounds: int, scratch: str) -> list:
    del scratch
    return [
        Task("verify-default", {"kind": "cli", "argv": [
            "verify", "--format", "json", "--seed", str(_task_seed(seed, r, 0) % 100_000)]},
            "verify")
        for r in range(rounds)
    ]


_BUILDERS = {
    "numeric-search": _numeric_search,
    "chain-tables": _chain_tables,
    "verify-suite": _verify_suite,
}

WORKLOADS = tuple(_BUILDERS)


def rounds_for(workload: str, seconds: int) -> int:
    """Rounds in a run of ``workload`` at ``--seconds``."""
    return max(1, int(seconds // ROUND_BUDGET_S[workload]))


def build_batch(workload: str, seed: int, rounds: int, scratch: str) -> list:
    """All tasks of ``rounds`` rounds, in run order; scenario files go to ``scratch``."""
    return _BUILDERS[workload](seed, rounds, scratch)


# ---------------------------------------------------------------- output checks


def _json_payload(result: dict):
    try:
        return json.loads(result["stdout"])
    except (KeyError, json.JSONDecodeError):
        return None


def _simulate_tables(task: Task, result: dict):
    """(analytic, empirical, decimals) as flat arrays, parsed from the CLI output."""
    if task.meta["format"] == "json":
        payload = _json_payload(result)
        if payload is None:
            return None
        joint = payload["joint"]
        return (np.asarray(joint["analytic"], dtype=float).ravel(),
                np.asarray(joint["empirical"], dtype=float).ravel(), 9)
    analytic, empirical = [], []
    rows = False
    for line in result["stdout"].splitlines():
        if line.startswith("outcome"):
            rows = True
        elif line.startswith("marginal"):
            break
        elif rows:
            parts = line.split()
            analytic.append(float(parts[1]))
            empirical.append(float(parts[2]))
    return np.asarray(analytic), np.asarray(empirical), 6


def check_simulate(task: Task, result: dict) -> str:
    """Every analytic cell must be consistent with its empirical count.

    The printed empirical frequencies are exact counts at 1e6 samples. Each
    cell gets an exact binomial test at the two-sided 5-standard-error level,
    split over the table's cells (Bonferroni), so a correct sampler fails a
    65,536-cell table with probability about 6e-7, as a single 5-sigma test
    would. Analytic values are taken at the end of their rounding interval
    that favours the cell. The sampler in the CLI never sees the analytic table.
    """
    from scipy.stats import binom

    parsed = _simulate_tables(task, result)
    if parsed is None:
        return "unparseable output"
    analytic, empirical, decimals = parsed
    if analytic.size != task.meta["cells"] or empirical.size != analytic.size:
        return f"expected {task.meta['cells']} cells, got {analytic.size}"
    n = SIMULATE_SAMPLES
    counts = np.rint(empirical * n)
    if counts.sum() != n:
        return f"empirical counts sum to {counts.sum():.0f}, not {n}"
    half = 0.5 * 10.0 ** -decimals
    alpha = FIVE_SIGMA_ALPHA / analytic.size / 2.0
    too_few = binom.cdf(counts, n, np.clip(analytic - half, 0.0, 1.0)) < alpha
    too_many = binom.sf(counts - 1, n, np.clip(analytic + half, 0.0, 1.0)) < alpha
    bad = np.flatnonzero(too_few | too_many)
    if bad.size:
        i = bad[0]
        return (f"{bad.size} cells outside the 5-sigma band, e.g. cell {i}: "
                f"analytic {float(analytic[i])!r} empirical {float(empirical[i])!r}")
    return ""


#: The numeric cross-check entry of ``sequr bounds`` for a pair and for a triple,
#: with the numeric value and the closed-form value it compares.
_CROSS_CHECKS = {
    "lambda_s_numeric matches lambda_s": ("lambda_s_numeric", "lambda_s", 1e-4),
    "lambda_s3_numeric matches common_state":
        ("lambda_s3_numeric", "lambda_s3_common_state", 1e-3),
}


def search_missed(task: Task, result: dict) -> bool:
    """True if ``bounds`` reported that its numeric search missed the closed form."""
    payload = _json_payload(result) if task.check == "bounds" else None
    if payload is None:
        return False
    return any(not payload["checks"].get(key, True) for key in _CROSS_CHECKS)


def check_bounds(task: Task, result: dict) -> str:
    """Every closed-form check of ``bounds`` holds, and no value undercuts its floor.

    ``bounds`` exits 1 when its multistart search stops above the closed form
    it cross-checks (a missed basin, see ``search_missed``); that is counted as
    a search miss, not as a wrong output. A numeric value below the closed
    form is wrong, since the closed form is the infimum. For a degenerate first
    observable lambda_s is itself a subspace search, so there the floor of
    lambda_s_numeric is the Krishna-Parthasarathy bound.
    """
    if result["rc"] not in (0, 1):
        return f"exit code {result['rc']}: {result.get('stderr', '').strip()[:200]}"
    payload = _json_payload(result)
    if payload is None:
        return "unparseable output"
    checks, values = payload["checks"], payload["bounds"]
    problems = [k for k, ok in checks.items() if not ok and k not in _CROSS_CHECKS]
    for key, (numeric, closed, tol) in _CROSS_CHECKS.items():
        if key not in checks:
            continue
        if task.meta["degenerate"]:
            closed, tol = "krishna_parthasarathy", 1e-6
        if values[numeric] < values[closed] - tol:
            problems.append(f"{numeric} {values[numeric]!r} < {closed} {values[closed]!r}")
    if result["rc"] != int(not all(checks.values())):
        problems.append(f"exit code {result['rc']} does not match the checks")
    return f"failed: {problems} values: {values}" if problems else ""


def check(task: Task, result: dict) -> str:
    """Empty string if the task's output passes its check, else the reason."""
    if "error" in result:
        return result["error"]
    if task.check == "lib":
        return result["lib_check"]
    if task.check == "bounds":
        return check_bounds(task, result)
    if result["rc"] != 0:
        return f"exit code {result['rc']}: {result.get('stderr', '').strip()[:200]}"
    if task.check == "exit-zero":
        return ""
    if task.check == "simulate":
        return check_simulate(task, result)
    payload = _json_payload(result)
    if payload is None:
        return "unparseable output"
    if task.check == "sweep":
        rows = payload["rows"]
        if len(rows) != task.meta["steps"]:
            return f"expected {task.meta['steps']} rows, got {len(rows)}"
        broken = [r["theta_deg"] for r in rows if not r["chain_ok"]]
        return f"bound chain broken at {broken}" if broken else ""
    if task.check == "verify":
        return "" if payload["all_ok"] else "verify reported a failing property"
    raise ValueError(f"unknown check {task.check!r}")
