"""Scenario documents: named observables plus an optional state, as JSON.

A scenario is a single self-describing JSON object::

    {
      "dim": 2,
      "observables": {
        "Z": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
        "X": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
      },
      "state": [[0.70710678, 0], [0.70710678, 0]],
      "labels": {"comment": "anything"}
    }

``dim`` is an integer in ``MIN_DIM..MAX_DIM`` (2..16), checked before any
matrix is read. Every complex number is a two-element ``[re, im]`` array.
``state`` is optional and is either an amplitude vector (a list of pairs) or
a density matrix (a list of rows of pairs); when omitted, consumers fall
back to the maximally mixed state. Matrices must be Hermitian within 1e-8.
A density matrix is accepted with its trace within 1e-8 of 1 and no
eigenvalue below -1e-8, and is then made exact, as a vector is normalized:
its Hermitian part is rebuilt from its eigenvalues clipped at 0 and divided
by their sum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, ScenarioError
from .linalg import MAX_DIM, MIN_DIM, Observable, spectral_resolution
from .states import check_density, pure_density


def _complex_entry(value, where: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(x, (int, float)) for x in value)
    ):
        raise ScenarioError(f"{where}: expected a [re, im] number pair, got {value!r}")
    return complex(value[0], value[1])


#: Entry and number types a matrix is converted from in one call; anything
#: else is walked entry by entry, which names the first bad one.
_PAIR_TYPES = {list, tuple}
_NUMBER_TYPES = {int, float, bool}


def _complex_matrix(rows, dim: int, where: str) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) != dim:
        raise DimensionMismatch(f"{where}: expected {dim} rows, got {len(rows) if isinstance(rows, list) else type(rows).__name__}")
    entries = [entry for row in rows if type(row) is list and len(row) == dim for entry in row]
    if (len(entries) == dim * dim and set(map(type, entries)) <= _PAIR_TYPES
            and set(map(len, entries)) == {2}
            and {type(x) for entry in entries for x in entry} <= _NUMBER_TYPES):
        # (dim, dim, 2) floats, read as complex pairs
        return np.array(rows, dtype=float).view(complex).reshape(dim, dim)
    out = np.empty((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise DimensionMismatch(f"{where}: row {i} must have {dim} entries")
        for j, entry in enumerate(row):
            out[i, j] = _complex_entry(entry, f"{where}[{i}][{j}]")
    return out


@dataclass(frozen=True)
class Scenario:
    dim: int
    observables: dict  # name -> Observable
    state: np.ndarray | None = None  # density matrix, if given
    labels: dict = field(default_factory=dict)

    def state_or_mixed(self) -> np.ndarray:
        """The scenario's state, or the maximally mixed one when absent."""
        if self.state is not None:
            return self.state
        return np.eye(self.dim, dtype=complex) / self.dim

    def pick(self, names) -> list:
        """Observables in the requested measurement order."""
        missing = [n for n in names if n not in self.observables]
        if missing:
            raise ScenarioError(f"unknown observable name(s): {', '.join(missing)}")
        return [self.observables[n] for n in names]


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document from a JSON string."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object")

    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ScenarioError("'dim' must be an integer")
    if not MIN_DIM <= dim <= MAX_DIM:
        raise ScenarioError(f"'dim' {dim} outside supported range {MIN_DIM}..{MAX_DIM}")

    obs_doc = doc.get("observables")
    if not isinstance(obs_doc, dict) or not obs_doc:
        raise ScenarioError("'observables' must be a non-empty object")
    observables = {}
    for name, rows in obs_doc.items():
        m = _complex_matrix(rows, dim, f"observables[{name}]")
        try:
            observables[name] = spectral_resolution(m)
        except ValueError as exc:
            raise ScenarioError(f"observable {name!r}: {exc}") from exc

    state = None
    if "state" in doc and doc["state"] is not None:
        state = _parse_state(doc["state"], dim)

    labels = doc.get("labels", {})
    if not isinstance(labels, dict):
        raise ScenarioError("'labels' must be an object when present")

    return Scenario(dim=dim, observables=observables, state=state, labels=labels)


def _parse_state(raw, dim: int) -> np.ndarray:
    if not isinstance(raw, list) or not raw:
        raise ScenarioError("'state' must be a vector or matrix of [re, im] pairs")
    # A vector is a list of pairs; a matrix is a list of rows of pairs.
    vector_like = all(
        isinstance(e, list) and len(e) == 2
        and all(isinstance(x, (int, float)) for x in e)
        for e in raw
    )
    if vector_like:
        if len(raw) != dim:
            raise DimensionMismatch(f"state vector must have {dim} amplitudes")
        amps = np.array([complex(re, im) for re, im in raw])
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-8:
            raise ScenarioError(f"state vector norm {float(norm)} != 1")
        return pure_density(amps)
    matrix = _complex_matrix(raw, dim, "state")
    try:
        # made exact, as pure_density normalizes a vector: the joint table and
        # the sampler hold the state to 1e-9 and 1e-10, tighter than 1e-8
        return check_density(matrix, trace_tol=1e-8, eig_tol=1e-8)
    except ValueError as exc:
        raise ScenarioError(f"state: {exc}") from exc


def load_scenario(path) -> Scenario:
    """Read a scenario document from a file path."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    return parse_scenario(text)
