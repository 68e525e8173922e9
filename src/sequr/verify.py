"""Randomized self-verification of the library's identities and inequalities.

Each property draws a seeded ensemble of states and observables, evaluates an
identity or inequality the library must satisfy, and reports the worst margin
seen (a negative or NaN margin fails, tolerances already folded in). Output is
fully deterministic for a fixed seed, so reruns are byte-identical.

A property runs as array code: it draws up to ``STACK_INSTANCES`` instances at
a time, in the order a one-at-a-time loop would draw them, then stacks the
instances of each dimension. The runner (``_property``) is the one place that
resolves and groups: one ``spectral_resolutions`` call per stack and drawn
observable, then one group per set of eigenspace sizes (``edges``) of the
instance's observables. Each property body checks one group: the functions
under test that take ``Observable``s (the bounds, the entropies,
``wigner_joint``, ``luders_map`` ...) are called once per group, through
their modules, on observables stacked by ``stack_observables``. They are the
functions the CLI calls on one instance; a group gives each instance the bits
it gets alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds as bd
from . import entropy as ent
from . import qubit
from .linalg import eigh, operator_norm, spectral_resolutions, stack_observables
from .states import (
    interference_gap,
    luders_map,
    outcome_probabilities,
    wigner_joint,
)

#: Most instances a property draws and stacks at a time, so that memory does
#: not grow with the instance count.
STACK_INSTANCES = 64


@dataclass(frozen=True)
class PropertyResult:
    name: str
    ok: bool
    checked: int
    worst: float  # smallest margin encountered; negative fails
    detail: str = ""  # counterexample context for the worst margin


def _rank(margin):
    """Sort key of a margin: NaN ranks below every number."""
    return -math.inf if math.isnan(margin) else margin


def _result(name: str, checked: int, margins, describe) -> PropertyResult:
    """Result of a stream of ``(margin, where)`` pairs.

    The smallest margin is kept, the first one on a tie. NaN fails and ranks
    below every number; ``inf`` means no such check. ``describe(where)``
    formats the counterexample and runs only when the property fails.
    """
    worst, where = math.inf, None
    for margin, at in margins:
        if _rank(margin) < _rank(worst):
            worst, where = float(margin), at
    ok = worst >= 0.0
    return PropertyResult(name, ok, checked, worst, "" if ok else describe(where))


def _counterexample(where) -> str:
    """The failed check's label (if any), the instance and its arrays, one block each."""
    label, i, dim, arrays = where
    return "\n".join(
        [f"{label} instance {i} dim {dim}".lstrip()]
        + [f"{key}=\n{np.array2string(value, precision=6)}" for key, value in arrays.items()]
    )


def _draw(names, dim, rng) -> list:
    """The raw arrays of one instance, in the order of ``names``.

    ``rho`` (first, if drawn) is a mixture of up to three random pure states,
    sometimes exactly pure; every other name is a random Hermitian matrix.
    Each array holds the bits of ``random_state_vector`` and
    ``random_hermitian`` called in turn on ``rng``: after the mixture's
    ``integers`` and ``dirichlet`` draws, one ``standard_normal`` call draws
    every normal number in that order, and a state vector is normalized twice
    (``random_state_vector``, then ``pure_density``) by the norm as
    ``np.linalg.norm`` computes it.
    """
    mixed = names[0] == "rho"
    weights = rng.dirichlet(np.ones(int(rng.integers(1, 4)))) if mixed else ()
    normal = rng.standard_normal(2 * dim * (len(weights) + (len(names) - mixed) * dim))
    split = 2 * dim * len(weights)
    drawn = []
    if mixed:
        parts = normal[:split].reshape(-1, 2, 1, dim)
        v = parts[:, 0] + 1j * parts[:, 1]
        for _ in range(2):
            # per vector, v.real.dot(v.real) + v.imag.dot(v.imag) bit for bit
            v = v / np.sqrt(v.real @ v.real.swapaxes(-2, -1) + v.imag @ v.imag.swapaxes(-2, -1))
        outer = v.swapaxes(-2, -1) * v.conj()
        rho = np.zeros((dim, dim), dtype=complex)
        for w, o in zip(weights, outer):
            rho += w * o
        drawn.append(rho)
    parts = normal[split:].reshape(-1, 2, dim, dim)
    g = parts[:, 0] + 1j * parts[:, 1]
    drawn.extend((g + g.conj().swapaxes(-2, -1)) / 2)
    return drawn


def _worst_per_group(indices, dim, arrays, checks):
    """The first smallest margin of one stacked group as a ``(margin, where)`` pair.

    ``checks`` are ``(margins, label)`` pairs in check order, one margin per
    instance; NaN ranks below every number, as in ``_result``.
    """
    margins = np.column_stack([m for m, _ in checks])
    ranks = np.where(np.isnan(margins), -math.inf, margins)
    row = int(np.argmin(ranks.min(axis=1)))
    col = int(np.argmin(ranks[row]))
    where = (checks[col][1], indices[row], dim,
             {key: value[row] for key, value in arrays.items()})
    return margins[row, col], where


def _property(name: str, *draws: str):
    """Turn a group body into a seeded property ``(seed, instances, dims) -> result``.

    Instance ``i`` has dimension ``dims[i % len(dims)]`` and its raw arrays are
    drawn by ``_draw(draws, dim, rng)``, instance after instance. The runner
    stacks the instances of one dimension, resolves each drawn name other than
    ``rho`` with one ``spectral_resolutions`` call, and groups the instances
    whose observables all share ``edges``. ``body(*group)`` is called once per
    group, in the order of the group's first instance: it gets the group's
    ``(n, dim, dim)`` stack of ``rho`` and one ``stack_observables`` per other
    name, in the order of ``draws``, and returns ``(arrays, checks)``: the
    named stacks that describe the instances and its ``(margins, label)``
    pairs in check order, one margin per instance (``inf`` where an instance
    has no such check). The worst margin is the first smallest one by
    instance index, then by check order.
    """
    def decorate(body):
        def run(seed, instances, dims) -> PropertyResult:
            rng = np.random.default_rng(seed)

            def margins():
                for first in range(0, instances, STACK_INSTANCES):
                    chunk = range(first, min(first + STACK_INSTANCES, instances))
                    drawn = [_draw(draws, int(dims[i % len(dims)]), rng) for i in chunk]
                    worst = []
                    for dim in dict.fromkeys(int(d) for d in dims):
                        indices = [i for i in chunk if int(dims[i % len(dims)]) == dim]
                        if not indices:
                            continue
                        stacks = map(np.stack, zip(*(drawn[i - first] for i in indices)))
                        columns = {draw: stack if draw == "rho" else spectral_resolutions(stack)
                                   for draw, stack in zip(draws, stacks)}
                        edges = [tuple(c[k].edges for draw, c in columns.items() if draw != "rho")
                                 for k in range(len(indices))]
                        for key in dict.fromkeys(edges):
                            at = [k for k, e in enumerate(edges) if e == key]
                            group = [c[at] if draw == "rho"
                                     else stack_observables([c[k] for k in at])
                                     for draw, c in columns.items()]
                            worst.append(_worst_per_group([indices[k] for k in at], dim,
                                                          *body(*group)))
                    yield from sorted(worst, key=lambda pair: pair[1][1])

            return _result(name, instances, margins(), _counterexample)

        run.__name__ = run.__qualname__ = body.__name__
        run.__doc__ = body.__doc__
        return run

    return decorate


def _random_density(dim, rng):
    """Mixture of up to three random pure states (sometimes exactly pure)."""
    return _draw(("rho",), dim, rng)[0]


@_property("spectral-resolution", "H")
def check_spectral_resolution(h):
    """Reconstruction, projector orthogonality/idempotence, completeness, unit norms."""
    p, n = h.projectors, h.n_outcomes
    scale = np.maximum(operator_norm(h.matrix), 1e-300)
    rebuilt = sum(h.eigenvalues[:, k, None, None] * p[:, k] for k in range(n))
    checks = [(1e-9 - operator_norm(rebuilt - h.matrix) / scale, "reconstruction"),
              (1e-10 - operator_norm(sum(p[:, k] for k in range(n)) - np.eye(h.dim)),
               "completeness")]
    for k in range(n):
        pk = p[:, k]
        checks.append((1e-10 - operator_norm(pk @ pk - pk), "idempotence"))
        checks.append((1e-9 - abs(operator_norm(pk) - 1.0), "unit norm"))
        cross = 1e-10 - operator_norm(pk[:, None] @ p[:, k + 1:])
        checks += [(cross[:, j], "orthogonality") for j in range(n - k - 1)]
    return {"H": h.matrix}, checks


@_property("eigh-unitary-invariance", "H", "G")
def check_eigh_unitary_invariance(h, g):
    """Eigenvalues are invariant under conjugation with a random unitary."""
    _, u = eigh(g.matrix)
    before, _ = eigh(h.matrix)
    after, _ = eigh(u @ h.matrix @ u.conj().swapaxes(-2, -1))
    return {"H": h.matrix, "U": u}, [(1e-9 - np.abs(before - after).max(axis=-1), "")]


@_property("wigner-marginals", "rho", "A", "B")
def check_wigner_marginals(rho, a, b):
    """Joint-table marginals equal the direct and collapsed outcome distributions."""
    pa, pb = wigner_joint(rho, a, b).marginals()
    collapsed = luders_map(rho, a)
    return {"rho": rho, "A": a.matrix, "B": b.matrix}, [
        (1e-12 - np.abs(pa - outcome_probabilities(rho, a)).max(axis=-1), "first marginal"),
        (1e-12 - np.abs(pb - outcome_probabilities(collapsed, b)).max(axis=-1),
         "second marginal")]


@_property("luders-fixed-points", "rho", "A", "B")
def check_luders_fixed_points(rho, a, b):
    """Collapse commutes with the projectors, is idempotent, and fixes commuting states."""
    once = luders_map(rho, a)
    commutators = once[:, None] @ a.projectors - a.projectors @ once[:, None]
    checks = [(1e-10 - operator_norm(commutators[:, k]), "commutation")
              for k in range(a.n_outcomes)]
    checks.append((1e-12 - operator_norm(luders_map(once, a) - once), "idempotence"))
    # A state already diagonal in the first observable's eigenspaces is
    # untouched, so the later measurement sees no interference shift.
    checks.append((1e-10 - interference_gap(once, a, b), "interference"))
    return {"rho": rho, "A": a.matrix}, checks


@_property("sequential-entropy-identities", "rho", "A", "B")
def check_sequential_entropy_identities(rho, a, b):
    """Sequential marginal entropies equal their distinct-measurement counterparts."""
    rep = ent.entropies_sequential(rho, a, b)
    collapsed = luders_map(rho, a)
    return {"rho": rho, "A": a.matrix, "B": b.matrix}, [
        (1e-12 - np.abs(rep.s_a - ent.entropy_distinct(rho, a)), "S_A direct"),
        (1e-12 - np.abs(rep.s_a - ent.entropy_distinct(collapsed, a)), "S_A collapsed"),
        (1e-12 - np.abs(rep.s_b - ent.entropy_distinct(collapsed, b)), "S_B collapsed")]


@_property("joint-subadditivity", "rho", "A", "B", "C")
def check_joint_subadditivity(rho, a, b, c):
    """Marginal entropy sums dominate the joint entropy, which dominates each marginal."""
    two = ent.entropies_sequential(rho, a, b)
    three = ent.entropies_sequential_3(rho, a, b, c)
    return {"rho": rho, "A": a.matrix, "B": b.matrix}, [
        (1e-9 + (two.s_a + two.s_b - two.s_joint), "subadditivity"),
        (1e-9 + (two.s_joint - two.s_a), "joint >= S_A"),
        (1e-9 + (two.s_joint - two.s_b), "joint >= S_B"),
        (1e-9 + (three.s_a + three.s_b + three.s_c - three.s_joint),
         "three-step subadditivity")]


@_property("strong-subadditivity", "rho", "A", "B", "C")
def check_strong_subadditivity(rho, a, b, c):
    """S(A,B) + S(B,C) >= S(A,B,C) + S(B) for the three-step joint distribution."""
    joint = wigner_joint(rho, a, b, c)
    table = joint.table  # (instances, A, B, C)

    def entropy(p):
        return ent._distribution_entropy(p.reshape(len(rho), -1))

    slack = (entropy(table.sum(axis=3)) + entropy(table.sum(axis=1)) - entropy(table)
             - entropy(joint.marginal(1)))
    return {"rho": rho, "A": a.matrix, "B": b.matrix, "C": c.matrix}, [(1e-9 + slack, "")]


@_property("joint-entropy-floor", "rho", "A", "B")
def check_joint_entropy_floor(rho, a, b):
    """The joint entropy never drops below the projector-overlap bound."""
    slack = ent.entropies_sequential(rho, a, b).s_joint - bd.krishna_parthasarathy_bound(a, b)
    return {"rho": rho, "A": a.matrix, "B": b.matrix}, [(1e-9 + slack, "")]


@_property("bound-ordering", "A", "B")
def check_bound_ordering(a, b):
    """Sequential optimum >= Krishna-Parthasarathy/Maassen-Uffink >= Partovi/Deutsch.

    Maassen-Uffink and Deutsch need nondegenerate spectra; a degenerate pair
    has no such checks.
    """
    ls = bd.lambda_s_chain([a, b]).common_state
    kp = bd.krishna_parthasarathy_bound(a, b)
    if a.is_nondegenerate and b.is_nondegenerate:
        mu = bd.maassen_uffink_bound(a, b)
        ls_mu, mu_deutsch = ls - mu, mu - bd.deutsch_bound(a, b)
    else:
        ls_mu = mu_deutsch = np.full(len(ls), math.inf)
    return {"A": a.matrix, "B": b.matrix}, [
        (1e-9 + (ls - kp), "sequential >= KP"), (1e-9 + ls_mu, "sequential >= MU"),
        (1e-9 + (kp - bd.partovi_bound(a, b)), "KP >= Partovi"),
        (1e-9 + mu_deutsch, "MU >= Deutsch")]


@_property("projector-norm-identity", "A", "B")
def check_projector_norm_identity(a, b):
    """||PQ||^2 = ||PQP|| and 4 ||PQ||^2 <= ||P + Q||^2 for eigenprojector pairs."""
    q = b.projectors
    checks = []
    for k in range(a.n_outcomes):
        pk = a.projectors[:, k, None]
        pq = pk @ q
        cross = operator_norm(pq) ** 2
        identity = 1e-10 - abs(cross - operator_norm(pq @ pk))
        inequality = 1e-10 + (0.25 * operator_norm(pk + q) ** 2 - cross)
        for j in range(b.n_outcomes):
            checks.append((identity[:, j], "norm identity"))
            checks.append((inequality[:, j], "norm inequality"))
    return {"A": a.matrix, "B": b.matrix}, checks


@_property("sequential-entropy-floor", "rho", "A", "B")
def check_sequential_entropy_floor(rho, a, b):
    """The second measurement's entropy is at least the sequential optimum, any state."""
    slack = ent.entropies_sequential(rho, a, b).s_b - bd.lambda_s_chain([a, b]).common_state
    return {"rho": rho, "A": a.matrix, "B": b.matrix}, [(1e-9 + slack, "")]


@_property("second-stage-dominance", "A", "B", "C")
def check_second_stage_dominance(a, b, c):
    """Third-stage entropy bound >= second-stage bound (doubly stochastic mixing)."""
    slack = bd.lambda_s_chain([a, b, c]).second_stage - bd.lambda_s_chain([a, b]).common_state
    return {"A": a.matrix, "B": b.matrix, "C": c.matrix}, [(1e-9 + slack, "")]


@_property("transition-doubly-stochastic", "B", "C")
def check_transition_doubly_stochastic(b, c):
    """Squared-overlap matrices have unit row and column sums."""
    u = bd.squared_overlaps(b, c)
    return {"U": u}, [(1e-9 - np.abs(u.sum(axis=1) - 1).max(axis=-1), "columns"),
                      (1e-9 - np.abs(u.sum(axis=2) - 1).max(axis=-1), "rows")]


@_property("variance-relations", "rho", "A", "B")
def check_variance_relations(rho, a, b):
    """Commutator and sequential-covariance variance bounds; compressed observable commutes."""
    rep = ent.variance_relations(rho, a, b)
    return {"rho": rho, "A": a.matrix, "B": b.matrix}, [
        (1e-9 + (rep.var_a * rep.var_b - rep.robertson_rhs), "commutator bound"),
        (1e-9 + (rep.var_a_seq * rep.var_b_seq - rep.successive_rhs), "sequential bound"),
        (1e-10 - operator_norm(a.matrix @ rep.c_of_b - rep.c_of_b @ a.matrix),
         "compressed commutation"),
    ]


def check_qubit_bound_chain(seed, instances, dims) -> PropertyResult:
    """Bound ordering on the spin-component angle grid (5 degree steps)."""
    del seed, instances, dims  # deterministic closed forms; no sampling
    degrees = range(0, 181, 5)
    labels = ("sequential >= optimal", "optimal >= MU", "MU >= 2 Deutsch")

    def margins():
        for d in degrees:
            point = qubit.curve_point(math.radians(d))
            for label, margin in zip(labels, point.chain_margins()):
                yield margin, f"{label} at {d} deg"

    return _result("qubit-bound-chain", len(degrees), margins(), str)


ALL_PROPERTIES = (
    check_spectral_resolution,
    check_eigh_unitary_invariance,
    check_wigner_marginals,
    check_luders_fixed_points,
    check_sequential_entropy_identities,
    check_joint_subadditivity,
    check_strong_subadditivity,
    check_joint_entropy_floor,
    check_bound_ordering,
    check_projector_norm_identity,
    check_sequential_entropy_floor,
    check_second_stage_dominance,
    check_transition_doubly_stochastic,
    check_variance_relations,
    check_qubit_bound_chain,
)


def run_all(seed: int, instances: int, dims) -> list:
    """Run every property with per-property derived seeds; deterministic order."""
    results = []
    for k, prop in enumerate(ALL_PROPERTIES):
        results.append(prop(seed * 1000 + k, instances, tuple(dims)))
    return results
