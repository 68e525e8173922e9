"""Randomized self-verification of the library's identities and inequalities.

Each property draws a seeded ensemble of states and observables, evaluates an
identity or inequality the library must satisfy, and reports the worst margin
seen (a negative or NaN margin fails, tolerances already folded in). Output is
fully deterministic for a fixed seed, so reruns are byte-identical.

A property runs as array code: it draws up to ``STACK_INSTANCES`` instances at
a time, in the order a one-at-a-time loop would draw them, then stacks the
instances of each dimension and checks them together (one
``spectral_resolutions`` call per stack, stacked norms and products). The
instances of a stack whose observables share eigenspace sizes form a group
(``_groups``), and the functions under test that take ``Observable``s (the
bounds, the entropies, ``wigner_joint``, ``luders_map`` ...) are called once
per group, through their modules, on observables stacked by
``stack_observables``. They are the functions the CLI calls on one instance;
a group gives each instance the bits it gets alone.
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
    """Turn a stacked body into a seeded property ``(seed, instances, dims) -> result``.

    Instance ``i`` has dimension ``dims[i % len(dims)]`` and its raw arrays are
    drawn by ``_draw(draws, dim, rng)``, instance after instance. ``body(dim,
    *stacks)`` gets one ``(n, dim, dim)`` stack per name in ``draws``, holding
    the instances of one dimension, and returns ``(arrays, checks)``: the
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
                        if indices:
                            stacks = (np.stack(group) for group in
                                      zip(*(drawn[i - first] for i in indices)))
                            worst.append(_worst_per_group(indices, dim, *body(dim, *stacks)))
                    yield from sorted(worst, key=lambda pair: pair[1][1])

            return _result(name, instances, margins(), _counterexample)

        run.__name__ = run.__qualname__ = body.__name__
        run.__doc__ = body.__doc__
        return run

    return decorate


def _random_density(dim, rng):
    """Mixture of up to three random pure states (sometimes exactly pure)."""
    return _draw(("rho",), dim, rng)[0]


def _groups(*observables):
    """The instances whose observables share eigenspace sizes, one group at a time.

    ``observables`` holds one list per drawn name, an Observable per instance.
    Yields ``(at, stacked)``: the group's instance indices, ascending, and one
    ``stack_observables`` of each list over them. Groups come in the order of
    their first instance.
    """
    keys = [tuple(obs.edges for obs in row) for row in zip(*observables)]
    for key in dict.fromkeys(keys):
        at = np.array([i for i, k in enumerate(keys) if k == key])
        yield at, [stack_observables([column[i] for i in at]) for column in observables]


def _per_instance(body, *observables) -> list:
    """Call ``body(at, *stacked)`` once per group of ``_groups`` and put the rows of
    each array it returns back in instance order."""
    outs = None
    for at, stacked in _groups(*observables):
        arrays = body(at, *stacked)
        if outs is None:
            outs = [np.empty((len(observables[0]), *a.shape[1:]), dtype=a.dtype) for a in arrays]
        for out, rows in zip(outs, arrays):
            out[at] = rows
    return outs


def _resolved(observables, dim):
    """Eigenvalues ``(n, dim)`` and projectors ``(n, dim, dim, dim)`` of each
    observable, zero past its outcomes, and the ``(n, dim)`` mask of the
    outcomes present."""
    def padded(at, obs):
        k = obs.n_outcomes
        values = np.zeros((len(at), dim))
        projectors = np.zeros((len(at), dim, dim, dim), dtype=complex)
        present = np.zeros((len(at), dim), dtype=bool)
        values[:, :k], projectors[:, :k], present[:, :k] = obs.eigenvalues, obs.projectors, True
        return values, projectors, present

    return _per_instance(padded, observables)


def _masked(margins, present):
    return np.where(present, margins, math.inf)


@_property("spectral-resolution", "H")
def check_spectral_resolution(dim, h):
    """Reconstruction, projector orthogonality/idempotence, completeness, unit norms."""
    values, p, present = _resolved(spectral_resolutions(h), dim)
    scale = np.maximum(operator_norm(h), 1e-300)
    rebuilt = sum(values[:, k, None, None] * p[:, k] for k in range(dim))
    checks = [(1e-9 - operator_norm(rebuilt - h) / scale, "reconstruction"),
              (1e-10 - operator_norm(sum(p[:, k] for k in range(dim)) - np.eye(dim)),
               "completeness")]
    for k in range(dim):
        pk = p[:, k]
        checks.append((_masked(1e-10 - operator_norm(pk @ pk - pk), present[:, k]),
                       "idempotence"))
        checks.append((_masked(1e-9 - abs(operator_norm(pk) - 1.0), present[:, k]),
                       "unit norm"))
        cross = 1e-10 - operator_norm(pk[:, None] @ p[:, k + 1:])
        checks += [(_masked(cross[:, j], present[:, k] & present[:, k + 1 + j]),
                    "orthogonality") for j in range(dim - k - 1)]
    return {"H": h}, checks


@_property("eigh-unitary-invariance", "H", "G")
def check_eigh_unitary_invariance(dim, h, g):
    """Eigenvalues are invariant under conjugation with a random unitary."""
    _, u = eigh(g)
    before, _ = eigh(h)
    after, _ = eigh(u @ h @ u.conj().swapaxes(-2, -1))
    return {"H": h, "U": u}, [(1e-9 - np.abs(before - after).max(axis=-1), "")]


@_property("wigner-marginals", "rho", "A", "B")
def check_wigner_marginals(dim, rho, a, b):
    """Joint-table marginals equal the direct and collapsed outcome distributions."""
    def errors(at, oa, ob):
        r = rho[at]
        pa, pb = wigner_joint(r, oa, ob).marginals()
        collapsed = luders_map(r, oa)
        return (np.column_stack([np.abs(pa - outcome_probabilities(r, oa)).max(axis=-1),
                                 np.abs(pb - outcome_probabilities(collapsed, ob)).max(axis=-1)]),)

    margins = 1e-12 - _per_instance(errors, spectral_resolutions(a), spectral_resolutions(b))[0]
    return {"rho": rho, "A": a, "B": b}, list(zip(margins.T, ("first marginal",
                                                              "second marginal")))


@_property("luders-fixed-points", "rho", "A", "B")
def check_luders_fixed_points(dim, rho, a, b):
    """Collapse commutes with the projectors, is idempotent, and fixes commuting states."""
    def collapsed(at, oa, ob):
        once = luders_map(rho[at], oa)
        # A state already diagonal in the first observable's eigenspaces is
        # untouched, so the later measurement sees no interference shift.
        return once, luders_map(once, oa), interference_gap(once, oa, ob)

    obs_a = spectral_resolutions(a)
    once, twice, gaps = _per_instance(collapsed, obs_a, spectral_resolutions(b))
    _, p, present = _resolved(obs_a, dim)
    commutators = once[:, None] @ p - p @ once[:, None]
    checks = [(_masked(1e-10 - operator_norm(commutators[:, k]), present[:, k]), "commutation")
              for k in range(dim)]
    checks.append((1e-12 - operator_norm(twice - once), "idempotence"))
    checks.append((1e-10 - gaps, "interference"))
    return {"rho": rho, "A": a}, checks


@_property("sequential-entropy-identities", "rho", "A", "B")
def check_sequential_entropy_identities(dim, rho, a, b):
    """Sequential marginal entropies equal their distinct-measurement counterparts."""
    def errors(at, oa, ob):
        r = rho[at]
        rep = ent.entropies_sequential(r, oa, ob)
        collapsed = luders_map(r, oa)
        return (np.abs(np.column_stack([rep.s_a - ent.entropy_distinct(r, oa),
                                        rep.s_a - ent.entropy_distinct(collapsed, oa),
                                        rep.s_b - ent.entropy_distinct(collapsed, ob)])),)

    margins = 1e-12 - _per_instance(errors, spectral_resolutions(a), spectral_resolutions(b))[0]
    return {"rho": rho, "A": a, "B": b}, list(zip(margins.T, ("S_A direct", "S_A collapsed",
                                                              "S_B collapsed")))


@_property("joint-subadditivity", "rho", "A", "B", "C")
def check_joint_subadditivity(dim, rho, a, b, c):
    """Marginal entropy sums dominate the joint entropy, which dominates each marginal."""
    def rows(at, oa, ob, oc):
        two = ent.entropies_sequential(rho[at], oa, ob)
        three = ent.entropies_sequential_3(rho[at], oa, ob, oc)
        return (np.column_stack([two.s_a + two.s_b - two.s_joint, two.s_joint - two.s_a,
                                 two.s_joint - two.s_b,
                                 three.s_a + three.s_b + three.s_c - three.s_joint]),)

    slack = 1e-9 + _per_instance(rows, *map(spectral_resolutions, (a, b, c)))[0]
    return {"rho": rho, "A": a, "B": b}, list(zip(slack.T, (
        "subadditivity", "joint >= S_A", "joint >= S_B", "three-step subadditivity")))


@_property("strong-subadditivity", "rho", "A", "B", "C")
def check_strong_subadditivity(dim, rho, a, b, c):
    """S(A,B) + S(B,C) >= S(A,B,C) + S(B) for the three-step joint distribution."""
    def slack(at, oa, ob, oc):
        joint = wigner_joint(rho[at], oa, ob, oc)
        table = joint.table  # (instances, A, B, C)

        def entropy(p):
            return ent._distribution_entropy(p.reshape(len(at), -1))

        return (entropy(table.sum(axis=3)) + entropy(table.sum(axis=1)) - entropy(table)
                - entropy(joint.marginal(1)),)

    margins = 1e-9 + _per_instance(slack, *map(spectral_resolutions, (a, b, c)))[0]
    return {"rho": rho, "A": a, "B": b, "C": c}, [(margins, "")]


@_property("joint-entropy-floor", "rho", "A", "B")
def check_joint_entropy_floor(dim, rho, a, b):
    """The joint entropy never drops below the projector-overlap bound."""
    def slack(at, oa, ob):
        return (ent.entropies_sequential(rho[at], oa, ob).s_joint
                - bd.krishna_parthasarathy_bound(oa, ob),)

    margins = 1e-9 + _per_instance(slack, spectral_resolutions(a), spectral_resolutions(b))[0]
    return {"rho": rho, "A": a, "B": b}, [(margins, "")]


@_property("bound-ordering", "A", "B")
def check_bound_ordering(dim, a, b):
    """Sequential optimum >= Krishna-Parthasarathy/Maassen-Uffink >= Partovi/Deutsch.

    Maassen-Uffink and Deutsch need nondegenerate spectra; a degenerate pair
    has no such checks.
    """
    def rows(at, oa, ob):
        ls = bd.lambda_s_chain([oa, ob]).common_state
        kp = bd.krishna_parthasarathy_bound(oa, ob)
        ls_kp, kp_partovi = ls - kp, kp - bd.partovi_bound(oa, ob)
        if not (oa.is_nondegenerate and ob.is_nondegenerate):
            return (np.column_stack([ls_kp, np.full(len(at), math.inf), kp_partovi,
                                     np.full(len(at), math.inf)]),)
        mu = bd.maassen_uffink_bound(oa, ob)
        return (np.column_stack([ls_kp, ls - mu, kp_partovi, mu - bd.deutsch_bound(oa, ob)]),)

    slack = 1e-9 + _per_instance(rows, spectral_resolutions(a), spectral_resolutions(b))[0]
    return {"A": a, "B": b}, list(zip(slack.T, (
        "sequential >= KP", "sequential >= MU", "KP >= Partovi", "MU >= Deutsch")))


@_property("projector-norm-identity", "A", "B")
def check_projector_norm_identity(dim, a, b):
    """||PQ||^2 = ||PQP|| and 4 ||PQ||^2 <= ||P + Q||^2 for eigenprojector pairs."""
    _, p, p_present = _resolved(spectral_resolutions(a), dim)
    _, q, q_present = _resolved(spectral_resolutions(b), dim)
    checks = []
    for k in range(dim):
        pk = p[:, k, None]
        pq = pk @ q
        cross = operator_norm(pq) ** 2
        identity = 1e-10 - abs(cross - operator_norm(pq @ pk))
        inequality = 1e-10 + (0.25 * operator_norm(pk + q) ** 2 - cross)
        present = p_present[:, k, None] & q_present
        for j in range(dim):
            checks.append((_masked(identity[:, j], present[:, j]), "norm identity"))
            checks.append((_masked(inequality[:, j], present[:, j]), "norm inequality"))
    return {"A": a, "B": b}, checks


@_property("sequential-entropy-floor", "rho", "A", "B")
def check_sequential_entropy_floor(dim, rho, a, b):
    """The second measurement's entropy is at least the sequential optimum, any state."""
    def slack(at, oa, ob):
        return (ent.entropies_sequential(rho[at], oa, ob).s_b
                - bd.lambda_s_chain([oa, ob]).common_state,)

    margins = 1e-9 + _per_instance(slack, spectral_resolutions(a), spectral_resolutions(b))[0]
    return {"rho": rho, "A": a, "B": b}, [(margins, "")]


@_property("second-stage-dominance", "A", "B", "C")
def check_second_stage_dominance(dim, a, b, c):
    """Third-stage entropy bound >= second-stage bound (doubly stochastic mixing)."""
    def slack(at, oa, ob, oc):
        return (bd.lambda_s_chain([oa, ob, oc]).second_stage
                - bd.lambda_s_chain([oa, ob]).common_state,)

    margins = 1e-9 + _per_instance(slack, *map(spectral_resolutions, (a, b, c)))[0]
    return {"A": a, "B": b, "C": c}, [(margins, "")]


@_property("transition-doubly-stochastic", "B", "C")
def check_transition_doubly_stochastic(dim, b, c):
    """Squared-overlap matrices have unit row and column sums."""
    u, = _per_instance(lambda at, ob, oc: (bd.squared_overlaps(ob, oc),),
                       spectral_resolutions(b), spectral_resolutions(c))
    return {"U": u}, [(1e-9 - np.abs(u.sum(axis=1) - 1).max(axis=-1), "columns"),
                      (1e-9 - np.abs(u.sum(axis=2) - 1).max(axis=-1), "rows")]


@_property("variance-relations", "rho", "A", "B")
def check_variance_relations(dim, rho, a, b):
    """Commutator and sequential-covariance variance bounds; compressed observable commutes."""
    def relations(at, oa, ob):
        rep = ent.variance_relations(rho[at], oa, ob)
        return (np.column_stack([rep.var_a * rep.var_b - rep.robertson_rhs,
                                 rep.var_a_seq * rep.var_b_seq - rep.successive_rhs]),
                rep.c_of_b)

    slack, c_of_b = _per_instance(relations, spectral_resolutions(a), spectral_resolutions(b))
    slack = 1e-9 + slack
    return {"rho": rho, "A": a, "B": b}, [
        (slack[:, 0], "commutator bound"),
        (slack[:, 1], "sequential bound"),
        (1e-10 - operator_norm(a @ c_of_b - c_of_b @ a), "compressed commutation"),
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
