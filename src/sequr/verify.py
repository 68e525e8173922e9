"""Randomized self-verification of the library's identities and inequalities.

Each property draws a seeded ensemble of states and observables, evaluates an
identity or inequality the library must satisfy, and reports the worst margin
seen (a negative or NaN margin fails, tolerances already folded in). Output is
fully deterministic for a fixed seed, so reruns are byte-identical.

A property runs as array code: it draws up to ``STACK_INSTANCES`` instances at
a time, in the order a one-at-a-time loop would draw them, then stacks the
instances of each dimension and checks them together (one
``spectral_resolutions`` call per stack, stacked norms and products).
Functions under test that take ``Observable``s (the bounds, the entropies,
``wigner_joint``, ``luders_map``) are still called per instance, through
their modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds as bd
from . import entropy as ent
from . import qubit
from .linalg import eigh, operator_norm, spectral_resolutions
from .states import (
    interference_gap,
    luders_map,
    outcome_probabilities,
    pure_density,
    random_hermitian,
    random_state_vector,
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
    """The raw arrays of one instance, in the order of ``names``: ``rho`` is a
    random density operator, every other name a random Hermitian matrix."""
    return [_random_density(dim, rng) if name == "rho" else random_hermitian(dim, rng)
            for name in names]


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
    k = int(rng.integers(1, 4))
    weights = rng.dirichlet(np.ones(k))
    rho = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        rho += w * pure_density(random_state_vector(dim, rng))
    return rho


def _resolved(observables, dim):
    """Eigenvalues ``(n, dim)`` and projectors ``(n, dim, dim, dim)`` of each
    observable, zero past its outcomes, and the ``(n, dim)`` mask of the
    outcomes present."""
    values = np.zeros((len(observables), dim))
    projectors = np.zeros((len(observables), dim, dim, dim), dtype=complex)
    present = np.zeros((len(observables), dim), dtype=bool)
    for i, obs in enumerate(observables):
        values[i, :obs.n_outcomes] = obs.eigenvalues
        projectors[i, :obs.n_outcomes] = obs.projectors
        present[i, :obs.n_outcomes] = True
    return values, projectors, present


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
    errors = []
    for r, oa, ob in zip(rho, spectral_resolutions(a), spectral_resolutions(b)):
        pa, pb = wigner_joint(r, oa, ob).marginals()
        collapsed = luders_map(r, oa)
        errors.append((np.abs(pa - outcome_probabilities(r, oa)).max(),
                       np.abs(pb - outcome_probabilities(collapsed, ob)).max()))
    margins = 1e-12 - np.array(errors)
    return {"rho": rho, "A": a, "B": b}, list(zip(margins.T, ("first marginal",
                                                              "second marginal")))


@_property("luders-fixed-points", "rho", "A", "B")
def check_luders_fixed_points(dim, rho, a, b):
    """Collapse commutes with the projectors, is idempotent, and fixes commuting states."""
    obs_a = spectral_resolutions(a)
    once = np.stack([luders_map(r, oa) for r, oa in zip(rho, obs_a)])
    _, p, present = _resolved(obs_a, dim)
    commutators = once[:, None] @ p - p @ once[:, None]
    checks = [(_masked(1e-10 - operator_norm(commutators[:, k]), present[:, k]), "commutation")
              for k in range(dim)]
    twice = np.stack([luders_map(o, oa) for o, oa in zip(once, obs_a)])
    checks.append((1e-12 - operator_norm(twice - once), "idempotence"))
    # A state already diagonal in the first observable's eigenspaces is
    # untouched, so the later measurement sees no interference shift.
    gaps = [interference_gap(o, oa, ob)
            for o, oa, ob in zip(once, obs_a, spectral_resolutions(b))]
    checks.append((1e-10 - np.array(gaps), "interference"))
    return {"rho": rho, "A": a}, checks


@_property("sequential-entropy-identities", "rho", "A", "B")
def check_sequential_entropy_identities(dim, rho, a, b):
    """Sequential marginal entropies equal their distinct-measurement counterparts."""
    errors = []
    for r, oa, ob in zip(rho, spectral_resolutions(a), spectral_resolutions(b)):
        rep = ent.entropies_sequential(r, oa, ob)
        collapsed = luders_map(r, oa)
        errors.append((abs(rep.s_a - ent.entropy_distinct(r, oa)),
                       abs(rep.s_a - ent.entropy_distinct(collapsed, oa)),
                       abs(rep.s_b - ent.entropy_distinct(collapsed, ob))))
    margins = 1e-12 - np.array(errors)
    return {"rho": rho, "A": a, "B": b}, list(zip(margins.T, ("S_A direct", "S_A collapsed",
                                                              "S_B collapsed")))


@_property("joint-subadditivity", "rho", "A", "B", "C")
def check_joint_subadditivity(dim, rho, a, b, c):
    """Marginal entropy sums dominate the joint entropy, which dominates each marginal."""
    rows = []
    for r, oa, ob, oc in zip(rho, *map(spectral_resolutions, (a, b, c))):
        two = ent.entropies_sequential(r, oa, ob)
        three = ent.entropies_sequential_3(r, oa, ob, oc)
        rows.append((two.s_a + two.s_b - two.s_joint, two.s_joint - two.s_a,
                     two.s_joint - two.s_b, three.s_a + three.s_b + three.s_c - three.s_joint))
    slack = 1e-9 + np.array(rows)
    return {"rho": rho, "A": a, "B": b}, list(zip(slack.T, (
        "subadditivity", "joint >= S_A", "joint >= S_B", "three-step subadditivity")))


@_property("strong-subadditivity", "rho", "A", "B", "C")
def check_strong_subadditivity(dim, rho, a, b, c):
    """S(A,B) + S(B,C) >= S(A,B,C) + S(B) for the three-step joint distribution."""
    slack = []
    for r, oa, ob, oc in zip(rho, *map(spectral_resolutions, (a, b, c))):
        joint = wigner_joint(r, oa, ob, oc)
        s_abc = ent.shannon_entropy(joint.table)
        s_ab = ent.shannon_entropy(joint.table.sum(axis=2))
        s_bc = ent.shannon_entropy(joint.table.sum(axis=0))
        s_b = ent.shannon_entropy(joint.marginal(1))
        slack.append(s_ab + s_bc - s_abc - s_b)
    return {"rho": rho, "A": a, "B": b, "C": c}, [(1e-9 + np.array(slack), "")]


@_property("joint-entropy-floor", "rho", "A", "B")
def check_joint_entropy_floor(dim, rho, a, b):
    """The joint entropy never drops below the projector-overlap bound."""
    slack = [ent.entropies_sequential(r, oa, ob).s_joint - bd.krishna_parthasarathy_bound(oa, ob)
             for r, oa, ob in zip(rho, spectral_resolutions(a), spectral_resolutions(b))]
    return {"rho": rho, "A": a, "B": b}, [(1e-9 + np.array(slack), "")]


@_property("bound-ordering", "A", "B")
def check_bound_ordering(dim, a, b):
    """Sequential optimum >= Krishna-Parthasarathy/Maassen-Uffink >= Partovi/Deutsch."""
    rows = []
    for oa, ob in zip(spectral_resolutions(a), spectral_resolutions(b)):
        ls = bd.lambda_s_chain([oa, ob]).common_state
        kp = bd.krishna_parthasarathy_bound(oa, ob)
        mu = bd.maassen_uffink_bound(oa, ob)
        rows.append((ls - kp, ls - mu, kp - bd.partovi_bound(oa, ob),
                     mu - bd.deutsch_bound(oa, ob)))
    slack = 1e-9 + np.array(rows)
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
    slack = [ent.entropies_sequential(r, oa, ob).s_b - bd.lambda_s_chain([oa, ob]).common_state
             for r, oa, ob in zip(rho, spectral_resolutions(a), spectral_resolutions(b))]
    return {"rho": rho, "A": a, "B": b}, [(1e-9 + np.array(slack), "")]


@_property("second-stage-dominance", "A", "B", "C")
def check_second_stage_dominance(dim, a, b, c):
    """Third-stage entropy bound >= second-stage bound (doubly stochastic mixing)."""
    slack = [bd.lambda_s_chain([oa, ob, oc]).second_stage
             - bd.lambda_s_chain([oa, ob]).common_state
             for oa, ob, oc in zip(*map(spectral_resolutions, (a, b, c)))]
    return {"A": a, "B": b, "C": c}, [(1e-9 + np.array(slack), "")]


@_property("transition-doubly-stochastic", "B", "C")
def check_transition_doubly_stochastic(dim, b, c):
    """Squared-overlap matrices have unit row and column sums."""
    u = np.stack([bd.squared_overlaps(ob, oc)
                  for ob, oc in zip(spectral_resolutions(b), spectral_resolutions(c))])
    return {"U": u}, [(1e-9 - np.abs(u.sum(axis=1) - 1).max(axis=-1), "columns"),
                      (1e-9 - np.abs(u.sum(axis=2) - 1).max(axis=-1), "rows")]


@_property("variance-relations", "rho", "A", "B")
def check_variance_relations(dim, rho, a, b):
    """Commutator and sequential-covariance variance bounds; compressed observable commutes."""
    reports = [ent.variance_relations(r, oa, ob)
               for r, oa, ob in zip(rho, spectral_resolutions(a), spectral_resolutions(b))]
    c_of_b = np.stack([rep.c_of_b for rep in reports])
    slack = 1e-9 + np.array([(rep.var_a * rep.var_b - rep.robertson_rhs,
                              rep.var_a_seq * rep.var_b_seq - rep.successive_rhs)
                             for rep in reports])
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
