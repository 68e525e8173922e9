"""Randomized self-verification of the library's identities and inequalities.

Each property draws a seeded ensemble of states and observables, evaluates an
identity or inequality the library must satisfy, and reports the worst margin
seen (a negative margin fails, tolerances already folded in). Output is fully
deterministic for a fixed seed, so reruns are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds as bd
from . import entropy as ent
from . import qubit
from .linalg import eigh, operator_norm, spectral_resolution
from .states import (
    interference_gap,
    luders_map,
    outcome_probabilities,
    pure_density,
    random_hermitian,
    random_observable,
    random_state_vector,
    wigner_joint,
)


@dataclass(frozen=True)
class PropertyResult:
    name: str
    ok: bool
    checked: int
    worst: float  # smallest margin encountered; negative fails
    detail: str = ""  # counterexample context for the worst margin


def _result(name: str, checked: int, margins, describe) -> PropertyResult:
    """Result of a stream of ``(margin, where)`` pairs.

    The smallest margin is kept, the first one on a tie. ``describe(where)``
    formats the counterexample and runs only when that margin is negative.
    """
    worst, where = math.inf, None
    for margin, at in margins:
        if margin < worst:
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


def _property(name: str):
    """Turn a per-instance body into a seeded property ``(seed, instances, dims) -> result``.

    ``body(dim, rng)`` draws one instance from ``rng`` and returns
    ``(arrays, checks)``: the named arrays that describe the instance and its
    ``(margin, label)`` pairs. Instance ``i`` has dimension ``dims[i % len(dims)]``.
    """
    def decorate(body):
        def run(seed, instances, dims) -> PropertyResult:
            rng = np.random.default_rng(seed)

            def margins():
                for i in range(instances):
                    dim = int(dims[i % len(dims)])
                    arrays, checks = body(dim, rng)
                    for margin, label in checks:
                        yield margin, (label, i, dim, arrays)

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


@_property("spectral-resolution")
def check_spectral_resolution(dim, rng):
    """Reconstruction, projector orthogonality/idempotence, completeness, unit norms."""
    h = random_hermitian(dim, rng)
    obs = spectral_resolution(h)
    scale = max(operator_norm(h), 1e-300)
    rebuilt = sum(a * p for a, p in zip(obs.eigenvalues, obs.projectors))
    checks = [(1e-9 - operator_norm(rebuilt - h) / scale, "reconstruction"),
              (1e-10 - operator_norm(sum(obs.projectors) - np.eye(dim)), "completeness")]
    for k, p in enumerate(obs.projectors):
        checks.append((1e-10 - operator_norm(p @ p - p), "idempotence"))
        checks.append((1e-9 - abs(operator_norm(p) - 1.0), "unit norm"))
        checks += [(1e-10 - operator_norm(p @ q), "orthogonality")
                   for q in obs.projectors[k + 1:]]
    return {"H": h}, checks


@_property("eigh-unitary-invariance")
def check_eigh_unitary_invariance(dim, rng):
    """Eigenvalues are invariant under conjugation with a random unitary."""
    h = random_hermitian(dim, rng)
    _, u = eigh(random_hermitian(dim, rng))
    before, _ = eigh(h)
    after, _ = eigh(u @ h @ u.conj().T)
    return {"H": h, "U": u}, [(1e-9 - float(np.abs(before - after).max()), "")]


@_property("wigner-marginals")
def check_wigner_marginals(dim, rng):
    """Joint-table marginals equal the direct and collapsed outcome distributions."""
    rho = _random_density(dim, rng)
    a, b = random_observable(dim, rng), random_observable(dim, rng)
    pa, pb = wigner_joint(rho, a, b).marginals()
    collapsed = luders_map(rho, a)
    return {"rho": rho, "A": a.matrix, "B": b.matrix}, [
        (1e-12 - float(np.abs(pa - outcome_probabilities(rho, a)).max()), "first marginal"),
        (1e-12 - float(np.abs(pb - outcome_probabilities(collapsed, b)).max()),
         "second marginal"),
    ]


@_property("luders-fixed-points")
def check_luders_fixed_points(dim, rng):
    """Collapse commutes with the projectors, is idempotent, and fixes commuting states."""
    rho = _random_density(dim, rng)
    a = random_observable(dim, rng)
    b = random_observable(dim, rng)
    once = luders_map(rho, a)
    checks = [(1e-10 - operator_norm(once @ p - p @ once), "commutation")
              for p in a.projectors]
    checks.append((1e-12 - operator_norm(luders_map(once, a) - once), "idempotence"))
    # A state already diagonal in the first observable's eigenspaces is
    # untouched, so the later measurement sees no interference shift.
    checks.append((1e-10 - interference_gap(once, a, b), "interference"))
    return {"rho": rho, "A": a.matrix}, checks


@_property("sequential-entropy-identities")
def check_sequential_entropy_identities(dim, rng):
    """Sequential marginal entropies equal their distinct-measurement counterparts."""
    rho = _random_density(dim, rng)
    a, b = random_observable(dim, rng), random_observable(dim, rng)
    rep = ent.entropies_sequential(rho, a, b)
    collapsed = luders_map(rho, a)
    return {"rho": rho, "A": a.matrix, "B": b.matrix}, [
        (1e-12 - abs(rep.s_a - ent.entropy_distinct(rho, a)), "S_A direct"),
        (1e-12 - abs(rep.s_a - ent.entropy_distinct(collapsed, a)), "S_A collapsed"),
        (1e-12 - abs(rep.s_b - ent.entropy_distinct(collapsed, b)), "S_B collapsed"),
    ]


@_property("joint-subadditivity")
def check_joint_subadditivity(dim, rng):
    """Marginal entropy sums dominate the joint entropy, which dominates each marginal."""
    rho = _random_density(dim, rng)
    a, b, c = (random_observable(dim, rng) for _ in range(3))
    two = ent.entropies_sequential(rho, a, b)
    three = ent.entropies_sequential_3(rho, a, b, c)
    return {"rho": rho, "A": a.matrix, "B": b.matrix}, [
        (1e-9 + (two.s_a + two.s_b - two.s_joint), "subadditivity"),
        (1e-9 + (two.s_joint - two.s_a), "joint >= S_A"),
        (1e-9 + (two.s_joint - two.s_b), "joint >= S_B"),
        (1e-9 + (three.s_a + three.s_b + three.s_c - three.s_joint),
         "three-step subadditivity"),
    ]


@_property("strong-subadditivity")
def check_strong_subadditivity(dim, rng):
    """S(A,B) + S(B,C) >= S(A,B,C) + S(B) for the three-step joint distribution."""
    rho = _random_density(dim, rng)
    a, b, c = (random_observable(dim, rng) for _ in range(3))
    joint = wigner_joint(rho, a, b, c)
    s_abc = ent.shannon_entropy(joint.table)
    s_ab = ent.shannon_entropy(joint.table.sum(axis=2))
    s_bc = ent.shannon_entropy(joint.table.sum(axis=0))
    s_b = ent.shannon_entropy(joint.marginal(1))
    return ({"rho": rho, "A": a.matrix, "B": b.matrix, "C": c.matrix},
            [(1e-9 + (s_ab + s_bc - s_abc - s_b), "")])


@_property("joint-entropy-floor")
def check_joint_entropy_floor(dim, rng):
    """The joint entropy never drops below the projector-overlap bound."""
    rho = _random_density(dim, rng)
    a, b = random_observable(dim, rng), random_observable(dim, rng)
    s_joint = ent.entropies_sequential(rho, a, b).s_joint
    return ({"rho": rho, "A": a.matrix, "B": b.matrix},
            [(1e-9 + (s_joint - bd.krishna_parthasarathy_bound(a, b)), "")])


@_property("bound-ordering")
def check_bound_ordering(dim, rng):
    """Sequential optimum >= Krishna-Parthasarathy/Maassen-Uffink >= Partovi/Deutsch."""
    a, b = random_observable(dim, rng), random_observable(dim, rng)
    ls = bd.lambda_s_two(a, b)
    kp = bd.krishna_parthasarathy_bound(a, b)
    mu = bd.maassen_uffink_bound(a, b)
    return {"A": a.matrix, "B": b.matrix}, [
        (1e-9 + (ls - kp), "sequential >= KP"),
        (1e-9 + (ls - mu), "sequential >= MU"),
        (1e-9 + (kp - bd.partovi_bound(a, b)), "KP >= Partovi"),
        (1e-9 + (mu - bd.deutsch_bound(a, b)), "MU >= Deutsch"),
    ]


@_property("projector-norm-identity")
def check_projector_norm_identity(dim, rng):
    """||PQ||^2 = ||PQP|| and 4 ||PQ||^2 <= ||P + Q||^2 for eigenprojector pairs."""
    a, b = random_observable(dim, rng), random_observable(dim, rng)
    checks = []
    for p in a.projectors:
        for q in b.projectors:
            cross = operator_norm(p @ q) ** 2
            checks.append((1e-10 - abs(cross - operator_norm(p @ q @ p)), "norm identity"))
            checks.append((1e-10 + (0.25 * operator_norm(p + q) ** 2 - cross),
                           "norm inequality"))
    return {"A": a.matrix, "B": b.matrix}, checks


@_property("sequential-entropy-floor")
def check_sequential_entropy_floor(dim, rng):
    """The second measurement's entropy is at least the sequential optimum, any state."""
    rho = _random_density(dim, rng)
    a, b = random_observable(dim, rng), random_observable(dim, rng)
    s_b = ent.entropies_sequential(rho, a, b).s_b
    return ({"rho": rho, "A": a.matrix, "B": b.matrix},
            [(1e-9 + (s_b - bd.lambda_s_two(a, b)), "")])


@_property("second-stage-dominance")
def check_second_stage_dominance(dim, rng):
    """Third-stage entropy bound >= second-stage bound (doubly stochastic mixing)."""
    a, b, c = (random_observable(dim, rng) for _ in range(3))
    triple = bd.lambda_s_three(a, b, c)
    return ({"A": a.matrix, "B": b.matrix, "C": c.matrix},
            [(1e-9 + (triple.second_stage - bd.lambda_s_two(a, b)), "")])


@_property("transition-doubly-stochastic")
def check_transition_doubly_stochastic(dim, rng):
    """Squared-overlap matrices have unit row and column sums."""
    b, c = random_observable(dim, rng), random_observable(dim, rng)
    u = bd.squared_overlaps(b, c)
    return {"U": u}, [(1e-9 - float(np.abs(u.sum(axis=0) - 1).max()), "columns"),
                      (1e-9 - float(np.abs(u.sum(axis=1) - 1).max()), "rows")]


@_property("variance-relations")
def check_variance_relations(dim, rng):
    """Commutator and sequential-covariance variance bounds; compressed observable commutes."""
    rho = _random_density(dim, rng)
    a, b = random_observable(dim, rng), random_observable(dim, rng)
    rep = ent.variance_relations(rho, a, b)
    comm = a.matrix @ rep.c_of_b - rep.c_of_b @ a.matrix
    return {"rho": rho, "A": a.matrix, "B": b.matrix}, [
        (1e-9 + (rep.var_a * rep.var_b - rep.robertson_rhs), "commutator bound"),
        (1e-9 + (rep.var_a_seq * rep.var_b_seq - rep.successive_rhs), "sequential bound"),
        (1e-10 - operator_norm(comm), "compressed commutation"),
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
