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


class _Tracker:
    """Keeps the smallest margin and the context it occurred in."""

    def __init__(self):
        self.worst = math.inf
        self.detail = ""

    def add(self, margin: float, context: str) -> None:
        if margin < self.worst:
            self.worst = float(margin)
            self.detail = context

    def result(self, name: str, checked: int) -> PropertyResult:
        ok = self.worst >= 0.0
        return PropertyResult(name, ok, checked, self.worst,
                              "" if ok else self.detail)


def _dump(**arrays) -> str:
    parts = []
    for label, value in arrays.items():
        parts.append(f"{label}=\n{np.array2string(np.asarray(value), precision=6)}")
    return "\n".join(parts)


def _random_density(dim, rng):
    """Mixture of up to three random pure states (sometimes exactly pure)."""
    k = int(rng.integers(1, 4))
    weights = rng.dirichlet(np.ones(k))
    rho = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        rho += w * pure_density(random_state_vector(dim, rng))
    return rho


def _instance_dims(dims, instances):
    return [int(dims[i % len(dims)]) for i in range(instances)]


def check_spectral_resolution(seed, instances, dims) -> PropertyResult:
    """Reconstruction, projector orthogonality/idempotence, completeness, unit norms."""
    rng = np.random.default_rng(seed)
    t = _Tracker()
    for i, dim in enumerate(_instance_dims(dims, instances)):
        h = random_hermitian(dim, rng)
        obs = spectral_resolution(h)
        where = f"instance {i} dim {dim}\n" + _dump(H=h)
        scale = max(operator_norm(h), 1e-300)
        rebuilt = sum(a * p for a, p in zip(obs.eigenvalues, obs.projectors))
        t.add(1e-9 - operator_norm(rebuilt - h) / scale, "reconstruction " + where)
        t.add(1e-10 - operator_norm(sum(obs.projectors) - np.eye(dim)),
              "completeness " + where)
        for k, p in enumerate(obs.projectors):
            t.add(1e-10 - operator_norm(p @ p - p), "idempotence " + where)
            t.add(1e-9 - abs(operator_norm(p) - 1.0), "unit norm " + where)
            for q in obs.projectors[k + 1:]:
                t.add(1e-10 - operator_norm(p @ q), "orthogonality " + where)
    return t.result("spectral-resolution", instances)


def check_eigh_unitary_invariance(seed, instances, dims) -> PropertyResult:
    """Eigenvalues are invariant under conjugation with a random unitary."""
    rng = np.random.default_rng(seed)
    t = _Tracker()
    for i, dim in enumerate(_instance_dims(dims, instances)):
        h = random_hermitian(dim, rng)
        _, u = eigh(random_hermitian(dim, rng))
        before, _ = eigh(h)
        after, _ = eigh(u @ h @ u.conj().T)
        t.add(1e-9 - float(np.abs(before - after).max()),
              f"instance {i} dim {dim}\n" + _dump(H=h, U=u))
    return t.result("eigh-unitary-invariance", instances)


def check_wigner_marginals(seed, instances, dims) -> PropertyResult:
    """Joint-table marginals equal the direct and collapsed outcome distributions."""
    rng = np.random.default_rng(seed)
    t = _Tracker()
    for i, dim in enumerate(_instance_dims(dims, instances)):
        rho = _random_density(dim, rng)
        a, b = random_observable(dim, rng), random_observable(dim, rng)
        joint = wigner_joint(rho, a, b)
        pa, pb = joint.marginals()
        where = f"instance {i} dim {dim}\n" + _dump(rho=rho, A=a.matrix, B=b.matrix)
        t.add(1e-12 - float(np.abs(pa - outcome_probabilities(rho, a)).max()),
              "first marginal " + where)
        collapsed = luders_map(rho, a)
        t.add(1e-12 - float(np.abs(pb - outcome_probabilities(collapsed, b)).max()),
              "second marginal " + where)
    return t.result("wigner-marginals", instances)


def check_luders_fixed_points(seed, instances, dims) -> PropertyResult:
    """Collapse commutes with the projectors, is idempotent, and fixes commuting states."""
    rng = np.random.default_rng(seed)
    t = _Tracker()
    for i, dim in enumerate(_instance_dims(dims, instances)):
        rho = _random_density(dim, rng)
        a = random_observable(dim, rng)
        b = random_observable(dim, rng)
        once = luders_map(rho, a)
        where = f"instance {i} dim {dim}\n" + _dump(rho=rho, A=a.matrix)
        for p in a.projectors:
            t.add(1e-10 - operator_norm(once @ p - p @ once), "commutation " + where)
        t.add(1e-12 - operator_norm(luders_map(once, a) - once), "idempotence " + where)
        # A state already diagonal in the first observable's eigenspaces is
        # untouched, so the later measurement sees no interference shift.
        t.add(1e-10 - interference_gap(once, a, b), "interference " + where)
    return t.result("luders-fixed-points", instances)


def check_sequential_entropy_identities(seed, instances, dims) -> PropertyResult:
    """Sequential marginal entropies equal their distinct-measurement counterparts."""
    rng = np.random.default_rng(seed)
    t = _Tracker()
    for i, dim in enumerate(_instance_dims(dims, instances)):
        rho = _random_density(dim, rng)
        a, b = random_observable(dim, rng), random_observable(dim, rng)
        rep = ent.entropies_sequential(rho, a, b)
        collapsed = luders_map(rho, a)
        where = f"instance {i} dim {dim}\n" + _dump(rho=rho, A=a.matrix, B=b.matrix)
        t.add(1e-12 - abs(rep.s_a - ent.entropy_distinct(rho, a)), "S_A direct " + where)
        t.add(1e-12 - abs(rep.s_a - ent.entropy_distinct(collapsed, a)),
              "S_A collapsed " + where)
        t.add(1e-12 - abs(rep.s_b - ent.entropy_distinct(collapsed, b)),
              "S_B collapsed " + where)
    return t.result("sequential-entropy-identities", instances)


def check_joint_subadditivity(seed, instances, dims) -> PropertyResult:
    """Marginal entropy sums dominate the joint entropy, which dominates each marginal."""
    rng = np.random.default_rng(seed)
    t = _Tracker()
    for i, dim in enumerate(_instance_dims(dims, instances)):
        rho = _random_density(dim, rng)
        a, b, c = (random_observable(dim, rng) for _ in range(3))
        two = ent.entropies_sequential(rho, a, b)
        where = f"instance {i} dim {dim}\n" + _dump(rho=rho, A=a.matrix, B=b.matrix)
        t.add(1e-9 + (two.s_a + two.s_b - two.s_joint), "subadditivity " + where)
        t.add(1e-9 + (two.s_joint - two.s_a), "joint >= S_A " + where)
        t.add(1e-9 + (two.s_joint - two.s_b), "joint >= S_B " + where)
        three = ent.entropies_sequential_3(rho, a, b, c)
        t.add(1e-9 + (three.s_a + three.s_b + three.s_c - three.s_joint),
              "three-step subadditivity " + where)
    return t.result("joint-subadditivity", instances)


def check_strong_subadditivity(seed, instances, dims) -> PropertyResult:
    """S(A,B) + S(B,C) >= S(A,B,C) + S(B) for the three-step joint distribution."""
    rng = np.random.default_rng(seed)
    t = _Tracker()
    for i, dim in enumerate(_instance_dims(dims, instances)):
        rho = _random_density(dim, rng)
        a, b, c = (random_observable(dim, rng) for _ in range(3))
        joint = wigner_joint(rho, a, b, c)
        s_abc = ent.shannon_entropy(joint.table)
        s_ab = ent.shannon_entropy(joint.table.sum(axis=2))
        s_bc = ent.shannon_entropy(joint.table.sum(axis=0))
        s_b = ent.shannon_entropy(joint.marginal(1))
        t.add(1e-9 + (s_ab + s_bc - s_abc - s_b),
              f"instance {i} dim {dim}\n" + _dump(rho=rho, A=a.matrix, B=b.matrix,
                                                  C=c.matrix))
    return t.result("strong-subadditivity", instances)


def check_joint_entropy_floor(seed, instances, dims) -> PropertyResult:
    """The joint entropy never drops below the projector-overlap bound."""
    rng = np.random.default_rng(seed)
    t = _Tracker()
    for i, dim in enumerate(_instance_dims(dims, instances)):
        rho = _random_density(dim, rng)
        a, b = random_observable(dim, rng), random_observable(dim, rng)
        s_joint = ent.entropies_sequential(rho, a, b).s_joint
        t.add(1e-9 + (s_joint - bd.krishna_parthasarathy_bound(a, b)),
              f"instance {i} dim {dim}\n" + _dump(rho=rho, A=a.matrix, B=b.matrix))
    return t.result("joint-entropy-floor", instances)


def check_bound_ordering(seed, instances, dims) -> PropertyResult:
    """Sequential optimum >= Krishna-Parthasarathy/Maassen-Uffink >= Partovi/Deutsch."""
    rng = np.random.default_rng(seed)
    t = _Tracker()
    for i, dim in enumerate(_instance_dims(dims, instances)):
        a, b = random_observable(dim, rng), random_observable(dim, rng)
        where = f"instance {i} dim {dim}\n" + _dump(A=a.matrix, B=b.matrix)
        ls = bd.lambda_s_two(a, b)
        kp = bd.krishna_parthasarathy_bound(a, b)
        mu = bd.maassen_uffink_bound(a, b)
        t.add(1e-9 + (ls - kp), "sequential >= KP " + where)
        t.add(1e-9 + (ls - mu), "sequential >= MU " + where)
        t.add(1e-9 + (kp - bd.partovi_bound(a, b)), "KP >= Partovi " + where)
        t.add(1e-9 + (mu - bd.deutsch_bound(a, b)), "MU >= Deutsch " + where)
    return t.result("bound-ordering", instances)


def check_projector_norm_identity(seed, instances, dims) -> PropertyResult:
    """||PQ||^2 = ||PQP|| and 4 ||PQ||^2 <= ||P + Q||^2 for eigenprojector pairs."""
    rng = np.random.default_rng(seed)
    t = _Tracker()
    for i, dim in enumerate(_instance_dims(dims, instances)):
        a, b = random_observable(dim, rng), random_observable(dim, rng)
        where = f"instance {i} dim {dim}\n" + _dump(A=a.matrix, B=b.matrix)
        for p in a.projectors:
            for q in b.projectors:
                cross = operator_norm(p @ q) ** 2
                t.add(1e-10 - abs(cross - operator_norm(p @ q @ p)),
                      "norm identity " + where)
                t.add(1e-10 + (0.25 * operator_norm(p + q) ** 2 - cross),
                      "norm inequality " + where)
    return t.result("projector-norm-identity", instances)


def check_sequential_entropy_floor(seed, instances, dims) -> PropertyResult:
    """The second measurement's entropy is at least the sequential optimum, any state."""
    rng = np.random.default_rng(seed)
    t = _Tracker()
    for i, dim in enumerate(_instance_dims(dims, instances)):
        rho = _random_density(dim, rng)
        a, b = random_observable(dim, rng), random_observable(dim, rng)
        s_b = ent.entropies_sequential(rho, a, b).s_b
        t.add(1e-9 + (s_b - bd.lambda_s_two(a, b)),
              f"instance {i} dim {dim}\n" + _dump(rho=rho, A=a.matrix, B=b.matrix))
    return t.result("sequential-entropy-floor", instances)


def check_second_stage_dominance(seed, instances, dims) -> PropertyResult:
    """Third-stage entropy bound >= second-stage bound (doubly stochastic mixing)."""
    rng = np.random.default_rng(seed)
    t = _Tracker()
    for i, dim in enumerate(_instance_dims(dims, instances)):
        a, b, c = (random_observable(dim, rng) for _ in range(3))
        triple = bd.lambda_s_three(a, b, c)
        t.add(1e-9 + (triple.second_stage - bd.lambda_s_two(a, b)),
              f"instance {i} dim {dim}\n" + _dump(A=a.matrix, B=b.matrix, C=c.matrix))
    return t.result("second-stage-dominance", instances)


def check_transition_doubly_stochastic(seed, instances, dims) -> PropertyResult:
    """Squared-overlap matrices have unit row and column sums."""
    rng = np.random.default_rng(seed)
    t = _Tracker()
    for i, dim in enumerate(_instance_dims(dims, instances)):
        b, c = random_observable(dim, rng), random_observable(dim, rng)
        u = bd.squared_overlaps(b, c)
        where = f"instance {i} dim {dim}\n" + _dump(U=u)
        t.add(1e-9 - float(np.abs(u.sum(axis=0) - 1).max()), "columns " + where)
        t.add(1e-9 - float(np.abs(u.sum(axis=1) - 1).max()), "rows " + where)
    return t.result("transition-doubly-stochastic", instances)


def check_variance_relations(seed, instances, dims) -> PropertyResult:
    """Commutator and sequential-covariance variance bounds; compressed observable commutes."""
    rng = np.random.default_rng(seed)
    t = _Tracker()
    for i, dim in enumerate(_instance_dims(dims, instances)):
        rho = _random_density(dim, rng)
        a, b = random_observable(dim, rng), random_observable(dim, rng)
        rep = ent.variance_relations(rho, a, b)
        where = f"instance {i} dim {dim}\n" + _dump(rho=rho, A=a.matrix, B=b.matrix)
        t.add(1e-9 + (rep.var_a * rep.var_b - rep.robertson_rhs),
              "commutator bound " + where)
        t.add(1e-9 + (rep.var_a_seq * rep.var_b_seq - rep.successive_rhs),
              "sequential bound " + where)
        comm = a.matrix @ rep.c_of_b - rep.c_of_b @ a.matrix
        t.add(1e-10 - operator_norm(comm), "compressed commutation " + where)
    return t.result("variance-relations", instances)


def check_qubit_bound_chain(seed, instances, dims) -> PropertyResult:
    """Bound ordering on the spin-component angle grid (5 degree steps)."""
    del seed, instances, dims  # deterministic closed forms; no sampling
    t = _Tracker()
    degrees = range(0, 181, 5)
    for d in degrees:
        p = qubit.curve_point(math.radians(d))
        t.add(1e-6 + (p.lambda_s - p.lambda_d), f"sequential >= optimal at {d} deg")
        t.add(1e-6 + (p.lambda_d - p.lambda_d2), f"optimal >= MU at {d} deg")
        t.add(1e-6 + (p.lambda_d2 - 2.0 * p.lambda_d1), f"MU >= 2 Deutsch at {d} deg")
    return t.result("qubit-bound-chain", len(degrees))


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
