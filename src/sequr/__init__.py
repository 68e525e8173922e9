"""Entropic uncertainty bounds for distinct and sequential projective measurements."""

from .bounds import (
    ChainBound,
    deutsch_bound,
    is_complementary,
    krishna_parthasarathy_bound,
    lambda_s_chain,
    maassen_uffink_bound,
    partovi_bound,
    squared_overlaps,
)
from .entropy import (
    EntropyReport,
    VarianceReport,
    entropies_sequential,
    entropies_sequential_3,
    entropy_distinct,
    shannon_entropy,
    variance_relations,
)
from .errors import DimensionMismatch, OptimizerFailure, ScenarioError
from .linalg import Observable, eigh, operator_norm, spectral_resolution, spectral_resolutions
from .optimize import (
    OptimizerConfig,
    OptimizerResult,
    lambda_d_numeric,
    lambda_s_chain_numeric,
    minimize_in_subspace,
    minimize_over_pure_states,
)
from .qubit import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    ThetaCurvePoint,
    curve_point,
    deutsch_theta,
    lambda_s_theta,
    mu_theta,
    sanchez_ruiz_theta,
    spin_observable,
    table1,
    theta_star,
)
from .scenario import Scenario, load_scenario, parse_scenario
from .states import (
    JointDistribution,
    check_density,
    interference_gap,
    luders_map,
    outcome_probabilities,
    pure_density,
    random_observable,
    random_state,
    sample_sequence,
    wigner_joint,
)

__version__ = "0.1.0"
