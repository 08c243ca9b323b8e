"""Step-reinforced random walks on finite groups: simulation and exact analysis."""

from .dist import DistributionVector, chi_distance, linf_distance, tv_distance, uniform_vector
from .errors import (
    CapacityError,
    ContractError,
    DomainError,
    ParameterError,
    ReducibilityError,
    SchemaError,
    SrrwError,
)
from .forest import (
    ClusterStats,
    ForestPath,
    cluster_statistics,
    expected_isolated_exact,
    forest_from_choices,
    grow_forest,
)
from .groups import (
    FiniteGroup,
    StepDistribution,
    conjugacy_classes,
    distribution_predicates,
    irreducibility_certificate,
    make_group,
    transition_matrix,
)
from .metrics import (
    DistanceCurve,
    MixingEstimate,
    decay_rate_fit,
    empirical_tv_estimator,
    mixing_time_scan,
    spectral_gap,
)
from .oracle import (
    enumerate_forests,
    exact_endpoint_distribution,
    exact_tv_curve,
    negative_correlation_check,
)
from .special import beta_n, cutoff_constant, hyp2f1_half, theta_k
from .streams import stream
from .walk import (
    WalkPath,
    conditional_kernel_product,
    sample_path_direct,
    sample_path_forest,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ClusterStats",
    "ContractError",
    "DistanceCurve",
    "DistributionVector",
    "DomainError",
    "FiniteGroup",
    "ForestPath",
    "MixingEstimate",
    "ParameterError",
    "ReducibilityError",
    "SchemaError",
    "SrrwError",
    "StepDistribution",
    "WalkPath",
    "beta_n",
    "chi_distance",
    "cluster_statistics",
    "conditional_kernel_product",
    "conjugacy_classes",
    "cutoff_constant",
    "decay_rate_fit",
    "distribution_predicates",
    "empirical_tv_estimator",
    "enumerate_forests",
    "exact_endpoint_distribution",
    "exact_tv_curve",
    "expected_isolated_exact",
    "forest_from_choices",
    "grow_forest",
    "hyp2f1_half",
    "irreducibility_certificate",
    "linf_distance",
    "make_group",
    "mixing_time_scan",
    "negative_correlation_check",
    "sample_path_direct",
    "sample_path_forest",
    "spectral_gap",
    "stream",
    "theta_k",
    "transition_matrix",
    "tv_distance",
    "uniform_vector",
]
