"""Exact blame attribution for cooperative multi-agent MDPs."""

from .attribution import (METHODS, BlameAssignment, Pivotality,
                          average_participation, banzhaf,
                          marginal_contribution, mer, pivotality, shapley)
from .envs import GraphSpec, GridworldSpec, build_graph, build_gridworld
from .mmdp import (AgentPolicy, JointPolicy, Mmdp, evaluate_return,
                   load_model, load_policy, save_model, save_policy,
                   validate_mmdp)
from .planning import (BestResponse, CharacteristicGame, best_response,
                       characteristic_game, mmdp_from_game, optimal_joint)
from .properties import (PropertyVerdict, check_avg_efficiency,
                         check_contribution_monotonicity, check_cpart,
                         check_cperf, check_efficiency, check_invariance,
                         check_performance_monotonicity, check_rationality,
                         check_rcpart, check_symmetry, check_validity,
                         impossibility_fixture, random_monotone_game)
from .uncertainty import (UncertaintySet, ap_blackstone, bi_blackstone,
                          l1_distance, mc_blackstone, mer_blackstone,
                          robust_bounds, sample_center, sv_blackstone, sv_valid)

__version__ = "0.1.0"

__all__ = [
    "AgentPolicy", "BestResponse", "BlameAssignment", "CharacteristicGame",
    "GraphSpec", "GridworldSpec", "JointPolicy", "METHODS", "Mmdp",
    "Pivotality", "PropertyVerdict", "UncertaintySet", "__version__",
    "ap_blackstone", "average_participation", "banzhaf", "best_response",
    "bi_blackstone", "build_graph", "build_gridworld", "characteristic_game",
    "check_avg_efficiency", "check_contribution_monotonicity", "check_cpart",
    "check_cperf", "check_efficiency", "check_invariance",
    "check_performance_monotonicity", "check_rationality", "check_rcpart",
    "check_symmetry", "check_validity", "evaluate_return",
    "impossibility_fixture", "l1_distance", "load_model", "load_policy",
    "marginal_contribution", "mc_blackstone", "mer", "mer_blackstone",
    "mmdp_from_game", "optimal_joint", "pivotality", "random_monotone_game",
    "robust_bounds", "sample_center", "save_model", "save_policy", "shapley",
    "sv_blackstone", "sv_valid", "validate_mmdp",
]
