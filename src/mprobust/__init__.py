"""Multiparametric robust solution sets for 0-1 combinatorial problems.

Given a combinatorial minimization whose costs live in a locally budgeted
uncertainty set parameterized by a budget vector, the package computes a
small solution set such that for every budget vector in a chosen domain
(box, segment, or budgeted polytope) some member is within epsilon of the
robust optimum.  It solves LPs and MILPs exactly with HiGHS through scipy,
and holds the cutting-plane masters, shortest-path and p-median instance
generators, brute-force verification oracles, and a CLI harness.
"""

from .milp import (
    LE, EQ, GE,
    MilpModel, ModelBuilder, MilpSolution, SolverConfig,
    ModelError, SolverLimitError, SolverNumericalError,
    solve_lp, solve_milp, relax_binaries, register_backend,
    write_mps,
)
from .uncertainty import (
    Instance, OmegaSpec,
    robustness_value, robustness_value_variant, robustness_values,
    contains, sample_gamma, solution_signature, verify_feasible,
)
from .robust import (
    RobustSolution, TuIntegralityError,
    build_robust_milp, build_robust_variant_milp, solve_robust,
)
from .engine import (
    Budget, HistoryEntry, MprsResult, NominalMprsResult,
    build_q_general, build_q_interval, build_q_variant,
    build_nominal_q_plus,
    run_aq, run_multiparametric_nominal, pick_best,
)
from .generators import (
    GenerationError, SpParams, PlmParams, PartitionScheme,
    gen_sp, gen_plm, partition, apply_partition, build_omega,
)
from .oracle import (
    PiEnumerationOracle, cost_for_pi,
    enumerate_x, brute_robust, robustness_matrix, nominal_minimize,
    exact_mprs_by_pi_enumeration, piecewise_f, piecewise_breakpoints,
    toy_instance,
)

__all__ = [
    "LE", "EQ", "GE",
    "MilpModel", "ModelBuilder", "MilpSolution", "SolverConfig",
    "ModelError", "SolverLimitError", "SolverNumericalError",
    "solve_lp", "solve_milp", "relax_binaries", "register_backend",
    "write_mps",
    "Instance", "OmegaSpec",
    "robustness_value", "robustness_value_variant", "robustness_values",
    "contains", "sample_gamma", "solution_signature", "verify_feasible",
    "RobustSolution", "TuIntegralityError",
    "build_robust_milp", "build_robust_variant_milp", "cost_for_pi", "solve_robust",
    "Budget", "HistoryEntry", "MprsResult", "NominalMprsResult",
    "build_q_general", "build_q_interval", "build_q_variant",
    "build_nominal_q_plus",
    "run_aq", "run_multiparametric_nominal", "pick_best",
    "GenerationError", "SpParams", "PlmParams", "PartitionScheme",
    "gen_sp", "gen_plm", "partition", "apply_partition", "build_omega",
    "PiEnumerationOracle",
    "enumerate_x", "brute_robust", "robustness_matrix", "nominal_minimize",
    "exact_mprs_by_pi_enumeration", "piecewise_f", "piecewise_breakpoints",
    "toy_instance",
]

__version__ = "0.1.0"
