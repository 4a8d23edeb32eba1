"""Equilibria, optima, and price-of-anarchy curves for nonatomic routing games."""

from .costs import (
    Affine,
    AlphaSequence,
    Constant,
    CostFunction,
    ExpOverX,
    Monomial,
    Polynomial,
    PwlSquare,
    SaturatingLinear,
    Shifted,
    StepExp,
    StepGeometric,
    cost_from_spec,
    cost_to_spec,
)
from .errors import (
    ConvergenceError,
    DemandBracketError,
    DomainError,
    GameError,
    RangeOverflowError,
    UnsupportedCostError,
)
from .logdomain import LogValue
from .network import (
    Edge,
    FlowProfile,
    Network,
    build_parallel,
    edge_flows,
    load_network,
    network_from_spec,
    network_to_spec,
    social_cost,
)
from .equilibrium import (
    EquilibriumSolution,
    ResidualReport,
    verify_equilibrium,
    wardrop_equilibrium,
    wardrop_general,
    wardrop_parallel,
    wardrop_parallel_log,
)
from .optimum import (
    OptimumSolution,
    opt_bruteforce,
    opt_general_marginal,
    opt_parallel_exp_log,
    opt_parallel_marginal,
    opt_parallel_pwl_square,
    opt_parallel_step,
    social_optimum,
)
from .rv import (
    check_composition_rv,
    check_inverse_rv,
    check_product_and_integral_rv,
    check_scaling_identity,
    check_sum_rv,
    numeric_inverse,
    rv_index,
    rv_suite,
)
from .asymptotics import (
    TrendInstance,
    ExtremesReport,
    PoaCurve,
    PoaResult,
    PoaSample,
    bounded_path_experiment,
    extremes_estimate,
    poa,
    poa_sweep,
    rv_poa_experiment,
    shift_experiment,
    step_jump_value,
    step_game_closed_form,
    pwl_game_constants,
    pwl_game_poa_at_special_demand,
    exp_game_poa_near_breakpoint,
)
from .instances import (
    InstanceKind,
    classify,
    designated_limit_instances,
    exp_game,
    named_instance,
    pigou,
    pwl_game,
    step_breakpoints,
    step_game,
)

__version__ = "0.1.0"
