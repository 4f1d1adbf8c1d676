"""Finite-horizon control of linear systems with multiplicative noise.

State, input, and output spaces are truncations of separable Hilbert spaces;
dynamics and costs are stage-indexed operator families.  The library solves
indefinite linear-quadratic problems by backward operator recursions, decides
disturbance attenuation levels, synthesizes worst-case and mixed designs from
coupled recursions, and cross-checks every analytic value against exact or
Monte Carlo simulation.
"""

from .errors import (
    AssumptionError,
    BracketError,
    ControlError,
    CouplingSingularError,
    DesignInfeasibleError,
    DimensionError,
    DomainError,
    EnumerationLimitError,
    GameDomainError,
    NotSelfAdjointError,
    OracleScopeError,
    ParseError,
    ResolutionError,
)
from .spaces import HVector, Space, ell2, euclidean, inner, l2_interval, l2_line, norm, zero_vector
from .operators import (
    AdjointOperator,
    ComposeOperator,
    DenseOperator,
    DiagonalOperator,
    FillingOperator,
    GaussianConvolutionOperator,
    HeatSemigroupOperator,
    IdentityOperator,
    Operator,
    RightShiftOperator,
    ScaledOperator,
    SelfAdjointCert,
    SumOperator,
    ZeroOperator,
    min_eig_selfadjoint,
    opnorm,
    positivity_tolerance,
    weighted_symmetrize,
)
from .systems import (
    ControlledSystem,
    CostSpec,
    DisturbedSystem,
    OperatorFamily,
    TwoInputSystem,
    closed_loop,
)
from .riccati import (
    RiccatiSolution,
    STATUS_DOMAIN_FAILURE,
    STATUS_NOT_UNIFORMLY_POSITIVE,
    STATUS_SOLVED,
    solve_backward_riccati,
)
from .lq import (
    LQProblem,
    LQSolution,
    completing_square_check,
    excess_cost,
    expected_cost,
    optimal_policy,
    solve_lq,
)
from .hinf import (
    BoundedRealRun,
    NormEstimate,
    OracleNorm,
    brl_check,
    deterministic_norm_oracle,
    hinf_norm,
)
from .game import (
    CoupledSolution,
    DesignResult,
    GameParams,
    NashReport,
    game_costs,
    h2hinf_design,
    hinf_design,
    solve_coupled_riccati,
    verify_nash_equilibrium,
)
from .sim import (
    ENUMERATION_MAX_STEPS,
    ExactExpectation,
    MonteCarloExpectation,
    Policy,
    Trajectory,
    draw_noise_paths,
    enumerate_expectation,
    monte_carlo_expectation,
    sign_paths,
    simulate,
)
from .examples import EXAMPLE_IDS, ExampleReport, run_example
from .serialize import (
    cost_from_json,
    cost_to_json,
    parse_cost,
    parse_system,
    parse_vector,
    system_from_json,
    system_to_json,
    vector_from_json,
    vector_to_json,
)

__version__ = "0.1.0"
