"""Numerical laboratory for sine-Gordon and phi^4 kink dynamics.

Closed-form solutions (kinks, breathers, wobblers, the kink-plus-breather
family), the first-order transform linking vacuum and kink neighborhoods with
its lifting/descent solvers, linearized operators and their spectra,
conservative leapfrog evolution, and shift-modulation diagnostics.
"""

__version__ = "0.1.0"

from .grids import (
    ContractError,
    FieldState,
    GridSpec,
    Model,
    ParameterError,
    PerturbationPair,
    PHI4,
    SINE_GORDON,
    SolverError,
    WeightSpec,
    derivative,
    energy,
    local_energy_norm,
    momentum,
    parity_check,
    pde_residual,
    quadrature,
    weighted_norm_sq,
)
from .solutions import (
    KinkParams,
    SolutionSampler,
    ThreeSolitonParams,
    WobblerParams,
    breather,
    final_speed_from_delta,
    final_speed_from_momentum,
    kink,
    kink_profile,
    linear_mode,
    manifold_momentum,
    multiplier_from_speed,
    phi4_kink,
    three_soliton,
    two_kink,
    wobbler,
    zero_sampler,
)
from .backlund import (
    LiftReport,
    bt_pair_residual,
    construct_manifold_data,
    descend_kink_to_zero,
    descend_wobbler_to_breather,
    lift_breather_to_wobbler,
    lift_with_orthogonality,
    lift_zero_to_kink,
    tilde_residual,
)
from .spectra import (
    SchrodingerOperator,
    discrete_spectrum,
    kink_phi4_dual_operator,
    kink_phi4_operator,
    kink_sg_operator,
    lbt_residual_phi4,
    lbt_residual_phi4_dual,
    lbt_residual_sg,
)
from .evolution import EvolveConfig, KinkFrame, Trajectory, evolve
from .modulation import (
    ModulationRecord,
    TubeExitError,
    convergence_classifier,
    rho_rate_check,
    stilde_bound_check,
    track_modulation,
)
