"""Zeno products, path-decomposed propagators, half-line boundary dynamics,
and time-of-arrival densities for nonrelativistic quantum mechanics."""

from .arrival import (
    ArrivalDistribution,
    CapturedMassExcess,
    ConvergenceAdvisory,
    MomentumState,
    arrival_moments,
    converged_window,
    current_density_at_origin,
    flux_l1_distance,
    gaussian_momentum_state,
    kijowski_density,
    momentum_grid,
    smeared_density,
)
from .halfline import (
    NEUMANN,
    GaussianPacket,
    HalfLineSystem,
    LinePdxParts,
    SpatialGrid,
    WaveFunction,
    gaussian_packet,
    grid_zeno_product,
    halfline_eigensystem,
    halfline_norm,
    line_pdx_ladder,
    production_route,
    restricted_propagate,
    spectral_evolve_line,
)
from .histories import (
    BetaScanRow,
    ConsistencyVerdict,
    beta_condition_scan,
    boundary_condition_residuals,
    history_sweep,
    mirror_beta,
    reflection_safe_horizon,
    robin_state_builder,
)
from .qcore import (
    DecoherenceMatrix,
    DomainError,
    NoGoReport,
    Operator,
    PdxTerms,
    TwoStateSystem,
    ZenoSchedule,
    conjugate_time_no_go,
    decoherence_functional,
    decomposition_of_unity_residual,
    evolve,
    pdot,
    pdx_assemble,
    zeno_limit_richardson,
    zeno_product,
)

__version__ = "0.1.0"
