"""Channel modeling and optimization for MIMO links relayed through cascaded
reconfigurable surfaces, with the structural scattering term kept in."""

from .cascade import (
    CascadeChannels,
    ScatteringStack,
    SideLinks,
    assemble,
    assemble_physics_channel,
    assemble_widely_used,
    cascade_from_network,
)
from .fading import (
    FadingSpec,
    LosLink,
    draw_cascades,
    draw_los_cascades,
    gen_cascade,
    gen_link,
    gen_los_link,
    gen_rayleigh_link,
    gen_rician_link,
)
from .harness import (
    ExperimentSpec,
    GainStats,
    GainTable,
    emit,
    figure_preset,
    preset_names,
    run_experiment,
)
from .multiport import (
    Dimensions,
    MultiportNetwork,
    RisLoadStack,
    channel_z,
    normalize_z_to_channel,
    scattering_to_z,
    z_to_scattering,
)
from .optimize import (
    InnerProblemData,
    OptimizationResult,
    OptimizerConfig,
    alg1_batch,
    alg1_optimize,
    channel_gain,
    dominant_singular_pair,
    inner_solve_diagonal,
    inner_solve_unitary,
    los_gains,
    los_optimal_phases_physics,
    los_optimal_phases_widely,
    spectral_norm,
    upper_bound_physics,
    upper_bound_widely,
)
from .rng import RandomStream
from .scaling import (
    estimate_mean_sq_singular_values,
    expected_gain_physics_los,
    expected_gain_suboptimal_los,
    expected_gain_widely_los,
    mc_normalized_gain,
    mc_relative_difference,
    normalized_gain_los,
    relative_difference_los,
    structural_scattering_strength,
)

__version__ = "0.1.0"
