"""Pseudo-spectral ideal MHD on the 3-torus with Gevrey-class diagnostics.

Evolves the velocity/magnetic pair, tracks directional Gevrey norms and an
analyticity-radius ODE, and ships a verification lab that checks the
trilinear identities, inequalities and energy balance behind the radius
estimates by brute-force triad summation.
"""

from .norms import (
    GevreyParams,
    NormRecord,
    RadiusFitError,
    fit_radius,
    gevrey_norm,
    shell_maxima,
    sobolev_norm,
    state_norms,
    sup_gradient,
)
from .operators import (
    MultiplierError,
    MultiplierSpec,
    advect,
    biot_savart,
    curl,
    hilbert_sign,
    inner_l2,
    inner_weighted,
    lambda_apply,
    multiplier_weights,
)
from .radius import (
    RadiusCollapse,
    RadiusModel,
    RadiusTracker,
    bernoulli_tau,
    cumulative_integral,
    estimate_C_tilde,
    gronwall_majorant,
    hr_growth_bound,
    integrate_radius,
    radius_lower_bound,
    radius_rhs,
)
from .solver import (
    DiagnosticsRecord,
    RunResult,
    StepError,
    cfl_timestep,
    cross_helicity,
    energy,
    rhs_curl,
    rhs_primitive,
    run,
    step_rk4,
)
from .spectral import (
    Grid,
    GridError,
    MHDState,
    SpectralField,
    dealias,
    from_physical,
    init_state,
    leray_project,
    mode_field,
    orszag_tang_3d,
    random_band,
    random_band_field,
    symmetrize,
    taylor_green_mhd,
    to_physical,
)

__version__ = "0.1.0"
