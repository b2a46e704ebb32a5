"""Exact solution families of the 2D isothermal Euler-Poisson equations.

Construction, orbit classification, and independent PDE-residual
verification of self-gravitating isothermal flows with uniform rotation,
their non-rotating collapse limit, compact-support profiles in N >= 3, and
the two-region spiral of the gamma = 2 Euler equations.
"""

__version__ = "0.1.0"

from .emden import (
    EmdenParams,
    OrbitClass,
    PeriodEstimate,
    ScaleRun,
    TurningPoints,
    classify,
    energy_level,
    equilibrium_radius,
    integrate_scale,
    period_by_quadrature,
    period_by_simulation,
    potential,
    turning_points,
)
from .fields import (
    FieldSample,
    RotSolution2D,
    SwirlAnsatz,
    ZZSolution,
    build_rotational,
    eval_gravity_radial,
    eval_gw,
    eval_rotational,
    eval_swirl_ansatz,
    eval_zz_inner,
    eval_zz_outer,
    zz_interface_radius,
)
from .goldreich_weber import (
    GWParams,
    GWProfile,
    alpha_const,
    gw_density,
    solve_gw_profile,
)
from .liouville import (
    LiouvilleParams,
    RadialProfile,
    enclosed_mass,
    momentum_bracket,
    solve_profile,
)
from .ode import (
    IntegratorConfig,
    IntegratorStats,
    OdeState,
    Trajectory,
    detect_events,
    integrate,
)
from .residuals import (
    ConvergenceResult,
    PressureLaw,
    convergence_study,
    flow_residuals,
    poisson_residual,
)
