"""Numerical lab for half-scale renormalization dynamics of unstable
free-boundary singular points: sphere moments of indicator sources, the
correction's scale projections, and trajectory classification of the
induced map on normal-form quadratics."""

__version__ = "0.12.1"

from .correction import (
    CorrectionDecomposition,
    explicit_solution_2d,
    fourier_series_2d,
    from_fourier_block,
    reconstruct,
    scale_projection,
)
from .errors import (
    BlowupLabError,
    ConditioningWarning,
    CoverageError,
    DegeneracyError,
    DomainError,
    EscapeError,
    EvaluationError,
    QuadratureConvergenceWarning,
)
from .gridproj import ProjectionResult, SampledField, half_step_empirical, project
from .moments import (
    InnerSlabResult,
    MomentSet,
    compute_moments,
    fourier_block2,
    inner_slab_integral,
    quartic_moment_eigenvalues,
    quartic_moment_matrix,
)
from .quadratic import (
    DeltaState,
    HarmonicQuadratic,
    diagonalize,
    make_p_delta,
    sup_norm_ball,
)
from .renorm import (
    MapConfig,
    MonotonicityReport,
    TrajectoryRecord,
    calibrate_threshold_constant,
    check_monotonicity,
    half_step,
    iterate,
    sweep,
)
from .sphere import (
    McEstimate,
    SphereRule,
    build_rule,
    integrate,
    integrate_indicator_quadratic,
    mc_integrate,
    surface_area,
)
