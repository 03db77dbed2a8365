"""Numerical verification toolkit for harmonic-curvature 4-metrics."""

from .errors import (
    Curv4Error,
    DegenerateFrameError,
    DomainError,
    InconsistencyError,
    InputError,
    IntegrationError,
    PreconditionError,
)
from .numerics import (
    DEFAULT_STENCIL,
    EigenResult,
    Jet,
    RankResult,
    StencilConfig,
    central_diff,
    numerical_rank,
    sym_eigen,
)
from .tensor4 import (
    WeylSplit,
    bivector_frame,
    curvature_symmetrize,
    curvature_tensor,
    frame_components,
    kulkarni_nomizu,
    ricci_contract,
    sd_split,
    weyl_from_curv,
)
from .chart import (
    DEFAULT_TOLS,
    ChartFamily,
    CurvatureField,
    HarmonicityReport,
    MetricChart,
    christoffel,
    codazzi_residual,
    contracted_bianchi_residual,
    curvature_at,
    div_riemann_norm,
    div_weyl_norm,
    harmonicity_report,
    metric_norm,
    sample_points,
    scalar_gradient_norm,
)
from .frames import (
    InvariantCounts,
    RicciFrame,
    StructureData,
    cluster_count,
    cluster_indices,
    curvature_from_structure,
    extract_frame,
    extract_frames,
    invariant_counts,
    skw_residuals,
    structure_data,
    sy_from_components,
    sy_invariants,
)
from .variety import (
    MembershipReport,
    NAMED_POINTS,
    VarietyPoint,
    export_csv,
    from_frame,
    fsp_matrix,
    h_components,
    sample_variety,
    system_residuals,
    z_components,
)
from .examples import (
    REGISTRY,
    SurfaceProfile,
    build_example,
    build_examples,
    example_names,
    make_bump_nonharmonic,
    make_constant_curvature,
    make_kpc_warped,
    make_line_cross_space,
    make_product_surfaces,
    make_random_perturbed_flat,
    profile_residual,
    solve_kpc_profile,
)

__version__ = "0.1.0"
