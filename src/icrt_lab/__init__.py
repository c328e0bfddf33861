"""Truncated inhomogeneous continuum random trees: stick-breaking samples,
plane structure, looptree metrics, Gaussian fields, contour processes, and
verification suites."""

__version__ = "0.1.0"

from .skeleton import Skeleton, SkeletonError, PathSummary, validate_cut_glue
from .sampler import (
    AngleTable,
    IcrtSample,
    MeasureState,
    SamplerError,
    StopRule,
    ThetaSpec,
    assemble_sample,
    expected_mass_prefix,
    sample_angles,
    sample_atoms,
    sample_cuts,
    sample_glue,
    sample_icrt,
)
from .plane import (
    LoopPoint,
    Order,
    angle_toward,
    compare,
    front_mass,
    left_fraction,
    left_fractions,
    left_mass,
    lukasiewicz_value,
    right_mass,
    sample_loop_point,
)
from .loopmetric import (
    gff_distance,
    hausdorff_gap,
    loop_distance,
    path_mass,
    project_loop,
    torus_distance,
)
from .fields import (
    FieldRealization,
    FieldSpec,
    GeneralizedField,
    register_field_spec,
    uniform_tail,
)
from .contour import (
    ContourTable,
    build_contour_table,
    contour_eval,
    height_eval,
    holder_estimate,
    lukasiewicz_eval,
    process_grid,
    snake_eval,
)

__all__ = [name for name in dir() if not name.startswith("_")]
