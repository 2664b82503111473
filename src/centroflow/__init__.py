"""Planar convex bodies through support functions: a centro-affine curvature
flow, the associated affine operator toolbox, and verification machinery for
the inequality family around the centroid-body volume ratio."""

__version__ = "0.1.0"

from .errors import (
    AsymmetricData,
    CentroflowError,
    ConvexityLost,
    GridMismatch,
    NonConvex,
    NonPositive,
    StepUnderflow,
    UnderResolved,
)
from .support import (
    SupportFn,
    apply_linear_map,
    area,
    disk,
    ellipse,
    perimeter,
    scaled,
)
from .ops import (
    centroid_body,
    curvature_image,
    mixed_volume,
    polar_area,
    polar_body,
    projection_body,
)
from .normalize import (
    BMCertificate,
    banach_mazur_to_disk,
    pinching_to_bm_bound,
    sl2_normalize,
)
from .flow import (
    ConservationReport,
    FlowConfig,
    FlowTrace,
    HarnackReport,
    conservation_checks,
    flow_run,
    harnack_and_bounds_monitor,
)
from .lab import (
    BP_CONSTANT,
    BodySpec,
    FuzzReport,
    StabilityResult,
    bp_deficit,
    deficit_report,
    fuzz_campaign,
    random_body,
    stability_experiment,
)
from .bodyio import load_body, save_body

__all__ = [name for name in dir() if not name.startswith("_")]
