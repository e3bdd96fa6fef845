"""okacert: certify geometric hypotheses under which the complement of a
closed convex set in C^n is an Oka domain, and build the constructive
ingredients (smooth strongly convex outer approximations, model-domain
charts, attracting-basin automorphisms) behind them."""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    DegenerateChart,
    DesignFailed,
    DimensionMismatch,
    InfeasiblePolyhedron,
    LPNumericalFailure,
    NotIrreducibleFamily,
    NotStronglyConvex,
    OkacertError,
    Overflow,
    PointInsideSet,
    ProjectionDidNotConverge,
    SchemaError,
    SeparatorNotFound,
    UnsupportedVariant,
    ZeroGradient,
)
from .geometry import (  # noqa: F401
    AffineSubspaceC,
    AffineSubspaceR,
    cayley_forward,
    cayley_inverse,
    complex_tangent,
    complexify,
    realify,
    siegel_defect,
)
from .functions import (  # noqa: F401
    MaxAffine,
    NormCombo,
    Quadratic,
    SmoothedNormCombo,
    function_from_jsonable,
)
from .sets import (  # noqa: F401
    ConvexSet,
    Dilation,
    Epigraph,
    HPolyhedron,
    QuadricBall,
    RecessionCone,
    SiegelClosure,
    Tube,
    normcombo_cone_set,
)
from .stability import (  # noqa: F401
    StabilityVerdict,
    SupportingTranslate,
    halfline_in_intersection,
    is_stable,
    tube_or_support,
)
from .certify import (  # noqa: F401
    Certificate,
    CheckResult,
    Hyperplane,
    SamplingPlan,
    certify_oka_complement,
    hyperplane_disjoint,
    recheck_certificate,
    recheck_witness,
)
from .smoothing import (  # noqa: F401
    SeparatorFn,
    SmoothingState,
    WeightSpec,
    exp_separator,
    hessian_min_eig,
    outer_sequence,
    rmax,
    rmax_pair_grid,
    smooth_normcombo,
)
from .basin import (  # noqa: F401
    AutomorphismSpec,
    BaseScale,
    BasinConfig,
    Composite,
    ContractionDesign,
    FiberScale,
    Shear,
    basin_report,
    classify_points,
    design_contraction_step,
    rate_brackets,
)
from .gallery import build_example, describe_examples, gallery_names  # noqa: F401
from .specjson import canonical_json, digest, load_set, parse_set_spec  # noqa: F401
