"""Structure analysis of analytic matrix cocycles over torus rotations."""

__version__ = "0.1.0"

from . import fixtures
from .cocycle import (
    GOLDEN_MEAN,
    Cocycle,
    LyapunovReport,
    NilpotencyReport,
    RankProfile,
    Structure,
    check_orbit_lattice,
    detect_nilpotency,
    exact_L1_rank_one,
    iterate,
    lyapunov_spectrum,
    rank_profile,
)
from .fixtures import SILVER_MEAN
from .domination import (
    SplitForm,
    SplittingResult,
    dominated_splitting,
    is_dominated,
    split_infinite_part,
)
from .errors import (
    AliasingRisk,
    ClosureDefect,
    CocycleError,
    ConstantRankViolated,
    DegreeOverflow,
    DimensionUnstable,
    FloatRangeExceeded,
    FullyNilpotent,
    InconsistentProfile,
    InversionBlowup,
    NoInfinitePart,
    NotDominated,
    NotNilpotent,
    NotStrictlyOrdered,
    RankNotOne,
    RootFindingError,
    StructureViolation,
    TailTooFat,
    UnsupportedBase,
)
from .frames import (
    SubspaceField,
    field_from_vectors,
    intersect_field,
    kernel_field,
    orthocomplement,
    phase_align,
    preimage_field,
    range_field,
    subspace_distance,
    sum_field,
    to_analytic_frame,
)
from .matfun import (
    GridMatrixFunction,
    MatrixFunction,
    exterior_power,
    hstack,
    max_rank,
    poly_det,
    poly_from_samples,
    vstack,
)
from .normalform import (
    JordanForm,
    TriangularForm,
    jordan_form,
    jordan_structure_from_ranks,
    perturb_simple,
    triangularize,
)
from .trigpoly import TrigPoly, default_grid_size
