"""Matrix-algebra metric approximations of compact metric spaces.

The library builds metric seminorms on full matrix algebras over diagonal
copies of finite metric spaces, certifies how close the resulting quantum
metric spaces are to the classical ones via unit-pivot bridges, and runs
the fixed-point-subalgebra continuity experiment for finite torus actions
on fuzzy tori.
"""

from .bridge import (
    ConvergenceReport,
    ConvergenceRow,
    ReachCertificate,
    UnitPivotBridge,
    approximate_compact_space,
    beta_delta_over_n,
    beta_fixed,
    beta_fraction_of_delta,
    certify_reach_upper,
    convergence_experiment,
    estimate_reach_lower,
)
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    ActionNotIsometricError,
    ConfigError,
    CorollaryModeViolation,
    DegenerateSpaceError,
    EmptySetError,
    InputShapeError,
    MatproxError,
    MetricAxiomError,
    ScaleOverflowError,
    ScaleUnderflowError,
    SelfAdjointnessError,
)
from .fixed_point import (
    AveragingExpectation,
    CommutativeFixedPointReport,
    FixedPointBridgeReport,
    FuzzyTorus,
    LengthFunction,
    TorusSubgroup,
    action_kernel_dimension,
    action_lip_seminorms,
    commutative_fixed_point_check,
    cyclic_rotation_group,
    enumerate_subgroups,
    expectation_gap,
    fixed_point_bridge,
    fixed_point_sweep,
    subgroup_hausdorff,
)
from .lseminorm import (
    ApproximationPair,
    kernel_check,
    kernel_dimension,
    l_seminorm,
    l_seminorms,
    quasi_leibniz_residuals,
    sample_unit_ball,
    unit_ball_radius_bound,
    unit_leibniz_residuals,
)
from .matrix_algebra import (
    DiagonalEmbedding,
    identity,
    operator_norm,
    operator_norms,
    pinch,
    random_hermitian,
    trace_state,
)
from .metric_core import (
    Circle,
    FiniteMetricSpace,
    FlatTorus,
    Interval,
    PointCloud,
    TAU,
    diameter,
    epsilon_net,
    hausdorff_distance,
    lipschitz_seminorm,
    lipschitz_seminorms,
    min_separation,
    mk_distance,
    space_from_dict,
)

__version__ = "0.1.0"
