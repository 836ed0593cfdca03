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
    approximate_compact_space,
    beta_delta_over_n,
    beta_fixed,
    beta_fraction_of_delta,
    certify_reach,
    convergence_experiment,
    estimate_reach_lower,
)
from .errors import (
    ConfigError,
    CorollaryModeViolation,
    DegenerateSpaceError,
    InputShapeError,
    MatproxError,
    MetricAxiomError,
    ScaleOverflowError,
    ScaleUnderflowError,
)
from .fixed_point import (
    AveragingExpectation,
    FixedPointBridgeReport,
    FuzzyTorus,
    LengthFunction,
    TorusSubgroup,
    action_lip_seminorms,
    enumerate_subgroups,
    expectation_gap,
    fixed_point_bridge,
    fixed_point_sweep,
    mean_distance,
    subgroup_hausdorff,
)
from .lseminorm import (
    ApproximationPair,
    l_seminorms,
    sample_unit_ball,
    unit_leibniz_residuals,
)
from .matrix_algebra import (
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
    TAU,
    epsilon_net,
    lipschitz_seminorms,
    min_separation,
    mk_distance,
    space_from_dict,
)

__version__ = "0.1.0"
