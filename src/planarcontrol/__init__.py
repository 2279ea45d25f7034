"""Control sets of planar linear control systems with complex-eigenvalue drift.

Closed-form canonical forms, exact flows, the periodic boundary orbit and its
enclosed region, constructive trajectory planners, and brute-force grid
oracles, plus a JSON/CSV/SVG command-line frontend.
"""

from .errors import (
    DegenerateSpiral,
    EmptySet,
    EpsilonTooSmall,
    InvalidControl,
    NoIntersectionFound,
    NotComplexSpectrum,
    OffLine,
    ParseError,
    PlanarControlError,
    PreconditionViolated,
    TargetNotInterior,
    TraceNotZero,
    TraceZero,
    ValidationError,
    ZeroVector,
)
from .planar import (
    CanonicalForm,
    UnitFrame,
    canonicalize,
    line_coordinate,
)
from .system import (
    ControlRangeWarning,
    LinearControlSystem,
    Trajectory,
    equilibrium,
    flow,
    simulate,
)
from .geometry import (
    Membership,
    MembershipVerdict,
    OrbitRegion,
    SpiralRegion,
    build_orbit_region,
    polyline_distance,
)
from .controlset import (
    BoundaryOrbit,
    Classification,
    SweepPoint,
    classify,
    half_turn_fixed_points,
    periodic_orbit,
    sweep_control_ranges,
)
from .planner import PlanResult, hop_plan, loop_plan, reach_plan, spiral_crossing
from .oracle import (
    GridSpec,
    ReachSet,
    default_grid_spec,
    grid_reachable_set,
    hausdorff,
)

__version__ = "0.1.0"
