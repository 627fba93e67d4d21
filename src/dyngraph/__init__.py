"""Manipulator dynamics via block-sparse linear factor graphs.

Transcribes Newton-Euler constraints at a joint state into a factor graph
and solves inverse, forward, and hybrid dynamics by variable elimination,
for serial chains and closed kinematic loops, under interchangeable
elimination orderings.
"""

from .errors import (
    DynamicsError,
    GraphError,
    InconsistentLoopState,
    IncompatibleScheme,
    InvalidInertia,
    MalformedDescription,
    RankDeficient,
    SingularMass,
    UnsupportedTopology,
)
from .fgraph import (
    Conditional,
    EliminationDag,
    FactorGraph,
    Kind,
    LinearFactor,
    VarKey,
    back_substitute,
    classic_ordering,
    eliminate,
    export_dot,
    min_degree_ordering,
    nested_dissection_ordering,
    solve,
)
from .model import Joint, JointKind, Link, RobotModel, add_loop_joint, parse_urdf
from .oracle import (
    dense_solve,
    forward_accel,
    hybrid_three_pass,
    mass_matrix,
    rnea_full,
    rnea_torques,
)
from .spatial import (
    Pose,
    ScrewAxis,
    SpatialInertia,
    big_adjoint,
    exp_screw,
    joint_transform,
    little_adjoint,
    skew,
)
from .transcribe import (
    DynamicsResult,
    GivenAccel,
    GivenTorque,
    JointState,
    ProblemSpec,
    build_graph,
    compute_twists,
    link_poses,
    planar_factor,
    solve_dynamics,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
