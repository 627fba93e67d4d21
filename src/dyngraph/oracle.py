"""Reference implementations the factor-graph solver is validated against.

These are deliberately independent of the graph machinery: the recursive
Newton-Euler sweep works link by link, the mass matrix is assembled from
unit-acceleration sweeps, the hybrid solver runs the classical three-pass
schedule, and the dense least-squares solver stacks every factor row and
hands the whole thing to LAPACK. Agreement between these and the
elimination solver is the core evidence that both are right. The sweeps
evaluate each joint with `Joint.transform` and `big_adjoint`; their
kinematics share no code with the solver's, which evaluates every joint
at once from `RobotModel.joint_constants`.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import RankDeficient, SingularMass, UnsupportedTopology
from .fgraph import FactorGraph
from .model import RobotModel
from .spatial import big_adjoint, little_adjoint
from .transcribe import GivenAccel, GivenTorque, JointState, ProblemSpec


def _as6(w) -> np.ndarray:
    return np.zeros(6) if w is None else np.asarray(w, dtype=float).reshape(6)


def _check_tree(model: RobotModel):
    if model.loop_joints:
        names = [j.name for j in model.loop_joints]
        raise UnsupportedTopology(f"recursive sweep cannot handle loop joints {names}")


def rnea_full(model: RobotModel, state: JointState, qdd,
              gravity=(0.0, 0.0, -9.81), tool_wrench=None, base_accel=None) -> dict:
    """Recursive Newton-Euler over the kinematic tree.

    Outward pass propagates twists and accelerations from the base, inward
    pass accumulates wrenches from the leaves; torques are the screw-axis
    projections of the wrenches. `qdd` has one entry per movable joint in
    declaration order. Returns torques plus all intermediate quantities.
    """
    _check_tree(model)
    movable = model.movable_joints
    qdd = np.atleast_1d(np.asarray(qdd, dtype=float))
    if qdd.shape != (len(movable),):
        raise ValueError(f"expected {len(movable)} joint accelerations")
    if state.q.shape != (len(movable),):
        raise ValueError(f"state has {state.q.shape[0]} entries for {len(movable)} movable joints")
    q = {j.name: float(a) for j, a in zip(movable, state.q)}
    qd = {j.name: float(r) for j, r in zip(movable, state.qd)}
    acc_of = {j.name: a for j, a in zip(movable, qdd)}
    gravity = np.asarray(gravity, dtype=float).reshape(3)
    ft = _as6(tool_wrench)

    twist = {model.base: np.zeros(6)}
    accel = {model.base: _as6(base_accel)}
    rot = {model.base: np.eye(3)}
    for name in model.topo_order[1:]:
        j = model.parent_joint[name]
        t_cp = j.transform(q.get(j.name, 0.0))
        ad = big_adjoint(t_cp)
        v = ad @ twist[j.parent]
        a = ad @ accel[j.parent]
        if j.axis is not None:
            s = j.axis.vector
            v = v + s * qd[j.name]
            a = a + s * acc_of[j.name] + little_adjoint(v) @ (s * qd[j.name])
        twist[name] = v
        accel[name] = a
        rot[name] = rot[j.parent] @ t_cp.rotation.T

    wrench = {}
    for name in reversed(model.topo_order):
        if name == model.base:
            continue
        link = model.link_map[name]
        f = np.zeros(6)
        if link.inertia is not None:
            g_mat = link.inertia.matrix()
            v = twist[name]
            f = g_mat @ accel[name] - little_adjoint(v).T @ (g_mat @ v)
            f = f - link.inertia.mass * np.concatenate(
                [np.zeros(3), rot[name].T @ gravity])
        for jc in model.child_joints[name]:
            t_cp = jc.transform(q.get(jc.name, 0.0))
            f = f + big_adjoint(t_cp).T @ wrench[jc.child]
        if name == model.tool_link and np.any(ft):
            f = f + big_adjoint(link.com_offset).T @ ft
        wrench[name] = f

    torques = np.array([float(j.axis.vector @ wrench[j.child]) for j in movable])
    return {"torques": torques, "twists": twist, "accels": accel, "wrenches": wrench}


def rnea_torques(model: RobotModel, state: JointState, qdd,
                 gravity=(0.0, 0.0, -9.81), tool_wrench=None,
                 base_accel=None) -> np.ndarray:
    """Joint torques for given joint accelerations (inverse dynamics)."""
    return rnea_full(model, state, qdd, gravity, tool_wrench, base_accel)["torques"]


def mass_matrix(model: RobotModel, state: JointState) -> np.ndarray:
    """Joint-space mass matrix by unit-acceleration sweeps: column j is the
    torque response to a unit acceleration at joint j with rates, gravity,
    and external wrenches all zero."""
    _check_tree(model)
    n = len(model.movable_joints)
    still = JointState(state.q, np.zeros(n))
    base = rnea_torques(model, still, np.zeros(n), gravity=(0, 0, 0))
    m = np.zeros((n, n))
    for k in range(n):
        m[:, k] = rnea_torques(model, still, np.eye(n)[k], gravity=(0, 0, 0)) - base
    return m


def forward_accel(model: RobotModel, state: JointState, tau,
                  gravity=(0.0, 0.0, -9.81), tool_wrench=None,
                  base_accel=None) -> np.ndarray:
    """Joint accelerations for given torques: qdd = M^-1 (tau - bias),
    where the bias is the zero-acceleration torque vector."""
    _check_tree(model)
    n = len(model.movable_joints)
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    if tau.shape != (n,):
        raise ValueError(f"expected {n} torques")
    bias = rnea_torques(model, state, np.zeros(n), gravity, tool_wrench, base_accel)
    m = mass_matrix(model, state)
    try:
        return cho_solve(cho_factor(m), tau - bias)
    except np.linalg.LinAlgError as e:
        raise SingularMass(str(e)) from None


def hybrid_three_pass(model: RobotModel, state: JointState,
                      spec: ProblemSpec) -> tuple[dict, dict]:
    """Classical three-pass hybrid dynamics over a serial chain.

    Pass 1: inverse dynamics with the given accelerations and zeros at the
    torque-given joints. Pass 2: solve those joints' accelerations against
    the corresponding mass-matrix block. Pass 3: inverse dynamics once more
    with the full acceleration vector to recover the unknown torques.
    Returns ({joint: torque}, {joint: accel}) over all movable joints.
    """
    _check_tree(model)
    movable = model.movable_joints
    des = spec.by_joint(model)
    qdd0 = np.array([des[j.name].value if isinstance(des[j.name], GivenAccel) else 0.0
                     for j in movable])
    fd = [i for i, j in enumerate(movable) if isinstance(des[j.name], GivenTorque)]

    tau0 = rnea_torques(model, state, qdd0, spec.gravity,
                        spec.tool_wrench, spec.base_accel)
    qdd = qdd0.copy()
    if fd:
        tau_given = np.array([des[movable[i].name].value for i in fd])
        m = mass_matrix(model, state)[np.ix_(fd, fd)]
        try:
            qdd[fd] = cho_solve(cho_factor(m), tau_given - tau0[fd])
        except np.linalg.LinAlgError as e:
            raise SingularMass(str(e)) from None
    tau = rnea_torques(model, state, qdd, spec.gravity,
                       spec.tool_wrench, spec.base_accel)

    torques = {}
    accels = {}
    for i, j in enumerate(movable):
        d = des[j.name]
        torques[j.name] = d.value if isinstance(d, GivenTorque) else float(tau[i])
        accels[j.name] = d.value if isinstance(d, GivenAccel) else float(qdd[i])
    return torques, accels


def dense_solve(graph: FactorGraph) -> dict:
    """Weighted least squares over the stacked rows of every factor.

    The arbiter for the elimination solver: one dense rank-revealing
    factorization, no orderings, no sparsity. Raises RankDeficient (naming
    the largest variable touched by the null space) when the stacked
    system does not determine every variable.
    """
    variables = graph.variables
    offs = {}
    n = 0
    for v in variables:
        offs[v] = n
        n += v.dim
    rows = graph.total_rows()
    a = np.zeros((rows, n))
    b = np.zeros(rows)
    r = 0
    for f in graph.factors:
        m = f.rows
        for k, blk in f.blocks.items():
            a[r:r + m, offs[k]:offs[k] + k.dim] = f.weight * blk
        b[r:r + m] = f.weight * f.rhs
        r += m

    x, _, rank, sv = np.linalg.lstsq(a, b, rcond=1e-9)
    if rank < n:
        null = np.linalg.svd(a)[2][rank:]
        touched = sorted({v for v in variables
                          if np.max(np.abs(null[:, offs[v]:offs[v] + v.dim])) > 1e-6})
        key = touched[-1] if touched else variables[-1]
        raise RankDeficient(key, f"stacked system rank {rank} of {n}", keys=touched)
    return {v: x[offs[v]:offs[v] + v.dim] for v in variables}
