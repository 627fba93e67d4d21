"""Spatial algebra on SE(3): poses, screw axes, inertias, adjoints.

Twists, accelerations and wrenches are plain float 6-vectors that stack
angular on top of linear. All values here are immutable and every
operation is a pure function, so instances can be shared freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import InvalidInertia

_ORTHO_TOL = 1e-12
_EYE3 = np.eye(3)
_EYE3.setflags(write=False)


def _freeze(a, shape) -> np.ndarray:
    out = np.array(a, dtype=float).reshape(shape)
    out.setflags(write=False)
    return out


def skew(v) -> np.ndarray:
    """3x3 cross-product matrix: skew(a) @ b == np.cross(a, b)."""
    x, y, z = np.asarray(v, dtype=float)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def rotation_about(axis, angle: float) -> np.ndarray:
    # Euler-Rodrigues, unit axis assumed
    k = skew(axis)
    return _EYE3 + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def rpy_matrix(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Fixed-axis XYZ rotation, the URDF rpy convention: Rz(yaw) Ry(pitch) Rx(roll)."""
    return (
        rotation_about((0.0, 0.0, 1.0), yaw)
        @ rotation_about((0.0, 1.0, 0.0), pitch)
        @ rotation_about((1.0, 0.0, 0.0), roll)
    )


def rotation_to_rpy(r: np.ndarray) -> tuple[float, float, float]:
    """Inverse of rpy_matrix. Returns one branch; near pitch = +-pi/2 roll is folded into yaw."""
    sy = math.hypot(r[0, 0], r[1, 0])
    if sy < 1e-9:
        return math.atan2(-r[1, 2], r[1, 1]), math.atan2(-r[2, 0], sy), 0.0
    return math.atan2(r[2, 1], r[2, 2]), math.atan2(-r[2, 0], sy), math.atan2(r[1, 0], r[0, 0])


@dataclass(frozen=True, eq=False)
class Pose:
    """Rigid transform: ``rotation`` in SO(3) plus ``translation``.

    A Pose written T_ab is the pose of frame b expressed in frame a; it maps
    b-coordinates into a-coordinates. Construction checks that the rotation
    is orthonormal with determinant +1 and that both parts are finite;
    composing and inverting validated poses, and `exp_screw` of a unit
    screw, yield rotations in SO(3) by construction and skip the check.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = _freeze(self.rotation, (3, 3))
        p = _freeze(self.translation, (3,))
        # written as not (x <= tol) so that a NaN fails
        if not np.max(np.abs(r.T @ r - np.eye(3))) <= _ORTHO_TOL:
            raise ValueError("rotation is not orthonormal")
        if not np.linalg.det(r) > 0.0:
            raise ValueError("rotation is a reflection, det must be +1")
        if not np.isfinite(p).all():
            raise ValueError("translation must be finite")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", p)

    @classmethod
    def _unchecked(cls, rotation: np.ndarray, translation: np.ndarray) -> "Pose":
        """A pose from freshly computed arrays whose rotation is in SO(3) by
        construction (a product of validated rotations); skips the check."""
        rotation.setflags(write=False)
        translation.setflags(write=False)
        pose = object.__new__(cls)
        object.__setattr__(pose, "rotation", rotation)
        object.__setattr__(pose, "translation", translation)
        return pose

    @classmethod
    def identity(cls) -> "Pose":
        return cls._unchecked(np.eye(3), np.zeros(3))

    @classmethod
    def from_xyz_rpy(cls, xyz=(0.0, 0.0, 0.0), rpy=(0.0, 0.0, 0.0)) -> "Pose":
        return cls(rpy_matrix(*rpy), np.asarray(xyz, dtype=float))

    @classmethod
    def from_matrix(cls, t: np.ndarray) -> "Pose":
        t = np.asarray(t, dtype=float)
        return cls(t[:3, :3], t[:3, 3])

    def compose(self, other: "Pose") -> "Pose":
        return Pose._unchecked(self.rotation @ other.rotation,
                           self.rotation @ other.translation + self.translation)

    def __matmul__(self, other: "Pose") -> "Pose":
        return self.compose(other)

    def inverse(self) -> "Pose":
        rt = self.rotation.T
        return Pose._unchecked(rt, -rt @ self.translation)

    def transform_point(self, p) -> np.ndarray:
        return self.rotation @ np.asarray(p, dtype=float) + self.translation

    def matrix(self) -> np.ndarray:
        t = np.eye(4)
        t[:3, :3] = self.rotation
        t[:3, 3] = self.translation
        return t


@dataclass(frozen=True, eq=False)
class ScrewAxis:
    """Unit joint screw (omega_hat; v), expressed in the child body frame.

    The angular part has unit length, or is zero for a pure translation.
    """

    vector: np.ndarray

    def __post_init__(self):
        v = _freeze(self.vector, (6,))
        norm = np.linalg.norm(v[:3])
        unit_or_zero = norm < 1e-12 or abs(norm - 1.0) <= _ORTHO_TOL
        if not (unit_or_zero and np.isfinite(v).all()):
            raise ValueError(f"screw axis needs a unit or zero angular part, got {v}")
        object.__setattr__(self, "vector", v)

    @property
    def angular(self) -> np.ndarray:
        return self.vector[:3]

    @property
    def linear(self) -> np.ndarray:
        return self.vector[3:]

    def transformed(self, pose: Pose) -> "ScrewAxis":
        """Re-express the screw in frame a given ``pose`` = T_ab."""
        return ScrewAxis(big_adjoint(pose) @ self.vector)


@dataclass(frozen=True, eq=False)
class SpatialInertia:
    """Rigid-body inertia about the body frame, which must sit at the COM.

    With the frame at the COM the 6x6 matrix is block diagonal:
    diag(rotational_inertia, mass * I3).
    """

    mass: float
    rotational_inertia: np.ndarray

    def __post_init__(self):
        i = _freeze(self.rotational_inertia, (3, 3))
        if not (isinstance(self.mass, Real) and 0.0 < self.mass < math.inf):
            raise InvalidInertia(f"mass must be a positive finite number, got {self.mass!r}")
        if not np.isfinite(i).all():
            raise InvalidInertia(f"rotational inertia must be finite, got {i.tolist()}")
        if np.max(np.abs(i - i.T)) > 1e-12:
            raise InvalidInertia("rotational inertia must be symmetric")
        if np.linalg.eigvalsh(i)[0] <= 0.0:
            raise InvalidInertia("rotational inertia must be positive definite")
        object.__setattr__(self, "rotational_inertia", i)
        g = np.zeros((6, 6))
        g[:3, :3] = i
        g[3:, 3:] = self.mass * np.eye(3)
        g.setflags(write=False)
        object.__setattr__(self, "_matrix", g)

    def matrix(self) -> np.ndarray:
        """The 6x6 spatial inertia, computed once at construction; the
        same read-only array on every call."""
        return self._matrix


def big_adjoint(pose: Pose) -> np.ndarray:
    """6x6 adjoint of T_ab: maps twists expressed in b to twists in a.

    Its transpose maps wrenches the opposite way, from a to b.
    """
    r = pose.rotation
    ad = np.zeros((6, 6))
    ad[:3, :3] = r
    ad[3:, 3:] = r
    ad[3:, :3] = skew(pose.translation) @ r
    return ad


def little_adjoint(twist) -> np.ndarray:
    """6x6 Lie bracket matrix [ad_V]: little_adjoint(V) @ W = [V, W]."""
    v = np.asarray(twist, dtype=float)
    ad = np.zeros((6, 6))
    ad[:3, :3] = skew(v[:3])
    ad[3:, 3:] = skew(v[:3])
    ad[3:, :3] = skew(v[3:])
    return ad


# component i of a x b is a[p] * b[q] - a[q] * b[p] for (p, q) = (_P[i], _Q[i]),
# and the pairs repeat for the linear half of a 6-vector. From [x | y], _PICK
# gathers x[_P], x[_Q], y's angular part at _Q and at _P (each twice over) and
# y's linear part at _Q and at _P
_P, _Q = [1, 2, 0, 4, 5, 3], [2, 0, 1, 5, 3, 4]
_PICK = np.array(_P + _Q + [6 + i for i in _Q[:3] * 2 + _P[:3] * 2 + _Q[3:] + _P[3:]])
_PICK.setflags(write=False)


def _picked(x, y) -> tuple:
    g = np.concatenate((np.asarray(x, dtype=float), np.asarray(y, dtype=float)), axis=-1)
    g = g[..., _PICK]
    return g[..., :6], g[..., 6:12], g[..., 12:18], g[..., 18:24], g[..., 24:27], g[..., 27:]


def ad_product(twist, w) -> np.ndarray:
    """little_adjoint(twist) @ w without forming the matrix: with twist =
    (a; l) and w = (b; m), it is (a x b; l x b + a x m), each component
    summed left to right as written, e.g. l2 b3 - l3 b2 + a2 m3 - a3 m2.
    Both arguments may be stacks of 6-vectors of one shape."""
    tp, tq, bq, bp, mq, mp = _picked(twist, w)
    out = tp * bq - tq * bp
    out[..., 3:] += tp[..., :3] * mq
    out[..., 3:] -= tq[..., :3] * mp
    return out


def ad_transpose_product(twist, h) -> np.ndarray:
    """little_adjoint(twist).T @ h without forming the matrix: with twist =
    (a; l) and h = (n; f), it is (n x a + f x l; f x a), summed left to
    right as written. Both arguments may be stacks, as for `ad_product`."""
    hp, hq, aq, ap, lq, lp = _picked(h, twist)
    out = hp * aq - hq * ap
    out[..., :3] += hp[..., 3:] * lq
    out[..., :3] -= hq[..., 3:] * lp
    return out


def exp_screw(axis: ScrewAxis, angle: float) -> Pose:
    """Exponential of a screw: the pose reached after ``angle`` along ``axis``."""
    if not math.isfinite(angle):
        raise ValueError(f"screw angle must be finite, got {angle}")
    w = axis.angular
    v = axis.linear
    if np.linalg.norm(w) < 1e-12:
        return Pose._unchecked(_EYE3, v * angle)
    k, s, c = skew(w), math.sin(angle), math.cos(angle)
    kk = k @ k
    g = _EYE3 * angle + (1.0 - c) * k + (angle - s) * kk
    return Pose._unchecked(_EYE3 + s * k + (1.0 - c) * kk, g @ v)


def joint_transform(rest_offset: Pose, axis: ScrewAxis | None, angle: float) -> Pose:
    """Child-frame-from-parent-frame transform of a joint at ``angle``.

    ``rest_offset`` is the child pose in the parent frame at zero angle,
    ``axis`` the joint screw in the child frame (None for a fixed joint).
    """
    if axis is None:
        return rest_offset.inverse()
    return exp_screw(axis, -angle) @ rest_offset.inverse()
