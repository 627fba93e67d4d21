"""Shared fixtures: robot models, seeded random states, five-bar kinematics."""

import pathlib

import numpy as np
import pytest

from dyngraph.model import parse_urdf
from dyngraph.transcribe import JointState

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def load_model(name):
    return parse_urdf((FIXTURES / name).read_text())


@pytest.fixture(scope="session")
def pendulum():
    return load_model("pendulum.urdf")


@pytest.fixture(scope="session")
def three_r():
    return load_model("three_r.urdf")


@pytest.fixture(scope="session")
def six_r():
    return load_model("six_r.urdf")


@pytest.fixture(scope="session")
def tree21():
    return load_model("tree21.urdf")


@pytest.fixture(scope="session")
def five_bar():
    return load_model("five_bar.urdf")


def assert_same_tables(a, b):
    """Plan tables equal all the way down: tuples item by item, arrays in
    dtype and value."""
    if isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray) and a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    elif isinstance(a, tuple):
        assert isinstance(b, tuple) and len(a) == len(b)
        for x, y in zip(a, b):
            assert_same_tables(x, y)
    else:
        assert a == b


def random_state(rng, n):
    # angles uniform in (-pi, pi), rates uniform in (-1, 1)
    return JointState(rng.uniform(-np.pi, np.pi, n), rng.uniform(-1.0, 1.0, n))


def random_accels(rng, n):
    return rng.uniform(-1.0, 1.0, n)


class FiveBarKin:
    """Planar closure kinematics of the five-bar fixture.

    Ground pivots at (-0.1, 0) and (0.1, 0), all four bars 0.25 long.
    Joints 2 and 4 are passive; the loop joint angle and rate follow from
    the chain angles. Solves the elbow-up branch of the closure.
    """

    A = np.array([-0.1, 0.0])
    B = np.array([0.1, 0.0])
    L = 0.25

    @staticmethod
    def _u(a):
        return np.array([np.cos(a), np.sin(a)])

    @staticmethod
    def _du(a):
        return np.array([-np.sin(a), np.cos(a)])

    def closure(self, q1, q3):
        """Passive angles (q2, q4) that bring both chain tips together."""
        el = self.A + self.L * self._u(q1)
        er = self.B + self.L * self._u(q3)
        d = np.linalg.norm(er - el)
        mid = (el + er) / 2
        h = np.sqrt(self.L**2 - (d / 2) ** 2)
        perp = np.array([-(er - el)[1], (er - el)[0]]) / d
        p = mid + h * perp
        q2 = np.arctan2(*(p - el)[::-1]) - q1
        q4 = np.arctan2(*(p - er)[::-1]) - q3
        return q2, q4

    def _rate_mat(self, q):
        return np.column_stack(
            [self.L * self._du(q[0] + q[1]), -self.L * self._du(q[2] + q[3])]
        )

    def rates(self, q, qd1, qd3):
        """Passive rates (qd2, qd4) from tip-velocity matching."""
        rhs = (self.L * self._du(q[2]) + self.L * self._du(q[2] + q[3])) * qd3 - (
            self.L * self._du(q[0]) + self.L * self._du(q[0] + q[1])
        ) * qd1
        return np.linalg.solve(self._rate_mat(q), rhs)

    def accels(self, q, qd, qdd1, qdd3):
        """Passive accelerations (qdd2, qdd4) from tip-acceleration matching."""
        p2, p4 = q[0] + q[1], q[2] + q[3]
        pd2, pd4 = qd[0] + qd[1], qd[2] + qd[3]
        rhs = (
            (self.L * self._du(q[2]) + self.L * self._du(p4)) * qdd3
            - (self.L * self._du(q[0]) + self.L * self._du(p2)) * qdd1
            + self.L * self._u(q[0]) * qd[0] ** 2
            - self.L * self._u(q[2]) * qd[2] ** 2
            + self.L * self._u(p2) * pd2**2
            - self.L * self._u(p4) * pd4**2
        )
        return np.linalg.solve(self._rate_mat(q), rhs)

    def state(self, q1, q3, qd1, qd3):
        """Full consistent JointState (5 joints incl. the loop joint)."""
        q2, q4 = self.closure(q1, q3)
        qd2, qd4 = self.rates([q1, q2, q3, q4], qd1, qd3)
        q5 = (q3 + q4) - (q1 + q2)
        q5 = (q5 + np.pi) % (2 * np.pi) - np.pi
        qd5 = (qd3 + qd4) - (qd1 + qd2)
        return JointState(
            np.array([q1, q2, q3, q4, q5]), np.array([qd1, qd2, qd3, qd4, qd5])
        )


@pytest.fixture(scope="session")
def five_bar_kin():
    return FiveBarKin()
