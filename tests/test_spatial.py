"""Spatial algebra: skew maps, adjoints, screw exponentials, inertias."""

import numpy as np
import pytest
from scipy.linalg import expm

from dyngraph.errors import InvalidInertia
from dyngraph.spatial import (
    Pose,
    ScrewAxis,
    SpatialInertia,
    big_adjoint,
    exp_screw,
    ad_product,
    ad_transpose_product,
    joint_transform,
    little_adjoint,
    rotation_about,
    rotation_to_rpy,
    rpy_matrix,
    skew,
)


def random_pose(rng):
    w = rng.normal(size=3)
    w /= np.linalg.norm(w)
    axis = ScrewAxis(np.concatenate([w, rng.normal(size=3)]))
    return exp_screw(axis, rng.uniform(-np.pi, np.pi))


def twist_hat(V):
    # homogeneous 4x4 representation of a twist
    h = np.zeros((4, 4))
    h[:3, :3] = skew(V[:3])
    h[:3, 3] = V[3:]
    return h


class TestSkew:
    def test_zero(self):
        assert np.array_equal(skew([0.0, 0.0, 0.0]), np.zeros((3, 3)))

    def test_unit_z(self):
        expected = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
        assert np.array_equal(skew([0.0, 0.0, 1.0]), expected)

    def test_matches_cross_product(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            w, b = rng.normal(size=3), rng.normal(size=3)
            np.testing.assert_allclose(skew(w) @ b, np.cross(w, b), atol=1e-14)

    def test_antisymmetric(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            s = skew(rng.normal(size=3))
            assert np.array_equal(s.T, -s)


class TestBigAdjoint:
    def test_identity(self):
        assert np.array_equal(big_adjoint(Pose.identity()), np.eye(6))

    def test_composition(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            t1, t2 = random_pose(rng), random_pose(rng)
            left = big_adjoint(t1.compose(t2))
            right = big_adjoint(t1) @ big_adjoint(t2)
            np.testing.assert_allclose(left, right, atol=1e-12)

    def test_pure_translation(self):
        # angular part passes through, linear part picks up p x omega
        rng = np.random.default_rng(22)
        p = rng.normal(size=3)
        t = Pose(np.eye(3), p)
        V = rng.normal(size=6)
        out = big_adjoint(t) @ V
        np.testing.assert_allclose(out[:3], V[:3], atol=1e-14)
        np.testing.assert_allclose(out[3:], V[3:] + np.cross(p, V[:3]), atol=1e-14)

    def test_inverse(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            t = random_pose(rng)
            left = np.linalg.inv(big_adjoint(t))
            right = big_adjoint(t.inverse())
            np.testing.assert_allclose(left, right, atol=1e-10)


class TestLittleAdjoint:
    def test_zero(self):
        assert np.array_equal(little_adjoint(np.zeros(6)), np.zeros((6, 6)))

    def test_unit_angular_z(self):
        ad = little_adjoint(np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0]))
        sz = skew([0.0, 0.0, 1.0])
        assert np.array_equal(ad[:3, :3], sz)
        assert np.array_equal(ad[3:, 3:], sz)
        assert np.array_equal(ad[:3, 3:], np.zeros((3, 3)))
        assert np.array_equal(ad[3:, :3], np.zeros((3, 3)))

    def test_block_structure(self):
        rng = np.random.default_rng(31)
        V = rng.normal(size=6)
        ad = little_adjoint(V)
        np.testing.assert_allclose(ad[:3, :3], skew(V[:3]), atol=1e-14)
        np.testing.assert_allclose(ad[3:, 3:], skew(V[:3]), atol=1e-14)
        np.testing.assert_allclose(ad[3:, :3], skew(V[3:]), atol=1e-14)
        assert np.array_equal(ad[:3, 3:], np.zeros((3, 3)))

    def test_matches_matrix_commutator(self):
        # ad_V W is the commutator [hat(V), hat(W)] read back into 6-vector form
        rng = np.random.default_rng(32)
        for _ in range(20):
            V, W = rng.normal(size=6), rng.normal(size=6)
            c = twist_hat(V) @ twist_hat(W) - twist_hat(W) @ twist_hat(V)
            bracket = np.concatenate(
                [[c[2, 1], c[0, 2], c[1, 0]], c[:3, 3]]
            )
            np.testing.assert_allclose(little_adjoint(V) @ W, bracket, atol=1e-12)


class TestExpScrew:
    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            w = rng.normal(size=3)
            w /= np.linalg.norm(w)
            a = np.concatenate([w, rng.normal(size=3)])
            th = rng.uniform(-2 * np.pi, 2 * np.pi)
            got = exp_screw(ScrewAxis(a), th).matrix()
            np.testing.assert_allclose(got, expm(th * twist_hat(a)), atol=1e-12)

    def test_rotation_is_rotation_about_bit_for_bit(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            w = rng.normal(size=3)
            w /= np.linalg.norm(w)
            th = rng.uniform(-2 * np.pi, 2 * np.pi)
            t = exp_screw(ScrewAxis(np.concatenate([w, rng.normal(size=3)])), th)
            assert np.array_equal(t.rotation, rotation_about(w, th))
            assert not t.rotation.flags.writeable

    def test_rotation_orthonormal(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            t = random_pose(rng)
            r = t.rotation
            assert np.abs(r.T @ r - np.eye(3)).max() < 1e-12
            assert abs(np.linalg.det(r) - 1.0) < 1e-12


class TestJointTransform:
    def test_fixed_joint_ignores_angle(self):
        rest = Pose.from_xyz_rpy([0.2, -0.1, 0.5], [0.3, 0.2, -0.4])
        for th in [0.0, 0.7, -2.0]:
            t = joint_transform(rest, None, th)
            np.testing.assert_allclose(
                t.matrix(), rest.inverse().matrix(), atol=1e-14
            )

    def test_revolute_z_quarter_turn(self):
        axis = ScrewAxis(np.array([0, 0, 1, 0, 0, 0], dtype=float))
        t = joint_transform(Pose.identity(), axis, np.pi / 2)
        # child frame sees the parent's x axis rotated to -y of itself
        np.testing.assert_allclose(
            t.inverse().rotation @ np.array([1.0, 0, 0]),
            np.array([0.0, 1.0, 0]),
            atol=1e-14,
        )

    def test_chain_rest_pose(self):
        # at zero angles the composed child-from-parent transforms invert the
        # composed rest offsets, link by link
        rng = np.random.default_rng(51)
        rests = [
            Pose.from_xyz_rpy(rng.normal(size=3), rng.normal(size=3) * 0.3)
            for _ in range(4)
        ]
        axis = ScrewAxis(np.array([0, 0, 1, 0, 0, 0], dtype=float))
        world = np.eye(4)
        for rest in rests:
            world = world @ rest.matrix()
            t = Pose.from_matrix(world)
            chained = Pose.identity()
            for r in rests[: rests.index(rest) + 1]:
                chained = joint_transform(r, axis, 0.0).compose(chained)
            np.testing.assert_allclose(
                chained.matrix(), np.linalg.inv(t.matrix()), atol=1e-12
            )

    def test_orthonormal_rotation(self):
        rng = np.random.default_rng(52)
        axis = ScrewAxis(np.array([0, 1, 0, 0, 0, 0], dtype=float))
        for _ in range(10):
            rest = Pose.from_xyz_rpy(rng.normal(size=3), rng.normal(size=3))
            t = joint_transform(rest, axis, rng.uniform(-np.pi, np.pi))
            assert np.abs(t.rotation.T @ t.rotation - np.eye(3)).max() < 1e-12


class TestRpy:
    def test_round_trip(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            rpy = rng.uniform(-1.4, 1.4, 3)
            r = rpy_matrix(*rpy)
            np.testing.assert_allclose(rotation_to_rpy(r), rpy, atol=1e-10)


class TestSpatialInertia:
    def test_block_diagonal_spd(self):
        ixx = np.diag([0.02, 0.03, 0.01])
        g = SpatialInertia(2.5, ixx).matrix()
        np.testing.assert_allclose(g[:3, :3], ixx, atol=1e-15)
        np.testing.assert_allclose(g[3:, 3:], 2.5 * np.eye(3), atol=1e-15)
        assert np.array_equal(g[:3, 3:], np.zeros((3, 3)))
        assert np.abs(g - g.T).max() < 1e-15
        assert np.linalg.eigvalsh(g).min() > 0

    def test_matrix_is_one_read_only_array(self):
        inertia = SpatialInertia(2.5, np.diag([0.02, 0.03, 0.01]))
        g = inertia.matrix()
        assert inertia.matrix() is g
        assert not g.flags.writeable
        with pytest.raises(ValueError):
            g[0, 0] = 1.0

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(InvalidInertia):
            SpatialInertia(0.0, np.eye(3))
        with pytest.raises(InvalidInertia):
            SpatialInertia(-1.0, np.eye(3))

    def test_rejects_non_positive_definite(self):
        with pytest.raises(InvalidInertia):
            SpatialInertia(1.0, np.diag([1.0, -0.1, 1.0]))

    def test_rejects_asymmetric(self):
        bad = np.eye(3)
        bad[0, 1] = 0.5
        with pytest.raises(InvalidInertia):
            SpatialInertia(1.0, bad)


class TestScrewAxis:
    def test_angular_linear_split(self):
        a = ScrewAxis(np.array([0, 0, 1, 0.2, -0.1, 0], dtype=float))
        assert np.array_equal(a.angular, [0, 0, 1])
        assert np.array_equal(a.linear, [0.2, -0.1, 0])

    def test_transformed_uses_adjoint(self):
        rng = np.random.default_rng(71)
        t = random_pose(rng)
        a = ScrewAxis(np.array([0, 0, 1, 0, 0, 0], dtype=float))
        np.testing.assert_allclose(
            a.transformed(t).vector, big_adjoint(t) @ a.vector, atol=1e-14
        )

    @pytest.mark.parametrize("vector", [
        [2.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0 + 1e-9, 0.0, 0.0, 0.0],
        [0.0, 0.0, np.nan, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, np.inf, 0.0, 0.0],
    ])
    def test_non_unit_or_non_finite_rejected(self, vector):
        with pytest.raises(ValueError, match="screw axis"):
            ScrewAxis(np.array(vector))

    def test_pure_translation_accepted(self):
        t = exp_screw(ScrewAxis(np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0])), 0.5)
        np.testing.assert_allclose(t.translation, [0.5, 0.0, 0.0], atol=1e-15)

    def test_non_finite_angle_rejected(self):
        with pytest.raises(ValueError, match="angle"):
            exp_screw(ScrewAxis(np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])), np.nan)


class TestPose:
    @pytest.mark.parametrize("rotation,translation,message", [
        (np.diag([1.0, 1.0, 1.1]), np.zeros(3), "orthonormal"),
        (np.diag([1.0, 1.0, -1.0]), np.zeros(3), "reflection"),
        (np.full((3, 3), np.nan), np.zeros(3), "orthonormal"),
        (np.diag([1.0, np.nan, 1.0]), np.zeros(3), "orthonormal"),
        (np.eye(3), np.array([np.nan, 0.0, 0.0]), "finite"),
        (np.eye(3), np.array([0.0, -np.inf, 0.0]), "finite"),
    ])
    def test_invalid_pose_rejected(self, rotation, translation, message):
        with pytest.raises(ValueError, match=message):
            Pose(rotation, translation)

    def test_derived_poses_frozen_and_orthonormal(self):
        rng = np.random.default_rng(81)
        for _ in range(10):
            a, b = random_pose(rng), random_pose(rng)
            for t in (a @ b, a.inverse(), Pose.identity()):
                assert not t.rotation.flags.writeable
                assert not t.translation.flags.writeable
                Pose(t.rotation, t.translation)   # passes the full check


class TestAdProducts:
    def test_match_little_adjoint_products(self):
        # the cross-product forms agree with the 6x6 matrix to rounding
        rng = np.random.default_rng(33)
        for _ in range(200):
            v, w = rng.normal(size=(2, 6)) * rng.uniform(0.1, 100, (2, 1))
            ad = little_adjoint(v)
            for got, want in ((ad_product(v, w), ad @ w),
                              (ad_transpose_product(v, w), ad.T @ w)):
                np.testing.assert_allclose(got, want, rtol=0,
                                           atol=1e-12 * np.abs(want).max())

    def test_bracket_of_a_twist_with_itself_vanishes(self):
        v = np.array([0.3, -1.2, 0.7, 2.0, 0.1, -0.4])
        np.testing.assert_allclose(ad_product(v, v), np.zeros(6), atol=1e-15)


def test_non_number_mass_raises_invalid_inertia():
    with pytest.raises(InvalidInertia, match="mass"):
        SpatialInertia("2", np.eye(3))
