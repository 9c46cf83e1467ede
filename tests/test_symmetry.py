"""Symmetry detection, the tensor transformation law, structural patterns."""

import numpy as np
import pytest

from hyperstokes import (
    BodyGeometry,
    FreefallInput,
    InvalidArgument,
    NoTranslationalOrientation,
    ResistanceSet,
    Segment,
    SteadyState,
    check_geometric_invariance,
    check_helicoidal_pattern,
    check_plane_pattern,
    check_transform_law,
    discretize,
    resistance,
    symmetry_report,
    translational_orientation_plane,
    verify,
)


def rotation_about(axis: int, angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    p, q = [i for i in range(3) if i != axis]
    m = np.eye(3)
    m[p, p] = c
    m[q, q] = c
    m[p, q] = -s
    m[q, p] = s
    return m


def zigzag_body(rng):
    """An asymmetric 3D polyline with nothing special about it."""
    pts = rng.normal(size=(5, 3))
    return BodyGeometry(name="zigzag", segments=(Segment(points=pts),))


OCTAHEDRAL_GENERATORS = [
    np.diag([1.0, -1.0, 1.0]),
    np.diag([-1.0, 1.0, 1.0]),
    rotation_about(0, np.pi / 2.0),
    rotation_about(2, np.pi / 2.0),
    np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]),  # cyclic
]


class TestGeometricInvariance:
    def test_identity_is_exact(self, suite_solutions):
        dbody, _ = suite_solutions[("bent_rod", 8)]
        assert check_geometric_invariance(dbody, np.eye(3)) == 0.0

    def test_rod_reflection(self, suite_solutions):
        dbody, _ = suite_solutions[("rod", 8)]
        err = check_geometric_invariance(dbody, np.diag([1.0, -1.0, 1.0]))
        assert err < 1e-13

    def test_tripod_third_turn_yes_quarter_turn_no(self, suite_solutions):
        dbody, _ = suite_solutions[("tripod", 8)]
        good = rotation_about(0, 2.0 * np.pi / 3.0)
        bad = rotation_about(0, np.pi / 2.0)
        assert check_geometric_invariance(dbody, good) < 1e-13
        assert check_geometric_invariance(dbody, bad) > 1e-3 * dbody.diameter

    def test_density_mismatch_detected(self, kernel):
        seg = Segment(
            points=np.array([[-0.5, 0.0, 0.0], [0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]),
            density=np.array([2.0, 1.0]),
        )
        dbody = discretize(BodyGeometry(name="lopsided", segments=(seg,)), 8)
        err = check_geometric_invariance(dbody, np.diag([-1.0, 1.0, 1.0]))
        assert err > 0.1 * dbody.diameter  # geometry matches, densities do not

    def test_non_orthogonal_rejected(self, suite_solutions):
        from hyperstokes import InvalidArgument

        dbody, _ = suite_solutions[("rod", 8)]
        with pytest.raises(InvalidArgument):
            check_geometric_invariance(dbody, 2.0 * np.eye(3))


class TestTransformLaw:
    def test_identity_residuals_vanish(self, suite_solutions):
        _, res = suite_solutions[("tripod", 8)]
        assert check_transform_law(res, np.eye(3)) == (0.0, 0.0, 0.0)

    def test_octahedral_generators(self, suite_solutions):
        _, res = suite_solutions[("octahedron", 16)]
        for q in OCTAHEDRAL_GENERATORS:
            rk, rb, rc = check_transform_law(res, q)
            assert max(rk, rb, rc) < 1e-8

    def test_rod_quarter_turn_is_not_a_symmetry(self, suite_solutions):
        _, res = suite_solutions[("rod", 16)]
        rk, _, _ = check_transform_law(res, rotation_about(1, np.pi / 2.0))
        assert rk > 0.01  # axial vs broadside drag differ

    def test_soundness_invariance_implies_law(self, suite_solutions):
        cases = {
            "rod": [np.diag([-1.0, 1.0, 1.0]), rotation_about(0, 0.31)],
            "bent_rod": [np.diag([-1.0, 1.0, 1.0]), np.diag([1.0, -1.0, 1.0])],
            "tripod": [rotation_about(0, 2.0 * np.pi / 3.0)],
            "octahedron": OCTAHEDRAL_GENERATORS,
        }
        for name, qs in cases.items():
            dbody, res = suite_solutions[(name, 8)]
            for q in qs:
                assert check_geometric_invariance(dbody, q) < 1e-9 * dbody.diameter
                assert max(check_transform_law(res, q)) < 1e-8, name


class TestPatterns:
    def test_bent_rod_plane_pattern(self, suite_solutions):
        _, res = suite_solutions[("bent_rod", 16)]
        assert check_plane_pattern(res, 1)
        assert check_plane_pattern(res, 2)  # arms mirror across x1-x3 too

    def test_zigzag_has_no_pattern(self, kernel, rng):
        dbody = discretize(zigzag_body(rng), 16)
        res = resistance(dbody, kernel)
        assert not check_plane_pattern(res, 1)
        assert not check_plane_pattern(res, 2)
        assert not check_plane_pattern(res, 3)
        assert not check_helicoidal_pattern(res, 1)

    def test_zero_tensors_trivially_match(self):
        zero = np.zeros((3, 3))
        res = ResistanceSet.from_blocks(zero, zero, zero, zero)
        assert check_plane_pattern(res, 1)
        assert check_helicoidal_pattern(res, 2)

    def test_tripod_helicoidal_pattern(self, suite_solutions):
        _, res = suite_solutions[("tripod", 16)]
        assert check_helicoidal_pattern(res, 1)
        assert not check_helicoidal_pattern(res, 2)

    def test_bent_rod_not_helicoidal(self, suite_solutions):
        _, res = suite_solutions[("bent_rod", 16)]
        assert not check_helicoidal_pattern(res, 1)

    def test_isotropic_tensors_are_helicoidal(self):
        res = ResistanceSet.from_blocks(
            2.0 * np.eye(3), np.zeros((3, 3)), np.zeros((3, 3)), 0.5 * np.eye(3)
        )
        for axis in (1, 2, 3):
            assert check_helicoidal_pattern(res, axis)

    def test_fore_aft_bodies_have_zero_coupling(self, suite_solutions):
        for name in ("rod", "octahedron"):
            for res_per_len in (8, 16):
                _, res = suite_solutions[(name, res_per_len)]
                assert np.linalg.norm(res.C) < 1e-8 * np.linalg.norm(res.K)

    def test_pattern_axis_validation(self):
        res = ResistanceSet.from_blocks(np.eye(3), np.zeros((3, 3)),
                                        np.zeros((3, 3)), np.eye(3))
        with pytest.raises(InvalidArgument):
            check_plane_pattern(res, 0)
        with pytest.raises(InvalidArgument):
            check_plane_pattern(res, 4)


class TestTranslationalOrientation:
    def test_bent_rod_in_plane(self, suite_solutions):
        dbody, res = suite_solutions[("bent_rod", 16)]
        g, nullity = translational_orientation_plane(res)
        assert nullity >= 1
        assert abs(g[0]) < 1e-8  # lies in the x2-x3 symmetry plane
        # the predicted orientation solves the balance with lambda = 0
        inp = FreefallInput(resistance=res, m_e=1.0, m_c=0.0, r=np.zeros(3))
        xi = np.linalg.solve(res.K, inp.m_e * g)
        st = SteadyState(
            lam=0.0, g=g, xi=xi, omega=np.zeros(3), residual_force=0.0,
            residual_torque=0.0, classification="translational",
            multiplicity=1, consistent=True,
        )
        r1, r2 = verify(st, inp)
        assert max(r1, r2) < 1e-8

    def test_two_orthogonal_planes_give_axis_fall(self, suite_solutions):
        # bent rod has x2-x3 and x1-x3 as symmetry planes -> g = +-e3
        _, res = suite_solutions[("bent_rod", 16)]
        g, _ = translational_orientation_plane(res)
        assert np.allclose(np.abs(g), [0.0, 0.0, 1.0], atol=1e-8)

    def test_zero_coupling_returns_axis_with_full_nullity(self):
        res = ResistanceSet.from_blocks(
            np.diag([1.0, 2.0, 3.0]), np.zeros((3, 3)), np.zeros((3, 3)), np.eye(3)
        )
        g, nullity = translational_orientation_plane(res)
        assert nullity == 3
        assert np.array_equal(g, [0.0, 0.0, 1.0])

    def test_sign_of_g_makes_its_largest_component_positive(self):
        # C has the null direction e3; K and -K give K e3 of both signs, so
        # one of the two turns g around whatever sign the SVD gives e3
        k = np.array([[1.0, 0.0, 0.2], [0.0, 1.0, -0.5], [0.2, -0.5, 1.0]])
        c = np.diag([0.4, 0.5, 0.0])
        gs = [translational_orientation_plane(ResistanceSet.from_blocks(kk, c.T, c, np.eye(3)))
              for kk in (k, -k)]
        for g, nullity in gs:
            assert nullity == 1
            assert np.allclose(g, k[:, 2] / np.linalg.norm(k[:, 2]), rtol=0.0, atol=1e-15)
        assert np.array_equal(gs[0][0], gs[1][0])

    def test_regular_coupling_raises(self):
        c = np.diag([0.4, 0.5, 0.6])
        res = ResistanceSet.from_blocks(np.eye(3), c.T, c, np.eye(3))
        with pytest.raises(NoTranslationalOrientation):
            translational_orientation_plane(res)


class TestSymmetryReport:
    def test_full_report_for_tripod(self, suite_solutions):
        dbody, res = suite_solutions[("tripod", 8)]
        q = rotation_about(0, 2.0 * np.pi / 3.0)
        report = symmetry_report(dbody, res, Q=q, plane_axis=3, heli_axis=1)
        assert report.invariant
        assert report.det == pytest.approx(1.0)
        assert max(report.tensor_residuals) < 1e-8
        assert report.heli_pattern
        assert report.plane_pattern  # mirror plane through the axis
        assert report.fore_aft is None  # different axes requested
        assert report.coupling_nullity >= 1

    def test_diameter_computed_once(self, suite_solutions, monkeypatch):
        import hyperstokes.geometry as geo

        dbody, res = suite_solutions[("tripod", 8)]
        q = rotation_about(0, 2.0 * np.pi / 3.0)
        ref = symmetry_report(dbody, res, Q=q)
        calls = []
        diameter = geo._cloud_diameter

        def counting(points):
            calls.append(len(points))
            return diameter(points)

        monkeypatch.setattr(geo, "_cloud_diameter", counting)
        report = symmetry_report(dbody, res, Q=q)
        assert calls == [dbody.n_nodes]
        assert report.invariance_error == ref.invariance_error
        assert report.invariant == ref.invariant

    def test_fore_aft_flag_for_octahedron(self, suite_solutions):
        dbody, res = suite_solutions[("octahedron", 8)]
        report = symmetry_report(dbody, res, plane_axis=1, heli_axis=1)
        assert report.fore_aft
