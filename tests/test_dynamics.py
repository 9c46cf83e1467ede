"""Quasi-steady orientation flow: balance solves, RK4 hygiene, fixed points."""

import numpy as np
import pytest

from hyperstokes import (
    FreefallInput,
    InvalidArgument,
    ResistanceSet,
    SingularSystemError,
    find_fixed_points,
    instantaneous_motion,
    integrate_orientation,
    steady_states,
)
from hyperstokes.dynamics import fibonacci_sphere, motion_operator


def synthetic_input(K, S, C, B, m_e=1.0, m_c=0.0, r=(0.0, 0.0, 0.0)):
    res = ResistanceSet.from_blocks(K=K, S=S, C=C, B=B)
    return FreefallInput(resistance=res, m_e=m_e, m_c=m_c, r=np.asarray(r, float))


def spinny_input():
    """Weak rotational resistance + off-center buoyancy: |omega| = O(5)."""
    return synthetic_input(
        np.eye(3), np.zeros((3, 3)), np.zeros((3, 3)), 0.01 * np.eye(3),
        m_e=1.0, m_c=1.0, r=(0.05, 0.0, 0.0),
    )


class TestInstantaneousMotion:
    def test_decoupled_body_translates_only(self, suite_solutions, rng):
        dbody, res = suite_solutions[("octahedron", 8)]
        inp = FreefallInput.from_body(dbody, res)
        k_inv = np.linalg.inv(res.K)
        for _ in range(5):
            g = rng.normal(size=3)
            g /= np.linalg.norm(g)
            xi, omega = instantaneous_motion(inp, g)
            assert np.linalg.norm(omega) < 1e-12 * np.linalg.norm(xi)
            assert np.allclose(xi, inp.m_e * k_inv @ g, rtol=1e-10)

    def test_neutrally_buoyant_body_stays_put(self, suite_solutions):
        dbody, res = suite_solutions[("tripod", 8)]
        inp = FreefallInput(resistance=res, m_e=0.0, m_c=0.0, r=np.zeros(3))
        xi, omega = instantaneous_motion(inp, np.array([0.0, 0.0, 1.0]))
        assert np.array_equal(xi, np.zeros(3))
        assert np.array_equal(omega, np.zeros(3))

    def test_linearity_in_m_e(self, suite_solutions):
        dbody, res = suite_solutions[("bent_rod", 8)]
        g = np.array([0.0, 0.6, 0.8])
        one = instantaneous_motion(
            FreefallInput(resistance=res, m_e=1.0, m_c=0.0, r=np.zeros(3)), g
        )
        two = instantaneous_motion(
            FreefallInput(resistance=res, m_e=2.0, m_c=0.0, r=np.zeros(3)), g
        )
        assert np.allclose(two[0], 2.0 * one[0], rtol=1e-13)
        assert np.allclose(two[1], 2.0 * one[1], rtol=1e-13, atol=1e-18)

    def test_singular_grand_matrix_raises(self, suite_solutions):
        dbody, res = suite_solutions[("rod", 8)]  # zero axial-spin mode
        inp = FreefallInput.from_body(dbody, res)
        with pytest.raises(SingularSystemError):
            instantaneous_motion(inp, np.array([1.0, 0.0, 0.0]))


class TestIntegrateOrientation:
    def test_decoupled_orientation_is_constant(self, suite_solutions):
        dbody, res = suite_solutions[("octahedron", 8)]
        inp = FreefallInput.from_body(dbody, res)
        g0 = np.array([0.3, -0.4, np.sqrt(1 - 0.25)])
        traj = integrate_orientation(inp, g0, 1e-2, 5.0)
        assert np.abs(traj.G - g0).max() < 1e-10
        assert np.allclose(traj.omega, 0.0, atol=1e-12)

    def test_steady_states_are_fixed_points_of_the_flow(self, suite_solutions):
        dbody, res = suite_solutions[("bent_rod", 16)]
        inp = FreefallInput.from_body(dbody, res)
        for st in steady_states(inp):
            traj = integrate_orientation(inp, st.g, 1e-2, 10.0)
            assert np.linalg.norm(traj.G - st.g, axis=1).max() < 1e-8
            assert traj.final_residual < 1e-10

    def test_norm_drift_budget(self):
        traj = integrate_orientation(
            spinny_input(), np.array([0.0, 1.0, 0.0]), 1e-2, 10.0
        )
        assert traj.max_norm_drift < 1e-9

    def test_step_drift_halving_shows_high_order(self):
        inp = spinny_input()
        g0 = np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0)
        drifts = [
            integrate_orientation(inp, g0, dt, 1.0).max_step_drift
            for dt in (2e-2, 1e-2, 5e-3)
        ]
        assert drifts[0] / drifts[1] >= 12.0
        assert drifts[1] / drifts[2] >= 12.0

    def test_trajectory_shapes_and_grid(self):
        traj = integrate_orientation(
            spinny_input(), np.array([1.0, 0.0, 0.0]), 1e-2, 0.5
        )
        assert traj.t.shape == (51,)
        assert traj.G.shape == (51, 3)
        assert traj.xi.shape == (51, 3)
        assert traj.omega.shape == (51, 3)
        assert traj.t[-1] == pytest.approx(0.5)

    def test_input_validation(self):
        inp = spinny_input()
        with pytest.raises(InvalidArgument):
            integrate_orientation(inp, np.array([2.0, 0.0, 0.0]), 1e-2, 1.0)
        with pytest.raises(InvalidArgument):
            integrate_orientation(inp, np.array([1.0, 0.0, 0.0]), -1e-2, 1.0)
        with pytest.raises(InvalidArgument):
            integrate_orientation(inp, np.array([1.0, 0.0, 0.0]), 1e-2, 0.0)

    def test_trajectory_larger_than_memory_rejected(self, monkeypatch):
        import hyperstokes.mobility as mob

        inp = spinny_input()
        g0 = np.array([1.0, 0.0, 0.0])
        monkeypatch.setattr(mob, "_available_memory_bytes", lambda: None)
        monkeypatch.setattr(mob, "_physical_memory_bytes", lambda: 80 * 101)
        assert integrate_orientation(inp, g0, 0.01, 1.0).t.shape == (101,)
        with pytest.raises(InvalidArgument, match="physical memory"):
            integrate_orientation(inp, g0, 0.01, 1.01)
        with pytest.raises(InvalidArgument):  # the step count overflows a float
            integrate_orientation(inp, g0, 5e-324, 1e300)


class TestFindFixedPoints:
    def test_decoupled_body_all_orientations(self, suite_solutions):
        dbody, res = suite_solutions[("octahedron", 8)]
        inp = FreefallInput.from_body(dbody, res)
        result = find_fixed_points(inp, 500)
        assert result.all_orientations
        assert len(result.points) == 6
        for g, resid in result.points:
            assert resid <= result.threshold

    def test_matches_eigen_solver_on_synthetic_input(self):
        c = np.diag([0.0, 0.3, -0.3])
        inp = synthetic_input(np.eye(3), c.T, c, np.eye(3))
        states = steady_states(inp)
        result = find_fixed_points(inp, 2000)
        assert not result.all_orientations
        assert len(result.points) == len(states)
        for g, resid in result.points:
            assert resid < 1e-8 * (inp.m_e + inp.m_c * np.linalg.norm(inp.r))
            nearest = min(
                min(np.linalg.norm(g - st.g), np.linalg.norm(g + st.g))
                for st in states
            )
            assert nearest < 1e-6

    def test_matches_eigen_solver_on_bent_rod(self, suite_solutions):
        dbody, res = suite_solutions[("bent_rod", 16)]
        inp = FreefallInput.from_body(dbody, res)
        states = steady_states(inp)
        # at 12 lattice points the candidates lie up to 54 degrees from the
        # states, so the polish has to converge from far away
        for grid in (2000, 12):
            result = find_fixed_points(inp, grid)
            for g, _ in result.points:
                nearest = min(
                    min(np.linalg.norm(g - st.g), np.linalg.norm(g + st.g))
                    for st in states
                )
                assert nearest < 1e-6
            # and conversely every steady state is found
            for st in states:
                nearest = min(
                    min(np.linalg.norm(g - st.g), np.linalg.norm(g + st.g))
                    for g, _ in result.points
                )
                assert nearest < 1e-6

    def test_grid_validation(self):
        with pytest.raises(InvalidArgument):
            find_fixed_points(spinny_input(), 4)

    def test_lattice_larger_than_memory_rejected(self, monkeypatch):
        import hyperstokes.mobility as mob

        monkeypatch.setattr(mob, "_available_memory_bytes", lambda: None)
        monkeypatch.setattr(mob, "_physical_memory_bytes", lambda: 200 * 500)
        assert find_fixed_points(spinny_input(), 500).points
        with pytest.raises(InvalidArgument, match="physical memory"):
            find_fixed_points(spinny_input(), 501)


class TestStableOrder:
    """Roundoff in A or the sign of an eigenvector must not reorder the outputs."""

    @staticmethod
    def _orders(inp):
        states = steady_states(inp)
        points = find_fixed_points(inp, 2000).points
        return np.array([st.g for st in states]), np.array([g for g, _ in points])

    @pytest.mark.parametrize("name", ["bent_rod", "tripod", "helix"])
    def test_order_survives_eigenvector_sign_and_roundoff(
        self, suite_solutions, monkeypatch, rng, name
    ):
        dbody, res = suite_solutions[(name, 8)]
        inp = FreefallInput.from_body(dbody, res)
        states, points = self._orders(inp)
        assert len(points) > 0

        noise = rng.normal(size=(6, 6))
        a = res.A * (1.0 + 1e-15 * (noise + noise.T))
        perturbed = ResistanceSet.from_blocks(a[:3, :3], a[:3, 3:], a[3:, :3], a[3:, 3:])
        states_p, points_p = self._orders(
            FreefallInput(resistance=perturbed, m_e=inp.m_e, m_c=inp.m_c, r=inp.r)
        )
        assert np.allclose(states_p, states, atol=1e-8)
        assert np.allclose(points_p, points, atol=1e-8)

        eig = np.linalg.eig

        def negated_eig(m):
            vals, vecs = eig(m)
            return vals, -vecs

        monkeypatch.setattr(np.linalg, "eig", negated_eig)
        states_n, points_n = self._orders(inp)
        assert np.allclose(states_n, states, atol=1e-8)
        assert np.allclose(points_n, points, atol=1e-8)


class TestKinematics:
    def test_motion_operator_is_the_balance_inverse(self, suite_solutions, rng):
        dbody, res = suite_solutions[("tripod", 8)]
        inp = FreefallInput(resistance=res, m_e=1.2, m_c=0.4,
                            r=np.array([0.02, -0.01, 0.03]))
        l_xi, l_omega = motion_operator(inp)
        g = rng.normal(size=3)
        g /= np.linalg.norm(g)
        lhs_force = res.K @ (l_xi @ g) + res.S @ (l_omega @ g)
        lhs_torque = res.C @ (l_xi @ g) + res.B @ (l_omega @ g)
        assert np.allclose(lhs_force, inp.m_e * g, atol=1e-12)
        assert np.allclose(lhs_torque, -inp.m_c * np.cross(inp.r, g), atol=1e-12)

    def test_fibonacci_sphere_is_unit_and_spread(self):
        pts = fibonacci_sphere(1000)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
        assert np.abs(pts.mean(axis=0)).max() < 0.01
