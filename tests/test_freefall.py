"""Steady-state solver: eigenproblem construction, oracles, classification."""

import dataclasses

import numpy as np
import pytest

from hyperstokes import (
    BodyGeometry,
    FreefallInput,
    InvalidArgument,
    ResistanceSet,
    Segment,
    SingularSystemError,
    SteadyState,
    bent_rod,
    build_F,
    discretize,
    mass_properties,
    resistance,
    steady_states,
    tilt_angle,
    verify,
)
from hyperstokes.dynamics import fibonacci_sphere
from hyperstokes.freefall import skew


def synthetic_input(K, S, C, B, m_e=1.0, m_c=0.0, r=(0.0, 0.0, 0.0)):
    res = ResistanceSet.from_blocks(K=K, S=S, C=C, B=B)
    return FreefallInput(resistance=res, m_e=m_e, m_c=m_c, r=np.asarray(r, float))


def brute_force_states(inp, n_lambda=101, n_sphere=10_000, lam_range=1.0):
    """Grid search over (lambda, g in S^2) minimizing the balance residual.

    xi is eliminated exactly through the force equation, so the score is the
    torque-balance residual alone.  Grid minima are polished by local least
    squares in (lambda, local sphere chart); this never touches the
    eigenvalue path used by the solver.
    """
    from scipy.optimize import least_squares

    res = inp.resistance
    k_inv = np.linalg.inv(res.K)

    def torque_residual(lam, gs):
        xi = (inp.m_e * k_inv @ gs.T - lam * (k_inv @ res.S) @ gs.T).T
        return (
            xi @ res.C.T
            + lam * gs @ res.B.T
            + inp.m_c * np.cross(np.broadcast_to(inp.r, gs.shape), gs)
        )

    lams = np.linspace(-lam_range, lam_range, n_lambda)
    gs = fibonacci_sphere(n_sphere)
    candidates = []
    for lam in lams:
        norms = np.linalg.norm(torque_residual(lam, gs), axis=1)
        idx = int(np.argmin(norms))
        candidates.append((float(norms[idx]), float(lam), gs[idx]))
    candidates.sort(key=lambda t: t[0])
    cut = 3.0 * (lams[1] - lams[0])

    found = []
    for score, lam0, g0 in candidates:
        if score > cut:
            break
        # local chart around g0 for the polish
        pivot = np.zeros(3)
        pivot[int(np.argmin(np.abs(g0)))] = 1.0
        t1 = np.cross(g0, pivot)
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(g0, t1)

        def chart(ab):
            v = g0 + ab[0] * t1 + ab[1] * t2
            return v / np.linalg.norm(v)

        def fun(params):
            return torque_residual(params[0], chart(params[1:])[None, :])[0]

        sol = least_squares(fun, np.array([lam0, 0.0, 0.0]), xtol=1e-14, ftol=1e-14)
        lam, g = float(sol.x[0]), chart(sol.x[1:])
        if np.linalg.norm(fun(sol.x)) > 1e-6:
            continue
        if any(abs(lam - l0) < 1e-4 and abs(g @ g1) > 1.0 - 1e-6 for l0, g1 in found):
            continue
        found.append((lam, g))
    return found


class TestBuildF:
    def test_zero_coupling_gives_zero(self):
        inp = synthetic_input(np.eye(3), np.zeros((3, 3)), np.zeros((3, 3)), np.eye(3))
        assert np.allclose(build_F(inp), 0.0, atol=1e-15)

    def test_epsilon_example_against_direct_arithmetic(self):
        eps = 0.3
        inp = synthetic_input(np.eye(3), eps * np.eye(3), eps * np.eye(3), np.eye(3))
        f = build_F(inp)
        # direct 3x3 arithmetic oracle
        oracle = np.linalg.solve(
            (eps * np.eye(3)) @ (eps * np.eye(3)) - np.eye(3), eps * np.eye(3)
        )
        assert np.allclose(f, oracle, rtol=1e-14)
        assert np.allclose(f, (eps / (eps**2 - 1.0)) * np.eye(3), rtol=1e-14)

    def test_linearity_in_m_e(self):
        c = np.array([[0.0, 0.2, 0.0], [0.0, 0.0, 0.1], [0.3, 0.0, 0.0]])
        one = build_F(synthetic_input(np.eye(3), c.T, c, np.eye(3), m_e=1.0))
        three = build_F(synthetic_input(np.eye(3), c.T, c, np.eye(3), m_e=3.0))
        assert np.allclose(three, 3.0 * one, rtol=1e-13)

    def test_buoyancy_term_uses_centroid_offset(self):
        r = np.array([0.1, -0.2, 0.3])
        c = np.array([[0.0, 0.2, 0.0], [0.0, 0.0, 0.1], [0.3, 0.0, 0.0]])
        inp = synthetic_input(np.eye(3), c.T, c, np.eye(3), m_e=0.0, m_c=2.0, r=r)
        f = build_F(inp)
        oracle = np.linalg.solve(c @ c.T - np.eye(3), 2.0 * skew(r))
        assert np.allclose(f, oracle, rtol=1e-13)

    def test_singular_translation_tensor(self):
        inp = synthetic_input(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 3)),
                              np.eye(3), m_c=1.0, r=(1.0, 0.0, 0.0))
        with pytest.raises(SingularSystemError, match="translation tensor"):
            build_F(inp)

    def test_singular_grand_matrix(self):
        inp = synthetic_input(np.eye(3), np.zeros((3, 3)), np.zeros((3, 3)),
                              np.zeros((3, 3)), m_c=1.0, r=(1.0, 0.0, 0.0))
        with pytest.raises(SingularSystemError, match="grand resistance"):
            build_F(inp)


class TestSteadyStates:
    def test_decoupled_isotropic(self):
        inp = synthetic_input(2.0 * np.eye(3), np.zeros((3, 3)), np.zeros((3, 3)),
                              np.eye(3))
        states = steady_states(inp)
        assert len(states) == 6  # +-g for each coordinate axis
        for st in states:
            assert st.lam == 0.0
            assert st.classification == "translational"
            assert st.multiplicity == 3
            assert np.allclose(st.xi, 0.5 * st.g, rtol=1e-14)
            assert max(st.residual_force, st.residual_torque) < 1e-14

    def test_synthetic_coupling_against_brute_force(self):
        c = 0.3
        coupling = np.diag([0.0, c, -c])
        inp = synthetic_input(np.eye(3), coupling.T, coupling, np.eye(3))
        states = steady_states(inp)
        found = brute_force_states(inp)
        assert found, "brute-force oracle found no candidates"
        # every polished brute-force minimum matches a solver state to 1e-3
        for lam, g in found:
            match = min(
                states,
                key=lambda st: abs(st.lam - lam) + min(
                    np.linalg.norm(st.g - g), np.linalg.norm(st.g + g)
                ),
            )
            assert abs(match.lam - lam) < 1e-3
            assert min(
                np.linalg.norm(match.g - g), np.linalg.norm(match.g + g)
            ) < 1e-3
        # the polished states are exact: lambda in {0, +-c/(1-c^2)}
        lam_exact = c / (1.0 - c**2)
        lams = sorted({round(st.lam, 12) for st in states})
        assert lams == pytest.approx([-lam_exact, 0.0, lam_exact], abs=1e-12)
        for st in states:
            assert max(st.residual_force, st.residual_torque) < 1e-12

    def test_states_come_in_antipodal_pairs(self):
        c = np.array([[0.0, 0.2, 0.0], [0.1, 0.0, 0.0], [0.0, 0.0, 0.05]])
        inp = synthetic_input(np.eye(3), c.T, c, 2.0 * np.eye(3), m_e=1.5)
        states = steady_states(inp)
        assert len(states) % 2 == 0
        for a, b in zip(states[0::2], states[1::2]):
            assert a.lam == b.lam
            assert np.allclose(a.g, -b.g)
            assert np.allclose(a.xi, -b.xi)
            assert a.residual_force == pytest.approx(b.residual_force, abs=1e-13)

    def test_defective_eigenvalue_gives_one_pair(self):
        # F = J has lambda = 1 twice with one eigenvector: eig returns it twice,
        # up to roundoff, and the second copy is dropped
        jordan = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
        inp = synthetic_input(np.eye(3), np.zeros((3, 3)), jordan, -np.eye(3))
        assert np.array_equal(build_F(inp), jordan)
        states = steady_states(inp)
        assert [(st.lam, st.multiplicity) for st in states] == [(1.0, 2), (1.0, 2),
                                                                 (2.0, 1), (2.0, 1)]
        assert np.allclose(states[0].g, [1.0, 0.0, 0.0])
        assert np.allclose(states[2].g, [0.0, 0.0, 1.0])

    def test_existence_across_suite(self, suite_solutions, rng):
        for (name, _), (dbody, res) in suite_solutions.items():
            for _ in range(3):
                m_e = float(rng.uniform(0.1, 3.0))
                if name == "rod":
                    m_c, r = 0.0, np.zeros(3)  # rod cannot balance axial torque
                else:
                    m_c = float(rng.uniform(0.0, 1.0))
                    r = rng.normal(size=3) * 0.1
                inp = FreefallInput(resistance=res, m_e=m_e, m_c=m_c, r=r)
                states = steady_states(inp)
                assert states
                scale = inp.residual_scale
                assert any(
                    max(st.residual_force, st.residual_torque) < 1e-8 * scale
                    for st in states
                ), name

    def test_translational_iff_singular_coupling(self, suite_solutions):
        # bodies with det C = 0 and r = 0 admit a lambda = 0 state
        for name in ("bent_rod", "tripod", "octahedron"):
            dbody, res = suite_solutions[(name, 16)]
            inp = FreefallInput(resistance=res, m_e=1.0, m_c=0.0, r=np.zeros(3))
            states = steady_states(inp)
            trans = [st for st in states if st.classification == "translational"]
            assert trans, name
            for st in trans:
                assert abs(st.lam) < 1e-8

    def test_rod_degenerate_branch(self, suite_solutions):
        dbody, res = suite_solutions[("rod", 16)]
        inp = FreefallInput.from_body(dbody, res)
        states = steady_states(inp)
        assert len(states) == 6
        k_inv = np.linalg.inv(res.K)
        for st in states:
            assert st.lam == 0.0
            assert st.multiplicity == 3
            assert "degenerate" in st.note
            assert np.allclose(st.xi, inp.m_e * k_inv @ st.g, rtol=1e-12)


class TestVerify:
    def test_perturbed_xi_residual_is_exact(self, rng):
        inp = synthetic_input(np.diag([1.0, 2.0, 3.0]), np.zeros((3, 3)),
                              np.zeros((3, 3)), np.eye(3))
        st = steady_states(inp)[0]
        delta = rng.normal(size=3)
        moved = dataclasses.replace(st, xi=st.xi + delta)
        r1, r2 = verify(moved, inp)
        assert r1 == pytest.approx(np.linalg.norm(inp.resistance.K @ delta), rel=1e-13)

    def test_zero_state_residual_equals_m_e(self):
        inp = synthetic_input(np.eye(3), np.zeros((3, 3)), np.zeros((3, 3)),
                              np.eye(3), m_e=0.7)
        st = SteadyState(
            lam=0.0, g=np.array([0.0, 0.0, 1.0]), xi=np.zeros(3),
            omega=np.zeros(3), residual_force=0.0, residual_torque=0.0,
            classification="translational", multiplicity=1, consistent=True,
        )
        r1, r2 = verify(st, inp)
        assert r1 == pytest.approx(0.7, rel=1e-15)
        assert r2 == 0.0

    def test_emitted_states_verify(self, suite_solutions):
        dbody, res = suite_solutions[("bent_rod", 8)]
        inp = FreefallInput.from_body(dbody, res)
        for st in steady_states(inp):
            r1, r2 = verify(st, inp)
            assert r1 == st.residual_force
            assert r2 == st.residual_torque
            assert max(r1, r2) < 1e-10 * inp.residual_scale


class TestTiltAngle:
    def _state(self, g):
        return SteadyState(
            lam=0.0, g=np.asarray(g, float), xi=np.zeros(3), omega=np.zeros(3),
            residual_force=0.0, residual_torque=0.0,
            classification="translational", multiplicity=1, consistent=True,
        )

    def test_aligned(self):
        assert tilt_angle(self._state([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0]) == 0.0

    def test_orthogonal(self):
        assert tilt_angle(self._state([0.0, 1.0, 0.0]), [1.0, 0.0, 0.0]) == pytest.approx(90.0)

    def test_sixty_degrees(self):
        g = np.array([0.5, np.sqrt(3) / 2.0, 0.0])
        assert tilt_angle(self._state(g), [1.0, 0.0, 0.0]) == pytest.approx(60.0, rel=1e-12)

    def test_sign_insensitive(self):
        g = np.array([0.5, np.sqrt(3) / 2.0, 0.0])
        assert tilt_angle(self._state(-g), [1.0, 0.0, 0.0]) == pytest.approx(60.0, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e200, 1e-170, 5e-324, 1.7e308])
    def test_axis_length_does_not_matter(self, scale):
        g = np.array([0.5, np.sqrt(3) / 2.0, 0.0])
        axis = np.array([1.0, 0.0, 0.0])
        assert tilt_angle(self._state(g), scale * axis) == tilt_angle(self._state(g), axis)

    def test_zero_axis_rejected(self):
        with pytest.raises(InvalidArgument):
            tilt_angle(self._state([1.0, 0.0, 0.0]), [0.0, 0.0, 0.0])


class TestFreefallInputValidation:
    def test_bad_r(self):
        res = ResistanceSet.from_blocks(np.eye(3), np.zeros((3, 3)),
                                        np.zeros((3, 3)), np.eye(3))
        with pytest.raises(InvalidArgument):
            FreefallInput(resistance=res, m_e=1.0, m_c=0.0, r=np.array([1.0, np.nan, 0.0]))

    def test_negative_masses(self):
        res = ResistanceSet.from_blocks(np.eye(3), np.zeros((3, 3)),
                                        np.zeros((3, 3)), np.eye(3))
        with pytest.raises(InvalidArgument):
            FreefallInput(resistance=res, m_e=-1.0, m_c=0.0, r=np.zeros(3))
        with pytest.raises(InvalidArgument):
            FreefallInput(resistance=res, m_e=1.0, m_c=-0.5, r=np.zeros(3))

    def test_from_body_carries_mass_data(self):
        seg = bent_rod(90.0, 0.5).segments[0]
        heavy = Segment(points=seg.points, density=np.array([2.0, 1.0]))
        body_plain = BodyGeometry(name="v", segments=(heavy,))
        m = mass_properties(body_plain)
        body = BodyGeometry(name="v", segments=(heavy,), m_c=0.1 * m.m)
        dbody = discretize(body, 8)
        from hyperstokes import HyperKernel

        res = resistance(dbody, HyperKernel(ell=0.1))
        inp = FreefallInput.from_body(dbody, res)
        assert inp.m_e == pytest.approx(0.9 * m.m)
        assert inp.m_c == pytest.approx(0.1 * m.m)
        assert np.allclose(inp.r, dbody.mass.r)
