"""Kernel closed forms: limits, PDE residuals, branch continuity, decay."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperstokes import (
    HyperKernel,
    InvalidArgument,
    SingularPointError,
    classical_oseen,
    green_classical,
    green_scalar,
    oseen_tensor,
    stokeslet_pressure,
    stokeslet_velocity,
)
from hyperstokes.kernel import (
    _D_SERIES,
    _G_SERIES,
    _Y_SERIES,
    _factors_closed,
    _factors_over_s,
    _horner,
    scaled_norm,
)

from fdtools import bilaplacian, divergence, gradient, laplacian, richardson4

FOUR_PI = 4.0 * np.pi


def neville_to_zero(svals, fvals):
    """Polynomial extrapolation of samples (s, f(s)) to s = 0."""
    coeffs = np.polyfit(svals, fvals, len(svals) - 1)
    return coeffs[-1]


class TestScaledNorm:
    def test_same_bits_as_plain_norm(self, rng):
        x = rng.normal(size=(500, 3)) * 10.0 ** rng.uniform(-100, 100, size=(500, 1))
        assert np.array_equal(scaled_norm(x, axis=-1), np.linalg.norm(x, axis=-1))
        for v in x[:50]:
            assert scaled_norm(v) == np.linalg.norm(v)

    @pytest.mark.parametrize("scale", [1e200, 1e-170, 1.5e308, 5e-324])
    def test_no_overflow_or_underflow(self, scale):
        v = np.array([3.0, 0.0, -4.0]) * (scale / 5.0) if scale > 1e-300 else np.array(
            [scale, 0.0, 0.0])
        expected = scale
        assert scaled_norm(v) == pytest.approx(expected, rel=1e-15)
        assert scaled_norm(np.stack([v, v]), axis=-1) == pytest.approx([expected] * 2,
                                                                        rel=1e-15)

    def test_only_out_of_range_vectors_are_redone(self, rng):
        x = rng.normal(size=(6, 3))
        x[1] *= 1e200
        x[4] *= 1e-170
        r = scaled_norm(x, axis=-1)
        kept = [0, 2, 3, 5]
        assert np.array_equal(r[kept], np.linalg.norm(x[kept], axis=-1))
        assert r[1] == pytest.approx(1e200 * np.linalg.norm(x[1] / 1e200), rel=1e-15)
        assert r[4] == pytest.approx(1e-170 * np.linalg.norm(x[4] / 1e-170), rel=1e-15)

    def test_zero_vector(self):
        assert scaled_norm(np.zeros(3)) == 0.0
        assert np.array_equal(scaled_norm(np.zeros((2, 3)), axis=-1), np.zeros(2))


class TestGreenScalar:
    def test_origin_limit_via_extrapolation(self):
        # oracle: sample near zero and extrapolate; compare the limit value
        k = HyperKernel(ell=1.0)
        svals = np.array([1e-3, 1e-4, 1e-5])
        fvals = [float(green_scalar([s, 0.0, 0.0], k)) for s in svals]
        extrapolated = neville_to_zero(svals, fvals)
        assert extrapolated == pytest.approx(1.0 / FOUR_PI, rel=1e-10)
        assert float(green_scalar([0.0, 0.0, 0.0], k)) == pytest.approx(
            1.0 / FOUR_PI, rel=1e-14
        )

    def test_small_ell_reduces_to_classical(self):
        k = HyperKernel(ell=1e-12)
        x = np.array([1.0, 0.0, 0.0])
        assert float(green_scalar(x, k)) == pytest.approx(1.0 / FOUR_PI, rel=1e-12)
        assert float(green_classical(x)) == 1.0 / FOUR_PI

    def test_direct_value(self):
        k = HyperKernel(ell=1.0)
        expected = (1.0 - np.exp(-2.0)) / (8.0 * np.pi)
        assert float(green_scalar([2.0, 0.0, 0.0], k)) == pytest.approx(
            expected, rel=1e-15
        )

    def test_positive_and_decreasing(self, rng):
        k = HyperKernel(ell=0.3)
        radii = np.sort(rng.uniform(1e-3, 20.0, size=50))
        vals = np.array([float(green_scalar([r, 0, 0], k)) for r in radii])
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) < 0.0)

    def test_rejects_non_finite(self):
        k = HyperKernel(ell=1.0)
        with pytest.raises(InvalidArgument):
            green_scalar([np.nan, 0.0, 0.0], k)
        with pytest.raises(InvalidArgument):
            green_scalar([np.inf, 0.0, 0.0], k)

    @pytest.mark.parametrize("x", [[1.0, 0.0], np.zeros((4, 2)), 1.0], ids=["2", "4x2", "scalar"])
    def test_rejects_points_that_are_not_3_vectors(self, x):
        with pytest.raises(InvalidArgument, match="expected 3-vector"):
            green_scalar(x, HyperKernel(ell=1.0))


class TestGreenClassical:
    def test_values(self):
        assert float(green_classical([0.0, 1.0, 0.0])) == pytest.approx(1.0 / FOUR_PI)
        assert float(green_classical([0.0, 0.0, 2.0])) == pytest.approx(1.0 / (8 * np.pi))

    def test_singular_at_origin(self):
        with pytest.raises(SingularPointError):
            green_classical([0.0, 0.0, 0.0])


class TestOseenTensor:
    def test_origin_value_via_extrapolation(self):
        # series-branch samples extrapolated to s = 0 against I/(6 pi ell)
        for ell in (0.25, 1.0, 3.0):
            k = HyperKernel(ell=ell)
            svals = np.array([1e-2, 1e-3])
            entries = np.array(
                [oseen_tensor([s * ell, 0.0, 0.0], k) for s in svals]
            )
            extrap = np.array(
                [
                    [neville_to_zero(svals, entries[:, i, j]) for j in range(3)]
                    for i in range(3)
                ]
            )
            expected = np.eye(3) / (6.0 * np.pi * ell)
            assert np.allclose(extrap, expected, rtol=1e-5, atol=1e-5 / ell)
            assert np.allclose(
                oseen_tensor(np.zeros(3), k), expected, rtol=1e-14
            )

    def test_symmetric_and_even_exactly(self, rng):
        for _ in range(1000):
            ell = float(np.exp(rng.uniform(np.log(1e-2), np.log(10.0))))
            k = HyperKernel(ell=ell)
            x = rng.normal(size=3) * np.exp(rng.uniform(-3, 3))
            z = oseen_tensor(x, k)
            assert np.array_equal(z, z.T)
            assert np.array_equal(z, oseen_tensor(-x, k))

    def test_classical_limit(self):
        x = np.array([1.0, 0.0, 0.0])
        z_small = oseen_tensor(x, HyperKernel(ell=1e-6))
        ref = classical_oseen(x)
        assert np.allclose(z_small, ref, rtol=1e-6)
        z_tiny = oseen_tensor(x, HyperKernel(ell=1e-8))
        assert np.allclose(z_tiny, ref, rtol=1e-8)

    def test_classical_oseen_structure(self):
        z = classical_oseen([1.0, 0.0, 0.0])
        assert np.allclose(z, np.diag([2.0, 1.0, 1.0]) / (8.0 * np.pi), rtol=1e-15)
        x = np.array([0.3, -0.2, 0.9])
        assert np.trace(classical_oseen(x)) == pytest.approx(
            4.0 / (8.0 * np.pi * np.linalg.norm(x)), rel=1e-14
        )
        with pytest.raises(SingularPointError):
            classical_oseen(np.zeros(3))


class TestStokeslet:
    def test_velocity_zero_force(self):
        k = HyperKernel(ell=1.0)
        assert np.array_equal(
            stokeslet_velocity([0.3, 0.4, 0.5], np.zeros(3), k), np.zeros(3)
        )

    def test_velocity_at_origin(self):
        k = HyperKernel(ell=1.0)
        e1 = np.array([1.0, 0.0, 0.0])
        assert np.allclose(
            stokeslet_velocity(np.zeros(3), e1, k), e1 / (6.0 * np.pi), rtol=1e-14
        )

    def test_velocity_even(self, rng):
        k = HyperKernel(ell=0.7)
        for _ in range(20):
            x = rng.normal(size=3)
            h = rng.normal(size=3)
            assert np.array_equal(
                stokeslet_velocity(x, h, k), stokeslet_velocity(-x, h, k)
            )

    def test_pressure_values(self):
        e3 = np.array([0.0, 0.0, 1.0])
        assert float(stokeslet_pressure(e3, e3)) == pytest.approx(
            1.0 / FOUR_PI, rel=1e-15
        )
        assert float(stokeslet_pressure([1.0, 0.0, 0.0], e3)) == 0.0

    def test_pressure_homogeneity(self, rng):
        x = rng.normal(size=3)
        h = rng.normal(size=3)
        assert float(stokeslet_pressure(2.0 * x, h)) == pytest.approx(
            float(stokeslet_pressure(x, h)) / 4.0, rel=1e-14
        )

    def test_pressure_singular_at_origin(self):
        with pytest.raises(SingularPointError):
            stokeslet_pressure(np.zeros(3), np.ones(3))

    def test_pressure_has_the_plain_formula_bits_in_range(self, rng):
        # 2^-2e (h . u) / (4 pi |u|^3) differs from it in the last bit at some
        # points (numpy's |x|**3 is pow, which is not exact under scaling)
        x = rng.normal(size=(20_000, 3)) * 10.0 ** rng.uniform(-30, 30, size=(20_000, 1))
        h = rng.normal(size=(20_000, 3))
        plain = np.einsum("...i,...i->...", x, h) / (FOUR_PI * np.linalg.norm(x, axis=-1)**3)
        assert np.array_equal(stokeslet_pressure(x, h), plain)
        for xi, hi, pi_ in zip(x[:200], h[:200], plain):
            assert stokeslet_pressure(xi, hi) == pi_

    @pytest.mark.parametrize("scale", [1e150, 1e120, 1e-120, 1e-150])  # |x|^3 out of range
    def test_pressure_far_and_near_without_overflow(self, scale):
        x = np.array([0.6, 0.0, 0.8])
        h = np.array([1.0, 2.0, -0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = stokeslet_pressure(scale * x, h)
            normal = stokeslet_pressure(scale * x, np.array([0.0, 1.0, 0.0]))
        assert p == pytest.approx(stokeslet_pressure(x, h) / scale**2, rel=1e-15)
        assert normal == 0.0


class TestResultsOutOfRange:
    """Finite points whose kernel values leave the float range give the IEEE
    limits, 0 or inf, without a RuntimeWarning (an error in this suite)."""

    K = HyperKernel(ell=0.1)
    E1 = np.array([1.0, 0.0, 0.0])

    def test_far_point_gives_subnormal_values(self):
        # s = |x| / ell overflows, and so do 4 pi |x| and 8 pi |x|: the kernels
        # divide by |x| first, and their subnormal values are kept
        x = 1e308 * self.E1
        g = 1.0 / 1e308 / FOUR_PI
        z = np.diag([2.0, 1.0, 1.0]) / 1e308 / (2.0 * FOUR_PI)
        assert g == pytest.approx(1.0 / (FOUR_PI * 1e154) / 1e154, rel=1e-13)
        assert green_scalar(x, self.K) == green_classical(x) == g
        assert np.array_equal(oseen_tensor(x, self.K), z)
        assert np.array_equal(classical_oseen(x), z)
        assert np.array_equal(stokeslet_velocity(x, self.E1, self.K), z[0])
        assert stokeslet_pressure(x, self.E1) == 0.0  # (h . x) / (4 pi |x|^3) underflows

    @pytest.mark.parametrize("ell, x, h", [
        (0.1, [0.05, 0.0, 0.0], [1.7e308, 1.7e308, 0.0]),
        (1e-300, [1e10, 0.0, 0.0], [1e308, 0.0, 0.0]),
        (0.1, [1e308, 0.0, 0.0], [1e308, 0.0, 0.0]),
    ])
    def test_velocity_with_overflowing_numerator(self, ell, x, h):
        # D/s h + Y/s xhat (xhat . h) overflows, though Z h does not
        k, x, h = HyperKernel(ell=ell), np.array(x), np.array(h)
        zeta = stokeslet_velocity(x, h, k)
        assert np.all(np.isfinite(zeta))
        assert zeta == pytest.approx(oseen_tensor(x, k) @ h, rel=1e-12)
        # only the overflowed entries are redone: an ordinary point keeps its bits
        near = np.array([0.3, 0.2, 0.1])
        both = stokeslet_velocity(np.array([x, near]), np.array([h, self.E1]), k)
        assert np.array_equal(both, [zeta, stokeslet_velocity(near, self.E1, k)])

    @pytest.mark.parametrize("ell, r", [(1e-300, 1e10), (1e-10, 1e299), (0.1, 1e308)])
    def test_overflowed_s_gives_classical_limits(self, ell, r):
        # s = r / ell leaves the float range at an ordinary r when ell is tiny
        k = HyperKernel(ell=ell)
        x = r * np.array([0.6, 0.0, -0.8])
        g, z = green_scalar(x, k), oseen_tensor(x, k)
        assert g == green_classical(x)
        assert np.array_equal(z, classical_oseen(x))
        assert np.array_equal(stokeslet_velocity(x, self.E1, k), z @ self.E1)
        if r < 1e300:  # not rounded to 0
            assert g == pytest.approx(1.0 / (4.0 * np.pi * r), rel=1e-15)
        # a batch with finite s as well: those keep their screened values
        near = np.array([0.5 * ell, 0.0, 0.0])
        both = np.array([near, x])
        assert np.array_equal(green_scalar(both, k), [green_scalar(near, k), g])
        assert np.array_equal(oseen_tensor(both, k), [oseen_tensor(near, k), z])

    @pytest.mark.parametrize("scale", [1e-200, 1e-320])
    def test_near_point_gives_origin_values_and_inf(self, scale):
        x = scale * self.E1
        assert stokeslet_pressure(x, self.E1) == np.inf
        assert np.array_equal(green_scalar(x, self.K), green_scalar(np.zeros(3), self.K))
        assert np.array_equal(oseen_tensor(x, self.K), oseen_tensor(np.zeros(3), self.K))
        assert np.array_equal(stokeslet_velocity(x, self.E1, self.K),
                              stokeslet_velocity(np.zeros(3), self.E1, self.K))
        if scale == 1e-320:  # 1 / (4 pi |x|) overflows below about 4e-310
            assert green_classical(x) == np.inf
            assert np.array_equal(classical_oseen(x), np.diag([np.inf] * 3))


class TestBranchesAndFactors:
    @pytest.mark.parametrize("threshold", [0.05, 0.1, 0.3, 0.5])
    def test_branch_continuity(self, threshold):
        s = np.array([threshold])
        ident_c, dyad_c = _factors_closed(s)
        dr, yr = _horner(_D_SERIES, s), _horner(_Y_SERIES, s)
        assert ident_c[0] == pytest.approx(dr[0] * s[0], rel=1e-12)
        assert dyad_c[0] == pytest.approx(yr[0] * s[0], rel=1e-12)

    def test_branch_agreement_at_cutoff(self):
        # the bounds the HyperKernel docstring states for s within 2e-12 of the cutoff
        assert len(_D_SERIES) == len(_Y_SERIES) == len(_G_SERIES) - 1 == HyperKernel.series_terms
        s = HyperKernel.series_threshold + np.linspace(-2e-12, 2e-12, 4001)
        ident_c, dyad_c = _factors_closed(s)
        dr, yr = _horner(_D_SERIES, s), _horner(_Y_SERIES, s)
        assert np.abs(ident_c / s - dr).max() <= 2e-13 * np.abs(dr).min()
        assert np.abs(dyad_c / s - yr).max() <= 2e-11 * np.abs(yr).min()

    @pytest.mark.parametrize("case", ["none-small", "some-small", "all-small",
                                      "at-cutoff", "scalar"])
    def test_factors_match_masked_evaluation(self, case, rng):
        # the closed form written out as expressions, gathered and scattered by mask
        k = HyperKernel(ell=0.1)
        s = {
            "none-small": rng.uniform(0.1, 60.0, size=(40, 300)),
            "some-small": rng.uniform(0.0, 3.0, size=(40, 300)),
            "all-small": rng.uniform(0.0, 0.1, size=500),
            "at-cutoff": k.series_threshold + np.linspace(0.0, 1e-9, 101),
            "scalar": np.array(0.7),
        }[case]
        small = s < k.series_threshold
        dr = np.empty_like(s)
        yr = np.empty_like(s)
        sl = s[~small]
        e = np.exp(-sl)
        one_minus_e = -np.expm1(-sl)
        inv = 1.0 / sl
        dr[~small] = (1.0 - 2.0 * e - 2.0 * inv * e + 2.0 * inv * inv * one_minus_e) / sl
        yr[~small] = (1.0 + 2.0 * e + 6.0 * inv * e - 6.0 * inv * inv * one_minus_e) / sl
        dr[small], yr[small] = _horner(_D_SERIES, s[small]), _horner(_Y_SERIES, s[small])
        got_dr, got_yr = _factors_over_s(s, k)
        assert got_dr.shape == got_yr.shape == s.shape
        assert np.array_equal(got_dr, dr) and np.array_equal(got_yr, yr)

    def test_green_branch_continuity(self):
        # the two branches of green_scalar, (1 - e^{-s})/s closed and by series
        for thr in (0.05, 0.1, 0.5):
            s = np.array([thr])
            assert _horner(_G_SERIES, s)[0] == pytest.approx(-np.expm1(-thr) / thr, rel=1e-12)

    def test_factor_limits(self):
        # D(s) and Y(s), the coefficients of delta_ij / (8 pi |x|) and
        # x_i x_j / (8 pi |x|^3) in the Oseen tensor, tend to 1
        s = np.array([1e4, 1e6])
        dr, yr = _factors_over_s(s, HyperKernel(ell=1.0))
        assert np.allclose(dr * s, 1.0, atol=3e-8)
        assert np.allclose(yr * s, 1.0, atol=3e-8)

    def test_factor_bounds(self):
        # the dyadic factor stays in [0, 1]; the identity factor overshoots 1
        # (max ~1.0807 near s = 3.5) before approaching 1 like 1 + 2/s^2
        k = HyperKernel(ell=1.0)
        s = np.concatenate([np.linspace(1e-4, 20.0, 4000), np.logspace(1.5, 6, 100)])
        dr, yr = _factors_over_s(s, k)
        ident, dyad = dr * s, yr * s
        assert np.all(dyad >= 0.0) and np.all(dyad <= 1.0)
        assert np.all(ident >= 0.0) and np.all(ident <= 1.081)
        assert ident.max() > 1.05  # the overshoot is real, not roundoff

    @given(
        s=st.floats(min_value=1e-6, max_value=50.0),
        ell=st.floats(min_value=1e-2, max_value=10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_oseen_positive_semidefinite(self, s, ell):
        # eigenvalues of Z along/transverse to x are the two factors / (8 pi |x|)
        k = HyperKernel(ell=ell)
        x = np.array([s * ell, 0.0, 0.0])
        eigs = np.linalg.eigvalsh(oseen_tensor(x, k))
        assert np.all(eigs >= 0.0)


class TestFieldEquations:
    def test_divergence_free(self, rng):
        k = HyperKernel(ell=0.1)
        for _ in range(50):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            radius = k.ell * np.exp(rng.uniform(np.log(0.1), np.log(100.0)))
            x = radius * direction
            h = rng.normal(size=3)

            def field(pts):
                return stokeslet_velocity(pts, h, k)

            div = richardson4(lambda hh: divergence(field, x, hh), 1e-4 * radius)
            scale = np.linalg.norm(field(x)) / radius
            assert abs(div) < 1e-6 * scale

    def test_momentum_balance_and_pressure_harmonicity(self, rng):
        # grad p - lap zeta + ell^2 bilap zeta = 0 away from the origin,
        # and p is harmonic there
        k = HyperKernel(ell=0.4)
        for _ in range(25):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            radius = k.ell * np.exp(rng.uniform(0.0, np.log(40.0)))
            x = radius * direction
            h = rng.normal(size=3)

            def vel(pts):
                return stokeslet_velocity(pts, h, k)

            def pres(pts):
                return stokeslet_pressure(pts, h)

            step = 0.02 * radius
            grad_p = richardson4(lambda hh: gradient(pres, x, hh), step)
            lap_z = richardson4(lambda hh: laplacian(vel, x, hh), step)
            bilap_z = richardson4(lambda hh: bilaplacian(vel, x, hh), step)
            residual = grad_p - lap_z + k.ell**2 * bilap_z
            assert np.linalg.norm(residual) < 1e-4 * np.linalg.norm(grad_p)
            lap_p = richardson4(lambda hh: laplacian(pres, x, hh), step)
            assert abs(lap_p) < 1e-4 * np.linalg.norm(grad_p)

    def test_far_field_decay(self, rng):
        k = HyperKernel(ell=0.2)
        for _ in range(50):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            radius = k.ell * np.exp(rng.uniform(np.log(10.0), np.log(1e4)))
            x = radius * direction
            z_norm = np.linalg.norm(oseen_tensor(x, k), 2)
            assert z_norm * radius <= 1.0 / (2.0 * np.pi)
        far = np.array([1e6 * k.ell, 0.0, 0.0])
        assert float(green_scalar(far, k)) * np.linalg.norm(far) == pytest.approx(
            1.0 / FOUR_PI, rel=1e-5
        )


class TestHyperKernelValidation:
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_bad_ell(self, bad):
        with pytest.raises(InvalidArgument):
            HyperKernel(ell=bad)
