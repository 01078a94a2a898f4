"""Exact trig-polynomial arithmetic: evaluation, products, grids, log integrals."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from cocycles.errors import AliasingRisk, TailTooFat
from cocycles.matfun import GridMatrixFunction, MatrixFunction, poly_from_samples
from cocycles.trigpoly import TrigPoly, default_grid_size, log_integral


def rand_poly(rng, degree, scale=1.0):
    coeffs = {
        k: scale * (rng.standard_normal() + 1j * rng.standard_normal())
        for k in range(-degree, degree + 1)
    }
    return TrigPoly.from_dict(coeffs)


def coeff(f, k):
    """The coefficient of e^{2 pi i k x} in f, 0 outside its stored band."""
    if f.is_zero or not f.kmin <= k <= f.kmax:
        return 0.0
    return complex(f.c[k - f.kmin])


def quad_log_abs(f, singular_points=()):
    """Adaptive-quadrature oracle for the mean of ln|f| over [0, 1]."""
    pts = sorted(set(float(p) for p in singular_points))
    val, _ = quad(
        lambda x: math.log(abs(f.eval(x))),
        0.0,
        1.0,
        points=pts or None,
        limit=400,
    )
    return val


class TestEvaluation:
    def test_cosine_and_sine_match_numpy(self):
        xs = np.linspace(0.0, 1.0, 17)
        cos_err = np.abs(TrigPoly.cosine().eval(xs) - np.cos(2 * np.pi * xs))
        sin_err = np.abs(TrigPoly.sine().eval(xs) - np.sin(2 * np.pi * xs))
        assert cos_err.max() < 1e-14
        assert sin_err.max() < 1e-14

    def test_harmonic_is_unimodular(self):
        f = TrigPoly.harmonic(3)
        xs = np.linspace(0.0, 1.0, 11)
        assert np.abs(np.abs(f.eval(xs)) - 1.0).max() < 1e-14

    def test_scalar_input_gives_scalar(self):
        v = TrigPoly.cosine().eval(0.25)
        assert np.isscalar(v) or np.ndim(v) == 0
        assert abs(v) < 1e-15

    def test_zero_polynomial(self):
        z = TrigPoly.zero()
        assert z.is_zero
        assert z.degree == 0
        assert abs(z.eval(0.3)) == 0.0


class TestAlgebra:
    def test_translate_pointwise_oracle(self):
        # oracle: f(x + a) evaluated directly, 64 random points
        rng = np.random.default_rng(7)
        f = rand_poly(rng, 5)
        alpha = 0.6180339887498949
        xs = rng.random(64)
        err = np.abs(f.translate(alpha).eval(xs) - f.eval(xs + alpha))
        assert err.max() < 1e-12

    def test_translate_half_period_flips_cosine(self):
        g = TrigPoly.cosine().translate(0.5)
        xs = np.linspace(0, 1, 9)
        assert np.abs(g.eval(xs) + np.cos(2 * np.pi * xs)).max() < 1e-14

    def test_translate_composes(self):
        rng = np.random.default_rng(8)
        f = rand_poly(rng, 4)
        a, b = 0.31, 0.47
        lhs = f.translate(a).translate(b)
        rhs = f.translate(a + b)
        xs = rng.random(16)
        assert np.abs(lhs.eval(xs) - rhs.eval(xs)).max() < 1e-12

    def test_product_pointwise_oracle(self):
        rng = np.random.default_rng(9)
        f = rand_poly(rng, 4)
        g = rand_poly(rng, 6)
        xs = rng.random(64)
        err = np.abs((f * g).eval(xs) - f.eval(xs) * g.eval(xs))
        assert err.max() < 1e-11
        assert (f * g).degree <= f.degree + g.degree

    def test_product_fft_path_matches_direct(self):
        # degrees large enough to trigger the FFT convolution branch
        rng = np.random.default_rng(10)
        f = rand_poly(rng, 40)
        g = rand_poly(rng, 40)
        xs = rng.random(32)
        err = np.abs((f * g).eval(xs) - f.eval(xs) * g.eval(xs))
        assert err.max() < 1e-9 * f.sup_bound() * g.sup_bound()

    def test_sum_and_scalar_ops(self):
        rng = np.random.default_rng(11)
        f = rand_poly(rng, 3)
        g = rand_poly(rng, 5)
        xs = rng.random(20)
        assert np.abs((f + g).eval(xs) - (f.eval(xs) + g.eval(xs))).max() < 1e-12
        assert np.abs((f - g).eval(xs) - (f.eval(xs) - g.eval(xs))).max() < 1e-12
        assert np.abs((2.5 * f).eval(xs) - 2.5 * f.eval(xs)).max() < 1e-12

    def test_conjugate_oracle(self):
        rng = np.random.default_rng(12)
        f = rand_poly(rng, 5)
        xs = rng.random(20)
        assert np.abs(f.conj().eval(xs) - np.conj(f.eval(xs))).max() < 1e-12

    def test_cancellation_produces_empty_map(self):
        f = TrigPoly.cosine()
        assert (f - f).is_zero

    def test_tiny_coefficients_are_absent(self):
        f = TrigPoly.from_dict({0: 1.0, 5: 1e-16})
        assert coeff(f, 5) == 0
        assert f.degree == 0


def sample_grid(f, M):
    """Samples of f at j/M, through the 1x1 matrix function that owns grids."""
    return MatrixFunction([[f]]).sample_grid(M)


class TestGrids:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(14)
        f = rand_poly(rng, 7)
        back = poly_from_samples(sample_grid(f, 32), N=7).entry(0, 0)
        for k in range(-7, 8):
            assert abs(coeff(back, k) - coeff(f, k)) < 1e-13

    def test_default_grid_size(self):
        # 4 * 2^ceil(log2(N+1))
        assert default_grid_size(0) == 4
        assert default_grid_size(1) == 8
        assert default_grid_size(3) == 16
        assert default_grid_size(4) == 32

    def test_to_grid_aliasing_guard(self):
        f = rand_poly(np.random.default_rng(15), 3)
        with pytest.raises(AliasingRisk):
            sample_grid(f, 4)

    def test_from_grid_aliasing_guard(self):
        samples = sample_grid(TrigPoly.cosine(), 8)
        with pytest.raises(AliasingRisk):
            poly_from_samples(samples, N=4)

    def test_grid_size_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            GridMatrixFunction(np.zeros((12, 1, 1)))

    def test_tail_mass_sees_out_of_band_content(self):
        # all of |2|^2 out of |1|^2 + |2|^2 lies above degree 2
        samples = sample_grid(TrigPoly.constant(1.0) + TrigPoly.harmonic(5, 2.0), 32)
        with pytest.raises(TailTooFat) as exc:
            poly_from_samples(samples, N=2)
        assert abs(exc.value.tail - 2.0 / math.sqrt(5.0)) < 1e-12
        back = poly_from_samples(samples, N=6, tol=1e-13).entry(0, 0)
        assert abs(coeff(back, 5) - 2.0) < 1e-13

    def test_samples_match_eval(self):
        f = rand_poly(np.random.default_rng(16), 5)
        M = 32
        xs = np.arange(M) / M
        assert np.abs(sample_grid(f, M)[:, 0, 0] - f.eval(xs)).max() < 1e-12


class TestLogIntegral:
    def test_unimodular_gives_zero(self):
        assert abs(log_integral(TrigPoly.harmonic(2, 1.0))) < 1e-14

    def test_constant(self):
        assert abs(log_integral(TrigPoly.constant(3.0)) - math.log(3.0)) < 1e-14

    def test_single_root_outside(self):
        # f = e^{2 pi i x} - 2: root at z = 2, integral ln 2
        f = TrigPoly.from_dict({1: 1.0, 0: -2.0})
        assert abs(log_integral(f) - math.log(2.0)) < 1e-12
        oracle = quad_log_abs(f)
        assert abs(log_integral(f) - oracle) < 1e-6

    def test_root_on_circle_contributes_zero(self):
        # f = e^{2 pi i x} - 1 vanishes at x = 0 but the integral is 0
        f = TrigPoly.from_dict({1: 1.0, 0: -1.0})
        assert abs(log_integral(f)) < 1e-12

    def test_sine_log_integral(self):
        # mean of ln|sin(2 pi x)| is -ln 2
        assert abs(log_integral(TrigPoly.sine()) + math.log(2.0)) < 1e-12

    def test_shifted_cosine_closed_form(self):
        # mean of ln|a + cos(2 pi x)| = ln((a + sqrt(a^2 - 1))/2) for a > 1
        f = TrigPoly.constant(2.0) + TrigPoly.cosine()
        expect = math.log((2.0 + math.sqrt(3.0)) / 2.0)
        assert abs(log_integral(f) - expect) < 1e-12

    def test_zero_polynomial_is_minus_infinity(self):
        assert log_integral(TrigPoly.zero()) == float("-inf")
        f = TrigPoly.cosine()
        assert log_integral(f - f) == float("-inf")

    def test_scale_covariance(self):
        rng = np.random.default_rng(17)
        f = rand_poly(rng, 6)
        lhs = log_integral(5.0 * f)
        assert abs(lhs - math.log(5.0) - log_integral(f)) < 1e-10

    def test_quadrature_consistency_random(self):
        # invertible-ish random draws; oracle agreement at quadrature accuracy
        rng = np.random.default_rng(18)
        for _ in range(5):
            f = rand_poly(rng, 4) + TrigPoly.constant(6.0)
            assert abs(log_integral(f) - quad_log_abs(f)) < 1e-6

    def test_quadrature_consistency_with_interior_zero(self):
        # sin has zeros on the integration path; oracle needs the hint points
        f = TrigPoly.sine()
        oracle = quad_log_abs(f, singular_points=(0.5,))
        assert abs(log_integral(f) - oracle) < 1e-5


class TestSerialization:
    def test_json_round_trip(self):
        rng = np.random.default_rng(19)
        f = rand_poly(rng, 5)
        back = TrigPoly.from_json_dict(f.to_json_dict())
        for k in range(-5, 6):
            assert abs(coeff(back, k) - coeff(f, k)) < 1e-15

    def test_json_shape(self):
        d = TrigPoly.cosine().to_json_dict()
        assert set(d) == {"coeffs"}
        assert all(set(e) == {"k", "re", "im"} for e in d["coeffs"])
