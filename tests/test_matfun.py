"""Matrix functions: sampling, samples to polynomials, exterior powers, rank analysis."""

import numpy as np
import pytest

from cocycles.errors import AliasingRisk, TailTooFat
from cocycles.matfun import (
    GridMatrixFunction,
    MatrixFunction,
    exterior_power,
    hstack,
    max_rank,
    poly_det,
    poly_from_samples,
    resample_lattice,
    shift_samples,
    vstack,
)
from cocycles.trigpoly import TrigPoly


def nilpotent_3x3():
    z = TrigPoly.zero()
    one = TrigPoly.constant(1.0)
    return MatrixFunction(
        [
            [z, TrigPoly.cosine(), TrigPoly.sine()],
            [z, z, one],
            [z, z, z],
        ]
    )


def rand_matrix(rng, d, degree=2, scale=1.0):
    return MatrixFunction(
        [
            [
                TrigPoly.from_dict(
                    {
                        k: scale * (rng.standard_normal() + 1j * rng.standard_normal())
                        for k in range(-degree, degree + 1)
                    }
                )
                for _ in range(d)
            ]
            for _ in range(d)
        ]
    )


class TestMatrixFunction:
    def test_eval_nilpotent_fixture_at_zero(self):
        a = nilpotent_3x3().eval_mat(0.0)
        expect = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
        assert np.abs(a - expect).max() < 1e-14

    def test_sample_grid_matches_eval(self):
        rng = np.random.default_rng(0)
        f = rand_matrix(rng, 3)
        M = 32
        grid = f.sample_grid(M)
        xs = np.arange(M) / M
        direct = np.stack([f.eval_mat(x) for x in xs])
        assert np.abs(grid - direct).max() < 1e-12

    def test_sample_grid_shift_matches_translate(self):
        rng = np.random.default_rng(1)
        f = rand_matrix(rng, 2)
        alpha = 0.6180339887498949
        lhs = f.sample_grid(16, shift=alpha)
        rhs = f.translate(alpha).sample_grid(16)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_matmul_pointwise_oracle(self):
        rng = np.random.default_rng(2)
        f = rand_matrix(rng, 3)
        g = rand_matrix(rng, 3)
        x = 0.37
        assert np.abs((f @ g).eval_mat(x) - f.eval_mat(x) @ g.eval_mat(x)).max() < 1e-10

    def test_adjoint_oracle(self):
        rng = np.random.default_rng(3)
        f = rand_matrix(rng, 3)
        x = 0.81
        assert np.abs(f.adjoint().eval_mat(x) - f.eval_mat(x).conj().T).max() < 1e-12

    def test_block_and_stack(self):
        rng = np.random.default_rng(4)
        f = rand_matrix(rng, 3)
        top = f.block(0, 1, 0, 3)
        bottom = f.block(1, 3, 0, 3)
        again = vstack([top, bottom])
        x = 0.2
        assert np.abs(again.eval_mat(x) - f.eval_mat(x)).max() < 1e-14
        left = f.block(0, 3, 0, 2)
        right = f.block(0, 3, 2, 3)
        assert np.abs(hstack([left, right]).eval_mat(x) - f.eval_mat(x)).max() < 1e-14

    def test_json_round_trip(self):
        rng = np.random.default_rng(5)
        f = rand_matrix(rng, 2)
        back = MatrixFunction.from_json_dict(f.to_json_dict())
        x = 0.456
        assert np.abs(back.eval_mat(x) - f.eval_mat(x)).max() < 1e-14


class TestPolyFromSamples:
    def test_round_trips_sample_grid(self):
        F = rand_matrix(np.random.default_rng(6), 3, degree=5)
        back = poly_from_samples(F.sample_grid(32))
        assert (back.kmin, back.c.shape) == (F.kmin, F.c.shape)
        assert np.abs(back.c - F.c).max() < 1e-13

    def test_noise_floor_keeps_zeros_and_degrees_exact(self):
        F = nilpotent_3x3()
        back = poly_from_samples(F.sample_grid(64))
        assert back.degree == 1
        for i in range(3):
            for j in range(3):
                assert back.entry(i, j).is_zero == F.entry(i, j).is_zero

    def test_out_of_band_content_is_too_fat(self):
        F = rand_matrix(np.random.default_rng(7), 2, degree=5)
        samples = F.sample_grid(32)
        with pytest.raises(TailTooFat) as exc:
            poly_from_samples(samples, N=2)
        assert 0.1 < exc.value.tail <= 1.0
        assert poly_from_samples(samples, N=5, tol=1e-13).degree == 5

    def test_aliasing_guard(self):
        samples = rand_matrix(np.random.default_rng(8), 2, degree=3).sample_grid(32)
        assert poly_from_samples(samples, N=15).degree == 3
        with pytest.raises(AliasingRisk):
            poly_from_samples(samples, N=16)


class TestExteriorPower:
    def test_top_power_is_determinant(self):
        rng = np.random.default_rng(8)
        f = rand_matrix(rng, 3)
        top = exterior_power(f, 3)
        x = 0.29
        assert top.shape == (1, 1)
        assert abs(top.eval_mat(x)[0, 0] - np.linalg.det(f.eval_mat(x))) < 1e-9

    def test_first_power_is_identity_map(self):
        rng = np.random.default_rng(9)
        f = rand_matrix(rng, 3)
        e1 = exterior_power(f, 1)
        x = 0.64
        assert np.abs(e1.eval_mat(x) - f.eval_mat(x)).max() < 1e-14

    def test_multiplicativity(self):
        # ext_k(F G) = ext_k(F) ext_k(G), the workhorse identity behind
        # converting top-k exponent sums into top exponents
        rng = np.random.default_rng(10)
        f = rand_matrix(rng, 4, degree=1)
        g = rand_matrix(rng, 4, degree=1)
        lhs = exterior_power(f @ g, 2)
        rhs = exterior_power(f, 2) @ exterior_power(g, 2)
        x = 0.415
        scale = max(lhs.max_coeff(), 1.0)
        assert np.abs(lhs.eval_mat(x) - rhs.eval_mat(x)).max() < 1e-11 * scale

    def test_singular_value_product_identity(self):
        rng = np.random.default_rng(11)
        f = rand_matrix(rng, 4, degree=1)
        x = 0.3
        s = np.linalg.svd(f.eval_mat(x), compute_uv=False)
        for k in range(1, 5):
            ek = exterior_power(f, k)
            s_top = np.linalg.svd(ek.eval_mat(x), compute_uv=False)[0]
            assert abs(s_top - np.prod(s[:k])) < 1e-9 * max(1.0, np.prod(s[:k]))

    def test_poly_det_matches_numeric(self):
        rng = np.random.default_rng(12)
        f = rand_matrix(rng, 4, degree=1)
        x = 0.77
        assert abs(poly_det(f).eval(x) - np.linalg.det(f.eval_mat(x))) < 1e-9


class TestMaxRank:
    def test_constant_diagonal(self):
        f = MatrixFunction.constant(np.diag([3.0, 2.0, 0.0]))
        r, exc = max_rank(f, M=64)
        assert r == 2
        assert exc == []

    def test_scalar_times_nilpotent_sees_vanishing(self):
        # rank 1 off the cosine zeros; those two grid points are exceptional
        z = TrigPoly.zero()
        f = MatrixFunction([[z, TrigPoly.cosine()], [z, z]])
        r, exc = max_rank(f, M=64)
        assert r == 1
        assert set(np.round(exc, 6)) == {0.25, 0.75}

    def test_nilpotent_3x3_rank_two_with_exceptional(self):
        r, exc = max_rank(nilpotent_3x3(), M=64)
        assert r == 2
        assert set(np.round(exc, 6)) == {0.25, 0.75}

    def test_exterior_square_of_rank_two(self):
        r, _ = max_rank(exterior_power(nilpotent_3x3(), 2), M=64)
        assert r == 1

    def test_zero_matrix_rank_zero(self):
        f = MatrixFunction.zero(3)
        r, exc = max_rank(f, M=16)
        assert r == 0 and exc == []


class TestGridMatrixFunction:
    @staticmethod
    def two_freq_samples(M):
        # rank-one 2x2 function of two angles, degree 1 in each variable
        a1, a2 = 0.6180339887498949, 0.41421356237309515
        xs = np.arange(M) / M
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        phi1 = np.sin(2 * np.pi * (X + a1))
        phi2 = np.sin(2 * np.pi * (Y + a2))
        psi1 = -np.sin(2 * np.pi * Y)
        psi2 = np.sin(2 * np.pi * X)
        samples = np.empty((M, M, 2, 2), dtype=complex)
        samples[..., 0, 0] = phi1 * psi1
        samples[..., 0, 1] = phi1 * psi2
        samples[..., 1, 0] = phi2 * psi1
        samples[..., 1, 1] = phi2 * psi2
        return GridMatrixFunction(samples)

    def test_interpolant_is_exact_off_grid(self):
        g = self.two_freq_samples(16)
        a1, a2 = 0.6180339887498949, 0.41421356237309515
        pt = (0.137, 0.529)
        val = g.eval_mat(pt)
        expect = np.array(
            [
                [
                    np.sin(2 * np.pi * (pt[0] + a1)) * -np.sin(2 * np.pi * pt[1]),
                    np.sin(2 * np.pi * (pt[0] + a1)) * np.sin(2 * np.pi * pt[0]),
                ],
                [
                    np.sin(2 * np.pi * (pt[1] + a2)) * -np.sin(2 * np.pi * pt[1]),
                    np.sin(2 * np.pi * (pt[1] + a2)) * np.sin(2 * np.pi * pt[0]),
                ],
            ],
            dtype=complex,
        )
        assert np.abs(val - expect).max() < 1e-12

    def test_max_rank_is_one(self):
        g = self.two_freq_samples(16)
        r, exc = max_rank(g)
        assert r == 1
        # the function vanishes entirely where both sines do
        assert len(exc) > 0

    def test_json_round_trip(self):
        g = self.two_freq_samples(8)
        back = GridMatrixFunction.from_json_dict(g.to_json_dict())
        assert np.abs(back.samples - g.samples).max() < 1e-14

    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            GridMatrixFunction(np.zeros((12, 12, 2, 2)))


class TestResampleLattice:
    @pytest.mark.parametrize("grid", [(16,), (16, 16), (16, 8)])
    @pytest.mark.parametrize("ratio", [0.5, 1, 2])
    def test_matches_the_interpolant(self, grid, ratio):
        # M = m/2 aliases the spectrum, M = 2m zero-pads it
        rng = np.random.default_rng(len(grid))
        F = GridMatrixFunction(rng.standard_normal(grid + (2, 3))
                               + 1j * rng.standard_normal(grid + (2, 3)))
        M = int(grid[0] * ratio)
        lattice = GridMatrixFunction(np.zeros((M,) * len(grid) + (1, 1)))
        want = F.sample_at(lattice.grid_points()).reshape((M,) * len(grid) + (2, 3))
        got = resample_lattice(F, M)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(F.samples).max()

    def test_own_grid_is_the_samples(self):
        F = GridMatrixFunction(np.ones((8, 8, 2, 2)))
        assert resample_lattice(F, 8) is F.samples


class TestShiftSamples:
    ALPHA = (0.6180339887498949, 0.41421356237309515)

    @staticmethod
    def field(rng, grid, tail=(2, 3)):
        return rng.standard_normal(grid + tail) + 1j * rng.standard_normal(grid + tail)

    @pytest.mark.parametrize("grid", [(8,), (16,), (8, 4), (4, 8, 2)])
    def test_lattice_shift_is_a_roll(self, grid):
        rng = np.random.default_rng(len(grid))
        vals = self.field(rng, grid)
        for js in [(1,) * len(grid), tuple(range(3, 3 + len(grid))), (0,) * len(grid)]:
            got = shift_samples(vals, [j / m for j, m in zip(js, grid)])
            want = np.roll(vals, [-j for j in js], axis=tuple(range(len(grid))))
            assert np.abs(got - want).max() < 1e-13 * np.abs(vals).max()

    @pytest.mark.parametrize("grid", [(16,), (8, 8)])
    def test_shift_and_back(self, grid):
        rng = np.random.default_rng(7)
        vals = self.field(rng, grid, tail=(3,))
        alpha = np.array(self.ALPHA[:len(grid)])
        back = shift_samples(shift_samples(vals, alpha), -alpha)
        assert np.abs(back - vals).max() < 1e-13 * np.abs(vals).max()

    def test_matches_exact_shifted_grid(self):
        F = rand_matrix(np.random.default_rng(3), 3, degree=5)
        for M in (16, 64):
            for a in (self.ALPHA[0], -self.ALPHA[1], 2.25):
                got = shift_samples(F.sample_grid(M), a)
                want = F.sample_grid(M, shift=a)
                assert np.abs(got - want).max() < 1e-13 * np.abs(want).max()

    def test_spectrum_is_reused_as_given(self):
        rng = np.random.default_rng(9)
        vals = self.field(rng, (8, 8))
        spec = np.fft.fftn(vals, axes=(0, 1))
        shift = np.array(self.ALPHA)
        assert np.array_equal(shift_samples(vals, shift, spec),
                              shift_samples(vals, shift))
