import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from cocycles import cocycle as cocycle_module
from cocycles import fixtures as fx
from cocycles.cocycle import (
    GOLDEN_MEAN,
    Cocycle,
    Structure,
    detect_nilpotency,
    exact_L1_rank_one,
    iterate,
    iterates,
    lyapunov_spectrum,
    rank_profile,
)
from cocycles.domination import is_dominated, split_infinite_part
from cocycles.errors import DegreeOverflow, RankNotOne, UnsupportedBase
from cocycles.matfun import (
    GridMatrixFunction,
    MatrixFunction,
    exterior_power,
    hstack,
    max_rank,
    rank_samples,
    resample_lattice,
    shift_samples,
    vstack,
)
from cocycles.normalform import jordan_form, perturb_simple, triangularize
from cocycles.trigpoly import TrigPoly, default_grid_size


def const_cocycle(mat, alpha=GOLDEN_MEAN):
    return Cocycle((alpha,), MatrixFunction.constant(mat))


def _power_of_two_unit(scale):
    """The power of two c in (scale/2, scale] and c / scale."""
    c = math.ldexp(1.0, math.frexp(scale)[1] - 1)
    return c, c / scale


class TestIterate:
    def test_constant_diagonal_powers(self):
        C = const_cocycle(np.diag([2.0, 1.0]))
        F = iterate(C, 3)
        assert np.abs(F.eval_mat(0.37) - np.diag([8.0, 1.0])).max() < 1e-12

    def test_second_iterate_of_3x3(self):
        # the product leaves a single entry: the shifted cosine in the corner
        C = fx.nilpotent_3x3_variable_rank()
        F = iterate(C, 2)
        xs = np.linspace(0, 1, 37, endpoint=False)
        got = F.sample_at(xs)
        want = np.zeros((37, 3, 3), dtype=complex)
        want[:, 0, 2] = np.cos(2 * np.pi * (xs + C.alpha))
        assert np.abs(got - want).max() < 1e-12

    def test_third_iterate_vanishes(self):
        C = fx.nilpotent_3x3_variable_rank()
        assert iterate(C, 3).max_coeff() < 1e-14

    @pytest.mark.parametrize("seed", [1, 2])
    def test_cocycle_identity(self, seed):
        C = fx.random_invertible(seed)
        n, m = 3, 2
        lhs = iterate(C, n + m)
        rhs = iterate(C, n).translate(m * C.alpha) @ iterate(C, m)
        xs = np.array([0.0, 0.21, 0.77])
        assert np.abs(lhs.sample_at(xs) - rhs.sample_at(xs)).max() < 1e-10 * max(
            1.0, np.abs(lhs.sample_at(xs)).max()
        )

    def test_grid_iterate_of_twofrequency_vanishes(self):
        C = fx.twofrequency_rank_one(M=32)
        F = iterate(C, 2)
        assert np.abs(F.samples).max() < 1e-12

    def test_degree_overflow(self):
        C = fx.nilpotent_3x3_variable_rank()
        with pytest.raises(DegreeOverflow):
            iterate(C, 5000)


def same_coefficients(F, G):
    """Coefficient-for-coefficient equality of two matrix functions."""
    return F.shape == G.shape and F.kmin == G.kmin and np.array_equal(F.c, G.c)


class TestRunningProduct:
    @pytest.mark.parametrize("C", [
        fx.random_nilpotent(0), fx.random_nilpotent(3), fx.random_invertible(1),
        fx.nilpotent_4x4_variable_rank2(),
    ])
    def test_iterates_match_iterate(self, C):
        A = C.matrix
        ref = A
        for n, F in enumerate(iterates(C, C.dim + 1), start=1):
            assert same_coefficients(F, iterate(C, n))
            # and the explicit orbit product, factor by factor
            if n > 1:
                ref = A.translate((n - 1) * C.alpha) @ ref
            assert same_coefficients(F, ref)

    def test_grid_iterates_match_iterate(self):
        C = fx.twofrequency_rank_one(M=32)
        for n, F in enumerate(iterates(C, 3), start=1):
            assert np.array_equal(F.samples, iterate(C, n).samples)

    @pytest.mark.parametrize("seed", [0, 1, 2, 5])
    def test_nilpotency_certificate_is_the_iterate(self, seed):
        # the certificate is the l1 bound of the iterate of the generator
        # divided by the power of two c just below its scale, times
        # (c / scale)^n
        C = fx.random_nilpotent(seed)
        rep = detect_nilpotency(C)
        c, unit = _power_of_two_unit(rep.witness["scale"])
        U = cocycle_module._unit_scale(C, c)
        assert rep.witness["certificate"] == (
            iterate(U, rep.degree).sup_bound() * unit ** rep.degree)
        for n in range(1, rep.degree):
            assert iterate(U, n).sup_bound() * unit ** n > 1e-10

    def test_non_nilpotent_witness_is_the_last_iterate(self):
        C = fx.random_invertible(2, d=3)
        rep = detect_nilpotency(C)
        assert not rep.nilpotent
        c, unit = _power_of_two_unit(rep.witness["scale"])
        last = iterate(cocycle_module._unit_scale(C, c), C.dim + 1)
        M = max(64, default_grid_size(last.degree))
        norms = np.linalg.norm(last.sample_grid(M), ord=2, axis=(1, 2))
        assert rep.witness["max_sample_norm"] == (
            float(norms.max()) * unit ** (C.dim + 1))

    def test_degree_overflow_where_iterate_overflows(self):
        # A is invertible, so detect_nilpotency goes on to the second
        # iterate, of degree 4200 > DEGREE_CAP
        z = TrigPoly.zero()
        C = Cocycle((GOLDEN_MEAN,), MatrixFunction(
            [[z, TrigPoly.harmonic(2100)], [TrigPoly.constant(1.0), z]]))
        assert iterate(C, 1).degree == 2100
        with pytest.raises(DegreeOverflow):
            iterate(C, 2)
        it = iterates(C, 3)
        assert same_coefficients(next(it), C.matrix)
        with pytest.raises(DegreeOverflow):
            next(it)
        with pytest.raises(DegreeOverflow):
            detect_nilpotency(C)

    def test_search_stops_before_an_overflowing_iterate(self):
        # two nilpotent 2x2 blocks of degree 1500: rank 2, so the search
        # bound is the third iterate (degree 4500), but the second vanishes
        z = TrigPoly.zero()
        e = TrigPoly.harmonic(1500)
        A = MatrixFunction([[z, e, z, z], [z, z, z, z],
                            [z, z, z, e], [z, z, z, z]])
        C = Cocycle((GOLDEN_MEAN,), A)
        with pytest.raises(DegreeOverflow):
            iterate(C, 3)
        rep = detect_nilpotency(C)
        assert rep.nilpotent and rep.degree == 2


class TestLyapunov:
    def test_constant_diagonal_exact(self):
        C = const_cocycle(np.diag([2.0, 0.5]))
        rep = lyapunov_spectrum(C, n=100, M=8)
        assert abs(rep.exponents[0] - np.log(2)) < 1e-10
        assert abs(rep.exponents[1] + np.log(2)) < 1e-10
        assert rep.divergent == [False, False]

    def test_nilpotent_fixture_all_divergent(self):
        rep = lyapunov_spectrum(fx.nilpotent_3x3_variable_rank(), n=300, M=16)
        assert rep.exponents == [float("-inf")] * 3
        assert all(rep.divergent)

    def test_conjugated_nilpotent_all_divergent(self):
        rep = lyapunov_spectrum(fx.random_nilpotent(0), n=240, M=8)
        assert all(e == float("-inf") for e in rep.exponents)

    def test_grid_rank_one_with_vanishing_square(self):
        rep = lyapunov_spectrum(fx.twofrequency_rank_one(M=32), n=200, M=8)
        assert all(e == float("-inf") for e in rep.exponents)

    def test_rank_one_top_exponent(self):
        # the scalar outer-product form gives L1 as a log-sine integral
        rep = lyapunov_spectrum(fx.not_dominated_2x2(), n=1500, M=64)
        assert rep.exponents[1] == float("-inf")
        err = max(3 * rep.stderr[0], 0.02)
        assert abs(rep.exponents[0] + np.log(2)) < err

    def test_invertible_stays_finite(self):
        rep = lyapunov_spectrum(fx.random_invertible(3), n=400, M=16)
        assert all(np.isfinite(rep.exponents))
        assert not any(rep.divergent)
        assert rep.exponents == sorted(rep.exponents, reverse=True)

    def test_invertible_builds_no_iterate_product(self, monkeypatch):
        # full rank at the first iterate settles k = d, so the structure
        # behind the spectrum stops at L_1 and multiplies nothing
        def refuse(*args, **kwargs):
            raise AssertionError("iterate product formed")

        monkeypatch.setattr(MatrixFunction, "__matmul__", refuse)
        rep = lyapunov_spectrum(fx.random_invertible(3), n=50, M=8)
        assert all(np.isfinite(rep.exponents))

    def test_exterior_power_sums_top_exponents(self):
        C = fx.random_invertible(3)
        rep1 = lyapunov_spectrum(C, n=600, M=32)
        C2 = Cocycle(C.frequencies, exterior_power(C.matrix, 2))
        rep2 = lyapunov_spectrum(C2, n=600, M=32)
        tol = 3 * (rep1.stderr[0] + rep1.stderr[1] + rep2.stderr[0]) + 1e-6
        assert abs(rep1.exponents[0] + rep1.exponents[1] - rep2.exponents[0]) < tol

    @pytest.mark.parametrize("n", [1000.0, 2.5, "100", None, 1, 0])
    def test_orbit_length_must_be_an_integer_of_at_least_2(self, n):
        with pytest.raises(ValueError, match="at least 2"):
            lyapunov_spectrum(fx.dominated_2x2(), n=n, M=8)


def _per_step_reference(C, n, M):
    """The sweep one orbit step at a time: step matrix, LAPACK QR of the
    k-frame, death floor, log accumulation and history row; k from the rank
    profile.  A column that dies exactly is completed as the sweep does it,
    by the start frame's column with the largest residual: that orbit's QR
    is redone with the column replaced.
    Returns (exponents, raw_estimates, stderr, divergent)."""
    d = C.dim
    k = rank_profile(C).min_rank
    if k == 0:
        return [float("-inf")] * d, [float("-inf")] * d, [0.0] * d, [True] * d
    if C.base_dim == 1:
        starts = (np.arange(M) / M)[:, None]
    else:
        mesh = np.meshgrid(*[np.arange(M) / M] * C.base_dim, indexing="ij")
        starts = np.stack([g.ravel() for g in mesh], axis=1)
    batch = starts.shape[0]
    if C.is_exact:
        F = C.matrix
        freqs = np.arange(F.kmin, F.kmin + len(F.c))
        cmat = F.c.reshape(len(freqs), d * d)
        phases = np.exp(2j * np.pi * np.outer(starts[:, 0], freqs))
        step = np.exp(2j * np.pi * freqs * C.alpha)
    else:
        gaxes = tuple(range(C.base_dim))
        if C.matrix.grid_shape == (M,) * C.base_dim:
            base = C.matrix.samples
        else:
            base = C.matrix.sample_at(starts).reshape((M,) * C.base_dim + (d, d))
        spec = np.fft.fftn(base, axes=gaxes)
        kvec = np.fft.fftfreq(M, 1.0 / M)

        def lattice(t):
            s = spec
            for ax in range(C.base_dim):
                shp = [1] * (C.base_dim + 2)
                shp[ax] = M
                s = s * np.exp(
                    2j * np.pi * kvec * ((t * C.frequencies[ax]) % 1.0)
                ).reshape(shp)
            return np.fft.ifftn(s, axes=gaxes)
    rng = np.random.default_rng(12345)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q0, _ = np.linalg.qr(g)
    q = np.broadcast_to(q0[:, :k], (batch, d, k)).copy()

    warmup = min(n // 5, 64)
    n_eff = n - warmup
    logr = np.zeros((batch, k))
    deaths = np.zeros((batch, k), dtype=int)
    history = np.empty((n_eff, k))
    for t in range(n):
        if C.is_exact:
            mats = (phases @ cmat).reshape(batch, d, d)
            phases *= step
        else:
            mats = lattice(t).reshape(batch, d, d)
        y = mats @ q
        q, r = np.linalg.qr(y)
        diag = np.abs(np.einsum("bii->bi", r))
        for b in np.nonzero((diag == 0.0).any(axis=1))[0]:
            for j in range(k):
                if diag[b, j] == 0.0:
                    res = q0 - q[b, :, :j] @ (q[b, :, :j].conj().T @ q0)
                    y[b, :, j] = q0[:, np.argmax(np.linalg.norm(res, axis=0))]
                    q[b], rb = np.linalg.qr(y[b])
                    diag[b, j + 1:] = np.abs(np.diag(rb))[j + 1:]
        if t < warmup:
            continue
        dead = diag <= 1e-14 * diag.max(axis=1, keepdims=True)
        deaths += dead
        logr += np.where(dead, 0.0, np.log(np.where(dead, 1.0, diag)))
        history[t - warmup] = logr.mean(axis=0)

    alive = n_eff - deaths
    per_orbit = np.where(alive > 0, logr / np.maximum(alive, 1), -np.inf)
    est_sorted = -np.sort(-per_orbit, axis=1, kind="stable")
    finite_dir = np.isfinite(est_sorted).all(axis=0)
    po_safe = np.where(np.isfinite(est_sorted), est_sorted, 0.0)
    raw = np.where(finite_dir, po_safe.mean(axis=0), -np.inf)
    err = np.where(finite_dir, po_safe.std(axis=0) / np.sqrt(batch), 0.0)
    quarter = max(n_eff // 4, 2)
    ravg = history / np.arange(1, n_eff + 1)[:, None]
    err = np.where(finite_dir, err + 3.0 * np.abs(ravg[-1] - ravg[-quarter]), 0.0)
    order = np.argsort(-raw, kind="stable")
    exponents = [float(v) for v in raw[order]] + [float("-inf")] * (d - k)
    return (exponents, list(exponents), [float(v) for v in err[order]] + [0.0] * (d - k),
            [j >= k for j in range(d)])


def _partially_degenerate(seed, m, k):
    """A strictly upper m x m block coupled to an invertible k x k block,
    conjugated by a constant unitary: rank profile stabilising at k."""
    rng = np.random.default_rng(seed)
    nil = fx.random_strictly_upper(rng, m, degree=1)
    core = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    core += 2.0 * k * np.eye(k)
    smin = np.linalg.svd(core, compute_uv=False)[-1]
    pert = MatrixFunction(
        [[fx.random_trigpoly(rng, 1) for _ in range(k)] for _ in range(k)])
    inv = MatrixFunction.constant(core) + pert * (0.4 * smin / pert.sup_bound())
    coupling = MatrixFunction(
        [[fx.random_trigpoly(rng, 1) for _ in range(k)] for _ in range(m)])
    block = vstack([hstack([nil, coupling]),
                    hstack([MatrixFunction.zero(k, m), inv])])
    u = fx.random_unitary_function(rng, m + k, degree=0)
    return Cocycle((GOLDEN_MEAN,), u.translate(GOLDEN_MEAN) @ block @ u.adjoint())


def _invertible_grid(seed, d, M):
    rng = np.random.default_rng(seed)
    core = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    core += 2.0 * d * np.eye(d)
    xs = np.arange(M) / M
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    pert = np.zeros((M, M, d, d), dtype=complex)
    for k1, k2 in ((1, 0), (0, -1), (1, 1)):
        c = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        pert += np.exp(2j * np.pi * (k1 * X + k2 * Y))[..., None, None] * c
    return Cocycle((GOLDEN_MEAN, fx.SILVER_MEAN), GridMatrixFunction(core + pert))


def _equivalence_inputs():
    C = fx.random_invertible(3)
    C4 = fx.random_invertible(4)
    return {
        "nilpotent_plus_invertible_3x3": fx.nilpotent_plus_invertible_3x3(),
        "not_dominated_2x2": fx.not_dominated_2x2(),
        "random_nilpotent": fx.random_nilpotent(0),
        "random_invertible": C,
        "random_invertible_wedge2": Cocycle(C.frequencies,
                                            exterior_power(C.matrix, 2)),
        "random_invertible_4_wedge2": Cocycle(C4.frequencies,
                                              exterior_power(C4.matrix, 2)),
        "twofrequency_rank_one": fx.twofrequency_rank_one(M=32),
        "invertible_grid": _invertible_grid(7, 2, M=8),
    }


class TestChunkedSweep:
    """The blocked, chunked sweep reports what the per-step loop reports, up
    to the rounding that forming block products changes: finite exponents
    to 1e-12, their stderr to 1e-6 relative, the -inf slots and their flags
    exactly."""

    INPUTS = _equivalence_inputs()

    @staticmethod
    def assert_matches(C, rep, n, M):
        exps, raw, err, div = _per_step_reference(C, n, M)
        prof = rank_profile(C)
        k = prof.min_rank
        assert rep.divergent == div
        assert rep.flag_reason == (
            [None] * k + [f"rank A_{prof.stabilized_at} = {k}"] * (C.dim - k))
        assert rep.exponents[k:] == exps[k:]
        np.testing.assert_allclose(rep.exponents[:k], exps[:k], rtol=0, atol=1e-12)
        np.testing.assert_allclose(rep.raw_estimates[:k], raw[:k], rtol=0,
                                   atol=1e-12)
        np.testing.assert_allclose(rep.stderr[:k], err[:k], rtol=1e-6, atol=0)

    # orbits per frequency of exact and of grid input
    ORBITS = (16, 8)

    def orbits(self, C):
        return self.ORBITS[0] if C.is_exact else self.ORBITS[1]

    @pytest.mark.parametrize("name", sorted(INPUTS))
    @pytest.mark.parametrize("n", ["2", "d", "13", "997", "1000"])
    def test_matches_per_step_loop(self, name, n):
        C = self.INPUTS[name]
        n = C.dim if n == "d" else int(n)
        M = self.orbits(C)
        self.assert_matches(C, lyapunov_spectrum(C, n=n, M=M), n, M)

    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_matches_with_minimal_chunks(self, name, monkeypatch):
        # chunks of one maximal block put chunk boundaries inside the warmup
        # and leave a short block at the end of each range
        monkeypatch.setattr(cocycle_module, "_CHUNK_BYTES", 1)
        C = self.INPUTS[name]
        M = self.orbits(C)
        self.assert_matches(C, lyapunov_spectrum(C, n=101, M=M), 101, M)

    @pytest.mark.parametrize("n", [0, 1, True, False])
    def test_too_few_iterates_is_an_error(self, n):
        with pytest.raises(ValueError):
            lyapunov_spectrum(fx.dominated_2x2(), n=n, M=8)

    @pytest.mark.parametrize("M", [0, -3, 2.5, 8.0, "8", None, True, False])
    def test_orbit_count_must_be_a_positive_integer(self, M):
        with pytest.raises(ValueError, match="positive integer"):
            lyapunov_spectrum(fx.dominated_2x2(), n=100, M=M)


class TestChunkedSweepBatchLast(TestChunkedSweep):
    """The same equivalence on an odd orbit count, 5 orbits per frequency:
    the batch-last step on a batch that is no power of two, and grid
    samples resampled onto a lattice coarser than their own grid (an alias
    sum in resample_lattice)."""

    ORBITS = (5, 5)


class TestDeadDirections:
    def test_dead_direction_noise_never_outranks_a_finite_exponent(self):
        # dead directions are not swept at all: only the k = 2 finite ones
        # are.  A sweep of all d directions would have one of these 64
        # orbits clear the death floor along a dead direction in one short
        # block, with a noise estimate above the second finite exponent
        C = _partially_degenerate(1004882659, 2, 2)
        TestChunkedSweep.assert_matches(C, lyapunov_spectrum(C, n=1000, M=64), 1000, 64)

    def test_orbits_starting_on_zeros_of_A_stay_finite(self):
        # both orbits start on a zero of A (x = 0 and 1/2), where the image
        # of A is ker A: the k = 1 column dies exactly in the first steps and
        # is completed from the random start frame, not by a basis vector,
        # which lies in the kernel here and would keep it dead
        rep = lyapunov_spectrum(fx.not_dominated_2x2(), n=2000, M=2)
        assert math.isfinite(rep.exponents[0])
        assert abs(rep.exponents[0] + math.log(2)) < 2 * rep.stderr[0]

    @pytest.mark.parametrize("name, columns", [
        ("nilpotent_plus_invertible_3x3", 1), ("partially_degenerate_2_2", 2),
        ("random_invertible", 3)])
    def test_only_the_finite_directions_are_swept(self, name, columns, monkeypatch):
        C = {"nilpotent_plus_invertible_3x3": fx.nilpotent_plus_invertible_3x3(),
             "partially_degenerate_2_2": _partially_degenerate(1004882659, 2, 2),
             "random_invertible": fx.random_invertible(3, d=3)}[name]
        widths = _gram_schmidt_columns(monkeypatch)
        lyapunov_spectrum(C, n=200, M=8)
        assert set(widths) == {columns}


def _batch_last(a):
    return np.ascontiguousarray(np.moveaxis(a, (-2, -1), (0, 1)))


def _block_products(mats, s):
    """The ordered products of s consecutive step matrices (T, batch, d, d)
    by stacked matmul, (ceil(T/s), batch, d, d); a short last block
    multiplies the steps left.  The reference for _block_products_last."""
    full = mats.shape[0] // s
    blocks = mats[:full * s].reshape((full, s) + mats.shape[1:])
    prod = blocks[:, 0]
    for i in range(1, s):
        prod = blocks[:, i] @ prod
    if full * s < mats.shape[0]:
        last = mats[full * s]
        for m in mats[full * s + 1:]:
            last = m @ last
        prod = np.concatenate([prod, last[None]])
    return prod


class TestBatchLastStep:
    def test_block_products_match_batched_matmul(self):
        rng = np.random.default_rng(4)
        # 61 steps: whole blocks and a short last one at every s below 61,
        # one short block alone at s = 64
        mats = rng.standard_normal((61, 5, 3, 3)) + 1j * rng.standard_normal((61, 5, 3, 3))
        for s in (1, 2, 3, 4, 13, 16, 27, 64):
            want = _block_products(mats, s)
            got = cocycle_module._block_products_last(_batch_last(mats), s)
            np.testing.assert_allclose(got, _batch_last(want), rtol=1e-12)

    def test_gram_schmidt_is_a_qr(self):
        # a square (4, 4, batch) and a rectangular (4, 2, batch) stack, the
        # k-frame of a rank-deficient sweep, against LAPACK's reduced QR
        rng = np.random.default_rng(5)
        for k in (4, 2):
            y = rng.standard_normal((7, 4, k)) + 1j * rng.standard_normal((7, 4, k))
            q, r = cocycle_module._gram_schmidt(_batch_last(y))
            want_q, want_r = np.linalg.qr(y)
            assert q.shape == (4, k, 7) and r.shape == (k, 7)
            np.testing.assert_allclose(r.T, np.abs(np.einsum("bii->bi", want_r)),
                                       rtol=1e-12)
            # equal up to a phase per column
            phase = (want_q.conj() * np.moveaxis(q, 2, 0)).sum(axis=1)
            np.testing.assert_allclose(np.abs(phase), 1.0, rtol=0, atol=1e-12)

    def test_zero_columns_complete_the_frame(self):
        # a zero column and one in the span of the first: |R_jj| = 0 for
        # both, as a Householder QR reports, and an orthonormal frame
        y = np.zeros((3, 3, 2), dtype=complex)
        y[:, :, 0] = [[1, 0, 1], [0, 0, 0], [0, 0, 0]]
        q, r = cocycle_module._gram_schmidt(y)
        np.testing.assert_array_equal(r, [[1, 0], [0, 0], [0, 0]])
        for b in range(2):
            np.testing.assert_allclose(q[:, :, b].conj().T @ q[:, :, b],
                                       np.eye(3), rtol=0, atol=1e-15)


def _sweep_record(monkeypatch):
    """Record the block lengths and the step ranges of each sweep.  A sweep
    with a warmup asks _block_length twice, for the warmup's s0 (from the
    sampled conditioning of L_1) and for the s of the blocks after it
    ("s0" and "s"), and calls _sweep_blocks twice, for the warmup's blocks
    and then for the rest; "blocks" records the block length of each call
    and "bounds" joins its ranges into one layout per sweep."""
    rec = {"s0": [], "s": [], "bounds": [], "reads": [], "blocks": []}
    block_length, sweep_blocks = (cocycle_module._block_length,
                                  cocycle_module._sweep_blocks)

    def length(gap):
        s = block_length(gap)
        rec["s" if len(rec["s0"]) > len(rec["s"]) else "s0"].append(s)
        return s

    def blocks(C, M, bounds, s, reads):
        rec["blocks"].append(s)
        rec["reads"].append(reads)
        if len(rec["reads"]) % 2:  # a warmup: a new sweep
            rec["bounds"].append([])
        rec["bounds"][-1] += bounds
        return sweep_blocks(C, M, bounds, s, reads)

    monkeypatch.setattr(cocycle_module, "_block_length", length)
    monkeypatch.setattr(cocycle_module, "_sweep_blocks", blocks)
    return rec


def _count_gram_schmidt(monkeypatch):
    calls = [0]
    gram_schmidt = cocycle_module._gram_schmidt

    def counted(y):
        calls[0] += 1
        return gram_schmidt(y)

    monkeypatch.setattr(cocycle_module, "_gram_schmidt", counted)
    return calls


def _gram_schmidt_columns(monkeypatch):
    """Record the column count y.shape[1] of every Gram-Schmidt call."""
    widths = []
    gram_schmidt = cocycle_module._gram_schmidt

    def recorded(y):
        widths.append(y.shape[1])
        return gram_schmidt(y)

    monkeypatch.setattr(cocycle_module, "_gram_schmidt", recorded)
    return widths


class TestBlockLength:
    """One QR per block of s0 orbit steps in the warmup, s0 set by the
    sampled condition number of L_1, and of s after it, s set by the
    per-step spread of the warmup's second half."""

    def test_wide_spread_runs_one_step_per_block(self, monkeypatch):
        rec = _sweep_record(monkeypatch)
        C = const_cocycle(np.array([[np.exp(6.0), 1.0], [0.0, np.exp(-6.0)]]))
        rep = lyapunov_spectrum(C, n=400, M=16)
        assert rec["s0"] == [1] and rec["s"] == [1]
        np.testing.assert_allclose(rep.exponents, [6.0, -6.0], rtol=0, atol=1e-12)

    def test_random_invertible_runs_long_blocks(self, monkeypatch):
        rec = _sweep_record(monkeypatch)
        lyapunov_spectrum(fx.random_invertible(3), n=400, M=16)
        assert rec["s0"][0] >= 8 and rec["s"][0] >= 8

    def test_warmup_blocks_follow_the_sampled_condition_number(self, monkeypatch):
        # s0 is the rule applied to the widest ln(sigma_1/sigma_d) of L_1
        # over its rank-grid samples, the singular values the profile took
        C = fx.random_invertible(3, d=3)
        sv, _ = rank_samples(Structure(C).iterate(1))
        s0 = cocycle_module._block_length(float(np.log(sv[:, 0] / sv[:, -1]).max()))
        rec = _sweep_record(monkeypatch)
        lyapunov_spectrum(C, n=400, M=16)
        assert rec["s0"] == [s0] and 1 < s0 < cocycle_module._BLOCK_MAX

    @pytest.mark.parametrize("g, s", [(0.5, 27), (0.99, 13), (0.0, cocycle_module._BLOCK_MAX),
                                      (14.0, 1), (math.inf, 1)])
    def test_largest_block_the_rule_allows(self, g, s):
        # the largest integer s <= _BLOCK_MAX with s g <= ln 1e6, not a
        # power of two; a singular sample (an infinite spread) gives 1
        assert cocycle_module._block_length(g) == s

    @staticmethod
    def spread(gaps):
        # |R_jj| of one block per gap on 2 orbits, k = 2 entries a factor
        # e^gap apart on orbit 0 and equal on orbit 1
        diag = np.ones((len(gaps), 2, 2))
        diag[:, 0, 0] = np.exp(gaps)
        return diag

    def test_spread_divides_each_block_by_its_own_steps(self):
        # two blocks of 4 steps at 0.5 a step and a short last block of one
        # step at 0.9: dividing the short block by 4 would read 0.5
        diag = self.spread([2.0, 2.0, 0.9])
        assert cocycle_module._step_spread(diag, np.array([4, 4, 1])) == pytest.approx(0.9)
        assert cocycle_module._step_spread(diag, np.array([4, 4, 4])) == pytest.approx(0.5)

    def test_spread_skips_dead_entries(self):
        # a block and orbit with a dead entry does not count; none alive reads 0
        diag = self.spread([1.0, 8.0])
        diag[1, 0, 1] = 0.0
        assert cocycle_module._step_spread(diag, np.array([1, 1])) == pytest.approx(1.0)
        diag[:, :, 1] = 0.0
        assert cocycle_module._step_spread(diag, np.array([1, 1])) == 0.0

    @pytest.mark.parametrize("name, most", [("random_invertible_d3", 130), ("wedge_d6", 80)])
    def test_qr_calls_at_the_criterion_5_shape(self, name, most, monkeypatch):
        # n = 2000, M = 32, the lyapunov-exact shape: warmup blocks of s0
        # and blocks of s after it take 128 and 76 calls (227 and 194 with
        # one QR per warmup step)
        C = {"random_invertible_d3": fx.random_invertible(3, d=3),
             "wedge_d6": _wedge(fx.random_invertible(5, d=4))}[name]
        calls = _count_gram_schmidt(monkeypatch)
        lyapunov_spectrum(C, n=2000, M=32)
        assert calls[0] <= most

    @pytest.mark.parametrize("n", [13, 400, 2000])
    def test_qr_calls_per_block(self, n, monkeypatch):
        # one Gram-Schmidt step per block for every orbit count, on a
        # narrow (16) and on a wide (256) batch: a range of blocks of s
        # takes ceil(steps / s) of them
        rec = _sweep_record(monkeypatch)
        calls = {"qr": 0, "gram_schmidt": 0}

        def counted(name, f):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(cocycle_module.np.linalg, "qr",
                            counted("qr", np.linalg.qr))
        monkeypatch.setattr(cocycle_module, "_gram_schmidt",
                            counted("gram_schmidt", cocycle_module._gram_schmidt))
        warmup = min(n // 5, 64)
        for M in (16, 256):
            before = dict(calls)
            lyapunov_spectrum(fx.random_invertible(3), n=n, M=M)
            made = {name: calls[name] - before[name] for name in calls}
            s0, s, bounds = rec["blocks"][-2], rec["blocks"][-1], rec["bounds"][-1]
            # LAPACK QR runs only on the random starting frame
            assert made["qr"] <= 1
            assert made["gram_schmidt"] == sum(-(-(hi - lo) // (s0 if hi <= warmup else s))
                                               for lo, hi in bounds)


def _exact_steps(C, M, lo, hi):
    """The step matrices A(x_b + t a) of exact C on the M-point lattice for
    lo <= t < hi, (d, d, T, M): (x_b + t a) mod 1 and its phases formed in
    longdouble."""
    F = C.matrix
    freqs = np.arange(F.kmin, F.kmin + len(F.c)).astype(np.longdouble)
    x = np.arange(M).astype(np.longdouble) / M
    t = np.arange(lo, hi).astype(np.longdouble)
    y = (x[None, :] + t[:, None] * np.longdouble(C.alpha)) % 1
    phases = np.exp(2j * np.pi * freqs * y[..., None].astype(np.clongdouble))
    return np.einsum("tbk,kij->ijtb", phases.astype(complex), F.c)


def _sweep_products(C, M, bounds, s):
    """The block products of _sweep_blocks for each range of bounds at
    block length s, read off L_s."""
    return list(cocycle_module._sweep_blocks(C, M, bounds, s, True))


def _wedge(C):
    return Cocycle(C.frequencies, exterior_power(C.matrix, 2))


class TestStepChunks:
    """The steps of the sweep against direct evaluation: a chunk depends on
    its own step range only, with no phase or shift state carried from the
    chunk before."""

    BOUNDS = [(0, 64), (1936, 2000)]

    def test_exact_matches_the_reduced_orbit_points(self):
        # the d = 6 wedge, non-contiguous ranges up to t = 2000; at block
        # length 1 the sweep's block products are its steps
        C = _wedge(fx.random_invertible(5, d=4))
        d, M = C.dim, 16
        chunks = _sweep_products(C, M, self.BOUNDS, 1)
        for (lo, hi), got in zip(self.BOUNDS, chunks, strict=True):
            # contiguous: every op of the sweep runs along the batch axis
            assert got.shape == (d, d, hi - lo, M) and got.flags.c_contiguous
            want = _exact_steps(C, M, lo, hi)
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("M", [8, 32])
    @pytest.mark.parametrize("l", [1, 2])
    def test_grid_matches_shift_samples(self, l, M):
        # grids of 16 per axis: M = 8 aliases, M = 32 zero-pads the spectrum
        if l == 1:
            one = fx.random_invertible(2, d=3)
            C = Cocycle(one.frequencies, GridMatrixFunction(one.matrix.sample_grid(16)))
        else:
            C = _invertible_grid(11, 3, M=16)
        d, batch = C.dim, M ** l
        base = resample_lattice(C.matrix, M)
        spec = np.fft.fftn(base, axes=tuple(range(l)))
        alpha = np.array(C.frequencies)
        bounds = [(0, 5), (997, 1003)]
        chunks = cocycle_module._step_chunks(C, M, bounds)
        for (lo, hi), got in zip(bounds, chunks, strict=True):
            assert got.shape == (d, d, hi - lo, batch) and got.flags.c_contiguous
            for i, t in enumerate(range(lo, hi)):
                want = shift_samples(base, t * alpha, spec).reshape(batch, d, d)
                np.testing.assert_allclose(got[:, :, i], want.transpose(1, 2, 0),
                                           rtol=0, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("M", [8, 32])
    def test_grid_finer_than_the_lattice_matches_sample_at(self, M):
        # frequencies 5 and -3 share a bin of the 8-point lattice but turn at
        # different rates along the orbit
        C = _frequencies_8_apart()
        chunks = cocycle_module._step_chunks(C, M, self.BOUNDS)
        for (lo, hi), got in zip(self.BOUNDS, chunks, strict=True):
            x = (np.arange(M) / M + np.arange(lo, hi)[:, None] * GOLDEN_MEAN) % 1.0
            want = C.matrix.sample_at(x.reshape(-1, 1)).reshape(hi - lo, M, 2, 2)
            np.testing.assert_allclose(got, want.transpose(2, 3, 0, 1), rtol=0,
                                       atol=1e-12 * np.abs(want).max())

    def test_grid_finer_than_the_lattice_keeps_the_spectrum(self):
        # triangular, so the exponents are the means of ln|diagonal|:
        # ln((2 + sqrt 3)/2) for 2 + cos, 0 for z^5 + 0.3 z^-3
        rep = lyapunov_spectrum(_frequencies_8_apart(), n=1000, M=8)
        exact = [math.log((2 + math.sqrt(3)) / 2), 0.0]
        for got, want, err in zip(rep.exponents, exact, rep.stderr, strict=True):
            assert abs(got - want) < 3 * err


def _frequencies_8_apart():
    """A 16-point grid of [[e^{2 pi i 5x} + 0.3 e^{-2 pi i 3x}, 1],
    [0, 2 + cos 2 pi x]] over the golden mean."""
    z = np.exp(2j * np.pi * np.arange(16) / 16)
    A = np.zeros((16, 2, 2), dtype=complex)
    A[:, 0, 0] = z ** 5 + 0.3 * z ** -3
    A[:, 0, 1] = 1.0
    A[:, 1, 1] = 2.0 + z.real
    return Cocycle((GOLDEN_MEAN,), GridMatrixFunction(A))


def _sweep_inputs():
    rng = np.random.default_rng(8)
    skew = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    return {
        "random_invertible": fx.random_invertible(3, d=3),
        # frequencies -3 and -2 only
        "negative_frequencies": Cocycle((GOLDEN_MEAN,), MatrixFunction.from_coeffs(
            -3, skew + 3.0 * np.eye(3))),
        "constant": const_cocycle(np.array([[1.5, 0.5], [-0.25, 0.75j]])),
        "scalar": _wedge(fx.random_invertible(2, d=2)),
        "wedge_d6": _wedge(fx.random_invertible(5, d=4)),
    }


class TestSweepBlocks:
    """Block products read off the iterate L_s against the ordered
    products of s step matrices, to 1e-12 of the largest entry."""

    INPUTS = _sweep_inputs()
    # non-contiguous, with short last blocks at s = 16
    BOUNDS = [(0, 64), (64, 1001), (1936, 2000)]

    @pytest.mark.parametrize("s", [1, 2, 16])
    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_match_multiplied_steps(self, name, s, monkeypatch):
        C, M = self.INPUTS[name], 64
        built = []
        iterate_coeffs = cocycle_module._iterate_coeffs

        def spy(A, a, N, lengths):
            built.append(set(lengths))
            return iterate_coeffs(A, a, N, lengths)

        monkeypatch.setattr(cocycle_module, "_iterate_coeffs", spy)
        got = _sweep_products(C, M, self.BOUNDS, s)
        # L_1 is A; L_2 and L_16 are built once, with the short blocks' L_r
        assert built == ([] if s == 1 else [{s} | {(h - l) % s for l, h in self.BOUNDS}])
        for (lo, hi), prods in zip(self.BOUNDS, got, strict=True):
            want = cocycle_module._block_products_last(_exact_steps(C, M, lo, hi), s)
            assert prods.shape == (C.dim, C.dim, -(-(hi - lo) // s), M)
            assert prods.flags.c_contiguous
            np.testing.assert_allclose(prods, want, rtol=0,
                                       atol=1e-12 * np.abs(want).max())

    def test_low_degree_multiplies_no_steps(self, monkeypatch):
        built = []
        iterate_coeffs = cocycle_module._iterate_coeffs

        def refuse(*args):
            raise AssertionError("step matrices multiplied")

        def spy(A, a, N, lengths):
            built.append(max(lengths))
            return iterate_coeffs(A, a, N, lengths)

        monkeypatch.setattr(cocycle_module, "_block_products_last", refuse)
        monkeypatch.setattr(cocycle_module, "_iterate_coeffs", spy)
        rep = lyapunov_spectrum(fx.random_invertible(3, d=3), n=1000, M=64)
        assert all(np.isfinite(rep.exponents))
        # L_s0 for the warmup's blocks, then L_s for the rest
        assert len(built) == 2 and min(built) > 1

    def test_high_degree_builds_no_iterate(self, monkeypatch):
        # degree 64: building L_16 on 4096 points costs more than the
        # block products it would replace
        lengths = []
        block_products = cocycle_module._block_products_last

        def refuse(*args):
            raise AssertionError("L_s built")

        def spy(mats, s):
            lengths.append(s)
            return block_products(mats, s)

        monkeypatch.setattr(cocycle_module, "_iterate_coeffs", refuse)
        monkeypatch.setattr(cocycle_module, "_block_products_last", spy)
        C = fx.random_invertible(11, d=3, degree=64)
        rep = lyapunov_spectrum(C, n=1000, M=64)
        assert all(np.isfinite(rep.exponents))
        assert max(lengths) > 1


class TestChunkCount:
    def test_narrow_sweep_runs_long_chunks(self, monkeypatch):
        # every range pays a fixed set of array ops, so a narrow batch must
        # not be cut into dozens of short step ranges: two warmup ranges,
        # ending at its half and at its end, and three of whole blocks read
        # off L_s
        rec = _sweep_record(monkeypatch)
        lyapunov_spectrum(fx.random_invertible(3, d=3), n=2000, M=32)
        assert len(rec["bounds"][0]) <= 5


class TestRangeLayout:
    """The sweep lays its step ranges out in whole blocks, of s0 in the
    warmup and of s after it, sized by what the block path materialises;
    warmup ranges end at its half, so no block straddles the half whose
    spread sets s; grid ranges keep 16 steps at 1,024 orbits."""

    LAYOUTS = [("random_invertible_d3", 2000, 32), ("wedge_d6", 2000, 32),
               ("random_invertible_d3", 1000, 64), ("degree_64", 400, 64)]

    @staticmethod
    def layout(name, n, M, monkeypatch):
        """The block lengths s0 and s, the ranges and the reads of one sweep."""
        C = {"random_invertible_d3": fx.random_invertible(3, d=3),
             "wedge_d6": _wedge(fx.random_invertible(5, d=4)),
             "degree_64": fx.random_invertible(11, d=3, degree=64)}[name]
        rec = _sweep_record(monkeypatch)
        lyapunov_spectrum(C, n=n, M=M)
        bounds = rec["bounds"][0]
        # contiguous from 0 to n
        assert [lo for lo, _ in bounds] == [0] + [hi for _, hi in bounds[:-1]]
        assert bounds[-1][1] == n
        return rec["s0"][0], rec["s"][0], bounds, rec["reads"]

    @pytest.mark.parametrize("name, n, M", LAYOUTS)
    def test_post_warmup_ranges_are_whole_blocks(self, name, n, M, monkeypatch):
        _, s, bounds, reads = self.layout(name, n, M, monkeypatch)
        warmup = min(n // 5, 64)
        quarter = max((n - warmup) // 4, 2)
        ends = {warmup + (n - warmup) - quarter + 1, n}
        # a range ends at the warmup and where the bias estimate reads
        assert {warmup} | ends <= {hi for _, hi in bounds}
        assert s > 1
        for lo, hi in bounds:
            if lo >= warmup and hi not in ends:
                assert (hi - lo) % s == 0, (lo, hi, s)
        # degree 64 multiplies steps; the others read blocks off L_s
        assert reads[1] == (name != "degree_64")

    @pytest.mark.parametrize("name, n, M", LAYOUTS)
    def test_warmup_ranges_are_whole_blocks_of_s0(self, name, n, M, monkeypatch):
        s0, _, bounds, _ = self.layout(name, n, M, monkeypatch)
        warmup = min(n // 5, 64)
        # warmup ranges end at its half, so no block straddles the half
        # whose spread sets s
        assert {warmup // 2, warmup} <= {hi for _, hi in bounds}
        assert s0 > 1
        for lo, hi in bounds:
            if hi <= warmup and hi not in (warmup // 2, warmup):
                assert (hi - lo) % s0 == 0, (lo, hi, s0)

    def test_wide_wedge_runs_few_ranges(self, monkeypatch):
        # the d = 6 wedge at n = 2000, M = 32: each range holds as many
        # blocks of L_s evaluations as fit the range budget, not a fixed
        # number of step matrices and phases
        rec = _sweep_record(monkeypatch)
        lyapunov_spectrum(_wedge(fx.random_invertible(5, d=4)), n=2000, M=32)
        assert len(rec["bounds"][0]) <= 20

    @pytest.mark.parametrize("d, seed", [(2, 7), (3, 11)])
    def test_grid_keeps_sixteen_step_ranges(self, d, seed, monkeypatch):
        # two frequencies on the 32 x 32 orbit lattice, as analyze --grid 32
        # runs them: ranges of 16 steps bound the peak memory of a grid
        # sweep, whatever the block length, and a block never spans two
        C = _invertible_grid(seed, d, M=16)
        rec = _sweep_record(monkeypatch)
        lyapunov_spectrum(C, n=100, M=32)
        assert rec["bounds"][0] == [(0, 10), (10, 20), (20, 36), (36, 52), (52, 68),
                                    (68, 81), (81, 97), (97, 100)]
        lyapunov_spectrum(C, n=2000, M=32)
        bounds = rec["bounds"][1]
        assert len(bounds) == 126
        assert all(hi - lo == 16 for lo, hi in bounds if hi not in (64, 1517, 2000))
        rules = [r for pair in zip(rec["s0"], rec["s"]) for r in pair]
        assert all(16 % s == 0 and s <= r for s, r in zip(rec["blocks"], rules, strict=True))
        assert max(rec["blocks"][0::2]) > 1


class TestWarmupKeepsSingularInputs:
    """An L_1 with a singular sample, so every k < d input, gives s0 = 1:
    those sweeps keep one QR per warmup step and their QR count."""

    INPUTS = {
        "not_dominated_2x2": fx.not_dominated_2x2(),
        "nilpotent_plus_invertible_3x3": fx.nilpotent_plus_invertible_3x3(),
        "partially_degenerate_2_2": _partially_degenerate(1004882659, 2, 2),
    }

    @pytest.mark.parametrize("name, n, M, calls", [
        ("not_dominated_2x2", 2000, 32, 126), ("not_dominated_2x2", 1000, 64, 94),
        ("nilpotent_plus_invertible_3x3", 2000, 32, 126),
        ("nilpotent_plus_invertible_3x3", 1000, 64, 94),
        ("partially_degenerate_2_2", 2000, 32, 194),
        ("partially_degenerate_2_2", 1000, 64, 127)])
    def test_one_step_per_warmup_block(self, name, n, M, calls, monkeypatch):
        C = self.INPUTS[name]
        assert rank_profile(C).min_rank < C.dim
        rec = _sweep_record(monkeypatch)
        counted = _count_gram_schmidt(monkeypatch)
        lyapunov_spectrum(C, n=n, M=M)
        assert rec["s0"] == [1] and rec["blocks"][0] == 1
        assert counted[0] == calls

    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_sampled_condition_number_is_past_the_rule(self, name):
        # rank L_1 < d at every sample puts sigma_d at most tol times the
        # largest sigma_1, where ln(sigma_1/sigma_d) >= ln(1/tol) is too
        # wide for blocks of two steps; at a zero of det A it is infinite
        st = Structure(self.INPUTS[name])
        assert st.profile.min_rank < st.cocycle.dim
        assert st.log_cond >= -math.log(st.tol)
        assert cocycle_module._block_length(st.log_cond) == 1


class TestBlockConditioning:
    """Every block product of a sweep, warmup blocks included, keeps the
    finite R-diagonal within ln 1e6 (_BLOCK_LOG_COND): the block lengths
    s0 and s never let QR lose the digits of its smallest finite
    direction."""

    @staticmethod
    def inputs():
        out = {}
        for seed in range(6):
            for d in (2, 3, 4):
                C = fx.random_invertible(seed, d=d)
                out[f"random_invertible_{seed}_d{d}"] = C
                out[f"random_invertible_{seed}_d{d}_wedge2"] = _wedge(C)
        out["invertible_grid_7"] = _invertible_grid(7, 2, M=16)
        out["invertible_grid_11"] = _invertible_grid(11, 3, M=16)
        return out

    INPUTS = inputs()

    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_block_spread_within_the_bound(self, name, monkeypatch):
        spreads = []
        qr_blocks = cocycle_module._qr_blocks

        def spy(prods, q):
            q, diag = qr_blocks(prods, q)
            lo, hi = diag.min(axis=-1), diag.max(axis=-1)
            alive = lo > 1e-14 * hi
            spreads.append(float(np.log(hi[alive] / lo[alive]).max(initial=0.0)))
            return q, diag

        monkeypatch.setattr(cocycle_module, "_qr_blocks", spy)
        C = self.INPUTS[name]
        for n, M in ([(2000, 32), (1000, 64), (400, 16)] if C.is_exact
                     else [(400, 16), (400, 32)]):
            lyapunov_spectrum(C, n=n, M=M)
        assert max(spreads) <= cocycle_module._BLOCK_LOG_COND


def _dense_orbit_product(C, n):
    """A_n on the grid from the trigonometric interpolant at every orbit
    point, one factor at a time: the reference for the FFT-shifted iterates."""
    pts = C.matrix.grid_points()
    alpha = np.array(C.frequencies)
    prod = C.matrix.sample_at(pts)
    for k in range(1, n):
        prod = C.matrix.sample_at((pts + k * alpha) % 1.0) @ prod
    return prod.reshape(C.matrix.samples.shape)


def _grid_inputs():
    one = fx.random_invertible(2, d=3)
    return {
        "twofrequency_rank_one": fx.twofrequency_rank_one(M=32),
        "one_frequency_grid": Cocycle(
            one.frequencies, GridMatrixFunction(one.matrix.sample_grid(32))),
        "invertible_grid_16x16": _invertible_grid(11, 3, M=16),
    }


class TestGridIterates:
    INPUTS = _grid_inputs()

    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_match_dense_orbit_product(self, name):
        C = self.INPUTS[name]
        top = float(np.abs(C.matrix.samples).max())
        for n, F in enumerate(iterates(C, 4), start=1):
            ref = _dense_orbit_product(C, n)
            assert np.abs(F.samples - ref).max() <= 1e-13 * top ** n

    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_never_interpolate(self, name, monkeypatch):
        C = self.INPUTS[name]

        def refuse(self, points):
            raise AssertionError("dense interpolation on the orbit")

        monkeypatch.setattr(GridMatrixFunction, "sample_at", refuse)
        assert len(list(iterates(C, 4))) == 4
        rank_profile(C)
        detect_nilpotency(C)


class TestFlagReason:
    @pytest.mark.parametrize("C", [
        fx.nilpotent_3x3_variable_rank(),
        fx.nilpotent_4x4_variable_rank2(),
        fx.constant_jordan((3,)),
        fx.constant_jordan((2, 1)),
        fx.random_nilpotent(0),
        fx.twofrequency_rank_one(M=32),
    ])
    def test_every_divergent_slot_of_a_nilpotent_has_a_reason(self, C):
        rep = lyapunov_spectrum(C, n=300, M=16)
        prof = rank_profile(C)
        assert all(rep.divergent)
        assert rep.flag_reason == [f"rank A_{prof.stabilized_at} = 0"] * C.dim

    def test_invertible_slots_have_no_reason(self):
        for seed in range(3):
            rep = lyapunov_spectrum(fx.random_invertible(seed), n=400, M=16)
            assert rep.flag_reason == [None] * len(rep.exponents)

    def test_reasons_follow_the_flags(self):
        rep = lyapunov_spectrum(fx.not_dominated_2x2(), n=600, M=32)
        assert rep.divergent == [False, True]
        assert rep.flag_reason == [None, "rank A_1 = 1"]

    def test_nilpotent_block_beside_an_invertible_one(self):
        # the nilpotent block decays at a finite-looking rate in every
        # finite run; the rank profile (2, 1) certifies its two -inf slots
        rep = lyapunov_spectrum(fx.nilpotent_plus_invertible_3x3(), n=1000, M=32)
        assert abs(rep.exponents[0] - np.log(3.0)) <= 3 * rep.stderr[0]
        assert rep.exponents[1:] == [float("-inf")] * 2
        assert rep.divergent == [False, True, True]
        assert rep.flag_reason == [None, "rank A_2 = 1", "rank A_2 = 1"]

    @pytest.mark.parametrize("C", [
        _partially_degenerate(1004882659, 2, 2),
        _partially_degenerate(5, 2, 1),
        fx.nilpotent_plus_invertible_3x3(),
        fx.not_dominated_2x2(),
    ])
    def test_certified_slots_report_no_estimate(self, C):
        # what a sweep measures along a dead direction is noise: in a block
        # of s steps it can sit above the death floor and read finite
        rep = lyapunov_spectrum(C, n=1000, M=64)
        k = rank_profile(C).min_rank
        assert 0 < k < C.dim
        assert all(np.isfinite(rep.raw_estimates[:k]))
        assert rep.raw_estimates[k:] == [float("-inf")] * (C.dim - k)
        assert rep.stderr[k:] == [0.0] * (C.dim - k)

    def test_no_sweep_without_finite_exponents(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a sweep for a cocycle with no finite exponent")

        monkeypatch.setattr(cocycle_module, "_sweep_blocks", refuse)
        monkeypatch.setattr(cocycle_module, "_step_chunks", refuse)
        for C in (fx.nilpotent_3x3_variable_rank(), fx.twofrequency_rank_one(M=32)):
            rep = lyapunov_spectrum(C, n=500, M=16)
            assert rep.exponents == rep.raw_estimates == [float("-inf")] * C.dim
            assert rep.stderr == [0.0] * C.dim
            assert (rep.n, rep.grid) == (500, 16)

    def test_tol_is_the_rank_tolerance(self):
        # a rank drop below tol is structural: slot 2 of diag(1, 1e-6) is
        # finite at the default tol and -inf at tol = 1e-5
        C = const_cocycle(np.diag([1.0, 1e-6]))
        assert lyapunov_spectrum(C, n=100, M=8).divergent == [False, False]
        rep = lyapunov_spectrum(Structure(C, 1e-5), n=100, M=8)
        assert abs(rep.exponents[0]) < 1e-12
        assert rep.exponents[1] == float("-inf")
        assert rep.flag_reason == [None, "rank A_1 = 1"]


class TestRankProfile:
    def test_variable_rank_3x3(self):
        p = rank_profile(fx.nilpotent_3x3_variable_rank())
        assert p.ranks == [2, 1, 0]
        assert p.stabilized_at == 3
        assert p.min_rank == 0
        assert len(p.exceptional[1]) == 2

    def test_constant_rank_4x4(self):
        p = rank_profile(fx.nilpotent_4x4_variable_rank2())
        assert p.ranks == [2, 1, 0]
        assert p.exceptional[1] == []
        assert len(p.exceptional[2]) > 0

    def test_invertible_stabilizes_immediately(self):
        C = fx.random_invertible(4)
        p = rank_profile(C)
        assert p.ranks == [C.dim]
        assert p.stabilized_at == 1

    def test_grid_two_frequency(self):
        p = rank_profile(fx.twofrequency_rank_one(M=32))
        assert p.ranks == [1, 0]
        assert p.min_rank == 0

    @pytest.mark.parametrize("C", [
        fx.nilpotent_3x3_variable_rank(), fx.random_nilpotent(3),
        fx.twofrequency_rank_one(M=32),
    ])
    def test_walks_the_iterate_ladder_once(self, C, monkeypatch):
        # the reference: one max_rank per iterate(C, n), as the profile
        # measures it (against the n-th power of the largest singular value)
        want = rank_profile(C)
        s1 = float(np.linalg.svd(
            C.matrix.all_samples() if not C.is_exact
            else C.matrix.sample_grid(max(64, default_grid_size(C.matrix.degree))),
            compute_uv=False).max())
        ref = [max_rank(iterate(C, n), scale=s1 ** n)
               for n in range(1, len(want.ranks) + 1)]
        assert want.ranks == [r for r, _ in ref]
        assert want.exceptional == {
            n: exc for n, (_, exc) in enumerate(ref, start=1)}
        ladders = []
        real = cocycle_module.iterates

        def counted(*args, **kwargs):
            ladders.append(args)
            return real(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("iterate rebuilt from scratch")

        monkeypatch.setattr(cocycle_module, "iterates", counted)
        monkeypatch.setattr(cocycle_module, "iterate", refuse)
        got = rank_profile(C)
        assert len(ladders) == 1
        assert (got.ranks, got.stabilized_at, got.exceptional) == (
            want.ranks, want.stabilized_at, want.exceptional)

    def test_degree_overflow_where_iterate_overflows(self):
        # rank one of two, so the profile needs the second iterate, of
        # degree 4200 > DEGREE_CAP
        z = TrigPoly.zero()
        C = Cocycle((GOLDEN_MEAN,), MatrixFunction(
            [[z, TrigPoly.harmonic(2100)], [z, TrigPoly.constant(1.0)]]))
        with pytest.raises(DegreeOverflow):
            iterate(C, 2)
        with pytest.raises(DegreeOverflow):
            rank_profile(C)


class TestNilpotency:
    def test_3x3_degree(self):
        rep = detect_nilpotency(fx.nilpotent_3x3_variable_rank())
        assert rep.nilpotent and rep.degree == 3
        assert rep.witness["certificate"] < 1e-12

    def test_4x4_degree(self):
        rep = detect_nilpotency(fx.nilpotent_4x4_variable_rank2())
        assert rep.nilpotent and rep.degree == 3

    def test_projection_is_not_nilpotent(self):
        rep = detect_nilpotency(const_cocycle(np.diag([1.0, 0.0])))
        assert not rep.nilpotent
        assert rep.degree is None
        assert rep.witness["max_sample_norm"] > 0.5

    def test_scalar_times_single_block(self):
        a = MatrixFunction([
            [TrigPoly.zero(), TrigPoly.constant(2.0) + TrigPoly.cosine()],
            [TrigPoly.zero(), TrigPoly.zero()],
        ])
        rep = detect_nilpotency(Cocycle((GOLDEN_MEAN,), a))
        assert rep.nilpotent and rep.degree == 2

    def test_zero_matrix(self):
        rep = detect_nilpotency(const_cocycle(np.zeros((2, 2))))
        assert rep.nilpotent and rep.degree == 1

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_conjugated(self, seed):
        C = fx.random_nilpotent(seed)
        rep = detect_nilpotency(C)
        assert rep.nilpotent
        assert rep.degree <= C.dim

    def test_grid_two_frequency(self):
        rep = detect_nilpotency(fx.twofrequency_rank_one(M=32))
        assert rep.nilpotent and rep.degree == 2

    @pytest.mark.parametrize("name", ["one_frequency_grid", "invertible_grid_16x16"])
    def test_grid_witness_is_the_spectral_norm_at_a_grid_point(self, name):
        # grid input gets the witness of exact input: the largest sampled
        # spectral norm of L_{d+1}, at the grid coordinates where it peaks
        C = _grid_inputs()[name]
        rep = detect_nilpotency(C)
        assert not rep.nilpotent
        c, unit = _power_of_two_unit(rep.witness["scale"])
        last = iterate(cocycle_module._unit_scale(C, c), C.dim + 1)
        norms = np.linalg.norm(last.samples, ord=2, axis=(-2, -1))
        j = np.unravel_index(int(norms.argmax()), norms.shape)
        assert rep.witness["max_sample_norm"] == float(norms[j]) * unit ** (C.dim + 1)
        assert rep.witness["at"] == [i / m for i, m in zip(j, last.grid_shape)]

    def test_degree_never_exceeds_dimension(self):
        # a simple-spectrum perturbation of a 3 x 3 nilpotent: at tol 1e-6
        # its fourth iterate has decayed below tol, but A_3 has not vanished
        T = triangularize(fx.nilpotent_3x3_variable_rank())
        P, _ = perturb_simple(T, (4, 2, 1), 1e-4)
        st = Structure(P, 1e-6)
        rep = detect_nilpotency(st)
        assert not rep.nilpotent and rep.degree is None
        # the witness is L_{r+1} for the profile's first rank r = 2: L_3
        assert st.profile.ranks[0] == 2
        c, unit = _power_of_two_unit(rep.witness["scale"])
        last = iterate(cocycle_module._unit_scale(P, c), 3)
        M = max(64, default_grid_size(last.degree))
        norms = np.linalg.norm(last.sample_grid(M), ord=2, axis=(1, 2))
        assert rep.witness["max_sample_norm"] == float(norms.max()) * unit ** 3

    @pytest.mark.xfail(strict=True, reason="both thresholds scale with |A|^n, "
                       "which the nilpotent coupling inflates")
    def test_nilpotent_coupling_hides_no_direction(self):
        # the exponents are 0, -inf, -inf: e_3 is fixed, e_1 and e_2 form a
        # nilpotent pair whose coupling 1e4 sets |A|
        st = Structure(const_cocycle(np.array([[0.0, 1e4, 0.0],
                                               [0.0, 0.0, 0.0],
                                               [0.0, 0.0, 1.0]])))
        assert st.profile.min_rank == 1
        assert not st.nilpotency.nilpotent


class TestUnits:
    """Scaling A by c keeps every structure decision and shifts every finite
    exponent by ln c."""

    @pytest.mark.parametrize("name", [
        "nilpotent_3x3_variable_rank", "dominated_2x2",
        "nilpotent_plus_invertible_3x3",
    ])
    @pytest.mark.parametrize("c", [1e-300, 1e-200, 1e-30, 1e30, 1e200, 1e300])
    def test_scaling_keeps_ranks_degree_and_shifts_exponents(self, name, c):
        C = getattr(fx, name)()
        Cc = Cocycle(C.frequencies, C.matrix * c)
        want, got = rank_profile(C), rank_profile(Cc)
        assert (got.ranks, got.stabilized_at, got.min_rank) == (
            want.ranks, want.stabilized_at, want.min_rank)
        assert detect_nilpotency(Cc).degree == detect_nilpotency(C).degree
        ref = lyapunov_spectrum(C, n=400, M=16)
        rep = lyapunov_spectrum(Cc, n=400, M=16)
        assert rep.divergent == ref.divergent
        for e, e1, err in zip(rep.exponents, ref.exponents, ref.stderr):
            if np.isfinite(e1):
                assert abs(e - (e1 + np.log(c))) <= err
            else:
                assert e == float("-inf")

    @pytest.mark.parametrize("name", [
        "dominated_2x2", "not_dominated_2x2", "nilpotent_plus_invertible_3x3",
    ])
    @pytest.mark.parametrize("c", [1e-310, 1e-200, 1e-30, 1e30, 1e200])
    def test_scaling_keeps_the_domination_verdict(self, name, c):
        C = getattr(fx, name)()
        Cc = Cocycle(C.frequencies, C.matrix * c)
        want = is_dominated(split_infinite_part(C))["dominated"]
        assert is_dominated(split_infinite_part(Cc))["dominated"] == want


class TestRankOneFactor:
    """Inputs the rank-one closed form refuses."""

    def test_rejects_higher_rank(self):
        with pytest.raises(RankNotOne):
            exact_L1_rank_one(fx.nilpotent_3x3_variable_rank())

    def test_rejects_zero(self):
        with pytest.raises(RankNotOne):
            exact_L1_rank_one(const_cocycle(np.zeros((2, 2))))

    def test_rejects_grid_base(self):
        with pytest.raises(UnsupportedBase):
            exact_L1_rank_one(fx.twofrequency_rank_one(M=32))


class TestExactTopExponent:
    def test_vanishing_coupling_is_minus_inf(self):
        a = MatrixFunction([
            [TrigPoly.zero(), TrigPoly.harmonic(1) + TrigPoly.constant(-2.0)],
            [TrigPoly.zero(), TrigPoly.zero()],
        ])
        C = Cocycle((GOLDEN_MEAN,), a)
        assert exact_L1_rank_one(C) == float("-inf")
        assert iterate(C, 2).max_coeff() < 1e-14

    def test_constant_projection(self):
        C = const_cocycle(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert abs(exact_L1_rank_one(C)) < 1e-12

    def test_scalar_mahler(self):
        # (z - 2) E11: top exponent is the log of the outside root
        a = MatrixFunction([
            [TrigPoly.harmonic(1) + TrigPoly.constant(-2.0), TrigPoly.zero()],
            [TrigPoly.zero(), TrigPoly.zero()],
        ])
        C = Cocycle((GOLDEN_MEAN,), a)
        assert abs(exact_L1_rank_one(C) - np.log(2)) < 1e-10

    def test_log_sine_integral(self):
        got = exact_L1_rank_one(fx.not_dominated_2x2())
        assert abs(got + np.log(2)) < 1e-9

    def test_against_quadrature(self):
        C = fx.dominated_2x2()
        got = exact_L1_rank_one(C)
        want, _ = quad(lambda x: np.log(2.0 + np.cos(2 * np.pi * x)), 0, 1)
        assert abs(got - want) < 1e-9

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_dichotomy(self, seed):
        # exactly one of: finite value, or identically vanishing square
        C = fx.random_rank_one(seed, vanishing_coupling=bool(seed % 2))
        val = exact_L1_rank_one(C)
        a2 = iterate(C, 2)
        scale = C.matrix.sup_bound() ** 2
        if val == float("-inf"):
            assert a2.max_coeff() < 1e-10 * scale
        else:
            assert a2.max_coeff() > 1e-10 * scale

    @pytest.mark.parametrize("name", ["dominated_2x2", "not_dominated_2x2"])
    @pytest.mark.parametrize("c", [1e-310, 1e-300, 1e-100, 1e100, 1e300])
    def test_scaling_shifts_by_log_c(self, name, c):
        C = getattr(fx, name)()
        Cc = Cocycle(C.frequencies, C.matrix * c)
        assert abs(exact_L1_rank_one(Cc) - exact_L1_rank_one(C) - np.log(c)) < 1e-12

    def test_agrees_with_orbit_estimate(self):
        C = fx.not_dominated_2x2()
        exact = exact_L1_rank_one(C)
        rep = lyapunov_spectrum(C, n=1500, M=64)
        assert abs(rep.exponents[0] - exact) < max(3 * rep.stderr[0], 0.02)


class TestSerialization:
    def test_exact_round_trip(self):
        C = fx.nilpotent_3x3_variable_rank()
        back = Cocycle.from_json_dict(C.to_json_dict())
        assert back.frequencies == C.frequencies
        xs = np.array([0.1, 0.6])
        assert np.abs(back.matrix.sample_at(xs) - C.matrix.sample_at(xs)).max() < 1e-15

    def test_grid_round_trip(self):
        C = fx.twofrequency_rank_one(M=32)
        back = Cocycle.from_json_dict(C.to_json_dict())
        assert back.frequencies == C.frequencies
        assert np.abs(back.matrix.samples - C.matrix.samples).max() < 1e-15

    def test_grid_dimension_mismatch(self):
        mat = fx.twofrequency_rank_one(M=32).matrix
        with pytest.raises(ValueError):
            Cocycle((GOLDEN_MEAN,), mat)

    @pytest.mark.parametrize("alpha", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_frequency_is_rejected(self, alpha):
        with pytest.raises(ValueError, match="finite"):
            Cocycle((alpha,), fx.dominated_2x2().matrix)


def _plain(x):
    """x with dataclasses, arrays and polynomials as plain values, for ==;
    the Structure a split form carries is left out."""
    if dataclasses.is_dataclass(x):
        return {f.name: _plain(getattr(x, f.name)) for f in dataclasses.fields(x)
                if f.name != "structure"}
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (MatrixFunction, TrigPoly)):
        return x.to_json_dict()
    return x


class TestStructureHandle:
    # each analysis with an input it completes on
    ANALYSES = {
        "rank_profile": (rank_profile, fx.nilpotent_3x3_variable_rank),
        "detect_nilpotency": (detect_nilpotency, fx.nilpotent_3x3_variable_rank),
        "lyapunov_spectrum": (lambda X, **kw: lyapunov_spectrum(X, n=200, M=8, **kw),
                              fx.nilpotent_plus_invertible_3x3),
        "exact_L1_rank_one": (exact_L1_rank_one, lambda: fx.random_rank_one(0)),
        "triangularize": (triangularize, fx.nilpotent_3x3_variable_rank),
        "jordan_form": (jordan_form, lambda: fx.constant_jordan((3,))),
        "split_infinite_part": (split_infinite_part, fx.nilpotent_plus_invertible_3x3),
    }

    @pytest.mark.parametrize("name", sorted(ANALYSES))
    def test_cocycle_and_structure_give_equal_results(self, name):
        analysis, make = self.ANALYSES[name]
        C = make()
        assert _plain(analysis(Structure(C))) == _plain(analysis(C))

    def test_log_cond_reads_before_the_profile(self):
        # the widest sampled ln(sigma_1/sigma_d) of L_1 on the rank grid, read
        # on a fresh Structure, and the same once the profile shares its SVD
        st = Structure(fx.random_invertible(1, d=3))
        g = st.log_cond
        assert "profile" not in vars(st)
        sv = rank_samples(st.iterate(1))[0]
        assert math.isfinite(g)
        assert g == float((np.log(sv[:, 0]) - np.log(sv[:, -1])).max())
        assert st.profile.min_rank == 3
        assert st.log_cond == g

    def test_tol_resolves_in_the_structure(self):
        st = Structure(fx.dominated_2x2(), 1e-6)
        assert (st.tol, st.nil_tol) == (1e-6, 1e-6)
        st = Structure(fx.dominated_2x2())
        assert (st.tol, st.nil_tol) == (1e-9, 1e-10)
