import numpy as np
import pytest
from scipy.integrate import quad

from cocycles import cocycle as cocycle_module
from cocycles import fixtures as fx
from cocycles.cocycle import (
    GOLDEN_MEAN,
    Cocycle,
    detect_nilpotency,
    exact_L1_rank_one,
    iterate,
    iterates,
    lyapunov_spectrum,
    rank_one_factor,
    rank_profile,
)
from cocycles.errors import DegreeOverflow, RankNotOne, UnsupportedBase
from cocycles.matfun import (
    GridMatrixFunction,
    MatrixFunction,
    exterior_power,
    hstack,
    max_rank,
    vstack,
)
from cocycles.trigpoly import TrigPoly, default_grid_size


def const_cocycle(mat, alpha=GOLDEN_MEAN):
    return Cocycle((alpha,), MatrixFunction.constant(mat))


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
    return F.shape == G.shape and all(
        f.kmin == g.kmin and np.array_equal(f.c, g.c)
        for f, g in zip(F.entries.flat, G.entries.flat)
    )


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
        # the certificate is the iterate of the unit-scale generator
        C = fx.random_nilpotent(seed)
        rep = detect_nilpotency(C)
        U = cocycle_module._unit_scale(C, rep.witness["scale"])
        assert rep.witness["certificate"] == iterate(U, rep.degree).max_coeff()
        for n in range(1, rep.degree):
            assert iterate(U, n).max_coeff() > 1e-10

    def test_non_nilpotent_witness_is_the_last_iterate(self):
        C = fx.random_invertible(2, d=3)
        rep = detect_nilpotency(C)
        assert not rep.nilpotent
        last = iterate(cocycle_module._unit_scale(C, rep.witness["scale"]), C.dim + 1)
        M = max(64, default_grid_size(last.degree))
        norms = np.linalg.norm(last.sample_grid(M), ord=2, axis=(1, 2))
        assert rep.witness["max_sample_norm"] == float(norms.max())

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

    def test_exterior_power_sums_top_exponents(self):
        C = fx.random_invertible(3)
        rep1 = lyapunov_spectrum(C, n=600, M=32)
        C2 = Cocycle(C.frequencies, exterior_power(C.matrix, 2))
        rep2 = lyapunov_spectrum(C2, n=600, M=32)
        tol = 3 * (rep1.stderr[0] + rep1.stderr[1] + rep2.stderr[0]) + 1e-6
        assert abs(rep1.exponents[0] + rep1.exponents[1] - rep2.exponents[0]) < tol


def _per_step_reference(C, n, M):
    """The sweep one orbit step at a time: step matrix, QR, death floor, log
    accumulation and history row; k from the rank profile.
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
        freqs, cmat = C.matrix._coeff_tensor()
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
    q = np.broadcast_to(q0, (batch, d, d)).copy()

    warmup = min(n // 5, 64)
    n_eff = n - warmup
    logr = np.zeros((batch, d))
    deaths = np.zeros((batch, d), dtype=int)
    history = np.empty((n_eff, d))
    for t in range(n):
        if C.is_exact:
            mats = (phases @ cmat).reshape(batch, d, d)
            phases *= step
        else:
            mats = lattice(t).reshape(batch, d, d)
        q, r = np.linalg.qr(mats @ q)
        if t < warmup:
            continue
        diag = np.abs(np.einsum("bii->bi", r))
        dead = diag <= 1e-14 * diag.max(axis=1, keepdims=True)
        deaths += dead
        logr += np.where(dead, 0.0, np.log(np.where(dead, 1.0, diag)))
        history[t - warmup] = logr.mean(axis=0)

    alive = n_eff - deaths
    per_orbit = np.where(alive > 0, logr / np.maximum(alive, 1), -np.inf)
    ordb = np.argsort(-per_orbit, axis=1, kind="stable")
    est_sorted = np.take_along_axis(per_orbit, ordb, axis=1)
    finite_dir = np.isfinite(est_sorted).all(axis=0)
    po_safe = np.where(np.isfinite(est_sorted), est_sorted, 0.0)
    raw = np.where(finite_dir, po_safe.mean(axis=0), -np.inf)
    err = np.where(finite_dir, po_safe.std(axis=0) / np.sqrt(batch), 0.0)
    quarter = max(n_eff // 4, 2)
    ravg = history / np.arange(1, n_eff + 1)[:, None]
    err = np.where(finite_dir, err + 3.0 * np.abs(ravg[-1] - ravg[-quarter]), 0.0)
    order = np.argsort(-raw, kind="stable")
    raw, err = raw[order], err[order]
    exponents = [float(v) for v in raw[:k]] + [float("-inf")] * (d - k)
    return (exponents, [float(v) for v in raw], [float(v) for v in err],
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

    @pytest.mark.parametrize("name", sorted(INPUTS))
    @pytest.mark.parametrize("n", ["2", "d", "13", "997", "1000"])
    def test_matches_per_step_loop(self, name, n):
        C = self.INPUTS[name]
        n = C.dim if n == "d" else int(n)
        M = 16 if C.is_exact else 8
        self.assert_matches(C, lyapunov_spectrum(C, n=n, M=M), n, M)

    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_matches_with_minimal_chunks(self, name, monkeypatch):
        # chunks of one maximal block put chunk boundaries inside the warmup
        # and leave a short block at the end of each range
        monkeypatch.setattr(cocycle_module, "_CHUNK_BYTES", 1)
        C = self.INPUTS[name]
        M = 16 if C.is_exact else 8
        self.assert_matches(C, lyapunov_spectrum(C, n=101, M=M), 101, M)

    @pytest.mark.parametrize("n", [0, 1])
    def test_too_few_iterates_is_an_error(self, n):
        with pytest.raises(ValueError):
            lyapunov_spectrum(fx.dominated_2x2(), n=n, M=8)


class TestChunkedSweepBatchLast(TestChunkedSweep):
    """The same equivalence with every orbit batch swept batch-last,
    including not_dominated_2x2, whose orbit from x = 0 falls into ker A and
    leaves a Gram-Schmidt column exactly zero."""

    @pytest.fixture(autouse=True)
    def batch_last(self, monkeypatch):
        monkeypatch.setattr(cocycle_module, "_BATCH_LAST_MIN", 1)


def _batch_last(a):
    return np.ascontiguousarray(np.moveaxis(a, (-2, -1), (0, 1)))


class TestBatchLastStep:
    def test_block_products_match_batched_matmul(self):
        rng = np.random.default_rng(4)
        mats = rng.standard_normal((13, 5, 3, 3)) + 1j * rng.standard_normal((13, 5, 3, 3))
        for s in (1, 2, 4, 16):
            want = cocycle_module._block_products(mats, s)
            got = cocycle_module._block_products_last(_batch_last(mats), s)
            np.testing.assert_allclose(got, _batch_last(want), rtol=1e-12)

    def test_gram_schmidt_is_a_qr(self):
        rng = np.random.default_rng(5)
        y = rng.standard_normal((7, 4, 4)) + 1j * rng.standard_normal((7, 4, 4))
        q, r = cocycle_module._gram_schmidt(_batch_last(y))
        want_q, want_r = np.linalg.qr(y)
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
    """Record the block length and the step ranges of each sweep."""
    rec = {"s": [], "bounds": []}
    block_length, step_chunks = (cocycle_module._block_length,
                                 cocycle_module._step_chunks)

    def length(diag, k):
        rec["s"].append(block_length(diag, k))
        return rec["s"][-1]

    def chunks(C, starts, M, bounds):
        rec["bounds"].append(list(bounds))
        return step_chunks(C, starts, M, bounds)

    monkeypatch.setattr(cocycle_module, "_block_length", length)
    monkeypatch.setattr(cocycle_module, "_step_chunks", chunks)
    return rec


class TestBlockLength:
    """One QR per block of s orbit steps, s set by the warmup's spread."""

    def test_wide_spread_runs_one_step_per_block(self, monkeypatch):
        rec = _sweep_record(monkeypatch)
        C = const_cocycle(np.array([[np.exp(6.0), 1.0], [0.0, np.exp(-6.0)]]))
        rep = lyapunov_spectrum(C, n=400, M=16)
        assert rec["s"] == [1]
        np.testing.assert_allclose(rep.exponents, [6.0, -6.0], rtol=0, atol=1e-12)

    def test_random_invertible_runs_long_blocks(self, monkeypatch):
        rec = _sweep_record(monkeypatch)
        lyapunov_spectrum(fx.random_invertible(3), n=400, M=16)
        assert rec["s"][0] >= 8

    @pytest.mark.parametrize("n", [13, 400, 2000])
    def test_qr_calls_per_block(self, n, monkeypatch):
        # whichever step runs: LAPACK QR on 16 orbits, batch-last
        # Gram-Schmidt on _BATCH_LAST_MIN orbits
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
        for M, step in ((16, "qr"), (cocycle_module._BATCH_LAST_MIN, "gram_schmidt")):
            before = dict(calls)
            lyapunov_spectrum(fx.random_invertible(3), n=n, M=M)
            made = {name: calls[name] - before[name] for name in calls}
            s, bounds = rec["s"][-1], rec["bounds"][-1]
            # the selected step runs every warmup step and at least one block
            assert made[step] >= warmup + 1
            assert sum(made.values()) <= warmup + -(-(n - warmup) // s) + len(bounds)


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
        rep = lyapunov_spectrum(C, n=100, M=8, tol=1e-5)
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


class TestRankOneFactor:
    def test_reconstruction(self):
        C = fx.not_dominated_2x2()
        f = rank_one_factor(C)
        assert f.residual < 1e-8
        M = 128
        xs = np.arange(M) / M
        recon = (f.phi @ MatrixFunction([[f.c]]) @ f.psi.adjoint()).sample_at(xs)
        assert np.abs(recon - C.matrix.sample_at(xs)).max() < 1e-8
        # factors are unit columns
        nphi = np.linalg.norm(f.phi.sample_at(xs), axis=1)
        assert np.abs(nphi - 1.0).max() < 1e-8

    def test_rejects_higher_rank(self):
        with pytest.raises(RankNotOne):
            rank_one_factor(fx.nilpotent_3x3_variable_rank())

    def test_rejects_zero(self):
        with pytest.raises(RankNotOne):
            rank_one_factor(const_cocycle(np.zeros((2, 2))))

    def test_rejects_grid_base(self):
        with pytest.raises(UnsupportedBase):
            rank_one_factor(fx.twofrequency_rank_one(M=32))

    @pytest.mark.parametrize("seed", [11, 13])
    def test_random_rank_one(self, seed):
        C = fx.random_rank_one(seed)
        f = rank_one_factor(C)
        scale = C.matrix.sup_bound()
        assert f.residual < 1e-7 * scale


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
