import dataclasses
import gc
import weakref

import numpy as np
import pytest

from cocycles import cocycle as cocycle_module
from cocycles import fixtures as fx
from cocycles import frames
from cocycles.cocycle import Structure
from cocycles.errors import ClosureDefect, DimensionUnstable, StructureViolation, TailTooFat
from cocycles.frames import (
    SubspaceField,
    _rolling_align,
    complement_within,
    field_from_vectors,
    field_grid,
    intersect_field,
    kernel_field,
    kernel_field_from_samples,
    orthocomplement,
    phase_align,
    preimage_field,
    range_field,
    subspace_distance,
    sum_field,
    to_analytic_frame,
)
from cocycles.matfun import MatrixFunction
from cocycles.trigpoly import TrigPoly

GM = fx.GOLDEN_MEAN


def orthonormality_defect(S):
    """Largest entry of F* F - I over the frames F of S."""
    if not S.k:
        return 0.0
    gram = np.conj(np.swapaxes(S.frames, 1, 2)) @ S.frames
    return float(np.abs(gram - np.eye(S.k)).max())


def constant_field(M, d, cols):
    frames = np.zeros((M, d, len(cols)), dtype=complex)
    for j, c in enumerate(cols):
        frames[:, c, j] = 1.0
    return SubspaceField(frames, cont_budget=1.0)


class TestConstructors:
    def test_kernel_of_constant_projector(self):
        f = MatrixFunction.constant(np.diag([1.0, 0.0]))
        S = kernel_field(f, M=64)
        assert S.k == 1
        assert S.exceptional == []
        assert orthonormality_defect(S) < 1e-12
        # kernel is exactly span of e2
        assert np.abs(np.abs(S.frames[:, 1, 0]) - 1.0).max() < 1e-12
        assert np.abs(S.frames[:, 0, 0]).max() < 1e-12

    def test_kernel_of_variable_rank_nilpotent(self):
        # first column vanishes identically, so the kernel is constant e1;
        # the cosine zeros drop the rank and are marked exceptional
        C = fx.nilpotent_3x3_variable_rank()
        S = kernel_field(C.matrix, M=128)
        assert S.k == 1
        assert S.exceptional == [32, 96]
        ref = constant_field(128, 3, [0])
        assert subspace_distance(S, ref) < 1e-9

    def test_range_of_second_iterate(self):
        from cocycles.cocycle import iterate

        C = fx.nilpotent_3x3_variable_rank()
        a2 = iterate(C, 2)
        S = range_field(a2, M=128)
        assert S.k == 1
        # sole nonzero entry sits in the first row: range is constant e1,
        # degenerating where that cosine vanishes (not grid points here)
        ref = constant_field(128, 3, [0])
        assert subspace_distance(S, ref) < 1e-9

    def test_range_perp_kernel_of_adjoint(self):
        C = fx.dominated_2x2()
        R = range_field(C.matrix, M=128)
        K = kernel_field(C.matrix.adjoint(), M=128)
        ps = R.projectors() + K.projectors()
        assert np.abs(ps - np.eye(2)).max() < 1e-9

    def test_field_from_vectors_rotation(self):
        M = 128
        x = np.arange(M) / M
        vecs = np.stack([np.cos(2 * np.pi * x), np.sin(2 * np.pi * x)], axis=1)
        S = field_from_vectors(vecs, degree=1)
        assert S.k == 1 and S.exceptional == []
        assert orthonormality_defect(S) < 1e-12

    def test_field_from_vectors_too_degenerate(self):
        M = 8
        x = np.arange(M) / M
        vecs = np.stack([np.sin(2 * np.pi * x), np.zeros(M)], axis=1)
        # two of eight samples vanish: more than a tenth of the circle
        with pytest.raises(DimensionUnstable):
            field_from_vectors(vecs, degree=1)

    def test_field_from_all_zero(self):
        with pytest.raises(DimensionUnstable):
            field_from_vectors(np.zeros((16, 2)), degree=1)


class TestCalculus:
    def setup_method(self):
        M = 128
        x = np.arange(M) / M
        vecs = np.stack([np.cos(2 * np.pi * x), np.sin(2 * np.pi * x)], axis=1)
        self.S = field_from_vectors(vecs, degree=1)

    def test_double_complement(self):
        back = orthocomplement(orthocomplement(self.S))
        assert subspace_distance(back, self.S) < 1e-11

    def test_complement_dimensions(self):
        P = orthocomplement(self.S)
        assert P.k == 1
        assert intersect_field(self.S, P).k == 0
        assert sum_field(self.S, P).k == 2

    def test_sum_intersect_idempotent(self):
        assert subspace_distance(sum_field(self.S, self.S), self.S) < 1e-10
        assert subspace_distance(intersect_field(self.S, self.S), self.S) < 1e-10

    def test_constant_sum_and_intersection(self):
        e1 = constant_field(64, 3, [0])
        e2 = constant_field(64, 3, [1])
        both = sum_field(e1, e2)
        assert both.k == 2
        assert intersect_field(e1, e2).k == 0
        inter = intersect_field(both, constant_field(64, 3, [1, 2]))
        assert inter.k == 1
        assert subspace_distance(inter, e2) < 1e-11

    def test_complement_within(self):
        e12 = constant_field(64, 3, [0, 1])
        e1 = constant_field(64, 3, [0])
        rem = complement_within(e1, e12)
        assert rem.k == 1
        assert subspace_distance(rem, constant_field(64, 3, [1])) < 1e-11

    def test_preimage_of_zero_is_kernel(self):
        C = fx.nilpotent_3x3_variable_rank()
        M = 128
        zero = SubspaceField(np.zeros((M, 3, 0), dtype=complex), cont_budget=1.0)
        P = preimage_field(C.matrix, zero)
        K = kernel_field(C.matrix, M=M)
        assert P.k == K.k == 1
        assert subspace_distance(P, K) < 1e-9

    def test_preimage_of_range_under_invertible(self):
        C = fx.random_invertible(5)
        M = 128
        R = range_field(C.matrix, M=M)
        assert R.k == C.dim
        P = preimage_field(C.matrix, R)
        assert P.k == C.dim


def _flag(make):
    # the kernel fields K_1, ..., K_{p-1} of a nilpotent fixture on the
    # grid 256, as the normal forms build them
    st = Structure(make())
    return [st.kernel(n, 256) for n in range(1, st.nilpotency.degree)]


# the two variable-rank fixtures have exceptional (filled) kernel samples
FLAG_MAKERS = [fx.nilpotent_3x3_variable_rank, fx.nilpotent_4x4_variable_rank2,
               lambda: fx.random_nilpotent(3)]
FLAG_IDS = ["variable3x3", "variable4x4", "nilpotent3"]


class TestRawFields:
    @pytest.mark.parametrize("make", FLAG_MAKERS, ids=FLAG_IDS)
    def test_carried_complement_matches_a_fresh_svd(self, make):
        flag = _flag(make)
        # a kernel's perp comes from vh, a sum's from u
        fields = flag + [sum_field(flag[0], orthocomplement(flag[-1]))]
        for S in fields:
            perp = SubspaceField(S.perp)
            fresh = SubspaceField(np.linalg.svd(S.frames)[0][:, :, S.k:])
            assert perp.k == S.d - S.k
            assert orthonormality_defect(perp) < 1e-12
            assert subspace_distance(perp, fresh) < 1e-12
            if S.exceptional:
                rows = S.exceptional
                gap = perp.projectors()[rows] - fresh.projectors()[rows]
                assert np.linalg.norm(gap, ord=2, axis=(1, 2)).max() < 1e-12
        assert any(S.exceptional for S in fields) == (make is not FLAG_MAKERS[2])

    def test_complements_take_no_svd(self, monkeypatch):
        K = _flag(fx.nilpotent_3x3_variable_rank)[0]

        def refuse(*args, **kwargs):
            raise AssertionError("an SVD was taken")

        monkeypatch.setattr(frames.np.linalg, "svd", refuse)
        P = orthocomplement(K)
        assert P.frames is K.perp and P.perp is K.frames

    @pytest.mark.parametrize("make", FLAG_MAKERS, ids=FLAG_IDS)
    def test_phase_align_reads_no_gauge(self, make):
        # a random unitary change of basis at every sample but the first
        # leaves phase_align's frames as they are
        flag = _flag(make)
        fields = (flag + [complement_within(a, b) for a, b in zip(flag, flag[1:])]
                  + [orthocomplement(flag[-1])])
        rng = np.random.default_rng(25)
        for S in fields:
            z = rng.standard_normal((S.M, S.k, S.k, 2)) @ [1.0, 1j]
            V = np.linalg.qr(z)[0]
            V[0] = np.eye(S.k)
            gauged = SubspaceField(S.frames @ V, S.exceptional, cont_budget=S.cont_budget)
            want, got = phase_align(S).frames, phase_align(gauged).frames
            assert np.abs(want - got).max() < 1e-12


class TestPhaseAlign:
    def test_winding_of_unimodular_loop(self):
        M = 256
        x = np.arange(M) / M
        vecs = np.zeros((M, 2), dtype=complex)
        vecs[:, 0] = np.exp(2j * np.pi * x)
        S = field_from_vectors(vecs, degree=1)
        out = phase_align(S)
        assert out.winding[0] == 1
        assert out.closure_residual < 1e-9
        # the subspace path is constant, so the aligned frames are too
        ref = constant_field(M, 2, [0])
        assert subspace_distance(out, ref) < 1e-10

    @pytest.mark.parametrize("freq", [-2, -1, 2, 3])
    def test_winding_matches_frequency(self, freq):
        M = 256
        x = np.arange(M) / M
        vecs = np.zeros((M, 2), dtype=complex)
        vecs[:, 0] = np.exp(2j * np.pi * freq * x)
        out = phase_align(field_from_vectors(vecs, degree=abs(freq)))
        assert out.winding[0] == freq
        assert out.closure_residual < 1e-12
        # align_phase carries the removed turns into a second alignment
        assert phase_align(out).winding[0] == freq

    def test_constant_frame_untouched(self):
        S = constant_field(64, 2, [0])
        out = phase_align(S)
        assert out.winding == [0]
        assert out.closure_residual < 1e-12
        assert np.abs(out.frames - S.frames).max() < 1e-12

    def test_real_rotation_no_winding(self):
        M = 256
        x = np.arange(M) / M
        vecs = np.stack([np.cos(2 * np.pi * x), np.sin(2 * np.pi * x)], axis=1)
        out = phase_align(field_from_vectors(vecs, degree=1))
        assert out.winding == [0]
        # a closed non-constant field leaves a seam gap of one grid step
        assert out.closure_residual < out.cont_budget
        assert out.closure_residual < 3 * (2 * np.pi / M)

    def test_projectors_preserved(self):
        M = 128
        x = np.arange(M) / M
        vecs = np.stack([np.cos(2 * np.pi * x),
                         np.exp(4j * np.pi * x) * np.sin(2 * np.pi * x)], axis=1)
        S = field_from_vectors(vecs, degree=2)
        out = phase_align(S)
        assert subspace_distance(out, S) < 1e-9

    def test_two_dim_field_aligns(self):
        C = fx.nilpotent_4x4_variable_rank2()
        K = kernel_field(C.matrix, M=128)
        assert K.k == 2
        out = phase_align(K)
        assert out.closure_residual < out.cont_budget
        assert orthonormality_defect(out) < 1e-9

    def test_loop_through_kernel_crossing(self):
        samples = fx.kernel_loop_samples(M=256)
        S = kernel_field_from_samples(samples, degree=1)
        with pytest.raises(ClosureDefect):
            phase_align(S)


class TestAnalyticFrame:
    def test_requires_alignment(self):
        S = constant_field(64, 2, [0])
        with pytest.raises(ValueError):
            to_analytic_frame(S)

    def test_round_trip_rotation(self):
        M = 256
        x = np.arange(M) / M
        vecs = np.stack([np.cos(2 * np.pi * x), np.sin(2 * np.pi * x)], axis=1)
        out = phase_align(field_from_vectors(vecs, degree=1))
        F = to_analytic_frame(out)
        assert F.degree <= M // 4
        resampled = F.sample_grid(M)
        assert np.abs(resampled - out.frames).max() < 1e-9

    def test_degree_one_tail_is_tiny(self):
        M = 128
        x = np.arange(M) / M
        vecs = np.stack([np.cos(2 * np.pi * x), np.sin(2 * np.pi * x)], axis=1)
        out = phase_align(field_from_vectors(vecs, degree=1))
        F = to_analytic_frame(out, N=1)
        assert np.abs(F.sample_grid(M) - out.frames).max() < 1e-12

    def test_rich_spectrum_rejected_at_low_degree(self):
        M = 256
        x = np.arange(M) / M
        vecs = np.stack([np.cos(2 * np.pi * 9 * x), np.sin(2 * np.pi * 9 * x)],
                        axis=1)
        out = phase_align(field_from_vectors(vecs, degree=9))
        with pytest.raises(TailTooFat):
            to_analytic_frame(out, N=4)

    def test_kernel_frame_reproduces_kernel(self):
        C = fx.nilpotent_3x3_variable_rank()
        out = phase_align(kernel_field(C.matrix, M=128))
        F = to_analytic_frame(out)
        prod = C.matrix @ F
        assert prod.max_coeff() < 1e-9


class TestFlagFrame:
    def test_field_grid(self):
        assert [field_grid(n) for n in (0, 63, 64, 200)] == [256, 256, 512, 1024]
        F = fx.nilpotent_3x3_variable_rank().matrix
        assert kernel_field(F).M == range_field(F).M == 256

    def test_kernel_dimensions_checked_before_any_fit(self, monkeypatch):
        # the kernels of L_1 and L_2 have dimensions 1 and 2; a profile of
        # ranks 2, 2, 0 gives them 1 and 1
        st = Structure(fx.nilpotent_3x3_variable_rank())
        st.profile = dataclasses.replace(st.profile, ranks=[2, 2, 0])

        def refuse(*args, **kwargs):
            raise AssertionError("a frame was fitted")

        monkeypatch.setattr(cocycle_module, "phase_align", refuse)
        with pytest.raises(StructureViolation, match="kernel dimensions"):
            st.flag_form((1, 2))


class TestWideningGrid:
    def test_rejected_builds_are_freed_without_a_collection(self):
        # the flag of L_1 of a degree-1 generator: rank grid 64, field_grid 256
        st = Structure(fx.nilpotent_3x3_variable_rank())

        class Samples:
            pass

        held = []

        def build(Mg):
            samples = Samples()
            held.append(weakref.ref(samples))
            if Mg < 256:
                raise TailTooFat("tail too fat")
            return Mg

        gc.disable()
        try:
            assert st.fit(st.cocycle.matrix.degree, build) == (256, 512)
            assert [ref() is None for ref in held] == [True, True, True]
        finally:
            gc.enable()

    def test_exhausted_ladder_raises_the_last_rejection(self):
        # every grid of the ladder rejected: 64 (the rank grid) doubling up
        # to 8 field_grid = 2048, and the last TailTooFat is raised bare
        st = Structure(fx.nilpotent_3x3_variable_rank())
        tried = []

        def build(Mg):
            tried.append(Mg)
            raise TailTooFat("tail too fat", tail=Mg)

        with pytest.raises(TailTooFat) as info:
            st.fit(st.cocycle.matrix.degree, build)
        assert tried == [64, 128, 256, 512, 1024, 2048]
        assert info.value.tail == 2048
        tb, names = info.value.__traceback__, []
        while tb is not None:
            names.append(tb.tb_frame.f_code.co_name)
            tb = tb.tb_next
        assert "fit" in names and "build" not in names


def _sequential_align(frames):
    # reference: one Procrustes correction per step against the previous
    # aligned frame, lifting the det-phase of consecutive corrections
    M, _, k = frames.shape
    out = frames.copy()
    theta = 0.0
    if k == 0:
        return out, theta
    prev = np.eye(k, dtype=complex)
    for m in range(1, M):
        u, _, vh = np.linalg.svd(np.conj(out[m].T) @ out[m - 1])
        w = u @ vh
        out[m] = out[m] @ w
        theta += float(np.angle(np.linalg.det(np.conj(prev.T) @ w)))
        prev = w
    return out, theta


def _scrambled_loop(rng, M, k, d):
    # k columns of a smooth closed unitary path, each sample multiplied by
    # a random unitary gauge
    x = np.arange(M) / M
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    _, v = np.linalg.eigh(h + np.conj(h.T))
    freqs = rng.integers(-2, 3, size=d)
    path = np.einsum("ij,mj,kj->mik", v, np.exp(2j * np.pi * np.outer(x, freqs)),
                     np.conj(v))
    frames = path[:, :, :k]
    if k:
        g = rng.standard_normal((M, k, k)) + 1j * rng.standard_normal((M, k, k))
        frames = frames @ np.linalg.qr(g)[0]
    return frames


class TestBatchedAlignment:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("M", [1, 2, 7, 256])
    def test_matches_sequential_procrustes(self, k, M):
        rng = np.random.default_rng(100 * k + M)
        frames = _scrambled_loop(rng, M, k, d=k + 2)
        raw = frames.copy()
        want, want_theta = _sequential_align(frames)
        got, got_theta = _rolling_align(frames)
        assert got.shape == frames.shape
        if k:
            assert np.abs(got - want).max() < 1e-12
        assert abs(got_theta - want_theta) < 1e-12
        assert np.array_equal(frames, raw)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_phase_align_winding_unchanged(self, k):
        M = 256
        # seed 3 gives every k a nonzero winding
        rng = np.random.default_rng(3)
        S = SubspaceField(_scrambled_loop(rng, M, k, d=k + 2), cont_budget=1.0)
        out = phase_align(S)
        # rebuild the winding from the sequential reference lift, following
        # phase_align's own closure step
        g, theta = _sequential_align(S.frames)
        u, _, vh = np.linalg.svd(np.conj(g[0].T) @ g[-1])
        theta_d = float(np.angle(np.linalg.det(u @ vh)))
        want = int(np.round(-(theta + theta_d) / (2.0 * np.pi)))
        assert want != 0
        assert out.winding[0] == want
        assert abs(out.align_phase - (theta + theta_d)) < 1e-12
        aligned, _ = _rolling_align(S.frames)
        defect = np.conj(np.swapaxes(aligned, 1, 2)) @ aligned - np.eye(k)
        assert np.abs(defect).max() < 1e-14

    def test_long_chain_stays_unitary(self):
        # the chained corrections are re-unitarised, so a unimodular loop
        # closes to roundoff even though its corrections multiply up along
        # the whole grid
        M = 4096
        x = np.arange(M) / M
        vecs = np.zeros((M, 2), dtype=complex)
        vecs[:, 0] = np.exp(2j * np.pi * x)
        out = phase_align(field_from_vectors(vecs, degree=1))
        assert out.winding[0] == 1
        assert out.closure_residual <= 1e-15
        assert orthonormality_defect(out) < 1e-14
