import dataclasses
import math
import warnings

import numpy as np
import pytest

from cocycles import cocycle as cocycle_module
from cocycles import frames, normalform
from cocycles.cocycle import (
    GOLDEN_MEAN,
    Cocycle,
    Structure,
    iterate,
    lyapunov_spectrum,
    rank_profile,
)
from cocycles.domination import split_infinite_part
from cocycles.errors import (
    ConstantRankViolated,
    DegreeOverflow,
    FloatRangeExceeded,
    InconsistentProfile,
    NotNilpotent,
    NotStrictlyOrdered,
    StructureViolation,
    UnsupportedBase,
)
from cocycles.fixtures import (
    constant_jordan,
    dominated_2x2,
    nilpotent_3x3_variable_rank,
    nilpotent_4x4_variable_rank2,
    nilpotent_plus_invertible_3x3,
    random_constant_rank_jordan,
    random_nilpotent,
    random_strictly_upper,
    random_unitary_function,
    twofrequency_rank_one,
)
from cocycles.matfun import MatrixFunction
from cocycles.normalform import (
    jordan_form,
    jordan_structure_from_ranks,
    perturb_simple,
    triangularize,
)
from cocycles.trigpoly import TrigPoly


class TestTriangularize:
    def test_constant_single_block(self):
        C = constant_jordan((3,))
        T = triangularize(C)
        assert T.block_sizes == (1, 1, 1)
        assert T.residual < 1e-12
        assert T.U.degree == 0
        # B equals the input up to diagonal gauge phases
        b = T.B.eval_mat(0.37)
        assert np.abs(np.abs(b) - np.abs(C.matrix.eval_mat(0.37))).max() < 1e-12

    def test_fixture_3x3(self):
        T = triangularize(nilpotent_3x3_variable_rank())
        assert T.block_sizes == (1, 1, 1)
        assert T.residual < 1e-8

    def test_fixture_4x4(self):
        T = triangularize(nilpotent_4x4_variable_rank2())
        assert T.block_sizes == (2, 1, 1)
        assert T.residual < 1e-8

    @pytest.mark.parametrize("seed", [0, 3, 4, 7, 11, 20])
    def test_synthetic_round_trip(self, seed):
        C = random_nilpotent(seed)
        T = triangularize(C)
        assert sum(T.block_sizes) == C.dim
        assert T.residual < 1e-8
        # conjugation identity holds as polynomials; spot check off-grid
        xs = (np.arange(193) + 0.31) / 193
        left = T.U.adjoint().translate(C.alpha) @ C.matrix @ T.U
        diff = left.sample_at(xs) - T.B.sample_at(xs)
        assert np.abs(diff).max() < 1e-10
        usamp = T.U.sample_at(xs)
        gram = np.conj(np.swapaxes(usamp, 1, 2)) @ usamp
        assert np.abs(gram - np.eye(C.dim)).max() < 1e-7

    @pytest.mark.parametrize("seed", [1, 5])
    def test_block_sizes_follow_rank_drops(self, seed):
        C = random_nilpotent(seed)
        prof = rank_profile(C)
        r = [C.dim] + prof.ranks
        T = triangularize(C)
        assert T.block_sizes == tuple(r[n - 1] - r[n] for n in range(1, len(r)))

    def test_not_nilpotent(self):
        with pytest.raises(NotNilpotent):
            triangularize(dominated_2x2())

    def test_vanishing_cocycle_is_verified_in_the_identity_frame(self):
        T = triangularize(Cocycle((GOLDEN_MEAN,), MatrixFunction.zero(3)))
        assert T.block_sizes == (3,)
        assert np.array_equal(T.U.eval_mat(0.3), np.eye(3))
        # the default verification grid, 2 field_grid(0)
        assert T.samples.shape == (512,) and T.residual == 0.0

    def test_two_frequency_base_unsupported(self):
        with pytest.raises(UnsupportedBase):
            triangularize(twofrequency_rank_one())


def _mix(s):
    """A strictly upper degree-1 b conjugated by a product of two analytic
    unitaries, of degrees 1 and 2: W(x + alpha) b(x) W(x)*."""
    rng = np.random.default_rng(500 + s)
    d = int(rng.integers(3, 5))
    w = random_unitary_function(rng, d, 1) @ random_unitary_function(rng, d, 2)
    b = random_strictly_upper(rng, d, degree=1, scale=1.0)
    return Cocycle((GOLDEN_MEAN,), w.translate(GOLDEN_MEAN) @ b @ w.adjoint())


class TestTriangularResidualAtTheTruncationLevel:
    # the kernel-flag frames are accepted at the Fourier tail at which the
    # exact algebra truncates (1e-12), so the residual stays at rounding
    # level on inputs whose frames a looser tail cuts at the band edge
    @pytest.mark.parametrize("make", [
        pytest.param(lambda: random_constant_rank_jordan(20)[0], id="jordan-20"),
        *(pytest.param(lambda s=s: _mix(s), id=f"mix-{s}") for s in (13, 37, 45, 46, 56)),
    ])
    def test_residual_below_1e_11(self, make):
        assert triangularize(make()).residual < 1e-11


def _spy_kernels(monkeypatch):
    # the samples and degrees of the kernel fields the forms build, in call
    # order: every form asks Structure.kernel, which looks kernel_field up
    # in cocycle
    seen = []
    real = frames.kernel_field

    def spy(F, M=None, tol=1e-9):
        seen.append((F.sample_grid(M), F.degree))
        return real(F, M, tol)

    monkeypatch.setattr(cocycle_module, "kernel_field", spy)
    return seen


def _assert_unit_iterates(C, seen, ns):
    # every grid tried asks for the kernels of L_n, n in ns, in order; at
    # least one grid is tried, so a spy that sees nothing fails
    assert ns and len(seen) >= len(ns) and len(seen) % len(ns) == 0
    # each samples the products A_n held as A_n / c^n, bit for bit, for the
    # power of two c in (s/2, s], s the coefficient bound of A
    c = math.ldexp(1.0, math.frexp(C.matrix.sup_bound())[1] - 1)
    for i, (samples, degree) in enumerate(seen):
        n = ns[i % len(ns)]
        want = iterate(C, n) * (1.0 / c ** n)
        assert degree == want.degree
        assert np.array_equal(samples, want.sample_grid(len(samples)))


class TestTriangularizeIterates:
    # seed 4 widens the grid twice
    @pytest.mark.parametrize("seed", [0, 4, 6])
    def test_kernels_come_from_the_exact_iterates(self, seed, monkeypatch):
        C = random_nilpotent(seed)
        seen = _spy_kernels(monkeypatch)
        T = triangularize(C)
        monkeypatch.undo()
        _assert_unit_iterates(C, seen, list(range(1, len(T.block_sizes))))

    def test_degree_overflow(self):
        # invertible, so the nilpotency search reaches the second iterate,
        # of degree 4200 > DEGREE_CAP
        z = TrigPoly.zero()
        C = Cocycle((GOLDEN_MEAN,), MatrixFunction(
            [[z, TrigPoly.harmonic(2100)], [TrigPoly.constant(1.0), z]]))
        with pytest.raises(DegreeOverflow):
            triangularize(C)


class TestSplitIterates:
    # the split frame is the flag form of L_p alone
    @pytest.mark.parametrize("make", [nilpotent_plus_invertible_3x3, dominated_2x2])
    def test_kernel_comes_from_the_stable_iterate(self, make, monkeypatch):
        C = make()
        seen = _spy_kernels(monkeypatch)
        S = split_infinite_part(C)
        monkeypatch.undo()
        _assert_unit_iterates(C, seen, [S.p])


class TestSharedKernels:
    # random_nilpotent(24) widens the jordan grid once
    @pytest.mark.parametrize("make", [
        lambda: random_constant_rank_jordan(0)[0],
        lambda: random_nilpotent(3),
        lambda: random_nilpotent(24),
    ], ids=["jordan0", "nilpotent3", "nilpotent24"])
    def test_forms_build_each_kernel_once(self, make, monkeypatch):
        C = make()
        st = Structure(C)
        built = _spy_kernels(monkeypatch)
        asked = []
        real = Structure.kernel

        def spy(self, n, M):
            asked.append((n, M))
            return real(self, n, M)

        monkeypatch.setattr(Structure, "kernel", spy)
        triangularize(st)
        first = len(asked)
        jordan_form(st)
        monkeypatch.undo()
        # one build per (n, M), and the Jordan chains reuse kernels of
        # the triangular form (nilpotent24 settles on different grids, so
        # only those of its base grid are shared)
        assert len(built) == len(set(asked)) == len(st._kernels)
        assert set(asked[:first]) & set(asked[first:])


class TestJordanStructure:
    def test_single_full_chain(self):
        assert jordan_structure_from_ranks((2, 1, 0), 3) == (3,)

    def test_mixed_chains(self):
        assert jordan_structure_from_ranks((1, 0), 3) == (2, 1)

    def test_zero_matrix(self):
        assert jordan_structure_from_ranks((0,), 2) == (1, 1)

    def test_rank_increase_rejected(self):
        with pytest.raises(InconsistentProfile):
            jordan_structure_from_ranks((1, 2, 0), 3)

    def test_negative_multiplicity_rejected(self):
        # counts of length >= n must be non-increasing in n
        with pytest.raises(InconsistentProfile):
            jordan_structure_from_ranks((3, 1, 0), 4)

    def test_profile_must_reach_zero(self):
        with pytest.raises(InconsistentProfile):
            jordan_structure_from_ranks((2, 1), 3)


class TestJordanForm:
    def test_constant_single_block(self):
        C = constant_jordan((3,))
        J = jordan_form(C)
        assert J.chains == (3,)
        assert np.array_equal(J.J, C.matrix.eval_mat(0.0).real)
        assert J.residual < 1e-12
        assert J.cond_max < 1.0 + 1e-10
        assert J.M.degree == 0

    @pytest.mark.parametrize("seed", list(range(8)))
    def test_round_trip(self, seed):
        C, jmat, chains = random_constant_rank_jordan(seed)
        J = jordan_form(C)
        assert J.chains == tuple(chains)
        assert np.array_equal(J.J, jmat)
        assert J.residual < 1e-8
        assert np.isfinite(J.cond_max)

    def test_condition_past_the_float_range_is_inf_without_a_warning(self):
        # in units of 2^30 the chain columns of a length-4 chain span 2^90,
        # so the least singular value of the chain matrix underflows to zero
        C, jmat, chains = random_constant_rank_jordan(0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            J = jordan_form(Cocycle(C.frequencies, C.matrix * 2.0 ** 30))
        assert [str(w.message) for w in caught] == []
        assert J.chains == tuple(chains)
        assert np.array_equal(J.J, jmat)
        assert J.cond_max == math.inf

    # random_nilpotent(24) widens the grid once
    @pytest.mark.parametrize("make", [
        lambda: random_constant_rank_jordan(0)[0],
        lambda: random_constant_rank_jordan(4)[0],
        lambda: random_nilpotent(24),
    ], ids=["jordan0", "jordan4", "nilpotent24"])
    def test_kernels_come_from_the_exact_iterates(self, make, monkeypatch):
        C = make()
        seen = _spy_kernels(monkeypatch)
        F = jordan_form(C)
        monkeypatch.undo()
        # K_1, ..., K_{p-1}; K_p is the whole space
        _assert_unit_iterates(C, seen, list(range(1, F.chains[0])))

    @pytest.mark.parametrize("seed", list(range(20)))
    def test_round_trip_without_known_form(self, seed):
        C = random_nilpotent(seed)
        F = jordan_form(C)
        assert F.chains == jordan_structure_from_ranks(rank_profile(C).ranks, C.dim)
        assert F.residual <= 1e-7

    @pytest.mark.parametrize("seed", [0, 2, 5])
    def test_chains_match_rank_duality(self, seed):
        C, _, _ = random_constant_rank_jordan(seed)
        prof = rank_profile(C)
        J = jordan_form(C)
        assert J.chains == jordan_structure_from_ranks(prof.ranks, C.dim)

    def test_conjugation_on_fresh_grid(self):
        for C in (random_constant_rank_jordan(1)[0], random_nilpotent(1)):
            J = jordan_form(C)
            xs = (np.arange(211) + 0.17) / 211
            msamp = J.M.sample_at(xs)
            mshift = J.M.sample_at((xs + C.alpha) % 1.0)
            asamp = C.matrix.sample_at(xs)
            conj = np.linalg.solve(mshift, asamp @ msamp)
            assert np.abs(conj - J.J).max() < 10 * max(J.residual, 1e-12)

    @pytest.mark.parametrize("k", [-300, 300])
    @pytest.mark.parametrize("seed", [1, 4])
    def test_power_of_two_units_scale_the_chains_exactly(self, seed, k):
        # the unit-scale generator of 2^k A is that of A, so chain vector m
        # of the form of 2^k A is 2^(-k m) times the one of A, bit for bit
        C, _, _ = random_constant_rank_jordan(seed)
        ref = jordan_form(C)
        F = jordan_form(Cocycle(C.frequencies, C.matrix * math.ldexp(1.0, k)))
        assert F.chains == ref.chains and np.array_equal(F.J, ref.J)
        assert F.residual == ref.residual
        positions = [m for L in ref.chains for m in range(L)]
        for c, m in enumerate(positions):
            for i in range(F.M.rows):
                f, g = F.M.entry(i, c), ref.M.entry(i, c)
                assert f.kmin == g.kmin
                assert np.array_equal(f.c, g.c * math.ldexp(1.0, -k * m))

    @pytest.mark.parametrize("c", [1e-100, 1e100])
    def test_chain_out_of_float_range_in_the_units_of_a(self, c):
        C = constant_jordan((5,))
        with pytest.raises(FloatRangeExceeded):
            jordan_form(Cocycle(C.frequencies, C.matrix * c))

    def test_kernel_dimensions_checked_before_any_fit(self, monkeypatch):
        # ker A of the (2, 1) form has dimension 2; ranks 2, 1, 0, which
        # force one chain of length 3, give it dimension 1
        st = Structure(constant_jordan((2, 1)))
        st.profile = dataclasses.replace(st.profile, ranks=[2, 1, 0],
                                         stabilized_at=3, exceptional={})

        def refuse(*args, **kwargs):
            raise AssertionError("a chain top was fitted")

        monkeypatch.setattr(normalform, "phase_align", refuse)
        with pytest.raises(StructureViolation, match="kernel dimensions"):
            jordan_form(st)

    def test_variable_rank_3x3_rejected(self):
        with pytest.raises(ConstantRankViolated):
            jordan_form(nilpotent_3x3_variable_rank())

    def test_variable_rank_4x4_rejected(self):
        with pytest.raises(ConstantRankViolated):
            jordan_form(nilpotent_4x4_variable_rank2())

    def test_not_nilpotent(self):
        with pytest.raises(NotNilpotent):
            jordan_form(dominated_2x2())

    def test_two_frequency_base_unsupported(self):
        with pytest.raises(UnsupportedBase):
            jordan_form(twofrequency_rank_one())


class TestPerturbSimple:
    def test_two_by_two_splitting(self):
        T = triangularize(constant_jordan((2,)))
        pert, predicted = perturb_simple(T, (2.0, 1.0), 0.1)
        assert np.allclose(predicted, [np.log(0.2), np.log(0.1)])
        rep = lyapunov_spectrum(pert, n=5000, M=64)
        assert np.abs(np.array(rep.exponents) - predicted).max() < 1e-2

    def test_fixture_gaps_near_log_two(self):
        T = triangularize(nilpotent_3x3_variable_rank())
        pert, predicted = perturb_simple(T, (4.0, 2.0, 1.0), 0.01)
        rep = lyapunov_spectrum(pert, n=2000, M=64)
        ex = np.array(rep.exponents)
        assert not any(rep.divergent)
        gaps = ex[:-1] - ex[1:]
        assert np.abs(gaps - np.log(2)).max() < 0.2 * np.log(2)

    def test_zero_eps_rejected(self):
        T = triangularize(constant_jordan((2,)))
        with pytest.raises(ValueError):
            perturb_simple(T, (2.0, 1.0), 0.0)

    def test_non_monotone_moduli_rejected(self):
        T = triangularize(constant_jordan((3,)))
        with pytest.raises(NotStrictlyOrdered):
            perturb_simple(T, (2.0, 2.0, 1.0), 0.1)

    def test_vanishing_modulus_rejected(self):
        T = triangularize(constant_jordan((3,)))
        with pytest.raises(NotStrictlyOrdered):
            perturb_simple(T, (2.0, 1.0, 0.0), 0.1)

    def test_dimension_mismatch(self):
        T = triangularize(constant_jordan((3,)))
        with pytest.raises(ValueError):
            perturb_simple(T, (2.0, 1.0), 0.1)
