import dataclasses

import numpy as np
import pytest

from cocycles import cocycle as cocycle_module
from cocycles import domination as domination_module
from cocycles import trigpoly as trigpoly_module
from cocycles.cocycle import GOLDEN_MEAN, Cocycle, Structure, iterate
from cocycles.domination import dominated_splitting, is_dominated, split_infinite_part
from cocycles.errors import (
    FullyNilpotent,
    InversionBlowup,
    NoInfinitePart,
    NotDominated,
    StructureViolation,
    TailTooFat,
    UnsupportedBase,
)
from cocycles.fixtures import (
    dominated_2x2,
    nilpotent_plus_invertible_3x3,
    not_dominated_2x2,
    random_invertible,
    random_nilpotent,
    twofrequency_rank_one,
)
from cocycles.frames import field_grid
from cocycles.matfun import MatrixFunction, hstack, vstack
from cocycles.trigpoly import TrigPoly, default_grid_size


def constant_split_3x3():
    j = np.zeros((3, 3))
    j[0, 1] = 1.0
    j[2, 2] = 3.0
    return Cocycle((GOLDEN_MEAN,), MatrixFunction.constant(j))


class TestSplitInfinitePart:
    def test_dominated_fixture_blocks(self):
        S = split_infinite_part(dominated_2x2())
        assert (S.k, S.p) == (1, 1)
        assert S.residual < 1e-10
        assert S.a.max_coeff() < 1e-12
        xs = np.array([0.0, 0.21, 0.66])
        dmod = np.abs(S.d.sample_at(xs))[:, 0, 0]
        assert np.abs(dmod - (2 + np.cos(2 * np.pi * xs))).max() < 1e-10

    def test_not_dominated_fixture_blocks(self):
        S = split_infinite_part(not_dominated_2x2())
        assert (S.k, S.p) == (1, 1)
        xs = np.array([0.13, 0.4, 0.77])
        dmod = np.abs(S.d.sample_at(xs))[:, 0, 0]
        assert np.abs(dmod - np.abs(np.sin(2 * np.pi * xs))).max() < 1e-10

    def test_nilpotent_plus_invertible(self):
        S = split_infinite_part(nilpotent_plus_invertible_3x3())
        assert (S.k, S.p) == (1, 2)
        assert S.residual < 1e-10
        # kernel block dies at its degree, finite block stays near 3
        a2 = S.a.translate(S.structure.cocycle.alpha) @ S.a
        assert a2.max_coeff() < 1e-10
        assert np.abs(np.abs(S.d.eval_mat(0.3)[0, 0]) - 3.0) < 1e-10

    def test_constant_already_split(self):
        S = split_infinite_part(constant_split_3x3())
        assert (S.k, S.p) == (1, 2)
        assert S.b.max_coeff() < 1e-12
        assert np.abs(np.abs(S.d.eval_mat(0.0)[0, 0]) - 3.0) < 1e-12
        a = S.a.eval_mat(0.0)
        assert np.abs(a @ a).max() < 1e-12
        assert np.abs(np.abs(a).sum() - 1.0) < 1e-12

    def test_conjugation_identity_off_grid(self):
        C = dominated_2x2()
        S = split_infinite_part(C)
        xs = (np.arange(97) + 0.29) / 97
        left = (S.U.adjoint().translate(C.alpha) @ C.matrix @ S.U).sample_at(xs)
        top = np.concatenate([S.a.sample_at(xs), S.b.sample_at(xs)], axis=2)
        bot = np.concatenate(
            [np.zeros((97, S.k, C.dim - S.k)), S.d.sample_at(xs)], axis=2
        )
        block = np.concatenate([top, bot], axis=1)
        assert np.abs(left - block).max() < 1e-10

    def test_invertible_has_no_infinite_part(self):
        with pytest.raises(NoInfinitePart):
            split_infinite_part(random_invertible(0))

    def test_nilpotent_is_fully_degenerate(self):
        with pytest.raises(FullyNilpotent):
            split_infinite_part(random_nilpotent(0))

    def test_wrong_kernel_dimension_raises_before_any_fit(self, monkeypatch):
        # the profile counts the singular values of A_2 above tol s1^2 =
        # 2.5e-4, s1 = 500 the nilpotent coupling, and misses 1e-3^2; the
        # kernel field counts them above tol times |A_2| = 1, which leaves
        # A_2 a kernel of dimension 2, not 3
        a = np.diag([0.0, 0.0, 1.0, 1e-3])
        a[0, 1] = 500.0
        st = Structure(Cocycle((GOLDEN_MEAN,), MatrixFunction.constant(a)))
        assert (st.profile.min_rank, st.profile.stabilized_at) == (1, 2)

        def refuse(*args, **kwargs):
            raise AssertionError("a frame was fitted")

        monkeypatch.setattr(cocycle_module, "phase_align", refuse)
        with pytest.raises(StructureViolation, match="kernel dimensions"):
            split_infinite_part(st)

    def test_two_frequency_base_unsupported(self):
        with pytest.raises(UnsupportedBase):
            split_infinite_part(twofrequency_rank_one())


class TestSplitFormStructure:
    # the split form carries its Structure, so the domination test and the
    # splitting build none of their own
    @pytest.mark.parametrize("analysis", [is_dominated, dominated_splitting])
    def test_split_then_domination_builds_one_structure(self, analysis, monkeypatch):
        built = []
        real = Structure.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            real(self, *args, **kwargs)

        monkeypatch.setattr(Structure, "__init__", counting)
        analysis(split_infinite_part(dominated_2x2()))
        assert len(built) == 1


class TestIsDominated:
    def test_dominated_fixture(self):
        S = split_infinite_part(dominated_2x2())
        v = is_dominated(S)
        assert v["dominated"] is True
        # min of |2 + cos| is 1, far above any tolerance scale
        assert v["evidence"]["det_min"] > 0.9

    def test_not_dominated_fixture(self):
        S = split_infinite_part(not_dominated_2x2())
        v = is_dominated(S)
        assert v["dominated"] is False
        assert v["evidence"]["det_min"] < 1e-6
        x = v["evidence"]["minimizer"]
        dist = min(abs(x - t) for t in (0.0, 0.5, 1.0))
        assert dist < 0.01

    def test_constant_diagonal(self):
        j = np.diag([0.0, 5.0])
        S = split_infinite_part(Cocycle((GOLDEN_MEAN,), MatrixFunction.constant(j)))
        v = is_dominated(S)
        assert v["dominated"] is True

    def test_nilpotent_plus_invertible(self):
        S = split_infinite_part(nilpotent_plus_invertible_3x3())
        assert is_dominated(S)["dominated"] is True

    def test_roots_of_det_d_are_found_once(self, monkeypatch):
        # det_scale's log_integral takes the roots the verdict was read from
        S = split_infinite_part(dominated_2x2())
        calls = []
        real = trigpoly_module.poly_roots

        def counting(f):
            calls.append(f)
            return real(f)

        monkeypatch.setattr(domination_module, "poly_roots", counting)
        monkeypatch.setattr(trigpoly_module, "poly_roots", counting)
        is_dominated(S)
        assert len(calls) == 1


def rough_kernel_split(K, k):
    """A = W(x+a) Y(x)* with Y = [y, e_3, ..., e_{k+1}], y = (f, -1, 0, ...),
    f = K sin 2 pi x, and W = Y + v (1, ..., 1) for v = (1, f, 0, ...):
    degree 2 and rank k everywhere, with kernel the line through v, which
    every column of W couples to.  Y*W = Y*Y = diag(1 + f^2, 1, ...) is
    invertible, so the rank profile stops at k after one step and the
    splitting is dominated by construction.  The unit kernel vector
    v/sqrt(1 + f^2) is singular where f = +-i, asinh(1/K)/(2 pi) off the
    real axis, so every frame adapted to the kernel, and the finite block
    with it, has high degree by construction while A keeps degree 2."""
    f = TrigPoly.sine(amplitude=K)
    zero, one = TrigPoly.zero(), TrigPoly.constant(1.0)
    cols = [[f, TrigPoly.constant(-1.0)] + [zero] * (k - 1)]
    cols += [[zero] * (j + 1) + [one] + [zero] * (k - 1 - j) for j in range(1, k)]
    v = [one, f] + [zero] * (k - 1)
    Y = MatrixFunction([[col[r] for col in cols] for r in range(k + 1)])
    W = MatrixFunction([[col[r] + v[r] for col in cols] for r in range(k + 1)])
    return Cocycle((GOLDEN_MEAN,), W.translate(GOLDEN_MEAN) @ Y.adjoint())


class TestHighDegreeSplit:
    # the finite block's degree outgrows the grid that resolves L_n*
    @pytest.mark.parametrize("K, k", [(8, 1), (9, 2)])
    def test_dominated_without_aliasing(self, K, k):
        C = rough_kernel_split(K, k)
        S = split_infinite_part(C)
        v = is_dominated(S)
        assert v["dominated"] is True
        assert dominated_splitting(S).residual < 1e-8


class TestDominatedSplitting:
    def test_hand_recursion_2x2(self):
        C = dominated_2x2()
        S = split_infinite_part(C)
        R = dominated_splitting(S)
        assert R.dominated is True
        assert R.residual < 1e-10
        # one-step recursion: M(x) = b(x-a) / (2 + cos 2pi(x-a))
        for x in (0.1, 0.37, 0.92):
            hand = S.b.eval_mat(x - C.alpha)[0, 0] / (
                2 + np.cos(2 * np.pi * (x - C.alpha))
            )
            assert abs(R.M.eval_mat(x)[0, 0] - hand) < 1e-10

    def test_off_diagonal_identity(self):
        C = dominated_2x2()
        S = split_infinite_part(C)
        R = dominated_splitting(S)
        xs = (np.arange(181) + 0.41) / 181
        off = (
            S.a.sample_at(xs) @ R.M.sample_at(xs)
            + S.b.sample_at(xs)
            - R.M.sample_at((xs + C.alpha) % 1.0) @ S.d.sample_at(xs)
        )
        assert np.abs(off).max() < 1e-10

    def test_zero_coupling_trivial(self):
        S = split_infinite_part(constant_split_3x3())
        R = dominated_splitting(S)
        assert R.M.sup_bound() < 1e-12
        # C is the block matrix itself when nothing needs conjugating
        diff = R.C.eval_mat(0.3) - np.block(
            [
                [S.a.eval_mat(0.3), np.zeros((2, 1))],
                [np.zeros((1, 2)), S.d.eval_mat(0.3)],
            ]
        )
        assert np.abs(diff).max() < 1e-12

    def test_recursion_terminates_at_degree(self):
        S = split_infinite_part(nilpotent_plus_invertible_3x3())
        R = dominated_splitting(S)
        assert R.residual < 1e-10

    def test_block_diagonal_conjugation(self):
        C = nilpotent_plus_invertible_3x3()
        S = split_infinite_part(C)
        R = dominated_splitting(S)
        d = C.dim
        xs = (np.arange(151) + 0.3) / 151
        msamp = R.M.sample_at(xs)
        mshift = R.M.sample_at((xs + C.alpha) % 1.0)
        eye = np.broadcast_to(np.eye(d - S.k), (151, d - S.k, d - S.k))
        eyk = np.broadcast_to(np.eye(S.k), (151, S.k, S.k))
        g = np.concatenate(
            [
                np.concatenate([eye, msamp], axis=2),
                np.concatenate([np.zeros((151, S.k, d - S.k)), eyk], axis=2),
            ],
            axis=1,
        )
        gs = np.concatenate(
            [
                np.concatenate([eye, mshift], axis=2),
                np.concatenate([np.zeros((151, S.k, d - S.k)), eyk], axis=2),
            ],
            axis=1,
        )
        B = (S.U.adjoint().translate(C.alpha) @ C.matrix @ S.U).sample_at(xs)
        conj = np.linalg.solve(gs, B @ g)
        assert np.abs(conj - R.C.sample_at(xs)).max() < 1e-9

    def test_gap_certificate_from_the_exact_iterates(self):
        S = split_infinite_part(nilpotent_plus_invertible_3x3())
        R = dominated_splitting(S)
        zero = MatrixFunction.zero(S.k, S.a.rows)
        bfull = Cocycle(S.structure.cocycle.frequencies,
                        vstack([hstack([S.a, S.b]), hstack([zero, S.d])]))
        assert sorted(R.gap_certificate) == list(range(1, 3 * S.p + 1))
        for n, ratio in R.gap_certificate.items():
            F = iterate(bfull, n)
            sv = np.linalg.svd(F.sample_grid(max(256, default_grid_size(F.degree))),
                               compute_uv=False)
            floor = np.finfo(float).eps * sv[:, 0]
            assert ratio == float((sv[:, S.k - 1] / np.maximum(sv[:, S.k], floor)).min())

    def test_gap_certificate_saturates(self):
        S = split_infinite_part(dominated_2x2())
        R = dominated_splitting(S)
        assert sorted(R.gap_certificate) == [1, 2, 3]
        assert all(r > 1.0 for r in R.gap_certificate.values())
        # the degenerate part dies identically, so the gap hits machine noise
        assert R.gap_certificate[3] > 1e10

    def test_not_dominated_raises(self):
        S = split_infinite_part(not_dominated_2x2())
        with pytest.raises(NotDominated):
            dominated_splitting(S)

    def test_ill_conditioned_inversion_blowup(self):
        # the finite block diag(3, 1 + 0.9 cos) is invertible on the whole
        # circle, so the split form is dominated at any tol, but at tol 0.1
        # its condition number reaches 30 > 1/tol
        zero = TrigPoly.zero()
        rows = [
            [zero, TrigPoly.sine(), TrigPoly.cosine()],
            [zero, TrigPoly.constant(3.0), zero],
            [zero, zero, TrigPoly.constant(1.0) + TrigPoly.cosine(amplitude=0.9)],
        ]
        C = Cocycle((GOLDEN_MEAN,), MatrixFunction(rows))
        S = split_infinite_part(Structure(C, 0.1))
        assert is_dominated(S)["dominated"] is True
        with pytest.raises(InversionBlowup):
            dominated_splitting(S)


def slow_coupling_3x3(c):
    """[[0, sin, cos], [0, 3, 0], [0, 0, 1 + c cos]]: kernel e_1 from the
    first step, finite block diag(3, 1 + c cos), whose zeros approach the
    real axis as c -> 1, so the coupling M = b(x-a) d(x-a)^-1 decays like
    e^(-2 pi w |k|) with cosh 2 pi w = 1/c."""
    zero = TrigPoly.zero()
    rows = [
        [zero, TrigPoly.sine(), TrigPoly.cosine()],
        [zero, TrigPoly.constant(3.0), zero],
        [zero, zero, TrigPoly.constant(1.0) + TrigPoly.cosine(amplitude=c)],
    ]
    return Cocycle((GOLDEN_MEAN,), MatrixFunction(rows))


class TestSlowlyDecayingCoupling:
    @pytest.mark.parametrize("c", [0.99, 0.995, 0.998])
    def test_widened_fit_resolves_the_coupling(self, c):
        S = split_infinite_part(slow_coupling_3x3(c))
        assert (S.k, S.p) == (2, 1)
        assert dominated_splitting(S).residual < 1e-10

    def test_too_slow_a_decay_exhausts_the_ladder(self, monkeypatch):
        S = split_infinite_part(slow_coupling_3x3(0.999))
        tried = []
        fit = domination_module.poly_from_samples

        def recording(vals, **kwargs):
            tried.append(len(vals))
            return fit(vals, **kwargs)

        monkeypatch.setattr(domination_module, "poly_from_samples", recording)
        with pytest.raises(TailTooFat):
            dominated_splitting(S)
        deg = max(S.a.degree, S.b.degree, S.d.degree)
        assert tried[-1] == 8 * field_grid(deg) == 2048


class TestResidualSeesTheLastTerm:
    # a block a that is not nilpotent of degree p leaves the recursion's
    # c_p = a(x) m_p(x), m_p its p-th term, in a M + b - M(x+alpha) d
    @pytest.mark.parametrize("make, a", [
        (dominated_2x2, [[0.5]]),
        (nilpotent_plus_invertible_3x3, [[0.3, 0.2], [0.1, 0.4]]),
    ])
    def test_residual_bounds_the_sampled_last_term(self, make, a, monkeypatch):
        S = split_infinite_part(make())
        S = dataclasses.replace(S, a=MatrixFunction.constant(np.array(a, dtype=complex)))
        grids = []
        fit = Structure.fit

        def recording(st, deg, build):
            got = fit(st, deg, build)
            grids.append(got[1])
            return got

        monkeypatch.setattr(Structure, "fit", recording)
        R = dominated_splitting(S)
        (Mv,) = grids
        alpha = S.structure.cocycle.alpha

        def at(X, n):
            return X.sample_grid(Mv, shift=-n * alpha)

        m = at(S.b, S.p) @ np.linalg.inv(at(S.d, S.p))
        for n in range(S.p - 1, 0, -1):
            m = at(S.a, n) @ m @ np.linalg.inv(at(S.d, n))
        cp = float(np.abs(at(S.a, 0) @ m).max())
        assert cp > 0.01
        assert R.residual >= cp * (1 - 1e-9)
