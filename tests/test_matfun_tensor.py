"""The coefficient-tensor algebra of MatrixFunction against TrigPoly.

TrigPoly stays the scalar reference: every operation on a matrix function
must give, entry by entry, what the same computation on its TrigPoly
entries gives, to 1e-13.  Inputs mix zero entries, the zero matrix, 1 x k
and k x 1 shapes and entries whose lowest frequency is not 0.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocycles.errors import FloatRangeExceeded
from cocycles.matfun import MatrixFunction, hstack, vstack
from cocycles.trigpoly import TrigPoly, real_divide

TOL = 1e-13
ALPHA = 0.6180339887498949
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _poly(rng, zero_share):
    if rng.random() < zero_share:
        return TrigPoly.zero()
    n = int(rng.integers(1, 5))
    return TrigPoly(int(rng.integers(-3, 4)),
                    rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))


@st.composite
def matrices(draw, rows=None, cols=None):
    """A MatrixFunction of 1-3 rows and columns (or the given ones) whose
    entries have up to four coefficients at frequencies -3..6; a zero share
    of 1 gives the zero matrix."""
    rows = draw(st.integers(1, 3)) if rows is None else rows
    cols = draw(st.integers(1, 3)) if cols is None else cols
    zero_share = draw(st.sampled_from([0.0, 0.4, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return MatrixFunction([[_poly(rng, zero_share) for _ in range(cols)]
                           for _ in range(rows)])


def _entries(F):
    return [[F.entry(i, j) for j in range(F.cols)] for i in range(F.rows)]


def _dense(p, lo, hi):
    out = np.zeros(hi - lo + 1, dtype=complex)
    if not p.is_zero:
        out[p.kmin - lo:p.kmax - lo + 1] = p.c
    return out


def assert_entries(F, ref):
    """F equals the nested list ref of TrigPoly entrywise: exact zeros agree
    and the coefficients agree to TOL."""
    assert F.shape == (len(ref), len(ref[0]))
    for i, row in enumerate(ref):
        for j, q in enumerate(row):
            p = F.entry(i, j)
            assert p.is_zero == q.is_zero, (i, j)
            if not q.is_zero:
                lo, hi = min(p.kmin, q.kmin), max(p.kmax, q.kmax)
                assert np.abs(_dense(p, lo, hi) - _dense(q, lo, hi)).max() <= TOL


@SETTINGS
@given(st.integers(1, 3).flatmap(lambda m: st.tuples(matrices(cols=m), matrices(rows=m))))
def test_product(pair):
    F, G = pair
    f, g = _entries(F), _entries(G)
    ref = []
    for i in range(F.rows):
        row = []
        for j in range(G.cols):
            acc = TrigPoly.zero()
            for k in range(F.cols):
                acc = acc + f[i][k] * g[k][j]
            row.append(acc)
        ref.append(row)
    assert_entries(F @ G, ref)


@SETTINGS
@given(matrices(), st.floats(-2.0, 2.0))
def test_translate(F, alpha):
    assert_entries(F.translate(alpha), [[e.translate(alpha) for e in row]
                                        for row in _entries(F)])


@SETTINGS
@given(matrices())
def test_adjoint(F):
    f = _entries(F)
    assert_entries(F.adjoint(), [[f[j][i].conj() for j in range(F.rows)]
                                 for i in range(F.cols)])


@SETTINGS
@given(st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
    lambda s: st.tuples(matrices(*s), matrices(*s))))
def test_sum_and_difference(pair):
    F, G = pair
    f, g = _entries(F), _entries(G)
    assert_entries(F + G, [[a + b for a, b in zip(r, s)] for r, s in zip(f, g)])
    assert_entries(F - G, [[a - b for a, b in zip(r, s)] for r, s in zip(f, g)])


@SETTINGS
@given(matrices(), st.complex_numbers(max_magnitude=4.0), st.integers(0, 2**32 - 1),
       st.floats(0.25, 8.0))
def test_scalar_polynomial_and_division(F, s, seed, x):
    f = _entries(F)
    p = _poly(np.random.default_rng(seed), 0.2)
    assert_entries(F * s, [[e * s for e in row] for row in f])
    assert_entries(s * F, [[e * s for e in row] for row in f])
    assert_entries(F * p, [[e * p for e in row] for row in f])
    assert_entries(F / x, [[TrigPoly(e.kmin, real_divide(e.c, x)) for e in row]
                           for row in f])


@SETTINGS
@given(matrices(), st.data())
def test_block_and_stacks(F, data):
    f = _entries(F)
    r0 = data.draw(st.integers(0, F.rows - 1))
    r1 = data.draw(st.integers(r0 + 1, F.rows))
    c0 = data.draw(st.integers(0, F.cols - 1))
    c1 = data.draw(st.integers(c0 + 1, F.cols))
    assert_entries(F.block(r0, r1, c0, c1), [row[c0:c1] for row in f[r0:r1]])
    G = data.draw(matrices(rows=F.rows))
    H = data.draw(matrices(cols=F.cols))
    assert_entries(hstack([F, G]), [a + b for a, b in zip(f, _entries(G))])
    assert_entries(vstack([F, H]), f + _entries(H))


@SETTINGS
@given(matrices(), st.sampled_from([0.0, ALPHA, -0.3]))
def test_sampling(F, shift):
    M = 16
    xs = np.arange(M) / M + shift
    grid, at = F.sample_grid(M, shift=shift), F.sample_at(xs)
    for i, row in enumerate(_entries(F)):
        for j, e in enumerate(row):
            assert np.abs(grid[:, i, j] - e.eval(xs)).max() <= TOL
            assert np.abs(at[:, i, j] - e.eval(xs)).max() <= TOL


def test_zero_matrix_algebra():
    Z, A = MatrixFunction.zero(2, 3), MatrixFunction.constant(np.ones((3, 1)))
    assert (Z @ A).is_zero and (Z @ A).shape == (2, 1)
    assert Z.adjoint().shape == (3, 2) and Z.translate(ALPHA).is_zero
    assert (Z * TrigPoly.cosine()).is_zero and Z.degree == 0
    assert not np.any(Z.sample_grid(8)) and Z.sample_grid(8).shape == (8, 2, 3)


def test_truncation_is_per_entry():
    # a coefficient at most 1e-12 times the largest of its own entry is
    # dropped; a small entry is measured against itself, not the matrix
    F = MatrixFunction.from_coeffs(0, [[[1.0, 1e-14]], [[1e-12, 1e-27]]])
    assert F.entry(0, 0).c.tolist() == [1.0]
    assert F.entry(0, 1).c.tolist() == [1e-14]
    assert (F.kmin, F.c.shape) == (0, (1, 1, 2))
    with pytest.raises(FloatRangeExceeded):
        MatrixFunction.from_coeffs(0, [[[1.0, np.inf]]])


def test_json_of_a_hand_built_matrix():
    F = MatrixFunction([[TrigPoly.cosine(), TrigPoly.zero()],
                        [TrigPoly.constant(2.0), TrigPoly(-1, [1j, 0.0, 0.5])]])
    assert F.to_json_dict() == {
        "rows": 2,
        "cols": 2,
        "entries": [
            [{"coeffs": [{"k": -1, "re": 0.5, "im": 0.0}, {"k": 1, "re": 0.5, "im": 0.0}]},
             {"coeffs": []}],
            [{"coeffs": [{"k": 0, "re": 2.0, "im": 0.0}]},
             {"coeffs": [{"k": -1, "re": 0.0, "im": 1.0}, {"k": 1, "re": 0.5, "im": 0.0}]}],
        ],
    }
    back = MatrixFunction.from_json_dict(F.to_json_dict())
    assert back.kmin == F.kmin and np.array_equal(back.c, F.c)
