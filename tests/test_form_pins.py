"""Pinned normal forms and splittings: what triangularize, jordan_form and
split_infinite_part followed by dominated_splitting return for the
one-frequency CLI fixtures, random_nilpotent seeds 0-9 and
random_constant_rank_jordan seeds 0-4, or the error each raises.

A triangular form pins its block sizes, the length of its verification
samples (twice the grid the widening settled on) and its residual; a
Jordan form its chains, sample count, residual and cond_max; a splitting
k, p, the split form's and the splitting's residuals and the gap
certificate.  The residuals are rounding-level numbers, so a change that
only moves where the kernel flag and its frame are built must leave them
where they are, to rtol 1e-12.
"""

import numpy as np
import pytest

from cocycles import cli, errors, fixtures
from cocycles.domination import dominated_splitting, split_infinite_part
from cocycles.normalform import jordan_form, triangularize

# name -> (block sizes, len(samples), residual), or the error's name
TRIANGULAR = {
    "constant_jordan_2_1": ((2, 1), 512, 0.0),
    "constant_jordan_3": ((1, 1, 1), 512, 0.0),
    "dominated_2x2": "NotNilpotent",
    "nilpotent_3x3_variable_rank": ((1, 1, 1), 512, 0.0),
    "nilpotent_4x4_variable_rank2": ((2, 1, 1), 512, 0.0),
    "nilpotent_plus_invertible_3x3": "NotNilpotent",
    "not_dominated_2x2": "NotNilpotent",
    "synthetic_jordan_seed42": ((1, 1), 512, 0.0),
    "synthetic_nilpotent_seed42": ((1, 1), 512, 3.156883172750827e-12),
    "random_nilpotent_0": ((1, 1, 1, 1, 1), 512, 2.344138216869851e-09),
    "random_nilpotent_1": ((1, 1, 1), 512, 5.2533088990003436e-11),
    "random_nilpotent_2": ((1, 1, 1, 1, 1), 512, 6.831953189197193e-12),
    "random_nilpotent_3": ((1, 1, 1, 1, 1), 512, 6.71618547725378e-12),
    "random_nilpotent_4": ((1, 1, 1, 1), 2048, 1.0331266766990961e-11),
    "random_nilpotent_5": ((1, 1, 1, 1), 512, 7.064857477505984e-12),
    "random_nilpotent_6": ((1, 1, 1), 512, 5.82929704506796e-10),
    "random_nilpotent_7": ((1, 1, 1, 1, 1), 512, 1.8452452942622492e-10),
    "random_nilpotent_8": ((1, 1, 1, 1), 512, 4.437602910967269e-12),
    "random_nilpotent_9": ((1, 1, 1), 512, 1.2222742817868948e-09),
    "random_constant_rank_jordan_0": ((2, 1, 1, 1), 512, 3.617328658833685e-12),
    "random_constant_rank_jordan_1": ((2, 1), 512, 8.630873793436833e-13),
    "random_constant_rank_jordan_2": ((4, 1), 512, 3.382183422218077e-12),
    "random_constant_rank_jordan_3": ((5,), 512, 0.0),
    "random_constant_rank_jordan_4": ((1, 1, 1, 1), 512, 1.1102230246251565e-16),
}

# name -> (chains, len(samples), residual, cond_max), or the error's name
JORDAN = {
    "constant_jordan_2_1": ((2, 1), 512, 0.0, 1.0),
    "constant_jordan_3": ((3,), 512, 0.0, 1.0),
    "dominated_2x2": "NotNilpotent",
    "nilpotent_3x3_variable_rank": "ConstantRankViolated",
    "nilpotent_4x4_variable_rank2": "ConstantRankViolated",
    "nilpotent_plus_invertible_3x3": "NotNilpotent",
    "not_dominated_2x2": "NotNilpotent",
    "synthetic_jordan_seed42": ((2,), 512, 0.0, 1.0),
    "synthetic_nilpotent_seed42": ((2,), 512, 7.484604228513723e-12, 8.109656764521953),
    "random_nilpotent_0": ((5,), 512, 4.377463350980367e-08, 9812.086839216134),
    "random_nilpotent_1": ((3,), 512, 1.2751789156286218e-10, 59.69816907442875),
    "random_nilpotent_2": ((5,), 512, 8.269659702506881e-10, 1593.8363018063962),
    "random_nilpotent_3": ((5,), 512, 7.094411943469557e-09, 6650.010201287632),
    "random_nilpotent_4": ((4,), 512, 2.0437331726971806e-09, 618.0856587057731),
    "random_nilpotent_5": ((4,), 512, 1.020904454696031e-10, 272.92403637824754),
    "random_nilpotent_6": ((3,), 512, 1.2019609149167173e-09, 2309.095980516234),
    "random_nilpotent_7": ((5,), 512, 2.7255511604980303e-09, 285.20763473128636),
    "random_nilpotent_8": ((4,), 512, 3.3782680314204594e-10, 153.25185997811144),
    "random_nilpotent_9": ((3,), 512, 6.019020411900612e-12, 15.140451622198169),
    "random_constant_rank_jordan_0": ((4, 1), 512, 2.1416799392757296e-12, 2.13585620372509),
    "random_constant_rank_jordan_1": ((2, 1), 512, 1.573402143312774e-12, 1.0247755367246443),
    "random_constant_rank_jordan_2": (
        (2, 1, 1, 1), 512, 2.1743586537524762e-12, 1.1327079771935908),
    "random_constant_rank_jordan_3": ((1, 1, 1, 1, 1), 512, 0.0, 1.0),
    "random_constant_rank_jordan_4": ((4,), 512, 2.86989180585386e-16, 1.9152957314115862),
}

# name -> (k, p, split residual, splitting residual, gap certificate),
# or the name of the error either step raises
SPLIT = {
    "constant_jordan_2_1": "FullyNilpotent",
    "constant_jordan_3": "FullyNilpotent",
    "dominated_2x2": (
        1, 1, 0.0, 1.2355255708901632e-12,
        {1: 4503599627370496.0, 2: 4503599627370496.0, 3: 4503599627370496.0},
    ),
    "nilpotent_3x3_variable_rank": "FullyNilpotent",
    "nilpotent_4x4_variable_rank2": "FullyNilpotent",
    "nilpotent_plus_invertible_3x3": (
        1, 2, 0.0, 6.781200058775884e-16,
        {1: 3.092329219213245, 2: 4503599627370496.0, 3: 4503599627370496.0,
         4: 4503599627370496.0, 5: 4503599627370496.0, 6: 4503599627370496.0},
    ),
    "not_dominated_2x2": "NotDominated",
    "synthetic_jordan_seed42": "FullyNilpotent",
    "synthetic_nilpotent_seed42": "FullyNilpotent",
    "random_nilpotent_0": "FullyNilpotent",
    "random_nilpotent_1": "FullyNilpotent",
    "random_nilpotent_2": "FullyNilpotent",
    "random_nilpotent_3": "FullyNilpotent",
    "random_nilpotent_4": "FullyNilpotent",
    "random_nilpotent_5": "FullyNilpotent",
    "random_nilpotent_6": "FullyNilpotent",
    "random_nilpotent_7": "FullyNilpotent",
    "random_nilpotent_8": "FullyNilpotent",
    "random_nilpotent_9": "FullyNilpotent",
    "random_constant_rank_jordan_0": "FullyNilpotent",
    "random_constant_rank_jordan_1": "FullyNilpotent",
    "random_constant_rank_jordan_2": "FullyNilpotent",
    "random_constant_rank_jordan_3": "FullyNilpotent",
    "random_constant_rank_jordan_4": "FullyNilpotent",
}


def _inputs():
    named = {name: C for name, C in cli._fixture_set(42).items() if C.is_exact}
    named.update({f"random_nilpotent_{s}": fixtures.random_nilpotent(s) for s in range(10)})
    named.update({f"random_constant_rank_jordan_{s}": fixtures.random_constant_rank_jordan(s)[0]
                  for s in range(5)})
    return named


INPUTS = _inputs()


def _triangular(C):
    T = triangularize(C)
    return T.block_sizes, len(T.samples), T.residual


def _jordan(C):
    J = jordan_form(C)
    return J.chains, len(J.samples), J.residual, J.cond_max


def _split(C):
    S = split_infinite_part(C)
    R = dominated_splitting(S)
    return S.k, S.p, S.residual, R.residual, R.gap_certificate


def _assert_pinned(form, C, want):
    if isinstance(want, str):
        with pytest.raises(getattr(errors, want)):
            form(C)
        return
    got = form(C)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, float):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=0)
        elif isinstance(w, dict):
            assert sorted(g) == sorted(w)
            np.testing.assert_allclose([g[n] for n in sorted(w)],
                                       [w[n] for n in sorted(w)], rtol=1e-12, atol=0)
        else:
            assert g == w


def test_pins_cover_every_input():
    assert set(TRIANGULAR) == set(JORDAN) == set(SPLIT) == set(INPUTS)


@pytest.mark.parametrize("name", sorted(TRIANGULAR))
def test_triangular_form(name):
    _assert_pinned(_triangular, INPUTS[name], TRIANGULAR[name])


@pytest.mark.parametrize("name", sorted(JORDAN))
def test_jordan_form(name):
    _assert_pinned(_jordan, INPUTS[name], JORDAN[name])


@pytest.mark.parametrize("name", sorted(SPLIT))
def test_splitting(name):
    _assert_pinned(_split, INPUTS[name], SPLIT[name])
