"""Pinned Lyapunov spectra: the exponents lyapunov_spectrum reports, at its
defaults n = 1000 and M = 64, for the bundled CLI fixtures and for
random_invertible seeds 0-5 (d drawn in 2-4) and their second exterior
powers, and for the same random_invertible inputs at n = 2000 and M = 32.

A change to the sweep that only reorders floating-point work moves a finite
exponent by rounding, far below 1e-10; one that moves a number further, or
turns a slot to or from -inf, fails here.
"""

import math

import numpy as np
import pytest

from cocycles import cli, fixtures
from cocycles.cocycle import Cocycle, lyapunov_spectrum
from cocycles.matfun import exterior_power

INF = -math.inf  # a certified -inf slot

# CLI fixture name -> exponents
FIXTURES = {
    "constant_jordan_2_1": [INF, INF, INF],
    "constant_jordan_3": [INF, INF, INF],
    "dominated_2x2": [0.6238107163648714, INF],
    "nilpotent_3x3_variable_rank": [INF, INF, INF],
    "nilpotent_4x4_variable_rank2": [INF, INF, INF, INF],
    "nilpotent_plus_invertible_3x3": [1.0986122886681096, INF, INF],
    "not_dominated_2x2": [-0.6932167745796978, INF],
    "synthetic_jordan_seed42": [INF, INF],
    "synthetic_nilpotent_seed42": [INF, INF],
    "twofrequency_rank_one": [INF, INF],
}

# random_invertible(seed) and its wedge -> exponents
INVERTIBLE = {
    "random_invertible_0": [
        2.3238232407823682, 2.077887161184754, 2.0774048202714543, 2.0685836520035465,
    ],
    "random_invertible_0_wedge2": [
        4.401838563399964, 4.40135030168548, 4.392156492382154, 4.155408484035777,
        4.146702260085571, 4.1456405211374205,
    ],
    "random_invertible_1": [2.013275256861542, 1.9258454205960431, 1.6953325367822298],
    "random_invertible_1_wedge2": [3.9391206772321437, 3.708581561177765, 3.6212041900697227],
    "random_invertible_2": [
        2.311884467604639, 2.2215267756001653, 1.885085589192109, 1.86655563042543,
    ],
    "random_invertible_2_wedge2": [
        4.533411243204724, 4.196803513847416, 4.178616039840752, 4.106593287535595,
        4.088092084420875, 3.7516412196176687,
    ],
    "random_invertible_3": [
        2.195302672438148, 1.9809463897460171, 1.835319423111965, 1.7762500543282922,
    ],
    "random_invertible_3_wedge2": [
        4.176249103186948, 4.030608414999072, 3.9715663641178, 3.8162672633954813,
        3.757194965594131, 3.611569507579836,
    ],
    "random_invertible_4": [
        2.2502339904505932, 2.133776646837051, 1.9721447959801064, 1.7283312610905277,
    ],
    "random_invertible_4_wedge2": [
        4.384010622700876, 4.222378566888019, 4.10592167740563, 3.978565447743277,
        3.8621076979138764, 3.700476070423151,
    ],
    "random_invertible_5": [
        2.1797544327776923, 2.1206688985103512, 1.8818541936330115, 1.564846037585941,
    ],
    "random_invertible_5_wedge2": [
        4.300423331222272, 4.061616386152052, 4.002515332467752, 3.744590756761358,
        3.6855246499466428, 3.446700230970912,
    ],
}

# the same inputs at the criterion-5 shape, n = 2000 and M = 32, which
# the benchmark's lyapunov-exact workload runs: a range layout or block
# length that the defaults never reach shows here
INVERTIBLE_2000 = {
    "random_invertible_0": [
        2.3238232411635806, 2.0779857657881573, 2.077463003671963, 2.0684268636184213,
    ],
    "random_invertible_0_wedge2": [
        4.401801932677878, 4.4014143302778, 4.392129094435294, 4.155504995543625,
        4.1461852719707855, 4.146060997820988,
    ],
    "random_invertible_1": [
        2.013262835311744, 1.9258578421100454, 1.695332536818025,
    ],
    "random_invertible_1_wedge2": [
        3.939120677312795, 3.708582620510401, 3.621203130656434,
    ],
    "random_invertible_2": [
        2.3118864472326957, 2.221524795972085, 1.885089501529815, 1.866551718087745,
    ],
    "random_invertible_2_wedge2": [
        4.5334112432047435, 4.196895430057433, 4.178523228103115, 4.10660507420022,
        4.0880811932838945, 3.7516412196176248,
    ],
    "random_invertible_3": [
        2.195302672022712, 1.980946372018655, 1.8353131580449091, 1.7762563375381446,
    ],
    "random_invertible_3_wedge2": [
        4.1762490638650265, 4.030609215916911, 3.971565602825772, 3.8162602313549576,
        3.75720199475593, 3.6115695101546716,
    ],
    "random_invertible_4": [
        2.2502339607192443, 2.1337766704058, 1.9721448022702173, 1.7283312609630248,
    ],
    "random_invertible_4_wedge2": [
        4.384010624072764, 4.222378656846927, 4.105921586092758, 3.978565316540326,
        3.862107829833265, 3.7004760696887873,
    ],
    "random_invertible_5": [
        2.179745870726296, 2.120677460803287, 1.881854193391605, 1.5648460375858095,
    ],
    "random_invertible_5_wedge2": [
        4.300423331497775, 4.061603815728398, 4.002527902616187, 3.7445872120663757,
        3.685528194754759, 3.4467002308574943,
    ],
}


def _invertible(name):
    parts = name.split("_")
    C = fixtures.random_invertible(int(parts[2]))
    if parts[-1] == "wedge2":
        C = Cocycle(C.frequencies, exterior_power(C.matrix, 2))
    return C


def _assert_pinned(C, want, **sweep):
    got = lyapunov_spectrum(C, **sweep).exponents
    assert len(got) == len(want)
    assert [g == INF for g in got] == [w == INF for w in want]
    fin = [w != INF for w in want]
    np.testing.assert_allclose(np.array(got)[fin], np.array(want)[fin],
                               rtol=0, atol=1e-10)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_cli_fixture_spectrum(name):
    _assert_pinned(cli._fixture_set(42)[name], FIXTURES[name])


@pytest.mark.parametrize("name", sorted(INVERTIBLE))
def test_random_invertible_spectrum(name):
    _assert_pinned(_invertible(name), INVERTIBLE[name])


@pytest.mark.parametrize("name", sorted(INVERTIBLE_2000))
def test_random_invertible_spectrum_n2000_m32(name):
    _assert_pinned(_invertible(name), INVERTIBLE_2000[name], n=2000, M=32)
