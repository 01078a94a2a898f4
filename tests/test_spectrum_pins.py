"""Pinned Lyapunov spectra: the exponents lyapunov_spectrum reports, at its
defaults n = 1000 and M = 64, for the bundled CLI fixtures and for
random_invertible seeds 0-5 (d drawn in 2-4) and their second exterior
powers.

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
    "not_dominated_2x2": [-0.693212522059169, INF],
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


def _invertible(name):
    parts = name.split("_")
    C = fixtures.random_invertible(int(parts[2]))
    if parts[-1] == "wedge2":
        C = Cocycle(C.frequencies, exterior_power(C.matrix, 2))
    return C


def _assert_pinned(C, want):
    got = lyapunov_spectrum(C).exponents
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
