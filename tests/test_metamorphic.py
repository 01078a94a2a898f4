"""Metamorphic properties on the exact bundled fixtures.

A constant unitary conjugation V A V*, the reflection (alpha, A(x)) to
(-alpha, A(-x)) and a scaling A to cA describe the same dynamics: the rank
profile, the nilpotency degree and the domination verdict stay identical,
and every finite exponent, estimated or in closed form, stays put or moves
by ln|c|.  An analytic unitary conjugation W(x + alpha) A(x) W(x)* and a
translation of the base x -> x + c do too, so `cocycles analyze` must end
the same way and report the same verdicts.
"""

import functools
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocycles import cli, fixtures
from cocycles.cocycle import Cocycle, Structure, exact_L1_rank_one, lyapunov_spectrum
from cocycles.domination import dominated_splitting, is_dominated, split_infinite_part
from cocycles.matfun import MatrixFunction
from cocycles.normalform import triangularize

FIXTURES = {name: C for name, C in cli._fixture_set(42).items() if C.is_exact}
EXACT = sorted(FIXTURES)
SCALES = [1e-200, 1e-30, 1e3, 1e200]


def _invariants(C):
    """Ranks, nilpotency degree, domination verdict (None unless 0 < k < d),
    Lyapunov exponents and the closed-form L1 (None unless rank one)."""
    s = Structure(C)
    k = s.profile.min_rank
    verdict = None
    if 0 < k < C.dim:
        verdict = is_dominated(split_infinite_part(s))["dominated"]
    rep = lyapunov_spectrum(s, n=1000, M=64)
    L1 = exact_L1_rank_one(C) if s.profile.ranks[0] == 1 else None
    return s.profile.ranks, s.nilpotency.degree, verdict, rep.exponents, L1


@functools.cache
def _reference(name):
    return _invariants(FIXTURES[name])


def _check(name, C, shift=0.0):
    ranks, degree, verdict, exponents, L1 = _reference(name)
    got = _invariants(C)
    assert got[:3] == (ranks, degree, verdict)
    for want, e in zip(exponents, got[3]):
        if math.isinf(want):
            assert e == want
        else:
            assert abs(e - want - shift) < 1e-3
    if L1 is None or math.isinf(L1):
        assert got[4] == L1
    else:
        assert abs(got[4] - L1 - shift) < 1e-10


@pytest.mark.parametrize("name", EXACT)
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_unitary_conjugation(name, seed):
    C = FIXTURES[name]
    V = fixtures.random_unitary_matrix(np.random.default_rng(seed), C.dim)
    A = MatrixFunction.constant(V) @ C.matrix @ MatrixFunction.constant(V.conj().T)
    _check(name, Cocycle(C.frequencies, A))


def _analyze_verdict(C):
    """Exit code of `cocycles analyze` on C and the report fields the CI
    verdict step reads (None when no report was written)."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "input.json"
        src.write_text(json.dumps(C.to_json_dict()))
        rc = cli.main(["analyze", str(src), "--out", tmp])
        out = Path(tmp) / "input.analyze.json"
        if not out.exists():
            return rc, None
        rep = json.loads(out.read_text())
    res = rep["result"]
    return rc, (rep["nilpotency"]["nilpotent"], rep["nilpotency"]["degree"],
                rep["rank_profile"]["ranks"], rep["pipeline"], res.get("block_sizes"),
                res.get("jordan", {}).get("chains"), res.get("k"), res.get("dominated"))


@functools.cache
def _reference_verdict(name):
    return _analyze_verdict(FIXTURES[name])


@pytest.mark.parametrize("name", EXACT)
@pytest.mark.parametrize("s", [0, 1, 2])
def test_analytic_conjugation(name, s):
    C = FIXTURES[name]
    W = fixtures.random_unitary_function(np.random.default_rng(900 + s), C.dim, 1)
    A = W.translate(C.alpha) @ C.matrix @ W.adjoint()
    assert _analyze_verdict(Cocycle(C.frequencies, A)) == _reference_verdict(name)


# constant rank is still decided on rank samples: shifted off them, the two
# points where these fixtures' ranks drop fall between samples, and the
# chains they get conjugate A to a Jordan form that cannot exist
_UNSAMPLED_RANK_DROP = pytest.mark.xfail(
    strict=True, reason="constant rank is decided on samples, so a rank drop "
                        "between them yields a Jordan form")
_TRANSLATION_XFAILS = {(name, c) for name in ("nilpotent_3x3_variable_rank",
                                              "nilpotent_4x4_variable_rank2")
                       for c in (0.1234567, 0.3)}


@pytest.mark.parametrize("name, c", [
    pytest.param(name, c, marks=_UNSAMPLED_RANK_DROP if (name, c) in _TRANSLATION_XFAILS else ())
    for name in EXACT for c in (1 / 512, 0.1234567, 0.3)])
def test_translation(name, c):
    C = FIXTURES[name]
    A = C.matrix.translate(c)
    assert _analyze_verdict(Cocycle(C.frequencies, A)) == _reference_verdict(name)


@pytest.mark.parametrize("name", EXACT)
def test_reflection(name):
    C = FIXTURES[name]
    F = C.matrix
    A = MatrixFunction.from_coeffs(-(F.kmin + len(F.c) - 1), F.c[::-1])
    _check(name, Cocycle((-C.alpha,), A))


@pytest.mark.parametrize("name", EXACT)
@pytest.mark.parametrize("c", SCALES)
def test_scaling(name, c):
    C = FIXTURES[name]
    _check(name, Cocycle(C.frequencies, C.matrix * c), math.log(c))


def _form_residuals(c):
    """The triangular residual of random_nilpotent(0) and the splitting
    residual of dominated_2x2, both scaled by c."""
    N, D = fixtures.random_nilpotent(0), fixtures.dominated_2x2()
    T = triangularize(Cocycle(N.frequencies, N.matrix * c))
    S = dominated_splitting(split_infinite_part(Cocycle(D.frequencies, D.matrix * c)))
    return T.residual, S.residual


# a power-of-two scaling leaves Structure.unit, which both forms are built
# from, bit-identical, so a unit-scale residual could not move; the
# triangular residual reads B's samples in the units of A and the splitting
# residual multiplies by 2^e, so at c = 2^30 they read 7.5e-5 and 1.3e-3
# (7.0e-14 and 1.2e-12 at c = 1), which a 1e-8 gate calls wrong forms
@pytest.mark.xfail(strict=True, reason="the triangular and splitting residuals "
                                       "are read in the units of A")
def test_residuals_do_not_depend_on_units():
    assert _form_residuals(2.0 ** 30) == pytest.approx(_form_residuals(1.0), rel=1e-6)
