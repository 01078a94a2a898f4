"""Property: every document and flag set given to analyze and lyapunov ends
in a documented exit code (0, 2, 3, 4 or 5) with at most one stderr line,
one exactly when the code is not 0, and never with a traceback.

Documents stay small (at most 3x3, |k| <= 4 on the numerical path, grids of
at most 8x8) and run few iterates, so a run costs milliseconds.  Invalid
values are drawn next to valid ones: wrong types, NaN and inf, subnormal
and near-overflow magnitudes, huge or non-integer indices, near-rational
frequencies and malformed shapes.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocycles.cli import main

EXIT_CODES = {0, 2, 3, 4, 5}

# one size per document, so a valid document stays valid at either end of
# the float range; 1.7e308 overflows the coefficient bound of most inputs
_SIZE = st.sampled_from([1.0, 1.0, 1.0, 5e-324, 1e-310, 1e-200, 1e200, 1e300, 1.7e308])
_UNIT = st.floats(-4, 4)
_NOT_A_NUMBER = st.sampled_from([float("nan"), float("inf"), float("-inf"), "1",
                                 None, [], True])
_BAD_INDEX = st.sampled_from([1.5, True, "1", None, 4097, 10**15, -10**15])
_FREQUENCY = st.one_of(
    st.floats(0.01, 0.99),
    # within 1e-11 of p/q: refused up to 1e-12, analysed beyond
    st.builds(lambda p, q, eps: p / q + eps, st.integers(0, 9), st.integers(1, 70),
              st.sampled_from([0.0, 1e-13, -1e-13, 1e-11])),
)
_JUNK = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _exact_matrix(draw, size):
    d = draw(st.integers(1, 3))
    coeff = st.builds(lambda k, re, im: {"k": k, "re": size * re, "im": size * im},
                      st.integers(-4, 4), _UNIT, _UNIT)
    entries = [[{"coeffs": draw(st.lists(coeff, max_size=3))} for _ in range(d)]
               for _ in range(d)]
    return {"rows": d, "cols": d, "entries": entries}


@st.composite
def _grid_matrix(draw, size):
    base = draw(st.integers(1, 2))
    m = draw(st.sampled_from([2, 4, 8]))
    d = draw(st.integers(1, 3))
    shape = [m] * base + [d, d]
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    with np.errstate(over="ignore"):  # inf samples near the top are refused
        re, im = (size * rng.standard_normal(shape).reshape(-1) for _ in range(2))
    return {"rows": d, "cols": d, "grid_shape": shape[:-2],
            "samples_re": re.tolist(), "samples_im": im.tolist()}


@st.composite
def _defect(draw, doc):
    """doc with one defect: a value that is no finite number, a bad
    coefficient index, a wrong shape or a missing key."""
    mat = doc["matrix"]
    kind = draw(st.sampled_from(["value", "index", "shape", "missing", "frequency"]))
    if kind == "frequency":
        doc["frequencies"][0] = draw(st.one_of(_NOT_A_NUMBER, st.floats(-1e300, 1e300)))
    elif kind == "missing":
        del doc[draw(st.sampled_from(["frequencies", "matrix"]))]
    elif kind == "shape":
        key = draw(st.sampled_from(["rows", "cols"]))
        mat[key] = draw(st.sampled_from([mat[key] + 1, 0, -1, "2", None]))
    elif "entries" not in mat:
        key = draw(st.sampled_from(["samples_re", "samples_im"]))
        if kind == "value":
            mat[key][draw(st.integers(0, len(mat[key]) - 1))] = draw(_NOT_A_NUMBER)
        else:
            mat[key] = mat[key][:-1]
    else:
        entry = mat["entries"][0][draw(st.integers(0, mat["cols"] - 1))]
        bad = {"k": 0, "re": 1.0, "im": 0.0}
        if kind == "value":
            bad[draw(st.sampled_from(["re", "im"]))] = draw(_NOT_A_NUMBER)
        else:
            bad["k"] = draw(_BAD_INDEX)
        entry["coeffs"].append(bad)
    return doc


@st.composite
def _document(draw):
    kind = draw(st.sampled_from(["exact", "exact", "exact", "grid", "grid", "junk"]))
    if kind == "junk":
        return draw(_JUNK)
    size = draw(_SIZE)
    if kind == "exact":
        doc = {"frequencies": [draw(_FREQUENCY)], "matrix": draw(_exact_matrix(size))}
    else:
        doc = {"matrix": draw(_grid_matrix(size))}
        doc["frequencies"] = [draw(_FREQUENCY) for _ in doc["matrix"]["grid_shape"]]
    if draw(st.integers(0, 3)) == 0:
        doc = draw(_defect(doc))
    return doc


_FLAGS = st.fixed_dictionaries(
    {"--iters": st.sampled_from(["2", "3", "17", "40"])},
    optional={
        "--grid": st.sampled_from(["8", "16"]),
        "--tol": st.sampled_from(["1e-9", "1e-5", "0.5"]),
        "--alpha": st.sampled_from(["0.6180339887498949", "-0.3", "0.5000000000001"]),
    },
)
_BAD_FLAG = st.sampled_from([
    ("--iters", "0"), ("--iters", "-5"), ("--iters", "1e3"), ("--grid", "4"),
    ("--grid", "x"), ("--tol", "0"), ("--tol", "nan"), ("--alpha", "inf"),
    ("--alpha", "0.5"), ("--threads", "0"), ("--threads", "2"), ("--bogus", "1"),
    ("--seed", "-1"),
])


@st.composite
def _flags(draw):
    flags = draw(_FLAGS)
    if draw(st.integers(0, 3)) == 0:
        flag, value = draw(_BAD_FLAG)
        flags[flag] = value
    return flags


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cmd=st.sampled_from(["analyze", "lyapunov"]), doc=_document(), flags=_flags())
def test_every_input_ends_in_a_documented_exit_code(workdir, cmd, doc, flags):
    src = workdir / "input.json"
    src.write_text(json.dumps(doc))
    argv = [cmd, str(src), "--out", str(workdir)]
    for flag, value in flags.items():
        argv += [flag, value]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in EXIT_CODES
    assert err.getvalue().count("\n") == (rc != 0), err.getvalue()
