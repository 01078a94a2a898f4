"""Command line front end: exit codes, report schema, determinism, sidecars."""

import csv
import functools
import json
import math
import sys
import tracemalloc
import types
import warnings
from collections import Counter

import numpy as np
import pytest

from cocycles import cli
from cocycles import cocycle as cocycle_module
from cocycles import domination
from cocycles import fixtures
from cocycles.cli import main
from cocycles.cocycle import (GOLDEN_MEAN, Cocycle, Structure, check_orbit_lattice,
                              lyapunov_spectrum)
from cocycles.errors import CocycleError
from cocycles.matfun import GridMatrixFunction, MatrixFunction
from cocycles.normalform import perturb_simple, triangularize
from cocycles.trigpoly import TrigPoly


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fx")
    assert main(["fixtures", str(d)]) == 0
    return d


def _one_by_one(coeffs):
    """A 1x1 cocycle document with the given (k, value) coefficients."""
    return {"frequencies": [GOLDEN_MEAN],
            "matrix": {"rows": 1, "cols": 1, "entries": [[{"coeffs": [
                {"k": k, "re": v, "im": 0.0} for k, v in coeffs]}]]}}


def read_report(outdir, stem, cmd):
    return json.loads((outdir / f"{stem}.{cmd}.json").read_text())


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestFixtures:
    def test_writes_at_least_seven_files_that_reparse(self, fixture_dir):
        files = sorted(fixture_dir.glob("*.json"))
        assert len(files) >= 7
        for f in files:
            C = Cocycle.from_json_dict(json.loads(f.read_text()))
            assert C.dim >= 1

    def test_seeded_runs_are_byte_identical(self, fixture_dir, tmp_path):
        again = tmp_path / "again"
        assert main(["fixtures", str(again), "--seed", "42"]) == 0
        for f in sorted(fixture_dir.glob("*.json")):
            assert (again / f.name).read_bytes() == f.read_bytes()

    def test_seed_changes_the_synthetic_files(self, tmp_path):
        assert main(["fixtures", str(tmp_path / "s7"), "--seed", "7"]) == 0
        names = {f.name for f in (tmp_path / "s7").glob("*.json")}
        assert "synthetic_nilpotent_seed7.json" in names
        assert "synthetic_jordan_seed7.json" in names

    def test_negative_seed_is_input_error(self, tmp_path, capsys):
        assert main(["fixtures", str(tmp_path / "neg"), "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--seed must be non-negative" in err
        assert not (tmp_path / "neg").exists()

    def test_bundled_names_present(self, fixture_dir):
        names = {f.stem for f in fixture_dir.glob("*.json")}
        expected = {
            "nilpotent_3x3_variable_rank",
            "nilpotent_4x4_variable_rank2",
            "twofrequency_rank_one",
            "not_dominated_2x2",
            "dominated_2x2",
            "nilpotent_plus_invertible_3x3",
            "constant_jordan_3",
            "constant_jordan_2_1",
        }
        assert expected <= names


class TestAnalyze:
    def test_variable_rank_3x3_reports_triangular_but_no_jordan(
            self, fixture_dir, tmp_path):
        src = fixture_dir / "nilpotent_3x3_variable_rank.json"
        assert main(["analyze", str(src), "--out", str(tmp_path)]) == 0
        rep = read_report(tmp_path, src.stem, "analyze")
        assert rep["nilpotency"]["nilpotent"] is True
        assert rep["nilpotency"]["degree"] == 3
        assert rep["pipeline"] == "triangularize"
        assert rep["result"]["residual"] < 1e-8
        assert rep["result"]["jordan"]["error"] == "ConstantRankViolated"
        assert rep["version"] == rep["version"]  # present
        assert len(rep["input_sha256"]) == 64

    def test_not_dominated_verdict_is_a_result(self, fixture_dir, tmp_path):
        src = fixture_dir / "not_dominated_2x2.json"
        assert main(["analyze", str(src), "--out", str(tmp_path)]) == 0
        rep = read_report(tmp_path, src.stem, "analyze")
        assert rep["pipeline"] == "dominate"
        assert rep["result"]["k"] == 1
        assert rep["result"]["dominated"] is False
        assert rep["result"]["evidence"]["det_min"] < 1e-6

    def test_dominated_splitting_in_report(self, fixture_dir, tmp_path):
        src = fixture_dir / "dominated_2x2.json"
        assert main(["analyze", str(src), "--out", str(tmp_path)]) == 0
        rep = read_report(tmp_path, src.stem, "analyze")
        assert rep["result"]["dominated"] is True
        assert rep["result"]["splitting_residual"] < 1e-10
        header, rows = read_csv(tmp_path / f"{src.stem}.analyze.gaps.csv")
        assert header == ["n", "ratio"]
        assert all(float(r[1]) > 1.0 for r in rows)

    def test_two_frequency_degrades_to_lyapunov_only(self, fixture_dir,
                                                     tmp_path):
        src = fixture_dir / "twofrequency_rank_one.json"
        assert main(["analyze", str(src), "--out", str(tmp_path),
                     "--iters", "300"]) == 0
        rep = read_report(tmp_path, src.stem, "analyze")
        assert rep["pipeline"] == "lyapunov"
        assert "unavailable" in rep["result"]["note"]
        assert rep["lyapunov"]["exponents"] == ["-inf", "-inf"]
        assert rep["lyapunov"]["divergent"] == [True, True]

    def test_constant_jordan_completes_the_pipeline(self, fixture_dir,
                                                    tmp_path):
        src = fixture_dir / "constant_jordan_3.json"
        assert main(["analyze", str(src), "--out", str(tmp_path)]) == 0
        rep = read_report(tmp_path, src.stem, "analyze")
        assert rep["pipeline"] == "jordan"
        assert rep["result"]["jordan"]["chains"] == [3]
        assert rep["result"]["jordan"]["residual"] < 1e-9

    def test_every_bundled_fixture_analyzes_cleanly(self, fixture_dir,
                                                    tmp_path):
        for src in sorted(fixture_dir.glob("*.json")):
            rc = main(["analyze", str(src), "--out", str(tmp_path),
                       "--iters", "200"])
            assert rc == 0, src.name

    @pytest.mark.parametrize("c", [1e-300, 1e300])
    def test_extreme_units_analyze_cleanly(self, tmp_path, c):
        C = Cocycle((GOLDEN_MEAN,), MatrixFunction.constant(c * np.eye(2)))
        src = tmp_path / "scaled_identity.json"
        src.write_text(json.dumps(C.to_json_dict()))
        assert main(["analyze", str(src), "--out", str(tmp_path)]) == 0
        rep = read_report(tmp_path, src.stem, "analyze")
        np.testing.assert_allclose(rep["lyapunov"]["exponents"],
                                   [math.log(c)] * 2, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("eps", [1e-9, 1e-10])
    def test_note_agrees_with_the_spectrum(self, tmp_path, eps):
        # the rank profile certifies rank 0 (every exponent -inf) while the
        # nilpotency certificate finds no iterate below its tolerance
        T = triangularize(fixtures.nilpotent_3x3_variable_rank())
        P, _ = perturb_simple(T, (4, 2, 1), eps)
        src = tmp_path / "perturbed.json"
        src.write_text(json.dumps(P.to_json_dict()))
        assert main(["analyze", str(src), "--out", str(tmp_path)]) == 0
        rep = read_report(tmp_path, src.stem, "analyze")
        finite = all(e != "-inf" for e in rep["lyapunov"]["exponents"])
        assert ("all exponents finite" in rep["result"].get("note", "")) == finite

    def test_reports_are_deterministic_modulo_timings(self, fixture_dir,
                                                      tmp_path):
        src = fixture_dir / "dominated_2x2.json"
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["analyze", str(src), "--out", str(a)]) == 0
        assert main(["analyze", str(src), "--out", str(b)]) == 0
        ra = read_report(a, src.stem, "analyze")
        rb = read_report(b, src.stem, "analyze")
        for r in (ra, rb):
            r.pop("timings")
            r["flags"].pop("out")
        assert ra == rb
        for f in sorted(a.glob("*.csv")):
            assert (b / f.name).read_bytes() == f.read_bytes()


def _same_result(got, want):
    """Equal report sections; floats equal to 1e-12, relative or absolute
    (noise-level residuals may move with the BLAS build)."""
    if isinstance(want, dict):
        assert set(got) == set(want)
        for key in want:
            _same_result(got[key], want[key])
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _same_result(g, w)
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    else:
        assert got == want


class TestStructurePass:
    """analyze builds the iterate structure once per input: one ladder of
    iterates, one rank profile and one nilpotency verdict serve every stage
    of the jordan, dominate and spectrum-only pipelines."""

    # input, pipeline and the result section analyze reports for it
    CASES = {
        "constant_jordan_3": (
            lambda: fixtures.constant_jordan((3,)), "jordan",
            {"block_sizes": [1, 1, 1], "residual": 0.0,
             "jordan": {"chains": [3], "cond_max": 1.0, "residual": 0.0}}),
        "nilpotent_plus_invertible_3x3": (
            fixtures.nilpotent_plus_invertible_3x3, "dominate",
            {"dominated": True, "k": 1, "p": 2, "split_residual": 0.0,
             "splitting_residual": 6.781200058775884e-16,
             "evidence": {"det_min": 3.0, "det_scale": 3.0,
                          "minimizer": 0.0, "strip_width": "inf"}}),
        "random_invertible_0_3": (
            lambda: fixtures.random_invertible(0, d=3), "lyapunov",
            {"note": "all exponents finite; spectrum only"}),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_one_structure_per_input(self, name, tmp_path, monkeypatch):
        make, pipeline, result = self.CASES[name]
        counts = Counter()

        def counting(label, real):
            def counted(*args, **kwargs):
                counts[label] += 1
                return real(*args, **kwargs)
            return counted

        for prop in ("profile", "nilpotency"):
            wrapped = functools.cached_property(
                counting(prop, Structure.__dict__[prop].func))
            wrapped.__set_name__(Structure, prop)
            monkeypatch.setattr(Structure, prop, wrapped)
        monkeypatch.setattr(Structure, "__init__",
                            counting("structures", Structure.__init__))
        C = make()
        real_iterates = cocycle_module.iterates

        def ladder(F, *args, **kwargs):
            # ladders of A's iterates; the power of the kernel block that
            # split_infinite_part checks is a smaller cocycle
            counts["ladders"] += F.dim == C.dim
            return real_iterates(F, *args, **kwargs)

        monkeypatch.setattr(cocycle_module, "iterates", ladder)
        src = tmp_path / f"{name}.json"
        src.write_text(json.dumps(C.to_json_dict()))
        assert main(["analyze", str(src), "--out", str(tmp_path)]) == 0
        assert counts == {"structures": 1, "ladders": 1, "profile": 1,
                          "nilpotency": 1}
        rep = read_report(tmp_path, name, "analyze")
        assert rep["pipeline"] == pipeline
        _same_result(rep["result"], result)


class TestWrappedCommands:
    def test_lyapunov_writes_exponent_csv(self, fixture_dir, tmp_path):
        src = fixture_dir / "dominated_2x2.json"
        assert main(["lyapunov", str(src), "--out", str(tmp_path),
                     "--iters", "600"]) == 0
        rep = read_report(tmp_path, src.stem, "lyapunov")
        top = rep["lyapunov"]["exponents"][0]
        # integral of ln|2+cos| over the circle
        assert abs(top - math.log((2.0 + math.sqrt(3.0)) / 2.0)) < 0.05
        assert rep["lyapunov"]["exponents"][1] == "-inf"
        assert rep["lyapunov"]["flag_reason"] == [None, "rank A_1 = 1"]
        header, rows = read_csv(tmp_path / f"{src.stem}.lyapunov.exponents.csv")
        assert header == ["j", "exponent", "stderr"]
        assert rows[1][1] == "-inf"
        assert "." in rows[0][1] and "," not in rows[0][1]

    def test_finite_exponents_match_the_reported_rank(self, fixture_dir,
                                                       tmp_path):
        # the report's rank profile and its -inf slots are one decision
        for src in sorted(fixture_dir.glob("*.json")):
            assert main(["analyze", str(src), "--out", str(tmp_path),
                         "--iters", "200"]) == 0
            rep = read_report(tmp_path, src.stem, "analyze")
            k = rep["rank_profile"]["min_rank"]
            exps = rep["lyapunov"]["exponents"]
            assert sum(e != "-inf" for e in exps) == k, src.stem
            assert exps[k:] == ["-inf"] * (len(exps) - k)

    @pytest.mark.parametrize("cmd", ["lyapunov", "analyze"])
    def test_tol_sets_the_rank_behind_the_slots(self, cmd, tmp_path):
        # the second singular value 1e-6 is rank at the default tolerance
        # and below --tol 1e-5
        C = Cocycle((GOLDEN_MEAN,), MatrixFunction.constant(np.diag([1.0, 1e-6])))
        src = tmp_path / "diag.json"
        src.write_text(json.dumps(C.to_json_dict()))
        for tol, reasons in ((None, [None, None]), ("1e-5", [None, "rank A_1 = 1"])):
            flags = [] if tol is None else ["--tol", tol]
            assert main([cmd, str(src), "--out", str(tmp_path),
                         "--iters", "100", *flags]) == 0
            rep = read_report(tmp_path, src.stem, cmd)
            assert rep["lyapunov"]["flag_reason"] == reasons

    def test_tol_reaches_the_normal_forms(self, tmp_path):
        # 1e-7 I off a nilpotent Jordan block: not nilpotent at the default
        # tolerance, nilpotent of degree 3 at --tol 1e-5, where the normal
        # forms must take the same verdict
        J = fixtures.constant_jordan((3,))
        C = Cocycle(J.frequencies,
                    J.matrix + MatrixFunction.constant(1e-7 * np.eye(3)))
        src = tmp_path / "near_jordan.json"
        src.write_text(json.dumps(C.to_json_dict()))
        for flags, nilpotent, pipeline in (([], False, "dominate"),
                                           (["--tol", "1e-5"], True, "jordan")):
            assert main(["analyze", str(src), "--out", str(tmp_path),
                         "--iters", "100", *flags]) == 0
            rep = read_report(tmp_path, src.stem, "analyze")
            assert rep["nilpotency"]["nilpotent"] is nilpotent
            assert rep["pipeline"] == pipeline
        assert rep["result"]["jordan"]["chains"] == [3]

    # the report sections of each command and the form fields in them
    FORM_FIELDS = {"analyze": ("result", ("block_sizes", "residual", "jordan")),
                   "triangularize": ("triangular", ("block_sizes", "residual")),
                   "jordan": ("jordan", ("chains", "residual", "cond_max"))}

    @pytest.mark.parametrize("name", ["synthetic_nilpotent_seed42",
                                      "nilpotent_3x3_variable_rank"])
    @pytest.mark.parametrize("cmd", sorted(FORM_FIELDS))
    def test_grid_leaves_the_forms_alone(self, fixture_dir, tmp_path, cmd, name):
        # --grid sizes the Lyapunov orbit lattice only: the forms fit on
        # grids read off the input, so a coarse lattice moves no form field
        # (the variable-rank input has no Jordan form either way)
        src = str(fixture_dir / f"{name}.json")
        expected = 4 if (cmd, name) == ("jordan", "nilpotent_3x3_variable_rank") else 0
        section, keys = self.FORM_FIELDS[cmd]
        fields = []
        for flags in ([], ["--grid", "8"]):
            out = tmp_path / (flags[-1] if flags else "default")
            assert main([cmd, src, "--out", str(out), "--iters", "100", *flags]) == expected
            if expected == 0:
                rep = read_report(out, name, cmd)
                fields.append({k: rep[section].get(k) for k in keys})
        assert fields[:1] == fields[1:]

    def test_triangularize_round_trip_file(self, fixture_dir, tmp_path):
        src = fixture_dir / "synthetic_nilpotent_seed42.json"
        assert main(["triangularize", str(src), "--out", str(tmp_path)]) == 0
        rep = read_report(tmp_path, src.stem, "triangularize")
        assert rep["triangular"]["residual"] < 1e-8
        assert "entries" in rep["triangular"]["U"]
        assert "entries" in rep["triangular"]["B"]
        header, rows = read_csv(
            tmp_path / f"{src.stem}.triangularize.residuals.csv")
        assert header == ["x", "value"]
        assert all(float(r[1]) < 1e-8 for r in rows)

    def test_jordan_on_constant_block(self, fixture_dir, tmp_path):
        src = fixture_dir / "constant_jordan_3.json"
        assert main(["jordan", str(src), "--out", str(tmp_path)]) == 0
        rep = read_report(tmp_path, src.stem, "jordan")
        assert rep["jordan"]["chains"] == [3]
        jre = np.asarray(rep["jordan"]["J"]["re"])
        assert np.allclose(jre, np.diag(np.ones(2), k=1))
        assert rep["jordan"]["cond_max"] < 1.0 + 1e-8
        header, rows = read_csv(tmp_path / f"{src.stem}.jordan.residuals.csv")
        assert all(float(r[1]) < 1e-9 for r in rows)

    @pytest.mark.parametrize("c", [1e-300, 1e-100, 1e-10, 1e10, 1e100, 1e300])
    def test_jordan_in_extreme_units(self, tmp_path, c):
        a = np.array([[0.0, 0.0], [1j * c, 0.0]])
        C = Cocycle((GOLDEN_MEAN,), MatrixFunction.constant(a))
        src = tmp_path / "scaled_shift.json"
        src.write_text(json.dumps(C.to_json_dict()))
        assert main(["jordan", str(src), "--out", str(tmp_path)]) == 0
        rep = read_report(tmp_path, src.stem, "jordan")
        assert rep["jordan"]["chains"] == [2]
        assert rep["jordan"]["residual"] < 1e-9
        assert math.isclose(rep["jordan"]["cond_max"], max(c, 1 / c), rel_tol=1e-9)
        # M is constant here, so A M = M J is the conjugation in the units of A
        m = MatrixFunction.from_json_dict(rep["jordan"]["M"]).eval_mat(0.0)
        jmat = np.asarray(rep["jordan"]["J"]["re"])
        np.testing.assert_allclose(a @ m, m @ jmat, rtol=0, atol=1e-12)

    def test_jordan_condition_past_the_float_range_is_inf(self, tmp_path, capsys):
        # random_constant_rank_jordan(0) in units of 2^30: a chain matrix
        # whose least singular value underflows to zero at a sample
        C = fixtures.random_constant_rank_jordan(0)[0]
        src = tmp_path / "big.json"
        src.write_text(json.dumps(
            Cocycle(C.frequencies, C.matrix * 2.0 ** 30).to_json_dict()))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["jordan", str(src), "--out", str(tmp_path)]) == 0
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""
        assert read_report(tmp_path, "big", "jordan")["jordan"]["cond_max"] == "inf"

    @pytest.mark.parametrize("cmd, section, build", [
        ("triangularize", "triangular",
         lambda: fixtures.random_nilpotent(1469265225, d=4)),
        ("jordan", "jordan",
         lambda: fixtures.random_constant_rank_jordan(1790251936)[0]),
    ])
    def test_residual_csv_peaks_at_the_reported_residual(self, tmp_path, cmd,
                                                         section, build):
        src = tmp_path / "c.json"
        src.write_text(json.dumps(build().to_json_dict()))
        assert main([cmd, str(src), "--out", str(tmp_path)]) == 0
        rep = read_report(tmp_path, "c", cmd)
        _, rows = read_csv(tmp_path / f"c.{cmd}.residuals.csv")
        assert max(float(r[1]) for r in rows) == rep[section]["residual"]
        assert [float(r[0]) for r in rows] == [j / len(rows) for j in range(len(rows))]

    def test_jordan_variable_rank_is_numerical_failure(self, fixture_dir,
                                                       tmp_path, capsys):
        src = fixture_dir / "nilpotent_3x3_variable_rank.json"
        assert main(["jordan", str(src), "--out", str(tmp_path)]) == 4
        assert "ConstantRankViolated" in capsys.readouterr().err

    def test_translated_variable_rank_is_a_verdict_not_a_traceback(self, tmp_path,
                                                                   capsys):
        # shifted by 1/512, the fixture's rank drops fall between the rank
        # samples, and its chain matrix is singular at a verification sample
        C = fixtures.nilpotent_3x3_variable_rank()
        src = tmp_path / "shifted.json"
        src.write_text(json.dumps(
            Cocycle(C.frequencies, C.matrix.translate(1 / 512)).to_json_dict()))
        assert main(["jordan", str(src), "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "ConstantRankViolated" in err
        assert main(["analyze", str(src), "--out", str(tmp_path)]) == 0
        rep = read_report(tmp_path, src.stem, "analyze")
        assert rep["pipeline"] == "triangularize"
        assert rep["result"]["jordan"]["error"] == "ConstantRankViolated"

    @pytest.mark.parametrize("s", [0, 1, 2])
    def test_quartic_kernel_zero_gets_no_unchecked_triangular_form(self, s, tmp_path,
                                                                   capsys):
        # [[0, f, sin], [0, 0, f], [0, 0, 0]] with f = (1 - cos 2 pi x)^2,
        # conjugated by a degree-1 unitary: the kernel flag meets a 4th-order
        # zero of f, where no grid fits the frames to the default tail, so no
        # triangular form may be reported (a looser tail gave residuals near
        # 1e-6 with exit 0)
        f = (1.0 - TrigPoly.cosine()) * (1.0 - TrigPoly.cosine())
        z = TrigPoly.zero()
        A = MatrixFunction([[z, f, TrigPoly.sine()], [z, z, f], [z, z, z]])
        W = fixtures.random_unitary_function(np.random.default_rng(900 + s), 3, 1)
        C = Cocycle((GOLDEN_MEAN,), W.translate(GOLDEN_MEAN) @ A @ W.adjoint())
        with pytest.raises(CocycleError):
            triangularize(C)
        src = tmp_path / "quartic.json"
        src.write_text(json.dumps(C.to_json_dict()))
        assert main(["triangularize", str(src), "--out", str(tmp_path)]) == 4
        assert capsys.readouterr().err.count("\n") == 1

    def test_translated_rank2_fixture_gets_no_unchecked_jordan_form(self, tmp_path,
                                                                      capsys):
        # shifted by 1/512, the chains of the 4x4 fixture stay invertible at
        # every verification sample but conjugate A to J only up to 1.0
        C = fixtures.nilpotent_4x4_variable_rank2()
        src = tmp_path / "shifted.json"
        src.write_text(json.dumps(
            Cocycle(C.frequencies, C.matrix.translate(1 / 512)).to_json_dict()))
        assert main(["jordan", str(src), "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "ConstantRankViolated" in err
        assert main(["analyze", str(src), "--out", str(tmp_path)]) == 0
        rep = read_report(tmp_path, src.stem, "analyze")
        assert rep["pipeline"] == "triangularize"
        assert rep["result"]["jordan"]["error"] == "ConstantRankViolated"

    def test_dominate_not_dominated_exits_zero(self, fixture_dir, tmp_path):
        src = fixture_dir / "not_dominated_2x2.json"
        assert main(["dominate", str(src), "--out", str(tmp_path)]) == 0
        rep = read_report(tmp_path, src.stem, "dominate")
        assert rep["dominate"]["dominated"] is False
        assert "M" not in rep["dominate"]
        assert not (tmp_path / f"{src.stem}.dominate.gaps.csv").exists()

    def test_dominate_emits_conjugation_and_gaps(self, fixture_dir, tmp_path):
        src = fixture_dir / "nilpotent_plus_invertible_3x3.json"
        assert main(["dominate", str(src), "--out", str(tmp_path)]) == 0
        rep = read_report(tmp_path, src.stem, "dominate")
        sec = rep["dominate"]
        assert sec["dominated"] is True and sec["k"] == 1 and sec["p"] == 2
        assert sec["splitting_residual"] < 1e-8
        assert "M" in sec and "C" in sec
        header, rows = read_csv(tmp_path / f"{src.stem}.dominate.gaps.csv")
        assert [int(r[0]) for r in rows] == list(range(1, 7))

    @pytest.mark.parametrize("name", ["dominated_2x2", "not_dominated_2x2"])
    def test_dominate_decides_domination_once(self, fixture_dir, tmp_path,
                                              monkeypatch, name):
        # dominated_splitting decides and hands the evidence on, in its
        # result or in NotDominated; the command asks nothing else
        calls = []
        real = domination.is_dominated

        def counted(S):
            calls.append(S)
            return real(S)

        monkeypatch.setattr(domination, "is_dominated", counted)
        monkeypatch.setattr(cli, "is_dominated", counted, raising=False)
        src = fixture_dir / f"{name}.json"
        assert main(["dominate", str(src), "--out", str(tmp_path)]) == 0
        assert len(calls) == 1
        sec = read_report(tmp_path, name, "dominate")["dominate"]
        assert sec["dominated"] is (name == "dominated_2x2")
        assert sec["evidence"] == cli._jsonable(real(calls[0])["evidence"])

    def test_dominate_on_nilpotent_is_numerical_failure(self, fixture_dir,
                                                        tmp_path, capsys):
        src = fixture_dir / "constant_jordan_3.json"
        assert main(["dominate", str(src), "--out", str(tmp_path)]) == 4
        assert "FullyNilpotent" in capsys.readouterr().err


class TestExitCodes:
    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["analyze", str(bad)]) == 2

    def test_wrong_schema_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"frequencies": [0.5]}))
        assert main(["analyze", str(bad)]) == 2

    def test_two_frequency_normal_form_is_unsupported(self, fixture_dir,
                                                      tmp_path, capsys):
        src = fixture_dir / "twofrequency_rank_one.json"
        assert main(["triangularize", str(src), "--out", str(tmp_path)]) == 3
        assert "unsupported base" in capsys.readouterr().err

    def test_bad_flag_values(self, fixture_dir):
        src = str(fixture_dir / "dominated_2x2.json")
        assert main(["analyze", src, "--grid", "4"]) == 2
        assert main(["analyze", src, "--tol", "2.0"]) == 2
        assert main(["analyze", src, "--threads", "0"]) == 2

    @pytest.mark.parametrize("cmd", ["analyze", "lyapunov"])
    @pytest.mark.parametrize("iters", ["0", "1"])
    def test_too_few_iterates_is_input_error(self, fixture_dir, tmp_path,
                                             capsys, cmd, iters):
        src = str(fixture_dir / "dominated_2x2.json")
        assert main([cmd, src, "--out", str(tmp_path), "--iters", iters]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--iters must be at least 2" in err

    @pytest.mark.parametrize("cmd", ["analyze", "lyapunov"])
    @pytest.mark.parametrize("case", ["frequency", "coefficient", "sample"])
    def test_non_finite_input_is_input_error(self, fixture_dir, tmp_path,
                                             capsys, cmd, case):
        if case == "sample":
            doc = json.loads(
                (fixture_dir / "twofrequency_rank_one.json").read_text())
            doc["matrix"]["samples_re"][3] = float("inf")
            want = "samples must be finite"
        else:
            doc = json.loads((fixture_dir / "dominated_2x2.json").read_text())
            if case == "frequency":
                doc["frequencies"] = [float("inf")]
                want = "frequencies must be finite"
            else:
                doc["matrix"]["entries"][0][1]["coeffs"][0]["re"] = float("nan")
                want = "coefficients must be finite"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main([cmd, str(bad), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and want in err

    @pytest.mark.parametrize("how", ["file", "flag"])
    @pytest.mark.parametrize("alpha, name", [
        (0.0, "0/1"), (0.5, "1/2"), (0.5 + 5e-13, "1/2"), (3 / 7, "3/7")])
    def test_rational_rotation_is_input_error(self, fixture_dir, tmp_path,
                                              capsys, alpha, name, how):
        src = fixture_dir / "dominated_2x2.json"
        argv = ["analyze", str(src), "--out", str(tmp_path)]
        if how == "file":
            doc = json.loads(src.read_text())
            doc["frequencies"] = [alpha]
            argv[1] = str(tmp_path / "rational.json")
            (tmp_path / "rational.json").write_text(json.dumps(doc))
        else:
            argv += ["--alpha", repr(alpha)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f" of {name};" in err

    @pytest.mark.parametrize("cmd", ["analyze", "lyapunov"])
    @pytest.mark.parametrize("freqs, q", [
        # (phi - 1) + (2 - phi) = 1, exactly and 5e-13 off
        ([(5 ** 0.5 - 1) / 2, (3 - 5 ** 0.5) / 2], (1, 1)),
        ([(5 ** 0.5 - 1) / 2, (3 - 5 ** 0.5) / 2 + 5e-13], (1, 1)),
        # no frequency is near p/q, but 2 a_1 - 3 a_2 + a_3 is an integer
        ([GOLDEN_MEAN, fixtures.SILVER_MEAN, (3 * fixtures.SILVER_MEAN - 2 * GOLDEN_MEAN) % 1],
         (2, -3, 1)),
        ([GOLDEN_MEAN, 0.1234567, (0.1234567 + 5 * GOLDEN_MEAN) % 1], (5, 1, -1))])
    def test_resonant_rotation_is_input_error(self, tmp_path, capsys, cmd, freqs, q):
        grid = (2,) * len(freqs) + (1, 1)
        doc = {"frequencies": freqs,
               "matrix": {"rows": 1, "cols": 1, "grid_shape": list(grid[:-2]),
                          "samples_re": [2.0] * math.prod(grid), "samples_im": [0.0] * math.prod(grid)}}
        src = tmp_path / "resonant.json"
        src.write_text(json.dumps(doc))
        assert main([cmd, str(src), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"q = {q} puts" in err

    def test_golden_silver_pair_is_far_from_resonance(self):
        # every two-frequency fixture and workload rotates by this pair
        span = np.arange(-cli._RATIONAL_Q_MAX, cli._RATIONAL_Q_MAX + 1)
        q = np.stack(np.meshgrid(span, span), axis=-1).reshape(-1, 2)
        x = q[q.any(axis=1)] @ np.array([GOLDEN_MEAN, fixtures.SILVER_MEAN])
        assert np.abs(x - np.round(x)).min() >= 1.0e-5
        assert cli._resonance((GOLDEN_MEAN, fixtures.SILVER_MEAN)) is None

    @pytest.mark.parametrize("freqs, q", [
        # the multiples k (0, 5, -1) crowd the sorted neighbours of u = 0,
        # so the search meets (0, 50, -10) and not (0, 5, -1) itself
        ((0.1234567, 0.77777, 5 * 0.77777 % 1), (0, 5, -1)),
        (((5 ** 0.5 - 1) / 2, (3 - 5 ** 0.5) / 2), (1, 1))])
    def test_resonance_names_the_shortest_relation(self, freqs, q):
        assert cli._resonance(freqs) == q

    @pytest.mark.parametrize("cmd", ["analyze", "lyapunov"])
    @pytest.mark.parametrize("k", [1.5, True, "1", 10**15, -10**15])
    def test_bad_coefficient_index_is_input_error(self, tmp_path, capsys, cmd, k):
        # 10**15 is a span numpy refuses to allocate at once
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_one_by_one([(0, 1.0), (k, 1.0)])))
        assert main([cmd, str(bad), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "coefficient index" in err

    @pytest.mark.parametrize("cmd", ["analyze", "lyapunov"])
    def test_overflowing_coefficient_bound_is_input_error(self, tmp_path, capsys,
                                                          cmd):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_one_by_one([(0, 1e308), (1, 1e308)])))
        assert main([cmd, str(bad), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "is not finite" in err

    @pytest.mark.parametrize("cmd", ["analyze", "lyapunov"])
    def test_subnormal_generator_is_analysed(self, tmp_path, cmd):
        src = tmp_path / "tiny.json"
        src.write_text(json.dumps(_one_by_one([(0, 1e-310)])))
        assert main([cmd, str(src), "--out", str(tmp_path)]) == 0
        rep = read_report(tmp_path, src.stem, cmd)
        np.testing.assert_allclose(rep["lyapunov"]["exponents"],
                                   [math.log(1e-310)], rtol=0, atol=1e-9)

    def test_parser_is_built_once(self, fixture_dir, capsys):
        cli._build_parser.cache_clear()
        src = str(fixture_dir / "dominated_2x2.json")
        for _ in range(2):
            assert main(["--version"]) == 0
            assert main(["analyze", src, "--bogus"]) == 2
        assert cli._build_parser.cache_info().misses == 1
        capsys.readouterr()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "cocycles" in capsys.readouterr().out



def _never(*args, **kwargs):
    raise AssertionError("reached past the refusal")


class TestOversizedInputs:
    """A small input whose analysis would exhaust memory exits 2 with one
    stderr line before anything large is built: more frequencies than the
    resonance search handles (its vectors alone take 8.9 GB at seven), and
    an orbit lattice one Lyapunov step of which passes the sweep's bound
    (the frame alone takes 1 GiB for a 2 x 2 cocycle on 64^4 orbits)."""

    FREQUENCIES = [math.sqrt(p) % 1 for p in (2, 3, 5, 7, 11, 13, 17)]

    def document(self, l, d):
        """2 I sampled on 2^l points over l frequencies."""
        eye = np.broadcast_to(2.0 * np.eye(d), (2,) * l + (d, d))
        return {"frequencies": self.FREQUENCIES[:l],
                "matrix": {"rows": d, "cols": d, "grid_shape": [2] * l,
                           "samples_re": eye.reshape(-1).tolist(),
                           "samples_im": [0.0] * eye.size}}

    def write(self, tmp_path, l, d):
        src = tmp_path / f"grid_{l}.json"
        src.write_text(json.dumps(self.document(l, d)))
        return src

    @staticmethod
    def refuse(argv, tmp_path, capsys):
        tracemalloc.start()
        try:
            rc = main([*argv, "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert rc == 2 and err.count("\n") == 1, err
        assert peak < 8 * 2 ** 20
        return err

    @pytest.mark.parametrize("cmd", ["analyze", "lyapunov", "triangularize", "jordan",
                                     "dominate"])
    def test_seven_frequencies_are_refused(self, cmd, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_resonance", _never)
        err = self.refuse([cmd, str(self.write(tmp_path, 7, 1))], tmp_path, capsys)
        assert "7 frequencies; at most 5 are supported" in err

    @pytest.mark.parametrize("cmd", ["analyze", "lyapunov"])
    def test_four_frequency_lattice_is_refused(self, cmd, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "Structure", _never)  # no stage may start
        err = self.refuse([cmd, str(self.write(tmp_path, 4, 2))], tmp_path, capsys)
        assert "--grid 64: a Lyapunov step on the 64^4 orbit lattice" in err
        assert "1073741824 bytes, above the sweep's 1048576" in err
        assert "at most 11 orbits per frequency fit" in err

    def test_largest_lattice_that_fits_runs(self, tmp_path, capsys):
        src = str(self.write(tmp_path, 4, 2))
        assert main(["lyapunov", src, "--out", str(tmp_path), "--grid", "11",
                     "--iters", "10"]) == 0
        capsys.readouterr()
        err = self.refuse(["lyapunov", src, "--grid", "12"], tmp_path, capsys)
        assert "at most 11 orbits per frequency fit" in err

    def test_spectrum_refuses_the_lattice(self, monkeypatch):
        C = Cocycle.from_json_dict(self.document(4, 2))
        monkeypatch.setattr(cocycle_module, "_start_frame", _never)  # the frame is 1 GiB
        with pytest.raises(ValueError, match="at most 11 orbits per frequency fit"):
            lyapunov_spectrum(C, n=100, M=64)

    @pytest.mark.parametrize("d, fits", [(3, True), (4, True), (5, False)])
    def test_full_band_grid_at_64_orbits(self, d, fits):
        # the analyze-grid workload sweeps d = 2 and 3 at 32 x 32 orbits
        rng = np.random.default_rng(d)
        C = Cocycle((GOLDEN_MEAN, fixtures.SILVER_MEAN),
                    GridMatrixFunction(rng.standard_normal((64, 64, d, d)) + 0j))
        if fits:
            check_orbit_lattice(C, 64)
        else:
            with pytest.raises(ValueError, match="at most 51 orbits"):
                check_orbit_lattice(C, 64)


class TestFlags:
    def test_alpha_override_recorded_and_applied(self, fixture_dir, tmp_path):
        src = fixture_dir / "dominated_2x2.json"
        assert main(["lyapunov", str(src), "--out", str(tmp_path),
                     "--alpha", "0.41421356237309515", "--iters", "400"]) == 0
        rep = read_report(tmp_path, src.stem, "lyapunov")
        assert rep["flags"]["alpha"] == 0.41421356237309515
        # the finite exponent is frequency independent for this fixture
        top = rep["lyapunov"]["exponents"][0]
        assert abs(top - math.log((2.0 + math.sqrt(3.0)) / 2.0)) < 0.05

    def test_alpha_override_rejected_for_two_frequencies(self, fixture_dir,
                                                         tmp_path):
        src = fixture_dir / "twofrequency_rank_one.json"
        assert main(["lyapunov", str(src), "--out", str(tmp_path),
                     "--alpha", "0.3"]) == 2

    def test_out_directory_is_created(self, fixture_dir, tmp_path):
        src = fixture_dir / "dominated_2x2.json"
        dest = tmp_path / "deep" / "nested"
        assert main(["dominate", str(src), "--out", str(dest)]) == 0
        assert (dest / f"{src.stem}.dominate.json").exists()

    def test_threads_only_recorded_without_threadpoolctl(self, fixture_dir,
                                                          tmp_path,
                                                          monkeypatch):
        # a None entry makes the import fail as it does where the package
        # is not installed
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)
        src = fixture_dir / "dominated_2x2.json"
        assert main(["lyapunov", str(src), "--out", str(tmp_path),
                     "--iters", "50", "--threads", "2"]) == 0
        flags = read_report(tmp_path, src.stem, "lyapunov")["flags"]
        assert flags["threads"] == 2 and flags["threads_applied"] is False

    def test_threads_applied_through_threadpoolctl(self, fixture_dir,
                                                   tmp_path, monkeypatch):
        calls = []
        fake = types.SimpleNamespace(
            threadpool_limits=lambda limits: calls.append(limits))
        monkeypatch.setitem(sys.modules, "threadpoolctl", fake)
        src = fixture_dir / "dominated_2x2.json"
        assert main(["lyapunov", str(src), "--out", str(tmp_path),
                     "--iters", "50", "--threads", "2"]) == 0
        flags = read_report(tmp_path, src.stem, "lyapunov")["flags"]
        assert calls == [2] and flags["threads_applied"] is True
