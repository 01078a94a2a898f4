"""Command line front end: exit codes, report schema, determinism, sidecars."""

import csv
import json
import math
import sys
import types

import numpy as np
import pytest

from cocycles import fixtures
from cocycles.cli import main
from cocycles.cocycle import GOLDEN_MEAN, Cocycle
from cocycles.matfun import MatrixFunction


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fx")
    assert main(["fixtures", str(d)]) == 0
    return d


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

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "cocycles" in capsys.readouterr().out


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
