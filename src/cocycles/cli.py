"""Batch front end: load cocycle files, run analyses, write reports.

Reports are JSON carrying the tool version, the resolved flag set and a
sha256 digest of the input, so every number in them traces back to one exact
invocation.  Plot-ready data (per-sample residuals, gap certificates,
exponents) goes to CSV sidecars next to the report; '.' decimal point, no
locale.  Exit codes: 0 success (a not-dominated verdict is a result, not an
error), 2 bad input, 3 unsupported base dynamics, 4 numerical failure with a
diagnostic on stderr, 5 output I/O failure.

Wall-clock timings are the one report field exempt from bit-for-bit
reproducibility; everything else is deterministic at --threads 1.
"""

import argparse
import csv
import functools
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, fixtures
from .cocycle import (Cocycle, Structure, check_orbit_lattice, detect_nilpotency,
                      lyapunov_spectrum, rank_profile)
from .domination import dominated_splitting, split_infinite_part
from .errors import CocycleError, NotDominated, UnsupportedBase
from .normalform import jordan_form, triangularize


class _InputError(Exception):
    """Unreadable, unparseable or invalid input; exit code 2."""


class _OutputError(Exception):
    """Could not write an artifact; exit code 5."""


def _jsonable(obj):
    """Recursively convert to plain JSON types; non-finite floats to strings."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    return obj


def _mat_pairs(arr):
    a = np.asarray(arr)
    return {"re": a.real.tolist(), "im": a.imag.tolist()}


def _flags_dict(args):
    return {
        "grid": args.grid,
        "iters": args.iters,
        "tol": args.tol,
        "alpha": args.alpha,
        "seed": args.seed,
        "out": args.out,
        "threads": args.threads,
        "threads_applied": args.threads_applied,
    }


def _validate_flags(args):
    if args.grid is not None and args.grid < 8:
        raise _InputError("--grid must be at least 8")
    if args.iters is not None and args.iters < 2:
        raise _InputError("--iters must be at least 2")
    if args.tol is not None and not 0.0 < args.tol < 1.0:
        raise _InputError("--tol must lie in (0, 1)")
    if args.alpha is not None and not math.isfinite(args.alpha):
        raise _InputError("--alpha must be finite")
    if args.threads < 1:
        raise _InputError("--threads must be positive")
    if args.seed is not None and args.seed < 0:
        raise _InputError("--seed must be non-negative")


def _apply_threads(n):
    # BLAS pools are sized at import time (OPENBLAS_NUM_THREADS), so without
    # threadpoolctl the flag is only recorded, as threads_applied: false
    try:
        import threadpoolctl
    except ImportError:
        return False
    threadpoolctl.threadpool_limits(limits=n)
    return True


# the results the analysis rests on hold over irrational rotations; within
# _RATIONAL_TOL of p/q with a small q every orbit closes up after q steps,
# and the verdicts describe a different system (alpha = 0 with the matrix of
# fixtures.dominated_2x2 reads as dominated); resonant frequencies likewise
_RATIONAL_Q_MAX = 64
_RATIONAL_TOL = 1e-12
# the resonance search lists 129^ceil(l/2) vectors a side: its traced peak
# is 0.14 GiB at l = 5 and 0.78 GiB at l = 6, and at l = 6 its 129^6 / 2
# vectors leave about five within _RATIONAL_TOL of an integer by chance, so
# even generic frequencies would read as resonant
_FREQUENCIES_MAX = 5


def _nearby_rational(a):
    """(p, q) in lowest terms with q <= _RATIONAL_Q_MAX and |a - p/q| within
    _RATIONAL_TOL modulo 1, or None."""
    for q in range(1, _RATIONAL_Q_MAX + 1):
        p = round(a * q)
        if abs(a - p / q) <= _RATIONAL_TOL:
            return p % q, q
    return None


def _resonance(freqs):
    """An integer q != 0, max |q_i| <= _RATIONAL_Q_MAX and its first nonzero
    entry positive, with q . freqs within _RATIONAL_TOL of an integer, or
    None: the least max |q_i| of the hits and of their quotients by the
    divisors of their gcd that still hold.  q = (u, v) splits at the middle
    frequency, and each u meets the v with v . freqs mod 1 next to -u . freqs
    mod 1 in one sort: each side lists (2 _RATIONAL_Q_MAX + 1)^(l/2) vectors."""
    h, n = len(freqs) // 2, 2 * _RATIONAL_Q_MAX + 1

    def part(fs):  # every vector over fs, and its product with fs mod 1
        q = np.indices((n,) * len(fs)).reshape(len(fs), -1).T - _RATIONAL_Q_MAX
        return q, (q @ np.asarray(fs)) % 1.0

    (u, a), (v, b) = part(freqs[:h]), part(freqs[h:])
    order = np.argsort(b)
    v, b = v[order], b[order]
    # the two neighbours of -a mod 1 on the circle hold its nearest b; for
    # u = 0 the third holds the nearest to 0 past v = 0
    i = np.searchsorted(b, -a % 1.0)
    js = [j % len(b) for j in (i - 1, i, i + 1)]
    q = np.concatenate([np.c_[u, v[j]] for j in js])
    x = np.concatenate([a + b[j] for j in js])
    hits = q[(np.abs((x + 0.5) % 1.0 - 0.5) <= _RATIONAL_TOL) & q.any(axis=1)]
    hits = np.array([h // c for h in hits for c in range(1, math.gcd(*h.tolist()) + 1)
                     if not (h % c).any()]).reshape(-1, len(freqs))
    hits = hits[np.abs((hits @ np.asarray(freqs) + 0.5) % 1.0 - 0.5) <= _RATIONAL_TOL]
    if not len(hits):
        return None
    q = hits[np.abs(hits).max(axis=1).argmin()]
    return tuple(int(c) for c in q * np.sign(q[q != 0][0]))


def _load(args):
    p = Path(args.path)
    try:
        raw = p.read_bytes()
    except OSError as exc:
        raise _InputError(f"cannot read {p}: {exc}")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise _InputError(f"{p} is not valid JSON: {exc}")
    try:
        C = Cocycle.from_json_dict(doc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise _InputError(f"{p} is not a cocycle description: {exc}")
    if C.base_dim > _FREQUENCIES_MAX:
        raise _InputError(f"{C.base_dim} frequencies; at most {_FREQUENCIES_MAX} are supported, "
                          "the most the resonance check can search")
    if args.alpha is not None:
        if C.base_dim != 1:
            raise _InputError("--alpha override needs a one-frequency cocycle")
        C = Cocycle((args.alpha,), C.matrix)
    for a in C.frequencies:
        pq = _nearby_rational(a)
        if pq is not None:
            raise _InputError(
                f"frequency {a!r} is within {_RATIONAL_TOL:g} of {pq[0]}/{pq[1]}; "
                "rational rotations are not supported")
    q = _resonance(C.frequencies) if C.base_dim > 1 else None
    if q is not None:
        raise _InputError(
            f"frequencies {list(C.frequencies)} are resonant: q = {q} puts q . alpha "
            f"within {_RATIONAL_TOL:g} of an integer; resonant rotations are not supported")
    if args.command in ("analyze", "lyapunov"):  # refused before any stage runs
        M = 64 if args.grid is None else args.grid
        try:
            check_orbit_lattice(C, M)
        except ValueError as exc:
            raise _InputError(f"--grid {M}: {exc}")
    # one Structure per command serves every stage
    return Structure(C, args.tol), hashlib.sha256(raw).hexdigest()


def _outplace(args):
    p = Path(args.path)
    outdir = Path(args.out) if args.out else p.parent
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _OutputError(f"cannot create {outdir}: {exc}")
    return outdir, p.stem


def _base_report(cmd, args, digest):
    return {
        "tool": "cocycles",
        "version": __version__,
        "command": cmd,
        "input": str(args.path),
        "input_sha256": digest,
        "flags": _flags_dict(args),
    }


def _write_report(path, report):
    text = json.dumps(_jsonable(report), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"
    try:
        path.write_text(text)
    except OSError as exc:
        raise _OutputError(f"cannot write {path}: {exc}")
    return path


def _write_csv(path, header, rows):
    try:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
    except OSError as exc:
        raise _OutputError(f"cannot write {path}: {exc}")
    return path


def _lyap_section(rep):
    return {
        "exponents": list(rep.exponents),
        "raw_estimates": list(rep.raw_estimates),
        "stderr": list(rep.stderr),
        "divergent": [bool(f) for f in rep.divergent],
        "flag_reason": rep.flag_reason,
        "n": rep.n,
        "grid": rep.grid,
    }


def _run_lyapunov(st, args):
    kw = {"n": args.iters, "M": args.grid}
    return lyapunov_spectrum(st, **{k: v for k, v in kw.items() if v is not None})


def _exponents_csv(path, rep):
    rows = [(j, float(e), float(s))
                for j, (e, s) in enumerate(zip(rep.exponents, rep.stderr))]
    return _write_csv(path, ("j", "exponent", "stderr"), rows).name


def _residuals_csv(path, vals):
    """(x, value) rows of per-sample values on the grid x_j = j/len(vals)."""
    rows = [(j / len(vals), float(v)) for j, v in enumerate(vals)]
    return _write_csv(path, ("x", "value"), rows).name


def _triangular_summary(T):
    return {"block_sizes": list(T.block_sizes), "residual": T.residual}


def _jordan_summary(F):
    return {"chains": list(F.chains), "cond_max": F.cond_max, "residual": F.residual}


def _dominate(st, gaps_path):
    """Split, domination verdict and, when dominated, the splitting.

    Returns the split form, the splitting result (None when not dominated),
    the report fields they share and the sidecar names; the gap certificate
    is written to gaps_path.
    """
    S = split_infinite_part(st)
    section = {"k": S.k, "p": S.p, "split_residual": S.residual}
    try:
        R = dominated_splitting(S)
    except NotDominated as exc:
        section.update(dominated=False, evidence=exc.evidence)
        return S, None, section, []
    section.update(dominated=True, evidence=R.evidence, splitting_residual=R.residual)
    rows = [(n, float(r)) for n, r in sorted(R.gap_certificate.items())]
    return S, R, section, [_write_csv(gaps_path, ("n", "ratio"), rows).name]


def _single(args, name, key, stage):
    """Load the input, run stage(st, sidecar) and write the report: stage
    returns the section, stored under key, and the names of the sidecars
    it wrote to the paths sidecar(kind); the timing covers all of stage."""
    st, digest = _load(args)
    outdir, stem = _outplace(args)
    report = _base_report(name, args, digest)
    t0 = time.perf_counter()
    report[key], report["sidecars"] = stage(
        st, lambda kind: outdir / f"{stem}.{name}.{kind}.csv")
    report["timings"] = {name: time.perf_counter() - t0}
    print(_write_report(outdir / f"{stem}.{name}.json", report))
    return 0


def cmd_lyapunov(args):
    def stage(st, sidecar):
        rep = _run_lyapunov(st, args)
        return _lyap_section(rep), [_exponents_csv(sidecar("exponents"), rep)]
    return _single(args, "lyapunov", "lyapunov", stage)


def cmd_triangularize(args):
    def stage(st, sidecar):
        T = triangularize(st)
        section = {**_triangular_summary(T), "U": T.U.to_json_dict(),
                   "B": T.B.to_json_dict()}
        return section, [_residuals_csv(sidecar("residuals"), T.samples)]
    return _single(args, "triangularize", "triangular", stage)


def cmd_jordan(args):
    def stage(st, sidecar):
        F = jordan_form(st)
        section = {**_jordan_summary(F), "J": _mat_pairs(F.J),
                   "M": F.M.to_json_dict()}
        return section, [_residuals_csv(sidecar("residuals"), F.samples)]
    return _single(args, "jordan", "jordan", stage)


def cmd_dominate(args):
    def stage(st, sidecar):
        S, R, section, sidecars = _dominate(st, sidecar("gaps"))
        section["U"] = S.U.to_json_dict()
        if R is not None:
            section["M"] = R.M.to_json_dict()
            section["C"] = R.C.to_json_dict()
        return section, sidecars
    return _single(args, "dominate", "dominate", stage)


def cmd_analyze(args):
    st, digest = _load(args)
    outdir, stem = _outplace(args)
    report = _base_report("analyze", args, digest)
    timings = {}
    sidecars = []

    # the first two stages build the Structure's ladder
    t0 = time.perf_counter()
    prof = rank_profile(st)
    timings["rank_profile"] = time.perf_counter() - t0
    report["rank_profile"] = {
        "ranks": list(prof.ranks),
        "stabilized_at": prof.stabilized_at,
        "min_rank": prof.min_rank,
        "exceptional_counts": {str(n): len(v) for n, v in prof.exceptional.items()},
    }

    t0 = time.perf_counter()
    nil = detect_nilpotency(st)
    timings["nilpotency"] = time.perf_counter() - t0
    report["nilpotency"] = {
        "nilpotent": nil.nilpotent,
        "degree": nil.degree,
        "witness": nil.witness,
    }

    t0 = time.perf_counter()
    lyap = _run_lyapunov(st, args)
    timings["lyapunov"] = time.perf_counter() - t0
    report["lyapunov"] = _lyap_section(lyap)
    sidecars.append(_exponents_csv(outdir / f"{stem}.analyze.exponents.csv", lyap))

    pipeline = "lyapunov"
    result = {}
    if nil.nilpotent:
        t0 = time.perf_counter()
        try:
            T = triangularize(st)
        except UnsupportedBase as exc:
            result["note"] = f"normal forms unavailable: {exc}"
        else:
            pipeline = "triangularize"
            result.update(_triangular_summary(T))
            sidecars.append(_residuals_csv(outdir / f"{stem}.analyze.residuals.csv",
                                           T.samples))
            try:
                F = jordan_form(st)
            except CocycleError as exc:
                # the complete reduction is optional: rank variation or a
                # non-analytic kernel bundle leaves the triangular form
                result["jordan"] = {"error": type(exc).__name__,
                                    "detail": str(exc)}
            else:
                pipeline = "jordan"
                result["jordan"] = _jordan_summary(F)
        timings["normal_form"] = time.perf_counter() - t0
    elif 0 < prof.min_rank < st.cocycle.dim:
        t0 = time.perf_counter()
        try:
            _, _, section, gaps = _dominate(st, outdir / f"{stem}.analyze.gaps.csv")
        except UnsupportedBase as exc:
            result["note"] = f"splitting unavailable: {exc}"
        else:
            pipeline = "dominate"
            result.update(section)
            sidecars += gaps
        timings["splitting"] = time.perf_counter() - t0
    elif prof.min_rank == st.cocycle.dim:
        result["note"] = "all exponents finite; spectrum only"
    else:  # rank 0 certifies every exponent -inf, the nilpotency test disagrees
        result["note"] = (f"rank A_{prof.stabilized_at} = 0 but no iterate vanishes "
                          f"(max_sample_norm {nil.witness['max_sample_norm']:.3g}); "
                          "spectrum only")

    report["pipeline"] = pipeline
    report["result"] = result
    report["timings"] = timings
    report["sidecars"] = sidecars
    print(_write_report(outdir / f"{stem}.analyze.json", report))
    return 0


def _fixture_set(seed):
    return {
        "nilpotent_3x3_variable_rank": fixtures.nilpotent_3x3_variable_rank(),
        "nilpotent_4x4_variable_rank2": fixtures.nilpotent_4x4_variable_rank2(),
        "twofrequency_rank_one": fixtures.twofrequency_rank_one(),
        "not_dominated_2x2": fixtures.not_dominated_2x2(),
        "dominated_2x2": fixtures.dominated_2x2(),
        "nilpotent_plus_invertible_3x3": fixtures.nilpotent_plus_invertible_3x3(),
        "constant_jordan_3": fixtures.constant_jordan((3,)),
        "constant_jordan_2_1": fixtures.constant_jordan((2, 1)),
        f"synthetic_nilpotent_seed{seed}": fixtures.random_nilpotent(seed),
        f"synthetic_jordan_seed{seed}": fixtures.random_constant_rank_jordan(seed)[0],
    }


def cmd_fixtures(args):
    outdir = Path(args.outdir or args.out or "fixtures")
    seed = 42 if args.seed is None else args.seed
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _OutputError(f"cannot create {outdir}: {exc}")
    for name, c in sorted(_fixture_set(seed).items()):
        path = outdir / f"{name}.json"
        text = json.dumps(c.to_json_dict(), sort_keys=True, indent=2) + "\n"
        try:
            path.write_text(text)
        except OSError as exc:
            raise _OutputError(f"cannot write {path}: {exc}")
        print(path)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one line and exits 2; subcommand parsers
    are of the same class."""

    def error(self, message):
        self.exit(2, f"{self.prog}: usage error: {message}\n")


@functools.cache
def _build_parser():
    """The argument parser, built once per process: parsing leaves it as
    it was, and building it costs a few milliseconds per call of main."""
    parser = _Parser(
        prog="cocycles",
        description="Structure analysis of analytic matrix cocycles "
                    "over torus rotations.",
    )
    parser.add_argument("--version", action="version",
                        version=f"cocycles {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--grid", type=int, metavar="M",
                        help="Lyapunov orbit lattice: M points per frequency "
                             "(default 64)")
    common.add_argument("--iters", type=int, metavar="N",
                        help="Lyapunov iterate count (default 1000)")
    common.add_argument("--tol", type=float, metavar="TOL",
                        help="numerical tolerance override")
    common.add_argument("--alpha", type=float, metavar="A",
                        help="replace the rotation number (one-frequency only)")
    common.add_argument("--seed", type=int, metavar="S",
                        help="seed for the synthetic fixture generators")
    common.add_argument("--out", metavar="DIR",
                        help="output directory (default: beside the input)")
    common.add_argument("--threads", type=int, default=1, metavar="T",
                        help="BLAS thread cap (default 1, reproducible)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, blurb in [
        ("analyze", cmd_analyze,
         "rank profile, nilpotency, then normal form or splitting"),
        ("lyapunov", cmd_lyapunov, "Lyapunov spectrum with standard errors"),
        ("triangularize", cmd_triangularize, "analytic block-triangular form"),
        ("jordan", cmd_jordan, "analytic Jordan form (constant-rank nilpotent)"),
        ("dominate", cmd_dominate, "kernel splitting and domination verdict"),
    ]:
        sp = sub.add_parser(name, parents=[common], help=blurb)
        sp.add_argument("path", help="cocycle JSON file")
        sp.set_defaults(func=fn)
    sp = sub.add_parser("fixtures", parents=[common],
                        help="write the bundled example cocycles")
    sp.add_argument("outdir", nargs="?",
                    help="destination directory (default: fixtures)")
    sp.set_defaults(func=cmd_fixtures)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else 2
    try:
        _validate_flags(args)
        args.threads_applied = _apply_threads(args.threads)
        return args.func(args)
    except _InputError as exc:
        print(f"cocycles: input error: {exc}", file=sys.stderr)
        return 2
    except UnsupportedBase as exc:
        print(f"cocycles: unsupported base: {exc}", file=sys.stderr)
        return 3
    except _OutputError as exc:
        print(f"cocycles: i/o error: {exc}", file=sys.stderr)
        return 5
    except CocycleError as exc:
        print(f"cocycles: numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 4


def entry():
    raise SystemExit(main(sys.argv[1:]))
