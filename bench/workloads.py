"""Inputs, tasks and answer checks of the benchmark workloads.

A workload turns a seed into a fixed list of tasks whose inputs are written
to JSON during set-up, so the program only sees generated files.  The timed
loop cycles through the list.  Each kind of input appears in fixed numbers
and the kinds are interleaved, so a run that stops part-way through the list
still sees the same mix on every seed; only the coefficients change with
the seed.

Library modules are looked up at call time (`_lib`), because set-up may
re-import the package and a traced run wraps its functions.
"""

import contextlib
import importlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# answers are wrong when a conjugation residual reaches this
RESIDUAL_TOL = 1e-8
# the sum of the exponents is the mean of log|det A|: the QR diagonal
# multiplies out to |det| at every step, so only the estimate's own standard
# errors and quadrature error on the orbit lattice separate the two
LOGDET_TOL = 1e-6

LYAPUNOV_ITERS = 2000
LYAPUNOV_GRID = 32
GRID_FLAGS = ("--grid", "32", "--iters", "100")
# analyze-exact: 7 bundled fixtures and 16 seeded inputs per block
SEEDED_PER_BLOCK = 16
BLOCK = 23


@dataclass
class Task:
    label: str
    paths: tuple
    expect: dict


def _lib(name):
    return importlib.import_module(f"cocycles.{name}")


def _interleave(groups):
    """Round-robin over the kinds, so every prefix of a pass is mixed."""
    out = []
    width = max(len(g) for g in groups)
    for i in range(width):
        out.extend(g[i] for g in groups if i < len(g))
    return out


def _write(directory, label, cocycle):
    path = Path(directory) / f"{label}.json"
    path.write_text(json.dumps(cocycle.to_json_dict(), sort_keys=True))
    return path


def _subseeds(seed, n):
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


def _jordan_matrix(chains):
    d = int(sum(chains))
    j = np.zeros((d, d))
    off = 0
    for length in sorted(chains, reverse=True):
        for i in range(length - 1):
            j[off + i, off + i + 1] = 1.0
        off += length
    return j


def _mean_logdet(samples):
    dets = np.abs(np.linalg.det(np.asarray(samples).reshape((-1,) + samples.shape[-2:])))
    return float(np.log(dets).mean())


# -- inputs -------------------------------------------------------------------


def partially_degenerate(seed, m, k):
    """A strictly upper m x m block coupled to an everywhere-invertible
    k x k block, conjugated by a constant random unitary.

    The kernel of every iterate from the m-th on is the first block, so the
    rank profile stabilizes at k, and the invertible block makes the
    splitting dominated by construction.  The conjugator is constant
    (`random_unitary_function` of degree 0): with a degree-1 conjugator about
    one input in twenty gets a split frame of degree above 100, and
    `is_dominated`, which sizes its grid from the iterate's degree, then
    exits with AliasingRisk (see CHANGES.md).
    """
    fx = _lib("fixtures")
    mf = _lib("matfun")
    cc = _lib("cocycle")
    rng = np.random.default_rng(seed)
    d = m + k
    nil = fx.random_strictly_upper(rng, m, degree=1)
    core = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    core += np.eye(k) * (2.0 * k)
    smin = np.linalg.svd(core, compute_uv=False)[-1]
    pert = mf.MatrixFunction(
        [[fx.random_trigpoly(rng, 1) for _ in range(k)] for _ in range(k)])
    inv = mf.MatrixFunction.constant(core) + pert * (0.4 * smin / pert.sup_bound())
    coupling = mf.MatrixFunction(
        [[fx.random_trigpoly(rng, 1) for _ in range(k)] for _ in range(m)])
    block = mf.vstack([mf.hstack([nil, coupling]),
                       mf.hstack([mf.MatrixFunction.zero(k, m), inv])])
    u = fx.random_unitary_function(rng, d, degree=0)
    alpha = cc.GOLDEN_MEAN
    return cc.Cocycle((alpha,), u.translate(alpha) @ block @ u.adjoint())


def invertible_grid(seed, d, M, degree=2):
    """Everywhere-invertible cocycle over the golden/silver 2-torus rotation,
    sampled on an M x M grid: a constant core plus a trig perturbation of
    the given degree in each variable kept below the core's smallest
    singular value."""
    fx = _lib("fixtures")
    mf = _lib("matfun")
    cc = _lib("cocycle")
    rng = np.random.default_rng(seed)
    core = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    core += np.eye(d) * (2.0 * d)
    smin = np.linalg.svd(core, compute_uv=False)[-1]
    xs = np.arange(M) / M
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    pert = np.zeros((M, M, d, d), dtype=complex)
    for k1 in range(-degree, degree + 1):
        for k2 in range(-degree, degree + 1):
            c = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            pert += np.exp(2j * np.pi * (k1 * X + k2 * Y))[..., None, None] * c
    sup = float(np.linalg.svd(pert, compute_uv=False)[..., 0].max())
    samples = core + pert * (0.4 * smin / sup)
    return cc.Cocycle((cc.GOLDEN_MEAN, fx.SILVER_MEAN), mf.GridMatrixFunction(samples))


def _exact_logdet(C):
    return _mean_logdet(C.matrix.sample_grid(256))


def analyze_exact_tasks(seed, directory, blocks=4):
    """The one-frequency fixtures the CLI bundles, plus seeded inputs for
    every pipeline branch: nilpotent (triangular or Jordan form), partially
    degenerate (splitting) and invertible (spectrum only).

    A task's cost depends strongly on the seeded input (dimension, widening
    retries), so the list holds `blocks` blocks, each with the bundled
    fixtures and fresh seeded inputs of fixed dimensions; a run samples many
    distinct inputs and the first block is the traced pass.
    """
    fx = _lib("fixtures")
    bundled = [
        ("nilpotent_3x3_variable_rank", fx.nilpotent_3x3_variable_rank(),
         {"pipeline": "triangularize", "degree": 3}),
        ("nilpotent_4x4_variable_rank2", fx.nilpotent_4x4_variable_rank2(),
         {"pipeline": "triangularize", "degree": 3}),
        ("not_dominated_2x2", fx.not_dominated_2x2(),
         {"pipeline": "dominate", "nilpotent": False, "dominated": False, "k": 1}),
        ("dominated_2x2", fx.dominated_2x2(),
         {"pipeline": "dominate", "nilpotent": False, "dominated": True, "k": 1}),
        ("nilpotent_plus_invertible_3x3", fx.nilpotent_plus_invertible_3x3(),
         {"pipeline": "dominate", "nilpotent": False, "dominated": True, "k": 1}),
        ("constant_jordan_3", fx.constant_jordan((3,)),
         {"pipeline": "jordan", "degree": 3, "jordan": _jordan_matrix((3,))}),
        ("constant_jordan_2_1", fx.constant_jordan((2, 1)),
         {"pipeline": "jordan", "degree": 2, "jordan": _jordan_matrix((2, 1))}),
    ]
    bundled = [Task(label, (_write(directory, label, C),), expect)
               for label, C, expect in bundled]
    assert len(bundled) + SEEDED_PER_BLOCK == BLOCK
    seeds = iter(_subseeds(seed, 10_000))
    tasks = []
    for _ in range(blocks):
        # random_nilpotent is checked against criteria 2 and 3 (degree bound,
        # triangular residual); its ranks are constant only generically, so
        # the Jordan reduction the CLI tries next is not promised or checked
        nilpotent = []
        for d in (2, 3, 4, 2, 3, 4):
            sd = next(seeds)
            nilpotent.append((f"random_nilpotent_d{d}_s{sd}", fx.random_nilpotent(sd, d=d),
                              {"pipeline": ("triangularize", "jordan"), "max_degree": d}))
        # the generator draws its dimension from the seed; take the first
        # seed of each dimension 2..5 so every block has the same sizes
        jordan = {}
        while len(jordan) < 4:
            sd = next(seeds)
            C, jmat, chains = fx.random_constant_rank_jordan(sd)
            jordan.setdefault(C.dim, (f"random_constant_rank_jordan_d{C.dim}_s{sd}", C,
                                      {"pipeline": "jordan", "degree": max(chains),
                                       "jordan": jmat.real}))
        invertible = []
        for d in (2, 4):
            sd = next(seeds)
            C = fx.random_invertible(sd, d=d)
            invertible.append((f"random_invertible_d{d}_s{sd}", C,
                               {"pipeline": "lyapunov", "nilpotent": False,
                                "logdet": _exact_logdet(C)}))
        degenerate = []
        for m, k in ((1, 1), (1, 2), (2, 1), (2, 2)):
            sd = next(seeds)
            degenerate.append((f"partially_degenerate_{m}_{k}_s{sd}",
                               partially_degenerate(sd, m, k),
                               {"pipeline": "dominate", "nilpotent": False,
                                "dominated": True, "k": k}))
        seeded = [Task(label, (_write(directory, label, C),), expect)
                  for label, C, expect in _interleave(
                      [nilpotent, [jordan[d] for d in sorted(jordan)], invertible, degenerate])]
        tasks += _interleave([bundled, seeded])
    return tasks


def lyapunov_exact_tasks(seed, directory):
    """Seeded everywhere-invertible cocycles (d = 2, 3, 4, 3 in turn), each
    followed by its second exterior power, at the criterion-5 orbit length.
    One task is one spectrum; the exterior-power task is checked against the
    spectrum of its base cocycle.

    A spectrum's cost depends on the dimension only; with d = 3 half of the
    cocycles, the median and the p75 tail both fall inside the d = 3 tasks
    instead of on the edge between two dimensions."""
    fx = _lib("fixtures")
    mf = _lib("matfun")
    cc = _lib("cocycle")
    tasks = []
    for i, sd in enumerate(_subseeds(seed, 12)):
        d = (2, 3, 4, 3)[i % 4]
        C = fx.random_invertible(sd, d=d)
        wedge = cc.Cocycle(C.frequencies, mf.exterior_power(C.matrix, 2))
        label = f"random_invertible_d{d}_s{sd}"
        tasks.append(Task(label, (_write(directory, label, C),),
                          {"logdet": _exact_logdet(C)}))
        tasks.append(Task(label + "_wedge2",
                          (_write(directory, label + "_wedge2", wedge),),
                          {"base": label}))
    return tasks


def analyze_grid_tasks(seed, directory):
    """The bundled two-frequency rank-one cocycle at M = 32 and seeded
    everywhere-invertible grids (d = 2 and 3) on a 16 x 16 lattice, which
    the Lyapunov step resamples onto the 32 x 32 orbit lattice."""
    fx = _lib("fixtures")
    rank_one = [("twofrequency_rank_one_M32", fx.twofrequency_rank_one(M=32),
                 {"pipeline": "lyapunov", "degree": 2, "all_divergent": True})]
    invertible = []
    for d, sd in zip((2, 3), _subseeds(seed, 2)):
        C = invertible_grid(sd, d, M=16)
        invertible.append((f"invertible_grid_d{d}_s{sd}", C,
                           {"pipeline": "lyapunov", "nilpotent": False, "ranks": [d],
                            "logdet": _mean_logdet(C.matrix.samples)}))
    return [Task(label, (_write(directory, label, C),), expect)
            for label, C, expect in _interleave([rank_one, invertible])]


# -- running and checking -------------------------------------------------------


def run_analyze(task, workdir, flags=()):
    """`cocycles analyze` in-process; returns (exit code, stderr, report path)."""
    cli = _lib("cli")
    report = Path(workdir) / "reports" / f"{task.paths[0].stem}.analyze.json"
    report.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["analyze", str(task.paths[0]), "--out", str(report.parent), *flags])
    return rc, err.getvalue(), report


def run_lyapunov(task, workdir):
    cc = _lib("cocycle")
    C = cc.Cocycle.from_json_dict(json.loads(task.paths[0].read_text()))
    return cc.lyapunov_spectrum(C, n=LYAPUNOV_ITERS, M=LYAPUNOV_GRID)


def _check_logdet(exps, errs, want, where):
    gap = abs(sum(exps) - want)
    if gap > LOGDET_TOL + 2.0 * sum(errs):
        return [f"{where}: exponent sum {sum(exps):.9g} is {gap:.2e} from mean log|det| {want:.9g}"]
    return []


def check_analyze(task, output, memo):
    """Failure reasons for one analyze task; empty when every check passes."""
    rc, stderr, path = output
    if rc != 0:
        return [f"exit code {rc}: {stderr.strip()}"]
    rep = json.loads(path.read_text())
    want = task.expect
    bad = []
    nil = rep["nilpotency"]
    ranks = rep["rank_profile"]["ranks"]
    if nil["nilpotent"] and nil["degree"] > ranks[0] + 1:
        bad.append(f"nilpotency degree {nil['degree']} exceeds max rank {ranks[0]} + 1")
    if "nilpotent" in want and nil["nilpotent"] != want["nilpotent"]:
        bad.append(f"nilpotent {nil['nilpotent']}, expected {want['nilpotent']}")
    if "degree" in want and nil["degree"] != want["degree"]:
        bad.append(f"nilpotency degree {nil['degree']}, expected {want['degree']}")
    if "max_degree" in want and not (nil["nilpotent"] and nil["degree"] <= want["max_degree"]):
        bad.append(f"nilpotency {nil}, expected degree at most {want['max_degree']}")
    if "ranks" in want and ranks != want["ranks"]:
        bad.append(f"rank profile {ranks}, expected {want['ranks']}")
    pipelines = want["pipeline"]
    if rep["pipeline"] not in (pipelines if isinstance(pipelines, tuple) else (pipelines,)):
        bad.append(f"pipeline {rep['pipeline']}, expected {pipelines}")
    res = rep["result"]
    for key in ("residual", "split_residual", "splitting_residual"):
        if key in res and not float(res[key]) < RESIDUAL_TOL:
            bad.append(f"{key} {res[key]} not below {RESIDUAL_TOL}")
    jordan = res.get("jordan", {})
    if "jordan" in want:
        if "chains" not in jordan:
            bad.append(f"no Jordan form: {jordan}")
        elif not np.array_equal(_jordan_matrix(jordan["chains"]), want["jordan"]):
            bad.append(f"Jordan chains {jordan['chains']} do not give the constructed J")
        elif not float(jordan["residual"]) < RESIDUAL_TOL:
            bad.append(f"jordan residual {jordan['residual']} not below {RESIDUAL_TOL}")
    for key in ("dominated", "k"):
        if key in want and res.get(key) != want[key]:
            bad.append(f"{key} {res.get(key)}, expected {want[key]}")
    exps = [float(e) for e in rep["lyapunov"]["exponents"]]
    if want.get("all_divergent") and any(e != float("-inf") for e in exps):
        bad.append(f"exponents {exps}, expected all -inf")
    if "logdet" in want:
        if not all(np.isfinite(exps)):
            bad.append(f"exponents {exps}, expected all finite")
        else:
            bad += _check_logdet(exps, [float(e) for e in rep["lyapunov"]["stderr"]],
                                 want["logdet"], "spectrum")
    return bad


def check_lyapunov(task, output, memo):
    """Every exponent of an invertible cocycle is finite and they sum to the
    mean of log|det|; the top exponent of the second exterior power is the
    sum of the top two exponents of its base, within two standard errors
    (criterion 5)."""
    if not all(np.isfinite(output.exponents)):
        return [f"exponents {output.exponents}, expected all finite"]
    memo[task.label] = output
    if "logdet" in task.expect:
        return _check_logdet(output.exponents, output.stderr, task.expect["logdet"], "spectrum")
    base = memo.get(task.expect["base"])
    if base is None:
        return [f"no spectrum of {task.expect['base']} to compare with"]
    dev = abs(output.exponents[0] - sum(base.exponents[:2]))
    budget = 2.0 * (output.stderr[0] + sum(base.stderr[:2]))
    if not dev <= budget:
        return [f"wedge-2 top exponent off the top-two sum by {dev:.3e} > {budget:.3e}"]
    return []


@dataclass(frozen=True)
class Workload:
    make: object
    run: object
    check: object
    traced_pass: int = 0      # leading tasks a traced run counts; 0 for all


WORKLOADS = {
    "analyze-exact": Workload(analyze_exact_tasks, run_analyze, check_analyze,
                              traced_pass=BLOCK),
    "lyapunov-exact": Workload(lyapunov_exact_tasks, run_lyapunov, check_lyapunov),
    "analyze-grid": Workload(
        analyze_grid_tasks,
        lambda task, workdir: run_analyze(task, workdir, GRID_FLAGS),
        check_analyze),
}
