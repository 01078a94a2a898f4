"""Quasi-periodic matrix cocycles: iteration, Lyapunov spectra, nilpotency.

A cocycle is a rotation vector together with a matrix-valued function on the
torus; its n-th iterate is the ordered product along the rotation orbit.
Rank profiles and nilpotency are decided on the iterates of the unit-scale
generator.  The stabilised rank k of the iterates is the number of finite
Lyapunov exponents (the paper's first theorem applied to exterior powers);
those k are estimated by orbit products re-orthonormalised once per block
of steps (once per step during the warmup), by LAPACK QR on narrow orbit
batches and by a batch-last Gram-Schmidt step on wide ones, and the rest
are reported as -inf.  Rank-one cocycles get their top exponent in closed form
from the scalar factorization.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import frames as fr
from .errors import (
    DegreeOverflow,
    NotPolynomializable,
    RankNotOne,
    StructureViolation,
    TailTooFat,
    UnsupportedBase,
)
from .matfun import (
    GridMatrixFunction,
    MatrixFunction,
    max_rank,
    resample_lattice,
    shift_samples,
)
from .trigpoly import TrigPoly, default_grid_size, log_integral

GOLDEN_MEAN = 0.6180339887498949

DEGREE_CAP = 4096


@dataclass(frozen=True)
class Cocycle:
    frequencies: tuple
    matrix: object

    def __post_init__(self):
        freqs = tuple(float(a) for a in self.frequencies)
        if len(freqs) < 1:
            raise ValueError("at least one frequency required")
        if not all(math.isfinite(a) for a in freqs):
            raise ValueError(f"frequencies must be finite, got {list(freqs)}")
        freqs = tuple(a % 1.0 for a in freqs)
        object.__setattr__(self, "frequencies", freqs)
        mat = self.matrix
        if isinstance(mat, MatrixFunction):
            if len(freqs) != 1:
                raise UnsupportedBase(
                    "exact entries require a one-dimensional base; "
                    "use grid samples for more frequencies"
                )
        elif isinstance(mat, GridMatrixFunction):
            if mat.base_dim != len(freqs):
                raise ValueError("grid dimension does not match frequency count")
        else:
            raise TypeError("matrix must be a MatrixFunction or GridMatrixFunction")
        if mat.rows != mat.cols:
            raise ValueError("cocycle matrix must be square")

    @property
    def dim(self):
        return self.matrix.rows

    @property
    def base_dim(self):
        return len(self.frequencies)

    @property
    def alpha(self):
        """The rotation number for a one-dimensional base."""
        if len(self.frequencies) != 1:
            raise UnsupportedBase("scalar frequency only defined for base_dim 1")
        return self.frequencies[0]

    @property
    def is_exact(self):
        return isinstance(self.matrix, MatrixFunction)

    def to_json_dict(self):
        return {
            "frequencies": list(self.frequencies),
            "matrix": self.matrix.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, data):
        mat = data["matrix"]
        if "entries" in mat:
            matrix = MatrixFunction.from_json_dict(mat)
        else:
            matrix = GridMatrixFunction.from_json_dict(mat)
        return cls(tuple(data["frequencies"]), matrix)


@dataclass
class LyapunovReport:
    exponents: list
    raw_estimates: list
    stderr: list
    divergent: list
    n: int
    grid: int
    # per slot, the rank certificate "rank A_p = k" of a -inf slot, or None
    flag_reason: list | None = None


@dataclass
class RankProfile:
    ranks: list
    stabilized_at: int
    min_rank: int
    exceptional: dict = field(default_factory=dict)


@dataclass
class NilpotencyReport:
    nilpotent: bool
    degree: int | None
    witness: dict


@dataclass
class RankOneFactor:
    c: TrigPoly
    phi: MatrixFunction
    psi: MatrixFunction
    residual: float


def _check_degree(C, n, degree_cap):
    if C.is_exact and C.matrix.degree * n > degree_cap:
        raise DegreeOverflow(
            f"iterate degree {C.matrix.degree * n} exceeds cap {degree_cap}"
        )


def iterate(C, n, degree_cap=DEGREE_CAP):
    """Ordered product A(x+(n-1)a)···A(x) as a matrix function."""
    if n < 1:
        raise ValueError("iterate count must be positive")
    # checked up front so that an overflowing request builds no products
    _check_degree(C, n, degree_cap)
    for prod in iterates(C, n, degree_cap):
        pass
    return prod


def iterates(C, n_max, degree_cap=DEGREE_CAP):
    """Yield the iterates A_1, ..., A_{n_max} as a running product.

    A_n = A(x+(n-1)a) A_{n-1}(x) is the product iterate forms, so the n-th
    value is iterate(C, n) exactly.  The first n whose iterate degree passes
    degree_cap raises DegreeOverflow instead, as iterate(C, n) does.
    """
    if C.is_exact:
        prod = C.matrix
        for n in range(1, n_max + 1):
            _check_degree(C, n, degree_cap)
            if n > 1:
                prod = C.matrix.translate((n - 1) * C.alpha) @ prod
            yield prod
        return
    samples = C.matrix.samples
    spec = np.fft.fftn(samples, axes=tuple(range(C.base_dim)))
    alpha = np.array(C.frequencies)
    prod = samples
    for n in range(1, n_max + 1):
        if n > 1:
            prod = shift_samples(samples, (n - 1) * alpha, spec) @ prod
        yield GridMatrixFunction(prod)


# the step matrices and phases of one chunk of the Lyapunov sweep stay near
# this size; longer chunks save no more time but raise the peak memory
_CHUNK_BYTES = 1 << 18

# after the warmup the sweep re-orthonormalises once per block of s orbit
# steps, s a power of two up to _BLOCK_MAX; s times the widest per-step
# spread of the finite R-diagonal stays below the log of the condition
# number a block product may reach before QR loses digits of its smallest
# finite direction
_BLOCK_MAX = 16
_BLOCK_LOG_COND = math.log(1e6)

# orbit batches at least this wide run the sweep batch-last: step matrices,
# block products and frames are held as (d, d, ..., batch), so each
# arithmetic op covers every orbit at once, where numpy's stacked matmul and
# QR make one BLAS or LAPACK call per orbit.  On the 32 orbits of a
# one-frequency sweep the batch-last step is no faster at d = 3 and half
# again slower at d = 6, so narrower batches keep the LAPACK step
_BATCH_LAST_MIN = 256


def _step_chunks(C, starts, M, bounds):
    """Yield the step matrices A(x_b + t a) for each half-open step range in
    bounds, in order: shape (T, batch, d, d), or (d, d, T, batch) when the
    batch of orbits is at least _BATCH_LAST_MIN wide."""
    d = C.dim
    batch = starts.shape[0]
    last = batch >= _BATCH_LAST_MIN
    if C.is_exact:
        freqs, cmat = C.matrix._coeff_tensor()
        phases = np.exp(2j * np.pi * np.outer(starts[:, 0], freqs))
        step = np.exp(2j * np.pi * freqs * C.alpha)
        for lo, hi in bounds:
            # the in-place recurrence, one step at a time, keeps every phase
            # bit-identical to a per-step sweep; a cumulative product differs
            # in the last bits
            buf = np.empty((hi - lo,) + phases.shape, dtype=complex)
            for i in range(hi - lo):
                buf[i] = phases
                phases *= step
            if last:
                flat = buf.reshape(-1, len(freqs))
                mats = (cmat.T @ flat.T).reshape(d, d, hi - lo, batch)
            else:
                mats = (buf @ cmat).reshape(hi - lo, batch, d, d)
            del buf  # not held while the caller works on the chunk
            yield mats
        return
    base = resample_lattice(C.matrix, M)
    spec = np.fft.fftn(base, axes=tuple(range(C.base_dim)))
    alpha = np.array(C.frequencies)
    for lo, hi in bounds:
        mats = np.empty((d, d, hi - lo, batch) if last else (hi - lo, batch, d, d),
                        dtype=complex)
        for i, t in enumerate(range(lo, hi)):
            at = shift_samples(base, t * alpha, spec).reshape(batch, d, d)
            if last:
                mats[:, :, i] = at.transpose(1, 2, 0)
            else:
                mats[i] = at
        yield mats


def _block_length(diag, k):
    """Orbit steps per QR after the warmup, from warmup R-diagonals.

    diag holds |R_jj| of single steps, shape (steps, batch, d).  The spread
    g is the widest log ratio among the first k entries of a step and orbit
    where none of them has died; s is the largest power of two up to
    _BLOCK_MAX with s * g <= _BLOCK_LOG_COND.
    """
    fin = diag[..., :k]
    lo, hi = fin.min(axis=-1), fin.max(axis=-1)
    alive = lo > 1e-14 * diag.max(axis=-1)
    gap = float(np.log(hi[alive] / lo[alive]).max()) if alive.any() else 0.0
    s = _BLOCK_MAX
    while s > 1 and s * gap > _BLOCK_LOG_COND:
        s //= 2
    return s


def _block_products(mats, s):
    """The ordered products of s consecutive step matrices, shape
    (ceil(T/s), batch, d, d); a short last block multiplies the steps left.

    The short block is not padded with identities: a padded copy of the
    chunk would raise the sweep's peak memory.
    """
    full = mats.shape[0] // s
    blocks = mats[:full * s].reshape((full, s) + mats.shape[1:])
    prod = blocks[:, 0]
    for i in range(1, s):
        prod = blocks[:, i] @ prod
    if full * s < mats.shape[0]:
        last = mats[full * s]
        for m in mats[full * s + 1:]:
            last = m @ last
        prod = np.concatenate([prod, last[None]])
    return prod


def _mul_last(a, b):
    """The products a @ b of two batch-last stacks, (d, d, ...) each: d
    broadcast multiply-adds over the whole stack."""
    out = a[:, :1] * b[:1]
    for j in range(1, a.shape[1]):
        out += a[:, j:j + 1] * b[j:j + 1]
    return out


def _block_products_last(mats, s):
    """_block_products for step matrices held batch-last: (d, d, T, batch)
    to (d, d, ceil(T/s), batch).

    The factors of a block are multiplied in neighbouring pairs, later step
    on the left, in log2 s levels of _mul_last; a short last block is
    reduced the same way.
    """
    d, _, T, batch = mats.shape
    full = T // s
    blocks = []
    if full:
        blocks.append(mats[:, :, :full * s].reshape(d, d, full, s, batch))
    if full * s < T:
        blocks.append(mats[:, :, None, full * s:])
    prods = []
    for m in blocks:
        while m.shape[3] > 1:
            n = m.shape[3]
            pairs = _mul_last(m[:, :, :, 1::2], m[:, :, :, 0:n - 1:2])
            m = pairs if n % 2 == 0 else np.concatenate([pairs, m[:, :, :, -1:]],
                                                        axis=3)
        prods.append(m[:, :, :, 0])
    return prods[0] if len(prods) == 1 else np.concatenate(prods, axis=2)


def _orthogonalise(v, q):
    """v, (d, batch), less its components along the orthonormal columns of
    q, (d, j, batch), projected out twice."""
    for _ in range(2 if q.shape[1] else 0):
        v = v - (q * (q.conj() * v[:, None]).sum(axis=0)).sum(axis=1)
    return v


def _norm(v):
    return np.sqrt((v.real ** 2 + v.imag ** 2).sum(axis=0))


def _gram_schmidt(y):
    """The orthonormal frame and |R_jj| of a batch-last stack y, (d, d, batch):
    the Q and |diag R| of a QR factorisation, shapes (d, d, batch) and
    (d, batch).

    Classical Gram-Schmidt with one reorthogonalisation pass, which keeps the
    frame orthonormal to working precision.  A column whose residual is
    exactly zero (its orbit fell into a kernel) records |R_jj| = 0 and is
    completed by the standard basis vector with the largest residual against
    the earlier columns, orthogonalised twice.
    """
    d = y.shape[0]
    q = np.empty_like(y)
    r = np.empty(y.shape[1:])
    for j in range(d):
        v = _orthogonalise(y[:, j], q[:, :j])
        r[j] = norm = _norm(v)
        dead = np.nonzero(norm == 0.0)[0]
        if dead.size:
            v, norm = v.copy(), norm.copy()
            for m in range(d):
                e = np.zeros((d, dead.size), dtype=complex)
                e[m] = 1.0
                e = _orthogonalise(e, q[:, :j, dead])
                en = _norm(e)
                better = en > norm[dead]
                v[:, dead[better]] = e[:, better]
                norm[dead[better]] = en[better]
        q[:, j] = v / norm
    return q, r


def lyapunov_spectrum(C, n=1000, M=64, tol=1e-9):
    """Exponent estimates from M grid orbits of length n; -inf where certified.

    The number k of finite exponents is the stabilised rank of the iterates,
    rank_profile(C, tol).min_rank: by the paper's first theorem applied to
    the exterior powers, L_j = -inf exactly when the j-th exterior power is
    nilpotent, that is when rank A_p < j for p = stabilized_at.  Slots
    k+1..d are reported as -inf with flag_reason "rank A_p = k"; for k = 0
    no orbit is swept at all.

    The finite exponents come from a QR sweep of a full d-frame: products
    of the whole orbit are never formed; QR re-orthonormalises the basis and
    accumulates log singular growth per direction, and the k largest
    estimates are reported.  An initial warmup fifth of the run (at most 64
    steps) lets the random starting frame settle into the growth filtration
    and is excluded from the averages; it runs one QR per step.  After it,
    one QR per block of s steps: the R-diagonal of a block product is the
    product of the per-step R-diagonals, and s (a power of two, at most 16)
    is chosen from the spread of the finite R-diagonal in the second half of
    the warmup so that a block product stays well conditioned.  The sweep
    runs on the generator divided by a power of two near its size, so a
    block product neither overflows nor underflows, and adds the log of that
    scale back.  Step matrices, block products and all bookkeeping are
    computed a chunk of steps at a time.  A direction whose R-diagonal entry
    dies in a block (exactly zero or below 1e-14 of the largest) adds no
    growth and its steps are not counted in its average.

    Which step re-orthonormalises depends on the number of orbits, M^l for
    l frequencies.  Below _BATCH_LAST_MIN (256) orbits, numpy's batched
    matmul and LAPACK QR run one call per orbit.  From 256 orbits on (the
    M^2 lattice of a two-frequency grid at M >= 16), every array is held
    batch-last, (d, d, ..., batch), so one arithmetic op covers all orbits:
    block products are formed pairwise in log2 s levels, and P q is
    re-orthonormalised by classical Gram-Schmidt with one reorthogonalisation
    pass (Benettin, Galgani, Giorgilli and Strelcyn 1980; "twice is
    enough", Giraud, Langou and Rozloznik 2005).  A column whose residual
    there is exactly zero, an orbit fallen into ker A, records |R_jj| = 0,
    which the death floor counts, and the frame is completed by the basis
    vector with the largest residual, orthogonalised twice.  Grid samples
    reach the orbit lattice by resample_lattice, one inverse FFT.

    stderr combines the spread over orbits with a Richardson estimate of the
    still-settling bias: a running mean converging like 1/t leaves a residual
    of three times its drift over the final quarter of the run.  Spread alone
    misses that bias because every orbit shares the transient when two
    exponents nearly coincide.  The certified -inf slots report raw
    estimate -inf and stderr 0: what a sweep measures along a dead direction
    is noise.
    """
    if n < 2:
        raise ValueError("a Lyapunov estimate needs at least 2 iterates")
    d = C.dim
    prof = rank_profile(C, tol=tol)
    k = prof.min_rank
    reasons = [None] * k + [f"rank A_{prof.stabilized_at} = {k}"] * (d - k)
    divergent = [j >= k for j in range(d)]
    if k == 0:
        inf = [float("-inf")] * d
        return LyapunovReport(inf, list(inf), [0.0] * d, divergent, n, M,
                              reasons)
    if C.base_dim == 1:
        starts = (np.arange(M) / M)[:, None]
    else:
        axes = [np.arange(M) / M] * C.base_dim
        mesh = np.meshgrid(*axes, indexing="ij")
        starts = np.stack([g.ravel() for g in mesh], axis=1)
    batch = starts.shape[0]
    # dividing by a power of two is exact: the unit-scale step matrices are
    # those of C with a shifted exponent
    scale = math.ldexp(1.0, math.frexp(_sup_scale(C))[1] - 1)
    U = _unit_scale(C, scale)
    # a fixed random orthonormal start keeps no basis vector exactly inside a
    # structural kernel, which an identity start would do for triangular input
    rng = np.random.default_rng(12345)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q0, _ = np.linalg.qr(g)
    last = batch >= _BATCH_LAST_MIN
    if last:
        q = np.broadcast_to(q0[..., None], (d, d, batch)).copy()
    else:
        q = np.broadcast_to(q0, (batch, d, d)).copy()

    warmup = min(n // 5, 64)
    n_eff = n - warmup
    # the Richardson term reads the running mean after mid swept steps and
    # after all of them, so a chunk, and with it a block, ends at both
    quarter = max(n_eff // 4, 2)
    mid = n_eff - quarter + 1
    nfreq = len(U.matrix._coeff_tensor()[0]) if U.is_exact else 0
    # whole maximal blocks per chunk leave at most one short block per range
    chunk = _BLOCK_MAX * max(
        1, _CHUNK_BYTES // (16 * batch * (d * d + nfreq) * _BLOCK_MAX))
    bounds = []
    for a, b in ((0, warmup), (warmup, warmup + mid), (warmup + mid, n)):
        bounds += [(lo, min(lo + chunk, b)) for lo in range(a, b, chunk)]

    s = 1
    settled = []
    logr = np.zeros((batch, d))
    deaths = np.zeros((batch, d), dtype=int)
    running = {}

    for (lo, hi), mats in zip(bounds, _step_chunks(U, starts, M, bounds)):
        if last:
            prods = _block_products_last(mats, s)
            diag = np.empty((prods.shape[2], batch, d))
            for i in range(len(diag)):
                q, r = _gram_schmidt(_mul_last(prods[:, :, i], q))
                diag[i] = r.T
        else:
            prods = _block_products(mats, s)
            diag = np.empty(prods.shape[:2] + (d,))
            for i in range(len(prods)):
                q, r = np.linalg.qr(prods[i] @ q)
                diag[i] = np.abs(np.einsum("bii->bi", r))
        if lo < warmup:
            settled.append(diag[max(warmup // 2 - lo, 0):])
            if hi == warmup:
                s = _block_length(np.concatenate(settled), k)
            continue
        # a direction dies in a block when its R-diagonal entry is exactly
        # zero or below the per-sample relative floor; it then adds no growth
        # and the block's steps count as dead
        floor = 1e-14 * diag.max(axis=2, keepdims=True)
        dead = diag <= floor
        steps = np.minimum(s, hi - lo - s * np.arange(len(diag)))
        deaths += (dead * steps[:, None, None]).sum(axis=0)
        grow = np.where(dead, 0.0, np.log(np.where(dead, 1.0, diag)))
        logr = logr + grow.sum(axis=0)
        running[hi - warmup] = logr.mean(axis=0) / (hi - warmup)

    alive = n_eff - deaths
    per_orbit = np.where(alive > 0, logr / np.maximum(alive, 1) + math.log(scale),
                         -np.inf)

    # the spectrum is a set: an orbit whose QR columns lock onto a permuted
    # filtration (a structurally dead start direction, say) still estimates
    # the same exponents, so sort each orbit descending before aggregating
    est_sorted = -np.sort(-per_orbit, axis=1, kind="stable")

    finite_dir = np.isfinite(est_sorted).all(axis=0)
    po_safe = np.where(np.isfinite(est_sorted), est_sorted, 0.0)
    raw = np.where(finite_dir, po_safe.mean(axis=0), -np.inf)

    # running mean settling like 1/t leaves a bias of 3x its final-quarter
    # drift; orbit spread cannot see it since the transient is common mode
    conv = 3.0 * np.abs(running[n_eff] - running[mid])
    err = np.where(finite_dir, po_safe.std(axis=0) / np.sqrt(batch) + conv, 0.0)

    # slots k+1..d are certified -inf; what the sweep measured there is noise
    order = np.argsort(-raw, kind="stable")
    raw = [float(v) for v in raw[order][:k]] + [float("-inf")] * (d - k)
    err = [float(v) for v in err[order][:k]] + [0.0] * (d - k)
    return LyapunovReport(list(raw), raw, err, divergent, n, M, reasons)


def _sup_scale(C):
    """The entrywise coefficient bound of exact entries, the largest sample
    of a grid."""
    if C.is_exact:
        return C.matrix.sup_bound()
    return float(np.abs(C.matrix.samples).max())


def _unit_scale(C, scale):
    """C with its generator divided by scale.

    rank_profile and detect_nilpotency decide on the iterates of this
    cocycle against an absolute tolerance, so their verdicts do not depend on
    the units of A, and the iterates neither underflow nor overflow.
    """
    if C.is_exact:
        return Cocycle(C.frequencies, C.matrix * (1.0 / scale))
    return Cocycle(C.frequencies,
                   GridMatrixFunction(C.matrix.samples * (1.0 / scale)))


def rank_profile(C, tol=1e-9):
    """Maximal ranks of the iterates until they stabilize.

    The generator is divided by its largest sampled singular value and the
    singular values of each unit-scale iterate are counted above tol, so an
    iterate that collapses below float noise registers as rank zero instead
    of noise rank.  The ranks fall strictly until they stop, by step d at
    the latest, so stabilized_at is always set: it is the first p with
    rank A_p = min_rank.
    """
    d = C.dim
    if C.is_exact:
        samples = C.matrix.sample_grid(max(64, default_grid_size(C.matrix.degree)))
    else:
        samples = C.matrix.all_samples()
    s1 = float(np.linalg.svd(samples, compute_uv=False).max())
    if s1 == 0.0:
        return RankProfile([0], 1, 0, {1: []})
    ranks = []
    exceptional = {}
    for n, F in enumerate(iterates(_unit_scale(C, s1), d + 1), start=1):
        r, exc = max_rank(F, tol=tol, scale=1.0)
        if ranks and r > ranks[-1]:
            raise StructureViolation(
                f"rank increased from {ranks[-1]} to {r} at step {n}; "
                "tolerance too loose for this grid"
            )
        if ranks and r == ranks[-1]:
            break
        ranks.append(r)
        exceptional[n] = exc
        if r == 0 or (n == 1 and r == d):
            # zero iterates stay zero; a somewhere-invertible product of
            # somewhere-invertible factors keeps full maximal rank
            break
    return RankProfile(ranks, len(ranks), ranks[-1], exceptional)


def detect_nilpotency(C, tol=1e-10):
    """Decide whether some iterate vanishes identically, with a certificate.

    The generator is divided by its scale (the entrywise coefficient bound of
    exact entries, the largest sample of a grid) and the iterates of that
    unit-scale cocycle are compared with tol, so the verdict does not depend
    on the units of A; the certificate and the witness's sample norm are
    unit-scale numbers.  The rank of the first iterate bounds the search: if
    no iterate up to max_rank(A)+1 vanishes, none ever does.
    """
    scale = _sup_scale(C)
    if scale == 0.0:
        return NilpotencyReport(True, 1, {"certificate": 0.0, "scale": 0.0})
    U = _unit_scale(C, scale)
    r1, _ = max_rank(U.matrix)
    for n, last in enumerate(iterates(U, r1 + 1), start=1):
        if C.is_exact:
            cert = last.max_coeff()
        else:
            cert = float(np.abs(last.samples).max())
        if cert <= tol:
            return NilpotencyReport(True, n, {"certificate": cert, "scale": scale})
    if C.is_exact:
        M = max(64, default_grid_size(last.degree))
        samples = last.sample_grid(M)
        norms = np.linalg.norm(samples, ord=2, axis=(1, 2))
        j = int(norms.argmax())
        witness = {"max_sample_norm": float(norms[j]), "at": j / M, "scale": scale}
    else:
        norms = np.abs(last.samples).max(axis=(-2, -1))
        j = np.unravel_index(int(norms.argmax()), norms.shape)
        witness = {"max_sample_norm": float(norms[j]), "at": tuple(int(i) for i in j),
                   "scale": scale}
    return NilpotencyReport(False, None, witness)


def rank_one_factor(C, M=None, tol=1e-9):
    """Scalar times outer-product form c(x) phi(x) psi*(x) for rank-one cocycles.

    phi spans the range of A and psi the range of A*; both are built from the
    best-conditioned column (largest maximal norm), phase-aligned around the
    circle, and returned as unit-norm trig-polynomial columns.
    """
    if not C.is_exact:
        raise UnsupportedBase("rank-one factorization needs exact entries")
    A = C.matrix
    r, _ = max_rank(A)
    if r != 1:
        raise RankNotOne(f"maximal rank is {r}, not 1")
    if M is None:
        M = max(256, default_grid_size(4 * max(A.degree, 1)))
    samples = A.sample_grid(M)

    phi = _aligned_column_lift(samples, A.degree, M)
    psi = _aligned_column_lift(np.conj(np.swapaxes(samples, 1, 2)), A.degree, M)

    c_mat = phi.adjoint() @ A @ psi
    c = c_mat.entries[0][0]

    recon = phi @ c_mat @ psi.adjoint()
    residual = float(
        np.abs(recon.sample_grid(M) - samples).max()
    )
    scale = float(np.abs(samples).max())
    if residual > 1e-6 * scale:
        raise RankNotOne(
            f"factor reconstruction residual {residual:.3e} too large"
        )
    return RankOneFactor(c, phi, psi, residual)


def _aligned_column_lift(samples, degree, M):
    norms = np.linalg.norm(samples, axis=1)
    j = int(norms.max(axis=0).argmax())
    field = fr.field_from_vectors(samples[:, :, j], degree)
    aligned = fr.phase_align(field)
    try:
        return fr.to_analytic_frame(aligned, N=M // 2 - 1, tol=1e-7)
    except TailTooFat as e:
        raise NotPolynomializable(str(e)) from e


def exact_L1_rank_one(C, zero_tol=1e-10):
    """Top exponent of a rank-one cocycle in closed form.

    Splits as the log integral of the scalar factor plus the log integral of
    the coupling psi*(x+a) phi(x); the result is -inf exactly when the
    coupling vanishes identically, which forces the second iterate to vanish
    (verified before returning).
    """
    f = rank_one_factor(C)
    coupling_mat = f.psi.adjoint().translate(C.alpha) @ f.phi
    coupling = coupling_mat.entries[0][0]
    if coupling.max_coeff() < zero_tol:
        coupling = TrigPoly.zero()
    if coupling.is_zero:
        a2 = iterate(C, 2)
        scale = C.matrix.sup_bound()
        if a2.max_coeff() > 1e-8 * scale * scale:
            raise StructureViolation(
                "coupling vanishes but the second iterate does not; "
                "lift tolerance too loose"
            )
        return float("-inf")
    return log_integral(f.c) + log_integral(coupling)
