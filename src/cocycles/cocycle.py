"""Quasi-periodic matrix cocycles: iteration, Lyapunov spectra, nilpotency.

A cocycle is a rotation vector together with a matrix-valued function on the
torus; its n-th iterate is the ordered product along the rotation orbit.
One Structure per input holds the lazily built iterates of the unit-scale
generator and the rank profile and nilpotency verdict decided on them; the
spectrum, normal forms and splitting share it, so an analysis builds one.
The stabilised rank k of the iterates is the number of finite Lyapunov
exponents (the paper's first theorem applied to exterior powers); those k
are estimated by orbit products re-orthonormalised once per block of steps
(in the warmup, blocks the generator's sampled conditioning allows) by one
batch-last Gram-Schmidt step for every orbit count, and the rest are
reported as -inf.  Rank-one cocycles get their top exponent in closed form
from two Mahler measures.
"""

import math
import sys
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import islice, repeat

import numpy as np

from .errors import (
    DegreeOverflow,
    FloatRangeExceeded,
    RankNotOne,
    StructureViolation,
    TailTooFat,
    UnsupportedBase,
)
from .frames import (
    complement_within,
    field_grid,
    kernel_field,
    orthocomplement,
    phase_align,
)
from .matfun import (
    GridMatrixFunction,
    MatrixFunction,
    hstack,
    max_rank,
    poly_from_samples,
    rank_grid,
    rank_samples,
    rounding_cut,
    shift_samples,
)
from .trigpoly import DEGREE_CAP, log_integral, real_divide

GOLDEN_MEAN = 0.6180339887498949


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
        # every decision reads the generator divided by this size
        with np.errstate(over="ignore"):
            size = _sup_scale(mat)
        if not math.isfinite(size):
            raise ValueError("coefficient bound (largest sample) of the matrix "
                             "is not finite")

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


def _check_degree(C, n):
    if C.is_exact and C.matrix.degree * n > DEGREE_CAP:
        raise DegreeOverflow(
            f"iterate degree {C.matrix.degree * n} exceeds cap {DEGREE_CAP}"
        )


def iterate(C, n):
    """Ordered product A(x+(n-1)a)···A(x) as a matrix function."""
    if n < 1:
        raise ValueError("iterate count must be positive")
    # checked up front so that an overflowing request builds no products
    _check_degree(C, n)
    for prod in iterates(C, n):
        pass
    return prod


def iterates(C, n_max):
    """Yield the iterates A_1, ..., A_{n_max} as a running product.

    A_n = A(x+(n-1)a) A_{n-1}(x) is the product iterate forms, so the n-th
    value is iterate(C, n) exactly.  The first n whose iterate degree passes
    DEGREE_CAP raises DegreeOverflow instead, as iterate(C, n) does.
    """
    if C.is_exact:
        prod = C.matrix
        for n in range(1, n_max + 1):
            _check_degree(C, n)
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


# a step range of the Lyapunov sweep, or a piece of grid steps in one, holds
# near this many bytes of the arrays it builds; each range pays a fixed set
# of small array ops, so a narrow batch needs long ranges, a wide one short
_CHUNK_BYTES = 1 << 20

# a range or piece holds at least one step over the whole orbit lattice, so
# a lattice whose one step of complex d x d matrices, 16 d^2 M^l bytes,
# passes the range budget is refused (check_orbit_lattice); a name of its
# own, so that narrowing the ranges does not narrow what is accepted
_LATTICE_BYTES = _CHUNK_BYTES

# the sweep re-orthonormalises once per block of s orbit steps, s at most
# _BLOCK_MAX; s times the widest per-step spread of the finite R-diagonal
# (in the warmup, the generator's sampled log condition number) stays below
# the log of the condition number a block product may reach before QR loses
# digits of its smallest finite direction
_BLOCK_MAX = 32
_BLOCK_LOG_COND = math.log(1e6)


def _orbit_phases(freqs, ts, a):
    """e^{2 pi i k t a}, (K, T), for frequencies k and orbit steps t: with
    hi = a on 26 bits, t hi and k (t hi mod 1) are exact for t < 2^27, and
    reduced toward zero mod 1 the phases of k and -k stay conjugate."""
    hi = math.ldexp(round(math.ldexp(a, 26)), -26)
    arg = np.fmod(np.outer(freqs, np.fmod(ts * hi, 1.0)), 1.0) + np.outer(freqs, ts) * (a - hi)
    return np.exp(2j * np.pi * arg)


def _iterate_coeffs(A, a, N, lengths):
    """r -> (kmin_r, coefficients (K_r, d, d)) of L_r = A(x+(r-1)a)···A(x)
    for r > 0 in lengths, built by doubling on N > r(K-1) points:
    L_r(x) = L_{r-h}(x + h a) L_h(x) with h = r // 2, so log2 r to
    2 log2 r lengths are built, each from the inverse FFTs of the spectrum
    of L_h and of that of L_{r-h} twisted by h a, one product and one FFT.
    A spectrum is kept only while a longer length still reads it.  Each L_r
    returned is cut at both ends where it reaches the build's own rounding
    (rounding_cut)."""
    K, need = len(A.c), _doubling_lengths(lengths)
    # length -> the longest length read off it
    last = {q: r for r in sorted(need) if r > 1 for q in (r // 2, r - r // 2)}
    specs, out = {1: np.zeros(A.shape + (N,), dtype=complex)}, {}
    specs[1][..., (A.kmin + np.arange(K)) % N] = np.moveaxis(A.c, 0, -1)
    for r in sorted(need):
        if r > 1:
            h, lo = r // 2, (r - r // 2) * A.kmin
            # bin j holds frequency lo + ((j - lo) mod N) of the left factor
            twist = _orbit_phases(lo + (np.arange(N) - lo) % N, np.array([h]), a)[:, 0]
            left = np.fft.ifft(specs[r - h] * twist, norm="forward")
            right = np.fft.ifft(specs[h], norm="forward")
            for q in {h, r - h}:
                if last[q] == r:  # no longer length reads it
                    del specs[q]
            specs[r] = np.fft.fft(_mul_last(left, right), norm="forward")
            del left, right
        if r in lengths:
            kr = r * A.kmin + np.arange(r * (K - 1) + 1)
            kr = kr[rounding_cut(np.abs(specs[r][..., kr % N]).max(axis=(0, 1)))]
            out[r] = kr[0], np.moveaxis(specs[r][..., kr % N], -1, 0)
        if r not in last:
            del specs[r]
    return out


def _doubling_lengths(lengths):
    """The lengths the doubling of the positive lengths passes: r, and for
    r > 1 those of r // 2 and r - r // 2."""
    need, todo = set(), [r for r in lengths if r > 0]
    while todo:
        r = todo.pop()
        if r not in need:
            need.add(r)
            todo += [r // 2, r - r // 2] if r > 1 else []
    return need


def _iterate_points(K, s):
    """The FFT length N > s(K-1), a power of two, whose grid holds every
    frequency of L_s for K coefficients of A."""
    return 1 << (s * (K - 1)).bit_length()


def check_orbit_lattice(C, M):
    """Raise ValueError unless one Lyapunov step over the M^l orbit lattice
    of C, 16 d^2 M^l bytes of complex d x d matrices, fits _LATTICE_BYTES:
    M <= 64 at l = 2 and d <= 4, M <= 11 at l = 4 and d = 2."""
    d, l = C.dim, C.base_dim
    size = 16 * d * d * M ** l
    if size > _LATTICE_BYTES:
        top = int((_LATTICE_BYTES / (16 * d * d)) ** (1 / l)) + 1
        while top and 16 * d * d * top ** l > _LATTICE_BYTES:
            top -= 1
        raise ValueError(f"a Lyapunov step on the {M}^{l} orbit lattice of a {d} x {d} "
                         f"cocycle takes {size} bytes, above the sweep's {_LATTICE_BYTES}; "
                         f"at most {top} orbits per frequency fit")


def _sweep_layout(C, M, s, ends):
    """(bounds, reads): the step ranges of a sweep over the consecutive
    spans between ends, each cut into ranges from its start, and the block
    path of its blocks of s.

    Exact input reads its blocks off the iterate L_s (reads) when building
    L_s, and the L_r of each span's short last block, by doubling
    (_iterate_coeffs) costs fewer flops than the reads save.  Each length
    the doubling passes is charged for its FFTs and its product on N
    points, N d^2 (2 log2 N + d), plus 2^13 for its array ops.  Timings of
    the block path both ways on a 2-core x86 host leave that fixed cost
    loose from 2^12 to 2^15; 2^13 sits about an octave inside two bounds:
    above 2^13.9 the warmup of random_invertible(3, d=3) at M = 64 (blocks
    of 11, short blocks of 10) would stop reading, which
    test_low_degree_multiplies_no_steps pins, and below 2^11.9 the 1 x 1
    wedges of lyapunov-exact would read, where multiplying is faster.  A
    block read evaluates at most the K_s = s(K-1)+1 coefficients of L_s
    where s multiplied steps evaluate sK and take s - 1 products, so a step
    and orbit saves about d^2 (d + 1 - 1/s); at s = 1, L_1 = A needs no
    build.  Degree-64 input keeps multiplying: building its L_s on
    thousands of points outweighs that saving.  A range holds whole blocks,
    as many as keep near _CHUNK_BYTES the arrays that path materialises:
    per block read off L_s its K_s = s(K-1)+1 scaled coefficients and two
    (d, d, batch) products, per block of multiplied steps s steps of K
    coefficients and three (d, d, batch) arrays.  A grid block, its steps
    evaluated in pieces (_sweep_blocks), leaves its (batch, k) R-diagonal
    and the bookkeeping lyapunov_spectrum does on it: about eight float
    arrays of that shape at k = d, 64 d batch bytes.
    """
    d, batch = C.dim, M ** C.base_dim
    reads, block = False, 64 * d * batch  # a grid block: its R-diagonal and bookkeeping
    if C.is_exact:
        K, spans = len(C.matrix.c), [b - a for a, b in zip(ends, ends[1:])]
        N = _iterate_points(K, s)
        # L_s and the L_r of each span's short last block, r = span mod s
        lengths = _doubling_lengths({s} | {p % s for p in spans})
        build = (len(lengths) - 1) * (N * d * d * (2 * math.log2(N) + d) + 2 ** 13)
        reads = s == 1 or build < sum(spans) * M * d * d * (d + 1 - 1 / s)
        block = 16 * d * d * ((s * (K - 1) + 1 + 2 * batch) if reads else (K + 3 * batch) * s)
    step = s * max(1, _CHUNK_BYTES // block)
    return [(lo, min(lo + step, b)) for a, b in zip(ends, ends[1:])
            for lo in range(a, b, step)], reads


def _sweep_blocks(C, M, bounds, s, reads):
    """Yield the blocks of s consecutive steps on the M^l orbit lattice for
    each step range of bounds, the last block short when s does not divide
    the range: exact input's ordered products, (d, d, blocks, batch), or a
    grid's (without reads) list of iterators over its (d, d, batch) steps,
    evaluated in pieces of about _CHUNK_BYTES.  A step A(x_b + t a) scales the coefficients
    (exact, or a grid's above rounding) by one step phase table and
    contracts them with one start phase table per frequency.  With reads
    (exact input only, _sweep_layout) the product of s steps from t is
    L_s(x_b + t a), read off L_s as a step is off A: L_s and the L_r of the
    short last blocks are built once by doubling (_iterate_coeffs), each
    cut to its coefficients above rounding.  Else exact steps multiply."""
    # r -> the lowest frequency per axis and the coefficients of L_r
    iters = {1: ((C.matrix.kmin,), C.matrix.c) if C.is_exact else C.matrix.coefficients()}
    starts = {}
    if reads and s > 1:
        A, lengths = C.matrix, {s} | {(h - l) % s for l, h in bounds}
        built = _iterate_coeffs(A, C.alpha, _iterate_points(len(A.c), s), lengths)
        iters = {r: ((kmin,), coeffs) for r, (kmin, coeffs) in built.items()} | iters

    def at(r, ts):  # L_r at x_b + t a, (d, d, T, batch)
        kmins, coeffs = iters[r]
        freqs = [k + np.arange(n) for k, n in zip(kmins, coeffs.shape)]
        if r not in starts:  # x_b = b / M, one table per frequency
            starts[r] = [_orbit_phases(f, np.arange(M), 1.0 / M) for f in freqs]
        phases = _orbit_phases(freqs[0], ts, C.frequencies[0])
        for f, a in zip(freqs[1:], C.frequencies[1:]):  # (K_1, ..., K_j, T)
            phases = phases[..., None, :] * _orbit_phases(f, ts, a)
        # the step phases scale d^2 coefficients a frequency, not batch start phases
        steps = coeffs[..., None] * phases[..., None, None, :]
        for start in starts[r]:  # each contraction appends one lattice axis
            steps = np.tensordot(steps, start, axes=(0, 0))
        return steps.reshape(steps.shape[:3] + (M ** len(freqs),))

    def steps(lo, end):  # A(x_b + t a), (d, d, batch), for lo <= t < end
        piece = max(1, _CHUNK_BYTES // (16 * C.dim ** 2 * M ** C.base_dim))
        for t in range(lo, end, piece):
            yield from np.moveaxis(at(1, np.arange(t, min(t + piece, end))), 2, 0)

    for lo, end in bounds:
        if reads:  # the last block, full or short, is L_r for r steps left
            ts = np.arange(lo, end, s)
            r = end - ts[-1]
            yield at(s, ts) if r == s else np.concatenate([at(s, ts[:-1]), at(r, ts[-1:])], axis=2)
        elif C.is_exact:
            yield _block_products_last(at(1, np.arange(lo, end)), s)
        else:  # each block takes its s steps off the range's one stream
            yield [islice(it, s) for it in repeat(steps(lo, end), -(-(end - lo) // s))]


def _block_length(gap):
    """Orbit steps per QR for a per-step log spread gap of the finite
    R-diagonal: the largest integer s up to _BLOCK_MAX with
    s * gap <= _BLOCK_LOG_COND, at least 1 (1 for an infinite gap)."""
    if _BLOCK_MAX * gap <= _BLOCK_LOG_COND:
        return _BLOCK_MAX
    return max(1, int(_BLOCK_LOG_COND / gap))


def _step_spread(diag, steps):
    """The widest log ratio of |R_jj| in diag, (blocks, batch, k), over a
    block and orbit where none has died, divided by that block's own steps
    (0 with none alive): the per-step spread of blocks of steps steps."""
    lo, hi = diag.min(axis=-1), diag.max(axis=-1)
    alive = lo > 1e-14 * hi
    per_step = np.log(hi[alive] / lo[alive]) / np.broadcast_to(steps[:, None], alive.shape)[alive]
    return float(per_step.max(initial=0.0))


def _mul_last(a, b):
    """The products a @ b of two batch-last stacks, (d, d, ...) each: d
    broadcast multiply-adds over the whole stack."""
    out = a[:, :1] * b[:1]
    for j in range(1, a.shape[1]):
        out += a[:, j:j + 1] * b[j:j + 1]
    return out


def _block_products_last(mats, s):
    """The ordered products of s consecutive step matrices held batch-last,
    (d, d, T, batch) to (d, d, ceil(T/s), batch): neighbouring pairs, later
    step on the left, in log2 s levels of _mul_last.  A short last block of
    the steps left is reduced alike, not padded with identities, which
    would copy the chunk.  The tree serves exact input only (_sweep_blocks)."""
    d, _, T, batch = mats.shape
    full = T // s * s
    prods = []
    for m in (mats[:, :, :full].reshape(d, d, full // s, s, batch), mats[:, :, None, full:]):
        while m.shape[3] > 1:
            n = m.shape[3]
            pairs = _mul_last(m[:, :, :, 1::2], m[:, :, :, 0:n - 1:2])
            m = pairs if n % 2 == 0 else np.concatenate([pairs, m[:, :, :, -1:]], axis=3)
        if m.size:
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


@cache
def _start_frame(d):
    """The fixed random unitary (d, d) whose first k columns start every
    sweep of a k-frame and whose columns complete a dead one: no column of
    a random frame lies exactly in a structural kernel, where a basis vector
    of triangular input can lie."""
    rng = np.random.default_rng(12345)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q0, _ = np.linalg.qr(g)
    q0.flags.writeable = False
    return q0


def _gram_schmidt(y):
    """The orthonormal frame and |R_jj| of a batch-last stack y, (d, k, batch):
    the Q and |diag R| of a reduced QR factorisation, shapes (d, k, batch)
    and (k, batch).

    Classical Gram-Schmidt with one reorthogonalisation pass, which keeps the
    frame orthonormal to working precision.  A column whose residual is
    exactly zero (its orbit fell into a kernel) records |R_jj| = 0 and is
    completed by the column of _start_frame(d) with the largest residual
    against the earlier columns, orthogonalised twice.
    """
    q = np.empty_like(y)
    r = np.empty(y.shape[1:])
    for j in range(y.shape[1]):
        v = _orthogonalise(y[:, j], q[:, :j])
        r[j] = norm = _norm(v)
        dead = np.nonzero(norm == 0.0)[0]
        if dead.size:
            v, norm = v.copy(), norm.copy()
            for c in _start_frame(len(y)).T:
                e = _orthogonalise(np.repeat(c[:, None], dead.size, axis=1),
                                   q[:, :j, dead])
                en = _norm(e)
                better = en > norm[dead]
                v[:, dead[better]] = e[:, better]
                norm[dead[better]] = en[better]
        q[:, j] = v / norm
    return q, r


def _qr_blocks(prods, q):
    """Carry the frame q, (d, k, batch), through a range's blocks, its block
    products (d, d, blocks, batch) or a grid's list of iterators over their
    (d, d, batch) steps: one Gram-Schmidt QR per block of P q, or of q times
    each step in turn.  Returns the last frame and each block's |R_jj|,
    (blocks, batch, k)."""
    grid = isinstance(prods, list)
    diag = np.empty((len(prods) if grid else prods.shape[2],) + q.shape[2:] + q.shape[1:2])
    for i in range(len(diag)):
        for step in prods[i] if grid else (prods[:, :, i],):
            q = _mul_last(step, q)
            del step  # before the next is fetched: no two pieces live at once
        q, r = _gram_schmidt(q)
        diag[i] = r.T
    return q, diag


def lyapunov_spectrum(C, n=1000, M=64):
    """Exponent estimates from M grid orbits of length n; -inf where certified.

    C is a Cocycle or its Structure (Structure.of), whose tol is the rank
    tolerance; n, an integer of at least 2, is the orbit length and M, a
    positive integer, the orbit count per frequency (a bool is neither),
    small enough that one step over the M^l orbits of l frequencies fits
    _LATTICE_BYTES (check_orbit_lattice).
    The number k of finite exponents is the stabilised rank of the
    iterates, profile.min_rank: by the paper's first theorem applied to the exterior
    powers, L_j = -inf exactly when the j-th exterior power is nilpotent,
    that is when rank A_p < j for p = stabilized_at.  Slots k+1..d are
    reported as -inf with flag_reason "rank A_p = k"; for k = 0 no orbit is
    swept at all.

    The finite exponents come from a QR sweep of a k-frame, the first k
    columns of a fixed random unitary (_start_frame): products of the whole
    orbit are never formed; QR re-orthonormalises the k columns and
    accumulates log singular growth per direction, and the first k columns
    of a QR depend on the first k columns of P q alone, so the d - k
    directions without growth are never swept (Benettin, Galgani, Giorgilli
    and Strelcyn 1980).  An initial warmup fifth of the run (at most 64
    steps) lets the random starting frame settle into the growth filtration
    and is excluded from the averages; it runs one QR per block of s0
    steps, s0 the largest integer up to 32 with s0 g0 <= ln 1e6 for g0 the
    widest ln(sigma_1/sigma_d) of L_1 over its rank-grid samples
    (Structure.log_cond, from the profile's SVD).  As sigma_d(P) <= |R_jj|
    <= sigma_1(P) for any orthonormal frame, such a block product is as well
    conditioned as the blocks after the warmup; a singular sample, so every
    k < d input, gives s0 = 1, one QR per step.  After it, one QR per block
    of s steps: the R-diagonal of a block product is the product of the
    per-step R-diagonals, and s (the largest integer up to 32 the same rule
    allows) is chosen from the per-step spread of the finite R-diagonal in
    the second half of the warmup, each block's spread divided by its own
    steps (warmup ranges end at its half), so that a block product stays
    well conditioned.  The sweep runs on Structure.unit, the generator
    divided by a power of two near its size, so a block product neither
    overflows nor underflows, and adds the log of that scale back.  Block
    products and all bookkeeping are computed a range of steps at a time,
    whole blocks of s on exact and grid input alike, as many as the arrays
    the block path materialises allow (_sweep_layout).  A direction whose
    R-diagonal entry dies in a block (exactly zero or below 1e-14 of the
    largest) adds no growth and its steps are not counted in its average.

    Every array of the sweep is held batch-last, block products (d, d, ...,
    batch) and the frame (d, k, batch) over the M^l orbits of l
    frequencies, so one arithmetic op covers all orbits: for exact entries
    a block product is read off the iterate L_s where that saves flops,
    else formed pairwise in log2 s levels of steps (_sweep_blocks); grid
    samples form none but carry the frame through each step of a block, in
    pieces of about _CHUNK_BYTES.  P q or the carried frame is
    re-orthonormalised by classical Gram-Schmidt with one reorthogonalisation
    pass ("twice is enough", Giraud, Langou and Rozloznik 2005).  A column
    whose residual there is exactly zero, an orbit fallen into ker A,
    records |R_jj| = 0, which the death floor counts, and the frame is
    completed by the column of the random start frame with the largest
    residual, orthogonalised twice: a basis vector could lie in a
    structural kernel and keep the column dead.

    stderr combines the spread over orbits with a Richardson estimate of the
    still-settling bias: a running mean converging like 1/t leaves a residual
    of three times its drift over the final quarter of the run.  Spread alone
    misses that bias because every orbit shares the transient when two
    exponents nearly coincide.  The certified -inf slots report raw
    estimate -inf and stderr 0.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"the orbit length n must be an integer of at least 2, got {n!r}")
    if n < 2:
        raise ValueError("a Lyapunov estimate needs at least 2 iterates")
    if isinstance(M, bool) or not isinstance(M, (int, np.integer)) or M < 1:
        raise ValueError(f"the orbit count M must be a positive integer, got {M!r}")
    st = Structure.of(C)
    C, d = st.cocycle, st.cocycle.dim
    check_orbit_lattice(C, M)
    prof = st.profile
    k = prof.min_rank
    reasons = [None] * k + [f"rank A_{prof.stabilized_at} = {k}"] * (d - k)
    divergent = [j >= k for j in range(d)]
    if k == 0:
        inf = [float("-inf")] * d
        return LyapunovReport(inf, list(inf), [0.0] * d, divergent, n, M, reasons)
    batch = M ** C.base_dim
    scale, U = st.scale, st.unit
    # only the k finite directions are swept: the first k columns of a QR
    # depend on the first k columns of P q alone
    q = np.broadcast_to(_start_frame(d)[:, :k, None], (d, k, batch)).copy()

    warmup = min(n // 5, 64)
    n_eff = n - warmup
    # the Richardson term reads the running mean after mid swept steps and
    # after all of them, so a range, and with it a block, ends at both
    quarter = max(n_eff // 4, 2)
    mid = n_eff - quarter + 1

    def sweep(s, *ends):  # carry q from the first end to the last
        nonlocal q
        bounds, reads = _sweep_layout(U, M, s, ends)
        blocks = _sweep_blocks(U, M, bounds, s, reads)
        for lo, hi in bounds:  # no block products held while the next range is built
            q, diag = _qr_blocks(next(blocks), q)
            yield lo, hi, diag, np.minimum(s, hi - lo - s * np.arange(len(diag)))

    # warmup ranges end at its half, so no block straddles the half s reads
    half = warmup // 2
    warm = sweep(_block_length(st.log_cond), 0, half, warmup)
    gap = max((_step_spread(diag, steps) for lo, _, diag, steps in warm if lo >= half),
              default=0.0)
    logr = np.zeros((batch, k))
    deaths = np.zeros((batch, k), dtype=int)
    running = {}
    for _, hi, diag, steps in sweep(_block_length(gap) if warmup else 1, warmup, warmup + mid, n):
        # a direction dies in a block when its R-diagonal entry is exactly
        # zero or below the per-sample relative floor; it then adds no growth
        # and the block's steps count as dead
        floor = 1e-14 * diag.max(axis=2, keepdims=True)
        dead = diag <= floor
        deaths += (dead * steps[:, None, None]).sum(axis=0)
        grow = np.where(dead, 0.0, np.log(np.where(dead, 1.0, diag)))
        logr = logr + grow.sum(axis=0)
        running[hi - warmup] = logr.mean(axis=0) / (hi - warmup)

    alive = n_eff - deaths
    per_orbit = np.where(alive > 0, logr / np.maximum(alive, 1) + math.log(scale),
                         -np.inf)

    # the spectrum is a set: an orbit whose QR columns lock onto a permuted
    # filtration (a column completed after it died, say) still estimates the
    # same exponents, so sort each orbit descending before aggregating
    est_sorted = -np.sort(-per_orbit, axis=1, kind="stable")

    finite_dir = np.isfinite(est_sorted).all(axis=0)
    po_safe = np.where(np.isfinite(est_sorted), est_sorted, 0.0)
    raw = np.where(finite_dir, po_safe.mean(axis=0), -np.inf)

    # running mean settling like 1/t leaves a bias of 3x its final-quarter
    # drift; orbit spread cannot see it since the transient is common mode
    conv = 3.0 * np.abs(running[n_eff] - running[mid])
    err = np.where(finite_dir, po_safe.std(axis=0) / np.sqrt(batch) + conv, 0.0)

    # the column means of descending rows descend, so raw needs no sort;
    # slots k+1..d are certified -inf and never swept
    raw = [float(v) for v in raw] + [float("-inf")] * (d - k)
    err = [float(v) for v in err] + [0.0] * (d - k)
    return LyapunovReport(list(raw), raw, err, divergent, n, M, reasons)


def _sup_scale(F):
    """The entrywise coefficient bound of exact entries, the largest sample
    of a grid."""
    if isinstance(F, MatrixFunction):
        return F.sup_bound()
    return float(np.abs(F.samples).max())


def _unit_scale(C, scale):
    """C with its generator divided by scale, a power of two: exact, and
    1/scale, which overflows when scale is subnormal, is never formed."""
    if C.is_exact:
        return Cocycle(C.frequencies, C.matrix / scale)
    return Cocycle(C.frequencies,
                   GridMatrixFunction(real_divide(C.matrix.samples, scale)))


class Structure:
    """The iterate structure of a cocycle, built once per input and shared.

    The ladder holds L_n = A_n / scale^n, scale = 2^exponent the power of
    two in (size/2, size] for size = _sup_scale(C.matrix): an exact
    division, so L_n has the kernels and ranges of A_n and thresholds move
    by a known factor.  It grows only as far as a question needs.  profile
    (rank_profile; k and p are its min_rank and stabilized_at), log_cond
    (the widest sampled ln(sigma_1/sigma_d) of L_1, inf at a singular
    sample, from the profile's SVD) and nilpotency (detect_nilpotency) are
    computed on first use.  kernel builds the kernel field of L_n once per
    grid, so the normal forms and the splitting share it.  Fields of grids
    a widening rejected are kept too, since another form may settle there:
    at most six grids per iterate, for the life of the Structure.  fit is
    the one widening loop of every fitted form; flag_form conjugates A by
    the frame adapted to a flag: the triangular form and the split are both.

    Tolerances are set here only: every decision read from the Structure
    (nilpotency certificate, rank profile, kernel and frame fields,
    inversion bound) uses tol; with tol None the certificate uses 1e-10
    (nil_tol) and every rank decision 1e-9 (tol).
    """

    def __init__(self, C, tol=None):
        self.cocycle = C
        # bench/tracer.py reads the base of lyapunov_spectrum's first argument
        self.frequencies = C.frequencies
        self.tol = 1e-9 if tol is None else tol
        self.nil_tol = 1e-10 if tol is None else tol
        self.size = _sup_scale(C.matrix)
        self.exponent = math.frexp(self.size)[1] - 1
        self.scale = math.ldexp(1.0, self.exponent)
        self.unit = _unit_scale(C, self.scale)
        # no question reads past L_{d+1}
        self._ladder = iterates(self.unit, C.dim + 1)
        self._iterates = []
        self._kernels = {}

    @classmethod
    def of(cls, C):
        """C itself when it is a Structure, else Structure(C) at the default
        tolerances."""
        return C if isinstance(C, cls) else cls(C)

    def exact_cocycle(self, what):
        """The cocycle; UnsupportedBase unless its entries are exact, as what needs."""
        if not self.cocycle.is_exact:
            raise UnsupportedBase(f"{what} needs exact entries over a one-frequency base")
        return self.cocycle

    def iterate(self, n):
        """L_n = A_n / scale^n."""
        while len(self._iterates) < n:
            self._iterates.append(next(self._ladder))
        return self._iterates[n - 1]

    def kernel(self, n, M):
        """The kernel field of L_n sampled on the grid M, in the SVD's gauge."""
        if (n, M) not in self._kernels:
            self._kernels[n, M] = kernel_field(self.iterate(n), M, self.tol)
        return self._kernels[n, M]

    def flag(self, ns, M):
        """The kernel fields of L_n, n in ns, on the grid M; StructureViolation
        unless their dimensions are the profile's d - rank L_n (the rank
        staying at the last one past the profile's end)."""
        ranks = self.profile.ranks
        dims = [self.cocycle.dim - ranks[min(n, len(ranks)) - 1] for n in ns]
        flag = [self.kernel(n, M) for n in ns]
        if [K.k for K in flag] != dims:
            raise StructureViolation(f"kernel dimensions {[K.k for K in flag]}, "
                                     f"the rank profile gives {dims}")
        return flag

    def fit(self, deg, build):
        """build(Mg) and the grid Mv its form is verified on, for a form fitted
        from samples of exact data of degree deg (the flag's highest iterate,
        or the split blocks): the one resolution rule of every fitted form.
        Mg is the first of the rank grid of deg (at least 64 samples), twice
        that, ... up to 8 field_grid where build raises no TailTooFat (kernel
        bundles and couplings can decay slowly; all but the Jordan tops fit
        at poly_from_samples' default tail); Mv = 2 max(Mg, field_grid), as
        dense as a fit on field_grid gave."""
        base, last = rank_grid(deg), 8 * field_grid(deg)
        for Mg in [base << i for i in range((last // base).bit_length())]:
            try:
                return build(Mg), 2 * max(Mg, field_grid(deg))
            except TailTooFat as exc:
                # a kept traceback would hold the failed build's frames in a cycle
                err = exc.with_traceback(None)
        raise err

    def flag_form(self, ns):
        """U, B = U*(x+a) A(x) U(x), the block sizes, U's per-sample unitarity
        defect max |U*U - I| and B's samples on the verification grid, for
        the unitary frame U adapted to the flag of L_n, n in ns (ascending).

        Block j of U spans the part of ker L_{ns[j-1]} orthogonal to the
        kernel before it, the last block the rest (all of it with no ns).
        The flag (self.flag) and the block sizes are checked before any fit;
        each block is the parallel-transport gauge of phase_align, fitted
        at poly_from_samples' default tail on the grid fit settles on.  B
        is formed at unit scale, where its products stay in the float range,
        and read back in the units of A (exact: the scale is a power of two).
        """
        d = self.cocycle.dim

        def build(Mg):
            flag = self.flag(ns, Mg)
            if not flag:
                return MatrixFunction.identity(d), (d,)
            fields = ([flag[0]]
                      + [complement_within(a, b, self.tol) for a, b in zip(flag, flag[1:])]
                      + [orthocomplement(flag[-1])])
            sizes = tuple(S.k for S in fields)
            if sum(sizes) != d:
                raise StructureViolation(f"block sizes {sizes} do not fill dimension {d}")
            blocks = [poly_from_samples(phase_align(S).frames) for S in fields]
            return hstack(blocks), sizes

        (U, sizes), Mv = self.fit(self.cocycle.matrix.degree * max(ns, default=1), build)
        B = U.adjoint().translate(self.cocycle.alpha) @ self.iterate(1) @ U
        if B.max_coeff() > sys.float_info.max / self.scale:
            raise FloatRangeExceeded("a conjugated generator leaves the float range")
        B = B * self.scale
        usamp = U.sample_grid(Mv)
        defect = np.abs(np.conj(np.swapaxes(usamp, 1, 2)) @ usamp - np.eye(d)).max(axis=(1, 2))
        return U, B, sizes, defect, B.sample_grid(Mv)

    @cached_property
    def _l1_samples(self):
        return rank_samples(self.iterate(1))

    @cached_property
    def log_cond(self):
        sv = self._l1_samples[0]
        return (float((np.log(sv[:, 0]) - np.log(sv[:, -1])).max())
                if sv[:, -1].all() else math.inf)

    @cached_property
    def profile(self):
        samples = self._l1_samples
        sv = samples[0]
        s1 = float(sv.max())
        if s1 == 0.0:
            return RankProfile([0], 1, 0, {1: []})
        d = self.cocycle.dim
        ranks = []
        exceptional = {}
        for n in range(1, d + 2):
            r, exc = max_rank(self.iterate(n), tol=self.tol, scale=s1 ** n,
                              samples=samples if n == 1 else None)
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

    @cached_property
    def nilpotency(self):
        scale = self.size
        if scale == 0.0:
            return NilpotencyReport(True, 1, {"certificate": 0.0, "scale": 0.0})
        # L_n unit^n is A_n / size^n, the unit-scale iterate the report reads
        unit = self.scale / scale
        prof = self.profile
        n = prof.stabilized_at
        if prof.min_rank == 0:
            cert = _sup_scale(self.iterate(n)) * unit ** n
            if cert <= self.nil_tol:
                return NilpotencyReport(True, n, {"certificate": cert, "scale": scale})
        # a nilpotent A has degree at most rank A + 1
        n = prof.ranks[0] + 1
        sv, pts = rank_samples(self.iterate(n))
        j = int(sv[:, 0].argmax())
        return NilpotencyReport(False, None, {"max_sample_norm": float(sv[j, 0]) * unit ** n,
                                              "at": pts[j].tolist(), "scale": scale})


def rank_profile(C):
    """Maximal ranks of the iterates until they stabilize.

    The profile of Structure.of(C).  The singular values of each L_n are
    counted above the Structure's tol times the n-th power of the largest
    sampled singular value of L_1, as if the generator were divided by that
    value, so an iterate that collapses below float noise registers as rank
    zero instead of noise rank.  The ranks fall strictly until they stop, by
    step d at the latest, so stabilized_at is always set: it is the first
    p with rank A_p = min_rank.
    """
    return Structure.of(C).profile


def detect_nilpotency(C):
    """Decide whether some iterate vanishes identically, with a certificate.

    The verdict of Structure.of(C), read off its rank profile: A is
    nilpotent of degree p = stabilized_at (never above d) when the profile
    reaches rank 0 and the certificate of L_p is at most nil_tol.  The
    certificate and the witness's sample norm are unit-scale numbers (the
    generator divided by _sup_scale), so the verdict does not depend on the
    units of A.  For exact entries the certificate is the largest l1 sum of
    an entry's coefficients, which bounds that entry on the whole circle;
    for grid samples it is the largest sample.  Otherwise the witness is the
    largest sampled spectral norm of L_{r+1}, r the profile's first rank,
    and its point (x, or the grid coordinates): a nilpotent A has degree at
    most rank A + 1.  A StructureViolation of the profile surfaces here.
    """
    return Structure.of(C).nilpotency


def exact_L1_rank_one(C):
    """Top exponent of a rank-one cocycle in closed form.

    For rank-one A and an entry a_ij that is not identically zero,
    A = A e_j e_i* A / a_ij, so the n-th iterate is
    col_j A(x+(n-1)a) * prod_{m<n-1} kappa(x+ma) * row_i A(x) / prod_{m<n} a_ij(x+ma)
    with kappa(x) = row_i A(x+a) . col_j A(x), the (i, j) entry of A_2, and
    L1 = int ln|kappa| - int ln|a_ij|: two Mahler measures of exact
    polynomials.  Both are read on the unit-scale generator of
    Structure.of(C), at its largest entry, and the log of the scale is added
    back.  The result is -inf exactly when the rank profile certifies
    rank A_p = 0, the certificate lyapunov_spectrum reports for its -inf
    slots.
    """
    st = Structure.of(C)
    st.exact_cocycle("the closed-form exponent")
    if st.profile.ranks[0] != 1:
        raise RankNotOne(f"maximal rank is {st.profile.ranks[0]}, not 1")
    if st.profile.min_rank == 0:
        return float("-inf")
    A = st.unit.matrix
    i, j = np.unravel_index(int(np.abs(A.c).max(axis=0).argmax()), A.shape)
    kappa = st.iterate(2).entry(i, j)
    return log_integral(kappa) - log_integral(A.entry(i, j)) + math.log(st.scale)
