"""Matrix-valued analytic functions on the circle (and sampled torus grids).

MatrixFunction holds a matrix function as one coefficient tensor
c[K, rows, cols] over the frequencies kmin..kmin+K-1; products (direct
convolution), translation, adjoint, sums, blocks and FFT sampling act on
that tensor and truncate entry by entry as TrigPoly does.  poly_from_samples
turns grid samples back into a MatrixFunction, with a Fourier tail check.
GridMatrixFunction carries samples of a band-limited matrix function over an
l-dimensional torus grid, the only backing for multi-frequency bases, and
gives the coefficients of their interpolant cut where they reach rounding
(rounding_cut, the cut the exact sweep makes on its iterates too);
shift_samples moves grid samples by FFT, so this module owns the Fourier
conventions of the grid representation.
"""

import itertools

import numpy as np

from .errors import AliasingRisk, TailTooFat
from .trigpoly import TRUNCATION_RELATIVE, TrigPoly, default_grid_size, real_divide, truncated

_TWO_PI_I = 2j * np.pi


def _aligned(mats):
    """The lowest frequency of mats and their tensors zero-padded to one range."""
    live = [m for m in mats if not m.is_zero]
    kmin = min((m.kmin for m in live), default=0)
    K = max((m.kmin + len(m.c) for m in live), default=kmin) - kmin
    out = []
    for m in mats:
        t = np.zeros((K,) + m.shape, dtype=complex)
        t[m.kmin - kmin:m.kmin - kmin + len(m.c)] = m.c
        out.append(t)
    return kmin, out


def _convolve(ka, a, kb, b, mul, shape):
    """The product of two coefficient sequences, out[i:i+Kb] += mul(a[i], b):
    each term is formed on its own, so a coefficient whose terms all
    vanish stays exactly zero."""
    if not (len(a) and len(b)):
        return MatrixFunction.zero(*shape)
    out = np.zeros((len(a) + len(b) - 1,) + shape, dtype=complex)
    for i, ai in enumerate(a):
        out[i:i + len(b)] += mul(ai, b)
    return MatrixFunction.from_coeffs(ka + kb, out)


class MatrixFunction:
    """Matrix of trigonometric polynomials; exact one-frequency representation.

    c[k - kmin] is the matrix of the e^{2 pi i k x} terms; K = len(c) = 0 is
    the zero function.  Built from a rows x cols nested list of TrigPoly
    entries, or by from_coeffs from a coefficient tensor.
    """

    __slots__ = ("kmin", "c")

    def __init__(self, entries):
        entries = np.asarray(entries, dtype=object)
        if entries.ndim != 2:
            raise ValueError("entries must form a 2-d array")
        if not all(isinstance(e, TrigPoly) for e in entries.flat):
            raise TypeError("all entries must be TrigPoly")
        live = [e for e in entries.flat if not e.is_zero]
        kmin = min((e.kmin for e in live), default=0)
        K = max((e.kmax + 1 for e in live), default=kmin) - kmin
        c = np.zeros((K, entries.size), dtype=complex)
        for n, e in enumerate(entries.flat):
            c[e.kmin - kmin:e.kmin - kmin + len(e.c), n] = e.c
        self._set(kmin, c.reshape((K,) + entries.shape))

    def _set(self, kmin, c):
        c.setflags(write=False)
        self.kmin, self.c = kmin, c

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_coeffs(cls, kmin, c):
        """From coefficients c[K, rows, cols] of the frequencies
        kmin..kmin+K-1, truncated entry by entry."""
        c = np.asarray(c, dtype=complex)
        if c.ndim != 3:
            raise ValueError("coefficients must form a (K, rows, cols) array")
        out = cls.__new__(cls)
        out._set(*truncated(int(kmin), c))
        return out

    @classmethod
    def constant(cls, mat):
        return cls.from_coeffs(0, np.asarray(mat, dtype=complex)[None])

    @classmethod
    def identity(cls, d):
        return cls.constant(np.eye(d))

    @classmethod
    def zero(cls, rows, cols=None):
        return cls.from_coeffs(0, np.zeros((0, rows, rows if cols is None else cols)))

    # -- queries ----------------------------------------------------------

    @property
    def rows(self):
        return self.c.shape[1]

    @property
    def cols(self):
        return self.c.shape[2]

    @property
    def shape(self):
        return self.c.shape[1:]

    @property
    def degree(self):
        """Smallest N with all frequencies in [-N, N]; 0 for the zero function."""
        return max(abs(self.kmin), abs(self.kmin + len(self.c) - 1)) if len(self.c) else 0

    def __repr__(self):
        return f"MatrixFunction({self.rows}x{self.cols}, deg={self.degree})"

    def entry(self, i, j):
        """Entry (i, j) as a TrigPoly."""
        return TrigPoly(self.kmin, self.c[:, i, j])

    def max_coeff(self):
        """Largest coefficient magnitude over all entries; a natural scale."""
        return float(np.abs(self.c).max(initial=0.0))

    def sup_bound(self):
        """Entrywise l1-coefficient bound; dominates max |A(x)| entrywise."""
        return float(np.abs(self.c).sum(axis=0).max(initial=0.0))

    @property
    def is_zero(self):
        return len(self.c) == 0

    # -- evaluation --------------------------------------------------------

    def eval_mat(self, x):
        """Value at a single point x as a complex (rows, cols) array."""
        return self.sample_at(float(x))

    def sample_at(self, xs):
        """Values at an array of points: xs.shape + (rows, cols)."""
        xs = np.asarray(xs, dtype=float)
        ks = np.arange(self.kmin, self.kmin + len(self.c))
        phases = np.exp(_TWO_PI_I * np.multiply.outer(xs, ks))
        flat = self.c.reshape(len(ks), self.rows * self.cols)
        return (phases @ flat).reshape(xs.shape + self.shape)

    def sample_grid(self, M, shift=0.0):
        """Exact samples at x_j = j/M + shift: a fresh (M, rows, cols) array."""
        M = int(M)
        if M <= 2 * self.degree:
            raise AliasingRisk(f"grid M={M} cannot hold degree {self.degree}")
        F = self if shift == 0.0 else self.translate(shift)
        bins = np.zeros((M,) + self.shape, dtype=complex)
        bins[(F.kmin + np.arange(len(F.c))) % M] = F.c
        return np.fft.ifft(bins, axis=0) * M

    # -- algebra -------------------------------------------------------------

    def translate(self, alpha):
        """F(x + alpha): c_k times e^{2 pi i k alpha}."""
        ks = np.arange(self.kmin, self.kmin + len(self.c))
        phases = np.exp(_TWO_PI_I * alpha * ks)
        return MatrixFunction.from_coeffs(self.kmin, self.c * phases[:, None, None])

    def adjoint(self):
        """Conjugate transpose as a function: entry (i, j) -> conj of (j, i)."""
        kmax = self.kmin + len(self.c) - 1
        return MatrixFunction.from_coeffs(-kmax, np.conj(self.c[::-1]).transpose(0, 2, 1))

    def __matmul__(self, other):
        if not isinstance(other, MatrixFunction):
            other = MatrixFunction.constant(np.asarray(other))
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        return _convolve(self.kmin, self.c, other.kmin, other.c, np.matmul,
                         (self.rows, other.cols))

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        kmin, (a, b) = _aligned([self, other])
        return MatrixFunction.from_coeffs(kmin, a + b)

    def __sub__(self, other):
        return self + (other * (-1.0))

    def __mul__(self, scalar):
        if isinstance(scalar, TrigPoly):
            return _convolve(self.kmin, self.c, scalar.kmin, scalar.c[:, None, None],
                             np.multiply, self.shape)
        if not np.isscalar(scalar):
            raise TypeError("use @ for matrix products")
        return MatrixFunction.from_coeffs(self.kmin, self.c * scalar)

    def __rmul__(self, scalar):
        return self.__mul__(scalar)

    def __truediv__(self, x):
        """Entrywise division by a real number x."""
        return MatrixFunction.from_coeffs(self.kmin, real_divide(self.c, x))

    def block(self, r0, r1, c0, c1):
        return MatrixFunction.from_coeffs(self.kmin, self.c[:, r0:r1, c0:c1])

    # -- serialization ----------------------------------------------------------

    def to_json_dict(self):
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[self.entry(i, j).to_json_dict() for j in range(self.cols)]
                        for i in range(self.rows)],
        }

    @classmethod
    def from_json_dict(cls, data):
        rows, cols = int(data["rows"]), int(data["cols"])
        ent = data["entries"]
        if len(ent) != rows or any(len(r) != cols for r in ent):
            raise ValueError("entries shape does not match rows/cols")
        return cls([[TrigPoly.from_json_dict(ent[i][j]) for j in range(cols)] for i in range(rows)])


def hstack(mats):
    """Concatenate matrix functions side by side."""
    kmin, cs = _aligned(mats)
    return MatrixFunction.from_coeffs(kmin, np.concatenate(cs, axis=2))


def vstack(mats):
    kmin, cs = _aligned(mats)
    return MatrixFunction.from_coeffs(kmin, np.concatenate(cs, axis=1))


def poly_from_samples(vals, N=None, tol=TRUNCATION_RELATIVE):
    """MatrixFunction of degree <= N from samples (M, rows, cols) at x_j = j/M.

    N defaults to M/4.  Coefficients outside [-N, N], and those below 1e-14
    of the largest one (so degrees stay honest at the noise floor), are
    dropped; TailTooFat is raised when their relative l2 mass exceeds tol.
    tol defaults to TRUNCATION_RELATIVE, where the exact algebra truncates
    its own products, so a fit is accepted only as exact as they are.
    Raises AliasingRisk when N >= M/2.
    """
    vals = np.asarray(vals)
    M, rows, cols = vals.shape
    N = M // 4 if N is None else int(N)
    if 2 * N >= M:
        raise AliasingRisk(f"degree N={N} not recoverable from M={M} samples (need N < M/2)")
    co = np.fft.fft(vals, axis=0) / M
    band = np.arange(-N, N + 1) % M
    inband = np.abs(np.fft.fftfreq(M, 1.0 / M)) <= N
    amp = np.abs(co)
    keep = inband[:, None, None] & (amp > 1e-14 * amp.max())
    total = float((amp ** 2).sum())
    # summing the dropped mass directly avoids the sqrt(eps) cancellation
    # floor of total-minus-kept
    dropped = float((amp[~keep] ** 2).sum())
    tail = np.sqrt(dropped / total) if total > 0 else 0.0
    if tail > tol:
        raise TailTooFat(f"sample spectrum tail {tail:.3e} exceeds {tol:.1e}", tail)
    return MatrixFunction.from_coeffs(-N, np.where(keep, co, 0.0)[band])


def shift_samples(samples, shift, spectrum=None):
    """Samples of a band-limited field at x + shift from its samples at x.

    Grid axes (M_1, ..., M_l) come first, value axes after; shift has one
    entry per grid axis.  A shifted lattice is a lattice, so the Fourier shift
    theorem gives the trigonometric interpolant there from one phase twist (by
    shift mod 1, so orbit shifts accumulate no rounding) and one inverse FFT,
    O(M^l log M) work.  spectrum may pass fftn(samples) over the grid axes.
    """
    shift = np.atleast_1d(shift)
    gaxes = tuple(range(len(shift)))
    s = np.fft.fftn(samples, axes=gaxes) if spectrum is None else spectrum
    for ax, a in enumerate(shift):
        m = samples.shape[ax]
        shp = [1] * samples.ndim
        shp[ax] = m
        s = s * np.exp(_TWO_PI_I * np.fft.fftfreq(m, 1.0 / m) * (a % 1.0)).reshape(shp)
    return np.fft.ifftn(s, axes=gaxes)


def rounding_cut(big):
    """The slice from the first to the last entry of big, the largest
    coefficient magnitude per frequency of one axis, at least eps times
    its largest: a spectrum cut at both ends where it reaches rounding."""
    keep = np.nonzero(big >= np.finfo(float).eps * big.max())[0]
    return slice(keep[0], keep[-1] + 1)


class GridMatrixFunction:
    """Band-limited matrix function on an l-torus held as grid samples.

    samples has shape (M_1, ..., M_l, rows, cols); evaluation anywhere uses
    the trigonometric interpolant, which is exact when the underlying
    function has degree < M_i/2 in each variable.  iterates moves the
    samples along a rotation orbit by shift_samples (one FFT phase twist,
    O(M^l log M) per step, against O(M^2l) for sample_at); the Lyapunov sweep
    evaluates the interpolant's coefficients above rounding (coefficients)
    at its orbit points, as it does exact coefficients.
    """

    __slots__ = ("samples", "grid_shape", "_spec", "_coeffs")

    def __init__(self, samples):
        samples = np.asarray(samples, dtype=complex)
        if samples.ndim < 3:
            raise ValueError("samples must be (grid..., rows, cols)")
        self.samples = samples
        self.grid_shape = samples.shape[:-2]
        for m in self.grid_shape:
            if m < 2 or (m & (m - 1)) != 0:
                raise ValueError(f"grid sizes must be powers of two, got {self.grid_shape}")
        self._spec = None
        self._coeffs = None

    @property
    def base_dim(self):
        return len(self.grid_shape)

    @property
    def rows(self):
        return self.samples.shape[-2]

    @property
    def cols(self):
        return self.samples.shape[-1]

    @property
    def shape(self):
        return self.samples.shape[-2:]

    def __repr__(self):
        return f"GridMatrixFunction(grid={self.grid_shape}, {self.rows}x{self.cols})"

    def _spectrum(self):
        """Fourier coefficients (flattened) and per-axis centered frequencies."""
        if self._spec is None:
            axes = tuple(range(self.base_dim))
            spec = np.fft.fftn(self.samples, axes=axes) / np.prod(self.grid_shape)
            freqs = [np.fft.fftfreq(m, 1.0 / m).astype(int) for m in self.grid_shape]
            flat = spec.reshape(-1, self.rows, self.cols)
            kgrids = np.meshgrid(*freqs, indexing="ij")
            kflat = np.stack([k.reshape(-1) for k in kgrids], axis=1)
            self._spec = (kflat, flat)
        return self._spec

    def coefficients(self):
        """The lowest frequency per grid axis and the Fourier coefficients
        (K_1, ..., K_l, rows, cols) of the interpolant sample_at sums, each
        axis cut at both ends where they reach rounding (rounding_cut)."""
        if self._coeffs is None:
            axes = tuple(range(self.base_dim))
            spec = np.fft.fftshift(self._spectrum()[1].reshape(self.samples.shape), axes=axes)
            mag = np.abs(spec)
            cuts = tuple(rounding_cut(mag.max(axis=tuple(i for i in range(mag.ndim) if i != ax)))
                         for ax in axes)
            self._coeffs = (tuple(c.start - m // 2 for c, m in zip(cuts, self.grid_shape)),
                            spec[cuts])
        return self._coeffs

    def sample_at(self, points):
        """Values at points of shape (n, base_dim): returns (n, rows, cols)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        kflat, flat = self._spectrum()
        phase = np.exp(_TWO_PI_I * (points @ kflat.T))
        return np.einsum("nk,kij->nij", phase, flat)

    def eval_mat(self, point):
        return self.sample_at(np.asarray(point, dtype=float).reshape(1, -1))[0]

    def grid_points(self):
        """All grid points as an (prod(M), base_dim) array, row-major."""
        axes = [np.arange(m) / m for m in self.grid_shape]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.reshape(-1) for g in grids], axis=1)

    def all_samples(self):
        return self.samples.reshape(-1, self.rows, self.cols)

    def to_json_dict(self):
        return {
            "rows": self.rows,
            "cols": self.cols,
            "grid_shape": list(self.grid_shape),
            "samples_re": self.samples.real.reshape(-1).tolist(),
            "samples_im": self.samples.imag.reshape(-1).tolist(),
        }

    @classmethod
    def from_json_dict(cls, data):
        shape = tuple(int(m) for m in data["grid_shape"]) + (int(data["rows"]), int(data["cols"]))
        re = np.asarray(data["samples_re"], dtype=float).reshape(shape)
        im = np.asarray(data["samples_im"], dtype=float).reshape(shape)
        if not (np.isfinite(re).all() and np.isfinite(im).all()):
            raise ValueError("samples must be finite")
        return cls(re + 1j * im)


def rank_grid(degree):
    """The grid a rank decision samples a function of the given degree on."""
    return max(64, default_grid_size(degree))


def rank_samples(F, M=None):
    """Singular values of F's samples on max_rank's grid, and the points."""
    if isinstance(F, GridMatrixFunction):
        mats = F.all_samples()
        pts = F.grid_points()
    else:
        M = M or rank_grid(F.degree)
        mats = F.sample_grid(M)
        pts = np.arange(M) / M
    return np.linalg.svd(mats, compute_uv=False), pts


def generic_rank(counts):
    """The generic (largest) of per-sample rank counts and the indices of
    the samples below it."""
    r = int(counts.max())
    return r, [int(i) for i in np.nonzero(counts < r)[0]]


def max_rank(F, M=None, tol=1e-9, scale=None, samples=None):
    """Maximal pointwise rank over a sampling grid (rank_grid by default).

    Rank at each sample counts singular values above tol * scale, where
    scale defaults to the global largest singular value of F itself.  Pass
    an external scale when F is a product whose genuine size is known (an
    iterate that may have collapsed to float noise, say).  samples may pass
    rank_samples(F, M), so several thresholds read one SVD.  Returns
    (rank, exceptional) where exceptional lists the sample positions with
    strictly smaller rank (finite for analytic non-degenerate input).
    """
    sv, pts = rank_samples(F, M) if samples is None else samples
    top = float(sv.max()) if sv.size else 0.0
    if scale is None:
        scale = top
    if top == 0.0 or scale == 0.0:
        return 0, []
    r, exc = generic_rank(np.sum(sv > tol * scale, axis=1))
    if isinstance(F, GridMatrixFunction):
        return r, [tuple(pts[i]) for i in exc]
    return r, [float(pts[i]) for i in exc]


def exterior_power(F, k):
    """k-th exterior power: the C(d,k)-dimensional matrix of k x k minors.

    Index sets are ordered lexicographically; entry (I, J) is the minor
    det F[I, J]. Exact for TrigPoly entries. Satisfies
    ext(F G) = ext(F) ext(G) and sigma_1(ext A) = prod of top k sigmas.
    """
    if not isinstance(F, MatrixFunction):
        raise TypeError("exterior_power requires an exact MatrixFunction")
    d = F.rows
    if F.cols != d:
        raise ValueError("exterior power defined for square matrices")
    if not 1 <= k <= d:
        raise ValueError(f"need 1 <= k <= {d}")
    ent = _entries(F)
    subsets = list(itertools.combinations(range(d), k))
    return MatrixFunction([[_poly_det([[ent[i][j] for j in J] for i in I]) for J in subsets]
                           for I in subsets])


def _entries(F):
    return [[F.entry(i, j) for j in range(F.cols)] for i in range(F.rows)]


def _poly_det(rows):
    """Determinant of a small matrix of TrigPoly, nested lists, by cofactor expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    acc = TrigPoly.zero()
    for j in range(n):
        if rows[0][j].is_zero:
            continue
        minor = _poly_det([r[:j] + r[j + 1:] for r in rows[1:]])
        term = rows[0][j] * minor
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def poly_det(F):
    """Determinant of a square MatrixFunction as a TrigPoly."""
    if F.rows != F.cols:
        raise ValueError("determinant needs a square matrix")
    return _poly_det(_entries(F))
