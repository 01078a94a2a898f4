"""Matrix-valued analytic functions on the circle (and sampled torus grids).

MatrixFunction stores a rows x cols array of TrigPoly entries and supports
exact algebra (products, translation, adjoint) plus fast exact sampling on
uniform grids through the FFT; poly_from_samples is the way back from grid
samples to a MatrixFunction, with a Fourier tail check.  GridMatrixFunction
carries samples of a band-limited matrix function over an l-dimensional torus
grid and evaluates anywhere through its trigonometric interpolant; it is the
only backing supported for multi-frequency base dynamics.  shift_samples and
resample_lattice move grid samples by FFT, so this module owns the Fourier
conventions of the grid representation.
"""

import itertools

import numpy as np

from .errors import AliasingRisk, TailTooFat
from .trigpoly import TrigPoly, default_grid_size, real_divide

_TWO_PI_I = 2j * np.pi


class MatrixFunction:
    """Matrix of trigonometric polynomials; exact one-frequency representation."""

    __slots__ = ("entries", "_grid_cache")

    def __init__(self, entries):
        entries = np.asarray(entries, dtype=object)
        if entries.ndim != 2:
            raise ValueError("entries must form a 2-d array")
        for e in entries.flat:
            if not isinstance(e, TrigPoly):
                raise TypeError("all entries must be TrigPoly")
        self.entries = entries
        self._grid_cache = {}

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, mat):
        mat = np.asarray(mat, dtype=complex)
        return cls(
            [[TrigPoly.constant(mat[i, j]) for j in range(mat.shape[1])] for i in range(mat.shape[0])]
        )

    @classmethod
    def identity(cls, d):
        return cls.constant(np.eye(d))

    @classmethod
    def zero(cls, rows, cols=None):
        cols = rows if cols is None else cols
        return cls([[TrigPoly.zero() for _ in range(cols)] for _ in range(rows)])

    # -- queries ----------------------------------------------------------

    @property
    def rows(self):
        return self.entries.shape[0]

    @property
    def cols(self):
        return self.entries.shape[1]

    @property
    def shape(self):
        return self.entries.shape

    @property
    def degree(self):
        return max((e.degree for e in self.entries.flat), default=0)

    def __repr__(self):
        return f"MatrixFunction({self.rows}x{self.cols}, deg={self.degree})"

    def max_coeff(self):
        """Largest coefficient magnitude over all entries; a natural scale."""
        return max((e.max_coeff() for e in self.entries.flat), default=0.0)

    def sup_bound(self):
        """Entrywise l1-coefficient bound; dominates max |A(x)| entrywise."""
        return max((e.sup_bound() for e in self.entries.flat), default=0.0)

    def is_zero(self):
        return all(e.is_zero for e in self.entries.flat)

    # -- evaluation --------------------------------------------------------

    def eval_mat(self, x):
        """Value at a single point x as a complex (rows, cols) array."""
        out = np.empty(self.entries.shape, dtype=complex)
        for (i, j), e in np.ndenumerate(self.entries):
            out[i, j] = e.eval(x)
        return out

    def _coeff_tensor(self):
        """Stacked coefficients: (n_freqs, rows*cols) plus the frequency list."""
        cached = self._grid_cache.get("coeffs")
        if cached is not None:
            return cached
        kmin = min((e.kmin for e in self.entries.flat if not e.is_zero), default=0)
        kmax = max((e.kmax for e in self.entries.flat if not e.is_zero), default=0)
        ks = np.arange(kmin, kmax + 1)
        c = np.zeros((len(ks), self.rows * self.cols), dtype=complex)
        for (i, j), e in np.ndenumerate(self.entries):
            if not e.is_zero:
                c[e.kmin - kmin:e.kmax - kmin + 1, i * self.cols + j] = e.c
        self._grid_cache["coeffs"] = (ks, c)
        return ks, c

    def sample_at(self, xs):
        """Values at an array of points: (len(xs), rows, cols)."""
        xs = np.asarray(xs, dtype=float)
        ks, c = self._coeff_tensor()
        phases = np.exp(_TWO_PI_I * np.multiply.outer(xs, ks))
        return (phases @ c).reshape(len(xs), self.rows, self.cols)

    def sample_grid(self, M, shift=0.0):
        """Exact samples at x_j = j/M + shift: (M, rows, cols); cached per (M, shift)."""
        key = (int(M), float(shift))
        cached = self._grid_cache.get(key)
        if cached is not None:
            return cached
        M = int(M)
        out = np.zeros((M, self.rows, self.cols), dtype=complex)
        for (i, j), e in np.ndenumerate(self.entries):
            if e.is_zero:
                continue
            if M <= 2 * e.degree:
                raise AliasingRisk(f"grid M={M} cannot hold degree {e.degree}")
            poly = e if shift == 0.0 else e.translate(shift)
            bins = np.zeros(M, dtype=complex)
            for l, v in enumerate(poly.c):
                bins[(poly.kmin + l) % M] += v
            out[:, i, j] = np.fft.ifft(bins) * M
        out.setflags(write=False)
        self._grid_cache[key] = out
        return out

    # -- algebra -------------------------------------------------------------

    def translate(self, alpha):
        return MatrixFunction(
            [[e.translate(alpha) for e in row] for row in self.entries]
        )

    def adjoint(self):
        """Conjugate transpose as a function: entry (i, j) -> conj of (j, i)."""
        return MatrixFunction(
            [[self.entries[j, i].conj() for j in range(self.rows)] for i in range(self.cols)]
        )

    def __matmul__(self, other):
        if isinstance(other, MatrixFunction):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            out = []
            for i in range(self.rows):
                row = []
                for j in range(other.cols):
                    acc = TrigPoly.zero()
                    for k in range(self.cols):
                        acc = acc + self.entries[i, k] * other.entries[k, j]
                    row.append(acc)
                out.append(row)
            return MatrixFunction(out)
        other = np.asarray(other)
        return self @ MatrixFunction.constant(other)

    def __rmatmul__(self, other):
        return MatrixFunction.constant(np.asarray(other)) @ self

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return MatrixFunction(
            [
                [self.entries[i, j] + other.entries[i, j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def __sub__(self, other):
        return self + (other * (-1.0))

    def __mul__(self, scalar):
        if isinstance(scalar, TrigPoly):
            return MatrixFunction([[e * scalar for e in row] for row in self.entries])
        if not np.isscalar(scalar):
            raise TypeError("use @ for matrix products")
        return MatrixFunction([[e * scalar for e in row] for row in self.entries])

    def __rmul__(self, scalar):
        return self.__mul__(scalar)

    def __truediv__(self, x):
        """Entrywise division by a real number x."""
        return MatrixFunction([[TrigPoly(e.kmin, real_divide(e.c, x)) for e in row]
                               for row in self.entries])

    def block(self, r0, r1, c0, c1):
        return MatrixFunction(self.entries[r0:r1, c0:c1])

    # -- serialization ----------------------------------------------------------

    def to_json_dict(self):
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [
                [self.entries[i, j].to_json_dict() for j in range(self.cols)]
                for i in range(self.rows)
            ],
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
    blocks = [m.entries for m in mats]
    return MatrixFunction(np.concatenate(blocks, axis=1))


def vstack(mats):
    blocks = [m.entries for m in mats]
    return MatrixFunction(np.concatenate(blocks, axis=0))


def poly_from_samples(vals, N=None, tol=1e-7):
    """MatrixFunction of degree <= N from samples (M, rows, cols) at x_j = j/M.

    N defaults to M/4.  Coefficients outside [-N, N], and those below 1e-14
    of the largest one (so degrees stay honest at the noise floor), are
    dropped; TailTooFat is raised when their relative l2 mass exceeds tol.
    Raises AliasingRisk when N >= M/2.
    """
    vals = np.asarray(vals)
    M, rows, cols = vals.shape
    N = M // 4 if N is None else int(N)
    if 2 * N >= M:
        raise AliasingRisk(f"degree N={N} not recoverable from M={M} samples (need N < M/2)")
    co = np.fft.fft(vals, axis=0) / M
    band = np.arange(-N, N + 1) % M
    inband = np.zeros(M, dtype=bool)
    inband[band] = True
    amp = np.abs(co)
    keep = inband[:, None, None] & (amp > 1e-14 * amp.max())
    total = float((amp ** 2).sum())
    # summing the dropped mass directly avoids the sqrt(eps) cancellation
    # floor of total-minus-kept
    dropped = float((amp[~keep] ** 2).sum())
    tail = np.sqrt(dropped / total) if total > 0 else 0.0
    if tail > tol:
        raise TailTooFat(f"sample spectrum tail {tail:.3e} exceeds {tol:.1e}", tail)
    kept = np.where(keep, co, 0.0)[band]
    return MatrixFunction(
        [[TrigPoly(-N, kept[:, i, j]) for j in range(cols)] for i in range(rows)]
    )


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


def resample_lattice(F, M):
    """Values of a GridMatrixFunction's interpolant on the lattice x = j/M.

    Returns (M, ..., M, rows, cols), one M per grid axis: the samples
    themselves when the lattice is F's grid, else one spectrum placement and
    one inverse FFT.  Each Fourier coefficient of F, at the frequency
    F._spectrum() gives it and sample_at evaluates, goes to the bin of its
    frequency mod M: a zero-padded spectrum when M exceeds the grid, an
    alias sum when M is smaller, since e^{2 pi i k j/M} depends on k mod M
    only.  O(M^l log M) work against O(M^l prod(grid)) for sample_at.
    """
    if F.grid_shape == (M,) * F.base_dim:
        return F.samples
    kflat, flat = F._spectrum()
    bins = np.zeros((M,) * F.base_dim + F.shape, dtype=complex)
    np.add.at(bins, tuple((kflat % M).T), flat)
    return np.fft.ifftn(bins, axes=tuple(range(F.base_dim))) * M ** F.base_dim


class GridMatrixFunction:
    """Band-limited matrix function on an l-torus held as grid samples.

    samples has shape (M_1, ..., M_l, rows, cols); evaluation anywhere uses
    the trigonometric interpolant, which is exact when the underlying
    function has degree < M_i/2 in each variable.  Along a rotation orbit
    the samples are moved with shift_samples (one FFT phase twist,
    O(M^l log M) per step), not by evaluating the interpolant point by point
    (O(M^2l)), and the Lyapunov sweep puts them on its orbit lattice with
    resample_lattice (one inverse FFT), so neither iterates nor the sweep
    call sample_at.
    """

    __slots__ = ("samples", "grid_shape", "_spec")

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


def max_rank(F, M=None, tol=1e-9, scale=None):
    """Maximal pointwise rank over a sampling grid.

    Rank at each sample counts singular values above tol * scale, where
    scale defaults to the global largest singular value of F itself.  Pass
    an external scale when F is a product whose genuine size is known (an
    iterate that may have collapsed to float noise, say).  Returns
    (rank, exceptional) where exceptional lists the sample positions with
    strictly smaller rank (finite for analytic non-degenerate input).
    """
    if isinstance(F, GridMatrixFunction):
        mats = F.all_samples()
        pts = F.grid_points()
    else:
        M = M or max(64, default_grid_size(F.degree))
        mats = F.sample_grid(M)
        pts = np.arange(M) / M
    sv = np.linalg.svd(mats, compute_uv=False)
    top = float(sv.max()) if sv.size else 0.0
    if scale is None:
        scale = top
    if top == 0.0 or scale == 0.0:
        return 0, []
    ranks = np.sum(sv > tol * scale, axis=1)
    r = int(ranks.max())
    exc = np.nonzero(ranks < r)[0]
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
    subsets = list(itertools.combinations(range(d), k))
    out = []
    for rows_idx in subsets:
        row = []
        for cols_idx in subsets:
            row.append(_poly_det(F.entries[np.ix_(rows_idx, cols_idx)]))
        out.append(row)
    return MatrixFunction(out)


def _poly_det(block):
    """Determinant of a small matrix of TrigPoly by cofactor expansion."""
    n = block.shape[0]
    if n == 1:
        return block[0, 0]
    if n == 2:
        return block[0, 0] * block[1, 1] - block[0, 1] * block[1, 0]
    acc = TrigPoly.zero()
    rest = block[1:, :]
    for j in range(n):
        if block[0, j].is_zero:
            continue
        minor = _poly_det(np.delete(rest, j, axis=1))
        term = block[0, j] * minor
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def poly_det(F):
    """Determinant of a square MatrixFunction as a TrigPoly."""
    if F.rows != F.cols:
        raise ValueError("determinant needs a square matrix")
    return _poly_det(F.entries)
