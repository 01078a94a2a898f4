"""Exact arithmetic for trigonometric polynomials on the circle.

A TrigPoly is a finite Fourier sum f(x) = sum_k c_k e^{2 pi i k x} stored
as a sparse-by-construction coefficient block over k in [kmin, kmax].
Coefficients whose magnitude falls below a relative threshold are dropped,
so the zero function is the empty coefficient map.  truncated is that rule;
matfun.MatrixFunction, which holds a matrix function as one coefficient
tensor, applies it to every entry, so TrigPoly is both the scalar type
(determinants, their roots and log_integral) and the entrywise reference
of the matrix algebra.

Grids live one level up: matfun.MatrixFunction.sample_grid samples by FFT
and matfun.poly_from_samples turns grid samples back into polynomials.
default_grid_size(N) = 4 * 2^ceil(log2(N+1)) is the grid size rule that
callers floor at their own minimum.
"""

import cmath

import numpy as np

from .errors import FloatRangeExceeded, RootFindingError

TRUNCATION_RELATIVE = 1e-12
_TWO_PI_I = 2j * np.pi

# the largest frequency an input coefficient or an iterate may carry
DEGREE_CAP = 4096

ON_CIRCLE_TOL = 1e-10     # log_integral: a root this close to |z| = 1 counts as on it
ROOT_RESIDUAL_TOL = 1e-6  # poly_roots: the largest relative residual of a root


def real_divide(a, x):
    """Complex values a over a real x, part by part: numpy divides complex
    by real through 1/x, which overflows when x is subnormal."""
    out = np.empty(np.shape(a), dtype=complex)
    out.real, out.imag = np.real(a) / x, np.imag(a) / x
    return out


def truncated(kmin, c):
    """The truncation rule of every exact polynomial, applied entry by entry.

    c holds the coefficients of the frequencies kmin, kmin+1, ... along
    axis 0: (K,) for one polynomial, (K, rows, cols) for a matrix of them.
    A coefficient at most TRUNCATION_RELATIVE times the largest one of its
    own entry is dropped, then the frequencies at either end where every
    entry vanishes; a non-finite coefficient raises FloatRangeExceeded.
    """
    c = np.asarray(c, dtype=complex)
    mags = np.abs(c)
    if not np.isfinite(mags).all():
        # an overflow upstream; the relative threshold would keep nothing
        raise FloatRangeExceeded("a Fourier coefficient left the float range")
    keep = mags > TRUNCATION_RELATIVE * mags.max(axis=0, initial=0.0)
    live = np.nonzero(keep.any(axis=tuple(range(1, c.ndim))))[0]
    if not live.size:
        return 0, np.zeros((0,) + c.shape[1:], dtype=complex)
    lo, hi = live[0], live[-1] + 1
    return kmin + int(lo), np.where(keep[lo:hi], c[lo:hi], 0.0)


class TrigPoly:
    """Trigonometric polynomial with exact coefficient arithmetic."""

    __slots__ = ("kmin", "c")

    def __init__(self, kmin=0, coeffs=()):
        self.kmin, self.c = truncated(int(kmin), coeffs)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls):
        return cls(0, ())

    @classmethod
    def constant(cls, value):
        return cls(0, [value])

    @classmethod
    def harmonic(cls, k, amplitude=1.0):
        """amplitude * e^{2 pi i k x}"""
        return cls(k, [amplitude])

    @classmethod
    def cosine(cls, freq=1, amplitude=1.0):
        """amplitude * cos(2 pi freq x)"""
        a = amplitude / 2.0
        return cls(-freq, [a] + [0.0] * (2 * freq - 1) + [a])

    @classmethod
    def sine(cls, freq=1, amplitude=1.0):
        """amplitude * sin(2 pi freq x)"""
        a = amplitude / 2.0
        return cls(-freq, [1j * a] + [0.0] * (2 * freq - 1) + [-1j * a])

    @classmethod
    def from_dict(cls, coeffs):
        """Build from a {frequency: coefficient} mapping."""
        if not coeffs:
            return cls.zero()
        kmin = min(coeffs)
        kmax = max(coeffs)
        c = np.zeros(kmax - kmin + 1, dtype=complex)
        for k, v in coeffs.items():
            c[int(k) - kmin] = v
        return cls(kmin, c)

    # -- basic queries ------------------------------------------------

    @property
    def kmax(self):
        return self.kmin + len(self.c) - 1

    @property
    def degree(self):
        """Smallest N with all frequencies in [-N, N]; 0 for the zero function."""
        if self.is_zero:
            return 0
        return max(abs(self.kmin), abs(self.kmax))

    @property
    def is_zero(self):
        return self.c.size == 0

    def max_coeff(self):
        return 0.0 if self.is_zero else float(np.abs(self.c).max())

    def sup_bound(self):
        """Upper bound for sup |f|: the l1 norm of the coefficients."""
        return 0.0 if self.is_zero else float(np.abs(self.c).sum())

    def __repr__(self):
        if self.is_zero:
            return "TrigPoly(0)"
        return f"TrigPoly(deg={self.degree}, terms={np.count_nonzero(self.c)})"

    # -- evaluation and algebra ---------------------------------------

    def eval(self, x):
        """Evaluate at x (scalar or array); exact Fourier sum."""
        x = np.asarray(x, dtype=float)
        ks = np.arange(self.kmin, self.kmax + 1)
        phases = np.exp(_TWO_PI_I * np.multiply.outer(x, ks))
        out = phases @ self.c
        return out[()] if out.ndim == 0 else out

    def translate(self, alpha):
        """f(x + alpha): multiplies c_k by e^{2 pi i k alpha}."""
        ks = np.arange(self.kmin, self.kmax + 1)
        return TrigPoly(self.kmin, self.c * np.exp(_TWO_PI_I * alpha * ks))

    def conj(self):
        """Complex conjugate function; c_k -> conj(c_{-k})."""
        return TrigPoly(-self.kmax, np.conj(self.c[::-1]))

    def __add__(self, other):
        other = _as_poly(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        kmin = min(self.kmin, other.kmin)
        kmax = max(self.kmax, other.kmax)
        c = np.zeros(kmax - kmin + 1, dtype=complex)
        c[self.kmin - kmin:self.kmax - kmin + 1] += self.c
        c[other.kmin - kmin:other.kmax - kmin + 1] += other.c
        return TrigPoly(kmin, c)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return TrigPoly(self.kmin, -self.c)

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        if np.isscalar(other):
            return TrigPoly(self.kmin, self.c * other)
        other = _as_poly(other)
        if self.is_zero or other.is_zero:
            return TrigPoly.zero()
        # frequency blocks add under pointwise product: a direct
        # convolution, which keeps exactly zero coefficients exactly zero
        return TrigPoly(self.kmin + other.kmin, np.convolve(self.c, other.c))

    def __rmul__(self, other):
        return self.__mul__(other)

    # -- serialization -------------------------------------------------

    def to_json_dict(self):
        return {
            "coeffs": [
                {"k": int(self.kmin + j), "re": float(v.real), "im": float(v.imag)}
                for j, v in enumerate(self.c)
                if v != 0
            ]
        }

    @classmethod
    def from_json_dict(cls, data):
        coeffs = {}
        for e in data["coeffs"]:
            k = e["k"]
            # from_dict allocates kmin..kmax densely, so k is bounded first
            if isinstance(k, bool) or not isinstance(k, int) or abs(k) > DEGREE_CAP:
                raise ValueError(f"coefficient index {k!r} is not an integer of "
                                 f"size at most the degree cap {DEGREE_CAP}")
            coeffs[k] = complex(float(e["re"]), float(e["im"]))
        if not all(cmath.isfinite(v) for v in coeffs.values()):
            raise ValueError("coefficients must be finite")
        return cls.from_dict(coeffs)


def _as_poly(v):
    if isinstance(v, TrigPoly):
        return v
    if np.isscalar(v):
        return TrigPoly.constant(v)
    raise TypeError(f"cannot coerce {type(v)!r} to TrigPoly")


def default_grid_size(degree):
    """Default grid for degree N: 4 * 2^ceil(log2(N+1)), at least 4 (N+1)."""
    n = max(int(degree), 0) + 1
    return 4 * (1 << (n - 1).bit_length())


def poly_roots(f):
    """The roots rho of P, for f(x) = z^kmin P(z) with z = e^{2 pi i x} and
    f not zero, and Wilkinson's first-order bound on the error of each,
    err = (|P(rho)| + TRUNCATION_RELATIVE sum |c_i| |rho|^i) / |P'(rho)|:
    inf at a multiple root.  Companion-matrix roots, each polished by one
    Newton step where it lowers the residual; a relative residual above
    ROOT_RESIDUAL_TOL raises RootFindingError."""
    p = f.c  # ascending powers of z, p[0] != 0, p[-1] != 0
    if len(p) == 1:
        return np.zeros(0, dtype=complex), np.zeros(0)
    q, dq = p[::-1], (p[1:] * np.arange(1, len(p)))[::-1]  # descending, as polyval reads
    roots = np.roots(q)
    val, der = np.polyval(q, roots), np.polyval(dq, roots)
    polished = np.where(der != 0, roots - val / np.where(der != 0, der, 1.0), roots)
    roots = np.where(np.abs(np.polyval(q, polished)) <= np.abs(val), polished, roots)
    res = np.abs(np.polyval(q, roots))
    # residual sanity at scale ~ |f| near the root's circle
    scale = np.abs(p).sum() * np.maximum(1.0, np.abs(roots)) ** (len(p) - 1)
    worst = float((res / scale).max())
    if not np.isfinite(worst) or worst > ROOT_RESIDUAL_TOL:
        raise RootFindingError(
            f"root residual {worst:.3e} exceeds {ROOT_RESIDUAL_TOL:.1e}", residual=worst
        )
    spread = TRUNCATION_RELATIVE * np.polyval(np.abs(q), np.abs(roots))
    with np.errstate(divide="ignore"):
        return roots, (res + spread) / np.abs(np.polyval(dq, roots))


def log_integral(f, roots=None):
    """Mean of ln|f| over the circle, computed exactly from the roots.

    Writing f(x) = z^kmin P(z) with z = e^{2 pi i x}, the integral equals
    ln|lead(P)| + sum over roots rho of P of ln max(1, |rho|). Returns
    -inf exactly when f is the zero polynomial (an analytic f with
    integral -inf vanishes identically, so the dichotomy is sharp).

    Roots come from poly_roots, or roots may pass the pair a caller already
    has from it; roots within ON_CIRCLE_TOL of the unit circle contribute zero.
    """
    if f.is_zero:
        return float("-inf")
    mags = np.abs((poly_roots(f) if roots is None else roots)[0])
    return float(np.log(abs(f.c[-1])) + np.sum(np.log(mags[mags > 1.0 + ON_CIRCLE_TOL])))
