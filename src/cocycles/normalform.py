"""Analytic normal forms for nilpotent cocycles over circle rotations.

Two levels of structure.  triangularize conjugates any nilpotent analytic
cocycle into strictly block upper triangular shape by a unitary-valued
polynomial change of frames; it only needs the kernels of the exact iterates.
jordan_form goes further and produces a constant Jordan matrix, but that
requires every iterate to have constant rank over the circle; the rank
dropping anywhere is a hard obstruction, not a numerical one.
"""

from dataclasses import dataclass

import numpy as np

from .cocycle import Cocycle, detect_nilpotency, iterates, rank_profile
from .errors import (
    ConstantRankViolated,
    InconsistentProfile,
    IndependenceLost,
    NotNilpotent,
    NotStrictlyOrdered,
    StructureViolation,
    TailTooFat,
    UnsupportedBase,
)
from .frames import (
    analytic_gauge,
    complement_within,
    intersect_field,
    kernel_field,
    orthocomplement,
    range_field,
)
from .matfun import MatrixFunction, hstack, poly_from_samples, shift_samples
from .trigpoly import default_grid_size


@dataclass
class TriangularForm:
    """Unitary conjugation U*(x+a) A(x) U(x) = B(x), B strictly block upper.

    samples holds the per-sample defect on the doubled verification grid
    x_j = j/len(samples); residual is its maximum.
    """

    cocycle: Cocycle
    U: MatrixFunction
    B: MatrixFunction
    block_sizes: tuple
    samples: np.ndarray

    @property
    def residual(self):
        return float(self.samples.max())


@dataclass
class JordanForm:
    """Conjugation M(x+a)^{-1} A(x) M(x) = J with J a constant Jordan matrix.

    samples holds the per-sample spectral norm of M(x+a)^{-1} A(x) M(x) - J
    on the doubled verification grid x_j = j/len(samples); residual is its
    maximum.
    """

    M: MatrixFunction
    J: np.ndarray
    chains: tuple
    cond_max: float
    samples: np.ndarray

    @property
    def residual(self):
        return float(self.samples.max())


# rank tolerance of the kernel and range fields when the caller gives none
_FRAME_TOL = 1e-9


def _form_grid(C, p):
    # resolve the highest iterate that gets a kernel or range field
    deg = C.matrix.degree * max(p - 1, 1)
    return max(256, default_grid_size(deg))


def _nilpotent(C, tol, refusal):
    """The nilpotency degree of C and the rank tolerance of its frames.

    tol is the caller's tolerance for both the nilpotency verdict and the
    frames; None keeps detect_nilpotency's default for the verdict and
    _FRAME_TOL for the frames.  Raises NotNilpotent with refusal.
    """
    rep = detect_nilpotency(C) if tol is None else detect_nilpotency(C, tol=tol)
    if not rep.nilpotent:
        raise NotNilpotent(refusal)
    return rep.degree, _FRAME_TOL if tol is None else tol


def triangularize(C, M=None, tol=None):
    """Strictly block-triangular form of a nilpotent cocycle.

    Block n spans the part of ker A_n orthogonal to ker A_{n-1}; the unitary
    U stacks analytic frames of these blocks, and B = U*(x+a) A(x) U(x) is
    returned as an exact polynomial product.  The residual bounds both the
    unitarity defect of the truncated frames and the mass on and below the
    block diagonal of B, measured on a doubled verification grid.  tol is
    the rank tolerance of the nilpotency verdict and of the kernel fields;
    None keeps detect_nilpotency's default for the verdict and 1e-9 for the
    fields.
    """
    if C.base_dim != 1:
        raise UnsupportedBase("triangular form needs a one-frequency base")
    p, tol = _nilpotent(C, tol, "no iterate vanishes; nothing to triangularize")
    d = C.dim
    if p == 1:
        # the cocycle itself vanishes: one block in the identity frame
        U, sizes, Mg = MatrixFunction.identity(d), (d,), M or _form_grid(C, p)
    else:
        U, sizes, Mg = _triangular_frame(C, p, M, tol)
    B = U.adjoint().translate(C.alpha) @ C.matrix @ U
    Mv = 2 * Mg
    usamp = U.sample_grid(Mv)
    gram = np.conj(np.swapaxes(usamp, 1, 2)) @ usamp
    samples = np.abs(gram - np.eye(d)).max(axis=(1, 2))
    bsamp = B.sample_grid(Mv)
    edges = np.concatenate([[0], np.cumsum(sizes)])
    for n in range(len(sizes)):
        low = np.abs(bsamp[:, edges[n]:, edges[n]:edges[n + 1]])
        if low.size:
            samples = np.maximum(samples, low.max(axis=(1, 2)))
    return TriangularForm(C, U, B, sizes, samples)


def _triangular_frame(C, p, M, tol):
    """Unitary frame U adapted to the kernel flag of a nilpotent cocycle of
    degree p >= 2, with its block sizes and the grid its frames were built on."""
    if M is None:
        # kernel bundles of high iterates can have slow Fourier decay, so
        # widen the grid until the truncated frames carry no fat tail
        base = _form_grid(C, p)
        grids = [base, 2 * base, 4 * base, 8 * base]
    else:
        grids = [M]
    powers = list(iterates(C, p - 1))
    err = None
    for Mg in grids:
        kernels = [kernel_field(F, Mg, tol) for F in powers]
        fields = [kernels[0]]
        for n in range(2, p):
            fields.append(complement_within(kernels[n - 2], kernels[n - 1], tol))
        fields.append(orthocomplement(kernels[-1]))
        sizes = tuple(S.k for S in fields)
        if sum(sizes) != C.dim:
            raise StructureViolation(f"block sizes {sizes} do not fill dimension {C.dim}")
        try:
            blocks = [poly_from_samples(analytic_gauge(S), tol=1e-9) for S in fields]
        except TailTooFat as exc:
            err = exc
            continue
        return hstack(blocks), sizes, Mg
    raise err


def jordan_structure_from_ranks(ranks, d):
    """Jordan chain lengths forced by the iterate ranks (r_1, ..., r_p = 0).

    The count of chains of length at least n is r_{n-1} - r_n with r_0 = d;
    differencing once more gives the multiplicity of each exact length.
    """
    r = [int(d)] + [int(x) for x in ranks]
    if r[-1] != 0:
        raise InconsistentProfile("rank sequence does not reach zero")
    counts = [r[n - 1] - r[n] for n in range(1, len(r))]
    if any(c < 0 for c in counts):
        raise InconsistentProfile("rank sequence increases somewhere")
    counts.append(0)
    lengths = []
    for n in range(1, len(r)):
        mult = counts[n - 1] - counts[n]
        if mult < 0:
            raise InconsistentProfile(f"negative multiplicity for chain length {n}")
        lengths.extend([n] * mult)
    lengths.sort(reverse=True)
    return tuple(lengths)


def _restricted_lift(asamp, fin, head, alpha, tol):
    """Solve A(x) w(x) = head(x+a) with w in the span of the frames fin."""
    target = shift_samples(head, alpha)
    if fin is None:
        sol = np.linalg.pinv(asamp, rcond=tol) @ target[..., None]
        return sol[..., 0]
    af = asamp @ fin
    coords = np.linalg.pinv(af, rcond=tol) @ target[..., None]
    return (fin @ coords)[..., 0]


def jordan_form(C, M=None, tol=None):
    """Constant Jordan form of a nilpotent cocycle with constant-rank iterates.

    Works up the flag V_n(x) = ran A_{p-n}(x - (p-n)a): chain heads are
    lifted through the restriction of A to V_n, and new length-one chains
    are opened from the part of ker A entering V_n at stage n.  Any rank
    drop of any iterate at any sample aborts with ConstantRankViolated.
    tol is the rank tolerance of the nilpotency verdict, the rank profile
    and the fields; None keeps detect_nilpotency's default for the verdict
    and 1e-9 for the rest.
    """
    if C.base_dim != 1:
        raise UnsupportedBase("jordan form needs a one-frequency base")
    _, tol = _nilpotent(C, tol,
                        "no iterate vanishes; spectrum is not fully degenerate")
    prof = rank_profile(C, tol=tol)
    ranks = prof.ranks
    p = len(ranks)
    d = C.dim
    for n, exc in prof.exceptional.items():
        if n < p and exc:
            raise ConstantRankViolated(
                f"iterate {n} loses rank at {len(exc)} grid samples"
            )
    expected = jordan_structure_from_ranks(ranks, d)
    if M is None:
        M = _form_grid(C, p)
    alpha = C.alpha
    asamp = C.matrix.sample_grid(M)
    kerA = kernel_field(C.matrix, M, tol)
    # V_n for n = 1..p-1; V_p is the whole space
    powers = list(iterates(C, p - 1))
    vfields = {n: range_field(powers[p - n - 1].translate(-(p - n) * alpha), M, tol)
               for n in range(1, p)}
    dims = {n: (ranks[p - n - 1] if n < p else d) for n in range(1, p + 1)}
    chains = []
    prev_kv = None
    for n in range(1, p + 1):
        fin = vfields[n].frames if n < p else None
        for ch in chains:
            ch.append(_restricted_lift(asamp, fin, ch[-1], alpha, tol))
        if n == p:
            kv = kerA
        elif n == 1:
            kv = vfields[1]
        else:
            kv = intersect_field(kerA, vfields[n], tol)
        born = kv if prev_kv is None else complement_within(prev_kv, kv, tol)
        if born.k:
            frame = analytic_gauge(born)
            for j in range(frame.shape[2]):
                chains.append([frame[:, :, j]])
        prev_kv = kv
        total = sum(len(ch) for ch in chains)
        if total != dims[n]:
            raise StructureViolation(
                f"stage {n} carries {total} vectors but dim V_n = {dims[n]}"
            )
        cols = np.stack([v for ch in chains for v in ch], axis=2)
        sv = np.linalg.svd(cols, compute_uv=False)
        if float(sv[:, -1].min()) < tol * float(sv[:, 0].max()):
            raise IndependenceLost(
                f"chain vectors degenerate at stage {n}: "
                f"min singular value {sv[:, -1].min():.3e}"
            )

    def head_key(ch):
        first = ch[-1][0]
        parts = []
        for z in first:
            parts.extend((round(float(z.real), 9), round(float(z.imag), 9)))
        return (-len(ch), *parts)

    chains.sort(key=head_key)
    lengths = tuple(len(ch) for ch in chains)
    if lengths != expected:
        raise StructureViolation(
            f"recovered chains {lengths} contradict the rank profile {expected}"
        )
    cols = np.stack([v for ch in chains for v in ch], axis=2)
    mfun = poly_from_samples(cols)
    jmat = np.zeros((d, d))
    off = 0
    for L in lengths:
        for j in range(L - 1):
            jmat[off + j, off + j + 1] = 1.0
        off += L
    Mv = 2 * M
    msamp = mfun.sample_grid(Mv)
    mshift = mfun.sample_grid(Mv, shift=alpha)
    av = C.matrix.sample_grid(Mv)
    conj = np.linalg.solve(mshift, av @ msamp)
    samples = np.linalg.svd(conj - jmat, compute_uv=False)[:, 0]
    sv = np.linalg.svd(msamp, compute_uv=False)
    cond_max = float((sv[:, 0] / sv[:, -1]).max())
    return JordanForm(mfun, jmat, lengths, cond_max, samples)


def perturb_simple(T, b, eps):
    """Perturb a triangularized cocycle so its Lyapunov spectrum turns simple.

    Adds eps * U(x+a) diag(b) U(x)* to the original matrix.  In the frames of
    U the perturbed cocycle is triangular with constant diagonal eps * b, so
    the exponents split to ln(|eps| |b_j|); the predicted values are returned
    in descending order alongside the perturbed cocycle.
    """
    if eps == 0:
        raise ValueError("perturbation size must be nonzero")
    b = np.asarray(b, dtype=complex)
    d = T.U.rows
    if b.shape != (d,):
        raise ValueError(f"need {d} diagonal values, got {b.shape}")
    mods = np.abs(b)
    if not (np.all(mods[:-1] > mods[1:]) and mods[-1] > 0):
        raise NotStrictlyOrdered("moduli of b must be strictly decreasing and positive")
    alpha = T.cocycle.alpha
    prime = T.U.translate(alpha) @ MatrixFunction.constant(np.diag(b)) @ T.U.adjoint()
    perturbed = Cocycle(T.cocycle.frequencies, T.cocycle.matrix + prime * eps)
    predicted = np.log(abs(eps) * mods)
    return perturbed, predicted
