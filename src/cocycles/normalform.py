"""Analytic normal forms for nilpotent cocycles over circle rotations.

Two levels of structure, both read off the kernel flag K_n = ker A_n of the
exact iterates.  triangularize conjugates any nilpotent analytic cocycle into
strictly block upper triangular shape by the unitary-valued polynomial frame
Structure.flag_form fits to the flag.  jordan_form goes further and produces a
constant Jordan matrix, but that requires every iterate to have constant rank
over the circle; the rank dropping anywhere is a hard obstruction, not a
numerical one.  Its chains start at analytic tops fitted from samples of the
flag and descend by exact polynomial products with A, so the tops are the
only columns fitted.
"""

from dataclasses import dataclass

import numpy as np

from .cocycle import Cocycle, Structure
from .errors import (
    ConstantRankViolated,
    FloatRangeExceeded,
    InconsistentProfile,
    NotNilpotent,
    NotStrictlyOrdered,
    StructureViolation,
)
from .frames import (
    SubspaceField,
    complement_within,
    orthocomplement,
    phase_align,
    sum_field,
)
from .matfun import MatrixFunction, hstack, poly_from_samples

# the largest unit-scale Jordan defect, unscaled as J has unit entries; a
# larger one means the chains do not conjugate: a rank drops between samples
JORDAN_DEFECT_MAX = 1e-6


@dataclass
class TriangularForm:
    """Unitary conjugation U*(x+a) A(x) U(x) = B(x), B strictly block upper.

    samples holds the per-sample defect on the verification grid
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

    samples holds the per-sample spectral norm of the unit-scale conjugation
    defect, Mu(x+a)^{-1} L_1(x) Mu(x) - J with L_1 = A / scale the generator
    of the Structure and column m of a chain in Mu equal to scale^m times
    the one in M, on the verification grid x_j = j/len(samples);
    residual is its maximum.  At scale 1 this is the defect of M itself.
    """

    M: MatrixFunction
    J: np.ndarray
    chains: tuple
    cond_max: float
    samples: np.ndarray

    @property
    def residual(self):
        return float(self.samples.max())


def triangularize(C):
    """Strictly block-triangular form of a nilpotent cocycle.

    Block n spans the part of ker A_n orthogonal to ker A_{n-1}; the unitary
    U stacks analytic frames of these blocks, and B = U*(x+a) A(x) U(x) is
    returned as an exact polynomial product.  The residual bounds both the
    unitarity defect of the truncated frames and the mass on and below the
    block diagonal of B, measured on the verification grid.  C is a
    Cocycle or its Structure (Structure.of), which sets the tolerances; the
    frame is its flag form of K_1, ..., K_{p-1} (Structure.flag_form), whose
    kernel fields Structure.kernel shares with jordan_form.
    """
    st = Structure.of(C)
    C = st.exact_cocycle("triangular form")
    if not st.nilpotency.nilpotent:
        raise NotNilpotent("no iterate vanishes; nothing to triangularize")
    U, B, sizes, samples, bsamp = st.flag_form(range(1, st.nilpotency.degree))
    edges = np.concatenate([[0], np.cumsum(sizes)])
    for n in range(len(sizes)):
        low = np.abs(bsamp[:, edges[n]:, edges[n]:edges[n + 1]])
        samples = np.maximum(samples, low.max(axis=(1, 2), initial=0.0))
    return TriangularForm(C, U, B, sizes, samples)


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


def jordan_form(C):
    """Constant Jordan form of a nilpotent cocycle with constant-rank iterates.

    Walks down the kernel flag K_n = ker A_n, from K_p (the whole space) to
    K_1 = ker A.  At stage L every open chain is pushed one step by the
    exact product v -> A(x-a) v(x-a), which maps K_{L+1}(x-a) into K_L(x),
    and the chains of length L open at analytic tops spanning the part of
    K_L orthogonal to K_{L-1} and the pushed vectors; chains come out
    longest first.  Only the tops are fitted from samples, on the grid
    Structure.fit settles on, so the conjugation defect (sampled on fit's
    verification grid) is A applied to the kernel ends, as small as the
    tops' distance from them.  The tops alone keep a 1e-7 tail: a tighter
    one widens their grid onto near-degenerate samples, raising the defect.
    Any rank drop of any iterate at any sample, a chain matrix that is
    singular at a verification sample, or a unit-scale defect above
    JORDAN_DEFECT_MAX aborts with ConstantRankViolated.
    C is a Cocycle or its Structure (Structure.of), whose tolerances,
    profile, verdict, iterates and flag (Structure.flag, checked against
    the profile before any top is fitted) the chains read.

    The chains are built on the unit-scale generator L_1 = A / 2^e of the
    Structure, where vectors of one chain keep comparable sizes, and
    chain vector m (m = 0 in ker A) is read back into the units of A by the
    exact factor 2^(-e m), so J keeps its ones; a column that leaves the
    float range there raises FloatRangeExceeded.
    """
    st = Structure.of(C)
    C, tol = st.exact_cocycle("jordan form"), st.tol
    if not st.nilpotency.nilpotent:
        raise NotNilpotent("no iterate vanishes; spectrum is not fully degenerate")
    prof, d = st.profile, C.dim
    p = len(prof.ranks)
    for n, exc in prof.exceptional.items():
        if n < p and exc:
            raise ConstantRankViolated(f"iterate {n} loses rank at {len(exc)} grid samples")
    lengths = jordan_structure_from_ranks(prof.ranks, d)
    alpha = C.alpha
    L1 = st.iterate(1)
    push = L1.translate(-alpha)

    def fronts_on(Mg):
        # K_1, ..., K_{p-1} in the SVD's gauge: the fields below feed only
        # span sums and phase_align, which reads no gauge; fronts[m] holds
        # chain vector m of every chain longer than m
        flag = st.flag(range(1, p), Mg)
        front, fronts = None, []
        for L in range(p, 0, -1):
            if L == p:
                # K_p is the whole space: the chains of length p open in the
                # complement of K_{p-1}
                born = orthocomplement(flag[-1]) if flag else SubspaceField(
                    np.broadcast_to(np.eye(d), (Mg, d, d)))
            else:
                front = push @ front.translate(-alpha)
                span = SubspaceField(front.sample_grid(Mg))
                inner = sum_field(flag[L - 2], span, tol) if L > 1 else span
                born = complement_within(inner, flag[L - 1], tol)
            if born.k != lengths.count(L):
                raise StructureViolation(
                    f"stage {L} opens {born.k} chains but the rank profile "
                    f"forces {lengths.count(L)}"
                )
            if born.k:
                # the tops' own looser tail keeps their grid coarse (docstring)
                tops = poly_from_samples(phase_align(born).frames, tol=1e-7)
                front = tops if front is None else hstack([front, tops])
            fronts.append(front)
        return fronts[::-1]

    fronts, Mv = st.fit(C.matrix.degree * max(p - 1, 1), fronts_on)
    unit = hstack([fronts[m].block(0, d, c, c + 1)
                   for c, L in enumerate(lengths) for m in range(L)])
    positions = [m for L in lengths for m in range(L)]
    # a one above the diagonal wherever a chain continues
    jmat = np.diag([float(m > 0) for m in positions[1:]], 1)
    try:
        conj = np.linalg.solve(unit.sample_grid(Mv, shift=alpha),
                               L1.sample_grid(Mv) @ unit.sample_grid(Mv))
    except np.linalg.LinAlgError:
        # the chains stop spanning where a rank drops between the rank samples
        raise ConstantRankViolated("the Jordan chains are singular at a sample") from None
    samples = np.linalg.svd(conj - jmat, compute_uv=False)[:, 0]
    if samples.max() > JORDAN_DEFECT_MAX:
        raise ConstantRankViolated(f"the Jordan chains conjugate to J only to {samples.max():.1e}")
    mfun = _in_units(unit, positions, st.exponent)
    sv = np.linalg.svd(mfun.sample_grid(Mv), compute_uv=False)
    cond_max = float((sv[:, 0] / sv[:, -1]).max())
    return JordanForm(mfun, jmat, lengths, cond_max, samples)


def _in_units(unit, positions, exponent):
    """The chain matrix in the units of A: column c, vector number
    positions[c] of its chain, times 2^(-exponent * positions[c]), exact
    while the column stays in the normal float range."""
    shifts = -exponent * np.asarray(positions)
    c = np.empty_like(unit.c)
    with np.errstate(over="ignore", under="ignore"):
        c.real = np.ldexp(unit.c.real, shifts)
        c.imag = np.ldexp(unit.c.imag, shifts)
    out = MatrixFunction.from_coeffs(unit.kmin, c)
    low = np.nonzero(np.abs(out.c).max(axis=(0, 1), initial=0.0) < np.finfo(float).tiny)[0]
    if low.size:
        raise FloatRangeExceeded(f"Jordan chain column {low[0]} underflows in the units of A")
    return out


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
