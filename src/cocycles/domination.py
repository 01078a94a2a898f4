"""Splitting a partially degenerate cocycle along its stable kernel bundle.

When the rank profile stabilizes at 0 < k < d, the kernel of A_p is an
invariant analytic subbundle carrying all the divergent directions.  In an
adapted unitary frame the cocycle becomes [[a, b], [0, d]] with a nilpotent
and d generically invertible; whether the coupling b can be conjugated away
entirely is exactly the question of dominated splitting, decided here by two
independent criteria that must agree.
"""

from dataclasses import dataclass

import numpy as np

from .cocycle import Cocycle, Structure, iterates
from .errors import (
    FullyNilpotent,
    InversionBlowup,
    NoInfinitePart,
    NotDominated,
    StructureViolation,
)
from .frames import field_grid
from .matfun import MatrixFunction, hstack, poly_det, poly_from_samples, vstack


@dataclass
class SplitForm:
    """Adapted frame U*(x+a) A(x) U(x) = [[a, b], [0, d]].

    The first d-k columns of U span ker A_p; a is nilpotent of degree at
    most p and d is invertible off finitely many samples.  structure is the
    Structure of A the frame was read from.
    """

    structure: Structure
    k: int
    p: int
    U: MatrixFunction
    a: MatrixFunction
    b: MatrixFunction
    d: MatrixFunction
    residual: float


@dataclass
class SplittingResult:
    """A dominated split form's splitting and its is_dominated evidence."""

    dominated: bool
    M: MatrixFunction
    C: MatrixFunction
    gap_certificate: dict
    residual: float
    evidence: dict


def split_infinite_part(C):
    """Adapted frame separating the divergent directions from the finite ones.

    Needs the rank profile to stabilize at some 0 < k < d; the kernel bundle
    of A_p then has constant dimension d-k and the complementary block d
    carries the k finite exponents.  Tolerances, profile and A_p are those
    of Structure.of(C), which the split form carries.
    """
    st = Structure.of(C)
    C = st.exact_cocycle("splitting")
    k = st.profile.min_rank
    if k == C.dim:
        raise NoInfinitePart("cocycle keeps full rank; every exponent is finite")
    if k == 0:
        raise FullyNilpotent("all exponents degenerate; use the normal forms")
    p, d = st.profile.stabilized_at, C.dim
    nk = d - k
    U, B, _, defect, bsamp = st.flag_form([p])
    a = B.block(0, nk, 0, nk)
    b = B.block(0, nk, nk, d)
    dd = B.block(nk, d, nk, d)
    low_mass = float(np.abs(bsamp[:, nk:, :nk]).max())
    # invariance forces the kernel block to die by step p: |a_p|, the product
    # of the samples of a at x, ..., x + (p-1) alpha, is compared with
    # max(|a|, 1)^p, both formed at unit scale, where p factors stay in the
    # float range (2^e max(|a / 2^e|, 2^-e) is max(|a|, 1))
    au = a / st.scale
    ap = np.eye(nk)
    for j in range(p):
        ap = au.sample_grid(len(bsamp), shift=j * C.alpha) @ ap
    with np.errstate(over="ignore"):
        size = np.float64(max(au.sup_bound(), np.ldexp(1.0, -st.exponent)))
        ap_mass = float(np.abs(ap).max() / size ** p)
    if ap_mass > 1e-6:
        raise StructureViolation(f"kernel block is not nilpotent of degree {p}: "
                                 f"|a_p| = {ap_mass:.3e}")
    if poly_det(dd / st.scale).is_zero:
        raise StructureViolation("finite block degenerates identically")
    residual = max(float(defect.max()), low_mass, ap_mass)
    return SplitForm(st, k, p, U, a, b, dd, residual)


def is_dominated(S):
    """Decide domination by the iterate-rank and block-determinant criteria.

    Both quantities are compared against tol times their own geometric mean
    over the grid, which makes the test scale covariant; the two verdicts
    must agree and the minimizing sample is reported as evidence.  Both are
    decided at unit scale, on the iterate L_n* of S.structure and on the
    block d divided by its scale, so no power of the scale over- or
    underflows; the evidence is reported in the units of A, inf or 0 where
    those leave the float range.  tol is that of S.structure.
    """
    st = S.structure
    k, p, d, tol = S.k, S.p, st.cocycle.dim, st.tol
    nstar = max(p + 1, d - k)
    F = st.iterate(nstar)
    # a grid that resolves the iterate, grown only where it would alias S.d
    Mg = max(field_grid(F.degree), 1 << (2 * S.d.degree).bit_length())
    sk = np.linalg.svd(F.sample_grid(Mg), compute_uv=False)[:, k - 1]
    gm_rank = float(np.exp(np.log(np.maximum(sk, 1e-300)).mean()))
    rank_ok = bool(sk.min() > tol * gm_rank)
    dets = np.abs(np.linalg.det((S.d / st.scale).sample_grid(Mg)))
    gm_det = float(np.exp(np.log(np.maximum(dets, 1e-300)).mean()))
    det_ok = bool(dets.min() > tol * gm_det)
    if rank_ok != det_ok:
        raise StructureViolation(
            f"domination criteria disagree: rank says {rank_ok}, det says {det_ok}"
        )
    j = int(dets.argmin())
    with np.errstate(over="ignore"):
        sig = np.ldexp([sk.min(), gm_rank], st.exponent * nstar)
        det = np.ldexp([dets.min(), gm_det], st.exponent * k)
    evidence = {
        "n_star": nstar,
        "sigma_k_min": float(sig[0]),
        "sigma_k_scale": float(sig[1]),
        "det_min": float(det[0]),
        "det_scale": float(det[1]),
        "minimizer": j / Mg,
        "minimizer_sample": j,
    }
    return {"dominated": rank_ok, "evidence": evidence}


def dominated_splitting(S):
    """Conjugate the coupling away: p steps of the block recursion.

    M(x) = sum_{n=1..p} a(x-alpha)...a(x-(n-1)alpha) b(x-n alpha)
    d(x-n alpha)^-1 ... d(x-alpha)^-1, every factor sampled exactly at its
    shifted point, solves a(x) M(x) + b(x) = M(x+alpha) d(x) up to a times
    its p-th term, which nilpotency of degree p kills; the residual, read
    on the verification grid of Structure.fit (the one loop M is fitted
    through, 1e-12 tail, for the blocks' degree), measures both.  Then
    [[I, M], [0, I]] block-diagonalizes the split form once is_dominated(S)
    holds; it is decided here, once, and a NotDominated raised otherwise
    carries the evidence.  M and the gap ratios are computed on the blocks
    divided by the scale of S.structure, whose tol bounds the condition
    number of each inverted sample of d; the residual is in units of A.
    """
    st = S.structure
    C = st.cocycle
    verdict = is_dominated(S)
    if not verdict["dominated"]:
        raise NotDominated(
            f"finite block vanishes near x = {verdict['evidence']['minimizer']:.6f}",
            verdict["evidence"])
    k, p, nk = S.k, S.p, S.a.rows
    a, b, d = (X / st.scale for X in (S.a, S.b, S.d))

    def build(Mg):
        # the sum in Horner form, last term first: T_{p+1} = 0,
        # T_n = (b + a T_{n+1}) d^-1 at x - n alpha, and M = T_1
        msum = np.zeros((Mg, nk, k), dtype=complex)
        for n in range(p, 0, -1):
            an, bn, dn = (X.sample_grid(Mg, -n * C.alpha) for X in (a, b, d))
            cond = np.linalg.cond(dn).max()
            if cond > 1.0 / st.tol:
                raise InversionBlowup(f"finite block condition number {cond:.3e} exceeds 1/tol")
            msum = (bn + an @ msum) @ np.linalg.inv(dn)
        return poly_from_samples(msum, tol=1e-12)

    mfun, Mv = st.fit(max(a.degree, b.degree, d.degree), build)
    off = (a.sample_grid(Mv) @ mfun.sample_grid(Mv) + b.sample_grid(Mv)
           - mfun.sample_grid(Mv, C.alpha) @ d.sample_grid(Mv))
    with np.errstate(over="ignore"):
        residual = float(np.ldexp(np.abs(off).max(), st.exponent))
    zero_bl = MatrixFunction.zero(k, nk)
    cdiag = vstack([hstack([S.a, MatrixFunction.zero(nk, k)]), hstack([zero_bl, S.d])])
    bfull = Cocycle(C.frequencies, vstack([hstack([a, b]), hstack([zero_bl, d])]))
    cert = {}
    for n, F in enumerate(iterates(bfull, 3 * p), start=1):
        sv = np.linalg.svd(F.sample_grid(field_grid(F.degree)), compute_uv=False)
        # ratios saturate at 1/eps once the lower part is degenerate to noise
        floor = np.finfo(float).eps * sv[:, 0]
        cert[n] = float((sv[:, k - 1] / np.maximum(sv[:, k], floor)).min())
    return SplittingResult(True, mfun, cdiag, cert, residual, verdict["evidence"])
