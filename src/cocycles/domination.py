"""Splitting a partially degenerate cocycle along its stable kernel bundle.

When the rank profile stabilizes at 0 < k < d, the kernel of A_p is an
invariant analytic subbundle carrying all the divergent directions.  In an
adapted unitary frame the cocycle becomes [[a, b], [0, d]] with a nilpotent
and d generically invertible; whether the coupling b can be conjugated away
entirely is exactly the question of dominated splitting, decided here
exactly, on the whole circle, from the roots of the exact polynomial det d.
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
from .trigpoly import log_integral, poly_roots


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
    """Decide domination on the whole circle: d(x) must be invertible at
    every x, so no root of f = det(d / scale), an exact TrigPoly z^kmin P(z)
    in z = e^{2 pi i x}, may lie within its Wilkinson bound (poly_roots) of
    |z| = 1.  The nearest root gives the minimizer (its angle), det_min
    (|det d| there) and strip_width (|ln|rho|| / 2 pi, inf for constant
    det d); det_scale is the Mahler measure of det d, its geometric mean.
    Both are in the units of A, inf or 0 where those leave the float range."""
    f = poly_det(S.d / S.structure.scale)  # split_infinite_part refuses f == 0
    roots = rho, err = poly_roots(f)
    dist = np.abs(np.log(np.abs(rho)))
    j = int(dist.argmin()) if rho.size else None
    minimizer = 0.0 if j is None else float(np.angle(rho[j]) / (2 * np.pi)) % 1.0
    with np.errstate(over="ignore"):
        det = np.ldexp([abs(f.eval(minimizer)), np.exp(log_integral(f, roots))],
                       S.structure.exponent * S.k)
    evidence = {"det_min": float(det[0]), "det_scale": float(det[1]), "minimizer": minimizer,
                "strip_width": float("inf") if j is None else float(dist[j] / (2 * np.pi))}
    return {"dominated": bool((np.abs(np.abs(rho) - 1.0) > err).all()), "evidence": evidence}


def dominated_splitting(S):
    """Conjugate the coupling away: p steps of the block recursion.

    M(x) = sum_{n=1..p} a(x-alpha)...a(x-(n-1)alpha) b(x-n alpha)
    d(x-n alpha)^-1 ... d(x-alpha)^-1, every factor sampled exactly at its
    shifted point, solves a(x) M(x) + b(x) = M(x+alpha) d(x) up to a times
    its p-th term, which nilpotency of degree p kills; the residual, read
    on the verification grid of Structure.fit (the one loop M is fitted
    through at the default tail, for the blocks' degree), measures both.  Then
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
        return poly_from_samples(msum)

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
