"""Analytically varying subspaces as phase-aligned orthonormal frames on a grid.

A SubspaceField stores one orthonormal frame per grid sample.  The
constructors (kernel, range, preimage, sum, intersection, orthocomplement,
complement within a larger field) mark samples where the defining rank
degenerates as exceptional, fill them from the band-limited continuation
of the projectors and leave the frames in the gauge of the SVD, or at the
filled samples of the eigendecomposition, that built them, so they need
not vary continuously.  A kernel or a sum keeps the orthogonal complement
that SVD or eigendecomposition gave as its perp, so its complement costs
no SVD; a complement carries the field it complements as its own perp.

phase_align is the one gauge step.  It gauges each frame to follow the
previous one with no per-sample loop: the Procrustes step factors between
neighbors come from one batched SVD, a log-depth prefix product chains them
into the per-sample corrections, and two Newton-Schulz steps re-unitarise
the chained products.  It then spreads the closure holonomy evenly over the
loop and records the integer winding it removed: discrete parallel
transport, as smooth as the bundle, so the flag forms and the Jordan chains
fit its frames from the constructors' fields; to_analytic_frame checks that
an aligned field closes before matfun.poly_from_samples turns it into a
polynomial.  field_grid is the default grid of the field constructors.
"""

import numpy as np

from .errors import ClosureDefect, DimensionUnstable
from .matfun import generic_rank, poly_from_samples
from .trigpoly import default_grid_size


def field_grid(degree):
    """At least 256 samples for data of the given degree: the default grid of
    the field constructors."""
    return max(256, default_grid_size(degree))


def cont_budget_default(degree, M, k):
    # Lipschitz budget for one grid step of a frame built from data of the
    # given trigonometric degree, with slack factor 10
    return 10.0 * (2.0 * np.pi * max(degree, 1) / M) * max(k, 1)


def polar_unitary(a):
    """Unitary factor of the polar decomposition (batched over leading axes)."""
    u, _, vh = np.linalg.svd(a)
    return u @ vh


class SubspaceField:
    """Per-sample orthonormal frames for a subspace moving over the grid.

    align_phase is the determinant phase of the gauge corrections
    phase_align applied to the constructor's frames, 0 for a field no
    phase_align produced; phase_align adds it to its own before counting
    the winding, so aligning an aligned field keeps the winding.  perp,
    when set, holds orthonormal frames of the per-sample orthogonal
    complement.
    """

    __slots__ = ("frames", "exceptional", "winding", "closure_residual",
                 "cont_budget", "align_phase", "perp")

    def __init__(self, frames, exceptional=(), winding=None, closure_residual=None,
                 cont_budget=None, align_phase=0.0, perp=None):
        frames = np.asarray(frames, dtype=complex)
        if frames.ndim != 3:
            raise ValueError("frames must be (M, d, k)")
        self.frames = frames
        self.exceptional = sorted(set(int(i) for i in exceptional))
        self.winding = list(winding) if winding is not None else [0] * frames.shape[2]
        self.closure_residual = closure_residual
        self.cont_budget = cont_budget
        self.align_phase = float(align_phase)
        self.perp = perp

    @property
    def M(self):
        return self.frames.shape[0]

    @property
    def d(self):
        return self.frames.shape[1]

    @property
    def k(self):
        return self.frames.shape[2]

    def projectors(self):
        return self.frames @ np.conj(np.swapaxes(self.frames, 1, 2))


def subspace_distance(s, t):
    """Max over samples of the spectral norm gap between the projectors."""
    diff = s.projectors() - t.projectors()
    return float(np.linalg.norm(diff, ord=2, axis=(1, 2)).max())


def _fill_exceptional(frames, exceptional):
    # the gauge-free projectors P = F F* take at the degenerate samples the
    # values whose field has the least Fourier mass above M/4, the band
    # poly_from_samples keeps: one solve against the exceptional block of
    # the circulant out-of-band projector, nonsingular while under M/2
    # samples are missing.  The top k eigenvectors of the filled P are the
    # frames there, the other d - k their complement.
    M, d, k = frames.shape
    exc = np.asarray(exceptional, dtype=int)
    proj = frames @ np.conj(np.swapaxes(frames, 1, 2))
    proj[exc] = 0.0
    high = np.abs(np.fft.fftfreq(M, 1.0 / M)) > M // 4
    rhs = np.fft.ifft(high[:, None, None] * np.fft.fft(proj, axis=0), axis=0)[exc]
    q = np.fft.ifft(high).real[(exc[:, None] - exc) % M]
    fill = np.linalg.solve(q, -rhs.reshape(exc.size, -1))
    vecs = np.linalg.eigh(fill.reshape(-1, d, d))[1]
    return vecs[..., d - k:], vecs[..., :d - k]


def _rolling_align(frames):
    # gauge each frame to follow the previous one (Procrustes per step);
    # returns the aligned frames and the continuously lifted det-phase of the
    # corrections, which phase_align turns into a winding count.  Since
    # polar(X W) = polar(X) W for unitary W, the correction of frame m is
    # W_m = P_m W_{m-1} with step factors P_m = polar(F_m* F_{m-1}) of the raw
    # frames alone: one batched SVD gives them all, and a log-depth prefix
    # product chains them.  The lift is the sum of the step increments
    # angle(det P_m), so it never wraps as long as adjacent frames stay close.
    M, _, k = frames.shape
    if k == 0 or M < 2:
        return frames.copy(), 0.0
    steps = polar_unitary(np.conj(np.swapaxes(frames[1:], 1, 2)) @ frames[:-1])
    theta = float(np.angle(np.linalg.det(steps)).sum())
    w = np.empty((M, k, k), dtype=complex)
    w[0] = np.eye(k)
    w[1:] = steps
    # after the pass with shift s, w[m] is the product of the factors
    # P_m ... P_{m-2s+1} (with P_0 = I), so every W_m is complete once s
    # reaches M
    s = 1
    while s < M:
        w[s:] = w[s:] @ w[:-s]
        s *= 2
    # the chained products drift off the unitary group by rounding; two
    # Newton-Schulz polar steps pull them back to roundoff
    for _ in range(2):
        w = 1.5 * w - 0.5 * w @ (np.conj(np.swapaxes(w, 1, 2)) @ w)
    return frames @ w, theta


def _filled(frames, exceptional, budget, perp=None):
    # the field with its degenerate samples filled from the projector; a
    # carried complement perp takes the fill's other eigenvectors there
    if len(exceptional) > 0.1 * frames.shape[0]:
        raise DimensionUnstable(
            f"{len(exceptional)} of {frames.shape[0]} samples degenerate"
        )
    if exceptional and frames.shape[2]:
        top, rest = _fill_exceptional(frames, exceptional)
        frames = frames.copy()
        frames[exceptional] = top
        if perp is not None:
            perp = perp.copy()
            perp[exceptional] = rest
    return SubspaceField(frames, exceptional, cont_budget=budget, perp=perp)


def _svd_rank_split(samples, tol):
    # u, vh, the generic rank and its exceptional samples, counting singular
    # values above tol times the largest of the whole grid
    u, s, vh = np.linalg.svd(samples)
    smax = float(s[..., 0].max()) if s.size else 0.0
    thresh = tol * max(smax, 1e-300)
    return u, vh, *generic_rank((s > thresh).sum(axis=-1))


def kernel_field(F, M=None, tol=1e-9):
    """Field of right null spaces of F, at the generic (maximal-rank) dimension."""
    samples = F.sample_grid(field_grid(F.degree) if M is None else M)
    return kernel_field_from_samples(samples, F.degree, tol)


def kernel_field_from_samples(samples, degree, tol=1e-9):
    """kernel_field of sampled data; the first rows of each vh span the
    complement, kept as perp."""
    samples = np.asarray(samples, dtype=complex)
    _, vh, r, exc = _svd_rank_split(samples, tol)
    k = samples.shape[2] - r
    right = np.conj(np.swapaxes(vh, 1, 2))
    return _filled(right[:, :, r:], exc,
                   cont_budget_default(degree, samples.shape[0], max(k, 1)), right[:, :, :r])


def range_field(F, M=None, tol=1e-9):
    """Field of column spans of F, at the generic dimension."""
    M = field_grid(F.degree) if M is None else M
    u, _, r, exc = _svd_rank_split(F.sample_grid(M), tol)
    return _filled(u[:, :, :r], exc, cont_budget_default(F.degree, M, max(r, 1)))


def field_from_vectors(vecs, degree, tol=1e-7):
    """One-dimensional field from raw vector samples; vanishing samples are filled."""
    vecs = np.asarray(vecs, dtype=complex)
    norms = np.linalg.norm(vecs, axis=1)
    scale = float(norms.max())
    if scale == 0.0:
        raise DimensionUnstable("all vector samples vanish")
    exc = [int(i) for i in np.nonzero(norms < tol * scale)[0]]
    safe = np.where(norms[:, None] < tol * scale, 1.0, norms[:, None])
    frames = (vecs / safe)[:, :, None]
    return _filled(frames, exc, cont_budget_default(degree, vecs.shape[0], 1))


def orthocomplement(S):
    """Per-sample orthogonal complement; dimensions add up to d.  S.perp when
    the SVD that built S gave it, else from a fresh SVD; its own perp is S."""
    M, d, k = S.frames.shape
    if k == 0:
        perp = np.broadcast_to(np.eye(d, dtype=complex), (M, d, d)).copy()
    elif S.perp is not None:
        perp = S.perp
    else:
        perp = np.linalg.svd(S.frames)[0][:, :, k:]
    return SubspaceField(perp, S.exceptional, cont_budget=S.cont_budget, perp=S.frames)


def preimage_field(F, S, M=None, tol=1e-9):
    """Field of preimages F(x)^{-1} S(x), via the complement of ran(F* S-perp)."""
    M = S.M if M is None else M
    if M != S.M:
        raise ValueError("grid size must match the field")
    fsamp = F.sample_grid(M)
    perp = orthocomplement(S)
    w = np.conj(np.swapaxes(fsamp, 1, 2)) @ perp.frames
    u, _, r, exc = _svd_rank_split(w, tol)
    frames = u[:, :, r:]
    exc = sorted(set(S.exceptional) | set(exc))
    budget = cont_budget_default(F.degree, M, max(frames.shape[2], 1))
    if S.cont_budget:
        budget = max(budget, S.cont_budget)
    return _filled(frames, exc, budget)


def sum_field(S, T, tol=1e-9):
    """Pointwise span of the union, at the generic dimension; the last
    columns of each u span the complement, kept as perp."""
    if S.M != T.M:
        raise ValueError("grid size mismatch")
    stacked = np.concatenate([S.frames, T.frames], axis=2)
    if stacked.shape[2] == 0:
        return SubspaceField(stacked, cont_budget=S.cont_budget)
    u, _, r, exc = _svd_rank_split(stacked, tol)
    exc = sorted(set(S.exceptional) | set(T.exceptional) | set(exc))
    budget = max(S.cont_budget or 0.0, T.cont_budget or 0.0) or None
    return _filled(u[:, :, :r], exc, budget, u[:, :, r:])


def intersect_field(S, T, tol=1e-9):
    """Pointwise intersection, computed as the complement of the sum of complements."""
    return orthocomplement(sum_field(orthocomplement(S), orthocomplement(T), tol))


def complement_within(inner, outer, tol=1e-9):
    """Vectors of `outer` orthogonal to `inner`; requires inner ⊆ outer pointwise.

    This is the intersection of `outer` with the complement of `inner`, whose
    own complement is `inner` itself, so one complement pair is skipped.
    """
    return orthocomplement(sum_field(orthocomplement(outer), inner, tol))


def phase_align(S):
    """Gauge the frames into a continuous closed loop, removing the winding.

    Consecutive frames are aligned by orthogonal Procrustes; the leftover
    closure holonomy is split into its determinant phase and an SU(k) part and
    both are distributed evenly over the grid.  The integer number of full
    turns the corrections made is recorded in winding (first entry for k > 1,
    where per-column turns are not separable).  A residual above the
    continuity budget means the subspace path itself jumps somewhere, so no
    gauge can close it; that raises ClosureDefect.

    The result samples an analytic orthonormal section: the
    parallel-transport gauge of maximally localised Wannier functions
    (Marzari and Vanderbilt, PRB 56, 12847, 1997), whose continuous form is
    Kato's transformation function.  Its Fourier tail is the bundle's own; a
    section pushed through the projectors from one fixed matrix g would
    carry the zeros of v*g in the complex strip instead.
    """
    M, d, k = S.frames.shape
    budget = S.cont_budget if S.cont_budget else cont_budget_default(1, M, max(k, 1))
    if k == 0:
        return SubspaceField(S.frames.copy(), S.exceptional, [], 0.0, budget,
                             S.align_phase)

    g, theta_acc = _rolling_align(S.frames)

    defect = polar_unitary(np.conj(g[0].T) @ g[-1])
    theta_d = float(np.angle(np.linalg.det(defect)))
    su = defect * np.exp(-1j * theta_d / k)
    evals, q = np.linalg.eig(su)
    log_angles = np.angle(evals)

    ms = np.arange(M, dtype=float) / M
    qinv = np.linalg.inv(q)
    su_steps = (q * np.exp(-1j * np.outer(ms, log_angles))[:, None, :]) @ qinv
    det_steps = np.exp(-1j * theta_d / k * ms)
    out = g @ (su_steps * det_steps[:, None, None])

    theta_total = S.align_phase + theta_acc + theta_d
    w = int(np.round(-theta_total / (2.0 * np.pi)))
    winding = [w] + [0] * (k - 1)

    diffs = np.linalg.norm(out - np.roll(out, 1, axis=0), axis=(1, 2))
    residual = float(diffs.max())
    if residual > budget:
        j = int(diffs.argmax())
        raise ClosureDefect(f"frame jump {residual:.3e} at sample {j} "
                            f"exceeds budget {budget:.3e}", residual, budget)
    closure = float(np.linalg.norm(out[0] - out[-1]))
    return SubspaceField(out, S.exceptional, winding, closure, budget,
                         theta_total)


def to_analytic_frame(S, N=None):
    """Polynomial frame of an aligned, closed field, at poly_from_samples' default tail."""
    if S.closure_residual is None:
        raise ValueError("field must be phase_aligned before extracting a frame")
    if S.cont_budget is not None and S.closure_residual > S.cont_budget:
        raise ValueError("field does not close; no analytic frame exists")
    return poly_from_samples(S.frames, N)

