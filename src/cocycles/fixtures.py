"""Bundled example cocycles and seeded synthetic generators.

The named fixtures are small analytic cocycles with known structure: two
variable-rank nilpotent examples (rank of the first or second iterate is not
constant, so no completely reduced normal form exists), a two-frequency
rank-one cocycle whose kernel direction has no limit at the origin, and a
dominated / not-dominated pair for the splitting dichotomy.  The random
generators build cocycles with structure known by construction, for
round-trip testing.
"""

import numpy as np

from .cocycle import GOLDEN_MEAN, Cocycle
from .matfun import GridMatrixFunction, MatrixFunction
from .trigpoly import TrigPoly

SILVER_MEAN = 0.41421356237309515


def _z():
    return TrigPoly.zero()


def _c(v):
    return TrigPoly.constant(v)


def nilpotent_3x3_variable_rank(alpha=GOLDEN_MEAN):
    """Nilpotent of degree 3; the rank of A itself drops at two points."""
    a = MatrixFunction([
        [_z(), TrigPoly.cosine(), TrigPoly.sine()],
        [_z(), _z(), _c(1.0)],
        [_z(), _z(), _z()],
    ])
    return Cocycle((alpha,), a)


def nilpotent_4x4_variable_rank2(alpha=GOLDEN_MEAN):
    """Nilpotent of degree 3 with constant rank 2, but the second iterate's
    rank drops at the zeros of the sine."""
    a = MatrixFunction([
        [_z(), _z(), _z(), TrigPoly.cosine()],
        [_z(), _z(), _c(1.0), _z()],
        [_z(), _z(), _z(), TrigPoly.sine()],
        [_z(), _z(), _z(), _z()],
    ])
    return Cocycle((alpha,), a)


def _twofrequency_entries(x, y, a1, a2):
    phi1 = np.sin(2 * np.pi * (x + a1))
    phi2 = np.sin(2 * np.pi * (y + a2))
    psi1 = -np.sin(2 * np.pi * y)
    psi2 = np.sin(2 * np.pi * x)
    out = np.empty(np.broadcast(x, y).shape + (2, 2), dtype=complex)
    out[..., 0, 0] = phi1 * psi1
    out[..., 0, 1] = phi1 * psi2
    out[..., 1, 0] = phi2 * psi1
    out[..., 1, 1] = phi2 * psi2
    return out


def twofrequency_rank_one(alphas=(GOLDEN_MEAN, SILVER_MEAN), M=64):
    """Two-frequency rank-one cocycle whose second iterate vanishes but whose
    kernel direction cannot be continued through (0, 0)."""
    xs = np.arange(M) / M
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    samples = _twofrequency_entries(X, Y, alphas[0], alphas[1])
    return Cocycle(tuple(alphas), GridMatrixFunction(samples))


def kernel_loop_samples(M=256, side=0.1, alphas=(GOLDEN_MEAN, SILVER_MEAN)):
    """Samples of the two-frequency fixture along a square loop cornered at
    the origin.

    The kernel direction approaches the corner along two different lines
    (incoming edge vertical, outgoing edge horizontal), so the kernel field
    restricted to this loop has a genuine jump that no phase gauge removes.
    """
    if M % 4:
        raise ValueError("need a multiple of 4 samples for the four edges")
    q = M // 4
    t = np.arange(q) / q
    xs = np.concatenate([side * t, np.full(q, side), side * (1 - t), np.zeros(q)])
    ys = np.concatenate([np.zeros(q), side * t, np.full(q, side), side * (1 - t)])
    return _twofrequency_entries(xs, ys, alphas[0], alphas[1])


def not_dominated_2x2(alpha=GOLDEN_MEAN):
    """Top exponent finite, kernel rank-one part vanishing at two points; the
    splitting criterion fails exactly there."""
    a = MatrixFunction([
        [_z(), TrigPoly.cosine()],
        [_z(), TrigPoly.sine()],
    ])
    return Cocycle((alpha,), a)


def dominated_2x2(alpha=GOLDEN_MEAN):
    """One nilpotent direction plus an everywhere-invertible scalar part."""
    a = MatrixFunction([
        [_z(), TrigPoly.sine()],
        [_z(), _c(2.0) + TrigPoly.cosine()],
    ])
    return Cocycle((alpha,), a)


def nilpotent_plus_invertible_3x3(alpha=GOLDEN_MEAN):
    """Upper 2x2 strictly triangular block coupled to an invertible scalar."""
    a = MatrixFunction([
        [_z(), TrigPoly.cosine(), TrigPoly.sine()],
        [_z(), _z(), _c(1.0) + TrigPoly.cosine(amplitude=0.25)],
        [_z(), _z(), _c(3.0)],
    ])
    return Cocycle((alpha,), a)


def constant_jordan(chain_lengths, alpha=GOLDEN_MEAN):
    """Constant direct sum of nilpotent Jordan blocks with the given sizes."""
    d = int(sum(chain_lengths))
    j = np.zeros((d, d), dtype=complex)
    pos = 0
    for length in chain_lengths:
        for i in range(length - 1):
            j[pos + i, pos + i + 1] = 1.0
        pos += length
    return Cocycle((alpha,), MatrixFunction.constant(j))


def random_trigpoly(rng, degree, scale=1.0):
    return TrigPoly.from_dict({
        k: scale * (rng.standard_normal() + 1j * rng.standard_normal())
        for k in range(-degree, degree + 1)
    })


def random_unitary_matrix(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_unitary_function(rng, d, degree=1):
    """Exactly unitary trig-poly matrix: constant unitaries around either a
    planar rotation of the given degree or a diagonal of unimodular harmonics."""
    q1 = random_unitary_matrix(rng, d)
    q2 = random_unitary_matrix(rng, d)
    if degree == 0:
        return MatrixFunction.constant(q1 @ q2)
    if d >= 2 and rng.random() < 0.5:
        i, j = sorted(rng.choice(d, size=2, replace=False))
        phase = rng.random()
        c = TrigPoly.cosine(freq=degree).translate(phase)
        s = TrigPoly.sine(freq=degree).translate(phase)
        rows = []
        for r in range(d):
            row = []
            for cc in range(d):
                if (r, cc) == (i, i) or (r, cc) == (j, j):
                    row.append(c)
                elif (r, cc) == (i, j):
                    row.append(s * (-1.0))
                elif (r, cc) == (j, i):
                    row.append(s)
                elif r == cc:
                    row.append(_c(1.0))
                else:
                    row.append(_z())
            rows.append(row)
        mid = MatrixFunction(rows)
    else:
        ks = rng.integers(-degree, degree + 1, size=d)
        phases = rng.random(d)
        rows = []
        for r in range(d):
            row = [_z()] * d
            row[r] = TrigPoly.harmonic(int(ks[r]), np.exp(2j * np.pi * phases[r]))
            rows.append(row)
        mid = MatrixFunction(rows)
    return MatrixFunction.constant(q1) @ mid @ MatrixFunction.constant(q2)


def random_strictly_upper(rng, d, degree=2, scale=1.0):
    rows = []
    for r in range(d):
        row = []
        for c in range(d):
            if c > r:
                row.append(random_trigpoly(rng, degree, scale))
            else:
                row.append(_z())
        rows.append(row)
    return MatrixFunction(rows)


def random_nilpotent(seed, d=None, alpha=GOLDEN_MEAN):
    """Unitary conjugation of a strictly upper triangular polynomial matrix.

    Nilpotent by construction, of degree at most 4; the frames of its kernel
    flag fit on the rank grid (degree at most 2 on seeds 0-49)."""
    rng = np.random.default_rng(seed)
    if d is None:
        d = int(rng.integers(2, 6))
    u = random_unitary_function(rng, d, degree=1)
    b = random_strictly_upper(rng, d, degree=2, scale=1.0)
    a = u.translate(alpha) @ b @ u.adjoint()
    return Cocycle((alpha,), a)


def _poly_matrix_power(n_mat, j):
    if j == 0:
        return MatrixFunction.identity(n_mat.rows)
    out = n_mat
    for _ in range(j - 1):
        out = out @ n_mat
    return out


def random_constant_rank_jordan(seed, alpha=GOLDEN_MEAN, d_max=5):
    """Cocycle conjugate to a constant nilpotent Jordan matrix.

    The conjugator is unipotent, I plus a strictly upper trig-poly, so its
    inverse is an exact finite Neumann sum and every iterate has constant
    rank.  Returns (cocycle, J, chain lengths)."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, d_max + 1))
    remaining = d
    chains = []
    while remaining:
        length = int(rng.integers(1, remaining + 1))
        chains.append(length)
        remaining -= length
    chains.sort(reverse=True)
    jc = constant_jordan(chains, alpha)
    j_mat = jc.matrix.eval_mat(0.0)

    n = random_strictly_upper(rng, d, degree=1, scale=0.4 / d)
    m0 = MatrixFunction.identity(d) + n
    inv = MatrixFunction.identity(d)
    for jj in range(1, d):
        sign = -1.0 if jj % 2 else 1.0
        inv = inv + _poly_matrix_power(n, jj) * sign
    a = m0.translate(alpha) @ jc.matrix @ inv
    return Cocycle((alpha,), a), j_mat, chains


def random_invertible(seed, d=None, degree=2, alpha=GOLDEN_MEAN):
    """Everywhere invertible cocycle: constant invertible core plus a trig
    perturbation kept below its smallest singular value."""
    rng = np.random.default_rng(seed)
    if d is None:
        d = int(rng.integers(2, 5))
    core = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    core += np.eye(d) * (2.0 * d)
    smin = np.linalg.svd(core, compute_uv=False)[-1]
    pert = MatrixFunction([
        [random_trigpoly(rng, degree, 1.0) for _ in range(d)] for _ in range(d)
    ])
    margin = 0.4 * smin / max(pert.sup_bound(), 1e-12)
    a = MatrixFunction.constant(core) + pert * margin
    return Cocycle((alpha,), a)


def random_rank_one(seed, d=2, degree=2, vanishing_coupling=False,
                    alpha=GOLDEN_MEAN):
    """Rank-one cocycle c(x) phi(x) psi(x)* with exactly unit-norm factors.

    With vanishing_coupling the psi direction is chosen orthogonal to phi one
    rotation step later, so the second iterate vanishes identically and the
    top exponent is -inf."""
    rng = np.random.default_rng(seed)
    c = random_trigpoly(rng, degree, 1.0)
    phase = rng.random()
    cos = TrigPoly.cosine().translate(phase)
    sin = TrigPoly.sine().translate(phase)
    q = random_unitary_matrix(rng, d)
    phi = MatrixFunction.constant(q) @ MatrixFunction(
        [[cos], [sin]] + [[_z()] for _ in range(d - 2)]
    )
    if vanishing_coupling:
        # psi(y) perpendicular to phi(y - alpha): quarter-turn of the shifted
        # rotation column in the same constant frame
        cos_b = cos.translate(-alpha)
        sin_b = sin.translate(-alpha)
        psi = MatrixFunction.constant(q) @ MatrixFunction(
            [[sin_b * (-1.0)], [cos_b]] + [[_z()] for _ in range(d - 2)]
        )
    else:
        phase2 = rng.random()
        q2 = random_unitary_matrix(rng, d)
        psi = MatrixFunction.constant(q2) @ MatrixFunction(
            [[TrigPoly.cosine().translate(phase2)],
             [TrigPoly.sine().translate(phase2)]] + [[_z()] for _ in range(d - 2)]
        )
    a = (phi @ psi.adjoint()) * c
    return Cocycle((alpha,), a)

