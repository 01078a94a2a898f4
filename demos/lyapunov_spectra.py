"""Estimate Lyapunov spectra, including directions that diverge to -inf.

The estimator runs one QR step per block of orbit steps over a lattice of
starting points and averages log growth per direction. Nilpotent directions have no
finite exponent: the stabilised rank k of the iterates counts the finite
exponents, and the other slots are reported as -inf with the rank
certificate as their reason, instead of a large negative number that depends
on the run length.
"""

import numpy as np

from cocycles import Cocycle, GOLDEN_MEAN, MatrixFunction, exterior_power, \
    lyapunov_spectrum
from cocycles import fixtures as fx

# constant diagonal: exponents are exactly the log moduli
b = np.diag([2.0, -0.5, 0.25j])
rep = lyapunov_spectrum(Cocycle((GOLDEN_MEAN,), MatrixFunction.constant(b)),
                        n=400, M=16)
print("constant diag:", np.round(rep.exponents, 12))

# a nilpotent cocycle: every direction is flagged, and no orbit is swept
rep = lyapunov_spectrum(fx.nilpotent_3x3_variable_rank(), n=500, M=32)
print("nilpotent:", rep.exponents, " reason:", rep.flag_reason)

# a nilpotent block beside an invertible one: its two directions are
# certified -inf by the rank profile, whatever the sweep reads for them
rep = lyapunov_spectrum(fx.nilpotent_plus_invertible_3x3(), n=1000, M=32)
print("nilpotent + invertible:", [round(v, 4) if np.isfinite(v) else v
                                  for v in rep.exponents],
      " raw:", np.round(rep.raw_estimates, 2), " reason:", rep.flag_reason)

# mixed: one expanding direction, one structurally dead
rep = lyapunov_spectrum(fx.dominated_2x2(), n=2000, M=32)
print("dominated 2x2:", [round(v, 4) if np.isfinite(v) else v
                         for v in rep.exponents])
print("  top exponent has standard error %.1e" % rep.stderr[0])

# cross-check through the exterior power: the top exponent of the induced
# action on 2-vectors is the sum of the first two exponents
C = fx.random_invertible(3)
r1 = lyapunov_spectrum(C, n=2000, M=32)
Ck = Cocycle(C.frequencies, exterior_power(C.matrix, 2))
rk = lyapunov_spectrum(Ck, n=2000, M=32)
print("sum of top two: %.6f   exterior top: %.6f   difference %.1e"
      % (sum(r1.exponents[:2]), rk.exponents[0],
         abs(sum(r1.exponents[:2]) - rk.exponents[0])))

# two-frequency grid cocycles run through the same estimator
rep = lyapunov_spectrum(fx.twofrequency_rank_one(), n=500, M=32)
print("two-frequency rank one:", rep.exponents)
