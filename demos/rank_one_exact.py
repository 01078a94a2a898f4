"""Closed-form top exponent for rank-one cocycles.

A rank-one generator satisfies A = A e_j e_i* A / a_ij for any entry a_ij
that is not identically zero, so its iterates are products of the scalar
kappa(x) = row_i A(x+a) . col_j A(x), the (i, j) entry of the second
iterate, divided by translates of a_ij. The top exponent is then
int ln|kappa| - int ln|a_ij|, two log integrals evaluated exactly from
polynomial roots. When kappa vanishes identically the second iterate is
identically zero and the exponent is -inf, not merely very negative.
"""

import numpy as np

from cocycles import exact_L1_rank_one, iterate, lyapunov_spectrum
from cocycles import fixtures as fx
from cocycles.trigpoly import log_integral

C = fx.random_rank_one(2)
A = C.matrix
i, j = np.unravel_index(int(np.abs(A.c).max(axis=0).argmax()), A.shape)
a_ij, kappa = A.entry(i, j), iterate(C, 2).entry(i, j)
print(f"entry a_{i}{j}: degree {a_ij.degree}; "
      f"kappa: degree {kappa.degree}, largest coefficient {kappa.max_coeff():.6f}")
print("int ln|kappa| - int ln|a_ij| =",
      log_integral(kappa) - log_integral(a_ij))

exact = exact_L1_rank_one(C)
print("closed form L1 =", exact)

# the iterative estimator agrees to its own error bar
rep = lyapunov_spectrum(C, n=4000, M=32)
print("QR estimate    = %.6f +- %.1e" % (rep.exponents[0], rep.stderr[0]))

# vanishing kappa: the dichotomy, not a small number
Cv = fx.random_rank_one(2, vanishing_coupling=True)
print("vanishing case L1 =", exact_L1_rank_one(Cv))
a2 = iterate(Cv, 2)
print("second iterate coefficient mass:", a2.max_coeff())
