"""Split off the finitely-vanishing part and test domination.

A cocycle whose some iterate has constant nonmaximal rank splits into a
nilpotent block a and an invertible block d coupled by b. Domination of the
invertible part is decided exactly from the roots of the polynomial det d: it
holds when none lies on the unit circle. Then the coupling can be conjugated
away entirely and the growth gap is certified by singular value ratios of the
iterates.
"""

import numpy as np

from cocycles import is_dominated, split_infinite_part
from cocycles import fixtures as fx
from cocycles.domination import dominated_splitting
from cocycles.errors import NotDominated

S = split_infinite_part(fx.dominated_2x2())
print("split: invertible block size %d, nilpotent degree %d, residual %.1e"
      % (S.k, S.p, S.residual))

out = dominated_splitting(S)
print("dominated:", out.dominated, " splitting residual %.1e" % out.residual)
print("coupling after conjugation:",
      max(out.C.entry(0, 1).max_coeff(), out.C.entry(1, 0).max_coeff()))
# ratios saturate near 1/eps once the nilpotent block is dead to rounding
print("gap certificate (singular value ratio per iterate):")
for n, ratio in sorted(out.gap_certificate.items()):
    print("  n=%d  %.3e" % (n, ratio))

ev = is_dominated(S)["evidence"]
print("d stays invertible on the strip |Im x| < %.4f" % ev["strip_width"])

# the non-dominated twin: det d has a root on the unit circle, a zero on it
Sn = split_infinite_part(fx.not_dominated_2x2())
verdict = is_dominated(Sn)
ev = verdict["evidence"]
print("\nnot dominated:", not verdict["dominated"],
      " minimizer x = %.4f with |det d| = %.1e" % (ev["minimizer"],
                                                   ev["det_min"]))
try:
    dominated_splitting(Sn)
except NotDominated as e:
    print("splitting refused:", e)

# a 3x3 with a genuinely rectangular coupling block
S3 = split_infinite_part(fx.nilpotent_plus_invertible_3x3())
out3 = dominated_splitting(S3)
print("\n3x3 mixed: k=%d p=%d dominated=%s residual %.1e"
      % (S3.k, S3.p, out3.dominated, out3.residual))
