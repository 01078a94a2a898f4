"""Reduce a constant-rank nilpotent cocycle to a single constant Jordan matrix.

When every iterate keeps constant rank over the torus, the triangular form
can be pushed all the way: an analytic invertible (not unitary) conjugation
M(x) brings the cocycle to the constant Jordan matrix its rank sequence
forces. Only the top of each chain is fitted; the rest of the chain is A
applied to it, step by step, as exact polynomial products. Rank that varies
with x is a hard obstruction, not a numerical one, and is reported as
ConstantRankViolated.
"""

import numpy as np

from cocycles import jordan_form, jordan_structure_from_ranks, rank_profile
from cocycles import fixtures as fx
from cocycles.errors import ConstantRankViolated

C, built_j, built_chains = fx.random_constant_rank_jordan(5)
F = jordan_form(C)
print("built chains:   ", built_chains)
print("recovered chains:", F.chains)
print("J recovered bit-identically:", np.array_equal(F.J, built_j))
print("conjugation residual: %.3e   cond(M) <= %.3f"
      % (F.residual, F.cond_max))

# the chain structure is forced by the iterate ranks alone
prof = rank_profile(C)
print("iterate ranks:", prof.ranks, "->",
      jordan_structure_from_ranks(prof.ranks, C.dim))

# a cocycle built without a known J: a unitary conjugation of a strictly
# upper triangular polynomial matrix, generically of constant rank, so the
# chains follow from its rank profile and nothing else
C = fx.random_nilpotent(3)
F = jordan_form(C)
prof = rank_profile(C)
print("random_nilpotent(3): chains", F.chains, " rank duality",
      jordan_structure_from_ranks(prof.ranks, C.dim))
print("conjugation residual: %.3e   cond(M) <= %.3g" % (F.residual, F.cond_max))

# two bundled cocycles have full-measure constant rank yet drop rank on a
# finite exceptional set; the complete reduction refuses them
for name, bad in [("3x3", fx.nilpotent_3x3_variable_rank()),
                  ("4x4", fx.nilpotent_4x4_variable_rank2())]:
    try:
        jordan_form(bad)
    except ConstantRankViolated as e:
        print(name, "rejected:", e)
