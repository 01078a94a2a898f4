"""Pinned iterate ladders: the degree of every iterate L_1 ... L_{d+1} and
the rank profile of the bundled CLI fixtures and of random_nilpotent seeds
0-49.

Degrees set the sampling grids (the floor of max_rank, field_grid), so a
change to the coefficient algebra or its truncation that moves one can move
a verdict.  The values are those of the per-entry TrigPoly algebra the
coefficient tensor replaced; the iterates past the nilpotency degree are
rounding noise, and their degrees are pinned too.
"""

import pytest

from cocycles import cli, fixtures
from cocycles.cocycle import Structure

# name -> (rank profile, degrees of L_1 ... L_{d+1}; None for grid input)
FIXTURES = {
    "nilpotent_3x3_variable_rank": ((2, 1, 0), (1, 1, 0, 0)),
    "nilpotent_4x4_variable_rank2": ((2, 1, 0), (1, 1, 0, 0, 0)),
    "twofrequency_rank_one": ((1, 0), None),
    "not_dominated_2x2": ((1,), (1, 2, 3)),
    "dominated_2x2": ((1,), (1, 2, 3)),
    "nilpotent_plus_invertible_3x3": ((2, 1), (1, 2, 2, 2)),
    "constant_jordan_3": ((2, 1, 0), (0, 0, 0, 0)),
    "constant_jordan_2_1": ((1, 0), (0, 0, 0, 0)),
    "synthetic_nilpotent_seed42": ((1, 0), (4, 8, 12)),
    "synthetic_jordan_seed42": ((1, 0), (0, 0, 0)),
}

# random_nilpotent(seed) for seed 0, 1, ...: (rank profile, degrees)
NILPOTENT = [
    ((4, 3, 2, 1, 0), (4, 6, 8, 10, 14, 18)),
    ((2, 1, 0), (4, 6, 10, 14)),
    ((4, 3, 2, 1, 0), (4, 6, 8, 10, 14, 18)),
    ((4, 3, 2, 1, 0), (4, 6, 8, 10, 14, 18)),
    ((3, 2, 1, 0), (4, 6, 8, 12, 16)),
    ((3, 2, 1, 0), (3, 5, 7, 10, 13)),
    ((2, 1, 0), (4, 6, 10, 14)),
    ((4, 3, 2, 1, 0), (4, 6, 8, 10, 14, 18)),
    ((3, 2, 1, 0), (4, 6, 8, 12, 16)),
    ((2, 1, 0), (4, 6, 10, 14)),
    ((4, 3, 2, 1, 0), (4, 6, 8, 10, 14, 18)),
    ((1, 0), (4, 8, 12)),
    ((3, 2, 1, 0), (4, 6, 8, 12, 16)),
    ((4, 3, 2, 1, 0), (3, 5, 7, 9, 12, 15)),
    ((1, 0), (2, 4, 6)),
    ((4, 3, 2, 1, 0), (4, 6, 8, 10, 14, 18)),
    ((3, 2, 1, 0), (4, 6, 8, 12, 16)),
    ((3, 2, 1, 0), (4, 6, 8, 12, 16)),
    ((4, 3, 2, 1, 0), (4, 6, 8, 10, 14, 18)),
    ((3, 2, 1, 0), (3, 5, 7, 10, 13)),
    ((4, 3, 2, 1, 0), (4, 6, 8, 10, 14, 18)),
    ((2, 1, 0), (4, 6, 10, 14)),
    ((4, 3, 2, 1, 0), (4, 6, 8, 10, 14, 18)),
    ((1, 0), (4, 8, 12)),
    ((2, 1, 0), (4, 6, 10, 14)),
    ((3, 2, 1, 0), (4, 6, 8, 12, 16)),
    ((4, 3, 2, 1, 0), (4, 6, 8, 10, 14, 18)),
    ((1, 0), (4, 8, 12)),
    ((3, 2, 1, 0), (4, 6, 8, 12, 16)),
    ((4, 3, 2, 1, 0), (3, 5, 7, 9, 12, 15)),
    ((1, 0), (2, 4, 6)),
    ((3, 2, 1, 0), (4, 6, 8, 12, 16)),
    ((4, 3, 2, 1, 0), (4, 6, 8, 10, 14, 18)),
    ((4, 3, 2, 1, 0), (4, 6, 8, 10, 14, 18)),
    ((1, 0), (4, 8, 12)),
    ((1, 0), (2, 4, 6)),
    ((2, 1, 0), (3, 5, 8, 11)),
    ((1, 0), (3, 6, 9)),
    ((1, 0), (3, 6, 9)),
    ((4, 3, 2, 1, 0), (4, 6, 8, 10, 14, 18)),
    ((3, 2, 1, 0), (4, 6, 8, 12, 16)),
    ((3, 2, 1, 0), (4, 6, 8, 12, 16)),
    ((1, 0), (4, 8, 12)),
    ((3, 2, 1, 0), (3, 5, 7, 10, 13)),
    ((3, 2, 1, 0), (4, 6, 8, 12, 16)),
    ((4, 3, 2, 1, 0), (4, 6, 8, 10, 14, 18)),
    ((3, 2, 1, 0), (4, 6, 8, 12, 16)),
    ((1, 0), (4, 8, 12)),
    ((1, 0), (3, 6, 9)),
    ((1, 0), (4, 8, 12)),
]


def _ladder(C):
    st = Structure(C)
    degrees = tuple(st.iterate(n).degree for n in range(1, C.dim + 2)) if C.is_exact else None
    return tuple(st.profile.ranks), degrees


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_ladder(name):
    assert _ladder(cli._fixture_set(42)[name]) == FIXTURES[name]


@pytest.mark.parametrize("seed", range(len(NILPOTENT)))
def test_random_nilpotent_ladder(seed):
    assert _ladder(fixtures.random_nilpotent(seed)) == NILPOTENT[seed]
