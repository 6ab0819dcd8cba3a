"""The census of a guess against the per-edge reference."""

import random
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from parsched.a1 import a1_partition
from parsched.a2 import a2_params

from helpers import census_reference

# Ladders of 3, 8, 47, 270, 4 and 4 entries.
LADDERS = [*(a1_partition(eps) for eps in (F(1), F(1, 2), F(1, 8), F(1, 32))),
           *(a2_params(eps, 256) for eps in (F(1), F(1, 2)))]


@given(
    ladder=st.sampled_from(LADDERS),
    side=st.sampled_from(("shorter", "equal", "longer")),
    cap=st.sampled_from([None, 0, 1]),
    wrapped=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_census_matches_per_edge_reference(ladder, side, cap, wrapped, seed):
    """The census counted from the shorter side gives the per-edge
    reference's counts, capped as it caps them, with fewer, as many and
    more sizes than the ladder has entries, sizes on an edge, one unit
    either side of it and above the top bound.  A wrapped guess is
    p1 * (196/195)**k, with a numerator of 1,000 bits or more."""
    rng = random.Random(seed)
    T = F(rng.randint(1, 96), rng.randint(1, 48))
    if wrapped:
        T *= F(196, 195) ** rng.randint(140, 400)
        assert T.numerator.bit_length() >= 1000
    guess = ladder.at(T)
    # A scale of at least unit / T makes a size unit no coarser than a ladder unit.
    scale = rng.choice([1, 6, 48, rng.randint(1, 2**70), guess.unit * rng.randint(1, 1000)])
    num, den = T.numerator * scale, T.denominator * guess.unit
    edges = [x * num // den for x in guess.ladder]
    entries = len(guess.ladder)
    n = {"shorter": rng.randint(0, entries - 1), "equal": entries,
         "longer": rng.randint(entries + 1, 2 * entries + 8)}[side]

    def size():
        pick = rng.random()
        if pick < 0.6:
            return max(1, rng.choice(edges) + rng.choice((-1, 0, 1)))
        if pick < 0.75:
            return edges[-1] + rng.randint(1, 3)  # above the top bound
        return rng.randint(1, edges[-1] + 1)

    sizes = sorted(size() for _ in range(n))
    assert guess.census(sizes, scale, cap) == census_reference(guess, sizes, scale, cap)
