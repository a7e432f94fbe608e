"""Rank and echelon bases of exact integer row spaces."""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from idealshi import linalg

small_matrix = st.lists(
    st.lists(st.integers(-6, 6), min_size=4, max_size=4),
    min_size=1,
    max_size=4,
)


@given(small_matrix)
@settings(max_examples=200, deadline=None)
def test_rank_invariant_under_row_operations(rows):
    base = linalg.rank(rows)
    rng = random.Random(sum(sum(r) for r in rows) + len(rows))
    mixed = [list(r) for r in rows]
    for _ in range(6):
        i, j = rng.randrange(len(mixed)), rng.randrange(len(mixed))
        if i != j:
            c = rng.randint(-3, 3)
            mixed[i] = [a + c * b for a, b in zip(mixed[i], mixed[j])]
        else:
            mixed[i] = [3 * a for a in mixed[i]]
    rng.shuffle(mixed)
    assert linalg.rank(mixed) == base


@given(small_matrix)
@settings(max_examples=200, deadline=None)
def test_echelon_rows_are_primitive_and_span_the_input(rows):
    out, pivots = linalg.echelon(rows)
    assert len(set(pivots)) == len(pivots)
    for r, p in zip(out, pivots):
        assert math.gcd(*r) == 1
        assert p == linalg.first_nonzero(r) and r[p] > 0
    for v in rows:
        assert not any(linalg.reduce_row(v, out, pivots))
