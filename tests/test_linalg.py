"""Canonicality of the exact row-space forms."""

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
def test_rref_invariant_under_row_operations(rows):
    base = linalg.rref(rows)
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
    assert linalg.rref(mixed) == base


@given(small_matrix)
@settings(max_examples=200, deadline=None)
def test_rref_rows_are_reduced_and_primitive(rows):
    out = linalg.rref(rows)
    pivots = [linalg.first_nonzero(r) for r in out]
    assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
    for i, r in enumerate(out):
        assert linalg.content(r) == 1
        assert r[pivots[i]] > 0
        for j, other in enumerate(out):
            if i != j:
                assert other[pivots[i]] == 0
