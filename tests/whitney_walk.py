"""The test oracle for Whitney's subset sum: the recursive walk.

The program sums over the broken-circuit-free sets in one vectorized pass
over all live prefixes; this walk visits the same sets one branch at a time
with pure-Python elimination.  Tests compare the two.
"""

from idealshi import linalg
from idealshi.charpoly import CharPoly, whitney_admit


def whitney_walk(arr):
    """Signed sum of t^(dim - rank B) over subsets B of the arrangement.

    Subsets whose next element depends on the ones already chosen cancel
    in +/- pairs, so the walk only ever branches on independent sets;
    that keeps |A| = 22 comfortably feasible without changing the sum.
    """
    whitney_admit(arr.size)
    n = arr.dim
    covs = arr.covectors
    m = len(covs)
    coeffs = [0] * (n + 1)

    def walk(i: int, rows, pivots, size: int) -> None:
        if i == m:
            coeffs[n - size] += -1 if size % 2 else 1
            return
        new = linalg.reduce_row(covs[i], rows, pivots)
        if (piv := linalg.first_nonzero(new)) < 0:
            return  # dependent: the include/exclude subtrees cancel exactly
        walk(i + 1, rows, pivots, size)
        walk(i + 1, rows + (new,), pivots + (piv,), size + 1)

    walk(0, (), (), 0)
    return CharPoly(tuple(coeffs))
