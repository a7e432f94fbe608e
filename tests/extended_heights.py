"""The test oracle for the ideal-Shi exponents: the paper's literal form.

Each defining vector of an ideal-Shi cone gets an extended height, and the
predicted exponents are the dual partition of those heights.  The program
predicts with the shift law (1, kh +/- e_i(I)) instead; tests compare the two.
"""

from idealshi.rootsys import is_ideal, shi_levels


def shi_planes(rs, k, mask, sign):
    """The (root, level) pairs of the planes {root = level*z} of an
    ideal-Shi cone, besides {z = 0}."""
    return [(root, j) for root, js in zip(rs.positive_roots, shi_levels(rs, k, mask, sign)) for j in js]


def ext_height(rs, root, j):
    """Height of the affine vector ``root - j*z``, extended h-periodically.

    Positive levels mirror the height through the top of the window:
    -Ht + j*h + 1; nonpositive levels shift it: Ht - j*h.
    """
    if root.coeffs not in rs.index:
        raise ValueError(f"{root} is not a positive root of {rs.type}")
    h = rs.coxeter_number
    if j > 0:
        return -root.height + j * h + 1
    return root.height - j * h


def ext_height_z():
    """Height assigned to the coning direction."""
    return 1


def shi_defining_values(rs, k, mask, sign):
    """Extended heights of the defining vectors of the ideal-Shi cone
    (k, mask, sign): z plus every plane of ``shi_planes``."""
    if not is_ideal(rs, mask):
        raise ValueError("subset is not downward closed under dominance")
    return [ext_height_z()] + [ext_height(rs, r, j) for r, j in shi_planes(rs, k, mask, sign)]
