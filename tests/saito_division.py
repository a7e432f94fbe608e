"""The test oracle for Saito's criterion: exact synthetic division.

The program decides membership of a line from one Horner pass that packs
the Taylor coefficients of a*P + b*Q at the line into the digits of one
integer, and builds prod alpha_H^(m_H) from one big-integer product.  This
oracle divides by alpha one unit at a time and multiplies the target one
line at a time.  Tests compare the two.
"""

from typing import Sequence

import numpy as np

from idealshi import linalg


def _respects(a: int, b: int, m: int, theta: Sequence[int]) -> bool:
    """Does alpha^m divide g = a*P + b*Q, alpha = a*x + b*y primitive?  g is
    divided by alpha m times by integer synthetic division from its top term
    (in y when a = 0); by Gauss's lemma an inexact quotient means no."""
    n = len(theta) // 2
    g = [a * u + b * v for u, v in zip(theta[:n], theta[n:])][:: -1 if a else 1]
    a, b = (a, b) if a else (b, a)
    for _ in range(m if any(g) else 0):  # a nonzero g fails by m = deg g + 1
        h, quotient = [], 0  # h_(s-1) = (g_s - b*h_s) / a, s = deg g .. 0; h_(-1) = 0
        for c in g:
            quotient, rest = divmod(c - b * quotient, a)
            if rest:
                return False
            h.append(quotient)
        if h.pop():
            return False
        g = h
    return True


def target_by_convolution(lines, mult):
    """prod alpha_H^(m_H) at y = 1, one np.convolve per unit of multiplicity."""
    target = np.ones(1, dtype=object)
    for a, b in lines:
        for _ in range(mult.get((a, b), 0)):
            target = np.convolve(target, np.array([b, a], dtype=object))
    return target


def saito_divided(arr2, mult, theta1, theta2) -> bool:
    """Saito's criterion with membership by synthetic division and the target
    by repeated convolution."""
    if not all(_respects(a, b, mult.get((a, b), 0), t) for a, b in arr2.covectors for t in (theta1, theta2)):
        return False
    (p1, q1), (p2, q2) = (np.array(t, dtype=object).reshape(2, -1) for t in (theta1, theta2))
    det, target = np.convolve(p1, q2) - np.convolve(p2, q1), target_by_convolution(arr2.covectors, mult)
    j = linalg.first_nonzero(target)
    return len(det) == len(target) and det[j] != 0 and all(det * target[j] == target * det[j])
