"""Exact signatures of rational symmetric matrices.

The signature (#positive - #negative eigenvalues) of a nonsingular
symmetric matrix is computed by fraction-free congruence elimination over
the integers: every pivot is an exact nonzero integer, so the answer is
exact, and a matrix is refused only when it is exactly singular.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import PossiblySingularError


def rational_symmetric_signature(rows: Sequence[Sequence]) -> int:
    """Signature of an exact rational symmetric matrix.

    Fraction-free (Bareiss) elimination with 1x1 pivots: after each pivot
    the remaining block is the Schur complement times the last pivot, so
    the sign of the true pivot is sign(pivot) * sign(previous pivot).
    When every remaining diagonal entry is 0, a [[0, b], [b, 0]] block is
    turned into a 1x1 pivot 2b by adding one row and column to the other,
    a unimodular congruence.  Raises PossiblySingularError when the matrix
    is singular.
    """
    n = len(rows)
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    a = [[int(x * scale) for x in row] for row in rows]
    active = list(range(n))
    prev = 1
    sig = 0
    while active:
        k = next((i for i in active if a[i][i]), None)
        if k is None:
            k, l = next(((i, j) for i in active for j in active if a[i][j]),
                        (None, None))
            if k is None:
                raise PossiblySingularError(
                    "possibly singular: the matrix is singular")
            for j in active:
                a[k][j] += a[l][j]
            for j in active:
                a[j][k] = a[k][j]
            a[k][k] += a[k][l]
        d = a[k][k]
        sig += 1 if (d > 0) == (prev > 0) else -1
        active.remove(k)
        row_k = a[k]
        for ii, i in enumerate(active):
            ai, aik = a[i], a[i][k]
            for j in active[ii:]:
                ai[j] = a[j][i] = (d * ai[j] - aik * row_k[j]) // prev
        prev = d
    return sig


# bench/tracer.py wraps the function under this name
interval_symmetric_signature = rational_symmetric_signature
