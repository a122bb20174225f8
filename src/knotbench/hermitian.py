"""Exact signatures of Hermitian forms over the Gaussian integers.

A Hermitian matrix H = R + iI with R symmetric and I antisymmetric, both
integer, has real eigenvalues; its signature (#positive - #negative) is
computed by fraction-free congruence elimination over Z[i].  Every pivot
is an exact nonzero integer, so the answer is exact, and a matrix is
refused only when it is exactly singular.  A real symmetric matrix is the
case I = 0.
"""

from __future__ import annotations

from typing import Sequence

from .errors import PossiblySingularError


def hermitian_signature(re: Sequence[Sequence[int]],
                        im: Sequence[Sequence[int]]) -> int:
    """Signature of the Hermitian matrix H = re + i*im over Z[i].

    Fraction-free (Bareiss) elimination with 1x1 pivots, on the real and
    imaginary parts as two integer matrices: after each pivot the
    remaining block is the Schur complement times the last pivot.  Its
    entries are minors of H, hence Gaussian integers, and the previous
    pivot is a principal minor, hence a real integer, so the division by
    it is exact in each part and the diagonal stays real.  The sign of the
    true pivot is sign(pivot) * sign(previous pivot).

    When every remaining diagonal entry is 0, the first nonzero h_kl
    turns e_k into e_k + c e_l, with c = 1 if Re h_kl != 0 and c = i
    otherwise.  That is a unimodular congruence, and the new pivot
    2 Re(c h_kl) is nonzero.  Raises PossiblySingularError when H is
    singular.
    """
    n = len(re)
    a = [list(row) for row in re]
    b = [list(row) for row in im]
    active = list(range(n))
    prev = 1
    sig = 0
    while active:
        k = next((i for i in active if a[i][i]), None)
        if k is None:
            k, l = next(((i, j) for i in active for j in active
                         if a[i][j] or b[i][j]), (None, None))
            if k is None:
                raise PossiblySingularError(
                    "possibly singular: the matrix is singular")
            ak, bk, al, bl = a[k], b[k], a[l], b[l]
            if ak[l]:
                # c = 1: row k += row l, then column k mirrors it
                pivot = 2 * ak[l]
                for j in active:
                    ak[j] += al[j]
                    bk[j] += bl[j]
            else:
                # c = i: row k += -i row l, then column k mirrors it
                pivot = -2 * bk[l]
                for j in active:
                    ak[j] += bl[j]
                    bk[j] -= al[j]
            for j in active:
                a[j][k] = ak[j]
                b[j][k] = -bk[j]
            ak[k], bk[k] = pivot, 0
        d = a[k][k]
        sig += 1 if (d > 0) == (prev > 0) else -1
        active.remove(k)
        ak, bk = a[k], b[k]
        for ii, i in enumerate(active):
            ai, bi = a[i], b[i]
            x, y = ai[k], bi[k]  # h_ik = x + iy, and h_kj = ak[j] + i bk[j]
            for j in active[ii:]:
                s = (d * ai[j] - x * ak[j] + y * bk[j]) // prev
                t = (d * bi[j] - x * bk[j] - y * ak[j]) // prev
                ai[j] = a[j][i] = s
                bi[j] = t
                b[j][i] = -t
        prev = d
    return sig


# bench/tracer.py wraps the signature under this name; the tracer replaces
# every module attribute bound to the same function, invariants' included
interval_symmetric_signature = hermitian_signature
