"""Classical knot invariants computed from a Seifert matrix.

Everything here is exact and starts from one integer polynomial.  For a
2g x 2g Seifert matrix V, det(V - tV^T) = t^g P(t + 1/t) for an integer
polynomial P of degree at most g, the x-polynomial; it is interpolated
from the integer determinants det(V - kV^T) at k = 0, 2, 3, ..., g
(k = 1 gives 1 for every Seifert matrix).  The Alexander polynomial is
Delta(t) = P(t + 1/t).  The substitution x = t + 1/t turns unit-circle
roots of Delta into real roots of P in (-2, 2), so jump angles of the
signature function are kept as algebraic numbers through P; a jump at a
root of unity, found by trial division by the cyclotomic factors Psi_n,
also keeps its exact angle k/n.  The Fox-Milnor condition is decided by
factoring P and, where needed, the lifts t^d Q(t + 1/t) of its
irreducible factors Q.  The signature is constant on the arcs between
the jumps, so each arc value is the signature of a Hermitian matrix over
Z[i] at one rational point tan(pi theta) = p/q of the arc; intervals only
locate a given theta among the roots.

Delta, the determinant, Arf (the determinant mod 8, by Levine's rule) and
sigma(-1) = sign(V + V^T) are integers and need no interval arithmetic.
``intervals`` is imported only inside the three functions that enclose a
jump angle or a given theta: ``_arc_index``, ``signature_function`` and
``signature_csv``.  So the ``invariants`` and ``table`` commands never
load it; ``rho`` and ``sigfn`` do.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction

from .errors import InputError, PossiblySingularError, PreconditionError
from .hermitian import hermitian_signature
from .polynomials import (
    LaurentPoly,
    _quotient,
    count_roots_halfopen,
    cyclotomic_poly,
    factor_integer_poly,
    poly_eval,
    poly_mul,
    poly_primitive,
    poly_sign_at,
    poly_squarefree_part,
    poly_to_str,
    poly_trim,
    refine_isolating_interval,
    sturm_isolate,
    sturm_sequence,
)
from .seifert import SeifertMatrix, integer_determinant

_BASE_PREC = 64


# ---------------------------------------------------------------------------
# the x-polynomial, the Alexander polynomial and friends


@functools.lru_cache(maxsize=None)
def _x_interpolant(g: int) -> tuple:
    """Integer rows w and d > 0 with p_j = (sum_k w[j][k] y_k) / d for the
    coefficients p_j of the x-polynomial P of a 2g x 2g Seifert matrix V,
    where y_k = det(V - kV^T), k = 0..g.

    y_k = k^g P(k + 1/k) is the homogeneous form Y^g P(X/Y) at the point
    (X_k : Y_k) = (k^2 + 1 : k); k = 0 is (1 : 0), where the form is the
    coefficient of x^g.  The g + 1 points are distinct, as k + 1/k
    increases for k >= 1, so Lagrange interpolation gives
    P(x) = sum_k y_k prod_(i != k) (Y_i x - X_i) / (X_k Y_i - Y_k X_i),
    and d is the least common multiple of the denominators.
    """
    nodes = [(1, 0)] + [(k * k + 1, k) for k in range(1, g + 1)]
    cols = []
    for k, (xk, yk) in enumerate(nodes):
        num, den = (1,), 1
        for i, (xi, yi) in enumerate(nodes):
            if i != k:
                num = poly_mul(num, (-xi, yi))
                den *= xk * yi - yk * xi
        cols.append((num, den))
    d = math.lcm(*(den for _, den in cols))
    w = [[0] * (g + 1) for _ in range(g + 1)]
    for k, (num, den) in enumerate(cols):
        for j, c in enumerate(num):
            w[j][k] = c * (d // den)
    return tuple(map(tuple, w)), d


def x_polynomial(v: SeifertMatrix) -> tuple:
    """The integer polynomial P with det(V - tV^T) = t^g P(t + 1/t).

    det(V - tV^T) = det(V^T - tV) = t^(2g) det(V - V^T/t), so the
    determinant is palindromic of degree 2g and such a P of degree at
    most g exists; its coefficient of x^g is det V, so deg P < g when
    det V = 0.  P is interpolated from det(V - kV^T), k = 0..g, of which
    k = 1 is det(V - V^T) = 1 for every Seifert matrix, so
    P(2) = Delta(1) = 1.
    """
    g, rows, n = v.genus, v.rows, v.size
    ys = [1 if k == 1 else integer_determinant(
        [[rows[i][j] - k * rows[j][i] for j in range(n)] for i in range(n)])
          for k in range(g + 1)]
    w, d = _x_interpolant(g)
    return poly_trim([sum(c * y for c, y in zip(row, ys)) // d for row in w])


def _lift(p: tuple) -> tuple:
    """t^d P(t + 1/t) for d = deg P, lowest degree first: (t + 1/t)^j is
    sum_m C(j, m) t^(j - 2m)."""
    d = len(p) - 1
    out = [0] * (2 * d + 1)
    for j, a in enumerate(p):
        for m in range(j + 1):
            out[d - j + 2 * m] += a * math.comb(j, m)
    return tuple(out)


def alexander_polynomial(v: SeifertMatrix) -> LaurentPoly:
    """Delta(t) = P(t + 1/t) for the x-polynomial P of ``x_polynomial``.

    t^g Delta(t) = det(V - tV^T) exactly: Delta(t) = Delta(1/t) and
    Delta(1) = P(2) = 1 hold without normalisation.
    """
    return _delta_of_x(x_polynomial(v))


def _delta_of_x(p: tuple) -> LaurentPoly:
    """The symmetric Laurent polynomial P(t + 1/t)."""
    return LaurentPoly.from_int_poly(_lift(p), 1 - len(p))


def d0(v: SeifertMatrix) -> int:
    """Span of the Alexander polynomial; at most 2 * genus."""
    return alexander_polynomial(v).span


def determinant(v: SeifertMatrix) -> int:
    """|Delta(-1)| = |det(V + V^T)|, the knot determinant."""
    return abs(integer_determinant(v.symmetric_part()))


# ---------------------------------------------------------------------------
# Arf invariant


def arf(v: SeifertMatrix) -> int:
    """Arf invariant of q(x) = x.Vx mod 2 (``_arf_of_determinant``)."""
    return _arf_of_determinant(determinant(v))


def _arf_of_determinant(det: int) -> int:
    """Levine's rule (Ann. of Math. 84, 1966): Arf = 0 iff
    det(V + V^T) = +-1 mod 8, for ``det`` = +-det(V + V^T).

    S = V + V^T is even, and det S is odd, as S = V - V^T mod 2.  Over
    the 2-adic integers S is congruent to an orthogonal sum of blocks
    [[2a, b], [b, 2c]] with b odd; the congruence multiplies det S by a
    unit square, which is 1 mod 8, and keeps q(x) = x.Sx/2 mod 2 up to
    isomorphism.  On a block q is ax^2 + xy + cy^2, of Arf ac mod 2, and
    the block's determinant 4ac - b^2 is -1 or 3 mod 8 as ac is even or
    odd.  So det S = +-1 mod 8 iff an even number of blocks have Arf 1.
    """
    return 0 if det % 8 in (1, 7) else 1


# ---------------------------------------------------------------------------
# Levine-Tristram signatures


def _omega_is_alexander_root(p: tuple, theta: Fraction) -> bool:
    """Whether exp(2 pi i theta) is a root of Delta(t) = P(t + 1/t), for
    the x-polynomial P or its squarefree part ``p``: for theta = k/q in
    lowest terms, whether Psi_q, the minimal polynomial of 2cos(2 pi k/q),
    divides p, which only the q of ``_cyclotomic_candidates(deg p)`` can.
    q <= 2 never: theta = 1/2 is x = -2, and P(-2) = Delta(-1) is odd."""
    q = theta.denominator
    return (q in _cyclotomic_candidates(len(p) - 1)
            and _quotient(p, _psi(q)) is not None)


def _arc_signature(v: SeifertMatrix, r: Fraction | None) -> int:
    """Signature at theta = atan(r)/pi in (0, 1/2]; r = None is theta = 1/2.

    With S = V + V^T, K = V^T - V and omega = c + i s the form is
    (1-c)S + i s K.  As (1-c)/s = tan(pi theta) = r = p/q, it is s/q > 0
    times the n x n Hermitian form pS + i qK over Z[i].  At theta = 1/2
    the form is 2S, so p/q = 1/0 there.
    """
    p, q = (1, 0) if r is None else (r.numerator, r.denominator)
    rows = v.rows
    n = v.size
    re = [[p * (rows[i][j] + rows[j][i]) for j in range(n)] for i in range(n)]
    im = [[q * (rows[j][i] - rows[i][j]) for j in range(n)] for i in range(n)]
    return hermitian_signature(re, im)


def _tan_in_gap(x_lo: Fraction, x_hi: Fraction) -> Fraction:
    """A rational r > 0 with x_lo < 2(1 - r^2)/(1 + r^2) < x_hi.

    Requires -2 < x_lo < x_hi <= 2.  x decreases in r and
    r^2 = (2 - x)/(2 + x); r is k/2^m with m, then k, as small as possible:
    m counts up from 0, and each m tries the least k with k/2^m above the
    r-gap's lower end.
    """
    lo2 = (2 - x_hi) / (2 + x_hi)
    hi2 = (2 - x_lo) / (2 + x_lo)
    m = 0
    while True:
        k = math.isqrt(math.floor(lo2 * 4 ** m)) + 1
        if k * k < hi2 * 4 ** m:
            return Fraction(k, 2 ** m)
        m += 1


def _arc_index(ps: tuple, theta: Fraction) -> int:
    """The index of theta's arc in (0, 1/2], from theta = 0 on, among the
    arcs that the roots of the squarefree x-polynomial ps cut: the number
    of roots of ps in (x, 2) for x = 2cos(2 pi theta), which theta and
    1 - theta share.  x is enclosed at a precision that doubles until the
    enclosure misses every root.  Raises PreconditionError for theta
    outside (0, 1), and PossiblySingularError when theta is a jump, that
    is when omega is a root of Delta."""
    from .intervals import cos_2pi

    theta = Fraction(theta)
    if not 0 < theta < 1:
        raise PreconditionError("theta must lie in (0, 1)")
    if _omega_is_alexander_root(ps, theta):
        raise PossiblySingularError(
            "possibly singular: omega is a root of the Alexander polynomial")
    chain = sturm_sequence(ps)
    prec = _BASE_PREC
    while True:
        c = cos_2pi(theta, prec)
        x_lo, x_hi = max(2 * c.lo, Fraction(-2)), min(2 * c.hi, Fraction(2))
        above = count_roots_halfopen(chain, x_hi, 2)
        if (poly_sign_at(ps, x_lo) and poly_sign_at(ps, x_hi)
                and count_roots_halfopen(chain, x_lo, 2) == above):
            return above
        prec *= 2


def levine_tristram(v: SeifertMatrix, theta: Fraction) -> int:
    """Signature of (1-w)V + (1-conj w)V^T at w = exp(2 pi i theta).

    At theta = 1/2, where omega = -1, the form is 2(V + V^T) and the
    signature is that of V + V^T, taken directly: omega = -1 is never a
    root of Delta, as |Delta(-1)| = |det(V + V^T)| and V + V^T = V - V^T
    mod 2 give det(V + V^T) = det(V - V^T) = 1 mod 2.  Elsewhere it is the
    signature at the rational point that ``_arcs`` picks on theta's arc,
    found by ``_arc_index``, as in ``signature_function``; so it equals
    ``signature_function(v).value_at(theta)``, errors included.  Raises
    PreconditionError for theta outside (0, 1), and PossiblySingularError
    when omega is a root of Delta.
    """
    theta = Fraction(theta)
    if theta == Fraction(1, 2):
        return _arc_signature(v, None)
    ps, _, points = _arcs(x_polynomial(v))
    return _arc_signature(v, points[_arc_index(ps, theta)])


def _laurent_to_x(delta: LaurentPoly) -> tuple:
    """The integer polynomial P with delta(t) = P(t + 1/t), for a
    symmetric Laurent polynomial delta; the inverse of ``_lift``.

    The coefficient of t^e in (t + 1/t)^j is C(j, (j - e)/2) when j - e
    is even and at least 0, and 1 for j = e, so the coefficients of P
    follow from the top one down.
    """
    if not delta.is_symmetric():
        raise PreconditionError(f"{delta} is not symmetric")
    d = delta.max_exp
    p = [0] * (d + 1)
    for e in range(d, -1, -1):
        p[e] = delta.coeff(e) - sum(p[j] * math.comb(j, (j - e) // 2)
                                    for j in range(e + 2, d + 1, 2))
    return poly_trim(p)


class SignatureStepFunction(namedtuple(
        "SignatureStepFunction", "low half x_poly delta_coeffs")):
    """The Levine-Tristram signature as a step function of theta in (0, 1).

    It is stored by its half on (0, 1/2], as sigma(theta) = sigma(1 - theta):
    ``low`` lists the jump angles in (0, 1/2) ascending, and ``half`` the
    values on the arcs between them, from theta = 0 to the arc holding 1/2.
    ``jumps`` and ``values`` mirror them onto the whole circle.  The value
    exactly at a jump is not defined: ``value_at`` raises
    PossiblySingularError there, as ``levine_tristram`` does.  ``x_poly``
    is the squarefree part of the x-polynomial.
    """

    __slots__ = ()

    @property
    def jumps(self) -> tuple:
        return self.low + tuple(a.conjugate() for a in reversed(self.low))

    @property
    def values(self) -> tuple:
        return self.half + self.half[-2::-1]

    def value_at(self, theta: Fraction) -> int:
        return self.half[_arc_index(self.x_poly, theta)]


def _separate_boxes(ps: tuple, boxes: list) -> list:
    """Refine Sturm boxes (ascending in x) until each lies strictly below
    the next one and below x = 2, so every arc has an open x-gap."""
    out = list(boxes)
    for i, (lo, hi) in enumerate(out):
        upper = out[i + 1][0] if i + 1 < len(out) else 2
        while hi >= upper:
            lo, hi = refine_isolating_interval(ps, lo, hi, (hi - lo) / 2)
        out[i] = (lo, hi)
    return out


def _arcs(p: tuple) -> tuple:
    """The squarefree part ps of the x-polynomial p, separated Sturm boxes
    of its roots in (-2, 2), ascending, and one point per arc of theta in
    (0, 1/2] that those roots cut, from theta = 0 on: r = tan(pi theta) in
    the x-gap between consecutive boxes, then None for the last arc, which
    holds theta = 1/2."""
    ps = poly_squarefree_part(p)
    boxes = sturm_isolate(p, Fraction(-2), Fraction(2)) if len(p) > 1 else []
    boxes = _separate_boxes(ps, boxes)
    edges = [Fraction(2)] + [x for lo, hi in reversed(boxes) for x in (hi, lo)]
    points = [_tan_in_gap(edges[2 * k + 1], edges[2 * k])
              for k in range(len(boxes))]
    return ps, boxes, points + [None]


@functools.lru_cache(maxsize=None)
def _cyclotomic_candidates(r: int) -> tuple:
    """The n >= 3 with phi(n) <= 2r, ascending: the n for which Psi_n, the
    minimal polynomial of 2cos(2 pi/n), has degree phi(n)/2 <= r.

    phi(n) >= sqrt(n/2) for every n, so n <= 2 phi(n)^2 <= 8r^2 bounds
    the search.  phi is multiplicative, and for a prime power
    phi(p^a) = p^(a-1) (p - 1).  For odd p this is at least sqrt(p^a):
    p - 1 >= sqrt(p) for p >= 3 gives a = 1, and
    p^(a-1) (p - 1) >= 2 p^(a-1) >= p^(a/2) for a >= 2.  For p = 2,
    phi(2^a) = 2^(a-1) = sqrt(2^a / 2).  The product over the prime powers
    of n is therefore at least sqrt(n/2).
    """
    bound = 8 * r * r
    phi = list(range(bound + 1))
    for p in range(2, bound + 1):
        if phi[p] == p:  # p is prime
            for m in range(p, bound + 1, p):
                phi[m] -= phi[m] // p
    return tuple(n for n in range(3, bound + 1) if phi[n] <= 2 * r)


@functools.lru_cache(maxsize=None)
def _psi(n: int) -> tuple:
    """Psi_n, the minimal polynomial of 2cos(2 pi/n) for n >= 3:
    Phi_n(t) = t^(phi(n)/2) Psi_n(t + 1/t).  Its roots are
    2cos(2 pi k/n) for gcd(k, n) = 1 and 0 < k < n/2, all in (-2, 2)."""
    phi_n = cyclotomic_poly(n)
    return _laurent_to_x(LaurentPoly.from_int_poly(phi_n, (1 - len(phi_n)) // 2))


def _cyclotomic_jumps(ps: tuple, boxes: list) -> tuple:
    """The cofactor of ps after dividing out every Psi_n that divides it,
    and for each box (ascending in x) the pair (Psi_n, k/n) of its root
    2cos(2 pi k/n), or None when that root is not at a root of unity.

    The r = len(boxes) roots of ps in (-2, 2) include all deg Psi_n roots
    of each Psi_n that divides ps, so only the n of
    ``_cyclotomic_candidates(r)`` can divide it.  A box holds one simple
    root of ps, so a Psi_n that divides ps has its root there exactly when
    it changes sign across the box.  The roots 2cos(2 pi k/n) ascend as k
    descends, so the boxes of Psi_n, taken from the top down, get
    k = 1, 2, ... in turn.
    """
    found = [None] * len(boxes)
    left = len(boxes)
    for n in _cyclotomic_candidates(left):
        psi = _psi(n)
        if len(psi) - 1 > left:
            continue
        q = _quotient(ps, psi)
        if q is None:
            continue
        ps, left = q, left - (len(psi) - 1)
        ks = (k for k in range(1, (n + 1) // 2) if math.gcd(k, n) == 1)
        for i in reversed(range(len(boxes))):
            lo, hi = boxes[i]
            if poly_sign_at(psi, lo) != poly_sign_at(psi, hi):
                found[i] = psi, Fraction(next(ks), n)
        if not left:
            break
    return ps, found


def signature_function(v: SeifertMatrix) -> SignatureStepFunction:
    """Full signature step function: exact jump angles plus arc values.

    The n roots of the x-polynomial in (-2, 2) cut theta in (0, 1/2] into
    n + 1 arcs.  Each arc but the last is evaluated at a rational point of
    the x-gap between its Sturm boxes; the last one holds theta = 1/2.
    Only these jumps and arcs are stored: those in [1/2, 1) mirror them,
    as sigma(theta) = sigma(1 - theta).  A jump at a root of unity gets
    Psi_n as its minimal polynomial and its exact angle k/n from
    ``_cyclotomic_jumps``, with no factorisation.
    Each other jump's minimal polynomial is the irreducible factor of the
    cofactor that changes sign across its box; the cofactor is factored
    only when such a jump exists.
    """
    from .intervals import AlgebraicAngle

    p = x_polynomial(v)
    ps, boxes, points = _arcs(p)
    rest, found = _cyclotomic_jumps(ps, boxes)
    factors = factor_integer_poly(rest)[1] if None in found else ()
    low = []
    # theta = acos(x/2)/2pi is decreasing in x
    for (lo, hi), hit in zip(reversed(boxes), reversed(found)):
        if hit is None:
            # the box holds one simple root of rest, the product of the
            # distinct factors, and none at its ends: only its minimal
            # polynomial changes sign
            minpoly = next((f for f, _mult in factors
                            if poly_sign_at(f, lo) != poly_sign_at(f, hi)),
                           None)
            if minpoly is None:
                raise PreconditionError(
                    f"no irreducible factor of {poly_to_str(rest)} has its"
                    f" root in ({lo}, {hi})")
            hit = minpoly, None
        low.append(AlgebraicAngle(hit[0], lo, hi, theta=hit[1]))
    half = tuple(_arc_signature(v, r) for r in points)
    return SignatureStepFunction(tuple(low), half, ps, _lift(p))


def signature_csv(sf: SignatureStepFunction, digits: int = 12) -> str:
    """Render the step function as CSV with decimal arc endpoints."""
    from .intervals import format_jumps

    polys = dict.fromkeys(poly_to_str(a.poly) for a in sf.low)
    lines = ["# jump minimal polynomials (x = t + 1/t): "
             + ("; ".join(polys) if polys else "none")]
    lines.append("theta_lo,theta_hi,sigma")
    points = ["0"] + format_jumps(sf.low, digits) + ["1"]
    for k, val in enumerate(sf.values):
        lines.append(f"{points[k]},{points[k + 1]},{val}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# fiberedness and Fox-Milnor obstructions


def fibered_obstruction(v: SeifertMatrix,
                        claimed_genus: int | None = None) -> str | None:
    """Necessary conditions for fiberedness: monic Alexander polynomial,
    and span equal to twice the claimed genus when one is supplied.
    Returns the text of the first condition that fails, or None when both
    hold, which does not prove the knot fibered.  A negative claimed genus
    raises InputError."""
    if claimed_genus is not None and claimed_genus < 0:
        raise InputError(f"claimed genus {claimed_genus} is negative")
    delta = alexander_polynomial(v)
    lead = delta.coeff(delta.max_exp)
    if abs(lead) != 1:
        return "not monic"
    if claimed_genus is not None and delta.span != 2 * claimed_genus:
        return f"degree {delta.span} != 2 * claimed genus {claimed_genus}"
    return None


def _is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def _squares_at_pm2(*ps: tuple) -> bool:
    """Whether |prod_i P_i(2)| and |prod_i P_i(-2)| are both squares."""
    return all(_is_square(abs(math.prod(poly_eval(p, x) for p in ps)))
               for x in (2, -2))


def fox_milnor_test(delta: LaurentPoly) -> bool:
    """True iff Delta(t) = +-t^k f(t) f(1/t) for some integer polynomial f.

    f(t) f(1/t) is symmetric, so Delta must be +-t^k times a symmetric
    Laurent polynomial P(t + 1/t); ``_fox_milnor`` decides the condition
    from P.  Necessary for a knot to be algebraically slice.
    """
    s = delta.min_exp + delta.max_exp
    if s % 2:
        return False
    centred = delta.shift(-s // 2)
    if not centred.is_symmetric():
        return False
    return _fox_milnor(_laurent_to_x(centred))


def _lift_splits(q: tuple) -> bool:
    """Whether the lift R(t) = t^d Q(t + 1/t), d = deg Q, of the
    irreducible integer polynomial Q is reducible over Q.

    Let Q be primitive and Q != x +- 2 (whose lift is (t +- 1)^2).
    (i) R has the content of Q: R(0) = lc(Q) = lc(R), and for a prime
    p, t^e Qbar(t + 1/t), e = deg Qbar, has the nonzero top coefficient
    lc(Qbar), so Q mod p != 0 forces R mod p != 0.  (ii) R is irreducible
    or c f f* with f != +-f*, where f* = t^(deg f) f(1/t): the roots of R
    are the b with b + 1/b = a for the d distinct roots a of Q, 2d of
    them and distinct, since a = +-2 only for Q = x -+ 2.  As a = b + 1/b,
    Q(b) contains Q(a), of degree d, and b has degree 2 over it.  Degree
    2d makes the minimal polynomial of b a multiple of R.  Degree d gives
    a minimal polynomial f of degree d whose roots, the conjugates s(b),
    map to the d distinct s(a) = s(b) + 1/s(b); so f has no two roots b,
    1/b, f and f* share no root, and R = c f f*.  (iii) A split R has
    |R(1)| = f(1)^2 and |R(-1)| = f(-1)^2, and R(+-1) = (+-1)^d Q(+-2), so
    R is factored only when |Q(2)| and |Q(-2)| are squares.
    """
    q = poly_primitive(q)
    if not _squares_at_pm2(q):
        return False
    return sum(m for _, m in factor_integer_poly(_lift(q))[1]) > 1


def _fox_milnor(*ps: tuple) -> bool:
    """``fox_milnor_test`` of prod_i P_i(t + 1/t), from the x-polynomials
    P_i, each factored apart so that the degree budget applies to one of
    them, and to each lift, at a time; the multiplicities of equal
    irreducible factors add.

    With P = c prod Q^m over irreducible primitive Q, Delta = c prod R^m
    up to a unit t^k for the lifts R = t^(deg Q) Q(t + 1/t), and the
    lifts of distinct Q share no root.  Each R is self-reciprocal, and by
    ``_lift_splits`` R is (t +- 1)^2 for Q = x -+ 2, irreducible, or
    f f* with f irreducible and f != +-f*, all primitive.  Delta is
    +-t^k f(t) f(1/t) iff |c| is a square, every irreducible factor that
    is not self-reciprocal has its reciprocal at the same multiplicity,
    and every self-reciprocal one has even multiplicity.  The split lifts
    give the pairs, t +- 1 has multiplicity 2m, and an irreducible R is
    self-reciprocal: the condition holds iff |c| is a square and every Q
    of odd multiplicity is x +- 2 or has a lift that splits.

    Nothing is factored unless |prod_i P_i(2)| and |prod_i P_i(-2)| are
    both squares, a necessary condition: Delta(+-1) = prod_i P_i(+-2), and
    Delta = +-t^k f(t) f(1/t) gives Delta(1) = +-f(1)^2 and
    Delta(-1) = +-(-1)^k f(-1)^2.  This is the test (iii) of
    ``_lift_splits`` applied to Delta; for the x-polynomial of a Seifert
    matrix P(2) = 1, so it asks that the knot determinant be a square.
    """
    if not all(ps):
        raise InputError("Fox-Milnor test of the zero polynomial")
    if not _squares_at_pm2(*ps):
        return False
    content, mult = 1, {}
    for p in ps:
        c, factors = factor_integer_poly(p)
        content *= c
        for q, m in factors:
            mult[q] = mult.get(q, 0) + m
    return _is_square(abs(content)) and all(
        m % 2 == 0 or q in ((-2, 1), (2, 1)) or _lift_splits(q)
        for q, m in mult.items())


# ---------------------------------------------------------------------------
# algebraic concordance comparison


def algebraically_concordant_test(v1: SeifertMatrix,
                                  v2: SeifertMatrix) -> tuple:
    """The computable algebraic concordance invariants that tell v1 and v2
    apart, in the order "arf", "signature function", "fox_milnor": the
    classical Arf invariant, the full signature step functions, and the
    Fox-Milnor condition on the product Alexander polynomial.

    An empty tuple is a semi-decision: every compared invariant agrees,
    which does not prove the knots algebraically concordant.  (Twisted Arf
    invariants have no computational definition here and are not
    compared.)
    """
    found = []
    if arf(v1) != arf(v2):
        found.append("arf")

    p1, p2 = x_polynomial(v1), x_polynomial(v2)
    # both signature functions are constant on every arc cut by the roots
    # of Delta_1 Delta_2, so they agree iff they agree at one point of each
    _, _, points = _arcs(poly_mul(p1, p2))
    if any(_arc_signature(v1, r) != _arc_signature(v2, r) for r in points):
        found.append("signature function")

    if not _fox_milnor(p1, p2):
        found.append("fox_milnor")
    return tuple(found)
