"""Classical knot invariants computed from a Seifert matrix.

Everything here is exact and starts from one integer polynomial.  For a
2g x 2g Seifert matrix V, det(V - tV^T) = t^g P(t + 1/t) for an integer
polynomial P of degree at most g, the x-polynomial; it is interpolated
from the integer determinants det(V - kV^T) at k = 0, 2, 3, ..., g (k = 1
gives 1 for every Seifert matrix).  The Alexander polynomial is
Delta(t) = P(t + 1/t).  The substitution x = t + 1/t turns unit-circle
roots of Delta into real roots of P in (-2, 2), so jump angles of the
signature function are kept as algebraic numbers through P, in one list
of jumps in ascending theta: a jump at a root of unity, found by trial
division by the cyclotomic factors Psi_n, is its exact angle k/n, with no
x-box, and any other jump is a Sturm box of its root with its minimal
polynomial.  Roots are isolated by Sturm's method only when some root of
P in (-2, 2) is not at a root of unity.
The Fox-Milnor condition is decided by factoring P and, where needed, the
lifts t^d Q(t + 1/t) of its irreducible factors Q.  The signature is
constant on the arcs between the jumps.  The first arc is 0 and each jump
is at most 2m for the largest root multiplicity m of P, so
``signature_function`` runs an exact Hermitian elimination over Z[i], at
one rational point tan(pi theta) = r of an arc, only on the arcs whose
value those bounds leave open.  That point comes from the Sturm chain
alone: x = 2(1 - r^2)/(1 + r^2) is rational, and the chain counts the
roots above it exactly.  Intervals only locate a given theta among the
roots.

Delta, the determinant, Arf (the determinant mod 8, by Levine's rule) and
sigma(-1) = sign(V + V^T) are integers and need no interval arithmetic.
``intervals`` is imported only inside the functions that build a jump
angle or enclose x at a given theta: ``_arc_index``, ``_arcs``,
``signature_function`` and ``signature_csv``.  So the ``invariants`` and
``table`` commands never load it; ``rho`` and ``sigfn`` do.
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
    _isolate,
    _quotient,
    count_roots_halfopen,
    cyclotomic_poly,
    factor_integer_poly,
    poly_eval,
    poly_mul,
    poly_primitive,
    poly_sign_at,
    poly_to_str,
    poly_trim,
    refine_isolating_interval,
    sturm_sequence,
)
from .seifert import SeifertMatrix, integer_determinant


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
    g, rows = v.genus, v.rows
    pairs = list(zip(rows, zip(*rows)))  # (row i of V, row i of V^T)
    ys = [1 if k == 1 else integer_determinant(
        [[a - k * b for a, b in zip(row, col)] for row, col in pairs])
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


def _check_theta(p: tuple, theta: Fraction) -> Fraction:
    """theta as a Fraction, checked with no Sturm chain: PreconditionError
    outside (0, 1), and PossiblySingularError when theta is a jump, that
    is when omega is a root of Delta, for the x-polynomial or its
    squarefree part ``p`` (``_omega_is_alexander_root``)."""
    theta = Fraction(theta)
    if not 0 < theta < 1:
        raise PreconditionError("theta must lie in (0, 1)")
    if _omega_is_alexander_root(p, theta):
        raise PossiblySingularError(
            "possibly singular: omega is a root of the Alexander polynomial")
    return theta


def _arc_index(chain: list, theta: Fraction) -> int:
    """The index of theta's arc in (0, 1/2], from theta = 0 on, among the
    arcs that the roots of the squarefree x-polynomial ps cut, given a
    Sturm chain of ps: the number of roots of ps in (x, 2) for
    x = 2cos(2 pi theta), which theta and 1 - theta share.  The chain's
    first member, a nonzero multiple of ps, stands in for ps: it has the
    same roots.  x lies in twice the ``cos_2pi`` enclosure of theta,
    clipped to [-2, 2], whose precision doubles from 64 bits until it
    misses every root; that ends for a theta that passed ``_check_theta``,
    as x is then no root."""
    from .intervals import cos_2pi

    ps = chain[0]
    prec = 64
    while True:
        c = cos_2pi(theta, prec)
        x_lo, x_hi = max(2 * c.lo, Fraction(-2)), min(2 * c.hi, Fraction(2))
        above = count_roots_halfopen(chain, x_hi, 2)
        if (poly_sign_at(ps, x_lo) and poly_sign_at(ps, x_hi)
                and count_roots_halfopen(chain, x_lo, 2) == above):
            return above
        prec *= 2


def _arc_point(chain: list, k: int) -> Fraction | None:
    """r = tan(pi theta) at a rational point of arc k, the arc between
    jumps k - 1 and k in ascending theta, given a Sturm chain of the
    squarefree x-polynomial ps; None for the last arc, k = n for the n
    roots of ps in (-2, 2), which holds theta = 1/2.  Any other k raises
    PreconditionError.

    x(r) = 2(1 - r^2)/(1 + r^2) is rational for a rational r > 0 and
    falls from 2 towards -2 as r rises.  So the number c(r) of roots of ps
    in (x(r), 2), which the chain counts exactly, as 2 is no root, is a
    nondecreasing step function of r, and arc k is the open r-interval of
    positive length on which c(r) = k and x(r) is no root.  An r lies
    below arc k when c(r) < k, and above it when c(r) > k or when
    c(r) = k and x(r) is a root, the arc's upper end.  r starts at 1 and
    doubles while it lies below the arc, then bisects between the last r
    below and the first above.  Each step halves a dyadic interval that
    holds the arc, so the search ends on any chain, at a dyadic of least
    denominator in the arc.
    """
    n = count_roots_halfopen(chain, -2, 2)
    if not 0 <= k <= n:
        raise PreconditionError(f"no arc {k} among the {n + 1} of the chain")
    if k == n:
        return None
    lo, hi, r = Fraction(0), None, Fraction(1)
    while True:
        x = 2 * (1 - r * r) / (1 + r * r)
        c = count_roots_halfopen(chain, x, 2)
        if poly_sign_at(chain[0], x) and c == k:
            return r
        if c >= k:
            hi = r
        else:
            lo = r
        r = 2 * r if hi is None else (lo + hi) / 2


def levine_tristram(v: SeifertMatrix, theta: Fraction) -> int:
    """Signature of (1-w)V + (1-conj w)V^T at w = exp(2 pi i theta).

    At theta = 1/2, where omega = -1, the form is 2(V + V^T) and the
    signature is that of V + V^T, taken directly: omega = -1 is never a
    root of Delta, as |Delta(-1)| = |det(V + V^T)| and V + V^T = V - V^T
    mod 2 give det(V + V^T) = det(V - V^T) = 1 mod 2.  Elsewhere it is the
    signature at the rational point ``_arc_point`` finds on theta's arc,
    which ``_arc_index`` names, both from the one Sturm chain of the
    x-polynomial: no jump is built and no root isolated.  It is always
    evaluated, also on the arcs whose value ``signature_function`` infers,
    and it equals ``signature_function(v).value_at(theta)``, errors
    included.  Raises PreconditionError for theta outside (0, 1), and
    PossiblySingularError when omega is a root of Delta, before any Sturm
    chain is built.
    """
    theta = Fraction(theta)
    if theta == Fraction(1, 2):
        return _arc_signature(v, None)
    p = x_polynomial(v)
    theta = _check_theta(p, theta)
    chain = sturm_sequence(p)
    return _arc_signature(v, _arc_point(chain, _arc_index(chain, theta)))


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
    ``low`` lists the jump angles in (0, 1/2) ascending, one list in which
    a jump at a root of unity is its exact angle and any other jump a
    Sturm box with its minimal polynomial, and ``half`` the values on the
    arcs between them, from theta = 0 to the arc holding 1/2.
    ``jumps`` and ``values`` mirror them onto the whole circle.  The value
    exactly at a jump is not defined: ``value_at`` raises
    PossiblySingularError there, as ``levine_tristram`` does, and it
    checks theta before it builds the one Sturm chain a call needs.
    ``x_poly`` is the squarefree part of the x-polynomial.
    """

    __slots__ = ()

    @property
    def jumps(self) -> tuple:
        return self.low + tuple(a.conjugate() for a in reversed(self.low))

    @property
    def values(self) -> tuple:
        return self.half + self.half[-2::-1]

    def value_at(self, theta: Fraction) -> int:
        theta = _check_theta(self.x_poly, theta)
        return self.half[_arc_index(sturm_sequence(self.x_poly), theta)]


def _separate_boxes(ps: tuple, boxes: list) -> list:
    """Refine Sturm boxes (ascending in x) until each lies strictly below
    the next one and below x = 2.

    No arc point needs the gaps this opens: ``_arc_point`` reads only the
    Sturm chain.  It stays because the boxes are the stored jumps: each
    ``AlgebraicAngle`` off the roots of unity keeps its box, so its repr,
    the pinned jump digests and the rho0 enclosures refined from it all
    start from these boxes.  Without separation they would change, and no
    time would be saved."""
    out = list(boxes)
    for i, (lo, hi) in enumerate(out):
        upper = out[i + 1][0] if i + 1 < len(out) else 2
        while hi >= upper:
            lo, hi = refine_isolating_interval(ps, lo, hi, (hi - lo) / 2)
        out[i] = (lo, hi)
    return out


def _arcs(p: tuple) -> tuple:
    """The jumps of theta in (0, 1/2] that the roots of the x-polynomial p
    cut into arcs, as (chain, low).

    ``chain`` is the Sturm chain of p, a chain of its squarefree part
    ps = poly_primitive(chain[0]), from which ``_arc_point`` places a point
    on any arc.  ``low`` lists one ``AlgebraicAngle`` per root of ps in
    (-2, 2), in ascending theta: a root at a root of unity is its exact
    angle k/n with minimal polynomial Psi_n, and any other root is the
    separated Sturm box (lo, hi) that holds it, named by the cofactor
    ``rest`` of the Psi_n, which ``signature_function`` factors to give it
    its minimal polynomial.

    The chain counts the roots of ps in (-2, 2), as neither end is a root
    of an x-polynomial: P(2) = Delta(1) = 1, and P(-2) = Delta(-1) is odd.
    All deg Psi_n roots of a Psi_n that divides ps are among them, so only
    the n of ``_cyclotomic_candidates(count)`` can divide it, and each
    that does is divided out of ``rest`` in turn.  When these account for
    every root, as for every torus knot, nothing is isolated.  Otherwise
    every root of ps is isolated on its chain, and each box is refined
    until it lies strictly below the one above it and below 2.  A box holds
    one root of ps and none at its ends, so ``rest`` changes sign across it
    iff its root is a root of ``rest``; the other boxes, in ascending
    theta, hold the roots of the Psi_n, and take the exact angles in
    ascending theta; were there more or fewer of them than exact angles,
    PreconditionError would be raised.
    """
    from .intervals import AlgebraicAngle

    chain = sturm_sequence(p)
    ps = poly_primitive(chain[0])
    left = count_roots_halfopen(chain, -2, 2)
    exact, rest = [], ps
    for n in _cyclotomic_candidates(left):
        psi = _psi(n)
        if len(psi) - 1 > left or (q := _quotient(rest, psi)) is None:
            continue
        rest, left = q, left - (len(psi) - 1)
        exact += [AlgebraicAngle(psi, theta=Fraction(k, n))
                  for k in range(1, (n + 1) // 2) if math.gcd(k, n) == 1]
        if not left:
            break
    low = tuple(sorted(exact, key=lambda a: a.theta))
    if left:
        boxes = _separate_boxes(ps, _isolate(chain, -2, 2))[::-1]
        on_rest = [poly_sign_at(rest, lo) != poly_sign_at(rest, hi)
                   for lo, hi in boxes]
        if on_rest.count(False) != len(low):
            raise PreconditionError(f"boxes of {poly_to_str(ps)} miss a root")
        angles = iter(low)
        low = tuple(AlgebraicAngle(rest, lo, hi) if claimed else next(angles)
                    for (lo, hi), claimed in zip(boxes, on_rest))
    return chain, low


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


def _arc_values(v: SeifertMatrix, chain: list, arcs: int, m: int) -> tuple:
    """The signature on each of the ``arcs`` arcs, one more than the jumps
    ``low`` of ``_arcs``, given the Sturm chain of ``_arcs``, that the
    first arc is 0 and that each jump is at most 2m (see
    ``signature_function``).
    The last arc, which holds theta = 1/2, is evaluated; between two known
    arcs a < b that differ by 2m(b - a), every jump is 2m with that one
    sign, and otherwise the middle arc c is evaluated, at
    ``_arc_point(chain, c)``, and both halves recurse.  So a sample point
    is found only for an arc that is evaluated, and the value does not
    depend on which point of the arc it is.  A larger difference is
    impossible and raises PreconditionError."""
    half = [0] + [None] * (arcs - 1)

    def fill(a: int, b: int) -> None:
        diff, bound = half[b] - half[a], 2 * m * (b - a)
        if abs(diff) > bound:
            raise PreconditionError(
                f"arc values {half[a]} and {half[b]} differ by more than"
                f" {bound} across {b - a} jumps of nullity at most {m}")
        if abs(diff) == bound:
            for k in range(a + 1, b):
                half[k] = half[a] + diff // (b - a) * (k - a)
        elif b - a > 1:
            c = (a + b) // 2
            half[c] = _arc_signature(v, _arc_point(chain, c))
            fill(a, c)
            fill(c, b)

    if arcs > 1:
        half[-1] = _arc_signature(v, None)
        fill(0, arcs - 1)
    return tuple(half)


def signature_function(v: SeifertMatrix) -> SignatureStepFunction:
    """Full signature step function: exact jump angles plus arc values.

    The n roots of the x-polynomial P in (-2, 2) cut theta in (0, 1/2]
    into n + 1 arcs.  ``_arcs`` lists the n jumps in ascending theta: a
    root at a root of unity as its exact angle k/n with minimal polynomial
    Psi_n, found with no isolation, and any other root as a Sturm box,
    named by the cofactor ``rest`` of the Psi_n.  Each arc but the last has
    a rational point r = tan(pi theta), which ``_arc_point`` finds from the
    Sturm chain of P alone, with no interval, and only for an arc that is
    evaluated; the last one holds theta = 1/2.  So no ``cos_2pi`` call is
    made.  Only these jumps and arcs are stored: those in [1/2, 1) mirror
    them, as sigma(theta) = sigma(1 - theta).  ``rest`` is factored once,
    and each boxed jump is named by its minimal polynomial, the one
    irreducible factor that changes sign across its box: the box holds one
    simple root of ``rest`` and none at its ends.

    ``_arc_values`` evaluates only the arcs that two facts leave open.
    (i) The first arc is 0.  With 1 - omega = -2i sin(pi theta)
    exp(i pi theta), H(theta) = (1 - omega)V + (1 - conj omega)V^T is
    2 sin(pi theta) times i(exp(-i pi theta)V^T - exp(i pi theta)V),
    which tends to i(V^T - V) as theta -> 0+.  That limit is nonsingular,
    as V - V^T is unimodular, so near 0 the signature is that of i times
    a real skew matrix, whose eigenvalues come in pairs +-lambda: 0.  A
    knot with no jump therefore needs no elimination.  (ii) Each jump is
    at most 2m for m = 1 + deg P - deg ps, ps the squarefree part of P.
    Across a jump theta_j the signature changes by at most twice the
    nullity of H(theta_j), which is at most the order of vanishing of
    det H there, each analytic eigenvalue that vanishes contributing at
    least 1.  det H = (1 - omega)^n det(V - conj(omega) V^T)
    = (1 - omega)^n conj(omega)^g P(2cos 2 pi theta), and
    d/dtheta 2cos 2 pi theta is nonzero on (0, 1/2), so that order is the
    multiplicity of x_j = 2cos 2 pi theta_j as a root of P, at most m.
    """
    from .intervals import AlgebraicAngle

    p = x_polynomial(v)
    chain, low = _arcs(p)
    ps = poly_primitive(chain[0])
    rest = next((a.poly for a in low if a.theta is None), None)
    if rest is not None:
        factors = [f for f, _mult in factor_integer_poly(rest)[1]]

        def named(a):
            for f in factors:
                if poly_sign_at(f, a.x_lo) != poly_sign_at(f, a.x_hi):
                    return AlgebraicAngle(f, a.x_lo, a.x_hi)
            raise PreconditionError(
                f"no irreducible factor of {poly_to_str(rest)} has its"
                f" root in ({a.x_lo}, {a.x_hi})")

        low = tuple(a if a.theta is not None else named(a) for a in low)
    half = _arc_values(v, chain, len(low) + 1, len(p) - len(ps) + 1)
    return SignatureStepFunction(low, half, ps, _lift(p))


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
    raises InputError, before any determinant."""
    _check_claimed_genus(claimed_genus)
    return _fibered_reason(alexander_polynomial(v), claimed_genus)


def _check_claimed_genus(claimed_genus: int | None) -> None:
    if claimed_genus is not None and claimed_genus < 0:
        raise InputError(f"claimed genus {claimed_genus} is negative")


def _fibered_reason(delta: LaurentPoly, claimed_genus) -> str | None:
    """``fibered_obstruction`` from Delta, for a checked claimed genus."""
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
    R is factored only when |Q(2)| and |Q(-2)| are squares.  (iv) For
    Q = q1 x + q0 nothing is factored: R = q1 t^2 + q0 t + q1 splits iff
    its discriminant q0^2 - 4 q1^2 = Q(2) Q(-2) is a square.  Once |Q(2)|
    and |Q(-2)| are squares, that holds iff Q(2) Q(-2) >= 0, which takes
    in Q = x -+ 2, where it is 0.
    """
    q = poly_primitive(q)
    if not _squares_at_pm2(q):
        return False
    if len(q) == 2:
        return poly_eval(q, 2) * poly_eval(q, -2) >= 0
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
    chain = sturm_sequence(poly_mul(p1, p2))
    arcs = count_roots_halfopen(chain, -2, 2) + 1
    if any(_arc_signature(v1, r) != _arc_signature(v2, r)
           for r in (_arc_point(chain, k) for k in range(arcs))):
        found.append("signature function")

    if not _fox_milnor(p1, p2):
        found.append("fox_milnor")
    return tuple(found)
