"""Exact univariate polynomial arithmetic.

Polynomials are dense tuples of integer coefficients, lowest degree first,
with no trailing zeros; the zero polynomial is the empty tuple.  Laurent
polynomials carry a sparse exponent -> coefficient map and may have negative
exponents.  Division, squarefree parts and Sturm chains stay in Z (exact
division and pseudo-remainders); ``Fraction`` appears only for rational
interval ends and widths.  No floats.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction

from .errors import (
    BudgetExceededError,
    InputError,
    PreconditionError,
    as_integer,
)
from .seifert import integer_determinant

Coeffs = tuple  # integer coefficients, index = degree

FACTOR_DEGREE_BUDGET = 24


# ---------------------------------------------------------------------------
# dense polynomial helpers


def poly_trim(c: Sequence) -> Coeffs:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_degree(p: Sequence) -> int:
    """Degree, with the zero polynomial mapped to -1."""
    return len(p) - 1


def poly_add(p: Sequence, q: Sequence) -> Coeffs:
    n = max(len(p), len(q))
    return poly_trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                      for i in range(n)])


def poly_neg(p: Sequence) -> Coeffs:
    return tuple(-a for a in p)


def poly_sub(p: Sequence, q: Sequence) -> Coeffs:
    return poly_add(p, poly_neg(q))


def poly_mul(p: Sequence, q: Sequence) -> Coeffs:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def poly_scale(p: Sequence, s) -> Coeffs:
    if s == 0:
        return ()
    return tuple(a * s for a in p)


def poly_eval(p: Sequence, x):
    """Horner evaluation; exact for int/Fraction arguments."""
    acc = 0
    for a in reversed(p):
        acc = acc * x + a
    return acc


def poly_derivative(p: Sequence) -> Coeffs:
    return poly_trim([i * a for i, a in enumerate(p)][1:])


def poly_div_exact(p: Sequence, q: Sequence) -> Coeffs:
    """p / q for integer polynomials where q divides p over Z; raises
    PreconditionError when it does not, and InputError for q = 0."""
    if not q:
        raise InputError("polynomial division by zero")
    quo = _quotient(p, q)
    if quo is None:
        raise PreconditionError("inexact polynomial division")
    return quo


def _quotient(p: Sequence, q: Sequence):
    """p / q when the nonzero q divides the integer polynomial p over Z,
    else None; divides top-down and stops at the first inexact step."""
    rem = list(p)
    quo = [0] * max(len(p) - len(q) + 1, 0)
    for k in reversed(range(len(quo))):
        c, r = divmod(rem[k + len(q) - 1], q[-1])
        if r:
            return None
        quo[k] = c
        for i, b in enumerate(q):
            rem[k + i] -= c * b
    return None if any(rem) else poly_trim(quo)


def _prem(a: Sequence, b: Sequence) -> Coeffs:
    """The primitive integer polynomial that is a positive multiple of the
    remainder of a by the nonzero b over Q, so it has the same signs.

    b is negated when lc(b) < 0, as a mod -b = a mod b; then each step
    rem = lc(b) rem - c x^k b cancels a nonzero top term c x^(k + deg b)
    and multiplies by lc(b) > 0, and a zero top term is dropped.  The
    result is divided by its positive content.
    """
    if b[-1] < 0:
        b = poly_neg(b)
    lc, db = b[-1], len(b) - 1
    rem = list(a)
    while len(rem) > db:
        c = rem.pop()
        if c:
            k = len(rem) - db
            rem = [lc * r for r in rem]
            for i in range(db):
                rem[k + i] -= c * b[i]
    rem = poly_trim(rem)
    g = math.gcd(*rem)
    return tuple(r // g for r in rem)


def poly_content(p: Sequence) -> int:
    """GCD of the integer coefficients, signed by the leading coefficient."""
    g = math.gcd(*p)
    return -g if p and p[-1] < 0 else g


def poly_primitive(p: Sequence) -> Coeffs:
    c = poly_content(p)
    if c == 0:
        return ()
    return tuple(a // c for a in p)


def poly_squarefree_part(p: Sequence) -> Coeffs:
    """p / gcd(p, p'), primitive with positive leading coefficient, from
    the first member of p's Sturm chain; () for p = 0."""
    return poly_primitive(sturm_sequence(p)[0]) if poly_trim(p) else ()


def _terms_to_str(terms: Iterable, var: str) -> str:
    """Render (exponent, nonzero coefficient) pairs, highest exponent
    first, as "3*x^2 - x + 1"; no terms render as "0"."""
    parts = []
    for e, a in terms:
        mag = abs(a)
        if e == 0:
            term = str(mag)
        else:
            pow_s = var if e == 1 else f"{var}^{e}"
            term = pow_s if mag == 1 else f"{mag}*{pow_s}"
        if not parts:
            parts.append(term if a > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if a > 0 else f"- {term}")
    return " ".join(parts) or "0"


def poly_to_str(p: Sequence, var: str = "x") -> str:
    return _terms_to_str(((e, p[e]) for e in range(len(p) - 1, -1, -1)
                          if p[e]), var)


# ---------------------------------------------------------------------------
# Sturm sequences and root isolation


def poly_sign_at(p: Sequence, x) -> int:
    """Sign of the integer polynomial p at the rational x, exactly.

    For x = n/d with d > 0 this is the sign of d^k p(n/d) = sum c_i n^i
    d^(k-i), k = deg p, computed by homogeneous integer Horner.
    """
    v = _scaled_value(p, x.numerator, x.denominator)
    return (v > 0) - (v < 0)


def _scaled_value(p: Sequence, n: int, d: int) -> int:
    # d^k p(n/d) for d > 0, k = deg p
    acc, dk = 0, 1
    for c in reversed(p):
        acc = acc * n + c * dk
        dk *= d
    return acc


def sturm_sequence(p: Sequence) -> list:
    """Sturm chain of the squarefree part of the integer polynomial p: the
    signed remainder sequence of p and p', each member divided by the last
    one, g = gcd(p, p').  The zero polynomial raises InputError.

    Members are positive multiples of the classical ones, as remainders
    are integer pseudo-remainders (``_prem``).  The quotients are a Sturm
    chain of p / g (Basu, Pollack and Roy, *Algorithms in Real Algebraic
    Geometry*, ch. 2).  g divides every member, as it divides the two after
    it.  Consecutive quotients have no common root.  At a root of a middle
    quotient q_i, q_(i-1) = c q_i - k q_(i+1) with k > 0 gives its
    neighbours opposite signs.  At a root x0 of p / g, with
    p = (x - x0)^m h and g = (x - x0)^(m-1) k, p' / g is
    m h(x0) / k(x0) = m (p / g)'(x0).  g is primitive, so each quotient is
    integral by Gauss's lemma.
    """
    p = poly_trim(p)
    if not p:
        raise InputError("indeterminate roots")
    chain = [p, _prem(poly_derivative(p), p)]  # p' mod p is p'
    while chain[-1]:
        chain.append(poly_neg(_prem(chain[-2], chain[-1])))
    chain.pop()
    g = chain[-1]
    return [_quotient(q, g) for q in chain] if len(g) > 1 else chain


def _sign_variations(chain, x) -> int:
    signs = [s for s in (poly_sign_at(q, x) for q in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_halfopen(chain, a, b) -> int:
    """Distinct real roots of the squarefree polynomial in (a, b]."""
    return _sign_variations(chain, a) - _sign_variations(chain, b)


def count_real_roots(p: Sequence, lo, hi) -> int:
    """Distinct real roots of p in the open interval (lo, hi)."""
    chain = sturm_sequence(p)
    lo = Fraction(lo)
    hi = Fraction(hi)
    if not lo < hi:
        return 0
    n = count_roots_halfopen(chain, lo, hi)
    return n - (poly_sign_at(chain[0], hi) == 0)


def sturm_isolate(p: Sequence, lo, hi) -> list:
    """Disjoint rational isolating intervals for the distinct real roots of
    p in the open interval (lo, hi), in ascending order.

    Interval endpoints are never roots; each interval contains exactly one
    root of the squarefree part of p.  Intervals are bisected at their
    midpoint, or, when that is a root, at the first non-root of the points
    halfway towards the left end.
    """
    return _isolate(sturm_sequence(p), lo, hi)


def _isolate(chain, lo, hi) -> list:
    """``sturm_isolate`` from the Sturm chain of p, for a caller that
    already holds it."""
    sf = chain[0]
    lo = Fraction(lo)
    hi = Fraction(hi)
    if not lo < hi:
        return []

    def count_open(a, b):
        return count_roots_halfopen(chain, a, b) - (poly_sign_at(sf, b) == 0)

    out = []

    def split(a, b, n):
        if n == 0:
            return
        if n == 1 and poly_sign_at(sf, a) and poly_sign_at(sf, b):
            out.append((a, b))
            return
        m = (a + b) / 2
        while not poly_sign_at(sf, m):  # sf has at most deg sf roots
            m = (a + m) / 2
        split(a, m, count_open(a, m))
        split(m, b, count_open(m, b))

    split(lo, hi, count_open(lo, hi))
    return out


def refine_isolating_interval(p_sf: Sequence, a: Fraction, b: Fraction,
                              width: Fraction):
    """Shrink an isolating interval (a, b) of a root of the squarefree
    integer polynomial p_sf to width at most ``width``, by quadratic
    interval refinement (J. Abbott, "Quadratic interval refinement for real
    roots", 2006).

    Each step rounds the secant point of (a, b) to a grid of N cells and
    keeps the grid cell on the root's side of that point when the signs
    show a sign change across it; N then becomes N^2.  Otherwise it bisects
    (a, b), and N becomes max(4, sqrt N).  Near a simple root the secant
    point errs by O(width^2), so the accepted cells converge quadratically,
    and no step shrinks the interval by less than half.  When a grid point
    or midpoint is the root itself, the result is the box of width
    ``width`` around it, clipped to the current interval: it holds no
    other root.

    The endpoints are integers A/den, B/den over one denominator: a grid
    step multiplies den by N and a bisection by 2, so B - A never changes.
    The secant point and every sign come from the integers den^k p(x),
    k = deg p, and those at the endpoints carry over from the step that
    found them (times 2^k when den doubles).

    Endpoint signs must differ (simple root): an endpoint that is a root,
    or endpoints of equal sign, raise PreconditionError.  Returned
    endpoints are never roots, and their signs differ.
    """
    a, b, width = Fraction(a), Fraction(b), Fraction(width)
    den = math.lcm(a.denominator, b.denominator)
    lo = a.numerator * (den // a.denominator)
    hi = b.numerator * (den // b.denominator)
    f_lo, f_hi = _scaled_value(p_sf, lo, den), _scaled_value(p_sf, hi, den)
    if f_lo == 0 or f_hi == 0:
        raise PreconditionError(
            "isolating interval endpoints must not be roots")
    if (f_lo > 0) == (f_hi > 0):
        raise PreconditionError(
            "isolating interval endpoints must have opposite signs")
    pos_lo = f_lo > 0  # the sign left of the root
    gap = hi - lo
    two_k = 1 << (len(p_sf) - 1)

    def around(r, d):
        r = Fraction(r, d)
        return (max(Fraction(lo, den), r - width / 2),
                min(Fraction(hi, den), r + width / 2))

    cells = 4
    while gap * width.denominator > width.numerator * den:
        # the secant point lo + gap f_lo / (f_lo - f_hi) on the grid den * N
        grid = den * cells
        g = lo * cells + gap * ((2 * cells * f_lo + f_lo - f_hi)
                                // (2 * (f_lo - f_hi)))
        f_g = _scaled_value(p_sf, g, grid)
        if f_g == 0:
            return around(g, grid)
        h = g + gap if (f_g > 0) == pos_lo else g - gap
        f_h = _scaled_value(p_sf, h, grid)
        if f_h == 0:
            return around(h, grid)
        if (f_h > 0) != (f_g > 0):
            den = grid
            if g < h:
                lo, f_lo, hi, f_hi = g, f_g, h, f_h
            else:
                lo, f_lo, hi, f_hi = h, f_h, g, f_g
            cells *= cells
            continue
        m = lo + hi
        f_m = _scaled_value(p_sf, m, 2 * den)
        if f_m == 0:
            return around(m, 2 * den)
        den *= 2
        if (f_m > 0) == pos_lo:
            lo, f_lo, hi, f_hi = m, f_m, 2 * hi, f_hi * two_k
        else:
            lo, f_lo, hi, f_hi = 2 * lo, f_lo * two_k, m, f_m
        cells = max(4, math.isqrt(cells))
    return Fraction(lo, den), Fraction(hi, den)


# ---------------------------------------------------------------------------
# factorization over Z
#
# Zassenhaus's algorithm as in von zur Gathen & Gerhard, *Modern Computer
# Algebra* (3rd ed.), ch. 14-16: distinct- and equal-degree factorisation
# mod a small prime p (Algorithms 14.3 and 14.8).  A polynomial that stays
# irreducible mod p is irreducible.  Otherwise each linear modular factor
# is lifted as a root by scalar p-adic Newton iteration and tried as a
# rational root, each candidate tested by exact division.  Only a cofactor
# of degree 4 or more with two or more modular factors left goes on to
# quadratic Hensel lifting of its modular factors along a binary factor
# tree (Algorithms 15.10 and 15.17) to p^(2^j) past twice the Mignotte
# bound, and recombination of the lifted factors by subsets of growing
# size (Algorithm 15.19).  Polynomials mod m are coefficient tuples
# reduced into [0, m).


def _pmod(p: Sequence, m: int) -> Coeffs:
    return poly_trim([a % m for a in p])


def _pdivmod(p: Sequence, q: Sequence, m: int):
    """Quotient and remainder mod m; lc(q) must be a unit mod m."""
    inv = pow(q[-1], -1, m)
    rem = list(p)
    quo = [0] * max(len(p) - len(q) + 1, 0)
    for k in reversed(range(len(quo))):
        c = quo[k] = rem[k + len(q) - 1] * inv % m
        for i, b in enumerate(q):
            rem[k + i] -= c * b
    return poly_trim(quo), _pmod(rem[:len(q) - 1], m)


def _monic(p: Sequence, m: int) -> Coeffs:
    inv = pow(p[-1], -1, m)
    return tuple(a * inv % m for a in p)


def _pgcd(p: Sequence, q: Sequence, m: int) -> Coeffs:
    """Monic gcd mod the prime m."""
    while q:
        p, q = q, _pdivmod(p, q, m)[1]
    return _monic(p, m)


def _ppow(b: Sequence, e: int, f: Sequence, m: int) -> Coeffs:
    """b^e mod (f, m) by repeated squaring."""
    out = (1,)
    while e:
        if e & 1:
            out = _pdivmod(poly_mul(out, b), f, m)[1]
        b = _pdivmod(poly_mul(b, b), f, m)[1]
        e >>= 1
    return out


def _good_prime(f: Sequence) -> int:
    """The first odd prime p for which f mod p keeps the degree of f and is
    squarefree.

    For squarefree f of degree n, a prime is bad only if it divides
    lc(f) disc(f), and disc(f) != 0 has |disc f| <= n^n ||f||_2^(2n-2)
    (Mahler's bound).  So once the product of the rejected primes exceeds
    |lc f| times that bound, f is not squarefree, and PreconditionError
    is raised rather than searching on forever."""
    n = len(f) - 1
    bound = abs(f[-1]) * n ** n * sum(a * a for a in f) ** (n - 1)
    rejected = 1
    primes = (p for p in itertools.count(3, 2)
              if all(p % d for d in range(3, math.isqrt(p) + 1, 2)))
    for p in primes:
        fp = _pmod(f, p)
        if (len(fp) == len(f)
                and len(_pgcd(fp, _pmod(poly_derivative(fp), p), p)) == 1):
            return p
        rejected *= p
        if rejected > bound:
            raise PreconditionError(f"{poly_to_str(f)} is not squarefree")


def _distinct_degree(f: Coeffs, p: int) -> list:
    """[(g, d)]: g is the product of the degree-d monic irreducible factors
    of the monic squarefree f mod p."""
    out, h, d = [], (0, 1), 0
    while 2 * (d + 1) < len(f):
        d += 1
        h = _ppow(h, p, f, p)
        g = _pgcd(f, _pmod(poly_sub(h, (0, 1)), p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _pdivmod(f, g, p)[0]
            h = _pdivmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(g: Coeffs, d: int, p: int, rng=None) -> list:
    """The monic degree-d irreducible factors of g mod the odd prime p, by
    Cantor-Zassenhaus splitting; a random generator seeded with 0 is made
    only when g has more than one of them."""
    if len(g) - 1 == d:
        return [g]
    rng = rng or random.Random(0)
    while True:
        a = poly_trim([rng.randrange(p) for _ in range(len(g) - 1)])
        b = _pmod(poly_sub(_ppow(a, (p ** d - 1) // 2, g, p), (1,)), p)
        h = _pgcd(g, b, p)
        if 1 < len(h) < len(g):
            return (_equal_degree(h, d, p, rng)
                    + _equal_degree(_pdivmod(g, h, p)[0], d, p, rng))


def _hensel_lift(f: Coeffs, facs: list, p: int, steps: int) -> list:
    """Monic u_i with f = lc(f) prod u_i mod p^(2^steps), from the monic,
    pairwise coprime facs with f = lc(f) prod facs mod p."""
    if len(facs) == 1:
        m = p ** 2 ** steps
        return [_monic(_pmod(f, m), m)]
    half = len(facs) // 2
    g, h = (f[-1] % p,), (1,)
    for u in facs[:half]:
        g = _pmod(poly_mul(g, u), p)
    for u in facs[half:]:
        h = _pmod(poly_mul(h, u), p)
    # s g + t h = 1 mod p, by the extended Euclidean algorithm
    r0, r1, s, s1, t, t1 = g, h, (1,), (), (), (1,)
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s, s1 = s1, _pmod(poly_sub(s, poly_mul(q, s1)), p)
        t, t1 = t1, _pmod(poly_sub(t, poly_mul(q, t1)), p)
    inv = pow(r0[0], -1, p)
    s, t = _pmod(poly_scale(s, inv), p), _pmod(poly_scale(t, inv), p)
    m = p
    for _ in range(steps):
        m *= m
        e = _pmod(poly_sub(f, poly_mul(g, h)), m)
        q, r = _pdivmod(poly_mul(s, e), h, m)
        g = _pmod(poly_add(g, poly_add(poly_mul(t, e), poly_mul(q, g))), m)
        h = _pmod(poly_add(h, r), m)
        b = _pmod(poly_sub(poly_add(poly_mul(s, g), poly_mul(t, h)), (1,)), m)
        c, d = _pdivmod(poly_mul(s, b), h, m)
        s = _pmod(poly_sub(s, d), m)
        t = _pmod(poly_sub(t, poly_add(poly_mul(t, b), poly_mul(c, g))), m)
    return (_hensel_lift(g, facs[:half], p, steps)
            + _hensel_lift(h, facs[half:], p, steps))


def _zassenhaus(f: Coeffs) -> list:
    """Irreducible factors of the primitive squarefree f with lc(f) > 0
    and f(0) != 0, from its factors modulo the first good prime p.

    (i) If f mod p is irreducible, so is f, and nothing is lifted.
    (ii) Rational roots first.  A rational root a/b of f has b | lc(f).  As
    p does not divide lc(f) disc(f), a/b mod p is a simple root r of f mod
    p, the root of a linear modular factor x - r, and its lift mod m is
    unique; the scalar p-adic Newton iteration r <- r - f(r) f'(r)^(-1)
    mod p^(2^k) finds it.  |a/b| <= 1 + max |f_i| (Cauchy), so
    |lc(f) a/b| <= lc(f) (1 + ||f||) < bound/2 < m/2, and the symmetric
    residue c of lc(f) r mod m is lc(f) a/b exactly: the candidate
    poly_primitive((-c, lc f)) is b x - a.  A candidate that does not
    divide f marks a modular root that is no rational root.  After each
    division f is the cofactor, whose lc divides the old one, so the same
    holds for it, and the next root is lifted on it and its own f'.
    (iii) The modular factors left are exactly the monic modular
    factorisation of the cofactor, which has no rational root left.  Every
    proper factorisation of a polynomial of degree <= 3 has a linear
    factor, so a cofactor of degree <= 3 is irreducible, as is one with
    fewer than two modular factors.  (iv) Otherwise those factors are
    Hensel-lifted and recombined.  The bound of f still holds for the
    cofactor, as its factors divide f and |lc(cofactor)| <= lc(f).
    """
    if len(f) == 2:
        return [f]
    p = _good_prime(f)
    dd = _distinct_degree(_monic(_pmod(f, p), p), p)
    if dd[0][1] == len(f) - 1:  # one factor of full degree
        return [f]
    # every factor of f times lc(f) has coefficients below the bound
    bound = 2 ** len(f) * f[-1] * (math.isqrt(sum(a * a for a in f)) + 1)
    steps = 0
    while p ** 2 ** steps <= bound:
        steps += 1
    m = p ** 2 ** steps
    out, facs = [], []
    for u in (u for g, d in dd for u in _equal_degree(g, d, p)):
        if len(u) == 2:
            r, df, k = -u[0], poly_derivative(f), p
            while k < m:
                k *= k
                r = (r - poly_eval(f, r) * pow(poly_eval(df, r), -1, k)) % k
            c = f[-1] * r % m
            g = poly_primitive((m - c if 2 * c > m else -c, f[-1]))
            q = _quotient(f, g)
            if q is not None:
                out.append(g)
                f = q
                continue
        facs.append(u)
    if len(f) <= 4 or len(facs) < 2:
        return out + [f] if len(f) > 1 else out
    lifted = _hensel_lift(f, facs, p, steps)
    size = 1
    while 2 * size <= len(lifted):
        for subset in itertools.combinations(range(len(lifted)), size):
            # the constant term of lc(f) g divides lc(f) f(0) for a factor g
            c = f[-1]
            for i in subset:
                c = c * lifted[i][0] % m
            c = c - m if 2 * c > m else c
            if not c or f[-1] * f[0] % c:
                continue
            g = (f[-1],)
            for i in subset:
                g = _pmod(poly_mul(g, lifted[i]), m)
            g = poly_primitive([a - m if 2 * a > m else a for a in g])
            q = _quotient(f, g)
            if q is not None:
                out.append(g)
                f = q
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return out + [f] if len(f) > 1 else out


def factor_integer_poly(p: Sequence):
    """Factor an integer polynomial into content and irreducible parts.

    Returns ``(content, [(factor, multiplicity), ...])`` sorted, where each
    factor is primitive with positive leading coefficient and irreducible
    over Q, and content * prod(factor^mult) reproduces the input exactly.
    The squarefree part of the primitive part is factored by
    ``_zassenhaus``, which stops at irreducibility mod p or at rational
    roots, and lifts polynomial factors only for a cofactor of degree 4 or
    more; multiplicities come from exact division.
    """
    p = poly_trim(p)
    if not p:
        raise InputError("indeterminate roots")
    if poly_degree(p) > FACTOR_DEGREE_BUDGET:
        raise BudgetExceededError("degree too large")
    if poly_degree(p) == 0:
        return p[0], []
    f = poly_primitive(p)
    low = next(i for i, a in enumerate(f) if a)
    f = f[low:]
    out = [((0, 1), low)] if low else []
    if len(f) > 1:
        for g in _zassenhaus(poly_squarefree_part(f)):
            mult, q = 0, _quotient(f, g)
            while q is not None:
                f, mult, q = q, mult + 1, _quotient(q, g)
            out.append((g, mult))
    out.sort()
    return poly_content(p), out


# ---------------------------------------------------------------------------
# Laurent polynomials


class LaurentPoly:
    """Sparse Laurent polynomial with big-integer coefficients.  Exponents
    and coefficients must be integers: bools, floats and strings raise
    InputError."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable = ()):
        if isinstance(coeffs, Mapping):
            items = coeffs.items()
        else:
            items = coeffs
        c = {}
        for e, a in items:
            e, a = as_integer(e, "exponent"), as_integer(a, "coefficient")
            if a:
                c[e] = c.get(e, 0) + a
                if not c[e]:
                    del c[e]
        self._c = c

    @classmethod
    def from_int_poly(cls, p: Sequence, shift: int = 0) -> "LaurentPoly":
        return cls({i + shift: a for i, a in enumerate(p)})

    @classmethod
    def constant(cls, a: int) -> "LaurentPoly":
        return cls({0: a})

    @classmethod
    def t(cls, exponent: int = 1) -> "LaurentPoly":
        return cls({exponent: 1})

    def coeff(self, e: int) -> int:
        return self._c.get(e, 0)

    def is_zero(self) -> bool:
        return not self._c

    @property
    def min_exp(self) -> int:
        return min(self._c) if self._c else 0

    @property
    def max_exp(self) -> int:
        return max(self._c) if self._c else 0

    @property
    def span(self) -> int:
        """Max exponent minus min exponent (0 for constants and 0)."""
        return self.max_exp - self.min_exp if self._c else 0

    def __add__(self, o):
        if isinstance(o, int):
            o = LaurentPoly.constant(o)
        if not isinstance(o, LaurentPoly):
            return NotImplemented
        c = dict(self._c)
        for e, a in o._c.items():
            c[e] = c.get(e, 0) + a
        return LaurentPoly(c)

    def __sub__(self, o):
        if not isinstance(o, (int, LaurentPoly)):
            return NotImplemented
        return self + (-o)

    def __neg__(self):
        return LaurentPoly({e: -a for e, a in self._c.items()})

    def __mul__(self, o):
        if isinstance(o, int):
            o = LaurentPoly.constant(o)
        if not isinstance(o, LaurentPoly):
            return NotImplemented
        c = {}
        for e1, a1 in self._c.items():
            for e2, a2 in o._c.items():
                e = e1 + e2
                c[e] = c.get(e, 0) + a1 * a2
        return LaurentPoly(c)

    __radd__ = __add__
    __rmul__ = __mul__

    def __eq__(self, o):
        if isinstance(o, int):
            o = LaurentPoly.constant(o)
        return isinstance(o, LaurentPoly) and self._c == o._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        return LaurentPoly({e + k: a for e, a in self._c.items()})

    def reciprocal(self) -> "LaurentPoly":
        """Substitute t -> 1/t."""
        return LaurentPoly({-e: a for e, a in self._c.items()})

    def __call__(self, x):
        return sum(a * Fraction(x) ** e for e, a in self._c.items())

    def is_symmetric(self) -> bool:
        return self == self.reciprocal()

    def to_int_poly(self):
        """Return (coeffs, shift) with t^shift * poly == self."""
        if self.is_zero():
            return (), 0
        m = self.min_exp
        out = [0] * (self.span + 1)
        for e, a in self._c.items():
            out[e - m] = a
        return tuple(out), m

    def __str__(self):
        return _terms_to_str(sorted(self._c.items(), reverse=True), "t")

    def __repr__(self):
        return f"LaurentPoly({self._c!r})"


def poly_matrix_det(mat) -> Coeffs:
    """Determinant of a square matrix of integer polynomials (coefficient
    tuples), by evaluation and interpolation over Z.

    The determinant has degree at most D, the sum over rows of the largest
    entry degree.  It is evaluated at x = 0, 1, ..., D by the integer
    Bareiss elimination of ``integer_determinant``.  The k-th forward
    differences divided by k! are the integer k-th Newton coefficients of
    the determinant on the nodes i, ..., i + k, so dividing the differences
    of row k - 1 by k is exact.  Row k starts with the coefficient of
    x(x - 1)...(x - k + 1), and Horner in (x - k) expands them to monomials.
    """
    deg = sum(max(map(len, row)) - 1 for row in mat)
    vals = [integer_determinant([[poly_eval(e, x) for e in row] for row in mat])
            for x in range(deg + 1)]
    newton = []
    for k in range(1, len(vals) + 1):
        newton.append(vals[0])
        vals = [(b - a) // k for a, b in zip(vals, vals[1:])]
    out = ()
    for k in reversed(range(len(newton))):
        out = poly_add(poly_mul(out, (-k, 1)), (newton[k],))
    return out


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> Coeffs:
    """Coefficients of the n-th cyclotomic polynomial; n < 1 raises
    InputError."""
    if n < 1:
        raise InputError("n must be positive")
    num = tuple([-1] + [0] * (n - 1) + [1])  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            num = poly_div_exact(num, cyclotomic_poly(d))
    return num
