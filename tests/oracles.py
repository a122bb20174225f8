"""Independent oracles used by the test suite.

These deliberately avoid the library code paths they check:

* Alexander polynomials of braid closures come from the reduced Burau
  representation (quotient of the unreduced by its fixed vector), divided
  by 1 + t + ... + t^(n-1).
* Determinants of polynomial matrices come from fraction-free Bareiss
  elimination over Z[x] (``poly_matrix_det``), not from evaluation at
  integer points and interpolation.
* Signatures of exact symmetric matrices come from Sturm counts on the
  characteristic polynomial (no interval elimination); Hermitian ones
  over Z[i] from the integer symmetric elimination of their 2n x 2n
  realification, which halves its signature.
* rho0 comes from a plain Riemann sum over numpy float eigenvalues.
* Magnus depths come from the full product of the truncated series
  1 + X and 1 - X + X^2 - ... (no per-degree update), and from a single
  pass that packs every degree into one integer (no parts split by last
  letters, slots sized for degree ``cutoff``).
* A rational point k/q of an x-gap comes from doubling q from 1 (no
  search over the exponent), and irreducible factors over Z from sympy.
* Remainders and Sturm chains come from long division over Q with
  ``Fraction`` coefficients (no pseudo-remainders), gcds from sympy.
  Refined isolating intervals come from the same quadratic interval
  refinement on ``Fraction`` endpoints (no common integer denominator).
* Arf from the majority value of q (no determinant): the Arf invariant
  is the value that x -> x.Vx mod 2 takes on more than half of all x.
* Fox-Milnor verdicts come from factoring Delta itself and pairing each
  irreducible factor with its reciprocal (no x-polynomial, no lifts).
* Jumps of torus knots come from the closed forms: T(p, q) jumps at k/pq
  for k prime to p and q, and rho0 = -(p^2 - 1)(q^2 - 1)/(3pq).  Euler's
  phi comes from trial division (no sieve).
* Jump angles "by factoring" take every jump's minimal polynomial from
  the factorisation of the squarefree x-polynomial, with no exact angle,
  so rho0 and angles are enclosed from x-boxes as for any algebraic jump.
* rho0 "by arcs" sums sigma times arc length over all 2n + 1 arcs, each
  jump enclosed on its own (no integration by parts, no conjugate
  sharing).
* Whether a root of unity exp(2 pi i k/q) is a root of Delta comes from
  dividing t^d Delta(t) by the cyclotomic Phi_q over Q (no x-polynomial).
* Canonical keys and AS signs of uni-trivalent diagrams come from the
  plain search over start legs in vertex order, with successor dicts and
  per-token pruning (no start order, no position arithmetic).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

import numpy as np

from knotbench.braids import BraidWord
from knotbench.errors import PossiblySingularError
from knotbench.intervals import AlgebraicAngle, IntervalReal
from knotbench.invariants import SignatureStepFunction
from knotbench.polynomials import (
    LaurentPoly,
    count_real_roots,
    cyclotomic_poly,
    factor_integer_poly,
    poly_sign_at,
    poly_div_exact,
    poly_mul,
    poly_neg,
    poly_sub,
    poly_trim,
)
from knotbench.seifert import SeifertMatrix


def intersects(a: IntervalReal, b: IntervalReal) -> bool:
    """Whether the enclosures a and b share a point."""
    return a.lo <= b.hi and b.lo <= a.hi


def support(p: LaurentPoly) -> list:
    """The exponents of the nonzero terms of p, in increasing order."""
    return [e for e in range(p.min_exp, p.max_exp + 1) if p.coeff(e)]


def unit_normalize_symmetric(p: LaurentPoly) -> LaurentPoly:
    """Multiply by +-t^k to center the support and make the value at 1
    positive; raises if the support cannot be centered."""
    if p.is_zero():
        return p
    s = p.min_exp + p.max_exp
    if s % 2:
        raise ValueError("support cannot be symmetrized by a unit shift")
    q = p.shift(-s // 2)
    if q(1) < 0:
        q = -q
    if not q.is_symmetric():
        raise ValueError("polynomial is not reciprocal")
    return q


def arf_by_majority(v: SeifertMatrix) -> int:
    """The Arf invariant by its definition: q(x) = x.Vx mod 2 takes its Arf
    value on 2^(2g-1) + 2^(g-1) of the 2^(2g) vectors x over GF(2).

    x runs through a Gray code; flipping bit i changes q by
    q(e_i) + x.(V + V^T)e_i = V_ii + (row i of V + V^T) . x mod 2.
    """
    n = v.size
    rows = v.rows
    s_rows = [sum(((rows[i][j] + rows[j][i]) & 1) << j for j in range(n))
              for i in range(n)]
    x = q = ones = 0
    for k in range(1, 2 ** n):
        i = (k & -k).bit_length() - 1
        q ^= (rows[i][i] + (s_rows[i] & x).bit_count()) & 1
        x ^= 1 << i
        ones += q
    return int(2 * ones > 2 ** n)


def fox_milnor_by_delta_factors(*deltas: LaurentPoly) -> bool:
    """Whether prod deltas = +-t^k f(t) f(1/t) for an integer polynomial
    f: |content| a square, every irreducible factor of the product paired
    with its reciprocal at equal multiplicity, and every self-reciprocal
    one of even multiplicity.  Each delta is factored apart and the
    multiplicities add."""
    content, mult = 1, {}
    for delta in deltas:
        c, factors = factor_integer_poly(delta.to_int_poly()[0])
        content *= c
        for f, m in factors:
            mult[f] = mult.get(f, 0) + m
    if math.isqrt(abs(content)) ** 2 != abs(content):
        return False
    for f, m in mult.items():
        rev = poly_trim(tuple(reversed(f)))
        if rev[-1] < 0:
            rev = poly_neg(rev)
        if rev == f:
            if m % 2:
                return False
        elif mult.get(rev) != m:
            return False
    return True


def _ident(n):
    return [[LaurentPoly.constant(1 if i == j else 0) for j in range(n)]
            for i in range(n)]


def _matmul(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), LaurentPoly({}))
             for j in range(n)] for i in range(n)]


def _burau_generator(n: int, letter: int):
    t = LaurentPoly.t(1)
    tinv = LaurentPoly.t(-1)
    one = LaurentPoly.constant(1)
    i = abs(letter) - 1
    g = _ident(n)
    if letter > 0:
        g[i][i] = one - t
        g[i][i + 1] = t
        g[i + 1][i] = one
        g[i + 1][i + 1] = LaurentPoly({})
    else:
        g[i][i] = LaurentPoly({})
        g[i][i + 1] = one
        g[i + 1][i] = tinv
        g[i + 1][i + 1] = one - tinv
    return g


def burau_matrix(b: BraidWord):
    m = _ident(b.strands)
    for x in b.letters:
        m = _matmul(m, _burau_generator(b.strands, x))
    return m


def _laurent_to_shifted_poly(e: LaurentPoly, base: int):
    """Coefficient tuple of t^-base * e, which must be a plain polynomial."""
    if e.is_zero():
        return ()
    assert e.min_exp >= base
    return poly_trim(tuple(e.coeff(k) for k in range(base, e.max_exp + 1)))


def poly_matrix_det(mat):
    """Determinant of a matrix of integer polynomials (coefficient tuples),
    by fraction-free Bareiss elimination over Z[x]."""
    n = len(mat)
    if n == 0:
        return (1,)
    a = [[poly_trim(e) for e in row] for row in mat]
    sign = 1
    prev = (1,)
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return ()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = poly_sub(poly_mul(a[i][j], a[k][k]),
                               poly_mul(a[i][k], a[k][j]))
                a[i][j] = poly_div_exact(num, prev) if num else ()
        prev = a[k][k]
    d = a[n - 1][n - 1]
    return poly_neg(d) if sign < 0 else d


def alexander_via_burau(b: BraidWord) -> LaurentPoly:
    """Alexander polynomial of the braid closure, from the reduced Burau
    representation; independent of the Seifert matrix pipeline."""
    n = b.strands
    if n == 1:
        return LaurentPoly.constant(1)
    m = burau_matrix(b)
    # quotient by the fixed vector (1,..,1): R_ij = M_ij - M_nj
    red = [[m[i][j] - m[n - 1][j] for j in range(n - 1)] for i in range(n - 1)]
    a = [[red[i][j] - LaurentPoly.constant(1 if i == j else 0)
          for j in range(n - 1)] for i in range(n - 1)]
    rows = []
    for i in range(n - 1):
        nz = [e for e in a[i] if not e.is_zero()]
        if not nz:
            return LaurentPoly({})
        base = min(e.min_exp for e in nz)
        rows.append([_laurent_to_shifted_poly(e, base) for e in a[i]])
    det = poly_matrix_det(rows)
    if not det:
        return LaurentPoly({})
    quo = poly_div_exact(det, tuple([1] * n))  # 1 + t + ... + t^(n-1)
    return unit_normalize_symmetric(LaurentPoly.from_int_poly(quo))


def charpoly_signature(rows) -> int:
    """Signature of an exact rational symmetric matrix via Sturm counts on
    the characteristic polynomial (Faddeev-LeVerrier, exact, with
    multiplicities recovered through iterated gcds)."""
    from knotbench.polynomials import poly_degree, poly_derivative, poly_gcd

    n = len(rows)
    if n == 0:
        return 0
    a = [[Fraction(v) for v in row] for row in rows]

    # char poly det(xI - A) by Faddeev-LeVerrier
    m_cur = [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
             for i in range(n)]
    cs = [Fraction(1)]
    for k in range(1, n + 1):
        am = [[sum(a[i][l] * m_cur[l][j] for l in range(n)) for j in range(n)]
              for i in range(n)]
        tr = sum(am[i][i] for i in range(n))
        c = -tr / k
        cs.append(c)
        m_cur = [[am[i][j] + (c if i == j else 0) for j in range(n)]
                 for i in range(n)]
    p = list(reversed(cs))  # index = degree; monic of degree n
    den = 1
    for v in p:
        den = den * v.denominator // math.gcd(den, v.denominator)
    pi = poly_trim(tuple(int(v * den) for v in p))

    bound = 1 + max(abs(v) for v in pi) // abs(pi[-1])
    # each gcd pass drops every multiplicity by one, so summing distinct
    # counts over the passes counts eigenvalues with multiplicity
    pos = neg = 0
    q = pi
    while poly_degree(q) >= 1:
        pos += count_real_roots(q, 0, bound)
        neg += count_real_roots(q, -bound, 0)
        q = poly_gcd(q, poly_derivative(q))
    return pos - neg


def symmetric_signature_reference(rows) -> int:
    """Signature of an integer symmetric matrix by real fraction-free
    elimination with 1x1 pivots; an all-zero remaining diagonal is fixed by
    adding a row and column with a nonzero off-diagonal entry to another.
    Raises PossiblySingularError when the matrix is singular."""
    n = len(rows)
    a = [list(row) for row in rows]
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


def realified_hermitian_signature(re, im) -> int:
    """Signature of the Hermitian matrix re + i*im as half that of its
    realification [[re, -im], [im, re]], an integer symmetric matrix."""
    n = len(re)
    mat = ([list(re[i]) + [-x for x in im[i]] for i in range(n)]
           + [list(im[i]) + list(re[i]) for i in range(n)])
    return symmetric_signature_reference(mat) // 2


def realified_arc_signature(v: SeifertMatrix, r: Optional[Fraction]) -> int:
    """The Levine-Tristram signature at theta = atan(r)/pi in (0, 1/2],
    r = None for theta = 1/2, from the realification of pS + i qK with
    S = V + V^T, K = V^T - V and r = p/q; at theta = 1/2 it is that of S."""
    n = v.size
    sym = [[v.rows[i][j] + v.rows[j][i] for j in range(n)] for i in range(n)]
    if r is None:
        return symmetric_signature_reference(sym)
    p, q = r.numerator, r.denominator
    a = [[p * x for x in row] for row in sym]
    b = [[q * (v.rows[j][i] - v.rows[i][j]) for j in range(n)]
         for i in range(n)]
    return realified_hermitian_signature(a, b)


def refine_isolating_interval_fractions(p_sf, a: Fraction, b: Fraction,
                                        width: Fraction):
    """Abbott's quadratic interval refinement, as
    ``polynomials.refine_isolating_interval`` specifies it, with every
    endpoint, grid point and midpoint a ``Fraction``."""
    a, b, width = Fraction(a), Fraction(b), Fraction(width)
    s_a = poly_sign_at(p_sf, a)
    if s_a == 0 or poly_sign_at(p_sf, b) == 0:
        raise ValueError("isolating interval endpoints must not be roots")

    def around(r):
        return max(a, r - width / 2), min(b, r + width / 2)

    def value(x):
        return sum(c * x ** i for i, c in enumerate(p_sf))

    cells = 4
    while b - a > width:
        f_a, f_b = value(a), value(b)
        # the secant point a + (b - a) f_a / (f_a - f_b), rounded to the grid
        step = (b - a) / cells
        g = a + step * math.floor(cells * f_a / (f_a - f_b) + Fraction(1, 2))
        s_g = poly_sign_at(p_sf, g)
        if s_g == 0:
            return around(g)
        h = g + step if s_g == s_a else g - step
        s_h = poly_sign_at(p_sf, h)
        if s_h == 0:
            return around(h)
        if s_h != s_g:
            a, b = min(g, h), max(g, h)
            cells *= cells
            continue
        m = (a + b) / 2
        s_m = poly_sign_at(p_sf, m)
        if s_m == 0:
            return around(m)
        a, b = (m, b) if s_m == s_a else (a, m)
        cells = max(4, math.isqrt(cells))
    return a, b


def signature_via_eigenvalues(rows) -> int:
    """Float eigenvalue signature; safe for small well-conditioned input."""
    n = len(rows)
    if n == 0:
        return 0
    ev = np.linalg.eigvalsh(np.array([[float(v) for v in r] for r in rows]))
    return int((ev > 1e-9).sum()) - int((ev < -1e-9).sum())


def riemann_rho0(v: SeifertMatrix, samples: int = 100_000) -> float:
    """Riemann sum of the Levine-Tristram signature over theta in (0, 1),
    using float hermitian eigenvalues; oracle error is O(g / samples)."""
    n = v.size
    if n == 0:
        return 0.0
    V = np.array([[float(x) for x in row] for row in v.rows])
    thetas = (np.arange(samples) + 0.5) / samples
    total = 0
    chunk = 2048
    for k0 in range(0, samples, chunk):
        th = thetas[k0:k0 + chunk]
        om = np.exp(2j * np.pi * th)
        h = ((1 - om)[:, None, None] * V[None, :, :]
             + (1 - np.conj(om))[:, None, None] * V.T[None, :, :])
        ev = np.linalg.eigvalsh(h)
        total += int((ev > 1e-9).sum()) - int((ev < -1e-9).sum())
    return total / samples


def sample_levine_tristram_float(v: SeifertMatrix, theta: float) -> int:
    om = complex(np.exp(2j * np.pi * theta))
    V = np.array([[float(x) for x in row] for row in v.rows])
    h = (1 - om) * V + (1 - om.conjugate()) * V.T
    ev = np.linalg.eigvalsh(h)
    return int((ev > 1e-9).sum()) - int((ev < -1e-9).sum())


def _series_mul(a: dict, b: dict, cutoff: int) -> dict:
    out: dict = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            if len(wa) + len(wb) < cutoff:
                out[wa + wb] = out.get(wa + wb, 0) + ca * cb
    return {w: c for w, c in out.items() if c}


def magnus_depth_full_product(letters, cutoff: int):
    """Least degree below ``cutoff`` of a nonconstant term of the Magnus
    expansion of the word (letters as in FreeWord), or None."""
    acc = {(): 1}
    for x in letters:
        g = abs(x) - 1
        if x > 0:
            term = {(): 1, (g,): 1}
        else:
            term = {(g,) * k: (-1) ** k for k in range(cutoff)}
        acc = _series_mul(acc, term, cutoff)
    return min((len(w) for w in acc if w), default=None)


def magnus_depth_packed(w, cutoff: int):
    """Least degree below ``cutoff`` of a nonconstant term of the Magnus
    expansion of the FreeWord ``w``, or None: one pass over the letters
    with degree d packed into one integer of signed slots, slot k holding
    the word whose generator indices are the base-r digits of k, last
    letter most significant."""
    r = w.rank
    bits = math.comb(len(w.letters) + cutoff, cutoff).bit_length() + 1
    shifts = [[(d, bits * g * r ** (d - 1)) for d in range(cutoff - 1, 0, -1)]
              for g in range(r)]
    acc = [1] + [0] * (cutoff - 1)
    for x in w.letters:
        if x > 0:
            for d, s in shifts[x - 1]:
                acc[d] += acc[d - 1] << s
        else:
            for d, s in reversed(shifts[-x - 1]):
                acc[d] -= acc[d - 1] << s
    return next((d for d in range(1, cutoff) if acc[d]), None)


def tan_in_gap_by_doubling(x_lo: Fraction, x_hi: Fraction) -> Fraction:
    """The least k/q, q = 1, 2, 4, ... doubling, then k, with
    x_lo < 2(1 - r^2)/(1 + r^2) < x_hi for r = k/q."""
    lo2 = (2 - x_hi) / (2 + x_hi)
    hi2 = (2 - x_lo) / (2 + x_lo)
    q = 1
    while True:
        k = math.isqrt(math.floor(lo2 * q * q)) + 1
        if k * k < hi2 * q * q:
            return Fraction(k, q)
        q *= 2


def totient(n: int) -> int:
    """Euler's phi by trial division: n prod (1 - 1/p) over primes p | n."""
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    return out - out // m if m > 1 else out


def torus_jumps(p: int, q: int) -> list:
    """The jump angles of T(p, q): the roots of unity exp(2 pi i k/pq) of
    Delta = (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)), k prime to p and q."""
    return [Fraction(k, p * q) for k in range(1, p * q) if k % p and k % q]


def torus_rho0(p: int, q: int) -> Fraction:
    return Fraction(-(p * p - 1) * (q * q - 1), 3 * p * q)


def jumps_by_factoring(sf: SignatureStepFunction) -> SignatureStepFunction:
    """``sf`` with every jump's minimal polynomial taken from the
    factorisation of its squarefree x-polynomial, as the irreducible
    factor that changes sign across the jump's x-box, and with no exact
    angle: each angle is then enclosed from its box."""
    _, factors = factor_integer_poly(sf.x_poly)

    def plain(a):
        minpoly = next(f for f, _ in factors
                       if poly_sign_at(f, a.x_lo) != poly_sign_at(f, a.x_hi))
        return AlgebraicAngle(minpoly, a.x_lo, a.x_hi, a.upper)

    return sf._replace(low=tuple(plain(a) for a in sf.low))


def rho0_by_arcs(sf: SignatureStepFunction, width: Fraction) -> tuple:
    """(lo, hi), an enclosure of width at most ``width`` of rho0 of ``sf``
    summed arc by arc: every jump is enclosed to width / W, for W the sum
    of 2|sigma| over the arcs, and the arc between enclosures a and b of
    its ends is at least b.lo - a.hi and at most b.hi - a.lo long."""
    weight = sum(2 * abs(sigma) for sigma in sf.values)
    lo = hi = Fraction(0)
    if not weight:
        return lo, hi
    ends = ([(Fraction(0), Fraction(0))]
            + [(e.lo, e.hi) for e in (a.enclosure_to_width(width / weight)
                                      for a in sf.jumps)]
            + [(Fraction(1), Fraction(1))])
    for k, sigma in enumerate(sf.values):
        short = ends[k + 1][0] - ends[k][1]
        long = ends[k + 1][1] - ends[k][0]
        lo += sigma * (short if sigma > 0 else long)
        hi += sigma * (long if sigma > 0 else short)
    return lo, hi


def omega_is_alexander_root_t_side(delta_coeffs, theta: Fraction) -> bool:
    """Whether exp(2 pi i theta) is a root of t^d Delta(t), given by its
    coefficients lowest degree first: whether the cyclotomic polynomial
    Phi_q of the denominator q of theta divides it over Q."""
    phi = cyclotomic_poly(theta.denominator)
    return rational_divmod(delta_coeffs, phi)[1] == ()


def sympy_factor_list(p):
    """sympy's factorisation of the integer polynomial p (lowest degree
    first) as (content, sorted [(primitive factor with lc > 0, mult)])."""
    import sympy

    x = sympy.symbols("x")
    content, factors = sympy.Poly(list(reversed(p)), x,
                                  domain="ZZ").factor_list()
    out = []
    for f, mult in factors:
        coeffs = tuple(reversed([int(c) for c in f.all_coeffs()]))
        if coeffs[-1] < 0:
            coeffs = tuple(-c for c in coeffs)
            content = -content if mult % 2 else content
        out.append((coeffs, int(mult)))
    return int(content), sorted(out)


def sympy_is_irreducible(p) -> bool:
    import sympy

    x = sympy.symbols("x")
    return sympy.Poly(list(reversed(p)), x, domain="ZZ").is_irreducible


def rational_divmod(p, q):
    """Quotient and remainder of p by the nonzero q over Q, by long
    division with ``Fraction`` coefficients."""
    rem = [Fraction(a) for a in p]
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    for k in reversed(range(len(quo))):
        f = quo[k] = rem[k + len(q) - 1] / q[-1]
        for i, b in enumerate(q):
            rem[k + i] -= f * b
    return poly_trim(quo), poly_trim(rem[:len(q) - 1])


def classical_sturm_chain(p) -> list:
    """p, p', -rem(p, p'), ... over Q, up to the last nonzero member."""
    chain = [tuple(Fraction(a) for a in p),
             tuple(Fraction(i * a) for i, a in enumerate(p))[1:]]
    while chain[-1]:
        chain.append(tuple(-a for a in rational_divmod(chain[-2],
                                                       chain[-1])[1]))
    return chain[:-1]


def sympy_gcd(p, q):
    """sympy's gcd of the integer polynomials p and q, made primitive with
    a positive leading coefficient; () when both are zero."""
    import sympy

    x = sympy.symbols("x")
    g = sympy.Poly(list(reversed(p)) or [0], x, domain="ZZ").gcd(
        sympy.Poly(list(reversed(q)) or [0], x, domain="ZZ"))
    coeffs = poly_trim(tuple(reversed([int(c) for c in g.all_coeffs()])))
    if not coeffs:
        return ()
    c = math.gcd(*coeffs) * (1 if coeffs[-1] > 0 else -1)
    return tuple(a // c for a in coeffs)


def canonical_form_reference(d) -> tuple:
    """(key, sign) of a diagram, as ``diagrams.canonical_form`` defines
    them: the lexicographic minimum over the BFS codes of every start leg
    and every rotation direction, searched leg by leg in vertex order,
    with dict-based successor tables and a token-by-token pruning
    closure; sign -1 only when every minimal traversal has odd reversal
    parity."""
    verts = d.vertices
    pairing = d.pairing
    owner = [0] * len(pairing)
    for i, v in enumerate(verts):
        for h in v:
            owner[h] = i
    succ = []
    for v in verts:
        if len(v) == 3:
            fwd = {v[0]: v[1], v[1]: v[2], v[2]: v[0]}
            rev = {v[0]: v[2], v[2]: v[1], v[1]: v[0]}
        else:
            fwd = rev = {v[0]: v[0]}
        succ.append((fwd, rev))

    best: Optional[list] = None
    best_par: set = set()
    ids: dict = {}
    entry: dict = {}
    orient: dict = {}
    code: list = []
    queue: list = []

    def dfs(qi: int, flips: int, decided: bool) -> None:
        nonlocal best, best_par
        base_code = len(code)
        added = []
        pruned = False

        def push(tok) -> bool:
            nonlocal decided, pruned
            code.append(tok)
            if not decided and best is not None:
                k = len(code) - 1
                if code[k] > best[k]:
                    pruned = True
                    return False
                if code[k] < best[k]:
                    decided = True
            return True

        while qi < len(queue):
            h = queue[qi]
            qi += 1
            p = pairing[h]
            w = owner[p]
            if w in ids:
                tbl = succ[w][orient[w]]
                slot = 0
                x = entry[w]
                while x != p:
                    x = tbl[x]
                    slot += 1
                if not (push(1) and push(ids[w]) and push(slot)):
                    break
                continue
            if len(verts[w]) == 1:
                ids[w] = len(ids)
                entry[w] = p
                orient[w] = 0
                added.append(w)
                if not (push(0) and push(1)):
                    break
                continue
            # trivalent discovery: branch over the two rotation directions
            if push(0) and push(3):
                new_id = len(ids)
                for ori in (0, 1):
                    ids[w] = new_id
                    entry[w] = p
                    orient[w] = ori
                    tbl = succ[w][ori]
                    h1 = tbl[p]
                    h2 = tbl[h1]
                    queue.append(h1)
                    queue.append(h2)
                    dfs(qi, flips + ori, decided)
                    queue.pop()
                    queue.pop()
                    del ids[w], entry[w], orient[w]
            del code[base_code:]
            for wv in added:
                del ids[wv], entry[wv], orient[wv]
            return

        if not pruned:
            if best is None or code < best:
                best = list(code)
                best_par = {flips & 1}
            elif code == best:
                best_par.add(flips & 1)
        del code[base_code:]
        for wv in added:
            del ids[wv], entry[wv], orient[wv]

    for sv, v in enumerate(verts):
        if len(v) != 1:
            continue
        ids.clear()
        entry.clear()
        orient.clear()
        code.clear()
        queue.clear()
        ids[sv] = 0
        entry[sv] = v[0]
        orient[sv] = 0
        queue.append(v[0])
        dfs(0, 0, False)

    key = ".".join(str(x) for x in best)
    sign = -1 if best_par == {1} else 1
    return key, sign
