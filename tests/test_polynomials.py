import functools
import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest

import knotbench.polynomials as polynomials
import oracles
from knotbench.braids import BraidWord, seifert_matrix_from_braid
from knotbench.errors import BudgetExceededError, InputError, PreconditionError
from knotbench.invariants import (
    _arcs,
    _laurent_to_x,
    alexander_polynomial,
    signature_function,
    x_polynomial,
)
from knotbench.polynomials import (
    LaurentPoly,
    count_real_roots,
    cyclotomic_poly,
    factor_integer_poly,
    poly_add,
    poly_div_exact,
    poly_eval,
    poly_matrix_det,
    poly_mul,
    poly_neg,
    poly_sign_at,
    poly_squarefree_part,
    poly_trim,
    refine_isolating_interval,
    sturm_isolate,
)
from conftest import random_seifert


class TestSturmIsolate:
    def test_linear_root(self):
        boxes = sturm_isolate((-1, 1), -2, 2)  # x - 1
        assert len(boxes) == 1
        lo, hi = boxes[0]
        assert lo < 1 < hi

    def test_roots_outside_interval(self):
        assert sturm_isolate((-5, 0, 1), -2, 2) == []  # x^2 - 5

    def test_symmetric_pair(self):
        boxes = sturm_isolate((-2, 0, 1), -2, 2)  # x^2 - 2
        assert len(boxes) == 2
        (a1, b1), (a2, b2) = boxes
        assert b1 <= a2
        assert a1 < -1 < b1 and a2 < Fraction(3, 2) < b2

    def test_zero_polynomial_rejected(self):
        with pytest.raises(InputError, match="indeterminate roots"):
            sturm_isolate((), -1, 1)

    def test_endpoints_are_never_roots(self):
        p = (0, -1, 0, 1)  # x(x^2 - 1): roots 0, +-1
        for lo, hi in sturm_isolate(p, -2, 2):
            assert poly_eval(poly_squarefree_part(p), lo) != 0
            assert poly_eval(poly_squarefree_part(p), hi) != 0

    def test_repeated_roots_isolated_once(self):
        # (x-1)^2 (x+1)
        p = poly_mul(poly_mul((-1, 1), (-1, 1)), (1, 1))
        assert len(sturm_isolate(p, -2, 2)) == 2

    def test_random_linear_products(self):
        rng = random.Random(11)
        for _ in range(40):
            roots = sorted(rng.sample(range(-8, 9), rng.randint(1, 5)))
            p = (1,)
            for r in roots:
                p = poly_mul(p, (-r, 1))
            lo, hi = Fraction(-17, 2), Fraction(17, 2)
            boxes = sturm_isolate(p, lo, hi)
            assert len(boxes) == len(roots)
            for (a, b), r in zip(boxes, roots):
                assert a < r < b
            # disjointness
            for (_, b1), (a2, _) in zip(boxes, boxes[1:]):
                assert b1 <= a2

    def test_root_at_the_end_does_not_hide_a_neighbour(self):
        # x (10 x - 1): lo = 0 is a root, and 1/10 must still be found
        boxes = sturm_isolate((0, -1, 10), 0, 2)
        assert len(boxes) == 1
        lo, hi = boxes[0]
        assert lo < Fraction(1, 10) < hi and lo > 0


class TestCountRoots:
    def test_counts_in_subintervals(self):
        p = (-2, 0, 1)  # roots +-sqrt(2)
        assert count_real_roots(p, 0, 2) == 1
        assert count_real_roots(p, -2, 2) == 2
        assert count_real_roots(p, -1, 1) == 0

    def test_rational_roots_non_dyadic_bounds(self):
        # -prod (3x - r): negative leading coefficient, roots r/3, bounds
        # k/7 that are not dyadic and sometimes roots themselves
        rng = random.Random(7)
        for _ in range(40):
            roots = rng.sample(range(-12, 13), rng.randint(1, 5))
            p = (-1,)
            for r in roots:
                p = poly_mul(p, (-r, 3))
            lo, hi = sorted(Fraction(rng.randint(-35, 35), 7) for _ in range(2))
            expect = sum(1 for r in roots if lo < Fraction(r, 3) < hi)
            assert count_real_roots(p, lo, hi) == expect

    def test_against_sympy_count_roots(self):
        # random coefficients give complex roots too, so Sturm members
        # with negative leading coefficients occur
        import sympy

        x = sympy.symbols("x")
        rng = random.Random(17)
        for _ in range(60):
            p = poly_trim([rng.randint(-9, 9) for _ in range(rng.randint(2, 8))])
            if len(p) < 2:
                continue
            lo, hi = sorted(Fraction(rng.randint(-40, 40), rng.randint(1, 9))
                            for _ in range(2))
            if lo == hi:
                continue
            sp = sympy.Poly(list(reversed(p)), x)
            expect = (sp.count_roots(lo, hi) - (poly_eval(p, lo) == 0)
                      - (poly_eval(p, hi) == 0))
            assert count_real_roots(p, lo, hi) == expect


class TestSquarefreeProducts:
    """p = f g^2 and f g^3 against sympy: the squarefree part up to sign,
    and Sturm boxes and counts of the distinct real roots."""

    @pytest.mark.parametrize("k", (2, 3))
    def test_against_sympy(self, k):
        import sympy

        x = sympy.symbols("x")
        rng = random.Random(70 + k)
        checked = repeated = 0
        while checked < 40:
            f = poly_trim([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))])
            g = poly_trim([rng.randint(-4, 4) for _ in range(rng.randint(2, 3))])
            if len(g) < 2 or not f:
                continue
            checked += 1
            p = poly_mul(f, _power(g, k))
            sp = sympy.Poly(list(reversed(p)), x)
            want = poly_trim(tuple(reversed(
                [int(c) for c in sp.sqf_part().all_coeffs()])))
            got = poly_squarefree_part(p)
            assert got in (want, poly_neg(want)), p
            roots = sympy.Poly(list(reversed(got)), x).real_roots()
            # g has a root in (-8, 8), which p repeats
            repeated += sympy.Poly(list(reversed(g)), x).count_roots(-8, 8) != 0
            boxes = sturm_isolate(p, -8, 8)
            inside = [r for r in roots if -8 < r < 8]
            assert len(boxes) == len(inside), p
            for (a, b), r in zip(boxes, inside):
                assert a < r < b
            lo, hi = sorted(Fraction(rng.randint(-40, 40), rng.randint(1, 9))
                            for _ in range(2))
            assert count_real_roots(p, lo, hi) == sum(
                1 for r in roots if lo < r < hi), (p, lo, hi)
        assert repeated > 10


class TestSignAt:
    def test_matches_fraction_horner(self):
        rng = random.Random(13)
        for _ in range(300):
            p = poly_trim([rng.randint(-9, 9) for _ in range(rng.randint(1, 8))])
            x = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
            v = poly_eval(p, x)
            assert poly_sign_at(p, x) == (v > 0) - (v < 0)

    def test_integer_argument(self):
        assert poly_sign_at((-2, 0, 1), 1) == -1
        assert poly_sign_at((-1, 1), 1) == 0
        assert poly_sign_at((), Fraction(1, 3)) == 0


@functools.cache
def _t_2_21_x_poly():
    return signature_function(
        seifert_matrix_from_braid(BraidWord(2, [1] * 21))).x_poly


def _refine_cases():
    p = _t_2_21_x_poly()
    cases = [((-2, 0, 1), Fraction(1), Fraction(2)),
             ((-3, 0, 1), Fraction(5, 3), Fraction(7, 4))]
    cases += [(p, lo, hi) for lo, hi in sturm_isolate(p, -2, 2)]
    return cases


class TestRefineIsolatingInterval:
    WIDTH = Fraction(1, 10 ** 100)

    def test_t_2_21_x_poly(self):
        p = _t_2_21_x_poly()
        assert len(p) - 1 == 10
        assert len(sturm_isolate(p, -2, 2)) == 10

    @pytest.mark.parametrize("case", range(12))
    def test_refines_to_1e_100(self, case):
        p, lo, hi = _refine_cases()[case]
        a, b = refine_isolating_interval(p, lo, hi, self.WIDTH)
        assert lo <= a < b <= hi
        assert b - a <= self.WIDTH
        assert poly_sign_at(p, a) * poly_sign_at(p, b) == -1
        # at least 400 bits, and more when the accepted cells overshot
        prec = max(400, 64 + max(a.denominator, b.denominator).bit_length())
        with mpmath.workprec(prec):
            roots = mpmath.polyroots(list(reversed(p)), maxsteps=200,
                                     extraprec=prec)
            real = [mpmath.re(r) for r in roots
                    if abs(mpmath.im(r)) < mpmath.mpf(2) ** (64 - prec)]
            inside = [r for r in real
                      if mpmath.mpf(a.numerator) / a.denominator < r
                      < mpmath.mpf(b.numerator) / b.denominator]
        assert len(inside) == 1

    def test_rational_root_hit_by_a_grid_point(self):
        p = poly_mul((-1, 2), (-3, 0, 1))  # (2x - 1)(x^2 - 3), root 1/2
        a, b = refine_isolating_interval(p, Fraction(0), Fraction(1),
                                         self.WIDTH)
        assert a < Fraction(1, 2) < b
        assert b - a <= self.WIDTH
        assert poly_sign_at(p, a) * poly_sign_at(p, b) == -1

    def test_endpoint_roots_rejected(self):
        with pytest.raises(PreconditionError, match="must not be roots"):
            refine_isolating_interval((-1, 1), Fraction(1), Fraction(2),
                                      Fraction(1, 8))

    @pytest.mark.parametrize("lo, hi", [(2, 3), (-3, 3)])
    def test_endpoints_of_equal_sign_rejected(self, lo, hi):
        # x^2 - 2 is positive at both ends: (2, 3) holds no root, (-3, 3) two
        with pytest.raises(PreconditionError, match="opposite signs"):
            refine_isolating_interval((-2, 0, 1), Fraction(lo), Fraction(hi),
                                      Fraction(1, 1000))

    def test_newton_steps_are_accepted(self, monkeypatch):
        # plain bisection needs about 333 sign evaluations for 2^-332; each
        # sign is that of one scaled value d^k p(n/d)
        calls = []
        scaled_value = polynomials._scaled_value

        def counting(p, n, d):
            calls.append((n, d))
            return scaled_value(p, n, d)

        monkeypatch.setattr(polynomials, "_scaled_value", counting)
        refine_isolating_interval((-2, 0, 1), Fraction(1), Fraction(2),
                                  Fraction(1, 2 ** 332))
        assert 0 < len(calls) < 80
        calls.clear()
        refine_isolating_interval(poly_mul((-1, 2), (-3, 0, 1)), Fraction(0),
                                  Fraction(1), self.WIDTH)
        assert 0 < len(calls) < 80


# (p, lo, hi) where a grid point, its neighbour one cell over or a
# midpoint is a rational root x = 0, +-1 of p, from non-dyadic endpoints
_ROOT_HITS = [
    ((0, -2, 0, 1), Fraction(-1, 2), Fraction(1, 2)),    # grid point, x = 0
    ((-3, -3, 1, 1), Fraction(-8, 5), Fraction(-4, 5)),  # grid point, x = -1
    ((3, -3, -1, 1), Fraction(-8, 5), Fraction(8, 5)),   # grid point, x = 1
    ((0, -2, 0, 1), Fraction(-1, 3), Fraction(1, 1)),    # neighbour, x = 0
    ((-2, -2, 1, 1), Fraction(-4, 3), Fraction(-2, 3)),  # neighbour, x = -1
    ((2, -2, -1, 1), Fraction(-1, 5), Fraction(7, 5)),   # neighbour, x = 1
    ((0, 1, 1, 1), Fraction(-5, 2), Fraction(3, 2)),     # midpoint, x = 0
    ((-2, -2, 1, 1), Fraction(-4, 3), Fraction(4, 3)),   # midpoint, x = -1
    ((2, -2, -1, 1), Fraction(-4, 3), Fraction(4, 3)),   # midpoint, x = 1
]


class TestRefineMatchesFractionOracle:
    """The integer refinement returns the boxes of the same refinement on
    ``Fraction`` endpoints (tests/oracles.py)."""

    WIDTHS = (Fraction(1, 3), Fraction(1, 10 ** 6), Fraction(2, 7 ** 40),
              Fraction(1, 10 ** 100))

    @staticmethod
    def assert_same(p, lo, hi, width):
        got = refine_isolating_interval(p, lo, hi, width)
        assert got == oracles.refine_isolating_interval_fractions(
            p, lo, hi, width)
        assert all(type(x) is Fraction for x in got)

    @pytest.mark.parametrize("case", range(12))
    def test_refine_cases(self, case):
        p, lo, hi = _refine_cases()[case]
        for width in self.WIDTHS:
            self.assert_same(p, lo, hi, width)

    @pytest.mark.parametrize("case", _ROOT_HITS)
    def test_rational_roots_hit(self, case):
        p, lo, hi = case
        for width in self.WIDTHS:
            a, b = refine_isolating_interval(p, lo, hi, width)
            assert b - a <= width
            self.assert_same(p, lo, hi, width)

    def test_random_polynomials_non_dyadic_endpoints(self):
        rng = random.Random(15)
        checked = 0
        while checked < 60:
            p = poly_trim([rng.randint(-6, 6) for _ in range(rng.randint(2, 7))])
            p = poly_squarefree_part(p) if len(p) > 1 else p
            if len(p) < 2:
                continue
            for lo, hi in sturm_isolate(p, -8, 8):
                # widen to non-dyadic endpoints that still isolate the root
                d = rng.choice((3, 5, 7, 9, 11))
                lo2 = Fraction(math.floor(lo * d) - 1, d)
                hi2 = Fraction(math.ceil(hi * d) + 1, d)
                if (count_real_roots(p, lo2, hi2) != 1
                        or poly_sign_at(p, lo2) * poly_sign_at(p, hi2) != -1):
                    lo2, hi2 = lo, hi
                self.assert_same(p, lo2, hi2, rng.choice(self.WIDTHS))
                checked += 1


class TestPolyDivExact:
    def test_integer_quotient(self):
        q = poly_div_exact(poly_mul((1, -3, 2), (-5, 0, 7)), (-5, 0, 7))
        assert q == (1, -3, 2)
        assert all(type(c) is int for c in q)

    def test_rational_quotient(self):
        # q divides p over Q but not over Z: refused, not returned as Fractions
        with pytest.raises(PreconditionError, match="inexact"):
            poly_div_exact((0, 0, 1), (0, 2))
        # the leading division is exact, a later one is not
        with pytest.raises(PreconditionError, match="inexact"):
            poly_div_exact((1, 2), (2,))

    def test_not_divisible(self):
        with pytest.raises(PreconditionError, match="inexact"):
            poly_div_exact((1, 0, 1), (1, 1))
        with pytest.raises(InputError, match="division by zero"):
            poly_div_exact((1, 1), ())

    def test_burau_oracle_catches_non_divisible_determinant(self, monkeypatch):
        det = oracles.poly_matrix_det
        monkeypatch.setattr(oracles, "poly_matrix_det",
                            lambda rows: poly_add(det(rows), (1,)))
        with pytest.raises(PreconditionError, match="inexact"):
            oracles.alexander_via_burau(BraidWord(3, [1, -2, 1, -2]))


def _sparse_negative_lc(rng, degree):
    """A random integer polynomial of the given degree with a negative
    leading coefficient and about half its other coefficients zero, so that
    remainders often drop by two or more degrees."""
    return tuple(rng.choice((0, rng.randint(-9, 9))) for _ in range(degree)) + (
        -rng.randint(1, 9),)


def _positive_multiple(p, ref) -> bool:
    """p = r ref for some rational r > 0."""
    if len(p) != len(ref) or not p:
        return p == ref
    r = Fraction(p[-1]) / ref[-1]
    return r > 0 and all(a == r * b for a, b in zip(p, ref))


class TestIntegerRemainders:
    """Pseudo-remainders against Fraction long division (tests/oracles.py)."""

    def test_prem_is_primitive_positive_multiple(self):
        rng = random.Random(53)
        gaps = 0
        for _ in range(400):
            a = _sparse_negative_lc(rng, rng.randint(0, 9))
            b = _sparse_negative_lc(rng, rng.randint(0, 6))
            if rng.random() < 0.5:
                b = poly_neg(b)
            rem = polynomials._prem(a, b)
            want = oracles.rational_divmod(a, b)[1]
            assert all(type(c) is int for c in rem)
            assert _positive_multiple(rem, want), (a, b)
            if rem:
                assert math.gcd(*rem) == 1
            gaps += len(a) - len(b) >= 2 and b[-1] < 0
        assert gaps > 100

    def test_sturm_members_are_positive_multiples_of_classical(self):
        rng = random.Random(59)
        checked = gaps = 0
        while checked < 200:
            p = _sparse_negative_lc(rng, rng.randint(2, 9))
            want = oracles.classical_sturm_chain(p)
            if len(want[-1]) > 1:  # not squarefree
                continue
            checked += 1
            chain = polynomials.sturm_sequence(p)
            assert len(chain) == len(want), p
            for got, ref in zip(chain, want):
                assert all(type(c) is int for c in got)
                assert _positive_multiple(got, ref), (p, got, ref)
            # a remainder of a by b with deg a - deg b >= 2 and lc(b) < 0
            gaps += any(len(a) - len(b) >= 2 and b[-1] < 0
                        for a, b in zip(want, want[1:]))
        assert gaps > 15

    def test_chains_of_non_squarefree_p_are_divided_classical(self):
        # p = f g^k: the classical chain ends in gcd(p, p') of degree at
        # least k - 1, and dividing each member by it gives the signs
        rng = random.Random(67)
        for _ in range(200):
            g = _sparse_negative_lc(rng, rng.randint(1, 3))
            p = poly_mul(_sparse_negative_lc(rng, rng.randint(0, 4)),
                         _power(g, rng.choice((2, 3))))
            want = oracles.classical_sturm_chain(p)
            last = want[-1]
            assert len(last) > 1, p
            chain = polynomials.sturm_sequence(p)
            assert len(chain) == len(want), p
            assert len(chain[-1]) == 1, (p, chain)
            for got, ref in zip(chain, want):
                quo, rem = oracles.rational_divmod(ref, last)
                assert not rem
                assert all(type(c) is int for c in got)
                assert _positive_multiple(got, quo), (p, got, quo)

    def test_kernel_creates_no_fraction(self, corpus, monkeypatch):
        # Sturm chains, squarefree or not, stay in Z: a Fraction created
        # by the polynomial module fails the test
        def refuse(*args):
            raise AssertionError("Fraction created in polynomial division")

        polys = [p for p in _knot_polys(corpus.values()) if len(p) > 1]
        monkeypatch.setattr(polynomials, "Fraction", refuse)
        for p in polys:
            polynomials.sturm_sequence(p)


class TestFactorInteger:
    def test_rational_roots(self):
        content, factors = factor_integer_poly((2, -5, 2))
        assert content == 1
        assert factors == [((-2, 1), 1), ((-1, 2), 1)]

    def test_irreducible_quadratic(self):
        content, factors = factor_integer_poly((1, -1, 1))
        assert content == 1
        assert factors == [((1, -1, 1), 1)]
        # no rational roots and negative discriminant
        assert (-1) ** 2 - 4 * 1 * 1 < 0

    def test_constant(self):
        assert factor_integer_poly((6,)) == (6, [])

    def test_degree_budget(self):
        with pytest.raises(BudgetExceededError, match="degree too large"):
            factor_integer_poly(tuple([1] * 26))

    @pytest.mark.parametrize("f", [
        (1, -2, 1),                        # (x - 1)^2
        (3, 1, 6, 2, 3, 1),                # (x^2 + 1)^2 (x + 3)
        (4, 12, 12, 4),                    # 4 (x + 1)^3
        (5, 19, 16, -3, 4, 4),             # (2x + 1)^2 (x^3 - x + 5)
    ])
    def test_good_prime_refuses_non_squarefree(self, f):
        # every prime is bad, so the search stops once the rejected primes
        # multiply past lc(f) n^n ||f||^(2n - 2), the bound on |lc disc|
        with pytest.raises(PreconditionError, match="is not squarefree"):
            polynomials._good_prime(f)

    def test_small_inputs_lift_no_polynomial(self, monkeypatch):
        # the x-polynomials of genus 1-3 forms, their squarefree parts and
        # the cofactors ``rest`` that name their boxed jumps have degree
        # <= 3: a rational root or irreducibility decides each of them
        rng = random.Random(67)
        inputs = set()
        for _ in range(300):
            p = x_polynomial(random_seifert(rng, rng.randint(1, 3)))
            inputs |= {p, poly_squarefree_part(p)}
            inputs |= {a.poly for a in _arcs(p)[1] if a.theta is None}
        inputs = sorted(q for q in inputs if len(q) > 1)
        assert len(inputs) > 300 and max(map(len, inputs)) == 4
        lifts = []
        real = polynomials._hensel_lift
        monkeypatch.setattr(polynomials, "_hensel_lift",
                            lambda *args: lifts.append(args) or real(*args))
        for q in inputs:
            factor_integer_poly(q)
        assert lifts == []

    def test_product_reconstructs_input(self):
        rng = random.Random(5)
        for _ in range(30):
            p = tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 9)))
            p = poly_trim(p)
            if not p:
                continue
            content, factors = factor_integer_poly(p)
            prod = (content,)
            for f, mult in factors:
                for _ in range(mult):
                    prod = poly_mul(prod, f)
            assert prod == p


# the torus knots T(p, q) of the benchmark's torus workload
TORUS_FAMILY = ((2, 3), (2, 5), (2, 7), (2, 9), (2, 13), (2, 21),
                (3, 4), (3, 5), (4, 3))

X4_10X2_1 = (1, 0, -10, 0, 1)  # reducible mod every prime, irreducible


def _knot_polys(forms):
    """Delta, the x-polynomial and its squarefree part of every form."""
    out = []
    for v in forms:
        delta = alexander_polynomial(v)
        x_poly = _laurent_to_x(delta)
        out += [delta.to_int_poly()[0], x_poly, poly_squarefree_part(x_poly)]
    return out


def _power(p, k):
    out = (1,)
    for _ in range(k):
        out = poly_mul(out, p)
    return out


class TestFactorAgainstSympy:
    """sympy's factor_list is the oracle; it is imported by the tests only."""

    def check(self, p):
        content, factors = factor_integer_poly(p)
        assert (content, factors) == oracles.sympy_factor_list(p), p
        prod = (content,)
        for f, mult in factors:
            assert f[-1] > 0 and oracles.sympy_is_irreducible(f), (p, f)
            prod = poly_mul(prod, _power(f, mult))
        assert prod == poly_trim(p)

    def test_bundled_table(self, corpus):
        for p in _knot_polys(corpus.values()):
            self.check(p)

    def test_random_seifert_forms(self):
        rng = random.Random(41)
        forms = [random_seifert(rng, rng.randint(1, 4)) for _ in range(60)]
        for p in _knot_polys(forms):
            self.check(p)

    def test_torus_family(self):
        forms = [seifert_matrix_from_braid(BraidWord(p, list(range(1, p)) * q))
                 for p, q in TORUS_FAMILY]
        for p in _knot_polys(forms):
            self.check(p)

    def test_x_n_minus_1(self):
        for n in range(1, 25):
            self.check((-1,) + (0,) * (n - 1) + (1,))
        self.check((1,) + (0,) * 11 + (1,) + (0,) * 11 + (1,))

    def test_swinnerton_dyer_quartic(self):
        self.check(X4_10X2_1)
        self.check(poly_mul(X4_10X2_1, X4_10X2_1))
        self.check(poly_mul(X4_10X2_1, (1, 0, -10, 0, 1, 0, 3)))
        self.check(_power(X4_10X2_1, 3))
        self.check(poly_mul(poly_mul(X4_10X2_1, cyclotomic_poly(12)),
                            (-2, 0, 0, 3)))

    def test_repeated_factors_content_and_zero_root(self):
        rng = random.Random(43)
        for _ in range(80):
            p = (rng.choice((-6, -2, -1, 1, 3, 4)),)
            for _ in range(rng.randint(1, 3)):
                f = poly_trim([rng.randint(-4, 4)
                               for _ in range(rng.randint(2, 5))])
                if len(f) > 1:
                    p = poly_mul(p, _power(f, rng.randint(1, 3)))
            p = (0,) * rng.randint(0, 3) + p
            if len(p) <= 25:
                self.check(p)
        self.check(poly_neg(_power((0, 2, 4), 3)))  # -8 x^3 (1 + 2x)^3

    def test_large_coefficients(self):
        # factors with coefficients far above every small prime need the
        # Hensel lift past the Mignotte bound
        rng = random.Random(47)
        for _ in range(40):
            p = (rng.randint(1, 50),)
            for _ in range(rng.randint(2, 4)):
                f = (rng.randint(-10 ** 6, 10 ** 6),) + tuple(
                    rng.randint(-999, 999) for _ in range(rng.randint(0, 3)))
                p = poly_mul(p, f + (rng.randint(1, 30),))
            self.check(p)

    def test_non_monic_rational_roots(self):
        # 2-4 linear factors b x - a with b <= 9 times an irreducible
        # cofactor of degree 0-5: the leading coefficient of the cofactor
        # changes as each rational root is divided out
        rng = random.Random(71)
        for _ in range(60):
            degree = rng.randint(0, 5)
            while True:
                rest = poly_trim([rng.randint(-9, 9) for _ in range(degree)]
                                 + [rng.choice((-3, -1, 1, 2, 5))])
                if degree == 0 or oracles.sympy_is_irreducible(rest):
                    break
            p = rest
            for _ in range(rng.randint(2, 4)):
                p = poly_mul(p, (-rng.randint(-20, 20), rng.randint(1, 9)))
            self.check(p)

    def test_irreducible_cubics_that_split_mod_p(self):
        # each splits into a linear and a quadratic factor modulo its first
        # good prime, but its lifted root is no rational root
        for f in ((1021, 3924, -4091, 937), (15441, -12165, -226, 1224)):
            p = polynomials._good_prime(f)
            dd = polynomials._distinct_degree(
                polynomials._monic(polynomials._pmod(f, p), p), p)
            assert [d for _, d in dd] == [1, 2]
            assert factor_integer_poly(f) == (1, [(f, 1)])
            self.check(f)
            self.check(poly_mul(f, (7, -3)))

    def test_dense_at_the_degree_budget(self):
        # degree 12 to FACTOR_DEGREE_BUDGET = 24, every coefficient random
        rng = random.Random(53)
        for _ in range(15):
            self.check([rng.randint(-30, 30) for _ in range(rng.randint(12, 24))]
                       + [rng.randint(1, 30)])

    def test_repeated_factor_at_the_degree_budget(self):
        # one factor of degree 1-6 squared or cubed, times factors of
        # degree 1-8 up to a random degree of 12-24, so the squarefree part
        # is factored
        rng = random.Random(59)

        def factor(degree):
            return ([rng.randint(-9, 9) for _ in range(degree)]
                    + [rng.choice((-3, -2, -1, 1, 2, 3))])

        for _ in range(25):
            p = _power(factor(rng.randint(1, 6)), rng.randint(2, 3))
            degree = rng.randint(12, 24)
            while len(p) <= degree:
                p = poly_mul(p, factor(rng.randint(1, 8)))
            if len(p) <= 25:
                self.check(p)


class TestLaurentPoly:
    def test_zero_has_empty_support(self):
        z = LaurentPoly({3: 1}) - LaurentPoly({3: 1})
        assert z.is_zero() and oracles.support(z) == []

    def test_arithmetic_and_eval(self):
        d = LaurentPoly({1: 1, 0: -1, -1: 1})
        assert d(1) == 1 and d(-1) == -3
        assert (d * d)(2) == d(2) ** 2

    def test_symmetry_and_normalization(self):
        p = LaurentPoly({2: 1, 1: -1, 0: 1})  # t^2 - t + 1
        q = oracles.unit_normalize_symmetric(p)
        assert q.is_symmetric() and q(1) == 1
        assert q == LaurentPoly({1: 1, 0: -1, -1: 1})

    def test_normalization_preserves_up_to_units(self):
        p = LaurentPoly({4: -2, 3: 5, 2: -2})
        q = oracles.unit_normalize_symmetric(p)
        # q = +-t^k p
        assert q == LaurentPoly({1: 2, 0: -5, -1: 2}) or q == -LaurentPoly(
            {1: 2, 0: -5, -1: 2})
        assert q(1) == 1

    def test_int_operands_on_either_side(self):
        p = LaurentPoly({1: 1, -1: 1})
        assert p + 2 == 2 + p == LaurentPoly({1: 1, 0: 2, -1: 1})
        assert p - 2 == LaurentPoly({1: 1, 0: -2, -1: 1})
        assert 3 * p == p * 3 == LaurentPoly({1: 3, -1: 3})
        assert p - p == 0

    @pytest.mark.parametrize("op", [
        lambda p: p + "x", lambda p: p * 1.5, lambda p: "x" * p,
        lambda p: p - 0.5, lambda p: 1.5 + p],
        ids=["p+str", "p*float", "str*p", "p-float", "float+p"])
    def test_foreign_operand_is_python_type_error(self, op):
        # the operators return NotImplemented, and Python raises TypeError
        p = LaurentPoly({1: 1, -1: 1})
        with pytest.raises(TypeError):
            op(p)
        for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__"):
            assert getattr(p, name)("x") is NotImplemented, name

    @pytest.mark.parametrize("coeffs", [
        {0.5: 1.7, 1: 2}, {1: 1.9, 0: -1, -1: 1}, {"1": "3"}, {1: "3"},
        {True: 1}, {1: True}, [(1.0, 1)]],
        ids=["float-both", "float-coefficient", "str-both", "str-coefficient",
             "bool-exponent", "bool-coefficient", "float-exponent-pair"])
    def test_non_integers_refused(self, coeffs):
        # truncating them would answer for a different polynomial
        with pytest.raises(InputError, match="is not an integer"):
            LaurentPoly(coeffs)

    def test_reciprocal(self):
        p = LaurentPoly({2: 3, -1: 4})
        assert p.reciprocal() == LaurentPoly({-2: 3, 1: 4})

    def test_str_round_trip_forms(self):
        assert str(LaurentPoly({1: 2, 0: -5, -1: 2})) == "2*t - 5 + 2*t^-1"
        assert str(LaurentPoly({})) == "0"


class TestPolyMatrixDet:
    def test_two_by_two(self):
        mat = [[(1, 1), (0, 1)], [(2,), (1,)]]  # [[1+x, x],[2, 1]]
        det = poly_matrix_det(mat)
        assert det == poly_trim((1, -1))  # (1+x) - 2x

    def test_against_permanent_expansion(self):
        rng = random.Random(3)
        for _ in range(15):
            n = rng.randint(1, 4)
            mat = [[tuple(rng.randint(-2, 2) for _ in range(2))
                    for _ in range(n)] for _ in range(n)]
            assert poly_matrix_det([row[:] for row in mat]) == _leibniz_det(mat)

    def test_8_by_8_linear_entries(self):
        rng = random.Random(8)
        for _ in range(2):
            mat = [[poly_trim((rng.randint(-3, 3), rng.randint(-3, 3)))
                    for _ in range(8)] for _ in range(8)]
            det = poly_matrix_det([row[:] for row in mat])
            assert all(type(c) is int for c in det)
            assert det == _leibniz_det(mat)

    def test_empty_matrix_and_zero_row(self):
        assert poly_matrix_det([]) == (1,)
        assert poly_matrix_det([[()]]) == ()
        assert poly_matrix_det([[(1, 2), (0, 0, 3)], [(), ()]]) == ()
        assert poly_matrix_det([[(), (5,)], [(0, 0, 1), (1, 1)]]) == (0, 0, -5)

    def test_degree_zero_entries(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(1, 5)
            mat = [[poly_trim((rng.randint(-4, 4),)) for _ in range(n)]
                   for _ in range(n)]
            det = poly_matrix_det(mat)
            assert det == _leibniz_det(mat) == oracles.poly_matrix_det(mat)
            assert len(det) <= 1

    def test_entries_of_degree_2_and_3(self):
        rng = random.Random(23)
        for _ in range(25):
            n = rng.randint(1, 4)
            mat = [[poly_trim([rng.randint(-3, 3)
                               for _ in range(rng.randint(0, 4))])
                    for _ in range(n)] for _ in range(n)]
            det = poly_matrix_det(mat)
            assert all(type(c) is int for c in det)
            assert det == poly_trim(det)
            assert det == _leibniz_det(mat) == oracles.poly_matrix_det(mat)

    def test_one_integer_determinant_per_node(self, monkeypatch):
        # D = 3 + 1 + 2 is the sum over rows of the largest entry degree
        calls = []
        det = polynomials.integer_determinant
        monkeypatch.setattr(polynomials, "integer_determinant",
                            lambda rows: calls.append(rows) or det(rows))
        mat = [[(1, 0, 0, 1), (2,), ()], [(0, 1), (1, 1), (3,)],
               [(1,), (0, 0, 1), (4, 0, 2)]]
        assert poly_matrix_det(mat) == _leibniz_det(mat)
        assert len(calls) == 7

    def test_alexander_polynomial_matches_oracle(self, corpus):
        forms = list(corpus.values()) + [
            seifert_matrix_from_braid(BraidWord(p, list(range(1, p)) * q))
            for p, q in TORUS_FAMILY]
        for v in forms:
            n = v.size
            mat = [[poly_trim((v.rows[i][j], -v.rows[j][i])) for j in range(n)]
                   for i in range(n)]
            det = oracles.poly_matrix_det(mat)
            assert poly_matrix_det(mat) == det
            assert alexander_polynomial(v) == oracles.unit_normalize_symmetric(
                LaurentPoly.from_int_poly(det))


def _leibniz_det(mat):
    """Permanent-style expansion over all permutations, with signs."""
    n = len(mat)
    acc = ()
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            j = i
            clen = 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                clen += 1
            if clen % 2 == 0:
                sign = -sign
        term = (sign,)
        for i in range(n):
            term = poly_mul(term, mat[i][perm[i]])
        acc = poly_add(acc, term)
    return acc


def test_cyclotomic_small_cases():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("n", [0, -3])
def test_cyclotomic_index_refused(n):
    with pytest.raises(InputError, match="n must be positive"):
        cyclotomic_poly(n)
