import random
from fractions import Fraction

import mpmath
import pytest

from knotbench.errors import InputError, PreconditionError
from knotbench.intervals import (
    AlgebraicAngle,
    IntervalReal,
    _pi,
    angle_from_cos_half,
    cos_2pi,
    format_bound,
    format_decimal,
    format_jumps,
)

from oracles import intersects


def mpf_to_fraction(x) -> Fraction:
    """Exact rational value of an mpmath mpf, sign included."""
    sign, man, exp, _ = x._mpf_
    v = Fraction(man) * Fraction(2) ** exp
    return -v if sign else v


_TOL = Fraction(1, 2 ** 500)


def theta_ref(x) -> Fraction:
    """acos(x/2) / (2 pi) for a real x in [-2, 2] given as an mpf or a
    rational, by mpmath at 600 bits, right to well within 2^-500."""
    with mpmath.workprec(600):
        if isinstance(x, Fraction):
            x = mpmath.mpf(x.numerator) / x.denominator
        return mpf_to_fraction(mpmath.acos(x / 2) / (2 * mpmath.pi))


class TestIntervalReal:
    def test_order_enforced(self):
        with pytest.raises(PreconditionError, match="out of order"):
            IntervalReal(Fraction(1), Fraction(0))

    def test_intersects(self):
        a = IntervalReal(Fraction(0), Fraction(1))
        assert intersects(a, IntervalReal(Fraction(1), Fraction(2)))
        assert not intersects(a, IntervalReal(Fraction(3, 2), Fraction(2)))

    def test_value_semantics(self):
        # equal, hashed and printed by value, as a frozen dataclass was
        a = IntervalReal(Fraction(1, 2), Fraction(3, 4))
        b = IntervalReal(Fraction(1, 2), Fraction(3, 4))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != IntervalReal(Fraction(1, 2), Fraction(1))
        assert a != (Fraction(1, 2), Fraction(3, 4))
        assert repr(a) == "IntervalReal(lo=Fraction(1, 2), hi=Fraction(3, 4))"
        assert str(a) == "[1/2, 3/4]"
        with pytest.raises(AttributeError):
            a.lo = Fraction(0)
        with pytest.raises(AttributeError):
            del a.hi
        assert a.lo == Fraction(1, 2)


class TestTrigEnclosures:
    @pytest.mark.parametrize("theta", [Fraction(1, 6), Fraction(1, 4),
                                       Fraction(1, 2), Fraction(5, 7),
                                       Fraction(9, 11)])
    def test_cos_sin_contain_float_value(self, theta):
        # independent oracle: mpmath's point (not interval) context at 256
        # bits.  A float oracle errs by up to 4e-16 and misses enclosures
        # that are at most about 1e-18 wide; the 2^-200 tolerance covers
        # only the oracle's own rounding.
        c = cos_2pi(theta, 64)
        tol = Fraction(1, 2 ** 200)
        with mpmath.workprec(256):
            arg = 2 * mpmath.pi * mpmath.mpf(theta.numerator) / theta.denominator
            cos_ref = mpf_to_fraction(mpmath.cos(arg))
        assert c.lo - tol <= cos_ref <= c.hi + tol

    def test_width_shrinks_with_precision(self):
        w1 = cos_2pi(Fraction(1, 7), 53).width
        w2 = cos_2pi(Fraction(1, 7), 212).width
        assert w2 < w1 / 2 ** 100

    def test_exact_anchor_values(self):
        assert cos_2pi(Fraction(1, 2), 64).contains(-1)
        assert cos_2pi(Fraction(1, 6), 64).contains(Fraction(1, 2))

    def test_angle_from_cos_half_range(self):
        out = angle_from_cos_half(IntervalReal(Fraction(-2), Fraction(2)), 64)
        assert out.lo >= 0 and out.hi <= Fraction(1, 2)


class TestFixedPointKernels:
    """The integer kernels against mpmath at 600 bits: each enclosure
    contains the value, and a point's enclosure at b bits is at most 2^-b
    wide."""

    @pytest.mark.parametrize("bits", [16, 53, 64, 96, 200, 400, 1000])
    def test_pi(self, bits):
        s, e = _pi(bits)
        with mpmath.workprec(1200):
            ref = mpf_to_fraction(mpmath.pi) * 2 ** bits
        assert abs(s - ref) < e < 4 * bits + 64

    @pytest.mark.parametrize("bits", [64, 96, 200, 400])
    def test_point_enclosures(self, bits):
        rng = random.Random(bits)
        xs = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2)]
        for _ in range(60):
            b = rng.randint(1, 10 ** rng.randint(1, 40))
            xs.append(Fraction(rng.randint(-2 * b, 2 * b), b))
        for x in xs:
            e = angle_from_cos_half(IntervalReal(x, x), bits)
            assert e.lo - _TOL <= theta_ref(x) <= e.hi + _TOL, x
            assert e.width <= Fraction(1, 2 ** bits), x

    @pytest.mark.parametrize("bits", [64, 96, 200, 400])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_near_cos_half_ends(self, sign, bits):
        # x within 10^-40 of +-2, where theta is near 0 or 1/2 and
        # arccos(x/2) would lose half the bits; the boxes touching +-2 run
        # from theta = 0 (or up to 1/2) to theta at the other end
        ulp = Fraction(1, 2 ** bits)
        for d in (Fraction(1, 10), Fraction(1, 10 ** 20), Fraction(1, 10 ** 40),
                  Fraction(7, 3 * 10 ** 40), Fraction(1, 2 ** 130)):
            x = sign * (2 - d)
            e = angle_from_cos_half(IntervalReal(x, x), bits)
            assert e.lo - _TOL <= theta_ref(x) <= e.hi + _TOL
            assert e.width <= ulp
            box = IntervalReal(*sorted((x, sign * Fraction(2))))
            e = angle_from_cos_half(box, bits)
            if sign > 0:
                assert e.lo == 0 and theta_ref(x) <= e.hi <= theta_ref(x) + ulp
            else:
                assert e.hi == Fraction(1, 2)
                assert theta_ref(x) - ulp <= e.lo <= theta_ref(x)

    @pytest.mark.parametrize("bits", [64, 200])
    def test_wide_box_ends(self, bits):
        # theta decreases in x: a box's enclosure runs from theta(x_hi) to
        # theta(x_lo), each end rounded outward by at most 2^-bits; ends
        # past +-2 count as +-2
        rng = random.Random(7)
        ulp = Fraction(1, 2 ** bits)
        boxes = [(Fraction(-3), Fraction(3)), (Fraction(1), Fraction(5)),
                 (Fraction(-9, 2), Fraction(-1, 3))]
        for _ in range(40):
            boxes.append(sorted(Fraction(rng.randint(-4000, 4000), 2000)
                                for _ in range(2)))
        for lo, hi in boxes:
            e = angle_from_cos_half(IntervalReal(lo, hi), bits)
            least = theta_ref(min(hi, Fraction(2)))
            most = theta_ref(max(lo, Fraction(-2)))
            assert least - ulp <= e.lo <= least + _TOL
            assert most - _TOL <= e.hi <= most + ulp

    @pytest.mark.parametrize("digits", [10, 30, 60])
    def test_enclosure_to_width(self, digits):
        # roots of n x^2 - m, some within 10^-40 of +-2, enclosed to
        # width 10^-digits from their isolating boxes
        width = Fraction(1, 10 ** digits)
        near = 10 ** 40
        cases = [((-2, 0, 1), 1), ((-3, 0, 1), 1), ((-7, 0, 5), -1),
                 ((-1, 0, 3), -1), ((1 - 4 * near, 0, near), 1),
                 ((1 - 4 * near, 0, near), -1)]
        for poly, sign in cases:
            m, n = -poly[0], poly[2]
            lo, hi = sorted((sign * Fraction(0), sign * Fraction(2)))
            for upper in (False, True):
                a = AlgebraicAngle(poly, lo, hi, upper)
                enc = a.enclosure_to_width(width)
                with mpmath.workprec(600):
                    ref = theta_ref(sign * mpmath.sqrt(mpmath.mpf(m) / n))
                if upper:
                    ref = 1 - ref
                assert enc.width <= width
                assert enc.lo - _TOL <= ref <= enc.hi + _TOL

    @pytest.mark.parametrize("bits", [53, 64, 200, 400])
    def test_cos_2pi_octants(self, bits):
        # a theta inside each eighth of the turn runs every reduction (cos
        # or sin series, either sign); 1/8, 3/8, 0, 1/2 and 1 sit on the
        # seams between them, and -1/7 and 22/7 lie outside [0, 1)
        thetas = [Fraction(2 * k + 1, 16) + Fraction(1, 97) for k in range(8)]
        thetas += [Fraction(1, 8), Fraction(3, 8), Fraction(0), Fraction(1, 2),
                   Fraction(1), Fraction(-1, 7), Fraction(22, 7)]
        for t in thetas:
            c = cos_2pi(t, bits)
            with mpmath.workprec(600):
                ref = mpf_to_fraction(mpmath.cos(
                    2 * mpmath.pi * mpmath.mpf(t.numerator) / t.denominator))
            assert c.lo - _TOL <= ref <= c.hi + _TOL, t
            assert c.width <= Fraction(1, 2 ** bits), t
            assert -1 <= c.lo and c.hi <= 1


class TestExactAngle:
    def test_exact_angles_enclosed_as_points(self, monkeypatch):
        # Psi_8 = x^2 - 2: x = sqrt 2 is theta = 1/8
        a = AlgebraicAngle((-2, 0, 1), Fraction(1), Fraction(3, 2),
                           theta=Fraction(1, 8))
        b = a.conjugate()
        assert b.theta == Fraction(1, 8) and b.upper
        monkeypatch.setattr(AlgebraicAngle, "enclosure",
                            lambda self, prec_bits=64: pytest.fail("enclosed"))
        assert format_jumps([a], 3) == ["0.125", "0.875"]

    @pytest.mark.parametrize("width",
                             [Fraction(1, 10), Fraction(1, 10 ** 100)])
    def test_exact_angle_is_its_own_enclosure(self, width, monkeypatch):
        # theta for the angle in (0, 1/2), 1 - theta for its conjugate, at
        # every width, and no mpmath enclosure of the x-box
        a = AlgebraicAngle((-2, 0, 1), Fraction(1), Fraction(3, 2),
                           theta=Fraction(1, 8))
        monkeypatch.setattr(AlgebraicAngle, "enclosure",
                            lambda self, prec_bits=64: pytest.fail("enclosed"))
        exact = IntervalReal.exact
        assert a.enclosure_to_width(width) == exact(Fraction(1, 8))
        assert a.conjugate().enclosure_to_width(width) == exact(Fraction(7, 8))
        with pytest.raises(InputError, match="width must be positive"):
            a.enclosure_to_width(0)

    def test_exact_angle_has_no_box(self):
        # theta alone names the root: a box passed with it is not kept,
        # enclosure at every precision is the point, and refine_x refuses
        eighth = Fraction(1, 8)
        a = AlgebraicAngle((-2, 0, 1), Fraction(1), Fraction(3, 2),
                           theta=eighth)
        assert a == AlgebraicAngle((-2, 0, 1), theta=eighth)
        assert (a.x_lo, a.x_hi) == (None, None)
        for prec in (1, 64, 1000):
            assert a.enclosure(prec) == IntervalReal.exact(eighth)
            assert a.conjugate().enclosure(prec) == IntervalReal.exact(
                Fraction(7, 8))
        assert repr(a.conjugate()) == (
            "AlgebraicAngle(1-acos(x/2)/2pi, x^2 - 2, theta=1/8)")
        with pytest.raises(PreconditionError, match="no x-box"):
            a.refine_x(Fraction(1, 10))

    @pytest.mark.parametrize("box", [(), (Fraction(1),),
                                     (None, Fraction(3, 2))])
    def test_angle_without_box_or_theta_refused(self, box):
        with pytest.raises(PreconditionError,
                           match="needs an x-box or an exact theta"):
            AlgebraicAngle((-2, 0, 1), *box)


class TestAlgebraicAngle:
    def test_sixth_root_angle(self):
        a = AlgebraicAngle((-1, 1), Fraction(1, 2), Fraction(3, 2))
        enc = a.enclosure_to_width(Fraction(1, 10 ** 15))
        assert enc.contains(Fraction(1, 6))
        assert enc.width <= Fraction(1, 10 ** 15)

    @pytest.mark.parametrize("width", [0, Fraction(-1, 10)])
    def test_nonpositive_width_refused(self, width):
        a = AlgebraicAngle((-1, 1), Fraction(1, 2), Fraction(3, 2))
        with pytest.raises(InputError, match="width must be positive"):
            a.enclosure_to_width(width)

    def test_box_without_a_sign_change_refused(self):
        # x^2 - 2 is negative on all of [1/2, 1], which holds no root
        a = AlgebraicAngle((-2, 0, 1), Fraction(1, 2), Fraction(1))
        with pytest.raises(PreconditionError, match="opposite signs"):
            a.enclosure_to_width(Fraction(1, 1000))

    def test_conjugate_pairing(self):
        a = AlgebraicAngle((-1, 1), Fraction(1, 2), Fraction(3, 2))
        u = a.conjugate()
        assert u.upper
        assert u.enclosure_to_width(Fraction(1, 10 ** 9)).contains(Fraction(5, 6))

    def test_refinement_shrinks_monotonically(self):
        a = AlgebraicAngle((-2, 0, 1), Fraction(0), Fraction(2))
        w0 = a.enclosure(64).width
        b = a.refine_x(Fraction(1, 2 ** 10))
        assert b.enclosure(64).width < w0
        assert b.enclosure(64).contains(Fraction(1, 8))  # acos(sqrt2/2)/2pi
        assert b.x_hi - b.x_lo <= Fraction(1, 2 ** 10)
        assert (a.x_lo, a.x_hi) == (0, 2)  # the refined copy is a new value

    @pytest.mark.parametrize("width", [Fraction(1, 10 ** 18),
                                       Fraction(1, 10 ** 100)],
                             ids=["1e-18", "1e-100"])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_root_near_cos_half_endpoint(self, sign, width):
        # x = sign * (2 - 2^-100): arccos(x/2) would lose half the bits
        # there, and the isolating box starts out touching +-2
        x = sign * (2 - Fraction(1, 2 ** 100))
        lo, hi = sorted((sign * Fraction(1), sign * Fraction(2)))
        a = AlgebraicAngle((-x.numerator, x.denominator), lo, hi)
        enc = a.enclosure_to_width(width)
        with mpmath.workprec(600):
            ref = mpf_to_fraction(
                mpmath.acos(mpmath.mpf(x.numerator) / (2 * x.denominator))
                / (2 * mpmath.pi))
        tol = Fraction(1, 2 ** 500)
        assert enc.width <= width
        assert enc.lo - tol <= ref <= enc.hi + tol

    @pytest.mark.parametrize("digits", [0, 12, 40])
    def test_format_jumps_reflects_the_conjugate(self, digits, monkeypatch):
        # each conjugate prints what its own enclosure_to_width gives it,
        # though only the angles in (0, 1/2) are enclosed
        low = [AlgebraicAngle((-2, 0, 1), Fraction(1), Fraction(3, 2)),
               AlgebraicAngle((-1, 1), Fraction(1, 2), Fraction(3, 2)),
               AlgebraicAngle((-3, 0, 1), Fraction(-2), Fraction(-3, 2))]
        width = Fraction(1, 10 ** (digits + 2))
        want = [format_decimal(a.enclosure_to_width(width).mid, digits)
                for a in low + [a.conjugate() for a in reversed(low)]]
        calls = []
        enclose = AlgebraicAngle.enclosure_to_width

        def counting(self, w):
            calls.append(self)
            return enclose(self, w)

        monkeypatch.setattr(AlgebraicAngle, "enclosure_to_width", counting)
        assert format_jumps(low, digits) == want
        assert calls == low

    def test_value_semantics(self):
        # equal and hashed by all five fields, as a frozen dataclass was
        a = AlgebraicAngle([-1, 1], 0.5, 1.5)
        b = AlgebraicAngle((-1, 1), Fraction(1, 2), Fraction(3, 2), False, None)
        assert a == b and hash(a) == hash(b) and a.poly == (-1, 1)
        assert a != a.conjugate() and a.conjugate().conjugate() == a
        assert a != AlgebraicAngle((-1, 1), Fraction(1, 2), Fraction(3, 2),
                                   theta=Fraction(1, 6))
        assert a != (a.poly, a.x_lo, a.x_hi, a.upper, a.theta)
        assert repr(a.conjugate()) == (
            "AlgebraicAngle(1-acos(x/2)/2pi, x - 1, x in (1/2, 3/2))")

    def test_immutable(self):
        a = AlgebraicAngle((-1, 1), Fraction(1, 2), Fraction(3, 2))
        with pytest.raises(AttributeError):
            a.x_lo = Fraction(0)
        a.enclosure_to_width(Fraction(1, 10 ** 30))
        assert (a.x_lo, a.x_hi) == (Fraction(1, 2), Fraction(3, 2))


class TestFormatDecimal:
    def test_fixed_point(self):
        assert format_decimal(Fraction(1, 6), 12) == "0.166666666667"
        assert format_decimal(Fraction(-4, 3), 6) == "-1.333333"
        assert format_decimal(Fraction(5), 3) == "5.000"
        assert format_decimal(Fraction(5, 2), 0) == "3"

    def test_bounds_round_outward(self):
        assert format_bound(Fraction(-4, 3), 6, up=False) == "-1.333334"
        assert format_bound(Fraction(-4, 3), 6, up=True) == "-1.333333"
        assert format_bound(Fraction(5, 2), 0, up=False) == "2"
        assert format_bound(Fraction(5, 2), 0, up=True) == "3"
        # no "-0": a bound rounded up to zero prints as zero
        assert format_bound(Fraction(-1, 10 ** 7), 3, up=True) == "0.000"
        assert format_bound(Fraction(-1, 10 ** 7), 3, up=False) == "-0.001"
        for up in (False, True):
            assert format_bound(Fraction(-12, 5), 12, up) == "-2.400000000000"
        rng = random.Random(4)
        for _ in range(300):
            v = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4))
            d = rng.randint(0, 8)
            lo, hi = format_bound(v, d, up=False), format_bound(v, d, up=True)
            assert Fraction(lo) <= v <= Fraction(hi)
            assert Fraction(hi) - Fraction(lo) <= Fraction(1, 10 ** d)

    def test_deterministic(self):
        vals = [Fraction(1, 3), Fraction(22, 7), Fraction(-9, 8)]
        out1 = [format_decimal(v, 12) for v in vals]
        out2 = [format_decimal(v, 12) for v in vals]
        assert out1 == out2
