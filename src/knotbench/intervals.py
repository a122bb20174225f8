"""Certified enclosures of jump angles, with exact rational endpoints.

``IntervalReal`` only holds an enclosure [lo, hi] of ``Fraction``s and
does no arithmetic.  A jump angle at a root of unity, theta = k/n, is
rational and is held by its exact value alone, with no x-box:
``AlgebraicAngle.enclosure`` and ``enclosure_to_width`` return it as a
point (1 - theta for the conjugate), so rho0 sums and rendered cyclotomic
jumps enclose nothing.  The two transcendental functions the package
needs, the angle theta = arccos(x/2) / (2 pi) of a jump off the roots of
unity and cos(2 pi theta) at a given rational theta, are computed in
integer fixed point at w bits: each kernel computes an integer A and a
bound E with |A - 2^w f| < E, proved in its docstring, and the enclosure
is widened by exactly E before it is rounded outward to a multiple of
2^-w.  Such a jump angle is never taken through arccos: it is the
half-angle form atan(sqrt((2 - x)/(2 + x))) / pi, whose argument is an
exact rational.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InputError, PreconditionError
from .polynomials import poly_to_str, refine_isolating_interval

_GUARD_BITS = 32
# the kernels asked for prec_bits work at w = prec_bits + _EXTRA_BITS, so
# their error bounds, a few times w ulps, stay below 2^-prec_bits
_EXTRA_BITS = 16
_PI = {}  # w -> _pi(w), a pure function of w


class IntervalReal:
    """Closed interval [lo, hi] guaranteed to contain the represented real.

    lo > hi raises PreconditionError.  Immutable: the ends are read-only
    properties.  Not a named tuple, so that no interval equals a bare pair."""

    __slots__ = ("_lo", "_hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if lo > hi:
            raise PreconditionError("interval endpoints out of order")
        self._lo = lo
        self._hi = hi

    @property
    def lo(self) -> Fraction:
        return self._lo

    @property
    def hi(self) -> Fraction:
        return self._hi

    @classmethod
    def exact(cls, v) -> "IntervalReal":
        v = Fraction(v)
        return cls(v, v)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, v) -> bool:
        v = Fraction(v)
        return self.lo <= v <= self.hi

    def __eq__(self, o):
        if o.__class__ is not self.__class__:
            return NotImplemented
        return (self._lo, self._hi) == (o._lo, o._hi)

    def __hash__(self):
        return hash((self._lo, self._hi))

    def __repr__(self):
        return f"IntervalReal(lo={self.lo!r}, hi={self.hi!r})"

    def __str__(self):
        return f"[{self.lo}, {self.hi}]"


def _pi(w: int) -> tuple:
    """(S, E) with |S - 2^w pi| < E, from Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239); cached per w.

    atan(1/n) is the alternating series of the decreasing terms
    1 / ((2k + 1) n^(2k+1)).  p_k = floor(2^w / n^(2k+1)) is exact, as
    p_(k+1) = p_k // n^2 and floor(floor(a) / b) = floor(a / b) for an
    integer b > 0; so each summed term floor(p_k / (2k + 1)) is below
    2^w / ((2k + 1) n^(2k+1)) by less than 1.  The sum stops at the first
    p_k = 0, where 2^w / n^(2k+1) < 1, and the omitted tail is below its
    first term, so less than 1.  With N terms summed the sum A_n is within
    N + 1 of 2^w atan(1/n), and S = 16 A_5 - 4 A_239 within
    E = 16 (N_5 + 1) + 4 (N_239 + 1) of 2^w pi.
    """
    got = _PI.get(w)
    if got is None:
        s = e = 0
        for n, m in ((5, 16), (239, -4)):
            p, k, a = (1 << w) // n, 0, 0
            while p:
                t = p // (2 * k + 1)
                a += -t if k & 1 else t
                p //= n * n
                k += 1
            s += m * a
            e += abs(m) * (k + 1)
        got = _PI[w] = (s, e)
    return got


def _atan(y: int, w: int) -> tuple:
    """(A, E) with |A - 2^w atan(y / 2^w)| < E, for 0 <= y <= 2^w.

    *Half-angle steps.* While y > 2^(w-4), y becomes
    y' = floor(2^w y / (2^w + r)) for r = isqrt(y^2 + 4^w): as
    tan(a/2) = tan(a) / (1 + sqrt(1 + tan(a)^2)), atan(y'/2^w) is half of
    atan(y/2^w) up to rounding.  r = floor(s) for s = 2^w sqrt(1 + y^2/4^w),
    so the exact 2^w y / (2^w + s) lies below 2^w y / (2^w + r) by at most
    2^w y (s - r) / (2^w + r)^2 < 2^(2w) / 2^(2w+2) = 1/4 (y <= 2^w and
    r >= 2^w), and the floor takes off less than 1: y' is within 1 ulp
    of its exact value, and atan, being 1-Lipschitz, moves by less than
    1 ulp.  Each step at least halves y, so k <= 4 steps reach
    y <= 2^(w-4).  Writing e_i for step i's error in angle,
    2^k atan(y_k) = atan(y_0) + sum over i < k of 2^(i+1) e_i, which
    is within 2^(k+1) - 2 ulps.

    *Series.* With z = y_k / 2^w <= 1/16, atan z is the alternating sum
    of the decreasing terms z^(2j+1) / (2j + 1).  q = floor(y_k^2 / 2^w)
    is below 2^w z^2 by less than 1, and the powers
    p_(j+1) = floor(p_j q / 2^w), p_0 = y_k, fall short of 2^w z^(2j+1)
    by u_j with u_0 = 0 and u_(j+1) < u_j z^2 + z^(2j+1) + 1
    <= u_j / 256 + 1/16 + 1, so u_j < 1.07.  Each summed term
    floor(p_j / (2j + 1)), j >= 1, is then within 1.07/3 + 1 < 2 ulps
    of its exact value, and the term j = 0 is exact.  The sum stops at
    the first p_m = 0, where the exact 2^w z^(2m+1) < 1.07 and the
    omitted tail is below 1.07 / (2m + 1) < 1 ulp.  With n terms j >= 1
    summed the series is within 2n + 1 ulps of 2^w atan z, and 2^k times
    it within 2^k (2n + 1) + 2^(k+1) - 2 = 2^k (2n + 3) - 2 of
    2^w atan(y_0 / 2^w).
    """
    one = 1 << w
    k = 0
    while y > one >> 4:
        y = (y << w) // (one + math.isqrt(y * y + (one << w)))
        k += 1
    q = (y * y) >> w
    s = p = y
    n = 0
    while True:
        p = (p * q) >> w
        if not p:
            break
        n += 1
        t = p // (2 * n + 1)
        s += -t if n & 1 else t
    return s << k, ((2 * n + 3) << k) - 2


def _theta_bound(x: Fraction, w: int, up: bool) -> int:
    """An integer bound on 2^w theta(x), theta(x) = arccos(x/2) / (2 pi),
    from below (``up`` false) or above, for a rational x clipped to
    [-2, 2].

    With x = a/b, the ratio s/c of s = 2b - a = 4b sin^2(pi theta) and
    c = 2b + a = 4b cos^2(pi theta), each clipped at 0, is exact and
    theta = atan(sqrt(s/c)) / pi.  For s > c they swap and
    theta = 1/2 - atan(sqrt(c/s)) / pi, so the root is at most 1.  It is
    isqrt(floor(4^w s/c)) = floor(2^w sqrt(s/c)), plus 1 where it is
    inexact and the bound needs atan from above, which it does when
    exactly one of ``up`` and the swap holds.  atan increases, so atan of
    the rounded root, less or plus E of ``_atan``, bounds atan(sqrt(s/c))
    on the needed side; dividing by pi's upper end S + E_pi or lower end
    S - E_pi (of ``_pi``), rounded down or up, keeps that side.
    """
    a, b = x.numerator, x.denominator
    s, c = max(2 * b - a, 0), max(2 * b + a, 0)
    swap = s > c
    if swap:
        s, c = c, s
    above = up != swap
    y = math.isqrt((s << 2 * w) // c)
    if above and y * y * c != s << 2 * w:
        y += 1
    at, err = _atan(y, w)
    pi, pi_err = _pi(w)
    if above:
        q = -((-(at + err) << w) // (pi - pi_err))
    else:
        q = ((at - err) << w) // (pi + pi_err)
    return (1 << w - 1) - q if swap else q


def angle_from_cos_half(x: IntervalReal, prec_bits: int = 64) -> IntervalReal:
    """Enclosure of arccos(x/2) / (2*pi) for an enclosure x of a value in
    [-2, 2]; the result lies in [0, 1/2].

    theta decreases in x, so its lower end is bounded at x.hi and its
    upper end at x.lo, by ``_theta_bound`` at w = prec_bits + 16 bits;
    the ends are multiples of 2^-w.  At a point x each end lies within
    about (2E + 1)/pi + E_pi / (2 pi) + 1 ulps of theta, for E of
    ``_atan`` (at most 4w + 46, as k <= 4 and n <= w/8) and E_pi of
    ``_pi`` (about 3.7w + 40): rounding the root moves atan by at most
    1 ulp, E counts twice, and pi's error moves atan/pi <= 1/4 by at most
    E_pi / (2 pi) ulps.  So the enclosure of a point is narrower than
    2^-prec_bits while prec_bits is below about 8000.
    """
    w = prec_bits + _EXTRA_BITS
    half = 1 << w - 1
    lo = _theta_bound(x.hi, w, up=False)
    hi = _theta_bound(x.lo, w, up=True)
    return IntervalReal(Fraction(max(lo, 0), 1 << w),
                        Fraction(min(hi, half), 1 << w))


def cos_2pi(theta: Fraction, prec_bits: int = 64) -> IntervalReal:
    """Certified enclosure of cos(2*pi*theta), at w = prec_bits + 16 bits.

    *Reduction.* theta is reduced exactly to t in [0, 1/8]: modulo 1, then
    by cos(2 pi theta) = cos(2 pi (1 - theta)) = -cos(2 pi (1/2 - theta))
    = sin(2 pi (1/4 - theta)) as needed.  u = floor(2 t S), for (S, E_pi)
    of ``_pi``, is within 2t E_pi + 1 <= E_pi/4 + 1 ulps of 2^w 2 pi t,
    which moves cos and sin (1-Lipschitz) by as much.

    *Series.* At a = u / 2^w <= 0.8 the terms a^d / d! of the cos (d even)
    or sin (d odd) series alternate, and each is at most
    a^2 / ((d + 1)(d + 2)) <= 0.32 times the one before.  The code takes
    T' = floor(T q / (2^w (d + 1)(d + 2))), q = floor(u^2 / 2^w), from an
    exact first term 2^w or u.  With exact terms t_j <= 2^w, the shortfall
    v_j = t_j - T_j >= 0 obeys v_(j+1) < 0.32 v_j + 0.5 + 1 (flooring q
    costs at most t_j / (2 2^w), the quotient less than 1), so v_j < 2.21.
    The sum stops at the first T_m = 0, where t_m < 2.21 bounds the
    omitted tail.  With n terms summed after the first the series is
    within 2.21 (n + 1) < 3 (n + 1) ulps of its exact value, and the
    enclosure is widened by 3 (n + 1) + E_pi // 4 + 2 ulps in all.
    """
    w = prec_bits + _EXTRA_BITS
    one = 1 << w
    t = Fraction(theta) % 1
    if 2 * t > 1:
        t = 1 - t
    neg = 4 * t > 1
    if neg:
        t = Fraction(1, 2) - t
    sine = 8 * t > 1
    if sine:
        t = Fraction(1, 4) - t
    pi, pi_err = _pi(w)
    u = (2 * pi * t.numerator) // t.denominator
    q = (u * u) >> w
    term = total = u if sine else one
    d = 1 if sine else 0
    n = 0
    while True:
        term = (term * q >> w) // ((d + 1) * (d + 2))
        if not term:
            break
        d += 2
        n += 1
        total += -term if n & 1 else term
    err = 3 * (n + 1) + pi_err // 4 + 2
    if neg:
        total = -total
    return IntervalReal(Fraction(max(total - err, -one), one),
                        Fraction(min(total + err, one), one))


class AlgebraicAngle:
    """An angle theta in (0, 1) with x = 2*cos(2*pi*theta) algebraic.

    The angle is stored as a squarefree integer polynomial with a root x in
    (-2, 2), plus a flag selecting theta (the branch in (0, 1/2)) or its
    conjugate 1 - theta.  At a root of unity the root is named by
    ``theta``, the exact value k/n of the branch in (0, 1/2), and the angle
    is (poly, theta, branch) alone: ``x_lo`` and ``x_hi`` are None, and a
    box passed with ``theta`` is not kept.  Otherwise it is named by a
    rational isolating interval (x_lo, x_hi) of x in (-2, 2).  An angle
    with neither raises PreconditionError.  Values are immutable: the
    fields are read-only properties, and refinement returns a new angle.
    Not a named tuple, so that no angle equals the bare tuple of its fields.
    """

    __slots__ = ("_key",)

    def __init__(self, poly, x_lo=None, x_hi=None, upper: bool = False,
                 theta: Fraction | None = None):
        if theta is not None:
            self._key = (tuple(poly), None, None, upper, Fraction(theta))
        elif x_lo is None or x_hi is None:
            raise PreconditionError(
                "an angle needs an x-box or an exact theta")
        else:
            self._key = (tuple(poly), Fraction(x_lo), Fraction(x_hi), upper,
                         None)

    @property
    def poly(self) -> tuple:
        return self._key[0]

    @property
    def x_lo(self) -> Fraction | None:
        return self._key[1]

    @property
    def x_hi(self) -> Fraction | None:
        return self._key[2]

    @property
    def upper(self) -> bool:
        return self._key[3]

    @property
    def theta(self) -> Fraction | None:
        return self._key[4]

    def __eq__(self, o):
        if o.__class__ is not self.__class__:
            return NotImplemented
        return self._key == o._key

    def __hash__(self):
        return hash(self._key)

    def conjugate(self) -> "AlgebraicAngle":
        return AlgebraicAngle(self.poly, self.x_lo, self.x_hi,
                              not self.upper, self.theta)

    def refine_x(self, width: Fraction) -> "AlgebraicAngle":
        """The same angle with an x-interval of width at most ``width``;
        an exact angle, which has none, raises PreconditionError."""
        if self.theta is not None:
            raise PreconditionError("an exact angle has no x-box to refine")
        lo, hi = refine_isolating_interval(
            self.poly, self.x_lo, self.x_hi, Fraction(width))
        return AlgebraicAngle(self.poly, lo, hi, self.upper)

    def enclosure(self, prec_bits: int = 64) -> IntervalReal:
        """Certified enclosure of theta from the stored x-interval; the
        exact point for an exact angle."""
        if self.theta is not None:
            return IntervalReal.exact(1 - self.theta if self.upper
                                      else self.theta)
        base = angle_from_cos_half(
            IntervalReal(self.x_lo, self.x_hi), prec_bits)
        if self.upper:
            return IntervalReal(1 - base.hi, 1 - base.lo)
        return base

    def enclosure_to_width(self, width: Fraction) -> IntervalReal:
        """Certified enclosure of theta of width at most ``width``.

        On an x-box with m = max |x| < 2 the slope |d theta / dx| =
        1/(2 pi sqrt(4 - x^2)) is at most 1/(2 pi sqrt(2 (2 - m))), hence at
        most 1/(6 (2 - m)) as 2 - m <= 2 < 8 pi^2 / 36.  So x is refined
        once, to width 3 (2 - m) width, which spreads theta by at most
        width / 2; a box touching +-2 is halved first until it does not.
        One enclosure at about log2(1/width) + 32 bits then adds rounding of
        order 2^-32 width.  An exact angle is returned as its point, with
        no enclosure.  A width <= 0 raises InputError.
        """
        width = Fraction(width)
        if width <= 0:
            raise InputError("width must be positive")
        if self.theta is not None:
            return IntervalReal.exact(1 - self.theta if self.upper
                                      else self.theta)
        angle = self
        while max(-angle.x_lo, angle.x_hi) >= 2:
            angle = angle.refine_x((angle.x_hi - angle.x_lo) / 2)
        m = max(-angle.x_lo, angle.x_hi)
        angle = angle.refine_x(3 * (2 - m) * width)
        # bit_length of 1/width rounded down is about log2(1/width)
        need = (width.denominator // width.numerator).bit_length()
        return angle.enclosure(need + _GUARD_BITS)

    def __repr__(self):
        branch = "1-acos" if self.upper else "acos"
        where = (f"x in ({self.x_lo}, {self.x_hi})" if self.theta is None
                 else f"theta={self.theta}")
        return (f"AlgebraicAngle({branch}(x/2)/2pi, {poly_to_str(self.poly)},"
                f" {where})")


def format_jumps(low, digits: int) -> list:
    """The angles ``low`` in (0, 1/2), then their conjugates in reverse,
    with ``digits`` decimal digits: each theta of ``low`` as the midpoint m
    of its enclosure to width 10^-(digits+2), its value if exact, and
    1 - theta as 1 - m, the midpoint of the enclosure [1 - hi, 1 - lo]
    that ``enclosure_to_width`` gives 1 - theta.  The width depends on
    ``digits`` alone, so an angle prints the same wherever it is printed."""
    width = Fraction(1, 10 ** (digits + 2))
    mids = [a.enclosure_to_width(width).mid for a in low]
    return ([format_decimal(m, digits) for m in mids]
            + [format_decimal(1 - m, digits) for m in reversed(mids)])


def format_decimal(fr: Fraction, digits: int) -> str:
    """Deterministic fixed-point rendering of a rational."""
    fr = Fraction(fr)
    scaled = abs(fr) * 10 ** digits
    n = scaled.numerator // scaled.denominator
    # round half away from zero, deterministically
    if 2 * (scaled - n) >= 1:
        n += 1
    return _fixed_point("-" if fr < 0 else "", n, digits)


def format_bound(fr: Fraction, digits: int, up: bool) -> str:
    """``fr`` rendered with ``digits`` decimal digits, rounded up or down,
    so that the printed number is a bound on the same side as ``fr``."""
    scaled = Fraction(fr) * 10 ** digits
    n = math.ceil(scaled) if up else math.floor(scaled)
    return _fixed_point("-" if n < 0 else "", abs(n), digits)


def _fixed_point(sign: str, n: int, digits: int) -> str:
    """sign n / 10^digits for an integer n >= 0, with ``digits`` decimals."""
    whole, frac = divmod(n, 10 ** digits)
    if digits == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{str(frac).zfill(digits)}"
