"""Certified enclosures of jump angles, with exact rational endpoints.

``IntervalReal`` only holds an enclosure [lo, hi] of ``Fraction``s and
does no arithmetic.  A jump angle at a root of unity, theta = k/n, is
rational and carries its exact value, which
``AlgebraicAngle.enclosure_to_width`` returns as a point (1 - theta for
the conjugate), so rho0 sums and rendered cyclotomic jumps never call
mpmath.  Only the other jump angles, and cos at a given theta, are
enclosed by mpmath's interval context, and the enclosures are converted
back to exact rationals (binary floats are rationals, so the conversion
loses nothing).  Such a jump angle theta = arccos(x/2) / (2 pi) is never
taken through arccos: it is the half-angle form
atan2(sqrt(2 - x), sqrt(2 + x)) / pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from mpmath import iv

from .errors import InputError, PreconditionError
from .polynomials import poly_to_str, refine_isolating_interval

_ZERO = Fraction(0)
_GUARD_BITS = 32


def _raw_mpf_to_fraction(raw) -> Fraction:
    sign, man, exp, _ = raw
    if man == 0 and exp != 0:
        raise PreconditionError("non-finite interval endpoint")
    v = Fraction(int(man)) * Fraction(2) ** int(exp)
    return -v if sign else v


def _fraction_to_iv(fr: Fraction):
    # exact integer endpoints, then one certified division
    return iv.mpf(fr.numerator) / iv.mpf(fr.denominator)


@dataclass(frozen=True)
class IntervalReal:
    """Closed interval [lo, hi] guaranteed to contain the represented real.

    lo > hi raises PreconditionError."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise PreconditionError("interval endpoints out of order")

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

    def intersects(self, o: "IntervalReal") -> bool:
        return self.lo <= o.hi and o.lo <= self.hi

    def __str__(self):
        return f"[{self.lo}, {self.hi}]"


def _iv_to_interval(x) -> IntervalReal:
    a, b = x._mpi_
    return IntervalReal(_raw_mpf_to_fraction(a), _raw_mpf_to_fraction(b))


def cos_2pi(theta: Fraction, prec_bits: int = 64) -> IntervalReal:
    """Certified enclosure of cos(2*pi*theta)."""
    old = iv.prec
    try:
        iv.prec = prec_bits
        val = iv.cos(2 * iv.pi * _fraction_to_iv(Fraction(theta)))
    finally:
        iv.prec = old
    return _iv_to_interval(val)


def angle_from_cos_half(x: IntervalReal, prec_bits: int = 64) -> IntervalReal:
    """Enclosure of arccos(x/2) / (2*pi) for an enclosure x of a value in
    [-2, 2]; the result lies in [0, 1/2].

    As 2 - x = 4 sin^2(pi theta) and 2 + x = 4 cos^2(pi theta), theta is
    atan2(sqrt(2 - x), sqrt(2 + x)) / pi.  The differences 2 -+ x are exact
    rationals, so nothing cancels near x = +-2.
    """
    lo = max(x.lo, Fraction(-2))
    hi = min(x.hi, Fraction(2))
    old = iv.prec
    try:
        iv.prec = prec_bits
        s = iv.mpf([_fraction_to_iv(2 - hi).a, _fraction_to_iv(2 - lo).b])
        c = iv.mpf([_fraction_to_iv(2 + lo).a, _fraction_to_iv(2 + hi).b])
        val = iv.atan2(iv.sqrt(s), iv.sqrt(c)) / iv.pi
    finally:
        iv.prec = old
    out = _iv_to_interval(val)
    # theta lies in [0, 1/2]; trim rounding spill
    return IntervalReal(max(out.lo, _ZERO), min(out.hi, Fraction(1, 2)))


@dataclass(frozen=True, slots=True)
class AlgebraicAngle:
    """An angle theta in (0, 1) with x = 2*cos(2*pi*theta) algebraic.

    The angle is stored as a squarefree integer polynomial with a rational
    isolating interval for x in (-2, 2), plus a flag selecting theta (the
    branch in (0, 1/2)) or its conjugate 1 - theta.  ``theta``, when
    given, is the exact value of the branch in (0, 1/2), a rational k/n
    for a root of unity; the flag applies to it as to the box, so
    ``conjugate`` keeps it correct.  Values are immutable: refinement
    returns a new angle.
    """

    poly: tuple
    x_lo: Fraction
    x_hi: Fraction
    upper: bool = False
    theta: Optional[Fraction] = None

    def __post_init__(self):
        object.__setattr__(self, "poly", tuple(self.poly))
        object.__setattr__(self, "x_lo", Fraction(self.x_lo))
        object.__setattr__(self, "x_hi", Fraction(self.x_hi))
        if self.theta is not None:
            object.__setattr__(self, "theta", Fraction(self.theta))

    def conjugate(self) -> "AlgebraicAngle":
        return replace(self, upper=not self.upper)

    def refine_x(self, width: Fraction) -> "AlgebraicAngle":
        """The same angle with an x-interval of width at most ``width``."""
        lo, hi = refine_isolating_interval(
            self.poly, self.x_lo, self.x_hi, Fraction(width))
        return replace(self, x_lo=lo, x_hi=hi)

    def enclosure(self, prec_bits: int = 64) -> IntervalReal:
        """Certified enclosure of theta from the stored x-interval."""
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
        order 2^-32 width.  An angle with an exact ``theta`` is returned
        as the point theta, or 1 - theta for the conjugate, with no
        enclosure.  A width <= 0 raises InputError.
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
        return (f"AlgebraicAngle({branch}(x/2)/2pi, {poly_to_str(self.poly)},"
                f" x in ({self.x_lo}, {self.x_hi}))")


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
