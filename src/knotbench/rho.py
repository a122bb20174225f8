"""The integral of the twisted signature function over the circle.

rho0 is the integral of the Levine-Tristram signature over the unit
circle with the circle normalized to measure 1 (theta in [0, 1)); with
that convention the right-handed trefoil integrates to -4/3.  It is
summed by parts over the jumps theta_j in (0, 1/2), of integer sizes c_j,
as rho0 = sigma_0 + sum_j c_j (1 - 2 theta_j) for sigma_0 the value next
to theta = 0; the ends of the certified enclosure of requested width are
exact rationals.  The result also holds the step function it integrates,
so a caller can sum again at another width with
``rho0_from_step_function`` without recomputing the signature function.
A jump at a root of unity has an exact rational angle k/n and adds no
width, so rho0 of a knot whose jumps are all cyclotomic, a torus knot for
one, is an exact rational; only the other jumps are enclosed.  The JSON
report prints the enclosure rounded outward at the requested digits, so
the printed pair still contains rho0.

rho0 changes sign under mirror image, adds under connected sum and is
bounded by 2g in absolute value; the tests check these identities on the
enclosures, and nothing here re-checks them at run time.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import InputError
from .intervals import (IntervalReal, format_bound, format_decimal,
                        format_jumps)
from .invariants import SignatureStepFunction, signature_function
from .seifert import SeifertMatrix

MEASURE = "normalized_1"


class RhoResult(namedtuple("RhoResult", "value step_function")):
    """Certified enclosure of rho0 and the step function it integrates."""

    __slots__ = ()

    def to_json_dict(self, digits: int = 12) -> dict:
        sf = self.step_function
        ends = ([format_decimal(0, digits)] + format_jumps(sf.low, digits)
                + [format_decimal(1, digits)])
        return {
            "rho0": {
                "lo": format_bound(self.value.lo, digits, up=False),
                "hi": format_bound(self.value.hi, digits, up=True),
            },
            "arcs": [{"sigma": sigma, "theta_lo": ends[k],
                      "theta_hi": ends[k + 1]}
                     for k, sigma in enumerate(sf.values)],
            "measure": MEASURE,
        }


def rho0_from_step_function(sf: SignatureStepFunction,
                            precision: Fraction) -> RhoResult:
    """Certified enclosure of width at most ``precision`` of the integral
    of ``sf``, summed by parts over the jumps in (0, 1/2).

    Let sigma_0 be the value next to theta = 0 and c_j the integer jump
    sigma(theta_j+) - sigma(theta_j-).  sigma(theta) is sigma_0 plus the
    c_j of the jumps below theta, so its integral over [0, 1) is
    sigma_0 + sum_j c_j (1 - theta_j) over all jumps.  As
    sigma(theta) = sigma(1 - theta), the jump at the mirror 1 - theta_j
    of theta_j in (0, 1/2) is -c_j, and the pair adds
    c_j (1 - theta_j) - c_j theta_j: rho0 = sigma_0 + sum of
    c_j (1 - 2 theta_j) over the theta_j in (0, 1/2).

    Each such theta_j with c_j != 0 is enclosed once, to
    w = precision / (2 sum_j |c_j|); its term spreads by at most 2|c_j| w,
    the sum by at most precision, and an exact angle adds nothing.
    w >= precision / W for W the sum of 2|sigma_k| over all 2n + 1 arcs:
    W = 4 sum_(k<n) |sigma_k| + 2|sigma_n|, as arc n holds theta = 1/2 and
    the others mirror in pairs, and |c_j| <= |sigma_j| + |sigma_(j+1)|
    gives 2 sum_j |c_j| <= 2|sigma_0| + 4 sum_(0<k<n) |sigma_k| + 2|sigma_n|
    <= W.
    """
    precision = Fraction(precision)
    if precision <= 0:
        raise InputError("precision must be positive")
    half = sf.half
    steps = [(a, half[j + 1] - half[j]) for j, a in enumerate(sf.low)
             if half[j + 1] != half[j]]
    lo = hi = Fraction(half[0])
    if steps:
        width = precision / (2 * sum(abs(c) for _, c in steps))
        for a, c in steps:
            e = a.enclosure_to_width(width)
            # c (1 - 2 theta) decreases in theta when c > 0
            least, most = (e.hi, e.lo) if c > 0 else (e.lo, e.hi)
            lo += c * (1 - 2 * least)
            hi += c * (1 - 2 * most)
    return RhoResult(IntervalReal(lo, hi), sf)


def rho0(v: SeifertMatrix, precision: Fraction = Fraction(1, 10 ** 6)) -> RhoResult:
    """Certified enclosure of the circle integral of the signature function."""
    return rho0_from_step_function(signature_function(v), precision)
