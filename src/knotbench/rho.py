"""The integral of the twisted signature function over the circle.

rho0 is the integral of the Levine-Tristram signature over the unit
circle with the circle normalized to measure 1 (theta in [0, 1)); with
that convention the right-handed trefoil integrates to -4/3.  The result
holds a certified rational enclosure of requested width and the step
function it integrates, so a caller can sum again at another width with
``rho0_from_step_function`` without recomputing the signature function.
A jump at a root of unity has an exact rational angle k/n and adds no
width, so rho0 of a knot whose jumps are all cyclotomic, a torus knot for
one, is an exact rational; intervals enclose only the other jumps.  The
JSON report prints the enclosure rounded outward at the requested digits,
so the printed pair still contains rho0.

rho0 changes sign under mirror image, adds under connected sum and is
bounded by 2g in absolute value; the tests check these identities on the
enclosures, and nothing here re-checks them at run time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .intervals import (IntervalReal, enclose_angles, format_angles,
                        format_bound, format_decimal)
from .invariants import SignatureStepFunction, signature_function
from .seifert import SeifertMatrix

MEASURE = "normalized_1"


@dataclass(frozen=True)
class RhoResult:
    """Certified enclosure of rho0 and the step function it integrates."""

    value: IntervalReal
    step_function: SignatureStepFunction

    def to_json_dict(self, digits: int = 12) -> dict:
        sf = self.step_function
        ends = ([format_decimal(0, digits)] + format_angles(sf.jumps, digits)
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
    of ``sf``: the sum of sigma times arc length over the arcs with
    sigma != 0, in arc order.  Each of their jump angles is enclosed once,
    to precision / weight, where the weight sums 2|sigma| over those arcs;
    an exact angle is its own enclosure."""
    precision = Fraction(precision)
    if precision <= 0:
        raise InputError("precision must be positive")
    values = sf.values
    weight = sum(2 * abs(sigma) for sigma in values)
    total = IntervalReal.exact(0)
    if weight:
        # jump k ends arc k and starts arc k + 1
        enc = enclose_angles([a for k, a in enumerate(sf.jumps)
                              if values[k] or values[k + 1]],
                             precision / weight)
        ends = ([IntervalReal.exact(0)] + [enc.get(a) for a in sf.jumps]
                + [IntervalReal.exact(1)])
        for k, sigma in enumerate(values):
            if sigma:
                total = total + (ends[k + 1] - ends[k]) * sigma
    return RhoResult(total, sf)


def rho0(v: SeifertMatrix, precision: Fraction = Fraction(1, 10 ** 6)) -> RhoResult:
    """Certified enclosure of the circle integral of the signature function."""
    return rho0_from_step_function(signature_function(v), precision)
