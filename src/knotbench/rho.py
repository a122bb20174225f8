"""The integral of the twisted signature function over the circle.

rho0 is the integral of the Levine-Tristram signature over the unit
circle with the circle normalized to measure 1 (theta in [0, 1)); with
that convention the right-handed trefoil integrates to -4/3.  The value
is returned both as a certified rational enclosure of requested width and
as the exact symbolic step sum (arc value times arc length), so callers
can re-refine without recomputing the signature function.

rho0 changes sign under mirror image, adds under connected sum and is
bounded by 2g in absolute value; the tests check these identities on the
enclosures, and nothing here re-checks them at run time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .intervals import (
    AlgebraicAngle,
    IntervalReal,
    enclose_angles,
    format_decimal,
)
from .invariants import SignatureStepFunction, signature_function
from .seifert import SeifertMatrix

MEASURE = "normalized_1"


@dataclass(frozen=True)
class RhoResult:
    """Certified enclosure of rho0 plus its exact step-sum form."""

    value: IntervalReal
    exact_form: tuple  # ((sigma, theta_lo, theta_hi), ...) endpoints exact or algebraic
    precision: Fraction
    measure: str = MEASURE

    def reevaluate(self, precision: Fraction) -> IntervalReal:
        """Re-sum the exact form with endpoint enclosures of a new width."""
        return _sum_arcs(self.exact_form, Fraction(precision))

    def to_json_dict(self, digits: int = 12) -> dict:
        enc = _enclosures(self.exact_form, Fraction(1, 10 ** (digits + 2)))
        arcs = []
        for sigma, lo, hi in self.exact_form:
            arcs.append({
                "sigma": sigma,
                "theta_lo": format_decimal(enc[lo].mid, digits),
                "theta_hi": format_decimal(enc[hi].mid, digits),
            })
        return {
            "rho0": {
                "lo": format_decimal(self.value.lo, digits),
                "hi": format_decimal(self.value.hi, digits),
            },
            "arcs": arcs,
            "measure": self.measure,
        }


def _enclosures(exact_form, width: Fraction) -> dict:
    """One enclosure of width at most ``width`` per distinct arc endpoint;
    a jump angle ends one arc and starts the next, and is enclosed once,
    together with its conjugate."""
    ends = dict.fromkeys(e for _, lo, hi in exact_form for e in (lo, hi))
    enc = enclose_angles(
        [e for e in ends if isinstance(e, AlgebraicAngle)], width)
    for e in ends:
        if not isinstance(e, AlgebraicAngle):
            enc[e] = IntervalReal.exact(e)
    return enc


def _sum_arcs(exact_form, precision: Fraction) -> IntervalReal:
    nonzero = [item for item in exact_form if item[0] != 0]
    if not nonzero:
        return IntervalReal.exact(0)
    weight = sum(2 * abs(sigma) for sigma, _, _ in nonzero)
    enc = _enclosures(nonzero, precision / weight)
    total = IntervalReal.exact(0)
    for sigma, lo, hi in nonzero:
        total = total + (enc[hi] - enc[lo]) * sigma
    return total


def rho0_from_step_function(sf: SignatureStepFunction,
                            precision: Fraction) -> RhoResult:
    precision = Fraction(precision)
    if precision <= 0:
        raise InputError("precision must be positive")
    endpoints: list = [Fraction(0)] + list(sf.jumps) + [Fraction(1)]
    exact_form = tuple(
        (sf.values[k], endpoints[k], endpoints[k + 1])
        for k in range(len(sf.values)))
    value = _sum_arcs(exact_form, precision)
    return RhoResult(value, exact_form, precision)


def rho0(v: SeifertMatrix, precision: Fraction = Fraction(1, 10 ** 6)) -> RhoResult:
    """Certified enclosure of the circle integral of the signature function."""
    return rho0_from_step_function(signature_function(v), precision)
