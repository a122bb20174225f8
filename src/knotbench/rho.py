"""The integral of the twisted signature function over the circle.

rho0 is the integral of the Levine-Tristram signature over the unit
circle with the circle normalized to measure 1 (theta in [0, 1)); with
that convention the right-handed trefoil integrates to -4/3.  The value
is returned both as a certified rational enclosure of requested width and
as the exact symbolic step sum (arc value times arc length), so callers
can re-refine without recomputing the signature function.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .intervals import AlgebraicAngle, IntervalReal, format_decimal
from .invariants import SignatureStepFunction, signature_function
from .seifert import SeifertMatrix, connected_sum, mirror

MEASURE = "normalized_1"

ArcEndpoint = Union[Fraction, AlgebraicAngle]


@dataclass(frozen=True)
class RhoResult:
    """Certified enclosure of rho0 plus its exact step-sum form."""

    value: IntervalReal
    exact_form: tuple  # ((sigma, theta_lo, theta_hi), ...) endpoints exact or algebraic
    precision: Fraction
    measure: str = MEASURE

    def endpoint_enclosure(self, endpoint: ArcEndpoint,
                           width: Fraction) -> IntervalReal:
        return _enclosure(endpoint, width)

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


def _enclosure(endpoint: ArcEndpoint, width: Fraction) -> IntervalReal:
    if isinstance(endpoint, AlgebraicAngle):
        return endpoint.enclosure_to_width(width)
    return IntervalReal.exact(endpoint)


def _enclosures(exact_form, width: Fraction) -> dict:
    """One enclosure of width at most ``width`` per distinct arc endpoint;
    a jump angle ends one arc and starts the next, and is enclosed once."""
    enc: dict = {}
    for _, lo, hi in exact_form:
        for e in (lo, hi):
            if e not in enc:
                enc[e] = _enclosure(e, width)
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
        raise ValueError("precision must be positive")
    endpoints: list = [Fraction(0)] + list(sf.jumps) + [Fraction(1)]
    exact_form = tuple(
        (sf.values[k], endpoints[k], endpoints[k + 1])
        for k in range(len(sf.values)))
    value = _sum_arcs(exact_form, precision)
    return RhoResult(value, exact_form, precision)


def rho0(v: SeifertMatrix, precision: Fraction = Fraction(1, 10 ** 6)) -> RhoResult:
    """Certified enclosure of the circle integral of the signature function."""
    return rho0_from_step_function(signature_function(v), precision)


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    holds: bool
    detail: str


@dataclass(frozen=True)
class RhoPropertyReport:
    checks: tuple

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)


def rho0_properties_check(v: SeifertMatrix,
                          other: Optional[SeifertMatrix] = None,
                          precision: Fraction = Fraction(1, 10 ** 6)) -> RhoPropertyReport:
    """Certified checks of the computable rho0 identities.

    Verifies mirror antisymmetry, additivity under connected sum (against
    `other`, or against v itself), and the genus bound |rho0| <= 2g, all
    as interval statements.
    """
    precision = Fraction(precision)
    w = other if other is not None else v
    r_v = rho0(v, precision)
    r_w = rho0(w, precision) if other is not None else r_v
    r_mirror = rho0(mirror(v), precision)
    r_sum = rho0(connected_sum(v, w), 2 * precision)

    checks = []
    neg = -r_v.value
    checks.append(IdentityCheck(
        "mirror_antisymmetry",
        r_mirror.value.intersects(neg),
        f"rho0(mirror) in {r_mirror.value}, -rho0 in {neg}"))
    add = r_v.value + r_w.value
    checks.append(IdentityCheck(
        "connected_sum_additivity",
        r_sum.value.intersects(add),
        f"rho0(sum) in {r_sum.value}, rho0+rho0' in {add}"))
    bound = Fraction(2 * v.genus)
    checks.append(IdentityCheck(
        "genus_bound",
        r_v.value.lo >= -bound - precision and r_v.value.hi <= bound + precision,
        f"rho0 in {r_v.value}, bound {bound}"))
    return RhoPropertyReport(tuple(checks))
