"""Exact computation of knot invariants organized around Seifert forms.

The package has three layers:

* an exact arithmetic kernel (integer/Laurent polynomials, Sturm root
  isolation, signatures by exact Bareiss elimination over Z[i], rational
  enclosures only for jump angles off the roots of unity),
* knot-level invariants (Alexander polynomial, Arf, Levine-Tristram
  signature function, the rho(0) circle integral summed by parts over
  the jumps, with exact rational ends),
* combinatorial calculi (uni-trivalent diagram algebra graded by grope
  degree, grope trees and commutator brackets).
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExceededError,
    InputError,
    KnotbenchError,
    PossiblySingularError,
    PreconditionError,
)

__all__ = [
    "BudgetExceededError",
    "InputError",
    "KnotbenchError",
    "PossiblySingularError",
    "PreconditionError",
    "__version__",
]
