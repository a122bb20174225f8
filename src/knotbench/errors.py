"""Exception hierarchy shared by all modules."""


class KnotbenchError(Exception):
    """Base class for all errors raised by this package."""


class InputError(KnotbenchError):
    """Malformed input text, file, or data structure."""


class PreconditionError(KnotbenchError):
    """A documented operation precondition was violated."""


class BudgetExceededError(KnotbenchError):
    """A configured budget (degree, rank, polynomial degree) ran out."""


class PossiblySingularError(KnotbenchError):
    """A signature was asked of an exactly singular form.

    Signatures are computed exactly, so this is never a matter of
    precision: for twisted signatures the evaluation point is exactly a
    root of the Alexander polynomial.
    """
