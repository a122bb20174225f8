"""Exception hierarchy shared by all modules, the input readers that
raise it (integer entries, UTF-8 files and JSON text), and the base of
the records that validate their fields."""


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


def as_integer(v, what: str) -> int:
    """v as an int; bools, floats and strings are refused, not truncated."""
    if type(v) is int:  # first, as every letter of a FreeWord product is one
        return v
    import operator

    if isinstance(v, bool) or not hasattr(type(v), "__index__"):
        raise InputError(f"{what} {v!r} is not an integer")
    return operator.index(v)


def read_text(path: str) -> str:
    """The UTF-8 text of a file; bytes that do not decode are an InputError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise InputError(f"{path}: not UTF-8 text: {e.reason}"
                             f" at byte {e.start}") from None


def parse_json(text: str, where: str):
    """``json.loads`` of ``text``.  Malformed JSON, and an integer past the
    interpreter's int-to-str limit, which ``json.loads`` reports as a
    plain ValueError, raise InputError naming ``where``."""
    import json

    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"{where}:{e.lineno}: {e.msg}") from None
    except ValueError as e:
        raise InputError(f"{where}: {e}") from None


def record(typename: str, fields: str) -> type:
    """A named-tuple base for a record class whose ``__new__`` validates.
    Its ``_make``, which ``_replace`` calls, builds through ``cls(*items)``
    and so through those checks; the named tuple's own ``_make`` calls
    ``tuple.__new__`` and would skip them."""
    from collections import namedtuple

    base = namedtuple(typename, fields)
    base._make = classmethod(lambda cls, items: cls(*items))
    return base
