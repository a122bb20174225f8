"""Command-line front end.

Subcommands: invariants, rho, sigfn, bdim, grope, magnus, table.
JSON (sorted keys) is the canonical output; --csv switches the tabular
commands (sigfn, bdim, table) to CSV, and --digits sets the decimal
digits of rendered angles (rho, sigfn).  Exit codes: 0 success (and
--help, --version), 1 malformed input or command line, 2 precondition or
budget violation, 3 the evaluation point is exactly a root of the
Alexander polynomial ("possibly singular").

Each command imports only the modules it uses, and none needs a package
outside the standard library.  ``invariants`` and ``table`` are exact and
never load ``knotbench.intervals``; ``rho`` and ``sigfn`` load it to
render jump angles.  The package's records are named tuples, and its
other values (intervals, angles, polynomials, diagrams) plain classes, so
no command loads the data-class or type-hint modules.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import __version__
from .errors import (
    BudgetExceededError,
    InputError,
    PossiblySingularError,
    PreconditionError,
    parse_json,
    read_text,
)

EXIT_INPUT = 1
EXIT_PRECONDITION = 2
EXIT_RESOURCE = 3
# digit budget of --precision and --digits: the default int-string limit
PRECISION_DIGITS = 4300


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _report(input_echo, results):
    return {
        "tool": {"name": "knotbench", "version": __version__},
        "input": input_echo,
        "results": results,
        "warnings": [],
    }


def _digit_budget() -> int:
    """PRECISION_DIGITS, or the interpreter's int-string limit when that is
    on and lower: reports print str(f) of --precision and render --digits
    digits of an integer."""
    return min(sys.get_int_max_str_digits() or PRECISION_DIGITS,
               PRECISION_DIGITS)


def _parse_precision(text: str) -> Fraction:
    limit = _digit_budget()
    # the decimal exponent, as Fraction reads one, at the end of the text
    m = re.fullmatch(r"(.*[eE])([-+]?\d+(?:_\d+)*)(\s*)", text, re.DOTALL)
    try:
        # Fraction(text) would compute 10^|e| first.  The text is
        # +-a 10^(e - d) for its mantissa digits a < 10^L, L = len(text), and
        # the d <= L of them after the point: for a != 0, an integer of at
        # least 10^(limit + 1) when e > limit + L, and of denominator at
        # least 10^(d - e) / a > 10^limit when e < -(limit + L).  The digit
        # check refuses both, so the text with each exponent digit 0, of the
        # same syntax, sign and zeroness, decides the outcome.
        huge = bool(m) and limit < abs(int(m[2])) - len(text)
        f = Fraction(m[1] + re.sub(r"\d", "0", m[2]) + m[3] if huge else text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"bad precision {text!r}") from None
    if f <= 0:
        raise InputError("precision must be positive")
    if huge or max(f.numerator, f.denominator) >= 10 ** limit:
        raise PreconditionError(f"precision {text!r} exceeds {limit} digits")
    return f


def _load_knot(args):
    """Resolve --braid / --seifert / --input into (echo, SeifertMatrix)."""
    from .seifert import SeifertMatrix, _entry_from_record

    sources = [s for s in (args.braid, args.seifert, args.input) if s]
    if len(sources) != 1:
        raise InputError("give exactly one of --braid, --seifert, --input")
    if args.braid:
        from .braids import parse_braid, seifert_matrix_from_braid

        b = parse_braid(args.braid)
        return {"braid": str(b)}, seifert_matrix_from_braid(b)
    if args.seifert:
        v = SeifertMatrix(parse_json(args.seifert, "--seifert"))
        return {"seifert": [list(r) for r in v.rows]}, v
    rec = parse_json(read_text(args.input), args.input)
    if not isinstance(rec, dict):
        raise InputError(f"{args.input}: top level must be a JSON object")
    if "name" not in rec:
        rec = dict(rec, name=args.input)
    entry = _entry_from_record(rec, args.input)
    return {"file": args.input, "name": entry.name}, entry.seifert_matrix()


def _add_knot_args(p):
    p.add_argument("--braid", help='braid text, e.g. "n=2; 1 1 1"')
    p.add_argument("--seifert", help="Seifert matrix as a JSON array of rows")
    p.add_argument("--input", help="path to a knot spec JSON file")


def _classical_invariants(v) -> tuple:
    """The invariants that ``invariants`` and ``table`` both report, and
    the Alexander polynomial they are read from."""
    from .invariants import (
        _arf_of_determinant,
        _delta_of_x,
        _fox_milnor,
        levine_tristram,
        x_polynomial,
    )
    from .polynomials import poly_eval

    p = x_polynomial(v)
    delta = _delta_of_x(p)
    # P(-2) = Delta(-1) = +-det(V + V^T)
    det = abs(poly_eval(p, -2))
    return {
        "alexander": str(delta),
        "d0": delta.span,
        "determinant": det,
        "arf": _arf_of_determinant(det),
        "signature_at_minus_1": levine_tristram(v, Fraction(1, 2)),
        "fox_milnor": _fox_milnor(p),
    }, delta


def cmd_invariants(args) -> None:
    from .invariants import _check_claimed_genus, _fibered_reason

    echo, v = _load_knot(args)
    _check_claimed_genus(args.claimed_genus)
    results, delta = _classical_invariants(v)
    reason = _fibered_reason(delta, args.claimed_genus)
    results.update(fibered_obstruction={"passes": reason is None,
                                        "reason": reason},
                   surface_genus=v.genus)
    _emit(_report(echo, results))


def cmd_rho(args) -> None:
    from .invariants import signature_function
    from .rho import rho0_from_step_function

    echo, v = _load_knot(args)
    precision = _parse_precision(args.precision)
    sf = signature_function(v)
    payload = rho0_from_step_function(sf, precision).to_json_dict(args.digits)
    payload["precision"] = str(precision)
    _emit(_report(echo, payload))


def cmd_sigfn(args) -> None:
    from .invariants import signature_csv, signature_function
    from .intervals import format_jumps
    from .polynomials import poly_to_str

    echo, v = _load_knot(args)
    sf = signature_function(v)
    if args.csv:
        sys.stdout.write(signature_csv(sf, args.digits))
        return
    thetas = format_jumps(sf.low, args.digits)
    jumps = [{"theta": theta, "min_poly_x": poly_to_str(a.poly)}
             for theta, a in zip(thetas, sf.jumps)]
    _emit(_report(echo, {"jumps": jumps, "arc_values": list(sf.values)}))


def cmd_bdim(args) -> None:
    from .diagrams import GROPE_BUDGET, VASSILIEV_BUDGET, dim_graded_piece

    grading = args.grading
    budget = args.budget
    if budget is None:
        budget = GROPE_BUDGET if grading == "grope" else VASSILIEV_BUDGET
    if args.max > budget:
        raise BudgetExceededError(
            f"degree {args.max} exceeds the configured budget {budget}")
    start = 2 if grading == "grope" else 1
    rows = []
    for degree in range(start, args.max + 1):
        rows.append(dim_graded_piece(degree, grading, budget=budget))
    if args.csv:
        lines = ["grading,degree,num_diagrams,num_relations,dimension"]
        for r in rows:
            lines.append(f"{r['grading']},{r['degree']},{r['num_diagrams']},"
                         f"{r['num_relations']},{r['dimension']}")
        sys.stdout.write("\n".join(lines) + "\n")
        return
    _emit(_report({"grading": grading, "max": args.max}, rows))


def cmd_grope(args) -> None:
    from .gropes import (
        GropeTree,
        bracket_to_grope,
        class_of,
        height_of,
        parse_bracket,
        weight,
    )

    if args.action == "from-bracket":
        if not args.bracket:
            raise InputError("from-bracket needs --bracket")
        b = parse_bracket(args.bracket)
        tree = bracket_to_grope(b)
        h = height_of(tree)
        _emit(_report({"bracket": str(b)}, {
            "weight": weight(b),
            "class": class_of(tree),
            "height": None if h is None else str(h),
            "tree": tree.to_json_dict(),
        }))
        return
    if args.tree:
        data = parse_json(args.tree, "--tree")
    elif args.tree_file:
        data = parse_json(read_text(args.tree_file), args.tree_file)
    else:
        raise InputError("give --tree JSON or --tree-file")
    tree = GropeTree.from_json_dict(data)
    if args.action == "class":
        _emit(_report({"tree": tree.to_json_dict()}, {"class": class_of(tree)}))
    else:  # height
        h = height_of(tree)
        _emit(_report({"tree": tree.to_json_dict()},
                      {"height": None if h is None else str(h),
                       "is_symmetric_template": h is not None}))


def cmd_magnus(args) -> None:
    from .gropes import magnus_depth, parse_free_word

    w = parse_free_word(args.word)
    depth = magnus_depth(w, args.cutoff)
    _emit(_report({"word": args.word, "cutoff": args.cutoff}, {
        "depth": depth if depth is not None else f">= {args.cutoff}",
        "word_reduced": str(w),
    }))


def cmd_table(args) -> None:
    from .seifert import load_knot_table

    entries = load_knot_table(args.path)
    rows = []
    n_mismatch = 0
    for entry in entries:
        results, _ = _classical_invariants(entry.seifert_matrix())
        mismatches = []
        for key, want in entry.expected.items():
            if key in results and results[key] != want:
                mismatches.append({"invariant": key, "expected": want,
                                   "computed": results[key]})
        n_mismatch += len(mismatches)
        rows.append({"name": entry.name, "results": results,
                     "mismatches": mismatches})
    if args.csv:
        import csv

        columns = ("alexander", "d0", "determinant", "arf",
                   "signature_at_minus_1", "fox_milnor")
        out = csv.writer(sys.stdout, lineterminator="\n")
        out.writerow(("name",) + columns + ("mismatches",))
        for row in rows:
            cells = [row["results"][c] for c in columns]
            out.writerow([row["name"]]
                         + [str(c).lower() if isinstance(c, bool) else c
                            for c in cells]
                         + [len(row["mismatches"])])
        return
    _emit(_report({"file": args.path, "entries": len(entries)},
                  {"knots": rows, "total_mismatches": n_mismatch}))


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as an InputError (exit 1), not by
    argparse's own exit 2, which is the precondition code here."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="knotbench",
        description="Exact knot invariants, rho-invariant integrals, "
                    "diagram algebra dimensions, and grope calculus.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="classical invariant report")
    _add_knot_args(p)
    p.add_argument("--claimed-genus", type=int, default=None)
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("rho", help="certified rho0 enclosure")
    _add_knot_args(p)
    p.add_argument("--precision", default="1e-6",
                   help="enclosure width target (default 1e-6)")
    p.add_argument("--digits", type=int, default=12,
                   help="decimal digits for rendered angles (default 12)")
    p.set_defaults(fn=cmd_rho)

    p = sub.add_parser("sigfn", help="signature step function")
    _add_knot_args(p)
    p.add_argument("--digits", type=int, default=12,
                   help="decimal digits for rendered angles (default 12)")
    p.add_argument("--csv", action="store_true", help="CSV output")
    p.set_defaults(fn=cmd_sigfn)

    p = sub.add_parser("bdim", help="diagram algebra dimension table")
    p.add_argument("--grading", choices=("grope", "vassiliev"), default="grope")
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--csv", action="store_true", help="CSV output")
    p.set_defaults(fn=cmd_bdim)

    p = sub.add_parser("grope", help="grope class/height queries")
    p.add_argument("action", choices=("class", "height", "from-bracket"))
    p.add_argument("--tree", help="grope tree JSON")
    p.add_argument("--tree-file", help="path to grope tree JSON")
    p.add_argument("--bracket", help='bracket text, e.g. "[[x,y],z]"')
    p.set_defaults(fn=cmd_grope)

    p = sub.add_parser("magnus", help="lower-central depth via Magnus expansion")
    p.add_argument("word", help='free word, e.g. "x y x^-1 y^-1"')
    p.add_argument("--cutoff", type=int, default=8)
    p.set_defaults(fn=cmd_magnus)

    p = sub.add_parser("table", help="batch invariants over a knot table")
    p.add_argument("path")
    p.add_argument("--csv", action="store_true", help="CSV output")
    p.set_defaults(fn=cmd_table)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        digits = getattr(args, "digits", 0)
        if digits < 0:
            raise InputError(f"--digits {digits} is negative")
        limit = _digit_budget()
        if digits > limit:
            raise PreconditionError(f"--digits {digits} exceeds the limit of {limit}")
        args.fn(args)
    except (InputError, OSError, RecursionError) as e:
        # RecursionError: JSON, brackets and grope trees are read recursively
        sys.stderr.write(f"error: input: {e}\n")
        return EXIT_INPUT
    except (PreconditionError, BudgetExceededError) as e:
        sys.stderr.write(f"error: precondition: {e}\n")
        return EXIT_PRECONDITION
    except PossiblySingularError as e:
        sys.stderr.write(f"error: resource: {e}\n")
        return EXIT_RESOURCE
    return 0


if __name__ == "__main__":
    sys.exit(main())
