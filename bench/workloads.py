"""The four benchmark workloads.

``build(name, rng, spawn)`` makes a workload's inputs from the seeded ``rng``
and returns a ``Workload``: the operations of one round, each a
``(run, check)`` pair, plus a check over the whole round.  ``run`` calls
the program through its public module attributes, so wrappers that
``tracer.Tracer`` installs later still see every call; ``check`` compares
the result with ``oracles`` and raises ``oracles.CheckFailed``.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import knotbench.braids as braids
import knotbench.cli as cli
import knotbench.diagrams as diagrams
import knotbench.gropes as gropes
import knotbench.invariants as invariants
import knotbench.rho as rho
import knotbench.seifert as seifert

import numpy as np

import oracles

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
TABLE = os.path.join("src", "knotbench", "data", "knots.json")
GROPE_TABLE = os.path.join(BENCH_DIR, "grope_table.json")

SIG_WIDTH = Fraction(1, 10 ** 6)
TORUS_WIDTH = Fraction(1, 10 ** 100)
# enclosures the checks compare with float jump angles
CHECK_WIDTH = Fraction(1, 10 ** 12)

# random Seifert forms per round by (genus, unit-circle roots of Delta):
# the shares 3000 unstratified draws showed, scaled to 200 forms.  The
# roots set how many arcs get a certified signature, so a fixed make-up
# keeps the cost of a round the same for every seed (unstratified, the
# cost spread by 12 % between seeds)
RANDOM_QUOTAS = {(1, 0): 53, (1, 2): 14,
                 (2, 0): 41, (2, 2): 19, (2, 4): 7,
                 (3, 0): 33, (3, 2): 20, (3, 4): 12, (3, 6): 1}
# genus 1 to 10 (a 40 x 40 realified form) and p = 2, 3, 4, in a round of
# about 7 s; the whole family to genus 10 takes 46 s.  An odd count puts
# the median on one knot, T(4, 3)
TORUS_FAMILY = ((2, 3), (2, 5), (2, 7), (2, 9), (2, 13), (2, 21),
                (3, 4), (3, 5), (4, 3))
# the cli requests keep their sizes for every seed: genus-2 forms, T(2, 5)
# for rho, T(3, 4) for sigfn, weight-5 brackets and words
CLI_RHO_KNOT = (2, 5)
CLI_SIGFN_KNOT = (3, 4)
CLI_WEIGHT = 5
GROPE_DEGREES = range(2, 8)
VASSILIEV_DEGREES = range(1, 4)
MAGNUS_WEIGHTS = range(2, 7)
CLASS_WEIGHTS = range(2, 9)


@dataclass
class Workload:
    ops: list                              # [(run, check)], one round
    check_round: Callable = lambda results: None
    warmup: Callable = lambda: None        # run once before timing starts


def load_grope_table() -> dict:
    with open(GROPE_TABLE, encoding="utf-8") as fh:
        return {int(k): v for k, v in json.load(fh)["dimension"].items()}


# ---------------------------------------------------------------------------
# inputs made apart from the program


def random_seifert_rows(rng, genus: int) -> list:
    """Integer V whose skew part V - V^T is unimodular: the symplectic
    form moved by random elementary integer row and column operations."""
    n = 2 * genus
    skew = [[0] * n for _ in range(n)]
    for k in range(0, n, 2):
        skew[k][k + 1], skew[k + 1][k] = -1, 1
    for _ in range(3 * n):
        a, b = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        # row b += c row a, then column b += c column a
        for k in range(n):
            skew[b][k] += c * skew[a][k]
        for k in range(n):
            skew[k][b] += c * skew[k][a]
    v = [[0] * n for _ in range(n)]
    for i in range(n):
        v[i][i] = rng.randint(-3, 3)
        for j in range(i + 1, n):
            v[i][j] = rng.randint(-3, 3)
            v[j][i] = v[i][j] - skew[i][j]
    return v


def float_alexander(rows) -> dict:
    """Delta from det(V - t V^T) at the 2g + 1 roots of unity, in floats."""
    g = len(rows) // 2
    m = 2 * g + 1
    v = np.array(rows, dtype=float)
    vals = [np.linalg.det(v - t * v.T)
            for t in np.exp(2j * np.pi * np.arange(m) / m)]
    coeffs = np.rint(np.fft.fft(vals).real / m).astype(int)
    return {j - g: int(c) for j, c in enumerate(coeffs) if c}


def stratified_seifert_rows(rng) -> list:
    """Random forms in the make-up RANDOM_QUOTAS, in the order drawn."""
    need = dict(RANDOM_QUOTAS)
    out = []
    genera = sorted({g for g, _ in need})
    k = 0
    while any(need.values()):
        genus = genera[k % len(genera)]
        k += 1
        rows = random_seifert_rows(rng, genus)
        roots = len(oracles.float_jump_angles(rows, float_alexander(rows)))
        if need.get((genus, roots), 0) > 0:
            need[genus, roots] -= 1
            out.append(rows)
    return out


def torus_braid(p: int, q: int):
    return braids.BraidWord(p, list(range(1, p)) * q)


def torus_braid_text(p: int, q: int) -> str:
    return f"n={p}; " + " ".join(str(i) for i in list(range(1, p)) * q)


def bracket_shapes(w: int):
    """All binary bracketings with w leaves; leaves are None."""
    if w == 1:
        yield None
        return
    for lw in range(1, w):
        for left in bracket_shapes(lw):
            for right in bracket_shapes(w - lw):
                yield (left, right)


def name_leaves(shape, names):
    if shape is None:
        return next(names)
    return (name_leaves(shape[0], names), name_leaves(shape[1], names))


def bracket_text(b) -> str:
    if isinstance(b, str):
        return b
    return f"[{bracket_text(b[0])},{bracket_text(b[1])}]"


def bracket_word_text(b) -> str:
    """The commutator word [l, r] = l r l^-1 r^-1, unreduced."""
    def expand(x):
        if isinstance(x, str):
            return [(x, 1)]
        left, right = expand(x[0]), expand(x[1])
        inv = lambda w: [(n, -e) for n, e in reversed(w)]
        return left + right + inv(left) + inv(right)
    return " ".join(n if e > 0 else f"{n}^-1" for n, e in expand(b))


def leaf_count(b) -> int:
    return 1 if isinstance(b, str) else leaf_count(b[0]) + leaf_count(b[1])


def left_normed(names) -> tuple:
    b = names[0]
    for g in names[1:]:
        b = (b, g)
    return b


def basic_commutators() -> list:
    """Left-normed [x_1, ..., x_w] over x, y, z with x_1 != x_2, w = 2-6:
    726 brackets, each of Magnus depth exactly w."""
    return [left_normed(idx) for w in MAGNUS_WEIGHTS
            for idx in itertools.product("xyz", repeat=w) if idx[0] != idx[1]]


def to_bracket(b):
    if isinstance(b, str):
        return gropes.Bracket.generator(b)
    return gropes.Bracket.commutator(to_bracket(b[0]), to_bracket(b[1]))


def delta_dict(delta) -> dict:
    coeffs, shift = delta.to_int_poly()
    return {shift + i: c for i, c in enumerate(coeffs) if c}


def enclosures(angles, width=CHECK_WIDTH) -> list:
    encs = [a.enclosure_to_width(width) for a in angles]
    return [(e.lo, e.hi) for e in encs]


# ---------------------------------------------------------------------------
# signatures: the certified 4-D pipeline on table knots and random forms


def _signatures(rng) -> Workload:
    knots = []
    for entry in seifert.load_knot_table(os.path.join(ROOT, TABLE)):
        knots.append((entry.braid, entry.seifert))
    for rows in stratified_seifert_rows(rng):
        knots.append((None, seifert.SeifertMatrix(rows)))

    def make(braid, v0):
        def run():
            v = v0 if braid is None else \
                braids.seifert_matrix_from_braid(braid)
            delta = invariants.alexander_polynomial(v)
            det = invariants.determinant(v)
            arf = invariants.arf(v)
            fm = invariants.fox_milnor_test(delta)
            sf = invariants.signature_function(v)
            r = rho.rho0_from_step_function(sf, SIG_WIDTH)
            return v, delta, det, arf, fm, sf, r

        def check(res):
            v, delta, det, arf, fm, sf, r = res
            rows = [list(row) for row in v.rows]
            d = delta_dict(delta)
            oracles.check_alexander(rows, d)
            oracles.check_determinant(rows, det)
            oracles.check_arf(rows, arf)
            oracles.check_fox_milnor(rows, fm)
            angles = oracles.check_signature_function(
                rows, d, sf.values, enclosures(sf.jumps))
            oracles.check_rho_float(sf.values, angles, r.value.lo,
                                    r.value.hi, SIG_WIDTH)
        return run, check

    return Workload([make(b, v) for b, v in knots])


# ---------------------------------------------------------------------------
# torus: large realified forms and 1e-100 enclosures, against closed forms


def _torus(rng) -> Workload:
    family = list(TORUS_FAMILY)
    rng.shuffle(family)

    def make(p, q):
        braid = torus_braid(p, q)

        def run():
            v = braids.seifert_matrix_from_braid(braid)
            sf = invariants.signature_function(v)
            return sf, rho.rho0_from_step_function(sf, TORUS_WIDTH)

        def check(res):
            sf, r = res
            coeffs = sf.delta_coeffs
            half = (len(coeffs) - 1) // 2
            delta = {i - half: c for i, c in enumerate(coeffs) if c}
            oracles.check_torus(p, q, delta, sf.values,
                                enclosures(sf.jumps, Fraction(1, 10 ** 30)),
                                r.value.lo, r.value.hi, TORUS_WIDTH)
        return run, check

    return Workload([make(p, q) for p, q in family])


# ---------------------------------------------------------------------------
# grope_calculus: diagram table, Magnus depth, grope class


def _grope_calculus(rng) -> Workload:
    table = load_grope_table()
    cells = [("vassiliev", n) for n in VASSILIEV_DEGREES]
    cells += [("grope", i) for i in GROPE_DEGREES]
    words = basic_commutators()
    rng.shuffle(words)
    shapes = [name_leaves(s, iter(rng.choices("xyz", k=w)))
              for w in CLASS_WEIGHTS for s in bracket_shapes(w)]
    rng.shuffle(shapes)
    check_rng = random.Random(rng.random())

    def make_cell(grading, degree):
        def run():
            gens = diagrams.enumerate_diagrams(degree, grading)
            rel = diagrams.relation_matrix(degree, grading, generators=gens)
            rank = diagrams.rank_over_q(rel.rows)
            return grading, degree, gens, rel, len(gens) - rank

        def check(res):
            _, _, gens, rel, dim = res
            column_cells = [oracles.diagram_cell(d.vertices) for _, d in gens]
            oracles.check_rows_homogeneous(rel.rows, column_cells, degree,
                                           grading)
            perm = list(range(len(gens)))
            check_rng.shuffle(perm)
            rows = [{perm[c]: x for c, x in row.items()} for row in rel.rows]
            check_rng.shuffle(rows)
            oracles.check_equal(f"{grading} {degree}: rank, shuffled",
                                len(gens) - diagrams.rank_over_q(rows), dim)
            for key, d in gens:
                copy = diagrams.UniTrivalentGraph(
                    *oracles.relabelled(d.vertices, d.pairing, check_rng))
                oracles.check_equal(f"canonical form of a relabelled {key}",
                                    diagrams.canonical_form(copy),
                                    diagrams.canonical_form(d))
        return run, check

    def make_magnus(b):
        w = gropes.bracket_word(to_bracket(b))
        weight = leaf_count(b)

        def check(depth):
            oracles.check_equal(f"Magnus depth of {bracket_text(b)}",
                                depth, weight)
        return (lambda: gropes.magnus_depth(w, 8)), check

    def make_class(b):
        br = to_bracket(b)
        weight = leaf_count(b)

        def check(cls):
            oracles.check_equal(f"class of {bracket_text(b)}", cls, weight)
        return (lambda: gropes.class_of(gropes.bracket_to_grope(br))), check

    def check_round(results):
        dims = {}
        cell_dims = {"grope": {}, "vassiliev": {}}
        for grading, degree, gens, rel, dim in results[:len(cells)]:
            dims[grading, degree] = dim
            column_cells = [oracles.diagram_cell(d.vertices) for _, d in gens]
            by_cell = oracles.cell_dimensions(rel.rows, column_cells)
            oracles.check_equal(f"{grading} {degree}: sum of cell dimensions",
                                sum(by_cell.values()), dim)
            cell_dims[grading].update(by_cell)
        oracles.check_equal("Vassiliev dimensions",
                            {n: dims["vassiliev", n]
                             for n in VASSILIEV_DEGREES},
                            oracles.VASSILIEV_DIMS)
        oracles.check_equal("grope dimensions (stored table)",
                            {i: dims["grope", i] for i in GROPE_DEGREES},
                            {i: table[i] for i in GROPE_DEGREES})
        oracles.check_cells_agree(cell_dims["grope"], cell_dims["vassiliev"])

    ops = [make_cell(g, i) for g, i in cells]
    ops += [make_magnus(b) for b in words]
    ops += [make_class(b) for b in shapes]
    return Workload(ops, check_round)


# ---------------------------------------------------------------------------
# cli: one client, one fresh process per request


def parse_laurent(text: str) -> dict:
    """Inverse of LaurentPoly.__str__: '2*t - 3 + 2*t^-1' -> {1: 2, ...}."""
    out = {}
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("-")
        mag, _, power = term.rpartition("*")
        mag = mag or "1"
        if "t" not in power:
            mag, power = power, "t^0"
        exp = 1 if power == "t" else int(power.split("^")[1])
        out[exp] = sign * int(mag)
    return out


def _check_invariants(rows):
    def check(payload):
        res = payload["results"]
        g = len(rows) // 2
        d = parse_laurent(res["alexander"])
        oracles.check_alexander(rows, d)
        oracles.check_determinant(rows, res["determinant"])
        oracles.check_arf(rows, res["arf"])
        oracles.check_fox_milnor(rows, res["fox_milnor"])
        oracles.check_equal("d0", res["d0"], max(d) - min(d))
        oracles.check_equal("surface genus", res["surface_genus"], g)
        oracles.check_equal("signature at -1", res["signature_at_minus_1"],
                            oracles.float_signature(rows, 0.5))
    return check


def _near(text: str, x: Fraction, digits: int = 12) -> bool:
    return abs(Fraction(text) - x) <= Fraction(1, 10 ** digits)


def _check_torus_rho(p, q):
    def check(payload):
        res = payload["results"]
        rho0 = oracles.torus_rho0(p, q)
        lo, hi = Fraction(res["rho0"]["lo"]), Fraction(res["rho0"]["hi"])
        oracles.check_equal(f"T({p},{q}) rho0 in [lo, hi] to 12 digits",
                            lo - Fraction(1, 10 ** 12) <= rho0
                            <= hi + Fraction(1, 10 ** 12), True)
        jumps = oracles.torus_jumps(p, q)
        cuts = [Fraction(0)] + jumps + [Fraction(1)]
        oracles.check_equal("arc count", len(res["arcs"]), len(jumps) + 1)
        for k, arc in enumerate(res["arcs"]):
            oracles.check_equal(
                f"T({p},{q}) arc {k} ends",
                _near(arc["theta_lo"], cuts[k])
                and _near(arc["theta_hi"], cuts[k + 1]),
                True)
            oracles.check_equal(
                f"T({p},{q}) arc {k} signature", arc["sigma"],
                oracles.torus_signature(p, q, (cuts[k] + cuts[k + 1]) / 2))
    return check


def _check_torus_sigfn(p, q):
    def check(payload):
        res = payload["results"]
        jumps = oracles.torus_jumps(p, q)
        oracles.check_equal("jump count", len(res["jumps"]), len(jumps))
        for j, x in zip(res["jumps"], jumps):
            oracles.check_equal(f"T({p},{q}) jump near {x}",
                                _near(j["theta"], x), True)
        cuts = [Fraction(0)] + jumps + [Fraction(1)]
        oracles.check_equal(
            f"T({p},{q}) arc values", res["arc_values"],
            [oracles.torus_signature(p, q, (cuts[k] + cuts[k + 1]) / 2)
             for k in range(len(cuts) - 1)])
    return check


def _check_table(payload):
    """Each bundled knot against the knot-table values bundled with it."""
    res = payload["results"]
    with open(os.path.join(ROOT, TABLE), encoding="utf-8") as fh:
        expected = {rec["name"]: rec["expected"] for rec in json.load(fh)}
    oracles.check_equal("table knots", [k["name"] for k in res["knots"]],
                        list(expected))
    for knot in res["knots"]:
        for key, want in expected[knot["name"]].items():
            oracles.check_equal(f"{knot['name']} {key}",
                                knot["results"][key], want)
    oracles.check_equal("total mismatches", res["total_mismatches"], 0)


def _check_bdim(max_degree):
    table = load_grope_table()

    def check(payload):
        oracles.check_equal(
            "bdim dimensions",
            {r["degree"]: r["dimension"] for r in payload["results"]},
            {i: table[i] for i in range(2, max_degree + 1)})
    return check


def _check_vassiliev(payload):
    oracles.check_equal(
        "Vassiliev dimensions",
        {r["degree"]: r["dimension"] for r in payload["results"]},
        oracles.VASSILIEV_DIMS)


def _check_magnus(weight):
    def check(payload):
        oracles.check_equal("magnus depth", payload["results"]["depth"],
                            weight)
    return check


def _check_grope(weight):
    def check(payload):
        res = payload["results"]
        oracles.check_equal("grope class and weight",
                            (res["class"], res["weight"]), (weight, weight))
    return check


def cli_requests(rng) -> list:
    """One round: (argv, expected exit code, check of the JSON report).
    Eleven requests, three of them ``invariants`` in the middle by time,
    so that the median falls on an ``invariants`` request."""
    forms = [random_seifert_rows(rng, 2) for _ in range(3)]
    pr, qr = CLI_RHO_KNOT
    ps, qs = CLI_SIGFN_KNOT
    w = CLI_WEIGHT
    word = rng.choice([b for b in basic_commutators() if leaf_count(b) == w])
    bracket = name_leaves(rng.choice(list(bracket_shapes(w))),
                          iter(rng.choices("xyz", k=w)))
    return [
        (["invariants", "--seifert", json.dumps(rows)], 0,
         _check_invariants(rows)) for rows in forms
    ] + [
        (["rho", "--braid", torus_braid_text(pr, qr)], 0,
         _check_torus_rho(pr, qr)),
        (["sigfn", "--braid", torus_braid_text(ps, qs)], 0,
         _check_torus_sigfn(ps, qs)),
        (["table", TABLE], 0, _check_table),
        (["bdim", "--max", "5"], 0, _check_bdim(5)),
        (["bdim", "--grading", "vassiliev", "--max", "3"], 0,
         _check_vassiliev),
        (["magnus", bracket_word_text(word)], 0,
         _check_magnus(leaf_count(word))),
        (["grope", "from-bracket", "--bracket", bracket_text(bracket)], 0,
         _check_grope(w)),
        # refused by the degree budget; the refusal is the correct answer
        (["bdim", "--max", "7", "--budget", "6"], cli.EXIT_PRECONDITION, None),
    ]


def _cli(rng, spawn) -> Workload:
    def make(argv, code, check):
        def run():
            return spawn(argv)

        def check_reply(reply):
            got, out, err = reply
            oracles.check_equal(f"exit code of {argv[0]}: {err.strip()}",
                                got, code)
            if check is not None:
                check(json.loads(out))
        return run, check_reply

    ops = [make(*r) for r in cli_requests(rng)]
    # the first request of a run reads the package and sympy from disk
    return Workload(ops, warmup=ops[0][0])


BUILDERS = {
    "signatures": _signatures,
    "torus": _torus,
    "grope_calculus": _grope_calculus,
}


def build(name: str, rng, spawn) -> Workload:
    """``spawn(argv)`` runs one knotbench CLI request and returns its
    (exit code, stdout, stderr); only the cli workload uses it."""
    if name == "cli":
        return _cli(rng, spawn)
    return BUILDERS[name](rng)
