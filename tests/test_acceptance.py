"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned here, not configurable.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from knotbench.braids import BraidWord, seifert_matrix_from_braid
from knotbench.diagrams import (
    UniTrivalentGraph,
    _ihx_terms,
    canonical_form,
    enumerate_diagrams,
    rank_over_q,
    relation_matrix,
)
from knotbench.errors import PossiblySingularError
from knotbench.gropes import (
    Bracket,
    bracket_to_grope,
    bracket_word,
    class_of,
    magnus_depth,
    symmetric_grope,
    weight,
)
from knotbench.invariants import (
    alexander_polynomial,
    arf,
    d0,
    determinant,
    fibered_obstruction,
    fox_milnor_test,
    levine_tristram,
    signature_function,
)
from knotbench.polynomials import LaurentPoly
from knotbench.rho import rho0, rho0_from_step_function
from knotbench.seifert import (
    SeifertMatrix,
    UNKNOT,
    connected_sum,
    integer_determinant,
    mirror,
)

from conftest import random_seifert
from oracles import (
    arf_by_majority,
    grope_degree,
    riemann_rho0,
    with_rotation_reversed,
)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({name}): PASS")


def as_interval(x: float) -> Fraction:
    return Fraction(x).limit_denominator(10 ** 12)


def test_criterion_1_trefoil_suite():
    with criterion(1, "trefoil suite"):
        t0 = time.monotonic()
        v = seifert_matrix_from_braid(BraidWord(2, [1, 1, 1]))
        delta = alexander_polynomial(v)
        assert delta == LaurentPoly({1: 1, 0: -1, -1: 1})
        assert d0(v) == 2
        assert determinant(v) == 3
        assert arf(v) == 1
        assert levine_tristram(v, Fraction(1, 2)) == -2
        sf = signature_function(v)
        # jumps exactly at 1/6 and 5/6: stored minimal polynomial is x - 1,
        # whose root x = 1 gives theta = acos(1/2)/(2 pi) = 1/6 exactly
        assert len(sf.jumps) == 2
        assert sf.jumps[0].poly == (-1, 1) and not sf.jumps[0].upper
        assert sf.jumps[1].poly == (-1, 1) and sf.jumps[1].upper
        assert sf.jumps[0].enclosure_to_width(
            Fraction(1, 10 ** 18)).contains(Fraction(1, 6))
        assert sf.jumps[1].enclosure_to_width(
            Fraction(1, 10 ** 18)).contains(Fraction(5, 6))
        r = rho0_from_step_function(sf, Fraction(1, 10 ** 6))
        assert r.value.width <= Fraction(1, 10 ** 6)
        assert r.value.contains(Fraction(-4, 3))
        elapsed = time.monotonic() - t0
        oracle = as_interval(riemann_rho0(v, 100_000))
        tol = Fraction(1, 1000)
        assert r.value.lo - tol <= oracle <= r.value.hi + tol
        assert elapsed < 1.0, f"trefoil suite took {elapsed:.2f}s"


def test_criterion_2_figure_eight_suite():
    with criterion(2, "figure-eight suite"):
        t0 = time.monotonic()
        v = seifert_matrix_from_braid(BraidWord(3, [1, -2, 1, -2]))
        assert determinant(v) == 5
        assert arf(v) == 1
        sf = signature_function(v)
        assert sf.jumps == ()  # p(x) = 3 - x has no root in (-2, 2)
        assert sf.values == (0,)
        r = rho0_from_step_function(sf, Fraction(1, 10 ** 6))
        assert r.value.lo == 0 == r.value.hi  # exactly zero
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0, f"figure-eight suite took {elapsed:.2f}s"


def test_criterion_3_torus_family():
    with criterion(3, "torus knots T(2,q)"):
        t0 = time.monotonic()
        results = {}
        for q in (3, 5, 7, 9):
            v = seifert_matrix_from_braid(BraidWord(2, [1] * q))
            skew = [[v.rows[i][j] - v.rows[j][i] for j in range(v.size)]
                    for i in range(v.size)]
            assert integer_determinant(skew) == 1
            assert determinant(v) == q
            assert levine_tristram(v, Fraction(1, 2)) == -(q - 1)
            assert d0(v) == q - 1
            results[q] = rho0(v, Fraction(1, 10 ** 6))
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0, f"torus family took {elapsed:.2f}s"
        for q, r in results.items():
            g = Fraction(q - 1, 2)
            oracle = as_interval(riemann_rho0(
                seifert_matrix_from_braid(BraidWord(2, [1] * q)), 100_000))
            tol = 10 * g / 10 ** 5 * (q - 1) + Fraction(1, 2000)
            assert r.value.lo - tol <= oracle <= r.value.hi + tol, q


def test_criterion_4_fox_milnor_fibered():
    with criterion(4, "Fox-Milnor and fiberedness"):
        k61 = SeifertMatrix([[1, 1], [0, -2]])
        delta = alexander_polynomial(k61)
        # Delta = +-t^k (2t - 5 + 2/t)
        assert delta == LaurentPoly({1: -2, 0: 5, -1: -2})
        assert fox_milnor_test(delta)
        fib = fibered_obstruction(k61)
        assert fib == "not monic"

        trefoil = seifert_matrix_from_braid(BraidWord(2, [1, 1, 1]))
        assert not fox_milnor_test(alexander_polynomial(trefoil))
        assert fibered_obstruction(trefoil, claimed_genus=1) is None


def test_criterion_5_diagram_algebra():
    with criterion(5, "diagram algebra dimensions"):
        t0 = time.monotonic()
        gens2 = enumerate_diagrams(2)
        y = canonical_form(
            __import__("knotbench.diagrams", fromlist=["UniTrivalentGraph"])
            .UniTrivalentGraph(((0, 1, 2), (3,), (4,), (5,)),
                               (3, 4, 5, 0, 1, 2)))[0]
        assert [k for k, _ in gens2] == [y]
        gens3 = enumerate_diagrams(3)
        assert len(gens3) == 2

        dims = {}
        rels = {}
        for i in range(2, 7):
            gens = enumerate_diagrams(i)
            rel = relation_matrix(i, generators=gens)
            dims[i] = len(gens) - rank_over_q(rel.rows)
            rels[i] = (gens, rel)
        assert dims[2] == 0
        assert dims[3] == 1

        # permuted-order elimination oracle, 5 randomized runs at degrees 4-6
        rng = random.Random(2024)
        for i in (4, 5, 6):
            gens, rel = rels[i]
            for _ in range(5):
                colperm = list(range(len(rel.columns)))
                rng.shuffle(colperm)
                rows = [{colperm[c]: val for c, val in row.items()}
                        for row in rel.rows]
                rng.shuffle(rows)
                assert len(gens) - rank_over_q(rows) == dims[i], i

        # homogeneity: every AS/IHX row at degrees <= 6 is grope-degree pure
        violations = 0
        from knotbench.diagrams import _ihx_terms
        for i in range(2, 7):
            gens, rel = rels[i]
            for _, diag in gens:
                owner = diag.owner
                for vi, vert in enumerate(diag.vertices):
                    if len(vert) == 3:
                        if grope_degree(with_rotation_reversed(diag, vi)) != i:
                            violations += 1
                for h, p in diag.edges():
                    if (len(diag.vertices[owner[h]]) == 3
                            and len(diag.vertices[owner[p]]) == 3):
                        for term in _ihx_terms(diag, h):
                            if grope_degree(term) != i:
                                violations += 1
        assert violations == 0
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"diagram algebra took {elapsed:.2f}s"


def _all_shapes(w):
    if w == 1:
        yield "g"
        return
    for lw in range(1, w):
        for left in _all_shapes(lw):
            for right in _all_shapes(w - lw):
                yield (left, right)


def _shape_to_bracket(shape, names_iter):
    if shape == "g":
        return Bracket.generator(next(names_iter))
    return Bracket.commutator(_shape_to_bracket(shape[0], names_iter),
                              _shape_to_bracket(shape[1], names_iter))


def test_criterion_6_grope_calculus():
    with criterion(6, "grope calculus"):
        for h in range(1, 7):
            assert class_of(symmetric_grope(h)) == 2 ** h
        assert class_of(symmetric_grope(Fraction(3, 2))) == 3

        # class == weight: all bracket shapes to weight 8 (generator names
        # enter neither side; verified exhaustively with names to weight 6)
        for w in range(2, 9):
            for shape in _all_shapes(w):
                b = _shape_to_bracket(shape, itertools.cycle("xyz"))
                assert class_of(bracket_to_grope(b)) == weight(b) == w
        for w in range(2, 7):
            for shape in _all_shapes(w):
                n_leaves = w
                for names in itertools.product("xyz", repeat=n_leaves):
                    b = _shape_to_bracket(shape, iter(names))
                    assert class_of(bracket_to_grope(b)) == w

        # magnus depth == weight for basic brackets of weight <= 6:
        # left-normed with distinct leading pair, plus fully balanced
        for wgt in range(2, 7):
            for idx in itertools.product("xyz", repeat=wgt):
                if idx[0] == idx[1]:
                    continue
                b = Bracket.commutator(Bracket.generator(idx[0]),
                                       Bracket.generator(idx[1]))
                for g in idx[2:]:
                    b = Bracket.commutator(b, Bracket.generator(g))
                assert magnus_depth(bracket_word(b), 8) == wgt
        pairs = [Bracket.commutator(Bracket.generator(a), Bracket.generator(b))
                 for a in "xyz" for b in "xyz" if a != b]
        for u in pairs:
            for v in pairs:
                if u == v or (u.left == v.right and u.right == v.left):
                    continue  # trivial as a group element
                b = Bracket.commutator(u, v)
                assert magnus_depth(bracket_word(b), 8) == 4


def test_criterion_7_property_suites(knot_table):
    with criterion(7, "property suites"):
        corpus = [(e.name, e.seifert_matrix()) for e in knot_table]
        assert len(corpus) >= 12
        rng = random.Random(20240601)
        randoms = [(f"rand{k}", random_seifert(rng, rng.randint(1, 3)))
                   for k in range(200)]
        everything = corpus + randoms

        prec = Fraction(1, 10 ** 4)
        for name, v in everything:
            delta = alexander_polynomial(v)
            assert delta.is_symmetric(), name
            assert delta(1) == 1, name
            assert arf(v) == arf_by_majority(v), name
            assert d0(v) <= 2 * v.genus, name

        # signature arc constancy: three rationals per arc
        for name, v in corpus + randoms[:40]:
            sf = signature_function(v)
            jump_encs = [a.enclosure_to_width(Fraction(1, 10 ** 6))
                         for a in sf.jumps]
            cuts = ([Fraction(0)] + [e.mid for e in jump_encs] + [Fraction(1)])
            for k, val in enumerate(sf.values):
                lo, hi = cuts[k], cuts[k + 1]
                for frac in (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5)):
                    q = lo + (hi - lo) * frac
                    try:
                        assert levine_tristram(v, q) == val, (name, q)
                    except Exception as exc:
                        from knotbench.errors import PossiblySingularError
                        if not isinstance(exc, PossiblySingularError):
                            raise

        # mirror negation of signature functions
        for name, v in everything[:60]:
            sf = signature_function(v)
            sfm = signature_function(mirror(v))
            assert sfm.values == tuple(-x for x in sf.values), name
            assert len(sfm.jumps) == len(sf.jumps), name

        # rho0 mirror antisymmetry and additivity as interval statements:
        # [lo, hi] meets -r = [-r.hi, -r.lo] and ra + rb = [ra.lo + rb.lo,
        # ra.hi + rb.hi]
        for name, v in corpus + randoms[:40]:
            r = rho0(v, prec).value
            rm = rho0(mirror(v), prec).value
            assert rm.lo <= -r.lo and -r.hi <= rm.hi, name
            assert r.hi <= 2 * v.genus + prec, name
            assert r.lo >= -2 * v.genus - prec, name
        rho_cache = {name: rho0(v, prec).value for name, v in corpus}
        names = [name for name, _ in corpus]
        by_name = dict(corpus)
        for a, b in zip(names, names[1:] + names[:1]):
            s = connected_sum(by_name[a], by_name[b])
            rs = rho0(s, 2 * prec).value
            ra, rb = rho_cache[a], rho_cache[b]
            assert rs.lo <= ra.hi + rb.hi and ra.lo + rb.lo <= rs.hi, (a, b)
        for name, v in randoms[:20]:
            s = connected_sum(v, v)
            rs = rho0(s, 2 * prec).value
            rv = rho0(v, prec).value
            assert rs.lo <= 2 * rv.hi and 2 * rv.lo <= rs.hi, name
