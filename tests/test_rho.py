import random
from fractions import Fraction

import pytest

from knotbench.braids import BraidWord, seifert_matrix_from_braid
from knotbench.intervals import IntervalReal
from knotbench.invariants import signature_csv, signature_function
from knotbench.rho import rho0, rho0_from_step_function, rho0_properties_check
from knotbench.seifert import UNKNOT, connected_sum, mirror

from conftest import random_seifert
from oracles import riemann_rho0

PREC = Fraction(1, 10 ** 6)


class TestRho0:
    def test_unknot_exactly_zero(self):
        r = rho0(UNKNOT, PREC)
        assert r.value.lo == 0 == r.value.hi

    def test_trefoil_encloses_minus_four_thirds(self, trefoil):
        r = rho0(trefoil, PREC)
        assert r.value.width <= PREC
        assert r.value.contains(Fraction(-4, 3))
        # exact form is -2 on the single middle arc
        sigmas = [s for s, _, _ in r.exact_form]
        assert sigmas == [0, -2, 0]

    def test_trefoil_vs_riemann_oracle(self, trefoil):
        r = rho0(trefoil, PREC)
        oracle = riemann_rho0(trefoil, 100_000)
        assert r.value.lo - Fraction(1, 1000) <= Fraction(oracle).limit_denominator(10**9) <= r.value.hi + Fraction(1, 1000)

    def test_figure_eight_exactly_zero(self, figure_eight):
        r = rho0(figure_eight, PREC)
        assert r.value.lo == 0 == r.value.hi
        assert riemann_rho0(figure_eight, 20_000) == 0

    def test_precision_drives_width(self, trefoil):
        for digits in (3, 8):
            p = Fraction(1, 10 ** digits)
            assert rho0(trefoil, p).value.width <= p

    def test_arc_lengths_sum_to_one(self, trefoil):
        r = rho0(trefoil, PREC)
        total = IntervalReal.exact(0)
        w = Fraction(1, 10 ** 9)
        for _, lo, hi in r.exact_form:
            total = total + (r.endpoint_enclosure(hi, w)
                             - r.endpoint_enclosure(lo, w))
        assert total.contains(1)

    def test_jump_bounds_unchanged_by_evaluation(self):
        # angles held by a step function are values: evaluating rho0, the
        # step function and its CSV rendering must not narrow them
        sf = signature_function(
            seifert_matrix_from_braid(BraidWord(2, [1] * 5)))
        before = [(a.x_lo, a.x_hi) for a in sf.jumps]
        assert before[0] == (Fraction(3, 2), Fraction(7, 4))
        rho0_from_step_function(sf, PREC)
        assert sf.value_at(Fraction(1, 7)) == sf.values[1]
        signature_csv(sf)
        assert [(a.x_lo, a.x_hi) for a in sf.jumps] == before

    def test_reevaluate_at_fifty_digits(self, trefoil):
        r = rho0(trefoil, PREC)
        tight = r.reevaluate(Fraction(1, 10 ** 50))
        assert tight.width <= Fraction(1, 10 ** 50)
        assert tight.contains(Fraction(-4, 3))
        assert tight.intersects(r.value)

    def test_json_shape(self, trefoil):
        d = rho0(trefoil, PREC).to_json_dict(12)
        assert set(d) == {"rho0", "arcs", "measure"}
        assert d["measure"] == "normalized_1"
        assert d["arcs"][1]["sigma"] == -2
        assert d["rho0"]["lo"].startswith("-1.3333")


class TestRhoProperties:
    def test_unknot_all_exact(self):
        rep = rho0_properties_check(UNKNOT)
        assert rep.all_hold

    def test_trefoil_identities(self, trefoil):
        rep = rho0_properties_check(trefoil, precision=PREC)
        assert rep.all_hold

    def test_trefoil_plus_mirror_contains_zero(self, trefoil):
        sq = connected_sum(trefoil, mirror(trefoil))
        r = rho0(sq, PREC)
        assert r.value.width <= PREC
        assert r.value.contains(0)

    def test_granny_encloses_minus_eight_thirds(self, trefoil):
        s = connected_sum(trefoil, trefoil)
        r = rho0(s, PREC)
        assert r.value.contains(Fraction(-8, 3))
        oracle = riemann_rho0(s, 50_000)
        assert abs(float(r.value.mid) - oracle) < 1e-3

    def test_torus_family_self_consistency(self):
        for q in (3, 5, 7, 9):
            v = seifert_matrix_from_braid(BraidWord(2, [1] * q))
            r = rho0(v, PREC)
            tight = r.reevaluate(Fraction(1, 10 ** 50))
            assert tight.intersects(r.value)
            oracle = riemann_rho0(v, 40_000)
            assert r.value.lo - Fraction(1, 100) <= Fraction(
                oracle).limit_denominator(10 ** 9) <= r.value.hi + Fraction(1, 100)

    def test_random_corpus_identities(self):
        rng = random.Random(8)
        for _ in range(6):
            v = random_seifert(rng, rng.randint(1, 2))
            rep = rho0_properties_check(v, precision=Fraction(1, 10 ** 4))
            assert rep.all_hold, [c.detail for c in rep.checks if not c.holds]
