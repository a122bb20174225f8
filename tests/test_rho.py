import json
import random
from fractions import Fraction

import pytest

from knotbench.braids import BraidWord, seifert_matrix_from_braid
from knotbench.cli import main
from knotbench.errors import InputError
from knotbench.intervals import AlgebraicAngle, IntervalReal
from knotbench.invariants import signature_csv, signature_function
from knotbench.rho import rho0, rho0_from_step_function
from knotbench.seifert import UNKNOT, SeifertMatrix, connected_sum, mirror

from conftest import random_seifert, torus, torus_step_function
from oracles import (intersects, jumps_by_factoring, rho0_by_arcs,
                     riemann_rho0, torus_rho0)

PREC = Fraction(1, 10 ** 6)


def assert_rho0_identities(v, precision=PREC):
    """Mirror antisymmetry, additivity under connected sum with v itself,
    and the genus bound |rho0| <= 2g, as interval statements."""
    r = rho0(v, precision).value
    rm = rho0(mirror(v), precision).value
    # rm intersects -r = [-r.hi, -r.lo]
    assert rm.lo <= -r.lo and -r.hi <= rm.hi, (rm, r)
    rs = rho0(connected_sum(v, v), 2 * precision).value
    # rs intersects r + r = [2 r.lo, 2 r.hi]
    assert rs.lo <= 2 * r.hi and 2 * r.lo <= rs.hi, (rs, r)
    bound = 2 * v.genus
    assert -bound - precision <= r.lo and r.hi <= bound + precision, r


def twist_sum():
    """K_-2 # ... # K_-11 (5_2, 7_2, ...): each summand jumps by -2 at
    theta_m = acos(1 - 1/(2m)) / (2 pi), off the roots of unity, and
    adds -2 (1 - 2 theta_m) to rho0."""
    v = UNKNOT
    for m in range(2, 12):
        v = connected_sum(v, SeifertMatrix([[-1, 1], [0, -m]]))
    return v


def steps_below_half(sf):
    """The jumps theta_j in (0, 1/2) and their sizes c_j != 0."""
    n = len(sf.jumps) // 2
    return [(a, sf.values[j + 1] - sf.values[j])
            for j, a in enumerate(sf.jumps[:n])
            if sf.values[j + 1] != sf.values[j]]


class TestRho0:
    def test_unknot_exactly_zero(self):
        r = rho0(UNKNOT, PREC)
        assert r.value.lo == 0 == r.value.hi

    def test_trefoil_encloses_minus_four_thirds(self, trefoil):
        r = rho0(trefoil, PREC)
        assert r.value.width <= PREC
        assert r.value.contains(Fraction(-4, 3))
        # the step function is -2 on the single middle arc
        assert r.step_function.values == (0, -2, 0)

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
        w = Fraction(1, 10 ** 9)
        ends = ([IntervalReal.exact(0)]
                + [a.enclosure_to_width(w) for a in r.step_function.jumps]
                + [IntervalReal.exact(1)])
        arcs = list(zip(ends, ends[1:]))
        # the arc from a to b is at least b.lo - a.hi and at most b.hi - a.lo
        assert (sum(b.lo - a.hi for a, b in arcs) <= 1
                <= sum(b.hi - a.lo for a, b in arcs))

    def test_jump_bounds_unchanged_by_evaluation(self):
        # angles held by a step function are values: evaluating rho0, the
        # step function and its CSV rendering must not narrow them.  T(2,5)
        # jumps at 1/10 and 3/10, exact angles with no x-box; 5_2 # T(2,5)
        # adds a jump at x = 3/2, whose Sturm box only copies refine
        t25 = seifert_matrix_from_braid(BraidWord(2, [1] * 5))
        mixed = connected_sum(t25, SeifertMatrix([[-1, 1], [0, -2]]))
        for v, arc in ((t25, 1), (mixed, 2)):
            sf = signature_function(v)
            before = [(a.x_lo, a.x_hi, a.theta) for a in sf.jumps]
            assert before[0] == (None, None, Fraction(1, 10))
            rho0_from_step_function(sf, PREC)
            assert sf.value_at(Fraction(1, 7)) == sf.values[arc]
            signature_csv(sf)
            assert [(a.x_lo, a.x_hi, a.theta) for a in sf.jumps] == before
        assert before[1][2] is None and before[1][0] < 1.5 < before[1][1]

    def test_reevaluate_at_fifty_digits(self, trefoil):
        r = rho0(trefoil, PREC)
        tight = rho0_from_step_function(
            r.step_function, Fraction(1, 10 ** 50)).value
        assert tight.width <= Fraction(1, 10 ** 50)
        assert tight.contains(Fraction(-4, 3))
        assert intersects(tight, r.value)

    def test_result_holds_the_step_function(self, trefoil, monkeypatch):
        # summing again at another width reuses the step function the
        # result holds; the signature function is not computed again
        import knotbench.invariants as invariants
        import knotbench.rho as rho

        sf = signature_function(trefoil)
        r = rho0_from_step_function(sf, PREC)
        assert r.step_function is sf
        calls = []
        for module in (invariants, rho):
            monkeypatch.setattr(module, "signature_function",
                                lambda v: calls.append(v))
        tight = rho0_from_step_function(r.step_function, Fraction(1, 10 ** 50))
        assert calls == []
        assert tight.step_function is sf
        assert tight.value.width <= Fraction(1, 10 ** 50)
        assert intersects(tight.value, r.value)

    def test_one_enclosure_per_conjugate_pair(self, monkeypatch):
        # the twist knots K_-2 ... K_-11 (5_2, 7_2, ...) jump at
        # x = 2 - 1/m, off the roots of unity: their sum has 20 jumps in
        # 10 conjugate pairs; T(2, 21) has 20 exact jumps, none enclosed
        sf = signature_function(twist_sum())
        assert len(sf.jumps) == 20
        calls = []
        enclose = AlgebraicAngle.enclosure

        def counting(self, prec_bits=64):
            calls.append(self)
            return enclose(self, prec_bits)

        monkeypatch.setattr(AlgebraicAngle, "enclosure", counting)
        rho0_from_step_function(sf, Fraction(1, 10 ** 100))
        assert len(calls) == 10
        assert not any(a.upper for a in calls)
        calls.clear()
        r = rho0_from_step_function(torus_step_function(2, 21),
                                    Fraction(1, 10 ** 100))
        assert calls == [] and r.value.width == 0

    @pytest.mark.parametrize("precision", [0, -1, Fraction(-1, 10 ** 6)])
    def test_nonpositive_precision_refused(self, trefoil, precision):
        sf = signature_function(trefoil)
        with pytest.raises(InputError, match="precision must be positive"):
            rho0_from_step_function(sf, precision)

    @pytest.mark.parametrize("precision", [Fraction(1, 10 ** 60), PREC])
    def test_json_arcs_do_not_depend_on_precision(self, precision, capsys):
        # the arcs are rendered from their own 10^-(digits+2)-wide
        # enclosures, so at 1e-60 and at 1e-6 alike they read as the jumps
        # of sigfn's CSV and JSON
        braid = "n=2; " + " ".join(["1"] * 21)
        sf = signature_function(
            seifert_matrix_from_braid(BraidWord(2, [1] * 21)))
        for digits in (12, 40):
            ends = [line.split(",")[1]
                    for line in signature_csv(sf, digits).splitlines()[2:-1]]
            assert main(["sigfn", "--braid", braid,
                         "--digits", str(digits)]) == 0
            jumps = json.loads(capsys.readouterr().out)["results"]["jumps"]
            arcs = rho0_from_step_function(sf, precision).to_json_dict(
                digits)["arcs"]
            assert len(ends) == 20
            assert all(len(e.split(".")[1]) == digits for e in ends)
            assert [jump["theta"] for jump in jumps] == ends
            assert [arc["theta_hi"] for arc in arcs[:-1]] == ends
            assert [arc["theta_lo"] for arc in arcs[1:]] == ends

    def test_json_shape(self, trefoil):
        d = rho0(trefoil, PREC).to_json_dict(12)
        assert set(d) == {"rho0", "arcs", "measure"}
        assert d["measure"] == "normalized_1"
        assert d["arcs"][1]["sigma"] == -2
        assert d["rho0"]["lo"].startswith("-1.3333")


class TestRho0ByParts:
    @pytest.mark.parametrize("precision", [PREC, Fraction(1, 10 ** 30)],
                             ids=["1e-6", "1e-30"])
    def test_agrees_with_the_arc_sum(self, knot_table, precision):
        # the sum by parts over the jumps in (0, 1/2) against the sum of
        # sigma times arc length over all arcs
        rng = random.Random(22)
        forms = ([e.seifert_matrix() for e in knot_table]
                 + [random_seifert(rng, 1 + k % 4) for k in range(200)]
                 + [twist_sum()])
        for v in forms:
            sf = signature_function(v)
            r = rho0_from_step_function(sf, precision).value
            lo, hi = rho0_by_arcs(sf, precision)
            assert r.width <= precision and hi - lo <= precision
            assert r.lo <= hi and lo <= r.hi, (v, r, (lo, hi))
            # the jumps are enclosed no finer than the arcs' weight asks
            assert (2 * sum(abs(c) for _, c in steps_below_half(sf))
                    <= sum(2 * abs(sigma) for sigma in sf.values))

    def test_twist_sum_closed_form_and_pinned_width(self, monkeypatch):
        # one enclosure per jump theta_j in (0, 1/2) with c_j != 0, to
        # precision / (2 sum |c_j|), which is no finer than
        # precision / (sum of 2|sigma_k| over all arcs)
        import mpmath

        sf = signature_function(twist_sum())
        steps = steps_below_half(sf)
        assert [c for _, c in steps] == [-2] * 10
        precision = Fraction(1, 10 ** 30)
        pinned = precision / (2 * sum(abs(c) for _, c in steps))
        assert pinned == precision / 40
        assert pinned >= precision / sum(2 * abs(s) for s in sf.values)
        requests = []
        enclose = AlgebraicAngle.enclosure_to_width

        def recording(self, width):
            requests.append((self, width))
            return enclose(self, width)

        monkeypatch.setattr(AlgebraicAngle, "enclosure_to_width", recording)
        r = rho0_from_step_function(sf, precision).value
        assert requests == [(a, pinned) for a, _ in steps]
        assert r.width <= precision
        with mpmath.workdps(60):
            want = Fraction(str(mpmath.fsum(
                -2 + 2 * mpmath.acos(1 - mpmath.mpf(1) / (2 * m)) / mpmath.pi
                for m in range(2, 12))))
        tol = Fraction(1, 10 ** 50)
        assert r.lo - tol <= want <= r.hi + tol, (r, float(want))

class TestExactRho0:
    @pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (2, 7), (2, 9), (2, 13),
                                     (2, 21), (3, 4), (3, 5), (4, 3), (2, 27),
                                     (2, 49), (3, 7), (5, 6), (4, 7)])
    def test_torus_rho0_is_the_closed_form(self, p, q):
        sf = torus_step_function(p, q)
        r = rho0_from_step_function(sf, PREC)
        assert r.value == IntervalReal.exact(torus_rho0(p, q))
        # the factor-and-enclose path encloses the same value
        wide = rho0_from_step_function(jumps_by_factoring(sf),
                                       Fraction(1, 10 ** 100)).value
        assert wide.width <= Fraction(1, 10 ** 100) and wide.contains(r.value.lo)

    def test_t_2_49(self):
        r = rho0_from_step_function(torus_step_function(2, 49), PREC)
        assert r.value.lo == r.value.hi == Fraction(-1200, 49)

    def test_mixed_knots_agree_with_enclosures(self, trefoil):
        rng = random.Random(3)
        forms = [random_seifert(rng, 1 + k % 3) for k in range(30)]
        mixed = [connected_sum(trefoil, SeifertMatrix([[-1, 1], [0, -2]]))]
        mixed += [connected_sum(torus(2, 5), f) for f in forms]
        width = Fraction(1, 10 ** 9)
        n_mixed = 0
        for v in mixed:
            sf = signature_function(v)
            thetas = {a.theta for a in sf.jumps}
            n_mixed += None in thetas and len(thetas) > 1
            r = rho0_from_step_function(sf, width).value
            old = rho0_from_step_function(jumps_by_factoring(sf), width).value
            assert r.width <= width and old.width <= width
            assert intersects(r, old), (r, old)
        assert n_mixed >= 5

    def test_printed_bounds_contain_rho0(self, knot_table):
        # lo is rounded down and hi up, so the printed pair contains rho0
        # at every digit count.  For a table knot rho0 is its exact value
        # when that lies in the 1e-60 enclosure of the factor-and-enclose
        # path, else that enclosure
        cases = [(torus_step_function(2, q), IntervalReal.exact(torus_rho0(2, q)))
                 for q in range(3, 50, 2)]
        for e in knot_table:
            sf = signature_function(e.seifert_matrix())
            exact = rho0_from_step_function(sf, PREC).value
            tight = rho0_from_step_function(
                jumps_by_factoring(sf), Fraction(1, 10 ** 60)).value
            if exact.width == 0:
                assert tight.contains(exact.lo)
            cases.append((sf, exact if exact.width == 0 else tight))
        for sf, rho in cases:
            # the precision moves only an enclosure that is not a point
            for precision in ((PREC,) if rho.width == 0 else
                              (Fraction(1, 10 ** 3), PREC, Fraction(1, 10 ** 40))):
                r = rho0_from_step_function(sf, precision)
                for digits in range(16):
                    printed = r.to_json_dict(digits)["rho0"]
                    lo, hi = Fraction(printed["lo"]), Fraction(printed["hi"])
                    assert lo <= rho.lo and rho.hi <= hi, (printed, rho)
                    assert hi - lo <= r.value.width + Fraction(2, 10 ** digits)

    def test_trefoil_prints_outside_minus_four_thirds(self, capsys):
        assert main(["rho", "--braid", "n=2; 1 1 1", "--digits", "6"]) == 0
        printed = json.loads(capsys.readouterr().out)["results"]["rho0"]
        assert printed == {"lo": "-1.333334", "hi": "-1.333333"}


class TestRhoProperties:
    def test_unknot_all_exact(self):
        assert_rho0_identities(UNKNOT)
        for v in (UNKNOT, mirror(UNKNOT), connected_sum(UNKNOT, UNKNOT)):
            r = rho0(v, PREC).value
            assert r.lo == 0 == r.hi

    def test_trefoil_identities(self, trefoil):
        assert_rho0_identities(trefoil)

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
            tight = rho0_from_step_function(
                r.step_function, Fraction(1, 10 ** 50)).value
            assert intersects(tight, r.value)
            oracle = riemann_rho0(v, 40_000)
            assert r.value.lo - Fraction(1, 100) <= Fraction(
                oracle).limit_denominator(10 ** 9) <= r.value.hi + Fraction(1, 100)

    def test_random_corpus_identities(self):
        rng = random.Random(8)
        for _ in range(6):
            v = random_seifert(rng, rng.randint(1, 2))
            assert_rho0_identities(v, Fraction(1, 10 ** 4))
