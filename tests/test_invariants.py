import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

import knotbench.invariants as invariants
from knotbench.braids import BraidWord, seifert_matrix_from_braid
from knotbench.errors import InputError, PossiblySingularError, PreconditionError
from knotbench.invariants import (
    _arf_of_determinant,
    _cyclotomic_candidates,
    _fox_milnor,
    _laurent_to_x,
    _lift,
    _lift_splits,
    _omega_is_alexander_root,
    _psi,
    _separate_boxes,
    _tan_in_gap,
    alexander_polynomial,
    algebraically_concordant_test,
    arf,
    d0,
    determinant,
    fibered_obstruction,
    fox_milnor_test,
    levine_tristram,
    signature_csv,
    signature_function,
    x_polynomial,
)
from knotbench.intervals import cos_2pi
from knotbench.polynomials import (FACTOR_DEGREE_BUDGET, LaurentPoly,
                                   count_real_roots, cyclotomic_poly,
                                   poly_eval, poly_mul, poly_sign_at,
                                   poly_squarefree_part, poly_trim,
                                   sturm_isolate)
from knotbench.seifert import (SeifertMatrix, UNKNOT, connected_sum,
                               integer_determinant, mirror)

from conftest import (random_seifert, random_unimodular, torus,
                      torus_step_function)
from oracles import (arf_by_majority, fox_milnor_by_delta_factors,
                     jumps_by_factoring, omega_is_alexander_root_t_side,
                     poly_matrix_det,
                     sample_levine_tristram_float, sympy_factor_list,
                     sympy_is_irreducible, symmetric_signature_reference,
                     tan_in_gap_by_doubling, torus_jumps, totient,
                     unit_normalize_symmetric)

K61 = SeifertMatrix([[1, 1], [0, -2]])
# det V = 0: Delta = 1, and deg P < g in every connected sum with it
DEGENERATE = SeifertMatrix([[0, 1], [0, 0]])
TORUS_FAMILY = ((2, 3), (2, 5), (2, 7), (2, 9), (2, 13), (2, 21),
                (3, 4), (3, 5), (4, 3))


def twist(m):
    """The twist knot K_m, Delta = -m t + 2m + 1 - m/t (4_1, 6_1, ...)."""
    return SeifertMatrix([[-1, 1], [0, m]])


class TestAlexander:
    def test_trefoil_by_direct_determinant(self, trefoil):
        # oracle: expand det([[t-1, 1], [-t, t-1]]) by hand
        tm1 = LaurentPoly({1: 1, 0: -1})
        direct = tm1 * tm1 + LaurentPoly({1: 1})
        assert direct == LaurentPoly({2: 1, 1: -1, 0: 1})
        assert alexander_polynomial(trefoil) == unit_normalize_symmetric(direct)
        assert alexander_polynomial(trefoil) == LaurentPoly({1: 1, 0: -1, -1: 1})

    def test_unknot(self):
        assert alexander_polynomial(UNKNOT) == LaurentPoly.constant(1)

    def test_figure_eight(self, figure_eight):
        assert alexander_polynomial(figure_eight) == LaurentPoly(
            {1: -1, 0: 3, -1: -1})

    def test_normalization_properties(self, corpus):
        for name, v in corpus.items():
            delta = alexander_polynomial(v)
            assert delta.is_symmetric(), name
            assert delta(1) == 1, name

    def test_determinant_odd(self, corpus):
        for name, v in corpus.items():
            assert determinant(v) % 2 == 1, name

    def test_multiplicative_under_connected_sum(self, trefoil, figure_eight):
        s = connected_sum(trefoil, figure_eight)
        assert alexander_polynomial(s) == unit_normalize_symmetric(
            alexander_polynomial(trefoil) * alexander_polynomial(figure_eight))

    def test_mirror_invariant(self, trefoil):
        assert alexander_polynomial(mirror(trefoil)) == alexander_polynomial(trefoil)


class TestXPolynomial:
    def test_delta_matches_bareiss_oracle(self, trefoil):
        # t^g Delta(t) = det(V - tV^T) from Bareiss elimination over Z[t],
        # on the size-0 matrix, genus 1-8 and forms with det V = 0
        rng = random.Random(16)
        forms = [UNKNOT, DEGENERATE, connected_sum(DEGENERATE, trefoil),
                 connected_sum(random_seifert(rng, 2), DEGENERATE)]
        for g in range(1, 9):
            forms += [random_seifert(rng, g) for _ in range(6 if g < 5 else 1)]
        degenerate = 0
        for v in forms:
            n = v.size
            mat = [[poly_trim((v.rows[i][j], -v.rows[j][i])) for j in range(n)]
                   for i in range(n)]
            det = poly_matrix_det(mat)
            assert alexander_polynomial(v) == (
                LaurentPoly.from_int_poly(det, -v.genus)), v
            p = x_polynomial(v)
            assert poly_eval(p, 2) == 1
            assert len(p) - 1 <= v.genus
            assert (len(p) - 1 < v.genus) == (integer_determinant(v.rows) == 0)
            degenerate += len(p) - 1 < v.genus
        assert x_polynomial(UNKNOT) == (1,)
        assert degenerate >= 3

    def test_lift_is_delta(self, corpus):
        for name, v in corpus.items():
            p = x_polynomial(v)
            assert _lift(p) == alexander_polynomial(v).to_int_poly()[0], name
            assert _laurent_to_x(alexander_polynomial(v)) == p, name

    def test_non_symmetric_refused(self):
        with pytest.raises(PreconditionError, match="not symmetric"):
            _laurent_to_x(LaurentPoly({1: 1, 0: -1}))


class TestD0AndDeterminant:
    def test_examples(self, trefoil, figure_eight):
        assert d0(UNKNOT) == 0
        assert d0(trefoil) == 2
        assert d0(connected_sum(trefoil, trefoil)) == 4
        assert determinant(UNKNOT) == 1
        assert determinant(trefoil) == 3
        assert determinant(figure_eight) == 5

    def test_d0_bounded_by_twice_genus(self, corpus):
        for name, v in corpus.items():
            assert d0(v) <= 2 * v.genus, name

    def test_determinant_is_alexander_at_minus_one(self, corpus):
        # det(V + V^T) against |Delta(-1)| from the Bareiss determinant
        rng = random.Random(29)
        forms = list(corpus.values()) + [random_seifert(rng, rng.randint(1, 4))
                                         for _ in range(80)]
        for v in forms:
            coeffs, _ = alexander_polynomial(v).to_int_poly()
            assert determinant(v) == abs(poly_eval(coeffs, -1)), v


def _signature_gaps(v):
    """The x-gaps between Sturm boxes that signature_function evaluates."""
    ps = signature_function(v).x_poly
    boxes = _separate_boxes(ps, sturm_isolate(ps, -2, 2))
    edges = [Fraction(2)] + [x for lo, hi in reversed(boxes) for x in (hi, lo)]
    return [(edges[2 * k + 1], edges[2 * k]) for k in range(len(boxes))]


class TestTanInGap:
    T_2_21 = seifert_matrix_from_braid(BraidWord(2, [1] * 21))

    def check(self, x_lo, x_hi):
        r = _tan_in_gap(x_lo, x_hi)
        assert r == tan_in_gap_by_doubling(x_lo, x_hi)
        assert x_lo < 2 * (1 - r * r) / (1 + r * r) < x_hi

    def test_signature_function_gaps(self, trefoil):
        for v in (trefoil, self.T_2_21):
            gaps = _signature_gaps(v)
            assert gaps
            for x_lo, x_hi in gaps:
                self.check(x_lo, x_hi)

    @pytest.mark.parametrize("e", [60, 100])
    def test_levine_tristram_enclosures_near_a_jump(self, trefoil, e):
        # jumps at 1/6 (trefoil) and 1/42 (T(2,21)): the cos_2pi
        # enclosures of x at 2^-e from them, at the first precision from
        # 64 bits on, doubling, that misses every root, as levine_tristram
        # locates theta; 2^-64-wide and narrower gaps next to a root
        for v, jump in ((trefoil, Fraction(1, 6)),
                        (self.T_2_21, Fraction(1, 42))):
            ps = signature_function(v).x_poly
            for theta in (jump - Fraction(1, 2 ** e), jump + Fraction(1, 2 ** e)):
                prec = 64
                while True:
                    c = cos_2pi(theta, prec)
                    x_lo, x_hi = 2 * c.lo, 2 * c.hi
                    if (poly_sign_at(ps, x_lo) and poly_sign_at(ps, x_hi)
                            and count_real_roots(ps, x_lo, x_hi) == 0):
                        break
                    prec *= 2
                assert x_hi - x_lo < Fraction(1, 2 ** 56)
                self.check(x_lo, x_hi)

    def test_random_gaps(self):
        rng = random.Random(31)
        for _ in range(300):
            x_lo = Fraction(rng.randint(-1999, 1999), 1000)
            x_hi = min(x_lo + Fraction(rng.randint(1, 999),
                                       2 ** rng.randint(0, 120)), Fraction(2))
            self.check(x_lo, x_hi)


class TestArf:
    def test_examples(self, trefoil):
        assert arf(UNKNOT) == 0
        assert arf(trefoil) == 1
        assert arf(K61) == 0  # |Delta(-1)| = 9 = 1 mod 8

    def test_dual_computations_agree_on_corpus(self, corpus):
        for name, v in corpus.items():
            assert arf(v) == arf_by_majority(v), name

    def test_dual_computations_agree_random(self):
        rng = random.Random(13)
        for _ in range(200):
            v = random_seifert(rng, rng.randint(1, 5))
            assert arf(v) == arf_by_majority(v)

    def test_report_reads_arf_off_its_determinant(self, corpus, monkeypatch):
        # invariants and table report Arf from the determinant |P(-2)|
        # they already hold: no integer determinant beyond the
        # x-polynomial's, and the same Arf as arf(v)
        from knotbench.cli import _classical_invariants

        calls = []
        det = invariants.integer_determinant
        monkeypatch.setattr(invariants, "integer_determinant",
                            lambda rows: calls.append(rows) or det(rows))
        rng = random.Random(17)
        forms = list(corpus.items()) + [
            (k, random_seifert(rng, rng.randint(1, 4))) for k in range(40)]
        for name, v in forms:
            calls.clear()
            x_polynomial(v)
            needed = len(calls)
            calls.clear()
            report = _classical_invariants(v)
            assert len(calls) == needed > 0, name
            assert report["arf"] == arf(v) == arf_by_majority(v), name
            assert report["arf"] == _arf_of_determinant(-report["determinant"])

    def test_additive_mod_2(self, trefoil, figure_eight):
        s = connected_sum(trefoil, figure_eight)
        assert arf(s) == (arf(trefoil) + arf(figure_eight)) % 2
        rng = random.Random(41)
        for _ in range(60):
            a = random_seifert(rng, rng.randint(1, 3))
            b = random_seifert(rng, rng.randint(1, 3))
            assert arf(connected_sum(a, b)) == (arf(a) + arf(b)) % 2

    def test_mirror_and_congruence_invariant(self):
        # -V^T is the mirror; P V P^T for unimodular P is V on another basis
        rng = random.Random(43)
        for _ in range(100):
            v = random_seifert(rng, rng.randint(1, 4))
            n, rows = v.size, v.rows
            p = random_unimodular(rng, n)
            pv = [[sum(p[i][k] * rows[k][l] for k in range(n))
                   for l in range(n)] for i in range(n)]
            pvpt = SeifertMatrix([[sum(pv[i][l] * p[j][l] for l in range(n))
                                   for j in range(n)] for i in range(n)])
            assert arf(mirror(v)) == arf(v) == arf(pvpt) == arf_by_majority(v)


class TestLevineTristram:
    def test_unknot_everywhere_zero(self):
        for q in (Fraction(1, 3), Fraction(1, 2), Fraction(7, 13)):
            assert levine_tristram(UNKNOT, q) == 0

    def test_trefoil_values(self, trefoil):
        assert levine_tristram(trefoil, Fraction(1, 2)) == -2
        assert levine_tristram(trefoil, Fraction(1, 12)) == 0
        assert levine_tristram(trefoil, Fraction(1, 4)) == -2

    def test_jump_point_rejected(self, trefoil):
        with pytest.raises(PossiblySingularError, match="possibly singular"):
            levine_tristram(trefoil, Fraction(1, 6))

    def test_next_to_a_jump(self, trefoil, monkeypatch):
        # the trefoil jumps from 0 to -2 at theta = 1/6; at 2^-100 from it
        # the 64-bit enclosure of x still holds the root x = 1
        import knotbench.intervals as intervals

        precs = []

        def recording_cos_2pi(theta, prec_bits):
            precs.append(prec_bits)
            return cos_2pi(theta, prec_bits)

        monkeypatch.setattr(intervals, "cos_2pi", recording_cos_2pi)
        for e in (60, 100):
            eps = Fraction(1, 2 ** e)
            for theta, want in ((Fraction(1, 6) - eps, 0),
                                (Fraction(1, 6) + eps, -2),
                                (Fraction(5, 6) - eps, -2),
                                (Fraction(5, 6) + eps, 0)):
                precs.clear()
                assert levine_tristram(trefoil, theta) == want, (e, theta)
                if e == 100:
                    assert max(precs) > 64  # the precision loop ran

    def test_at_minus_one_needs_no_enclosure(self, corpus, monkeypatch):
        # omega = -1: sigma(1/2) = sign(V + V^T), with no cos_2pi call and
        # no x-polynomial, as -1 is never a root of Delta
        import knotbench.intervals as intervals

        calls = []
        monkeypatch.setattr(intervals, "cos_2pi", lambda theta, prec_bits:
                            calls.append(theta) or cos_2pi(theta, prec_bits))
        x_poly = invariants.x_polynomial
        monkeypatch.setattr(invariants, "x_polynomial",
                            lambda v: calls.append(v) or x_poly(v))
        rng = random.Random(18)
        forms = (list(corpus.values())
                 + [random_seifert(rng, 1 + k % 5) for k in range(100)]
                 + [torus(2, q) for q in range(3, 23, 2)]
                 + [torus(3, 4), torus(3, 5), torus(4, 3)])
        half = Fraction(1, 2)
        got = [levine_tristram(v, half) for v in forms]
        assert calls == []
        monkeypatch.undo()
        for v, sigma in zip(forms, got):
            assert sigma == symmetric_signature_reference(v.symmetric_part())
            assert sigma == signature_function(v).value_at(half)

    def test_theta_domain(self, trefoil):
        with pytest.raises(PreconditionError):
            levine_tristram(trefoil, Fraction(0))
        with pytest.raises(PreconditionError):
            levine_tristram(trefoil, Fraction(3, 2))

    def test_values_even_and_bounded(self, corpus):
        for name, v in corpus.items():
            for q in (Fraction(1, 3), Fraction(1, 2), Fraction(4, 9)):
                try:
                    s = levine_tristram(v, q)
                except PossiblySingularError:
                    continue
                assert s % 2 == 0, name
                assert abs(s) <= 2 * v.genus, name

    def test_matches_float_oracle(self):
        rng = random.Random(31)
        for _ in range(40):
            v = random_seifert(rng, rng.randint(1, 3))
            q = Fraction(rng.randint(1, 30), 61)  # 61 prime, avoids jumps mostly
            try:
                exact = levine_tristram(v, q)
            except PossiblySingularError:
                continue
            assert exact == sample_levine_tristram_float(v, float(q))


class TestSignatureFunction:
    def test_unknot(self):
        sf = signature_function(UNKNOT)
        assert sf.jumps == () and sf.values == (0,)

    def test_trefoil(self, trefoil):
        sf = signature_function(trefoil)
        assert len(sf.jumps) == 2
        assert sf.values == (0, -2, 0)
        # jumps exactly at 1/6 and 5/6: x = 1 is the root of the stored
        # minimal polynomial, so theta = acos(1/2)/2pi exactly
        assert sf.jumps[0].poly == (-1, 1)
        assert not sf.jumps[0].upper and sf.jumps[1].upper
        assert sf.jumps[0].enclosure_to_width(
            Fraction(1, 10 ** 15)).contains(Fraction(1, 6))
        assert sf.jumps[1].enclosure_to_width(
            Fraction(1, 10 ** 15)).contains(Fraction(5, 6))

    def test_figure_eight_identically_zero(self, figure_eight):
        sf = signature_function(figure_eight)
        assert sf.jumps == ()
        assert sf.values == (0,)

    def test_jump_symmetry_and_near_zero_arcs(self, corpus):
        for name, v in corpus.items():
            sf = signature_function(v)
            n = len(sf.jumps)
            assert n % 2 == 0, name
            for k in range(n // 2):
                assert not sf.jumps[k].upper
                assert sf.jumps[n - 1 - k].upper
            # arcs adjoining theta = 0 carry signature 0
            assert sf.values[0] == 0, name
            assert sf.values[-1] == 0, name

    def test_stored_by_its_half(self, corpus):
        # low and half determine the whole circle: jumps mirror low as
        # conjugates, and values mirror half about the arc holding 1/2
        rng = random.Random(23)
        forms = list(corpus.values()) + [torus(3, 4)] + [
            random_seifert(rng, rng.randint(1, 4)) for _ in range(30)]
        for v in forms:
            sf = signature_function(v)
            low, half = sf.low, sf.half
            n = len(low)
            assert len(half) == n + 1
            assert all(not a.upper for a in low)
            assert [(a.x_lo, a.x_hi) for a in low] == sorted(
                ((a.x_lo, a.x_hi) for a in low), reverse=True)
            assert sf.jumps == low + tuple(
                a.conjugate() for a in reversed(low))
            assert sf.values == half + half[-2::-1]
            assert sf.value_at(Fraction(1, 2)) == half[-1]

    def test_value_at_and_jump_error(self, trefoil):
        sf = signature_function(trefoil)
        assert sf.value_at(Fraction(1, 3)) == -2
        assert sf.value_at(Fraction(1, 100)) == 0
        assert sf.value_at(Fraction(1, 2)) == -2
        # next to the jumps at 1/6 and 5/6, in both halves of the circle
        eps = Fraction(1, 2 ** 60)
        for theta, want in ((Fraction(1, 6) - eps, 0),
                            (Fraction(1, 6) + eps, -2),
                            (Fraction(5, 6) - eps, -2),
                            (Fraction(5, 6) + eps, 0)):
            assert sf.value_at(theta) == want, theta
        for theta in (Fraction(1, 6), Fraction(5, 6)):
            with pytest.raises(PossiblySingularError, match="possibly singular"):
                sf.value_at(theta)
        for theta in (Fraction(0), Fraction(1)):
            with pytest.raises(PreconditionError):
                sf.value_at(theta)

    def test_levine_tristram_is_value_at(self, corpus):
        # one path for sigma at an angle: levine_tristram and value_at give
        # the same value or both raise PossiblySingularError, at fixed
        # angles, at every exact jump k/n and at 2^-60 on either side of it
        def outcome(f, theta):
            try:
                return f(theta)
            except PossiblySingularError:
                return "singular"

        rng = random.Random(25)
        forms = (list(corpus.values()) + [torus(p, q) for p, q in TORUS_FAMILY]
                 + [random_seifert(rng, 1 + k % 3) for k in range(60)])
        fixed = [Fraction(1, 7), Fraction(2, 5), Fraction(1, 3),
                 Fraction(7, 11), Fraction(3, 10), Fraction(1, 1000)]
        eps = Fraction(1, 2 ** 60)
        exact_jumps = 0
        for v in forms:
            sf = signature_function(v)
            thetas = list(fixed)
            for a in sf.jumps:
                if a.theta is not None:
                    jump = a.enclosure_to_width(eps).lo
                    thetas += [jump, jump - eps, jump + eps]
                    assert outcome(sf.value_at, jump) == "singular"
                    exact_jumps += 1
            for theta in thetas:
                assert (outcome(lambda t: levine_tristram(v, t), theta)
                        == outcome(sf.value_at, theta)), (v, theta)
        assert exact_jumps > 100

    def test_arc_constancy_spot_checks(self):
        rng = random.Random(53)
        for _ in range(12):
            v = random_seifert(rng, rng.randint(1, 2))
            sf = signature_function(v)
            spots = [Fraction(1, 97), Fraction(48, 97), Fraction(96, 97),
                     Fraction(1, 3), Fraction(2, 3)]
            for q in spots:
                try:
                    assert levine_tristram(v, q) == sf.value_at(q)
                except PossiblySingularError:
                    pass

    def test_unimodular_congruence_invariant(self):
        # P V P^T is a Seifert matrix of the same knot for unimodular P
        rng = random.Random(71)
        for _ in range(20):
            v = random_seifert(rng, rng.randint(1, 3))
            n = v.size
            p = [[int(i == j) for j in range(n)] for i in range(n)]
            for _ in range(3 * n):
                i, j = rng.sample(range(n), 2)
                c = rng.choice((-2, -1, 1, 2))
                p[i] = [a + c * b for a, b in zip(p[i], p[j])]
            pv = [[sum(p[i][k] * v.rows[k][l] for k in range(n))
                   for l in range(n)] for i in range(n)]
            w = SeifertMatrix([[sum(pv[i][l] * p[j][l] for l in range(n))
                                for j in range(n)] for i in range(n)])
            assert w != v
            assert signature_function(w).values == signature_function(v).values

    def test_mirror_negates(self, trefoil, corpus):
        for v in (trefoil, corpus["6_2"], corpus["5_2"]):
            sf = signature_function(v)
            sfm = signature_function(mirror(v))
            assert sfm.values == tuple(-x for x in sf.values)
            assert len(sfm.jumps) == len(sf.jumps)

    def test_additive_under_connected_sum(self, trefoil):
        s = connected_sum(trefoil, trefoil)
        sf = signature_function(s)
        assert sf.values == (0, -4, 0)

    def test_pinned_jumps_and_values(self, corpus):
        # sha256 of every jump (minimal polynomial and Sturm box) and arc
        # value over the table and 100 seeded forms, as computed when ps
        # was factored for every knot
        rng = random.Random(53)
        forms = list(corpus.values()) + [
            random_seifert(rng, g)
            for g, count in ((1, 40), (2, 30), (3, 20), (4, 10))
            for _ in range(count)]
        h = hashlib.sha256()
        for v in forms:
            sf = signature_function(v)
            h.update(f"{sf.jumps!r} {sf.values!r}\n".encode())
        assert h.hexdigest() == (
            "d1bfc4e73d5d8379c9af2c52f74c2e5901acc39229a36b7253d7aa22a2d14b5a")

    def test_csv_export(self, trefoil):
        out = signature_csv(signature_function(trefoil), digits=12)
        lines = out.strip().split("\n")
        assert lines[0].startswith("# jump minimal polynomials")
        assert "x - 1" in lines[0]
        assert lines[1] == "theta_lo,theta_hi,sigma"
        assert lines[2] == "0,0.166666666667,0"
        assert lines[3] == "0.166666666667,0.833333333333,-2"
        assert lines[4] == "0.833333333333,1,0"
        # byte-identical on rerun
        assert out == signature_csv(signature_function(trefoil), digits=12)


class TestFiberedObstruction:
    def test_examples(self, trefoil):
        assert fibered_obstruction(trefoil, 1) is None
        assert fibered_obstruction(K61) == "not monic"
        assert fibered_obstruction(UNKNOT) is None

    def test_wrong_claimed_genus(self, trefoil):
        r = fibered_obstruction(trefoil, 2)
        assert r is not None and "claimed genus" in r

    def test_negative_claimed_genus_refused(self, trefoil):
        assert fibered_obstruction(DEGENERATE, 0) is None
        for v in (trefoil, DEGENERATE, UNKNOT):
            with pytest.raises(InputError, match="claimed genus -1"):
                fibered_obstruction(v, -1)


class TestFoxMilnor:
    def test_examples(self, trefoil):
        assert fox_milnor_test(alexander_polynomial(UNKNOT))
        assert fox_milnor_test(alexander_polynomial(K61))
        assert not fox_milnor_test(alexander_polynomial(trefoil))

    def test_61_factorization_oracle(self):
        # (2t - 1)(2/t - 1) = 5 - 2t - 2/t, a unit multiple of Delta(6_1)
        f = LaurentPoly({1: 2, 0: -1})
        prod = f * f.reciprocal()
        assert prod == LaurentPoly({1: -2, 0: 5, -1: -2})
        assert unit_normalize_symmetric(prod) == alexander_polynomial(K61)

    def test_square_knot_passes(self, trefoil):
        sq = connected_sum(trefoil, mirror(trefoil))
        assert fox_milnor_test(alexander_polynomial(sq))

    def test_zero_polynomial_refused(self):
        with pytest.raises(InputError, match="zero polynomial"):
            _fox_milnor(())
        with pytest.raises(InputError, match="zero polynomial"):
            fox_milnor_test(LaurentPoly({}))

    def test_determinant_filter_needs_both_squares(self):
        # |P(2)| and |P(-2)| must both be squares before anything is
        # factored: P(2) = 4 with P(-2) = -8, and P(2) = 2 with P(-2) = -2
        assert not _fox_milnor((-2, 3)) and not _fox_milnor((0, 1))
        assert _fox_milnor((2, 1), (2, 1)) and _fox_milnor((4,))
        assert not _fox_milnor((2,))

    def test_torus_knots_beyond_the_delta_budget(self):
        # deg Delta = 26 and 48 exceed FACTOR_DEGREE_BUDGET, deg P = 13 and
        # 24 do not; every irreducible factor Q of P has |Q(-2)| = 3 or 7,
        # no square, so no lift is factored
        for q in (27, 49):
            assert 2 * FACTOR_DEGREE_BUDGET >= q - 1 > FACTOR_DEGREE_BUDGET
            assert not fox_milnor_test(alexander_polynomial(torus(2, q)))


class TestFoxMilnorAgainstDeltaFactoring:
    """The verdict from P and its lifts equals the verdict from factoring
    Delta and pairing reciprocal factors (``oracles``)."""

    @staticmethod
    def check(v):
        delta = alexander_polynomial(v)
        want = fox_milnor_by_delta_factors(delta)
        assert fox_milnor_test(delta) == want, v
        return want

    @staticmethod
    def passes_filter(delta):
        # |Delta(1)| and |Delta(-1)| both squares: the verdict comes from
        # factoring, not from the determinant filter
        values = (abs(int(delta(1))), abs(int(delta(-1))))
        return all(math.isqrt(n) ** 2 == n for n in values)

    def test_table_knots(self, corpus):
        verdicts = [self.check(v) for v in corpus.values()]
        assert any(verdicts) and not all(verdicts)

    def test_square_determinant_table_knots(self, corpus):
        square = {name: v for name, v in corpus.items()
                  if math.isqrt(determinant(v)) ** 2 == determinant(v)}
        assert {"6_1", "9_1", "granny", "square"} <= set(square)
        verdicts = {name: self.check(v) for name, v in square.items()}
        assert not verdicts["9_1"] and verdicts["6_1"] and verdicts["granny"]

    def test_random_forms(self):
        rng = random.Random(41)
        verdicts = [self.check(random_seifert(rng, g))
                    for g, count in ((1, 60), (2, 60), (3, 30), (4, 10), (5, 4))
                    for _ in range(count)]
        assert any(verdicts) and not all(verdicts)

    def test_knot_minus_itself(self, corpus):
        rng = random.Random(43)
        forms = list(corpus.values()) + [random_seifert(rng, g)
                                         for g in (1, 2, 3) for _ in range(10)]
        for v in forms:
            s = connected_sum(v, mirror(v))
            assert self.passes_filter(alexander_polynomial(s))
            assert self.check(s)

    def test_twist_knot_doubles(self):
        # Delta(K_m) splits exactly when 4m + 1 is a square (m = 2, 6, 12)
        for m in range(1, 13):
            assert self.check(twist(m)) == (m in (2, 6, 12)), m
            double = connected_sum(twist(m), twist(m))
            assert self.passes_filter(alexander_polynomial(double))
            assert self.check(double), m

    def test_torus_family(self):
        for p, q in TORUS_FAMILY:
            assert not self.check(torus(p, q)), (p, q)

    def test_unit_multiples(self, corpus):
        # +-t^k Delta, and polynomials that are no unit multiple of a
        # symmetric one
        for v in list(corpus.values())[:8]:
            delta = alexander_polynomial(v)
            for other in (delta.shift(3), -delta.shift(-2), delta.shift(1) + 1,
                          delta + LaurentPoly({1: 1}), delta * delta.shift(5)):
                assert fox_milnor_test(other) == (
                    fox_milnor_by_delta_factors(other)), other

    def test_products_and_multiples(self, corpus):
        # products of table Deltas, and multiples with |P(2)| != 1: by 4
        # and -9, and by the lifts of x (P(2) = 2), x + 2 ((t + 1)^2 / t,
        # P(2) = 4), 3x - 2 (P(-2) = -8) and x^2 - 2 (P(+-2) = 2)
        deltas = [alexander_polynomial(v) for v in corpus.values()][:10]
        extra = [LaurentPoly.constant(4), LaurentPoly.constant(-9),
                 LaurentPoly({1: 1, -1: 1}), LaurentPoly({1: 1, 0: 2, -1: 1}),
                 LaurentPoly({1: 3, 0: -2, -1: 3}),
                 LaurentPoly({2: 1, -2: 1})]
        inputs = [a * b for a, b in itertools.combinations(deltas, 2)]
        inputs += [d * e for d in deltas for e in extra]
        inputs += [d * e * e for d in deltas[:4] for e in extra]
        assert sum(self.passes_filter(x) for x in inputs) >= 20
        assert sum(abs(x(1)) != 1 for x in inputs) >= 50
        for x in inputs:
            assert fox_milnor_test(x) == fox_milnor_by_delta_factors(x), x


def _count_factor_calls(monkeypatch):
    calls = []
    factor = invariants.factor_integer_poly

    def counting(p):
        calls.append(p)
        return factor(p)

    monkeypatch.setattr(invariants, "factor_integer_poly", counting)
    return calls


class TestFactoringOnlyWhenNeeded:
    def test_nonsquare_determinant_factors_nothing(self, trefoil,
                                                   monkeypatch):
        calls = _count_factor_calls(monkeypatch)
        assert not fox_milnor_test(alexander_polynomial(trefoil))  # det 3
        assert not _fox_milnor(x_polynomial(torus(2, 5)))  # det 5
        assert calls == []
        # det 9 passes the filter: P = (x - 1)^2 is factored, and its
        # factor of even multiplicity needs no lift
        sq = connected_sum(trefoil, mirror(trefoil))
        assert fox_milnor_test(alexander_polynomial(sq))
        assert calls == [(1, -2, 1)]

    def test_rootless_x_polynomial_factors_nothing(self, figure_eight,
                                                   monkeypatch):
        calls = _count_factor_calls(monkeypatch)
        # 4_1: P = x - 3, no root in (-2, 2), so no jump
        assert signature_function(figure_eight).jumps == ()
        assert calls == []

    def test_cyclotomic_jumps_factor_nothing(self, monkeypatch):
        calls = _count_factor_calls(monkeypatch)
        for p, q in TORUS_FAMILY:
            # every jump of a torus knot is at a root of unity
            sf = signature_function(torus(p, q))
            assert len(sf.jumps) == (p - 1) * (q - 1)
        assert calls == []

    def test_other_jumps_factor_the_cofactor_once(self, trefoil, monkeypatch):
        calls = _count_factor_calls(monkeypatch)
        # 5_2: P = 2x - 3, a jump at x = 3/2, not at a root of unity
        sf = signature_function(twist(-2))
        assert sf.x_poly == (-3, 2) and len(sf.jumps) == 2
        assert calls == [sf.x_poly]
        # trefoil # 5_2: ps = (x - 1)(2x - 3); Psi_6 = x - 1 is divided
        # out, and only the cofactor 2x - 3 is factored
        sf = signature_function(connected_sum(trefoil, twist(-2)))
        assert len(sf.jumps) == 4
        assert calls == [(-3, 2), (-3, 2)]
        # the conjugate 5/6 keeps theta = 1/6, the value of its lower branch
        assert [a.theta for a in sf.jumps] == [None, Fraction(1, 6),
                                               Fraction(1, 6), None]


# T(2, 27), T(2, 49), T(3, 7), T(5, 6) and T(4, 7) beyond the family
EXACT_TORUS = TORUS_FAMILY + ((2, 27), (2, 49), (3, 7), (5, 6), (4, 7))


def exact_angles(sf):
    return [a.theta if not a.upper else 1 - a.theta for a in sf.jumps]


class TestCyclotomicJumps:
    def test_candidates_brute_force(self):
        # phi(n) >= sqrt(n/2), the bound n <= 8 r^2 of the search, and the
        # candidate lists against a scan to 20,000, past 8 * 24^2 = 4,608
        phi = {n: totient(n) for n in range(1, 20_000)}
        assert all(2 * f * f >= n for n, f in phi.items())
        for r in range(1, 25):
            want = tuple(n for n in range(3, 20_000) if phi[n] <= 2 * r)
            assert _cyclotomic_candidates(r) == want
        assert len(_cyclotomic_candidates(24)) == 99
        assert _cyclotomic_candidates(24)[-1] == 210

    def test_psi_lifts_to_the_cyclotomic_polynomial(self):
        for n in range(3, 80):
            psi = _psi(n)
            assert len(psi) - 1 == totient(n) // 2 and psi[-1] == 1
            assert _lift(psi) == cyclotomic_poly(n)
        for n in (5, 7, 12, 18, 30):
            assert sympy_is_irreducible(_psi(n))

    @pytest.mark.parametrize("p,q", EXACT_TORUS)
    def test_torus_jumps_exact(self, p, q):
        sf = torus_step_function(p, q)
        assert None not in [a.theta for a in sf.jumps]
        assert exact_angles(sf) == torus_jumps(p, q)
        # the factor-and-enclose path: the same minimal polynomials, and
        # every exact angle lies in its 1e-100 enclosure
        width = Fraction(1, 10 ** 100)
        plain = jumps_by_factoring(sf)
        assert [a.poly for a in plain.jumps] == [a.poly for a in sf.jumps]
        for a, theta in zip(plain.jumps, exact_angles(sf)):
            assert a.theta is None
            assert a.enclosure_to_width(width).contains(theta)

    def test_root_of_unity_test_matches_the_t_side(self):
        # Psi_q dividing the x-polynomial (or its squarefree part) against
        # Phi_q dividing t^d Delta(t), at every theta = k/q with q <= 60;
        # on T(p, q) the roots are exactly its jumps
        rng = random.Random(61)
        knots = ([(torus(p, q), torus_jumps(p, q)) for p, q in TORUS_FAMILY]
                 + [(random_seifert(rng, 1 + k % 3), None) for k in range(50)])
        thetas = [Fraction(k, q) for q in range(2, 61) for k in range(1, q)
                  if math.gcd(k, q) == 1]
        for v, jumps in knots:
            p = x_polynomial(v)
            ps = poly_squarefree_part(p)
            coeffs = alexander_polynomial(v).to_int_poly()[0]
            want = {q: omega_is_alexander_root_t_side(coeffs, Fraction(1, q))
                    for q in range(2, 61)}
            roots = []
            for theta in thetas:
                got = _omega_is_alexander_root(p, theta)
                assert got == _omega_is_alexander_root(ps, theta)
                assert got == want[theta.denominator], (v, theta)
                if got:
                    roots.append(theta)
            if jumps is not None:
                assert sorted(roots) == jumps

    def test_conjugate_keeps_the_exact_angle(self):
        sf = torus_step_function(2, 5)
        low = sf.jumps[0]
        assert low.theta == Fraction(1, 10) and not low.upper
        assert sf.jumps[-1] == low.conjugate()
        assert low.conjugate().conjugate() == low

    def test_mixed_jumps(self, trefoil):
        # trefoil # 5_2 and T(2,5) # a form with a jump off the roots of
        # unity: the cyclotomic jumps are exact, the others are not, and
        # the factoring oracle finds the same minimal polynomials
        rng = random.Random(3)
        while True:
            form = random_seifert(rng, 2)
            sf = signature_function(form)
            if sf.jumps and None in [a.theta for a in sf.jumps]:
                break
        for v, want in ((connected_sum(trefoil, twist(-2)), [Fraction(1, 6)]),
                        (connected_sum(torus(2, 5), form),
                         [Fraction(k, 10) for k in (1, 3)])):
            sf = signature_function(v)
            low = [a.theta for a in sf.jumps if not a.upper]
            assert sorted(t for t in low if t is not None) == want
            assert None in low
            plain = jumps_by_factoring(sf)
            assert [a.poly for a in plain.jumps] == [a.poly for a in sf.jumps]


def _x_poly_of(f):
    """The x-polynomial of f(t) f*(t), f* = t^(deg f) f(1/t)."""
    prod = poly_mul(f, tuple(reversed(f)))
    return _laurent_to_x(LaurentPoly.from_int_poly(prod, 1 - len(f)))


class TestLiftLemma:
    """``_lift_splits`` against sympy's factorisation of the lift."""

    @staticmethod
    def sympy_splits(q):
        r = _lift(q)
        content, factors = sympy_factor_list(r)
        assert abs(content) == abs(math.gcd(*q))  # R has the content of Q
        if q not in ((-2, 1), (2, 1)) and len(factors) > 1:
            # R = c f f* with f irreducible and f != +-f*
            (f, m1), (g, m2) = factors
            assert m1 == m2 == 1
            mates = {tuple(reversed(f)), tuple(-c for c in reversed(f))}
            assert g in mates and f not in mates
        return sum(m for _, m in factors) > 1

    def test_seeded_irreducible_factors(self):
        rng = random.Random(47)
        qs = [(-2, 1), (2, 1), (0, 1), (-9, 0, 3), (5, -2), (-15, 6),
              (-1, 1), (1, 1, 1)]
        while len(qs) < 60:
            q = poly_trim([rng.randint(-6, 6) for _ in range(rng.randint(2, 5))])
            if len(q) > 1 and sympy_is_irreducible(q):
                qs.append(q)
        # lifts that split: x-polynomials of f f* for irreducible ones
        while len(qs) < 90:
            f = poly_trim([rng.randint(-4, 4) for _ in range(rng.randint(2, 4))])
            if len(f) < 2 or not f[0]:
                continue
            q = _x_poly_of(f)
            if sympy_is_irreducible(q):
                qs.append(q)
                qs.append(tuple(3 * c for c in q))  # content 3
        splits = [self.sympy_splits(q) for q in qs]
        assert [_lift_splits(q) for q in qs] == splits
        assert 20 <= sum(splits) < len(qs)


class TestAlgebraicConcordance:
    def test_reflexive(self, trefoil):
        assert algebraically_concordant_test(trefoil, trefoil) == ()

    def test_trefoil_vs_unknot(self, trefoil):
        r = algebraically_concordant_test(trefoil, UNKNOT)
        assert r != ()
        assert "signature function" in r

    def test_61_vs_unknot_indistinguishable(self):
        r = algebraically_concordant_test(K61, UNKNOT)
        assert r == ()

    def test_arf_distinguishes(self, trefoil):
        sq = connected_sum(trefoil, mirror(trefoil))  # arf 0, sigma 0
        r = algebraically_concordant_test(trefoil, sq)
        assert "arf" in r

    def test_jump_sets_compared_exactly(self, trefoil, corpus):
        # 5_1 and trefoil have different jump sets (x-1 vs golden-ratio poly)
        r = algebraically_concordant_test(trefoil, corpus["5_1"])
        assert "signature function" in r

    def test_slice_sum_vs_unknot(self):
        # T(2,5) # -T(2,5) is slice; its signature function is 0 on every
        # arc although Delta has unit-circle roots
        t25 = seifert_matrix_from_braid(BraidWord(2, [1] * 5))
        r = algebraically_concordant_test(connected_sum(t25, mirror(t25)),
                                          UNKNOT)
        assert r == (), r

    def test_adding_a_slice_summand(self, trefoil):
        t25 = seifert_matrix_from_braid(BraidWord(2, [1] * 5))
        k = connected_sum(trefoil, connected_sum(t25, mirror(t25)))
        r = algebraically_concordant_test(trefoil, k)
        assert r == (), r

    def test_knot_minus_itself_vs_unknot(self, corpus):
        for name, v in corpus.items():
            r = algebraically_concordant_test(connected_sum(v, mirror(v)),
                                              UNKNOT)
            assert r == (), (name, r)

    def test_pair_beyond_one_factor_budget(self):
        # deg 20 + deg 20 exceeds FACTOR_DEGREE_BUDGET for the product, but
        # each Alexander polynomial is factored on its own
        t21 = seifert_matrix_from_braid(BraidWord(2, [1] * 21))
        t13 = seifert_matrix_from_braid(BraidWord(2, [1] * 13))
        assert algebraically_concordant_test(t21, t21) == ()
        r = algebraically_concordant_test(t21, t13)
        assert r != ()
        assert "fox_milnor" in r

    def test_fox_milnor_matches_product_route(self, corpus):
        # on table pairs whose product fits the budget, the verdict is the
        # Fox-Milnor test of the product polynomial
        for (n1, v1), (n2, v2) in itertools.combinations_with_replacement(
                sorted(corpus.items()), 2):
            d1, d2 = alexander_polynomial(v1), alexander_polynomial(v2)
            if d1.span + d2.span > FACTOR_DEGREE_BUDGET:
                continue
            r = algebraically_concordant_test(v1, v2)
            assert ("fox_milnor" in r) == (
                not fox_milnor_test(d1 * d2)), (n1, n2)
