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
    _arc_point,
    _arf_of_determinant,
    _cyclotomic_candidates,
    _fox_milnor,
    _laurent_to_x,
    _lift,
    _lift_splits,
    _omega_is_alexander_root,
    _psi,
    _separate_boxes,
    _squares_at_pm2,
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
from knotbench.intervals import AlgebraicAngle, IntervalReal, cos_2pi
from knotbench.polynomials import (FACTOR_DEGREE_BUDGET, LaurentPoly,
                                   count_real_roots, cyclotomic_poly,
                                   poly_eval, poly_mul, poly_primitive,
                                   poly_sign_at, poly_squarefree_part,
                                   poly_trim, sturm_isolate, sturm_sequence)
from knotbench.seifert import (SeifertMatrix, UNKNOT, connected_sum,
                               integer_determinant, mirror)

from conftest import (random_seifert, random_unimodular, torus,
                      torus_step_function)
from oracles import (arf_by_majority, fox_milnor_by_delta_factors,
                     jumps_by_factoring, omega_is_alexander_root_t_side,
                     poly_matrix_det, realified_arc_signature,
                     sample_levine_tristram_float, sympy_factor_list,
                     sympy_is_irreducible, symmetric_signature_reference,
                     torus_jumps, totient, unit_normalize_symmetric)

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


def _assert_points_on_arcs(p):
    """Every arc of the roots of p in (-2, 2) but the one holding 1/2 gets
    an r > 0 whose x(r) = 2(1 - r^2)/(1 + r^2) is no root of ps, the
    squarefree part of p, and has exactly k roots of ps above it; the last
    arc gets None."""
    chain = sturm_sequence(p)
    ps = poly_squarefree_part(p)
    n = count_real_roots(ps, -2, 2)
    for k in range(n):
        r = _arc_point(chain, k)
        x = 2 * (1 - r * r) / (1 + r * r)
        assert r > 0 and poly_sign_at(ps, x), (p, k, r)
        assert count_real_roots(ps, x, 2) == k, (p, k, r)
    assert _arc_point(chain, n) is None, p


class TestArcPoint:
    """``_arc_point`` places a rational tan(pi theta) on an arc from the
    Sturm chain alone, by exact root counts."""

    def test_every_arc_point_lands_on_its_arc(self, corpus):
        rng = random.Random(37)
        forms = (list(corpus.values())
                 + [random_seifert(rng, 1 + k % 4) for k in range(100)]
                 # exact jumps at 1/26 and 1/22, 0.023 apart in x
                 + [connected_sum(torus(2, 11), mirror(torus(2, 13)))])
        for v in forms:
            _assert_points_on_arcs(x_polynomial(v))
        # the products P1 P2 whose arcs algebraically_concordant_test
        # compares, for every pair of table knots
        for (_, v1), (_, v2) in itertools.combinations_with_replacement(
                sorted(corpus.items()), 2):
            _assert_points_on_arcs(poly_mul(x_polynomial(v1),
                                            x_polynomial(v2)))

    def test_random_chains(self):
        # the search ends on any chain with no root at +-2: repeated roots,
        # roots outside (-2, 2), and roots 2^-e apart for e up to 100
        rng = random.Random(31)
        for _ in range(200):
            p = (1,)
            for _ in range(rng.randint(1, 5)):
                b = rng.randint(1, 9)
                a = rng.randint(-3 * b, 3 * b)
                p = poly_mul(p, (-a, b))
                if rng.random() < 0.4:  # a root at a/b + 2^-e
                    e = rng.randint(1, 100)
                    p = poly_mul(p, (-(a << e) - b, b << e))
            if poly_sign_at(p, 2) and poly_sign_at(p, -2):
                _assert_points_on_arcs(p)

    def test_arcs_outside_the_chain_raise(self):
        chain = sturm_sequence(x_polynomial(T25_MINUS_T23))  # 3 jumps
        assert _arc_point(chain, 3) is None
        for k in (-1, 4):
            with pytest.raises(PreconditionError, match=f"no arc {k} among"):
                _arc_point(chain, k)


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
            report, _ = _classical_invariants(v)
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

    @pytest.mark.parametrize("e", [60, 100])
    def test_next_to_exact_jumps(self, trefoil, e):
        # the first jumps of T(2,3), at 1/6, and of T(2,21), at 1/42, are
        # exact, from 0 to -2: at 2^-e on either side of them theta is
        # placed on its arc and evaluated at a point of that arc
        for v, jump in ((trefoil, Fraction(1, 6)),
                        (torus(2, 21), Fraction(1, 42))):
            sf = signature_function(v)
            assert sf.low[0].theta == jump and sf.half[:2] == (0, -2)
            eps = Fraction(1, 2 ** e)
            for theta, want in ((jump - eps, 0), (jump + eps, -2),
                                (1 - jump - eps, -2), (1 - jump + eps, 0)):
                assert levine_tristram(v, theta) == want, (v, theta)
                assert sf.value_at(theta) == want, (v, theta)

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
            # ascending theta, told apart by enclosures: an exact jump
            # has no x-box to order by
            encs = [a.enclosure_to_width(Fraction(1, 10 ** 12)) for a in low]
            assert all(e.hi < f.lo for e, f in zip(encs, encs[1:]))
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

    def test_theta_checked_before_any_chain(self, trefoil, monkeypatch):
        # theta outside (0, 1) and a jump at a root of unity raise before
        # a remainder sequence is built; a valid theta builds one
        sf = signature_function(trefoil)
        chains = []
        sequence = invariants.sturm_sequence
        monkeypatch.setattr(invariants, "sturm_sequence",
                            lambda p: chains.append(p) or sequence(p))
        for f in (sf.value_at, lambda theta: levine_tristram(trefoil, theta)):
            for theta in (Fraction(0), Fraction(1), Fraction(3, 2)):
                with pytest.raises(PreconditionError):
                    f(theta)
            with pytest.raises(PossiblySingularError):
                f(Fraction(1, 6))
        assert chains == []
        assert sf.value_at(Fraction(1, 3)) == -2
        assert chains == [sf.x_poly]

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
        # sha256 of every jump's repr and every arc value over the table
        # and 100 seeded forms; a jump at a root of unity prints its
        # minimal polynomial Psi_n and exact angle k/n, and every other jump
        # its minimal polynomial and separated Sturm box
        h = hashlib.sha256()
        for v in _pinned_forms(corpus):
            sf = signature_function(v)
            h.update(f"{sf.jumps!r} {sf.values!r}\n".encode())
        assert h.hexdigest() == (
            "549904f26ed9fbe8cc71064c7d7a0b1cc5e427071738c84464d9730b8700c491")

    def test_pinned_jumps_and_values_without_boxes(self, corpus):
        # sha256 of every jump's minimal polynomial, exact angle and branch,
        # its enclosure to width 1e-30, and the arc values, over the forms
        # of test_pinned_jumps_and_values: no x-box enters it, so it holds
        # however a box is found
        width = Fraction(1, 10 ** 30)
        h = hashlib.sha256()
        for v in _pinned_forms(corpus):
            sf = signature_function(v)
            jumps = [(a.poly, a.theta, a.upper, a.enclosure_to_width(width))
                     for a in sf.jumps]
            h.update(f"{jumps!r} {sf.values!r}\n".encode())
        assert h.hexdigest() == (
            "6c3a712cb7ec0d0f7634c6305fe8713114627959076ee21135fa4862c7b90af8")

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


def _pinned_forms(corpus):
    """The table and 100 seeded forms of genus 1 to 4."""
    rng = random.Random(53)
    return list(corpus.values()) + [
        random_seifert(rng, g)
        for g, count in ((1, 40), (2, 30), (3, 20), (4, 10))
        for _ in range(count)]


def _count_eliminations(monkeypatch):
    """A list that ``signature_function`` extends with the point of every
    arc it evaluates through ``_arc_signature``."""
    calls = []
    real = invariants._arc_signature

    def counted(v, r):
        calls.append(r)
        return real(v, r)

    monkeypatch.setattr(invariants, "_arc_signature", counted)
    return calls


def _every_arc(v):
    chain, low = invariants._arcs(x_polynomial(v))
    return tuple(invariants._arc_signature(v, _arc_point(chain, k))
                 for k in range(len(low) + 1))


T23 = torus(2, 3)
# sigma is not monotone on (0, 1/2): its half is (0, -2, 0, -2), so the
# jump bound leaves inner arcs open and the bisection evaluates them
T25_MINUS_T23 = connected_sum(torus(2, 5), mirror(T23))


class TestArcBisection:
    def test_half_equals_every_arc(self, corpus):
        rng = random.Random(61)
        forms = (list(corpus.values())
                 + [torus(p, q) for p, q in TORUS_FAMILY]
                 + [random_seifert(rng, 1 + k % 5) for k in range(200)]
                 + [connected_sum(T23, T23), T25_MINUS_T23])
        # P not squarefree, and sigma not monotone when J has jumps
        for _ in range(20):
            k = random_seifert(rng, rng.randint(1, 2))
            j = random_seifert(rng, rng.randint(1, 2))
            forms.append(connected_sum(connected_sum(k, k), mirror(j)))
        for v in forms:
            assert signature_function(v).half == _every_arc(v), v

    def test_monotone_torus_knots_evaluate_one_arc(self, monkeypatch):
        calls = _count_eliminations(monkeypatch)
        for p, q in TORUS_FAMILY:
            del calls[:]
            sf = signature_function(torus(p, q))
            # only the arc holding 1/2 is evaluated
            assert calls == [None], (p, q)
            assert len(sf.half) >= 2

    def test_knots_without_jumps_evaluate_nothing(self, monkeypatch,
                                                  figure_eight):
        calls = _count_eliminations(monkeypatch)
        for v in (UNKNOT, figure_eight):
            assert signature_function(v).half == (0,)
        assert calls == []

    def test_open_arcs_are_evaluated(self, monkeypatch):
        calls = _count_eliminations(monkeypatch)
        assert signature_function(T25_MINUS_T23).half == (0, -2, 0, -2)
        assert len(calls) > 1

    def test_impossible_arc_values_raise(self, monkeypatch):
        real = invariants._arc_signature
        # the trefoil's last arc is -2; its one jump allows at most 2
        monkeypatch.setattr(invariants, "_arc_signature",
                            lambda v, r: 6 if r is None else real(v, r))
        with pytest.raises(PreconditionError, match="differ by more than 2"):
            signature_function(T23)
        # of (0, -2, 0, -2), arc 1 and then arc 2 are evaluated; arc 2
        # read as -6 is 4 from arc 1 across one jump of at most 2
        arc2 = _arc_point(sturm_sequence(x_polynomial(T25_MINUS_T23)), 2)
        monkeypatch.setattr(invariants, "_arc_signature",
                            lambda v, r: -6 if r == arc2 else real(v, r))
        with pytest.raises(PreconditionError,
                           match="-2 and -6 differ by more than 2"):
            signature_function(T25_MINUS_T23)

    def test_first_arc_is_zero_by_the_oracle(self, corpus):
        # the first arc is never evaluated; the realified form confirms 0
        rng = random.Random(67)
        forms = (list(corpus.values()) + [T25_MINUS_T23, torus(3, 4)]
                 + [random_seifert(rng, 1 + k % 3) for k in range(40)])
        for v in forms:
            r = _arc_point(sturm_sequence(x_polynomial(v)), 0)
            assert realified_arc_signature(v, r) == 0, v


def _count_calls(monkeypatch, *names):
    """name -> the argument tuples of every call of each named function of
    ``invariants``."""
    calls = {}
    for name in names:
        real = getattr(invariants, name)
        calls[name] = []
        monkeypatch.setattr(
            invariants, name,
            lambda *args, real=real, seen=calls[name]:
            seen.append(args) or real(*args))
    return calls


def _count_cos_2pi(monkeypatch):
    """A list that gets the angle of every ``intervals.cos_2pi`` call."""
    import knotbench.intervals as intervals

    calls = []
    real = intervals.cos_2pi
    monkeypatch.setattr(intervals, "cos_2pi", lambda theta, prec_bits=64:
                        calls.append(theta) or real(theta, prec_bits))
    return calls


class TestRootsOfUnityFirst:
    """Jumps at roots of unity are their exact angles k/n, with no Sturm
    isolation and no x-box, and an arc gets a sample point only when it is
    evaluated."""

    def test_torus_knots_isolate_nothing(self, monkeypatch, trefoil):
        calls = _count_calls(monkeypatch, "_isolate", "_separate_boxes",
                             "_arc_point")
        enclosed = _count_cos_2pi(monkeypatch)
        evaluated = _count_eliminations(monkeypatch)
        for p, q in TORUS_FAMILY:
            del evaluated[:]
            sf = signature_function(torus(p, q))
            assert None not in [a.theta for a in sf.jumps], (p, q)
            assert {(a.x_lo, a.x_hi) for a in sf.jumps} == {(None, None)}
            assert evaluated == [None], (p, q)
        assert calls == {"_isolate": [], "_separate_boxes": [],
                         "_arc_point": []}
        assert enclosed == []
        # a jump off the roots of unity isolates, and its arcs still get
        # no point when none is evaluated
        signature_function(connected_sum(trefoil, twist(-2)))
        assert len(calls["_isolate"]) == 1 and calls["_arc_point"] == []
        assert enclosed == []

    def test_a_sixth_is_one_angle_however_it_is_found(self, trefoil):
        # the jump at 1/6 of T(2,3), of T(2,3) # T(2,5) (found with the
        # jumps of Psi_10) and of T(2,3) # 5_2 (found among Sturm boxes)
        # is one value: equal, with one hash and one repr
        sixths = []
        for v in (trefoil, connected_sum(trefoil, torus(2, 5)),
                  connected_sum(trefoil, twist(-2))):
            sixths += [a for a in signature_function(v).low
                       if a.theta == Fraction(1, 6)]
        assert len(sixths) == 3
        assert len(set(sixths)) == 1 and len(set(map(hash, sixths))) == 1
        assert {repr(a) for a in sixths} == {
            "AlgebraicAngle(acos(x/2)/2pi, x - 1, theta=1/6)"}
        assert sixths[0].enclosure(64) == IntervalReal.exact(Fraction(1, 6))

    def test_levine_tristram_encloses_only_its_arc(self, monkeypatch):
        # T(2,21) jumps at k/42; theta = 1/7 = 6/42 lies on the arc between
        # 5/42 and 1/6: one enclosure of x at 1/7 places it, and the point
        # of its arc comes from root counts, with no enclosure of the two
        # exact angles that bound it
        calls = _count_cos_2pi(monkeypatch)
        t221 = torus(2, 21)
        sigma = levine_tristram(t221, Fraction(1, 7))
        assert calls == [Fraction(1, 7)]
        monkeypatch.undo()
        assert sigma == signature_function(t221).value_at(Fraction(1, 7))

    def test_repeated_interleaved_and_mixed_jumps(self, corpus,
                                                  monkeypatch):
        rng = random.Random(3)
        while True:
            form = random_seifert(rng, 2)
            sf = signature_function(form)
            if sf.jumps and None in [a.theta for a in sf.jumps]:
                break
        t25 = torus(2, 5)
        sixth = Fraction(1, 6)
        tenths = [Fraction(1, 10), Fraction(3, 10)]
        # (knot, its half or None, its exact angles, whether an arc below
        # the one holding 1/2 is evaluated)
        cases = (
            # Psi_6^2 divides P: one jump, of 4
            (connected_sum(T23, T23), (0, -4), [sixth], False),
            # Psi_10 Psi_6: the two factors' jumps interleave
            (connected_sum(T23, t25), (0, -2, -4, -6),
             [tenths[0], sixth, tenths[1]], False),
            # sigma is not monotone, so arcs between unit boxes are evaluated
            (T25_MINUS_T23, (0, -2, 0, -2), [tenths[0], sixth, tenths[1]],
             True),
            # a jump off the roots of unity: Sturm boxes for all of them
            (connected_sum(t25, form), None, tenths, True),
            # 5_2 # mirror(T(2,5)): exact, boxed, exact, with evaluated
            # arcs between them
            (connected_sum(corpus["5_2"], mirror(t25)), (0, 2, 0, 2),
             tenths, True),
            # 6_2 # mirror(T(2,7)): two exact jumps, a boxed one, an exact
            (connected_sum(corpus["6_2"], mirror(torus(2, 7))),
             (0, 2, 4, 2, 4), [Fraction(k, 14) for k in (1, 3, 5)], True),
        )
        for v, half, exact, inner_evaluated in cases:
            calls = _count_calls(monkeypatch, "_arc_point")
            evaluated = _count_eliminations(monkeypatch)
            sf = signature_function(v)
            monkeypatch.undo()
            # a point for each arc evaluated below the one holding 1/2, and
            # for no other
            inner = [r for r in evaluated if r is not None]
            assert len(calls["_arc_point"]) == len(inner), v
            assert bool(inner) == inner_evaluated, v
            if half is not None:
                assert sf.half == half, v
            thetas = [a.theta for a in sf.low]
            assert [t for t in thetas if t is not None] == exact, v
            assert sf.half == _every_arc(v), v
            plain = jumps_by_factoring(sf)
            assert [a.poly for a in plain.jumps] == [a.poly
                                                     for a in sf.jumps], v

    def test_overlapping_enclosures_do_not_hinder_a_point(self, monkeypatch):
        # T(2,11) # T(2,13) jumps at 1/26 and 1/22, 0.023 apart in x.
        # cos_2pi widened to a valid enclosure 15.6/n^2 wide in x makes
        # the enclosures of those two angles overlap; the point of the arc
        # between them comes from root counts with no enclosure, lands on
        # its arc, and the step function does not change
        import knotbench.intervals as intervals

        v = connected_sum(torus(2, 11), torus(2, 13))
        chain, low = invariants._arcs(x_polynomial(v))
        k = low.index(AlgebraicAngle(_psi(22), theta=Fraction(1, 22)))
        assert low[k - 1] == AlgebraicAngle(_psi(26), theta=Fraction(1, 26))
        real = intervals.cos_2pi

        def wide(theta, prec_bits=64):
            c = real(theta, prec_bits)
            pad = Fraction(39, 10 * theta.denominator ** 2)
            return intervals.IntervalReal(c.lo - pad, c.hi + pad)

        assert 2 * wide(Fraction(1, 26)).lo < 2 * wide(Fraction(1, 22)).hi
        monkeypatch.setattr(intervals, "cos_2pi", wide)
        enclosed = _count_cos_2pi(monkeypatch)
        r = _arc_point(chain, k)
        x = 2 * (1 - r * r) / (1 + r * r)
        assert 2 * real(Fraction(1, 22), 64).hi < x
        assert x < 2 * real(Fraction(1, 26), 64).lo
        got = signature_function(v).half, _every_arc(v)
        assert enclosed == []
        monkeypatch.undo()
        half = signature_function(v).half
        assert got == (half, half)
        assert len(set(half)) == len(half)  # monotone: each arc told

    def test_signature_function_encloses_nothing(self, corpus, monkeypatch):
        # arc points come from the Sturm chain, so no knot's step function
        # makes a cos_2pi call: exact jumps, boxes, and both interleaved,
        # with inner arcs evaluated
        enclosed = _count_cos_2pi(monkeypatch)
        evaluated = _count_eliminations(monkeypatch)
        rng = random.Random(41)
        forms = (list(corpus.values())
                 + [torus(p, q) for p, q in TORUS_FAMILY]
                 + [random_seifert(rng, 1 + k % 4) for k in range(60)]
                 + [T25_MINUS_T23,
                    connected_sum(torus(2, 11), mirror(torus(2, 13))),
                    connected_sum(corpus["5_2"], mirror(torus(2, 5))),
                    connected_sum(corpus["6_2"], mirror(torus(2, 7)))])
        for v in forms:
            signature_function(v)
        assert [r for r in evaluated if r is not None]
        assert enclosed == []

    def test_levine_tristram_and_concordance_isolate_nothing(
            self, corpus, monkeypatch):
        # both need arc points only, which the Sturm chain gives: no root
        # is isolated, even where signature_function isolates boxes
        calls = _count_calls(monkeypatch, "_isolate")
        mixed = [connected_sum(T23, twist(-2)),
                 connected_sum(corpus["5_2"], mirror(torus(2, 5))),
                 connected_sum(corpus["6_2"], mirror(torus(2, 7)))]
        for v in mixed:
            for theta in (Fraction(1, 7), Fraction(2, 5), Fraction(5, 9),
                          Fraction(1, 3)):
                levine_tristram(v, theta)
            algebraically_concordant_test(v, UNKNOT)
            algebraically_concordant_test(v, T23)
        assert calls["_isolate"] == []
        for v in mixed:
            signature_function(v)
        assert len(calls["_isolate"]) == len(mixed)


class TestOneSturmChainPerArcs:
    def test_arcs_isolate_from_the_chain_of_the_squarefree_part(
            self, corpus, monkeypatch):
        # one remainder sequence per x-polynomial, with the squarefree part
        # that poly_squarefree_part gives, and one jump per root in
        # (-2, 2): the roots at roots of unity are their exact angles, and
        # the others keep the separated boxes that sturm_isolate gives, in
        # ascending theta, and each exact angle takes the place of the box
        # of its root; a knot with every root at a root of unity has no box
        chains = []
        sequence = invariants.sturm_sequence
        monkeypatch.setattr(invariants, "sturm_sequence",
                            lambda p: chains.append(p) or sequence(p))
        rng = random.Random(71)
        forms = (list(corpus.values())
                 + [torus(p, q) for p, q in TORUS_FAMILY]
                 + [random_seifert(rng, 1 + k % 4) for k in range(40)]
                 + [UNKNOT, connected_sum(T23, T23), T25_MINUS_T23]
                 # mixed: exact jumps and boxes interleave
                 + [connected_sum(T23, twist(-2)),
                    connected_sum(corpus["5_2"], mirror(torus(2, 5))),
                    connected_sum(corpus["6_2"], mirror(torus(2, 7))),
                    connected_sum(connected_sum(T23, twist(-2)),
                                  corpus["6_2"])])
        for v in forms:
            p = x_polynomial(v)
            del chains[:]
            chain, low = invariants._arcs(p)
            assert chains == [p], v
            ps = poly_primitive(chain[0])
            assert ps == poly_squarefree_part(p), v
            assert len(low) == count_real_roots(p, -2, 2), v
            # the roots off the roots of unity, by factoring: a box whose
            # sign-changing factor of ps is no Psi_n
            psis = {_psi(n) for n in _cyclotomic_candidates(len(ps) - 1)}
            factors = [f for f, _ in sympy_factor_list(ps)[1]]
            boxes = _separate_boxes(ps, sturm_isolate(p, -2, 2))[::-1]
            on_psi = [next(f for f in factors if poly_sign_at(f, lo)
                           != poly_sign_at(f, hi)) in psis
                      for lo, hi in boxes]
            off = [box for box, exact in zip(boxes, on_psi) if not exact]
            assert [(a.x_lo, a.x_hi) for a in low if a.theta is None] == off, v
            for a, (lo, hi), exact in zip(low, boxes, on_psi):
                if exact:
                    x = cos_2pi(a.theta, 256)
                    assert lo < 2 * x.lo and 2 * x.hi < hi, (v, a)


class TestOneSturmChainPerLevineTristram:
    def test_levine_tristram_reuses_the_chain_of_arcs(
            self, corpus, monkeypatch):
        # _arcs builds the remainder sequence of the x-polynomial, and
        # _arc_index counts roots with that same chain
        chains = []
        sequence = invariants.sturm_sequence
        monkeypatch.setattr(invariants, "sturm_sequence",
                            lambda p: chains.append(p) or sequence(p))
        forms = (list(corpus.values())
                 + [torus(p, q) for p, q in TORUS_FAMILY[:4]]
                 + [UNKNOT, connected_sum(T23, T23), T25_MINUS_T23])
        for v in forms:
            p = x_polynomial(v)
            for theta in (Fraction(1, 7), Fraction(2, 5), Fraction(5, 9)):
                del chains[:]
                sigma = levine_tristram(v, theta)
                assert chains == [p], (v, theta)
                assert sigma == signature_function(v).value_at(theta)


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

    def test_mixed_jumps(self, trefoil, corpus):
        # trefoil # 5_2, T(2,5) # a form with a jump off the roots of
        # unity, and trefoil # 5_2 # 6_2, whose cofactor (2x - 3)(x^2 -
        # 3x + 1) of Psi_6 is reducible: the cyclotomic jumps are exact,
        # the others are not, and the factoring oracle finds the same
        # minimal polynomials
        rng = random.Random(3)
        while True:
            form = random_seifert(rng, 2)
            sf = signature_function(form)
            if sf.jumps and None in [a.theta for a in sf.jumps]:
                break
        for v, want in ((connected_sum(trefoil, twist(-2)), [Fraction(1, 6)]),
                        (connected_sum(torus(2, 5), form),
                         [Fraction(k, 10) for k in (1, 3)]),
                        (connected_sum(connected_sum(trefoil, twist(-2)),
                                       corpus["6_2"]), [Fraction(1, 6)])):
            sf = signature_function(v)
            low = [a.theta for a in sf.jumps if not a.upper]
            assert sorted(t for t in low if t is not None) == want
            assert None in low
            plain = jumps_by_factoring(sf)
            assert [a.poly for a in plain.jumps] == [a.poly for a in sf.jumps]
            # each exact angle lies in its independent 1e-30 enclosure
            width = Fraction(1, 10 ** 30)
            for a, b in zip(sf.jumps, plain.jumps):
                if a.theta is not None:
                    theta = a.enclosure(64).lo
                    assert b.enclosure_to_width(width).contains(theta)

    def test_boxes_that_miss_an_exact_root_raise(self, trefoil,
                                                 monkeypatch):
        # trefoil # 5_2: ps = (x - 1)(2x - 3), and only the box of 3/2
        # kept: no box is left for the exact angle 1/6
        separate = invariants._separate_boxes
        monkeypatch.setattr(invariants, "_separate_boxes",
                            lambda ps, boxes: separate(ps, boxes)[1:])
        with pytest.raises(PreconditionError,
                           match=r"boxes of 2\*x\^2 - 5\*x \+ 3 miss a root"):
            signature_function(connected_sum(trefoil, twist(-2)))

    def test_box_that_no_factor_claims(self, monkeypatch):
        # 2x - 3 is no Psi_n, and its root 3/2 lies outside the box (0, 1)
        chain, _ = invariants._arcs((-3, 2))
        monkeypatch.setattr(
            invariants, "_arcs",
            lambda p: (chain, (AlgebraicAngle((-3, 2), 0, 1),)))
        with pytest.raises(PreconditionError,
                           match=r"no irreducible factor of 2\*x - 3"):
            signature_function(twist(-2))


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

    def test_linear_lifts_factor_nothing(self, monkeypatch):
        # R = q1 t^2 + q0 t + q1 splits iff Q(2) Q(-2) >= 0 once |Q(2)| and
        # |Q(-2)| are squares: 2x -+ 5 split, 5x -+ 6 do not
        rng = random.Random(53)
        qs = [(-2, 1), (2, 1), (-5, 2), (5, 2), (-6, 5), (6, 5), (-15, 6),
              (-3, 1), (0, 1), (-10, 4)]
        while len(qs) < 60:
            q = (rng.randint(-40, 40), rng.randint(1, 20))
            if _squares_at_pm2(q):
                qs.append(q)
        splits = [self.sympy_splits(q) for q in qs]
        calls = _count_factor_calls(monkeypatch)
        assert [_lift_splits(q) for q in qs] == splits
        assert calls == []
        assert 0 < sum(splits) < len(qs)


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
