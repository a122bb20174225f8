#!/usr/bin/env python3
"""Tests of the benchmark's own checks.

    python3 bench/selftest.py

Each check must accept the program's result and reject the same result
perturbed: a rho0 shifted by twice the requested width, one arc value
negated, a dimension off by one, a depth off by one, and a few more.  The
oracles' closed forms are also compared with numpy on the program's
matrices.
"""

import os
import random
import sys
import unittest
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import knotbench.braids as braids  # noqa: E402
import knotbench.diagrams as diagrams  # noqa: E402
import knotbench.invariants as invariants  # noqa: E402
import knotbench.rho as rho  # noqa: E402
from knotbench.seifert import SeifertMatrix  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402
from oracles import CheckFailed  # noqa: E402

WIDTH = workloads.SIG_WIDTH


def shifted(lo, hi, by):
    return lo + by, hi + by


def negate_one_arc(values):
    k = next(i for i, v in enumerate(values) if v)
    return values[:k] + (-values[k],) + values[k + 1:]


class SignatureChecks(unittest.TestCase):
    def setUp(self):
        rng = random.Random(5)
        self.knots = [
            braids.seifert_matrix_from_braid(workloads.torus_braid(2, 3)),
            braids.seifert_matrix_from_braid(
                braids.parse_braid("n=3; 1 -2 1 -2")),
            SeifertMatrix(workloads.random_seifert_rows(rng, 2)),
        ]

    def results(self, v):
        rows = [list(r) for r in v.rows]
        delta = workloads.delta_dict(invariants.alexander_polynomial(v))
        sf = invariants.signature_function(v)
        r = rho.rho0_from_step_function(sf, WIDTH)
        return rows, delta, sf, r

    def test_accepts_and_rejects(self):
        for v in self.knots:
            rows, delta, sf, r = self.results(v)
            jumps = workloads.enclosures(sf.jumps)
            det = invariants.determinant(v)
            angles = oracles.check_signature_function(rows, delta, sf.values,
                                                      jumps)
            oracles.check_rho_float(sf.values, angles, r.value.lo,
                                    r.value.hi, WIDTH)
            oracles.check_alexander(rows, delta)
            oracles.check_determinant(rows, det)
            oracles.check_arf(rows, invariants.arf(v))

            lo, hi = shifted(r.value.lo, r.value.hi, 2 * WIDTH)
            with self.assertRaises(CheckFailed):
                oracles.check_rho_float(sf.values, angles, lo, hi, WIDTH)
            if any(sf.values):
                with self.assertRaises(CheckFailed):
                    oracles.check_signature_function(
                        rows, delta, negate_one_arc(sf.values), jumps)
            wrong = dict(delta)
            wrong[0] += 2
            with self.assertRaises(CheckFailed):
                oracles.check_alexander(rows, wrong)
            with self.assertRaises(CheckFailed):
                oracles.check_determinant(rows, det + 2)
            with self.assertRaises(CheckFailed):
                oracles.check_arf(rows, 1 - invariants.arf(v))

    def test_fox_milnor_needs_square_determinant(self):
        rows = [list(r) for r in self.knots[0].rows]   # trefoil, det 3
        oracles.check_fox_milnor(rows, False)
        with self.assertRaises(CheckFailed):
            oracles.check_fox_milnor(rows, True)

    def test_random_forms_are_seifert_matrices(self):
        rng = random.Random(11)
        for genus in (1, 2, 3):
            v = workloads.random_seifert_rows(rng, genus)
            skew = [[v[i][j] - v[j][i] for j in range(len(v))]
                    for i in range(len(v))]
            self.assertEqual(oracles.bareiss_det(skew), 1)


class TorusChecks(unittest.TestCase):
    def test_accepts_and_rejects(self):
        width = Fraction(1, 10 ** 40)
        for p, q in ((2, 5), (3, 4)):
            sf = invariants.signature_function(
                braids.seifert_matrix_from_braid(workloads.torus_braid(p, q)))
            r = rho.rho0_from_step_function(sf, width)
            half = (len(sf.delta_coeffs) - 1) // 2
            delta = {i - half: c for i, c in enumerate(sf.delta_coeffs) if c}
            jumps = workloads.enclosures(sf.jumps, width)
            args = (p, q, delta, sf.values, jumps)
            oracles.check_torus(*args, r.value.lo, r.value.hi, width)
            with self.assertRaises(CheckFailed):
                oracles.check_torus(
                    *args, *shifted(r.value.lo, r.value.hi, 2 * width),
                    width)
            with self.assertRaises(CheckFailed):
                oracles.check_torus(p, q, delta, negate_one_arc(sf.values),
                                    jumps, r.value.lo, r.value.hi, width)
            step = Fraction(1, 10 ** 30)
            moved = [jumps[0]] + [(lo + step, hi + step)
                                  for lo, hi in jumps[1:]]
            with self.assertRaises(CheckFailed):
                oracles.check_torus(p, q, delta, sf.values, moved,
                                    r.value.lo, r.value.hi, width)

    def test_closed_forms_match_numpy(self):
        for p, q in ((2, 3), (2, 7), (3, 4), (3, 5), (4, 3)):
            v = braids.seifert_matrix_from_braid(workloads.torus_braid(p, q))
            rows = [list(r) for r in v.rows]
            oracles.check_alexander(rows, oracles.torus_alexander(p, q))
            jumps = oracles.torus_jumps(p, q)
            angles = oracles.float_jump_angles(
                rows, oracles.torus_alexander(p, q))
            self.assertEqual(len(angles), len(jumps))
            for a, x in zip(angles, jumps):
                self.assertAlmostEqual(a, float(x), places=9)
            cuts = [Fraction(0)] + jumps + [Fraction(1)]
            values = []
            for k in range(len(cuts) - 1):
                mid = (cuts[k] + cuts[k + 1]) / 2
                values.append(oracles.torus_signature(p, q, mid))
                self.assertEqual(values[-1],
                                 oracles.float_signature(rows, float(mid)))
            self.assertAlmostEqual(
                sum(val * float(cuts[k + 1] - cuts[k])
                    for k, val in enumerate(values)),
                float(oracles.torus_rho0(p, q)), places=12)


class GropeChecks(unittest.TestCase):
    def test_dimensions_off_by_one(self):
        oracles.check_equal("v", {1: 1, 2: 1, 3: 1}, oracles.VASSILIEV_DIMS)
        with self.assertRaises(CheckFailed):
            oracles.check_equal("v", {1: 1, 2: 2, 3: 1},
                                oracles.VASSILIEV_DIMS)
        table = workloads.load_grope_table()
        self.assertEqual([table[i] for i in range(2, 8)], [0, 1, 0, 2, 0, 3])
        with self.assertRaises(CheckFailed):
            oracles.check_equal("g", {**table, 5: table[5] + 1}, table)

    def test_depth_and_class_off_by_one(self):
        import knotbench.gropes as gropes
        for b in workloads.basic_commutators()[:40]:
            w = gropes.bracket_word(workloads.to_bracket(b))
            depth = gropes.magnus_depth(w, 8)
            oracles.check_equal("depth", depth, workloads.leaf_count(b))
            with self.assertRaises(CheckFailed):
                oracles.check_equal("depth", depth + 1,
                                    workloads.leaf_count(b))

    def cells(self, grading, degrees):
        out = {}
        for i in degrees:
            gens = diagrams.enumerate_diagrams(i, grading)
            rel = diagrams.relation_matrix(i, grading, generators=gens)
            cc = [oracles.diagram_cell(d.vertices) for _, d in gens]
            oracles.check_rows_homogeneous(rel.rows, cc, i, grading)
            out.update(oracles.cell_dimensions(rel.rows, cc))
        return out

    def test_cells_agree_and_reject(self):
        grope = self.cells("grope", range(2, 6))
        vass = self.cells("vassiliev", range(1, 4))
        oracles.check_cells_agree(grope, vass)
        wrong = dict(grope)
        wrong[max(set(grope) & set(vass))] += 1
        with self.assertRaises(CheckFailed):
            oracles.check_cells_agree(wrong, vass)

    def test_mixed_row_rejected(self):
        gens = diagrams.enumerate_diagrams(3, "vassiliev")
        cc = [oracles.diagram_cell(d.vertices) for _, d in gens]
        a = next(c for c, x in enumerate(cc) if x != cc[0])
        with self.assertRaises(CheckFailed):
            oracles.check_rows_homogeneous([{0: 1, a: 1}], cc, 3, "vassiliev")

    def test_relabelled_copy_keeps_key_and_sign(self):
        rng = random.Random(3)
        for key, d in diagrams.enumerate_diagrams(5):
            copy = diagrams.UniTrivalentGraph(
                *oracles.relabelled(d.vertices, d.pairing, rng))
            self.assertEqual(diagrams.canonical_form(copy),
                             diagrams.canonical_form(d))


class CliParsing(unittest.TestCase):
    def test_parse_laurent_inverts_str(self):
        from knotbench.polynomials import LaurentPoly
        for c in ({0: 1}, {1: 2, 0: -3, -1: 2},
                  {2: -1, 1: 3, 0: -3, -1: 3, -2: -1}):
            self.assertEqual(workloads.parse_laurent(str(LaurentPoly(c))), c)


if __name__ == "__main__":
    unittest.main()
