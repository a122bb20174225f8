import random
import time

import pytest

from knotbench.braids import (
    BraidWord,
    closure_is_knot,
    parse_braid,
    seifert_matrix_from_braid,
    serialize_braid,
)
from knotbench.errors import InputError, PreconditionError
from knotbench.invariants import alexander_polynomial, signature_function
from knotbench.polynomials import LaurentPoly
from knotbench.rho import rho0
from knotbench.seifert import KnotTableEntry, integer_determinant

from conftest import random_knot_braid
from oracles import alexander_via_burau, unit_normalize_symmetric


class TestParse:
    def test_parse_examples(self):
        assert parse_braid("n=2; 1 1 1") == BraidWord(2, [1, 1, 1])
        assert parse_braid("n=3; 1 -2 1 -2") == BraidWord(3, [1, -2, 1, -2])

    def test_out_of_range_index(self):
        with pytest.raises(InputError):
            parse_braid("n=2; 3")

    def test_malformed_token(self):
        with pytest.raises(InputError, match="malformed"):
            parse_braid("n=2; 1 x")
        with pytest.raises(InputError):
            parse_braid("braid 2: 1 1")

    def test_unconvertible_strand_count(self):
        # beyond the interpreter's 4300-digit int-from-string limit
        start = time.perf_counter()
        with pytest.raises(InputError, match="strand count"):
            parse_braid("n=" + "1" * 5000 + "; 1")
        assert time.perf_counter() - start < 0.1

    def test_round_trip(self):
        rng = random.Random(0)
        for _ in range(50):
            n = rng.randint(1, 6)
            word = [rng.choice((1, -1)) * rng.randint(1, n - 1)
                    for _ in range(rng.randint(0, 15))] if n > 1 else []
            b = BraidWord(n, word)
            assert parse_braid(serialize_braid(b)) == b

    def test_zero_letter_rejected(self):
        with pytest.raises(InputError):
            BraidWord(2, [0])

    @pytest.mark.parametrize("strands, word", [
        (2, [1.0, 1, 1]), (2, [True, 1, 1]), (2.5, [1, 1, 1]), (2, ["1"])])
    def test_non_integer_refused(self, strands, word):
        with pytest.raises(InputError, match="not an integer"):
            BraidWord(strands, word)


class TestClosure:
    def test_examples(self):
        assert closure_is_knot(BraidWord(2, [1, 1, 1]))
        assert not closure_is_knot(BraidWord(2, [1, 1]))
        assert closure_is_knot(BraidWord(1, []))

    def test_against_cycle_decomposition(self):
        rng = random.Random(9)
        for _ in range(300):
            n = rng.randint(1, 6)
            word = ([rng.choice((1, -1)) * rng.randint(1, n - 1)
                     for _ in range(rng.randint(0, 20))] if n > 1 else [])
            b = BraidWord(n, word)
            perm = b.permutation()
            # brute-force cycle decomposition
            seen = set()
            cycles = 0
            for s in range(n):
                if s in seen:
                    continue
                cycles += 1
                x = s
                while x not in seen:
                    seen.add(x)
                    x = perm[x]
            assert closure_is_knot(b) == (cycles == 1)


class TestSeifertFromBraid:
    def test_trefoil_matrix_and_invariants(self, trefoil):
        # congruence-invariant checks pin the output class
        assert trefoil.size == 2
        # direct 2x2 determinant oracle for the claimed representative
        # det([[ -1+t, 1 ], [ -t, -1+t ]]) = t^2 - t + 1
        a = LaurentPoly({0: -1, 1: 1})
        oracle = a * a - LaurentPoly({0: 1}) * LaurentPoly({1: -1})
        assert oracle == LaurentPoly({2: 1, 1: -1, 0: 1})
        assert alexander_polynomial(trefoil) == unit_normalize_symmetric(oracle)

    def test_figure_eight_invariants(self, figure_eight):
        assert figure_eight.size == 2
        # det([[1-t, 1], [-t, -1+t]]) = -t^2 + 3t - 1 for the claimed form
        d = alexander_polynomial(figure_eight)
        assert d == LaurentPoly({1: -1, 0: 3, -1: -1})

    def test_unknot_is_empty_matrix(self):
        v = seifert_matrix_from_braid(BraidWord(2, [1]))
        assert v.size == 0

    def test_link_closure_rejected(self):
        with pytest.raises(PreconditionError, match="link"):
            seifert_matrix_from_braid(BraidWord(2, [1, 1]))

    def test_disconnected_surface_rejected(self):
        # generator 2 never occurs: closure is a knot only if permutation is
        # an n-cycle, so build one where index 2 is missing but closure fails
        # differently; use n=3 word with only generator 1 -> split surface
        b = BraidWord(3, [1])
        with pytest.raises(PreconditionError):
            seifert_matrix_from_braid(b)

    @pytest.mark.parametrize("strands", [10 ** 6, 10 ** 4000],
                             ids=["10^6", "10^4000"])
    def test_strand_count_refused_before_linear_work(self, strands):
        # one letter joins at most two strands; 10^4000 strands would
        # overflow list(range(strands)) in the permutation
        start = time.perf_counter()
        with pytest.raises(PreconditionError, match="link"):
            seifert_matrix_from_braid(BraidWord(strands, [1]))
        assert time.perf_counter() - start < 0.1

    def test_genus_formula_and_unimodular_skew(self):
        rng = random.Random(21)
        for _ in range(120):
            b = random_knot_braid(rng)
            v = seifert_matrix_from_braid(b)
            c = len(b.letters)
            assert v.size == c - b.strands + 1
            skew = [[v.rows[i][j] - v.rows[j][i] for j in range(v.size)]
                    for i in range(v.size)]
            assert integer_determinant(skew) == 1

    def test_alexander_matches_burau_oracle(self):
        rng = random.Random(77)
        for _ in range(120):
            b = random_knot_braid(rng)
            v = seifert_matrix_from_braid(b)
            assert alexander_polynomial(v) == alexander_via_burau(b)

    def test_mirror_braid_gives_mirror_matrix_class(self, trefoil):
        from knotbench.invariants import levine_tristram
        from fractions import Fraction

        left = seifert_matrix_from_braid(BraidWord(2, [-1, -1, -1]))
        assert levine_tristram(left, Fraction(1, 2)) == 2
        assert levine_tristram(trefoil, Fraction(1, 2)) == -2


_TREFOIL = BraidWord(2, [1, 1, 1])


@pytest.mark.parametrize("make,field", [
    (lambda: _TREFOIL, "letters"),
    (lambda: signature_function(seifert_matrix_from_braid(_TREFOIL)), "half"),
    (lambda: rho0(seifert_matrix_from_braid(_TREFOIL)), "value"),
    (lambda: KnotTableEntry("3_1", _TREFOIL, None, {}), "braid"),
], ids=["BraidWord", "SignatureStepFunction", "RhoResult", "KnotTableEntry"])
def test_records_are_immutable(make, field):
    # neither a field nor a new attribute can be set on a record
    record = make()
    for name in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, field))


def test_braid_word_repr_and_hash():
    b = BraidWord(2, [1, 1, 1])
    assert repr(b) == "BraidWord(strands=2, letters=(1, 1, 1))"
    assert hash(b) == hash((2, (1, 1, 1)))
