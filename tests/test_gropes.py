import itertools
import random
from fractions import Fraction

import pytest

from knotbench import gropes
from knotbench.errors import BudgetExceededError, InputError, PreconditionError
from knotbench.gropes import (
    Bracket,
    FreeWord,
    GropeTree,
    bracket_to_grope,
    bracket_word,
    class_of,
    derived_depth,
    height_of,
    magnus_depth,
    parse_bracket,
    parse_free_word,
    symmetric_grope,
    weight,
)

from oracles import magnus_depth_full_product, magnus_depth_packed


def balanced_bracket(depth, names="xy"):
    it = itertools.cycle(names)

    def build(d):
        if d == 0:
            return Bracket.generator(next(it))
        return Bracket.commutator(build(d - 1), build(d - 1))

    return build(depth)


def all_shapes(w):
    if w == 1:
        yield "g"
        return
    for lw in range(1, w):
        for l in all_shapes(lw):
            for r in all_shapes(w - lw):
                yield (l, r)


def left_normed(names):
    """The bracket [[...[x_1, x_2], ...], x_w] of the named generators."""
    b = Bracket.generator(names[0])
    for g in names[1:]:
        b = Bracket.commutator(b, Bracket.generator(g))
    return b


def assert_matches_full_product(w):
    # truncation keeps the lower-degree terms, so one product at the
    # budget gives the depth at every cutoff: d below it, else None
    depth = magnus_depth_full_product(w.letters, 8)
    for cutoff in range(1, 9):
        want = depth if depth is not None and depth < cutoff else None
        assert magnus_depth(w, cutoff) == want, (str(w), cutoff)


def shape_to_bracket(shape, names):
    it = itertools.cycle(names)

    def build(s):
        if s == "g":
            return Bracket.generator(next(it))
        return Bracket.commutator(build(s[0]), build(s[1]))

    return build(shape)


class TestGropeClass:
    def test_bare_surface_is_class_2(self):
        for g in (1, 2, 5):
            assert class_of(GropeTree.bare(g)) == 2

    def test_one_child_stage(self):
        t = GropeTree([(None, GropeTree.bare(1))])
        assert class_of(t) == 3

    def test_symmetric_height_3_is_class_8(self):
        assert class_of(symmetric_grope(3)) == 8

    def test_class_is_min_over_pairs(self):
        t = GropeTree([(None, None), (GropeTree.bare(1), GropeTree.bare(1))])
        assert class_of(t) == 2


class TestSymmetricGrope:
    def test_height_one_is_bare(self):
        assert symmetric_grope(1) == GropeTree.bare(1)
        assert symmetric_grope(1, genus=3) == GropeTree.bare(3)

    def test_half_integer_anchor(self):
        assert class_of(symmetric_grope(Fraction(3, 2))) == 3

    def test_two_and_a_half(self):
        assert class_of(symmetric_grope(Fraction(5, 2))) == 6

    def test_classes_match_powers_of_two(self):
        for h in range(1, 7):
            assert class_of(symmetric_grope(h)) == 2 ** h

    def test_half_integer_classes(self):
        h = Fraction(3, 2)
        while h <= Fraction(11, 2):
            m = h - Fraction(1, 2)
            assert class_of(symmetric_grope(h)) == 3 * 2 ** (m - 1)
            h += 1

    def test_bad_heights_rejected(self):
        for bad in (0, Fraction(1, 2), Fraction(5, 4)):
            with pytest.raises(PreconditionError):
                symmetric_grope(bad)


class TestHeightOf:
    def test_bare_surface(self):
        assert height_of(GropeTree.bare(2)) == 1

    def test_round_trip(self):
        h = Fraction(2)
        for g in (1, 2, 3):
            for hh in (1, Fraction(3, 2), 2, Fraction(5, 2), 3, 4):
                assert height_of(symmetric_grope(hh, g)) == hh

    def test_half_template_with_swapped_slots(self):
        t = GropeTree([(GropeTree.bare(1), None)])
        assert height_of(t) == Fraction(3, 2)
        t2 = GropeTree([(None, GropeTree.bare(1))])
        assert height_of(t2) == Fraction(3, 2)

    def test_non_template_returns_none(self):
        t = GropeTree([(symmetric_grope(2), None)])  # gap of 2 in heights
        assert height_of(t) is None


class TestBrackets:
    def test_weight_and_depth_examples(self):
        xy = parse_bracket("[x,y]")
        assert weight(xy) == 2 and derived_depth(xy) == 1
        xyz = parse_bracket("[[x,y],z]")
        assert weight(xyz) == 3 and derived_depth(xyz) == 1
        xyzw = parse_bracket("[[x,y],[z,w]]")
        assert weight(xyzw) == 4 and derived_depth(xyzw) == 2

    def test_parse_errors(self):
        for bad in ("[x,y", "[x y]", "[,y]", "x]", "[x,y]z", "[X,y]"):
            with pytest.raises(InputError):
                parse_bracket(bad)

    def test_bracket_to_grope_examples(self):
        assert class_of(bracket_to_grope(parse_bracket("[x,y]"))) == 2
        assert class_of(bracket_to_grope(parse_bracket("[[x,y],z]"))) == 3
        t = bracket_to_grope(parse_bracket("[[x,y],[z,w]]"))
        assert class_of(t) == 4 and height_of(t) == 2

    def test_weight_one_rejected(self):
        with pytest.raises(PreconditionError):
            bracket_to_grope(Bracket.generator("x"))

    def test_class_equals_weight_all_shapes_to_weight_8(self):
        for w in range(2, 9):
            for shape in all_shapes(w):
                b = shape_to_bracket(shape, "xyz")
                assert class_of(bracket_to_grope(b)) == weight(b) == w

    def test_derived_depth_log_bound(self):
        for w in range(2, 9):
            for shape in all_shapes(w):
                b = shape_to_bracket(shape, "xyz")
                dd = derived_depth(b)
                assert 2 ** dd <= weight(b)
        # equality iff fully balanced
        for h in (1, 2, 3):
            b = balanced_bracket(h)
            assert 2 ** derived_depth(b) == weight(b)

    def test_balanced_bracket_height(self):
        for h in (1, 2, 3):
            b = balanced_bracket(h)
            assert height_of(bracket_to_grope(b)) == h


class TestFreeWords:
    def test_reduction(self):
        w = FreeWord(("x", "y"), [1, 2, -2, -1, 1])
        assert w.letters == (1,)
        assert str(w) == "x"

    def test_reduction_deletes_adjacent_inverses(self):
        # against deleting the first adjacent pair x, -x until none is left
        rng = random.Random(23)
        for _ in range(300):
            letters = [rng.choice((1, -1, 2, -2, 3, -3))
                       for _ in range(rng.randint(0, 16))]
            want = list(letters)
            while True:
                i = next((i for i in range(len(want) - 1)
                          if want[i] == -want[i + 1]), None)
                if i is None:
                    break
                del want[i:i + 2]
            assert FreeWord("xyz", letters).letters == tuple(want), letters

    def test_first_bad_letter_raises(self):
        # letters are checked in turn: the first bad one names the error,
        # also when a later letter is bad in another way, or when the
        # letters before it cancel
        for letters, match in (([1, 3, 1.5], "letter 3 out of range"),
                               ([1, 1.5, 3], "is not an integer"),
                               ([1, -1, 0], "letter 0 out of range"),
                               ([2, -3, 3, 0], "letter -3 out of range")):
            with pytest.raises(InputError, match=match):
                FreeWord(("x", "y"), letters)

    def test_inverse_and_product(self):
        w = parse_free_word("x y")
        assert str(w.inverse()) == "y^-1 x^-1"
        assert (w * w.inverse()).letters == ()

    def test_bracket_word_examples(self):
        assert str(bracket_word(parse_bracket("[x,y]"))) == "x y x^-1 y^-1"
        assert str(bracket_word(Bracket.generator("x"))) == "x"
        w = bracket_word(parse_bracket("[[x,y],z]"))
        assert w.letters == (1, 2, -1, -2, 3, 2, 1, -2, -1, -3)

    def test_parse_word_errors(self):
        with pytest.raises(InputError):
            parse_free_word("x Q1")
        with pytest.raises(InputError):
            parse_free_word("x z", generators=("x", "y"))


@pytest.mark.parametrize("call", [
    lambda: FreeWord(("x", "y"), [1.9, -2.2]),
    lambda: FreeWord(("x", "y"), ["1", True]),
    lambda: magnus_depth(parse_free_word("x y"), 2.5),
    lambda: magnus_depth(parse_free_word("x y"), True),
    lambda: symmetric_grope(2, genus=1.5),
    lambda: symmetric_grope(2, genus=True),
    lambda: GropeTree.bare(True),
    lambda: GropeTree.bare(1.5),
    lambda: symmetric_grope("3/2"),
    lambda: symmetric_grope(1.5),
    lambda: symmetric_grope(True),
    lambda: symmetric_grope("abc"),
], ids=["word-float-letters", "word-str-bool-letters", "magnus-float-cutoff",
        "magnus-bool-cutoff", "symmetric-float-genus", "symmetric-bool-genus",
        "bare-bool-genus", "bare-float-genus", "symmetric-str-height",
        "symmetric-float-height", "symmetric-bool-height",
        "symmetric-word-height"])
def test_integer_parameters_refuse_non_integers(call):
    # truncating or reading True as 1 would answer a different question
    with pytest.raises(InputError, match="is not an integer"):
        call()


class TestMagnus:
    def test_examples(self):
        assert magnus_depth(parse_free_word("x"), 6) == 1
        assert magnus_depth(parse_free_word("x y x^-1 y^-1"), 6) == 2
        b = parse_bracket("[[x,y],y]")
        assert magnus_depth(bracket_word(b), 8) == 3
        ident = FreeWord(("x",), [])
        assert magnus_depth(ident, 6) is None

    def test_budgets(self):
        with pytest.raises(BudgetExceededError):
            magnus_depth(FreeWord(("a", "b", "c", "d", "e"), [1]), 6)
        with pytest.raises(BudgetExceededError):
            magnus_depth(parse_free_word("x"), 9)

    def test_left_normed_weights_to_5(self):
        for wgt in range(2, 6):
            for idx in itertools.product("xyz", repeat=wgt):
                if idx[0] != idx[1]:
                    assert magnus_depth(bracket_word(left_normed(idx)), 8) == wgt

    def test_nontrivial_commutator_below_cutoff(self):
        b = Bracket.commutator(Bracket.generator("x"), Bracket.generator("y"))
        for g in "xyxyxy":  # left-normed weight 8, depth exactly 8
            b = Bracket.commutator(b, Bracket.generator(g))
        w = bracket_word(b)
        assert w.letters  # the word itself is nontrivial
        assert magnus_depth(w, 8) is None  # >= cutoff

    def test_matches_full_product_oracle(self):
        # random words wrapped in up to two commutators with random words,
        # so the depths run from 1 to 4; every cutoff up to the budget
        rng = random.Random(97)

        def rand_word():
            return FreeWord("xyz", [rng.choice((1, -1, 2, -2, 3, -3))
                                    for _ in range(rng.randint(1, 4))])

        for _ in range(200):
            w = rand_word()
            for _ in range(rng.randint(0, 2)):
                u = rand_word()
                w = w * u * w.inverse() * u.inverse()
            assert_matches_full_product(w)

    def test_rank_4_matches_full_product_oracle(self):
        # the packed slots hold base-4 digit strings at rank 4
        rng = random.Random(41)

        def rand_word():
            return FreeWord("xyzw", [rng.choice((1, -1, 2, -2, 3, -3, 4, -4))
                                     for _ in range(rng.randint(1, 3))])

        for _ in range(60):
            w = rand_word()
            for _ in range(rng.randint(0, 2)):
                u = rand_word()
                w = w * u * w.inverse() * u.inverse()
            assert_matches_full_product(w)

    def test_long_runs_match_full_product_oracle(self):
        # x^-L has X^d coefficient (-1)^d C(L+d-1, d), the bound the slot
        # width is sized for; runs x^+-L also build the words below
        rng = random.Random(53)
        words = []
        for n in (1, 2, 7, 19, 40):
            for s in (1, -1):
                words.append(FreeWord("xy", [s] * n))
                words.append(FreeWord("xy", [s] * n + [2] + [-s] * n + [-2]))
        for _ in range(40):
            w = FreeWord("xyz", [g for _ in range(rng.randint(1, 3))
                                 for g in [rng.choice((1, -1, 2, -2, 3, -3))]
                                 * rng.randint(1, 12)])
            u = FreeWord("xyz", [rng.choice((1, -1, 2, -2, 3, -3))])
            words.append(w * u * w.inverse() * u.inverse())
        for w in words:
            assert_matches_full_product(w)

    def test_slot_width_follows_word_length(self):
        # the degree-1 part of x^(2^k) y^-1 is 2^k X - Y, which a slot of
        # k bits would read as zero
        for k in range(1, 13):
            w = FreeWord("xy", [1] * 2 ** k + [-2])
            for cutoff in range(2, 9):
                assert magnus_depth(w, cutoff) == 1, (k, cutoff)

    def test_matches_packed_oracle(self):
        # the kernel reads only words that start with each pass's letter
        # and splits degree cutoff - 1 by last letters; the oracle packs
        # every degree whole.  Words of weight cutoff - 2, cutoff - 1 and
        # cutoff put the answer below the split, in it and past it
        rng = random.Random(29)
        words = [left_normed(idx) for wgt in range(2, 7)
                 for idx in itertools.product("xyz", repeat=wgt)
                 if idx[0] != idx[1]]
        assert len(words) == 726
        words = [bracket_word(b) for b in words]
        for _ in range(500):
            names = "xyzw"[:rng.randint(1, 4)]
            letters = range(1, len(names) + 1)

            def rand_word():
                return FreeWord(names, [rng.choice(letters) * rng.choice((1, -1))
                                        for _ in range(rng.randint(1, 6))])

            w = rand_word()
            for _ in range(rng.randint(0, 2)):
                u = rand_word()
                w = w * u * w.inverse() * u.inverse()
            words.append(w)
        for cutoff in range(1, 9):
            for w in words:
                assert magnus_depth(w, cutoff) == magnus_depth_packed(
                    w, cutoff), (str(w), cutoff)
            for wgt in range(max(cutoff - 2, 1), cutoff + 1):
                for _ in range(3):
                    names = rng.sample("xyzw", rng.randint(2, 4))
                    idx = rng.sample(names, 2) + rng.choices(names, k=wgt - 2)
                    w = bracket_word(left_normed(idx[:wgt]))
                    want = wgt if wgt < cutoff else None
                    assert magnus_depth_packed(w, cutoff) == want
                    assert magnus_depth(w, cutoff) == want, (str(w), cutoff)


class TestMagnusLyndonPasses:
    """Words whose depth only a pass after the first finds: the part of
    M(w) on words that start with the least letter X_1 is zero below the
    depth, and the depth is read after x_1 (and maybe x_2) is deleted."""

    @staticmethod
    def over(names, w):
        return parse_free_word(str(w), names)

    def test_conjugate_of_a_later_commutator(self):
        w = parse_free_word("x y z y^-1 z^-1 x^-1")
        assert gropes._initial_depth(w.letters, 3, 1, 8) == 3
        assert magnus_depth(w, 8) == 2
        assert_matches_full_product(w)

    def test_conjugates_by_earlier_letters(self):
        # c u c^-1 with u over the letters after those of c: X_1-initial
        # terms start one degree above the depth of u
        for c in ("x", "x^-1", "x y^-1", "x x y", "x^-1 y x", "y x"):
            for u in ("y z y^-1 z^-1", "z y z^-1 y^-1 z", "y", "y y z^-1",
                      "y z y^-1 z^-1 y z^-1 y^-1 z"):
                cw, uw = (parse_free_word(t, "xyz") for t in (c, u))
                assert_matches_full_product(cw * uw * cw.inverse())

    def test_rank_4_lowest_term_in_z_and_w(self):
        # the lowest term lives in {z, w}: the passes over x and y find
        # nothing below it, the pass over z finds it
        inner = [bracket_word(left_normed(idx)) for idx in
                 ("zw", "wz", "zwz", "wzw", "zwzw", "zwwz")]
        outer = [parse_free_word(t, "xyzw") for t in
                 ("x", "y", "x y", "y^-1 x", "x y x^-1", "y x y")]
        for u in inner:
            u = self.over("xyzw", u)
            for c in outer:
                w = c * u * c.inverse()
                assert magnus_depth(w, 8) == magnus_depth(u, 8)
                assert_matches_full_product(w)
                assert_matches_full_product(c * u * c.inverse() * u)

    def test_top_degree_brackets_over_later_letters(self):
        # weight cutoff - 1 puts the lowest term at the top degree, whose
        # block of words ending in X_j each pass leaves out
        rng = random.Random(61)
        for cutoff in range(3, 9):
            for _ in range(2):
                names = rng.sample("yzw", rng.randint(2, 3))
                idx = rng.sample(names, 2) + rng.choices(names, k=cutoff - 3)
                u = self.over("xyzw", bracket_word(left_normed(idx)))
                for c in ("", "x", "x^-1 y"):
                    cw = parse_free_word(c, "xyzw")
                    w = cw * u * cw.inverse()
                    assert magnus_depth(w, cutoff) == cutoff - 1
                    assert magnus_depth(w, cutoff - 1) is None
                    assert_matches_full_product(w)

    def test_seeded_conjugated_words(self):
        # words built from later letters, then conjugated by earlier ones
        rng = random.Random(83)
        for _ in range(300):
            r = rng.randint(2, 4)
            names = "xyzw"[:r]
            lo = rng.randint(2, r)

            def rand_word(first, k):
                return FreeWord(names, [rng.randint(first, r)
                                        * rng.choice((1, -1))
                                        for _ in range(rng.randint(1, k))])

            w = rand_word(lo, 4)
            for _ in range(rng.randint(0, 2)):
                u = rand_word(lo, 3)
                w = w * u * w.inverse() * u.inverse()
            c = rand_word(1, 3)
            assert_matches_full_product(c * w * c.inverse())
