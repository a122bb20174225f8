"""Combinatorial gropes, commutator brackets, and Magnus depth.

A grope tree is a rooted tree of surface stages; every stage has genus
g >= 1 and carries g dual pairs of slots, each slot either bare or a child
stage.  The class of a grope mirrors the lower central series: a bare
stage has class 2, and pushing higher stages into slots adds their classes
pairwise.  Symmetric gropes, graded by (half-integer) height, mirror the
derived series; a symmetric grope of height h has class 2^h.

On the group-theory side, formal commutator brackets carry weight (lower
central class) and derived depth, and free-group words get their lower
central depth from the truncated Magnus expansion x -> 1 + X over the free
associative ring, with degrees packed into integers of signed slots
(Kronecker substitution): the word g_1 ... g_d of 0-based generator
indices has the slot sum g_i r^(i-1) at rank r.  Below the top two
degrees, one integer holds a whole degree.  The top degree D, which the
pass never reads, and degree D - 1 are split by their last letters into
parts that are never shifted: degree D - 1 into r parts part[h], degree
D into r^2 parts top[g][h] for the last two letters h g, each indexed by
the first D - 2 letters.  A reader of single coefficients (Milnor
invariants, say) can reassemble degree D as the sum of
top[g][h] << bits (h r^(D-2) + g r^(D-1)), and degree D - 1 as the sum
of part[h] << bits h r^(D-2).
A word of length L has degree-d coefficients of at most C(L+d-1, d),
largest at d = D, so slots one sign bit wider than C(L + D - 1, D) hold
them all.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import comb

from .errors import (
    BudgetExceededError,
    InputError,
    PreconditionError,
    as_integer,
    record,
)

MAGNUS_RANK_BUDGET = 4
MAGNUS_CUTOFF_BUDGET = 8


class GropeTree(record("GropeTree", "pairs")):
    """A surface stage: `pairs` lists the (a, b) slot pairs, one per genus;
    a slot is bare (None) or a child stage."""

    __slots__ = ()

    def __new__(cls, pairs: Sequence):
        pairs = tuple((a, b) for a, b in pairs)
        if not pairs:
            raise InputError("stage genus must be >= 1")
        for a, b in pairs:
            for s in (a, b):
                if s is not None and not isinstance(s, GropeTree):
                    raise InputError("slot must be bare (None) or a GropeTree")
        return super().__new__(cls, pairs)

    @property
    def genus(self) -> int:
        return len(self.pairs)

    @classmethod
    def bare(cls, genus: int = 1) -> "GropeTree":
        return cls([(None, None)] * as_integer(genus, "genus"))

    def to_json_dict(self) -> dict:
        def slot(s):
            return "bare" if s is None else s.to_json_dict()
        return {"genus": self.genus,
                "pairs": [[slot(a), slot(b)] for a, b in self.pairs]}

    @classmethod
    def from_json_dict(cls, data) -> "GropeTree":
        items = data.get("pairs") if isinstance(data, dict) else None
        if not isinstance(items, list):
            raise InputError("grope JSON needs a 'pairs' list")
        pairs = []
        for item in items:
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise InputError("each pair must be [slot, slot]")
            pairs.append(tuple(cls._slot_from_json(s) for s in item))
        tree = cls(pairs)
        if as_integer(data.get("genus", tree.genus), "genus") != tree.genus:
            raise InputError("genus field disagrees with the pair count")
        return tree

    @classmethod
    def _slot_from_json(cls, s):
        if s == "bare" or s is None:
            return None
        return cls.from_json_dict(s)


def class_of(t: GropeTree) -> int:
    """Grope class: min over dual pairs of the two slot contributions,
    where a bare slot contributes 1 and a child stage its own class."""
    def contrib(s: GropeTree | None) -> int:
        return 1 if s is None else class_of(s)
    return min(contrib(a) + contrib(b) for a, b in t.pairs)


def symmetric_grope(h: int | Fraction, genus: int = 1) -> GropeTree:
    """The symmetric grope template of (half-integer) height h >= 1.

    Integer heights attach height-(h-1) gropes to every slot; height
    m + 1/2 attaches height m to one slot of each pair and height m - 1
    to its dual, with height 0 meaning a bare slot.  The convention is
    pinned by class(height 3/2) = 3.  A height that is neither an int nor
    a Fraction (a bool, float or string) raises InputError.
    """
    if isinstance(h, bool) or not isinstance(h, (int, Fraction)):
        raise InputError(f"height {h!r} is not an integer or a Fraction")
    h = Fraction(h)
    genus = as_integer(genus, "genus")
    if h < 1 or (2 * h).denominator != 1:
        raise PreconditionError("height must be a half-integer >= 1")
    if genus < 1:
        raise PreconditionError("genus must be >= 1")

    def slot_of_height(hh: Fraction) -> GropeTree | None:
        if hh == 0:
            return None
        return symmetric_grope(hh, genus)

    if h == 1:
        return GropeTree.bare(genus)
    if h.denominator == 1:
        child = symmetric_grope(h - 1, genus)
        return GropeTree([(child, child)] * genus)
    m = h - Fraction(1, 2)  # h = m + 1/2 with integer m >= 1
    first = slot_of_height(m)
    second = slot_of_height(m - 1)
    return GropeTree([(first, second)] * genus)


def height_of(t: GropeTree) -> Fraction | None:
    """Height h when t matches the symmetric template of height h for some
    genus profile (slot order within a pair immaterial); None otherwise."""
    def slot_height(s: GropeTree | None) -> Fraction | None:
        if s is None:
            return Fraction(0)
        return height_of(s)

    stage: Fraction | None = None
    for a, b in t.pairs:
        ha = slot_height(a)
        hb = slot_height(b)
        if ha is None or hb is None:
            return None
        if ha == hb:
            val = ha + 1
        elif abs(ha - hb) == 1:
            val = max(ha, hb) + Fraction(1, 2)
        else:
            return None
        if stage is None:
            stage = val
        elif stage != val:
            return None
    return stage


# ---------------------------------------------------------------------------
# brackets and free words


class Bracket(record("Bracket", "left right name")):
    """Formal commutator expression over named generators: a generator has
    only a `name`, a commutator only its `left` and `right` children."""

    __slots__ = ()

    def __new__(cls, left=None, right=None, name: str | None = None):
        if name is not None:
            if left is not None or right is not None:
                raise InputError("a generator bracket has no children")
        elif not isinstance(left, Bracket) or not isinstance(right, Bracket):
            raise InputError("commutator needs two bracket children")
        return super().__new__(cls, left, right, name)

    @classmethod
    def generator(cls, name: str) -> "Bracket":
        return cls(name=name)

    @classmethod
    def commutator(cls, left: "Bracket", right: "Bracket") -> "Bracket":
        return cls(left, right)

    @property
    def is_generator(self) -> bool:
        return self.name is not None

    def __str__(self):
        if self.is_generator:
            return self.name
        return f"[{self.left},{self.right}]"


def parse_bracket(text: str) -> Bracket:
    """Parse bracket syntax: generators a-z, commutators "[l,r]"."""
    text = text.replace(" ", "")
    pos = 0

    def parse() -> Bracket:
        nonlocal pos
        if pos >= len(text):
            raise InputError("unexpected end of bracket expression")
        ch = text[pos]
        if ch == "[":
            pos += 1
            left = parse()
            if pos >= len(text) or text[pos] != ",":
                raise InputError("expected ',' in commutator")
            pos += 1
            right = parse()
            if pos >= len(text) or text[pos] != "]":
                raise InputError("expected ']' in commutator")
            pos += 1
            return Bracket.commutator(left, right)
        if ch.isalpha() and ch.islower():
            pos += 1
            return Bracket.generator(ch)
        raise InputError(f"unexpected character {ch!r} in bracket expression")

    out = parse()
    if pos != len(text):
        raise InputError("trailing input after bracket expression")
    return out


def weight(b: Bracket) -> int:
    """Lower-central weight: generators weigh 1, commutators add."""
    if b.is_generator:
        return 1
    return weight(b.left) + weight(b.right)


def derived_depth(b: Bracket) -> int:
    """Derived-series depth: 0 for generators, min of the children plus 1."""
    if b.is_generator:
        return 0
    return min(derived_depth(b.left), derived_depth(b.right)) + 1


def bracket_to_grope(b: Bracket) -> GropeTree:
    """Genus-1 stage tree realizing the bracket; class equals the weight."""
    if b.is_generator:
        raise PreconditionError("weight-1 bracket carries no grope")

    def realize(x: Bracket) -> GropeTree | None:
        return None if x.is_generator else bracket_to_grope(x)

    return GropeTree([(realize(b.left), realize(b.right))])


class FreeWord(record("FreeWord", "generators letters")):
    """Freely reduced word in the free group on named generators.

    `generators` holds the names (rank = len) and `letters` nonzero ints,
    sign = inverse, |value| - 1 = index."""

    __slots__ = ()

    def __new__(cls, generators: Sequence[str], letters: Sequence[int]):
        generators = tuple(generators)
        if len(set(generators)) != len(generators):
            raise InputError("duplicate generator names")
        reduced: list = []
        for x in letters:
            x = as_integer(x, "word letter")
            if x == 0 or abs(x) > len(generators):
                raise InputError(f"letter {x} out of range")
            if reduced and reduced[-1] == -x:
                reduced.pop()
            else:
                reduced.append(x)
        return super().__new__(cls, generators, tuple(reduced))

    @property
    def rank(self) -> int:
        return len(self.generators)

    def inverse(self) -> "FreeWord":
        return FreeWord(self.generators, [-x for x in reversed(self.letters)])

    def __mul__(self, o: "FreeWord") -> "FreeWord":
        if self.generators != o.generators:
            raise InputError("words live over different generator sets")
        return FreeWord(self.generators, self.letters + o.letters)

    def __str__(self):
        if not self.letters:
            return "1"
        out = []
        for x in self.letters:
            name = self.generators[abs(x) - 1]
            out.append(name if x > 0 else f"{name}^-1")
        return " ".join(out)


def parse_free_word(text: str, generators: Sequence[str] | None = None) -> FreeWord:
    """Parse space-separated tokens like "x y x^-1 y^-1"."""
    tokens = text.split()
    names = list(generators) if generators else []
    letters = []
    for tok in tokens:
        if tok.endswith("^-1"):
            base, sgn = tok[:-3], -1
        else:
            base, sgn = tok, 1
        if not (base.isalpha() and base.islower()):
            raise InputError(f"malformed generator token {tok!r}")
        if base not in names:
            if generators is not None:
                raise InputError(f"unknown generator {base!r}")
            names.append(base)
        letters.append(sgn * (names.index(base) + 1))
    if not names:
        names = ["x"]
    return FreeWord(names, letters)


def bracket_word(b: Bracket) -> FreeWord:
    """Expand a bracket into the corresponding free-group word."""
    names: list = []

    def collect(x: Bracket):
        if x.is_generator:
            if x.name not in names:
                names.append(x.name)
        else:
            collect(x.left)
            collect(x.right)

    collect(b)

    def expand(x: Bracket) -> FreeWord:
        if x.is_generator:
            return FreeWord(names, [names.index(x.name) + 1])
        l = expand(x.left)
        r = expand(x.right)
        return l * r * l.inverse() * r.inverse()

    return expand(b)


# ---------------------------------------------------------------------------
# Magnus expansion


def magnus_depth(w: FreeWord, cutoff: int = MAGNUS_CUTOFF_BUDGET) -> int | None:
    """Least degree d >= 1 of a nonzero term of M(w) - 1 for the Magnus
    expansion M: x_g -> 1 + X_g.  The returned k means the word lies in the
    k-th but not the (k+1)-st lower central subgroup.  None means "no term
    below the cutoff", in particular for the identity.

    The pass keeps degrees 0 .. D of M(w), D = cutoff - 1, and runs at
    cutoff 3 when the cutoff is 1 or 2, dropping the degrees it did not
    ask for.  Degree d <= D - 2 is one integer acc[d] of ``bits``-wide
    signed slots; slot k holds the word whose generator indices are the
    base-r digits of k, last letter most significant, so appending X_g
    shifts by bits * g * r^(d-1).  Degree D - 1 is held as part[h], the
    words ending in X_h with that letter dropped, and degree D as
    top[g][h], the words ending in X_h X_g with both dropped; all of them
    have r^(D-2) slots and are never shifted.  Appending X_g to a degree
    D - 1 word ending in X_h gives a degree D word ending in X_h X_g, and
    appending it to a degree D - 2 word one ending in X_g.  So a letter
    x_g adds acc[d-1] X_g to acc[d], top degree first: top[g][h] +=
    part[h] for every h, then part[g] += acc[D-2], then the shifts below.
    A letter x_g^-1 solves new (1 + X_g) = acc by the same steps in
    reverse order, subtracting the new values.

    Zero tests.  A coefficient of degree d <= D of a word of L letters
    sums at most C(L+d-1, d) terms +-1 (one per way of spreading its d
    letters, in order, over the L factors), and this grows with d,
    so |c| <= C(L+D-1, D) < 2^(bits-1) for every coefficient of every
    prefix.  An integer sum c_k 2^(bits k) of such slots with a highest
    nonzero c_k is nonzero, since the lower slots sum to less than
    2^(bits k) in absolute value; so each integer is 0 exactly when all
    its coefficients are.  The parts of degree D - 1 (and of D) hold
    disjoint sets of its words, together all of them, so the degree is
    zero exactly when every part is: any(part) and any(map(any, top))
    are exact.
    """
    cutoff = as_integer(cutoff, "cutoff")
    if w.rank > MAGNUS_RANK_BUDGET:
        raise BudgetExceededError(f"rank {w.rank} exceeds {MAGNUS_RANK_BUDGET}")
    if not 1 <= cutoff <= MAGNUS_CUTOFF_BUDGET:
        raise BudgetExceededError(
            f"cutoff {cutoff} outside 1..{MAGNUS_CUTOFF_BUDGET}")
    r, top_degree = w.rank, max(cutoff, 3) - 1
    bits = comb(len(w.letters) + top_degree - 1, top_degree).bit_length() + 1
    up = [[(d, d - 1, bits * g * r ** (d - 1))
           for d in range(top_degree - 2, 0, -1)] for g in range(r)]
    down = [steps[::-1] for steps in up]
    acc = [1] + [0] * (top_degree - 2)
    part = [0] * r
    top = [[0] * r for _ in range(r)]
    last = range(r)
    for x in w.letters:
        if x > 0:
            g = x - 1
            top_g = top[g]
            for h in last:
                top_g[h] += part[h]
            part[g] += acc[-1]
            for d, e, s in up[g]:
                acc[d] += acc[e] << s
        else:
            g = -x - 1
            for d, e, s in down[g]:
                acc[d] -= acc[e] << s
            part[g] -= acc[-1]
            top_g = top[g]
            for h in last:
                top_g[h] -= part[h]
    nonzero = [*map(bool, acc[1:]), any(part), any(map(any, top))]
    return next((d for d in range(1, cutoff) if nonzero[d - 1]), None)
