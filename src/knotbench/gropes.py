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
associative ring.  Only the lowest nonzero degree matters, and it is a
Lie element, so one pass per letter x_j reads just the coefficients of
words that start with X_j, on the word with the earlier letters deleted
(``magnus_depth`` gives the proof).  A pass packs each degree into an
integer of signed slots (Kronecker substitution), splits the top degree
by last letters and leaves out the block that ends in X_j.  The pass
keeps no coefficient of a word that starts with another letter, so a
reader of every coefficient (Milnor invariants, say) needs the whole
expansion, packed degree by degree as in the tests' oracle.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
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
        valid = []
        for x in letters:
            x = as_integer(x, "word letter")
            if x == 0 or abs(x) > len(generators):
                raise InputError(f"letter {x} out of range")
            valid.append(x)
        return super().__new__(cls, generators, _free_reduce(valid))

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


def _free_reduce(letters: Iterable[int]) -> tuple:
    """The free reduction of int letters already known to be valid: a
    letter that cancels the last one kept (x after -x) deletes both.
    ``FreeWord`` validates each letter and then reduces them here."""
    reduced: list = []
    for x in letters:
        if reduced and reduced[-1] == -x:
            reduced.pop()
        else:
            reduced.append(x)
    return tuple(reduced)


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

    One pass per letter.  Let k be the depth of w.  The degree-k part P_k
    of M(w) is a Lie element, since log M(w) is a Lie series whose lowest
    term is P_k (Magnus; Chen, Fox and Lyndon, Ann. of Math. 68 (1958)),
    and so is each of its multihomogeneous parts.  Order the letters
    X_1 < X_2 < ...  In the Lyndon basis, P_l = l + larger words for a
    Lyndon word l (Reutenauer, Free Lie Algebras (1993), Thm 5.1), so a
    nonzero Lie element keeps, on its least Lyndon word with a nonzero
    basis coefficient, that coefficient.  A Lyndon word starts with its
    least letter.  So a nonzero multihomogeneous part of P_k either has a
    nonzero coefficient on a word that starts with X_1, or holds no X_1 at
    all.  X_1 = 0 is a ring map that sends M(w) to M(w') for w' the word w
    with x_1 deleted and freely reduced, and depth(w') >= k.  Hence
    depth(w) = min(the least d with a nonzero X_1-initial coefficient,
    depth(w')), and depth(w') follows in the same way from X_2, and so on.
    Pass j reads only the coefficients of words that start with X_j, on
    the word with x_1 .. x_(j-1) deleted; it is skipped when x_j is
    absent, runs below the least depth found so far, and the loop stops at
    depth 1 or at the empty word.

    The pass keeps degrees 1 .. D, D = cutoff - 1, and runs at cutoff 3
    when the cutoff is 1 or 2, dropping the degrees it did not ask for.
    Degree 1 is the scalar coefficient of X_j.  Degree 2 <= d < D is one
    integer acc[d - 1] of ``bits``-wide signed slots: the word X_j u has
    slot k when the letter indices of u, less j, are the base-(r - j + 1)
    digits of k, last letter most significant, so appending X_g shifts
    the degree-d integer by bits * (g - j) * (r - j + 1)^(d - 1).  Degree
    D is held as top[g - j], the words X_j u X_g with X_g dropped, which
    are never shifted.  Its block g = j is left out: when the lower
    degrees of M of the pass's word are zero, a nonzero multihomogeneous
    part of degree D >= 2 that holds X_j has a nonzero coefficient on its
    least Lyndon word, which starts with X_j and ends in a greater
    letter, as a Lyndon word is less than its last letter.  When a lower
    degree is nonzero the pass may miss a degree-D term, but a later pass
    then finds a depth below D.  A letter x_g adds the degree-(d-1) part
    times X_g to degree d, top degree first, then adds X_j to degree 1
    when g = j; a letter x_g^-1 solves new (1 + X_g) = old by the same
    steps in reverse order, subtracting the new values.

    Zero tests.  A coefficient of degree d <= D of a word of L letters
    sums at most C(L+d-1, d) terms +-1 (one per way of spreading its d
    letters, in order, over the L factors), and this grows with d, so
    |c| <= C(L+D-1, D) < 2^(bits-1) for every coefficient of every prefix
    of the pass's word, L its length.  An integer sum c_k 2^(bits k) of
    such slots with a highest nonzero c_k is nonzero, since the lower
    slots sum to less than 2^(bits k) in absolute value; so each integer
    is 0 exactly when all its coefficients are.
    """
    cutoff = as_integer(cutoff, "cutoff")
    if w.rank > MAGNUS_RANK_BUDGET:
        raise BudgetExceededError(f"rank {w.rank} exceeds {MAGNUS_RANK_BUDGET}")
    if not 1 <= cutoff <= MAGNUS_CUTOFF_BUDGET:
        raise BudgetExceededError(
            f"cutoff {cutoff} outside 1..{MAGNUS_CUTOFF_BUDGET}")
    letters, depth = w.letters, cutoff
    for j in range(1, w.rank + 1):
        if not letters or depth == 1:
            break
        if j in letters or -j in letters:
            depth = _initial_depth(letters, w.rank, j, depth)
        letters = _free_reduce(x for x in letters if abs(x) != j)
    return depth if depth < cutoff else None


def _initial_depth(letters: Sequence, r: int, j: int, cutoff: int) -> int:
    """The least d < cutoff with a nonzero coefficient of M on a word that
    starts with X_j, for a word with letters of index j .. r only; cutoff
    when there is none (see ``magnus_depth`` for degree cutoff - 1)."""
    top_degree, base = max(cutoff, 3) - 1, r - j + 1
    bits = comb(len(letters) + top_degree - 1, top_degree).bit_length() + 1
    up = [[(d, bits * g * base ** (d - 1))
           for d in range(top_degree - 2, 0, -1)] for g in range(base)]
    down = [steps[::-1] for steps in up]
    acc = [0] * (top_degree - 1)
    top = [0] * base
    for x in letters:
        if x > 0:
            g = x - j
            if g:
                top[g] += acc[-1]
            for d, s in up[g]:
                acc[d] += acc[d - 1] << s
            if not g:
                acc[0] += 1
        else:
            g = -x - j
            if not g:
                acc[0] -= 1
            for d, s in down[g]:
                acc[d] -= acc[d - 1] << s
            if g:
                top[g] -= acc[-1]
    nonzero = [*map(bool, acc), any(top)]
    return next((d for d in range(1, cutoff) if nonzero[d - 1]), cutoff)
