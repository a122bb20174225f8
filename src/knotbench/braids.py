"""Braid words and Seifert surfaces of braid closures.

A braid word in B_n is a sequence of nonzero integers: letter +i / -i is a
positive / negative crossing of strands i and i+1 (generator index i,
1 <= i <= n-1).  A closed braid bounds the Seifert surface obtained from n
disks (one per strand) joined by one half-twisted band per letter.  The
first homology of that surface has rank c - n + 1 (c letters), with a
canonical cycle basis: consecutive occurrences of the same generator index
bound one loop through the two bands.

Seifert pairing of basis loops, worked out from the disk-and-band model
(letter positions act as cyclic coordinates on each disk boundary):

* a loop through bands of signs (e1, e2) has self-pairing -(e1+e2)/2;
* consecutive loops of one column sharing a band of sign e pair as
  (e+1)/2 / (e-1)/2 (earlier loop first);
* loops of adjacent columns pair off exactly when their band positions
  interleave, contributing a single +-1 on one side;
* all other pairs are zero.
"""

from __future__ import annotations

import re
from collections.abc import Iterable

from .errors import InputError, PreconditionError, as_integer, record
from .seifert import SeifertMatrix


class BraidWord(record("BraidWord", "strands letters")):
    """A word in the braid group on `strands` strands."""

    __slots__ = ()

    def __new__(cls, strands: int, letters: Iterable[int]):
        strands = as_integer(strands, "strand count")
        if strands < 1:
            raise InputError("strand count must be >= 1")
        letters = tuple(as_integer(x, "braid letter") for x in letters)
        for x in letters:
            if x == 0 or abs(x) > strands - 1:
                raise InputError(
                    f"letter {x} out of range for {strands} strands")
        return super().__new__(cls, strands, letters)

    def permutation(self) -> tuple:
        """Image of each strand (0-based) under the braid."""
        perm = list(range(self.strands))
        for x in self.letters:
            i = abs(x) - 1
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        return tuple(perm)

    def __str__(self):
        return serialize_braid(self)


def parse_braid(text: str) -> BraidWord:
    """Parse "n=3; 1 -2 1 -2" into a braid word."""
    m = re.match(r"^\s*n\s*=\s*(\d+)\s*;(.*)$", text, re.DOTALL)
    if not m:
        raise InputError("expected braid text of the form 'n=<int>; w1 w2 ...'")
    try:
        n = int(m.group(1))
    except ValueError:  # more digits than Python converts
        raise InputError("strand count is not a convertible integer") from None
    letters = []
    for tok in m.group(2).split():
        try:
            letters.append(int(tok))
        except ValueError:
            raise InputError(f"malformed braid letter {tok!r}") from None
    return BraidWord(n, letters)


def serialize_braid(b: BraidWord) -> str:
    return f"n={b.strands}; " + " ".join(str(x) for x in b.letters)


def closure_is_knot(b: BraidWord) -> bool:
    """True when the braid closure has a single component."""
    perm = b.permutation()
    seen = 0
    i = 0
    for _ in range(b.strands):
        seen += 1
        i = perm[i]
        if i == 0:
            break
    return seen == b.strands


def seifert_matrix_from_braid(b: BraidWord) -> SeifertMatrix:
    """Seifert matrix of the braid closure, on the canonical cycle basis."""
    # a knot needs every generator, so at least strands - 1 letters; this
    # is checked before any work linear in the strand count
    if b.strands > len(b.letters) + 1:
        raise PreconditionError("closure is a link: a generator never occurs")
    if not closure_is_knot(b):
        raise PreconditionError("closure is a link")
    occ: dict[int, list[int]] = {i: [] for i in range(1, b.strands)}
    for pos, x in enumerate(b.letters):
        occ[abs(x)].append(pos)

    sign = [1 if x > 0 else -1 for x in b.letters]
    # loops[(column, j)] -> (top position, bottom position)
    loops = []
    for col in range(1, b.strands):
        ps = occ[col]
        for j in range(len(ps) - 1):
            loops.append((col, ps[j], ps[j + 1]))
    m = len(loops)

    V = [[0] * m for _ in range(m)]
    for idx, (col, top, bot) in enumerate(loops):
        V[idx][idx] = -(sign[top] + sign[bot]) // 2
    # loops is sorted by column, so for iy > ix the column cy is never below cx
    for ix in range(m):
        cx, ax, bx = loops[ix]
        for iy in range(ix + 1, m):
            cy, ay, by = loops[iy]
            if cy == cx:
                if ay == bx:  # consecutive loops sharing band bx
                    e = sign[bx]
                    V[ix][iy] = (e + 1) // 2
                    V[iy][ix] = (e - 1) // 2
            elif cy == cx + 1:
                if ax < ay < bx < by:
                    V[iy][ix] = -1
                elif ay < ax < by < bx:
                    V[iy][ix] = 1
    return SeifertMatrix(V)
