"""Connected uni-trivalent diagrams modulo AS and IHX, graded by grope degree.

A diagram is a connected graph with vertices of degree 1 or 3 and a cyclic
ordering (rotation) at each trivalent vertex; it generates a rational
vector space graded either by Vassiliev degree (half the vertex count) or
by grope degree (Vassiliev degree plus the first Betti number).  For a
connected diagram with at least one univalent vertex the grope degree
equals the number of trivalent vertices plus one.

Generation starts from the strut.  Write (t, u) for the connected
diagrams with t trivalent vertices and u legs (univalent vertices).  The
trees (t, t + 2) come from the trees at t - 1 by replacing one leg with
a Y, and the layer (t, u) comes from (t, u + 2) by joining two legs into
one edge.  Each layer keeps one diagram per canonical key (see
``canonical_form``).  The full minimum search runs once per class, on its
first diagram; every later diagram is found by a first-match search
against the minimal codes of the classes already met (``_lookup``).  The
key minimises over the rotation directions, so it names the underlying
graph, and one diagram per key is enough to grow the next layer from.
The generation is complete:

* every tree with t >= 2 has a trivalent vertex carrying two legs, and
  replacing that Y by one leg gives a tree at t - 1;
* a diagram in (t, u) with u < t + 2 has a cycle, and cutting an edge on
  it gives a connected diagram in (t, u + 2) whose two new legs sit on
  different trivalent vertices unless the edge was a tadpole.

Of the legs on one vertex only the first is grown or joined: the others
give the same keys later in the same sequence (see ``_legs``), so every
layer keeps the same diagrams.

Relations: reversing one rotation negates a diagram (AS), and the Jacobi
identity ties the three ways of reconnecting an internal edge (IHX).  In
the half-edge picture, with the rotations at the ends of edge e written
as (a, b, e) and (c, d, e'), the IHX instance is the cyclic sum

    D(a,b | c,d) + D(b,c | a,d) + D(c,a | b,d) = 0,

the diagram counterpart of the structure-constant identity
f_abe f_ecd + f_bce f_ead + f_cae f_ebd = 0.

Reversing any one vertex maps the traversals that ``canonical_form``
searches onto themselves with the reversal parity flipped, so every AS
row of a generator D is the same: 2·D when D is its own negative, else
zero.  D is its own negative exactly when its minimal traversals have
both parities, so ``relation_matrix`` reads that row off the lookup that
gives D's own column, with no reversed copy, and repeats it for each
trivalent vertex, keeping the row count.  Relation terms are looked up
like enumeration candidates: one full search per class met.

Diagrams with a tadpole (an edge closing on its own vertex) are rationally
zero by AS.  A graph may carry one, since IHX reconnections can create
tadpole terms, but generation never joins two legs on one vertex, and
``relation_matrix`` drops tadpole terms and refuses tadpole generators.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import combinations

from .errors import BudgetExceededError, InputError, PreconditionError

GROPE_BUDGET = 7
VASSILIEV_BUDGET = 4


class UniTrivalentGraph:
    """Half-edge structure: vertex rotation lists plus an edge involution.

    Half-edges are the ids 0..n-1, n = len(pairing); vertex i lists its
    half-edges in rotation order and pairing[h] is the other end of h's
    edge.  The constructor validates the graph; graphs that the module
    derives from valid ones skip the checks (``_derived``).  Both keep the
    half-edge index: owner[h] is the vertex of half-edge h and pos[h] its
    place in that vertex's rotation, so vertices[owner[h]][pos[h]] == h.
    """

    __slots__ = ("vertices", "pairing", "owner", "pos")

    def __init__(self, vertices: Sequence[Sequence[int]], pairing: Sequence[int]):
        vertices = tuple(tuple(v) for v in vertices)
        pairing = tuple(pairing)
        ids = range(len(pairing))
        flat = [h for v in vertices for h in v]
        if (not all(isinstance(h, int) for h in flat)
                or sorted(flat) != list(ids)):
            raise InputError("half-edge ids must be 0..n-1, each used once")
        for h, p in enumerate(pairing):
            if (not isinstance(p, int) or p not in ids
                    or p == h or pairing[p] != h):
                raise InputError("pairing must be a fixed-point-free involution")
        for v in vertices:
            if len(v) not in (1, 3):
                raise InputError("vertex degrees must be 1 or 3")
        if not any(len(v) == 1 for v in vertices):
            raise InputError("need at least one univalent vertex")
        self._index(vertices, pairing)
        owner = self.owner
        stack, seen = [0], {0}
        while stack:
            for h in vertices[stack.pop()]:
                j = owner[pairing[h]]
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        if len(seen) != len(vertices):
            raise InputError("diagram is not connected")

    def _index(self, vertices: tuple, pairing: tuple) -> "UniTrivalentGraph":
        """Store the parts and build the half-edge index, with no checks."""
        owner = [0] * len(pairing)
        pos = [0] * len(pairing)
        for i, v in enumerate(vertices):
            for k, h in enumerate(v):
                owner[h] = i
                pos[h] = k
        self.vertices = vertices
        self.pairing = pairing
        self.owner = tuple(owner)
        self.pos = tuple(pos)
        return self

    def has_tadpole(self) -> bool:
        owner = self.owner
        return any(owner[h] == owner[p] for h, p in enumerate(self.pairing))

    def edges(self) -> list:
        return [(h, self.pairing[h]) for h in range(len(self.pairing))
                if h < self.pairing[h]]

    def __repr__(self):
        return (f"UniTrivalentGraph(vertices={self.vertices!r}, "
                f"pairing={self.pairing!r})")


def _derived(vertices: tuple, pairing: tuple) -> UniTrivalentGraph:
    """A graph whose parts are valid by construction (grown, joined or
    reconnected from a valid one): indexed, not checked."""
    return UniTrivalentGraph.__new__(UniTrivalentGraph)._index(vertices,
                                                               pairing)


# ---------------------------------------------------------------------------
# canonical form


def canonical_form(d: UniTrivalentGraph) -> tuple:
    """Canonical key and AS sign of a diagram.

    Diagrams that differ by a rotation-respecting isomorphism and an even
    number of rotation reversals share (key, sign); an odd number of
    reversals negates the sign.  The key is the lexicographic minimum over
    BFS codes of all traversals starting at a univalent vertex, minimizing
    over the two rotation directions of each trivalent vertex; the sign is
    the reversal parity of the minimizing traversal.  Diagrams admitting
    minimal traversals of both parities are isomorphic to their own
    negative (any vertex with two interchangeable legs, for instance);
    they get sign +1 so that their AS rows degenerate to 2*D = 0, which is
    exactly what kills them rationally.
    """
    code, parities = _search(d)
    return _key(code), -1 if parities == 2 else 1


def _key(code: list) -> str:
    return ".".join("0.%d" % s if s < 4 else "1.%d.%d" % divmod(s - 4, 3)
                    for s in code)


def _search(d: UniTrivalentGraph, known: dict | None = None) -> tuple | None:
    """The minimal code of ``canonical_form`` and the reversal parities of
    the minimal traversals, as a bit set: 1 even, 2 odd, 3 both.  Given
    ``known``, a trie of minimal codes (see ``_lookup``), it is instead a
    first-match search: (leaf, parity bits) of the first traversal whose
    code is a known one, or None.

    Each queue step of a traversal emits "0.1" (a new leg), "0.3" (a new
    trivalent vertex) or "1.i.s" (back to vertex i, at rotation slot s
    from its entry half-edge); the search stores a step as the one integer
    1, 3 or 4 + 3i + s, which orders steps as their tokens do.  Start legs
    are searched cherry first: legs whose trivalent neighbour carries the
    most legs, since their codes open with the smallest steps.  A prefix
    is cut only when it is strictly greater than the best code so far, so
    the minimum and the parities of all traversals reaching it do not
    depend on the order; a small best code found early only cuts more.

    Two legs on one trivalent vertex w are searched once.  Let σ
    exchange them, with the half-edges at both ends of their edges, and
    fix every other half-edge.  It commutes with the pairing and keeps
    every rotation but w's, which it reverses.  So σ maps a traversal to
    one that numbers σ(x) as the first numbered x and takes the opposite
    direction at w and the same elsewhere; slots are read relative to the
    entry half-edge in the chosen direction, so every step, hence the
    code, is the same, and the reversal parity is the other one.  σ is an
    involution, so it pairs the traversals off into pairs with one code
    and both parities, and searching one of each pair, marked with both
    parities, leaves the minimum and its parity set unchanged:

    * a cherry, w reached through its third half-edge: σ fixes the start
      and pairs the two directions of w, so one direction is searched,
      with both parities from there on;
    * two start legs: σ pairs the traversals from one with those from the
      other, so one is searched, with both parities.

    Parities travel as that bit set; choosing the reversed direction
    swaps its two bits.

    The first-match search walks the same traversals in the same order,
    but cuts every prefix that is no path of the trie, and stops at the
    first complete code.  It is exact:

    * a code describes the diagram up to the rotation choices, so a
      traversal of d with the code of a known class G puts d in G's
      class; min over d = min over G = that code, so the traversal is a
      minimal one of d;
    * if d's minimal code is known, the search reaches it: the trie keeps
      every prefix of that code, and the two reductions above only skip
      traversals whose twin, with the same code, is searched;
    * a code ends exactly when its queue is empty, which its steps decide,
      so no complete code is a proper prefix of another: the trie node of
      a complete code is its leaf.

    The parity bits of the match are those of one minimal traversal of d
    (3 when a reduction marked both).  ``_lookup`` reads the sign from
    them unless G is its own negative.
    """
    verts, pairing, owner, pos = d.vertices, d.pairing, d.owner, d.pos
    n = len(verts)
    ids = [-1] * n                   # BFS number, -1 until discovered
    order = [0] * n                  # vertices by BFS number
    epos = [0] * n                   # position of the entry half-edge
    orient = [1] * n                 # -1 where the rotation is reversed
    steps = 1 + 2 * sum(len(v) == 3 for v in verts)
    queue = [0] * steps
    code = [0] * steps
    best = None                      # minimal code, or the matched leaf
    parities = 0                     # bit k: a minimal traversal of parity k

    def dfs(qi: int, qend: int, seen: int, par: int, decided: bool,
            node: dict | None) -> None:
        # decided: code[:qi] < best[:qi]; otherwise they are equal.
        # node: in a first-match search, the trie node of code[:qi]
        nonlocal best, parities
        mark = seen
        while qi < qend:
            p = pairing[queue[qi]]
            w = owner[p]
            i = ids[w]
            if i >= 0:
                step = 4 + 3 * i + (pos[p] - epos[w]) * orient[w] % 3
            else:
                ids[w] = seen
                order[seen] = w
                seen += 1
                epos[w] = pos[p]
                step = len(verts[w])
            if node is not None:
                node = node.get(step)
                if node is None:
                    break
            elif not decided and best is not None:
                if step > best[qi]:
                    break
                decided = step < best[qi]
            code[qi] = step
            qi += 1
            if step == 3:
                v, e = verts[w], pos[p]
                a, b = v[e - 2], v[e - 1]
                queue[qend], queue[qend + 1] = a, b
                qend += 2
                if len(verts[owner[pairing[a]]]) == 1 == \
                        len(verts[owner[pairing[b]]]):
                    par = 3          # a cherry: one direction for both
                    continue
                # branch over the two rotation directions of w
                orient[w] = 1
                before = best
                dfs(qi, qend, seen, par, decided, node)
                if best is not before:
                    if node is not None:
                        break        # the first match ends the search
                    decided = False  # the new best shares code[:qi]
                queue[qend - 2], queue[qend - 1] = b, a
                orient[w] = -1
                dfs(qi, qend, seen, (par & 1) << 1 | par >> 1, decided, node)
                break
        else:
            if node is not None or decided or best is None:
                best = code[:] if node is None else node
                parities = 0
            parities |= par
        for w in order[mark:seen]:
            ids[w] = -1

    legs = [i for i, v in enumerate(verts) if len(v) == 1]
    load = [0] * n                   # legs carried by each vertex
    for sv in legs:
        load[owner[pairing[verts[sv][0]]]] += 1
    legs.sort(key=lambda sv: -load[owner[pairing[verts[sv][0]]]])
    searched = set()                 # vertices whose legs are searched
    for sv in legs:
        w = owner[pairing[verts[sv][0]]]
        if w in searched:
            continue
        searched.add(w)
        ids[sv] = 0
        order[0] = sv
        queue[0] = verts[sv][0]
        dfs(0, 1, 1, 3 if load[w] > 1 else 1, False, known)
        ids[sv] = -1
        if known is not None and best is not None:
            break
    return None if best is None else (best, parities)


def _lookup(known: dict, d: UniTrivalentGraph) -> tuple:
    """(key, parities) of d, as ``canonical_form`` reads them: parities 3
    when d is its own negative, else the one parity of its minimal
    traversals.

    ``known`` is a trie of the minimal codes of the classes met so far:
    nested dicts keyed by step, whose last step maps to (key, both), both
    being 3 when the class is its own negative and 0 otherwise.  d is
    found by a first-match search (see ``_search``); a diagram of a new
    class is searched in full once and its code added.  If G is its own
    negative, so is d, whichever parity the match had; otherwise all
    minimal traversals of d have one parity, the match's.
    """
    hit = _search(d, known)
    if hit is not None:
        (key, both), par = hit
        return key, par | both
    code, parities = _search(d)
    key = _key(code)
    node = known
    for s in code[:-1]:
        node = node.setdefault(s, {})
    node[code[-1]] = key, 3 if parities == 3 else 0
    return key, parities


# ---------------------------------------------------------------------------
# enumeration


def _strut() -> UniTrivalentGraph:
    return UniTrivalentGraph(((0,), (1,)), (1, 0))


def _legs(d: UniTrivalentGraph) -> list:
    """The legs to grow or join: of the legs on one vertex, the first.

    A second leg on the vertex w of a first one is exchanged with it by
    the symmetry σ of ``_search``, which maps the diagram onto itself with
    w reversed.  So growing or joining at the second leg gives a diagram
    isomorphic to the one at the first with w reversed, which has the
    same key.  That candidate comes earlier in the same diagram's
    sequence: legs are taken in vertex order, and pairs in lexicographic
    order, where putting a smaller leg in place of one leg of a pair
    gives an earlier pair.  So no skipped candidate is the first of its
    key, and every layer keeps the same representatives.
    """
    owner, pairing = d.owner, d.pairing
    legs, carriers = [], set()
    for i, v in enumerate(d.vertices):
        if len(v) == 1 and owner[pairing[v[0]]] not in carriers:
            carriers.add(owner[pairing[v[0]]])
            legs.append(i)
    return legs


def _grow_leg(d: UniTrivalentGraph, leg: int) -> UniTrivalentGraph:
    """Replace univalent vertex `leg` by a Y: it becomes trivalent and
    carries two new legs."""
    n = len(d.pairing)
    vs = list(d.vertices)
    vs[leg] = (vs[leg][0], n, n + 1)
    vs += [(n + 2,), (n + 3,)]
    return _derived(tuple(vs), d.pairing + (n + 2, n + 3, n, n + 1))


def _join_legs(d: UniTrivalentGraph, a: int, b: int) -> UniTrivalentGraph:
    """Delete univalent vertices a and b and join the two half-edges they
    were attached to into one edge; half-edges are renumbered densely."""
    ha, hb = d.vertices[a][0], d.vertices[b][0]
    vs = [v for i, v in enumerate(d.vertices) if i not in (a, b)]
    ids = {h: k for k, h in enumerate(h for v in vs for h in v)}
    pairing = [0] * len(ids)
    for h, p in d.edges() + [(d.pairing[ha], d.pairing[hb])]:
        if h in ids and p in ids:
            pairing[ids[h]], pairing[ids[p]] = ids[p], ids[h]
    return _derived(tuple(tuple(ids[h] for h in v) for v in vs),
                    tuple(pairing))


def _distinct(diagrams: Iterable[UniTrivalentGraph]) -> list:
    """The first diagram of each canonical key, as (key, diagram) pairs.

    The first diagram of each class is searched in full; every later one
    is found by a first-match search against the keys found so far (see
    ``_lookup``)."""
    found: dict = {}
    known: dict = {}
    for d in diagrams:
        found.setdefault(_lookup(known, d)[0], d)
    return list(found.items())


def _joined(layer: list) -> list:
    """Layer (t, u - 2) from layer (t, u): every way of joining two of
    the legs ``_legs`` picks.  They sit on different vertices, so no join
    closes a tadpole."""
    return _distinct(_join_legs(d, a, b) for _, d in layer
                     for a, b in combinations(_legs(d), 2))


def enumerate_diagrams(i: int, grading: str = "grope") -> list:
    """Canonical diagram representatives of the given degree, sorted by key.

    A connected diagram with t trivalent vertices and u legs lies in layer
    (t, u), with 3t + u even and u <= t + 2 (its first Betti number is
    (t - u)/2 + 1).  grading="grope": degree i is t = i - 1 with
    1 <= u <= t + 2.  grading="vassiliev": degree n is t + u = 2n; the
    degree-1 strut (t = 0, key "strut") is included.
    """
    if grading == "grope":
        if i < 2:
            raise PreconditionError("below grading range")
        cells = {(i - 1, u) for u in range(i + 1, 0, -2)}
    elif grading == "vassiliev":
        if i < 0:
            raise PreconditionError("below grading range")
        cells = {(t, 2 * i - t) for t in range(max(1, i - 1), 2 * i)}
    else:
        raise PreconditionError(f"unknown grading {grading!r}")
    out = []
    if grading == "vassiliev" and i == 1:
        out.append(("strut", _strut()))
    trees = [("strut", _strut())]
    for t in range(1, max((t for t, _ in cells), default=0) + 1):
        trees = _distinct(_grow_leg(d, leg) for _, d in trees
                          for leg in _legs(d))
        layer = trees
        for u in range(t + 2, 0, -2):
            if (t, u) in cells:
                out.extend(layer)
            if not any(s == t and w < u for s, w in cells):
                break
            layer = _joined(layer)
    out.sort()
    return out


# ---------------------------------------------------------------------------
# relations


class RelationMatrix(namedtuple("RelationMatrix", "columns rows")):
    """AS and IHX relation instances over a fixed generator basis:
    `columns` holds the sorted canonical keys, `rows` one
    {column_index: int coefficient} dict per relation.  The fields are
    read-only; `rows` is a list of dicts, so the record is unhashable."""

    __slots__ = ()

    @property
    def n_rows(self) -> int:
        return len(self.rows)


def _ihx_terms(d: UniTrivalentGraph, h: int) -> list:
    """The two reconnections of the internal edge through half-edge h."""
    p = d.pairing[h]
    v1, v2 = d.owner[h], d.owner[p]
    # rotations read from the shared edge: (a, b, h) and (c, d, p)
    rot1, k1 = d.vertices[v1], d.pos[h]
    rot2, k2 = d.vertices[v2], d.pos[p]
    a, b = rot1[k1 - 2], rot1[k1 - 1]
    c, d_ = rot2[k2 - 2], rot2[k2 - 1]
    out = []
    for x, y, z, w in ((b, c, a, d_), (c, a, b, d_)):
        vs = list(d.vertices)
        vs[v1] = (x, y, h)
        vs[v2] = (z, w, p)
        out.append(_derived(tuple(vs), d.pairing))
    return out


def relation_matrix(i: int, grading: str = "grope",
                    generators: list | None = None) -> RelationMatrix:
    """All AS rows (per diagram, per trivalent vertex) and IHX rows (per
    diagram, per internal edge) over the canonical generators of degree i.

    The AS rows of one generator are all equal (see the module docstring):
    2·D when it is its own negative, else zero, repeated per trivalent
    vertex.  Each class met, generator or term, is searched in full once;
    every other diagram of it is found by a first-match search against
    the keys met so far (see ``_lookup``)."""
    gens = enumerate_diagrams(i, grading) if generators is None else generators
    columns = tuple(k for k, _ in gens)
    col_index = {k: j for j, k in enumerate(columns)}
    known: dict = {}
    rows = []

    def column(key):
        j = col_index.get(key)
        if j is None:
            raise PreconditionError(
                f"relation term {key} escapes the generator basis")
        return j

    def term(diag):
        # (column, sign) of one relation term; None for a tadpole, which is
        # rationally zero and dropped
        if diag.has_tadpole():
            return None
        key, parities = _lookup(known, diag)
        return column(key), -1 if parities == 2 else 1

    def term_vector(own, others) -> dict:
        vec: dict = {}
        for t in [own] + [term(d) for d in others]:
            if t is not None:
                vec[t[0]] = vec.get(t[0], 0) + t[1]
        return {k: v for k, v in vec.items() if v}

    for key, diag in gens:
        if diag.has_tadpole():
            raise PreconditionError(f"generator {key} has a tadpole")
        tri = [idx for idx, v in enumerate(diag.vertices) if len(v) == 3]
        if not tri:
            continue
        # the generator is a term of each of its rows: look it up once
        own_key, parities = _lookup(known, diag)
        own = column(own_key), -1 if parities == 2 else 1
        rows.extend({own[0]: 2} if parities == 3 else {} for _ in tri)
        owner = diag.owner
        for h, p in diag.edges():
            if len(diag.vertices[owner[h]]) == 3 == len(diag.vertices[owner[p]]):
                rows.append(term_vector(own, _ihx_terms(diag, h)))
    return RelationMatrix(columns, rows)


def rank_over_q(rows: Iterable[dict]) -> int:
    """Rank of sparse integer rows by exact fraction elimination."""
    pivots: dict = {}
    rank = 0
    for row in rows:
        r = {c: Fraction(v) for c, v in row.items() if v}
        while r:
            c = min(r)
            if c in pivots:
                f = r.pop(c)
                for cc, vv in pivots[c].items():
                    if cc == c:
                        continue
                    nv = r.get(cc, Fraction(0)) - f * vv
                    if nv:
                        r[cc] = nv
                    elif cc in r:
                        del r[cc]
            else:
                f = r[c]
                pivots[c] = {cc: vv / f for cc, vv in r.items()}
                rank += 1
                break
    return rank


def dim_graded_piece(i: int, grading: str = "grope",
                     budget: int | None = None) -> dict:
    """Number of generators, relations, and the rational dimension at one
    degree of the chosen grading."""
    if grading not in ("grope", "vassiliev"):
        raise PreconditionError(f"unknown grading {grading!r}")
    if budget is None:
        budget = GROPE_BUDGET if grading == "grope" else VASSILIEV_BUDGET
    if grading == "grope" and i < 2:
        raise PreconditionError("below grading range")
    if i > budget:
        raise BudgetExceededError(
            f"degree {i} exceeds the configured budget {budget}")
    gens = enumerate_diagrams(i, grading)
    rel = relation_matrix(i, grading, generators=gens)
    rank = rank_over_q(rel.rows)
    return {
        "grading": grading,
        "degree": i,
        "num_diagrams": len(gens),
        "num_relations": rel.n_rows,
        "dimension": len(gens) - rank,
    }
