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
one edge.  ``canonical_form`` is the only deduplicator: each layer keeps
one diagram per key.  The key minimises over the rotation directions, so
it names the underlying graph, and one diagram per key is enough to grow
the next layer from.  The generation is complete:

* every tree with t >= 2 has a trivalent vertex carrying two legs, and
  replacing that Y by one leg gives a tree at t - 1;
* a diagram in (t, u) with u < t + 2 has a cycle, and cutting an edge on
  it gives a connected diagram in (t, u + 2) whose two new legs sit on
  different trivalent vertices unless the edge was a tadpole.

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
zero.  ``relation_matrix`` computes that row once per generator and
repeats it for each trivalent vertex, keeping the row count.

Diagrams with a tadpole (an edge closing on its own vertex) are rationally
zero by AS.  A graph may carry one, since IHX reconnections can create
tadpole terms, but generation never joins two legs on one vertex, and
``relation_matrix`` drops tadpole terms and refuses tadpole generators.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction

from .errors import BudgetExceededError, InputError, PreconditionError

GROPE_BUDGET = 7
VASSILIEV_BUDGET = 4


class UniTrivalentGraph:
    """Half-edge structure: vertex rotation lists plus an edge involution.

    Half-edges are the ids 0..n-1, n = len(pairing); vertex i lists its
    half-edges in rotation order and pairing[h] is the other end of h's
    edge.  The constructor validates the graph and keeps its half-edge
    index: owner[h] is the vertex of half-edge h and pos[h] its place in
    that vertex's rotation, so vertices[owner[h]][pos[h]] == h.
    """

    __slots__ = ("vertices", "pairing", "owner", "pos")

    def __init__(self, vertices: Sequence[Sequence[int]], pairing: Sequence[int]):
        vertices = tuple(tuple(v) for v in vertices)
        pairing = tuple(pairing)
        ids = range(len(pairing))
        owner = [-1] * len(pairing)
        pos = [0] * len(pairing)
        for i, v in enumerate(vertices):
            for k, h in enumerate(v):
                if not isinstance(h, int) or h not in ids or owner[h] >= 0:
                    raise InputError(
                        "half-edge ids must be 0..n-1, each used once")
                owner[h] = i
                pos[h] = k
        if -1 in owner:
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
        stack, seen = [0], {0}
        while stack:
            for h in vertices[stack.pop()]:
                j = owner[pairing[h]]
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        if len(seen) != len(vertices):
            raise InputError("diagram is not connected")
        self.vertices = vertices
        self.pairing = pairing
        self.owner = tuple(owner)
        self.pos = tuple(pos)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.pairing) // 2

    def has_tadpole(self) -> bool:
        owner = self.owner
        return any(owner[h] == owner[p] for h, p in enumerate(self.pairing))

    def with_rotation_reversed(self, vertex_index: int) -> "UniTrivalentGraph":
        vs = list(self.vertices)
        vs[vertex_index] = tuple(reversed(vs[vertex_index]))
        return UniTrivalentGraph(vs, self.pairing)

    def edges(self) -> list:
        return [(h, self.pairing[h]) for h in range(len(self.pairing))
                if h < self.pairing[h]]

    def __repr__(self):
        return (f"UniTrivalentGraph(vertices={self.vertices!r}, "
                f"pairing={self.pairing!r})")


def vassiliev_degree(d: UniTrivalentGraph) -> int:
    """Half the number of vertices."""
    return d.n_vertices // 2


def grope_degree(d: UniTrivalentGraph) -> int:
    """Vassiliev degree plus the first Betti number of the graph."""
    b1 = d.n_edges - d.n_vertices + 1
    return vassiliev_degree(d) + b1


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

    Each queue step of a traversal emits "0.1" (a new leg), "0.3" (a new
    trivalent vertex) or "1.i.s" (back to vertex i, at rotation slot s
    from its entry half-edge); the search stores a step as the one integer
    1, 3 or 4 + 3i + s, which orders steps as their tokens do.  Start legs
    are searched cherry first: legs whose trivalent neighbour carries the
    most legs, since their codes open with the smallest steps.  Every leg
    is still searched, and a prefix is cut only when it is strictly
    greater than the best code so far, so the minimum and the parities of
    all traversals reaching it, hence key and sign, do not depend on the
    order; a small best code found early only cuts more.
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
    best: list | None = None
    parities = 0                     # bit k: a minimal traversal of parity k

    def dfs(qi: int, qend: int, seen: int, flips: int, decided: bool) -> None:
        # decided: code[:qi] < best[:qi]; otherwise they are equal
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
            if not decided and best is not None:
                if step > best[qi]:
                    break
                decided = step < best[qi]
            code[qi] = step
            qi += 1
            if step == 3:
                # branch over the two rotation directions of w
                v, e = verts[w], pos[p]
                queue[qend], queue[qend + 1] = v[e - 2], v[e - 1]
                orient[w] = 1
                before = best
                dfs(qi, qend + 2, seen, flips, decided)
                if best is not before:
                    decided = False  # the new best shares code[:qi]
                queue[qend], queue[qend + 1] = v[e - 1], v[e - 2]
                orient[w] = -1
                dfs(qi, qend + 2, seen, flips + 1, decided)
                break
        else:
            if decided or best is None:
                best = code[:]
                parities = 0
            parities |= 1 << (flips & 1)
        for w in order[mark:seen]:
            ids[w] = -1

    legs = [i for i, v in enumerate(verts) if len(v) == 1]
    load = [0] * n                   # legs carried by each vertex
    for sv in legs:
        load[owner[pairing[verts[sv][0]]]] += 1
    legs.sort(key=lambda sv: -load[owner[pairing[verts[sv][0]]]])
    for sv in legs:
        ids[sv] = 0
        order[0] = sv
        queue[0] = verts[sv][0]
        dfs(0, 1, 1, 0, False)
        ids[sv] = -1

    key = ".".join("0.%d" % s if s < 4 else "1.%d.%d" % divmod(s - 4, 3)
                   for s in best)
    sign = -1 if parities == 2 else 1
    return key, sign


# ---------------------------------------------------------------------------
# enumeration


def _strut() -> UniTrivalentGraph:
    return UniTrivalentGraph(((0,), (1,)), (1, 0))


def _legs(d: UniTrivalentGraph) -> list:
    return [i for i, v in enumerate(d.vertices) if len(v) == 1]


def _grow_leg(d: UniTrivalentGraph, leg: int) -> UniTrivalentGraph:
    """Replace univalent vertex `leg` by a Y: it becomes trivalent and
    carries two new legs."""
    n = len(d.pairing)
    vs = list(d.vertices)
    vs[leg] = (vs[leg][0], n, n + 1)
    vs += [(n + 2,), (n + 3,)]
    return UniTrivalentGraph(vs, d.pairing + (n + 2, n + 3, n, n + 1))


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
    return UniTrivalentGraph([[ids[h] for h in v] for v in vs], pairing)


def _distinct(diagrams: Iterable[UniTrivalentGraph]) -> list:
    """The first diagram of each canonical key, as (key, diagram) pairs."""
    found: dict = {}
    for d in diagrams:
        found.setdefault(canonical_form(d)[0], d)
    return list(found.items())


def _joined(layer: list) -> list:
    """Layer (t, u - 2) from layer (t, u): every way of joining two legs
    that sit on different vertices (two legs on one vertex would close a
    tadpole)."""
    def joins(d):
        ends = [(i, d.owner[d.pairing[d.vertices[i][0]]]) for i in _legs(d)]
        for k, (a, va) in enumerate(ends):
            for b, vb in ends[k + 1:]:
                if va != vb:
                    yield _join_legs(d, a, b)
    return _distinct(g for _, d in layer for g in joins(d))


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


class RelationMatrix:
    """AS and IHX relation instances over a fixed generator basis:
    `columns` holds the sorted canonical keys, `rows` one
    {column_index: int coefficient} dict per relation.  Mutable, so equal
    by value and unhashable."""

    __slots__ = ("columns", "rows")

    def __init__(self, columns: tuple, rows: list):
        self.columns = columns
        self.rows = rows

    def __eq__(self, o):
        if o.__class__ is not self.__class__:
            return NotImplemented
        return (self.columns, self.rows) == (o.columns, o.rows)

    def __repr__(self):
        return f"RelationMatrix(columns={self.columns!r}, rows={self.rows!r})"

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
        out.append(UniTrivalentGraph(vs, d.pairing))
    return out


def relation_matrix(i: int, grading: str = "grope",
                    generators: list | None = None) -> RelationMatrix:
    """All AS rows (per diagram, per trivalent vertex) and IHX rows (per
    diagram, per internal edge) over the canonical generators of degree i.

    The AS rows of one generator are all equal (see the module docstring),
    so one reversed copy is canonicalised and its row repeated."""
    gens = enumerate_diagrams(i, grading) if generators is None else generators
    columns = tuple(k for k, _ in gens)
    col_index = {k: j for j, k in enumerate(columns)}
    rows = []

    def term(diag):
        # (column, sign) of one relation term; None for a tadpole, which is
        # rationally zero and dropped
        if diag.has_tadpole():
            return None
        key, sign = canonical_form(diag)
        j = col_index.get(key)
        if j is None:
            raise PreconditionError(
                f"relation term {key} escapes the generator basis")
        return j, sign

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
        # the generator is a term of each of its rows: canonicalise it once
        own = term(diag)
        as_row = term_vector(own, [diag.with_rotation_reversed(tri[0])])
        rows.extend(dict(as_row) for _ in tri)
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
