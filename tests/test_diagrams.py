import hashlib
import random

import pytest

from knotbench.diagrams import (
    UniTrivalentGraph,
    _ihx_terms,
    _lookup,
    _search,
    canonical_form,
    dim_graded_piece,
    enumerate_diagrams,
    rank_over_q,
    relation_matrix,
)
from knotbench.errors import BudgetExceededError, InputError, PreconditionError
from oracles import (
    canonical_form_reference,
    enumerate_diagrams_every_leg,
    grope_degree,
    vassiliev_degree,
    with_rotation_reversed,
)


def Y():
    return UniTrivalentGraph(((0, 1, 2), (3,), (4,), (5,)), (3, 4, 5, 0, 1, 2))


def H_tree():
    return UniTrivalentGraph(((0, 2, 3), (1, 4, 5), (6,), (7,), (8,), (9,)),
                             (1, 0, 6, 7, 8, 9, 2, 3, 4, 5))


def theta_legs():
    return UniTrivalentGraph(((0, 2, 4), (1, 3, 5), (6,), (7,)),
                             (1, 0, 3, 2, 6, 7, 4, 5))


def tadpole_vertices(d):
    owner = d.owner
    return sorted({owner[h] for h, p in d.edges() if owner[h] == owner[p]})


def dimension(i, grading="grope"):
    return dim_graded_piece(i, grading)["dimension"]


def relabel(d, seed, flips=()):
    """Random relabeling preserving rotations, plus explicit reversals."""
    rng = random.Random(seed)
    n = len(d.pairing)
    perm = list(range(n))
    rng.shuffle(perm)
    vperm = list(range(len(d.vertices)))
    rng.shuffle(vperm)
    verts = [None] * len(d.vertices)
    for i, v in enumerate(d.vertices):
        nv = tuple(perm[h] for h in v)
        k = rng.randrange(len(nv))
        nv = nv[k:] + nv[:k]  # cyclic rotation: same rotation system
        if i in flips:
            nv = tuple(reversed(nv))
        verts[vperm[i]] = nv
    pairing = [0] * n
    for h, p in enumerate(d.pairing):
        pairing[perm[h]] = perm[p]
    return UniTrivalentGraph(verts, pairing)


CELLS = [("grope", i) for i in range(2, 8)] + \
    [("vassiliev", n) for n in range(1, 5)]


class TestDegrees:
    def test_vassiliev_examples(self):
        assert vassiliev_degree(Y()) == 2
        assert vassiliev_degree(H_tree()) == 3
        assert vassiliev_degree(theta_legs()) == 2

    def test_grope_examples(self):
        assert grope_degree(Y()) == 2
        assert grope_degree(theta_legs()) == 3
        assert grope_degree(H_tree()) == 3

    def test_validation(self):
        # a tadpole is a valid graph; relation_matrix refuses it as a generator
        assert UniTrivalentGraph(((0, 1, 2), (3,)), (1, 0, 3, 2)).has_tadpole()
        with pytest.raises(InputError, match="connected"):
            UniTrivalentGraph(((0,), (1,), (2,), (3,)), (1, 0, 3, 2))
        with pytest.raises(InputError, match="univalent"):
            UniTrivalentGraph(((0, 2, 4), (1, 3, 5)), (1, 0, 3, 2, 5, 4))


@pytest.mark.parametrize("vertices,pairing", [
    (((0, 1, 2), (1,), (4,), (5,)), (3, 4, 5, 0, 1, 2)),
    (((0, 1, 2), (6,), (4,), (5,)), (3, 4, 5, 0, 1, 2)),
    (((0, 1, 2), (4,), (5,)), (3, 4, 5, 0, 1, 2)),
    (((0, 1, 2), (3,), (4,), (5,)), (3, 4, 6, 0, 1, 2)),
    (((0, 1, 2), (3,), (4,), (5,)), (3, 4, -1, 0, 1, 2)),
    (((0, 1, 2), (3,), (4,), (5,)), (3, 4, 5.0, 0, 1, 2)),
    (((0, 1, 2), (3,), (4,), (5,)), (3, 4, "5", 0, 1, 2)),
    (((0, 1, 2.0), (3,), (4,), (5,)), (3, 4, 5, 0, 1, 2)),
    (((0, 1, 2), (3,), (4,), (5,)), (3, 4, 5, 0, 1, 1)),
], ids=["duplicate-id", "id-at-least-n", "missing-id", "pairing-out-of-range",
        "pairing-negative", "pairing-float", "pairing-str", "id-float",
        "pairing-not-involution"])
def test_malformed_half_edges_raise_input_error(vertices, pairing):
    with pytest.raises(InputError):
        UniTrivalentGraph(vertices, pairing)


def test_half_edge_index():
    # relabelled copies start their rotations at random half-edges
    for d in (Y(), H_tree(), theta_legs()):
        for seed in range(5):
            c = relabel(d, seed)
            assert all(c.vertices[c.owner[h]][c.pos[h]] == h
                       for h in range(len(c.pairing)))


class TestCanonicalForm:
    def test_relabeling_same_key(self):
        for d in (Y(), H_tree(), theta_legs()):
            key, sign = canonical_form(d)
            for seed in range(25):
                k2, s2 = canonical_form(relabel(d, seed))
                assert (k2, s2) == (key, sign)

    def test_explicit_reversal_tracks_sign(self):
        th = theta_legs()
        key, sign = canonical_form(th)
        for seed in range(10):
            k2, s2 = canonical_form(relabel(th, seed, flips=(0,)))
            assert k2 == key and s2 == -sign

    def test_as_involution(self):
        th = theta_legs()
        twice = with_rotation_reversed(with_rotation_reversed(th, 0), 0)
        assert canonical_form(twice) == canonical_form(th)

    def test_leg_swap_degenerate_diagrams_get_plus_one(self):
        # Y is isomorphic to its own reversal via a leg swap
        key, sign = canonical_form(Y())
        kr, sr = canonical_form(with_rotation_reversed(Y(), 0))
        assert key == kr and sign == 1 == sr

    def test_distinct_classes_distinct_keys(self):
        assert canonical_form(Y())[0] != canonical_form(H_tree())[0]
        assert canonical_form(H_tree())[0] != canonical_form(theta_legs())[0]

    def test_idempotent_on_degree_3_enumeration(self):
        for key, d in enumerate_diagrams(3):
            assert canonical_form(d)[0] == key

    @pytest.mark.parametrize("grading,degree", CELLS)
    def test_matches_reference_oracle(self, grading, degree):
        # every generator, every AS and IHX term (tadpole terms included)
        # and three relabelled copies of each generator agree with the
        # reference search; a copy's sign follows the parity of its flips
        # unless the generator is its own negative
        for _, d in enumerate_diagrams(degree, grading):
            owner = d.owner
            tri = [v for v, rot in enumerate(d.vertices) if len(rot) == 3]
            terms = [d] + [with_rotation_reversed(d, v) for v in tri]
            for h, p in d.edges():
                if len(d.vertices[owner[h]]) == 3 == len(d.vertices[owner[p]]):
                    terms += _ihx_terms(d, h)
            for term in terms:
                assert canonical_form(term) == canonical_form_reference(term)
            ref_key, ref_sign = canonical_form_reference(d)
            self_negative = bool(tri) and canonical_form_reference(
                with_rotation_reversed(d, tri[0]))[1] == ref_sign
            for seed in range(3):
                flips = tuple(tri[:seed])
                sign = ref_sign if self_negative else \
                    ref_sign * (-1) ** len(flips)
                assert canonical_form(relabel(d, seed, flips=flips)) == \
                    (ref_key, sign)


class TestLookup:
    @pytest.mark.parametrize("grading,degree",
                             [("grope", i) for i in range(2, 9)]
                             + [("vassiliev", n) for n in range(1, 5)])
    def test_first_match_agrees_with_oracles(self, grading, degree):
        # once the generators are known, relabelled copies with random
        # rotation reversals are found by the first-match search, with the
        # (key, sign) of canonical_form and of the reference search
        gens = enumerate_diagrams(degree, grading)
        known = {}
        for _, d in gens:
            assert _lookup(known, d)[0] == canonical_form(d)[0]
        rng = random.Random(degree)
        for _, d in gens:
            tri = [v for v, rot in enumerate(d.vertices) if len(rot) == 3]
            for _ in range(3):
                flips = tuple(v for v in tri if rng.random() < 0.5)
                copy = relabel(d, rng.random(), flips=flips)
                assert _search(copy, known) is not None
                got_key, parities = _lookup(known, copy)
                got = got_key, -1 if parities == 2 else 1
                assert got == canonical_form(copy) == \
                    canonical_form_reference(copy)


class TestEnumeration:
    def test_degree_2_is_exactly_y(self):
        gens = enumerate_diagrams(2)
        assert len(gens) == 1
        assert gens[0][0] == canonical_form(Y())[0]

    def test_degree_3_two_classes(self):
        gens = enumerate_diagrams(3)
        assert len(gens) == 2
        keys = {k for k, _ in gens}
        assert keys == {canonical_form(H_tree())[0],
                        canonical_form(theta_legs())[0]}

    def test_below_range_rejected(self):
        with pytest.raises(PreconditionError, match="below grading range"):
            enumerate_diagrams(1)

    def test_sorted_and_deterministic(self):
        a = [k for k, _ in enumerate_diagrams(5)]
        b = [k for k, _ in enumerate_diagrams(5)]
        assert a == b == sorted(a)

    def test_grope_degree_tags(self):
        for i in (2, 3, 4, 5):
            for _, d in enumerate_diagrams(i):
                assert grope_degree(d) == i
                assert any(len(v) == 1 for v in d.vertices)
                assert not d.has_tadpole()

    @pytest.mark.parametrize("grading,degree,count,digest", [
        ("grope", 2, 1, "5c4b52a611a407a3"),
        ("grope", 3, 2, "f9bfa7ded74018e7"),
        ("grope", 4, 4, "7d6327644733f95b"),
        ("grope", 5, 10, "2d964d202d64dcae"),
        ("grope", 6, 22, "d25d4a09e5460ce8"),
        ("grope", 7, 62, "3d82841604db1c31"),
        ("grope", 8, 166, "8f44ed0d1e23026b"),
        ("vassiliev", 2, 3, "3195c7f599303fdb"),
        ("vassiliev", 3, 11, "d49723c55f64c46d"),
        ("vassiliev", 4, 51, "19561f07cd9e32e5"),
    ])
    def test_pinned_generator_keys(self, grading, degree, count, digest):
        # counts and key digests of the labeled-multigraph enumeration that
        # generation from the strut replaced; grope 8 from generation that
        # grew and joined every leg
        keys = [k for k, _ in enumerate_diagrams(degree, grading)]
        assert len(keys) == count
        assert keys == sorted(keys)
        sha = hashlib.sha256("\n".join(keys).encode()).hexdigest()
        assert sha[:16] == digest

    @pytest.mark.parametrize("grading,degree", CELLS)
    def test_representatives_match_every_leg_oracle(self, grading, degree):
        # growing and joining at one leg per vertex keeps the first diagram
        # of each key that growing and joining at every leg finds
        got = [(k, d.vertices, d.pairing)
               for k, d in enumerate_diagrams(degree, grading)]
        assert got == enumerate_diagrams_every_leg(degree, grading)

    def test_strut_key_at_vassiliev_1(self):
        assert [k for k, _ in enumerate_diagrams(1, "vassiliev")] == ["strut"]


class TestRelationMatrix:
    def test_as_kills_y(self):
        rel = relation_matrix(2)
        assert any(row == {0: 2} or row == {0: -2} for row in rel.rows)

    def test_empty_generator_set(self):
        rel = relation_matrix(2, generators=[])
        assert rel.rows == [] and rel.columns == ()

    def test_rows_homogeneous_through_degree_6(self):
        # AS and IHX keep the trivalent and leg counts, so no row may mix
        # the (t, u) cells of its columns
        for i in range(2, 7):
            gens = enumerate_diagrams(i)
            rel = relation_matrix(i, generators=gens)
            cells = [(sum(len(v) == 3 for v in d.vertices),
                      sum(len(v) == 1 for v in d.vertices)) for _, d in gens]
            assert all(grope_degree(d) == i for _, d in gens)
            for row in rel.rows:
                assert len({cells[c] for c in row}) <= 1, (i, row)

    def test_dropped_tadpole_terms_are_as_self_negative(self):
        # relation_matrix drops every IHX term with a tadpole; each is its
        # own negative under AS at the tadpole vertex, so 2D = 0 over Q
        dropped = 0
        for grading, degrees in (("grope", range(2, 7)),
                                 ("vassiliev", range(1, 4))):
            for i in degrees:
                for _, d in enumerate_diagrams(i, grading):
                    owner = d.owner
                    internal = [h for h, p in d.edges()
                                if len(d.vertices[owner[h]]) == 3
                                and len(d.vertices[owner[p]]) == 3]
                    for term in (t for h in internal
                                 for t in _ihx_terms(d, h)):
                        for v in tadpole_vertices(term):
                            dropped += 1
                            reversed_v = with_rotation_reversed(term, v)
                            assert canonical_form(reversed_v) == \
                                canonical_form(term)
        assert dropped == 74

    def test_tadpole_generator_refused(self):
        tadpole = UniTrivalentGraph(((0, 1, 2), (3,)), (1, 0, 3, 2))
        gens = [(canonical_form(tadpole)[0], tadpole)]
        with pytest.raises(PreconditionError, match="tadpole"):
            relation_matrix(2, generators=gens)

    def test_incomplete_generators_rejected(self):
        gens = enumerate_diagrams(4)
        with pytest.raises(PreconditionError, match="escapes the generator"):
            relation_matrix(4, generators=gens[:1] + gens[2:])

    @pytest.mark.parametrize("grading,degree,count,digest", [
        ("grope", 2, 1, "20cab5066581e447"),
        ("grope", 3, 7, "af61198877d2c4a7"),
        ("grope", 4, 24, "eae4b277f8c36cac"),
        ("grope", 5, 82, "6a50fb89084923ce"),
        ("grope", 6, 235, "db5ccfeb22407b86"),
        ("grope", 7, 801, "5dc5da7797893d84"),
        ("grope", 8, 2543, "8bd20a84ac2d1d08"),
        ("vassiliev", 1, 0, "e3b0c44298fc1c14"),
        ("vassiliev", 2, 12, "a1d72206f873cd3a"),
        ("vassiliev", 3, 99, "1addf39d80a148a3"),
        ("vassiliev", 4, 711, "fb4b87e6d15934af"),
    ])
    def test_pinned_relation_rows(self, grading, degree, count, digest):
        # row counts and digests of the rows, each as its sorted
        # (column, coefficient) list in row order, from the relation
        # matrix that canonicalised every AS term separately (grope 8: one
        # reversed copy per generator); the zero AS rows are kept, since
        # num_relations counts them
        rel = relation_matrix(degree, grading)
        assert rel.n_rows == count
        text = "\n".join(repr(sorted(row.items())) for row in rel.rows)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_pinned_vassiliev_5(self):
        # key and row digests, hashed as in test_pinned_generator_keys and
        # test_pinned_relation_rows, from the code that searched every
        # diagram in full; the cell is built once for both
        gens = enumerate_diagrams(5, "vassiliev")
        keys = [k for k, _ in gens]
        assert len(keys) == 297 and keys == sorted(keys)
        sha = hashlib.sha256("\n".join(keys).encode()).hexdigest()
        assert sha[:16] == "d610679ce947cbf0"
        rel = relation_matrix(5, "vassiliev", generators=gens)
        assert rel.n_rows == 5559
        text = "\n".join(repr(sorted(row.items())) for row in rel.rows)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == \
            "58da59bc08bfb61f"

    def test_ihx_rows_have_at_most_three_terms(self):
        # an AS row has two terms and an IHX row three, before cancellation
        rel = relation_matrix(4)
        for row in rel.rows:
            assert sum(abs(c) for c in row.values()) <= 3


class TestDimensions:
    def test_dim_2_and_3(self):
        assert dimension(2) == 0
        assert dimension(3) == 1

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            dimension(8)
        with pytest.raises(BudgetExceededError):
            dimension(5, "vassiliev")
        with pytest.raises(PreconditionError):
            dimension(1)

    def test_unknown_grading(self):
        with pytest.raises(PreconditionError, match="unknown grading"):
            enumerate_diagrams(3, grading="foo")
        with pytest.raises(PreconditionError, match="unknown grading"):
            dim_graded_piece(3, grading="foo", budget=2)

    def test_permuted_elimination_oracle(self):
        rng = random.Random(5)
        for i in (4, 5):
            gens = enumerate_diagrams(i)
            rel = relation_matrix(i, generators=gens)
            base = len(gens) - rank_over_q(rel.rows)
            for _ in range(5):
                ncols = len(rel.columns)
                colperm = list(range(ncols))
                rng.shuffle(colperm)
                rows = [{colperm[c]: v for c, v in row.items()}
                        for row in rel.rows]
                rng.shuffle(rows)
                assert len(gens) - rank_over_q(rows) == base

    def test_vassiliev_cross_grading(self):
        assert dimension(0, "vassiliev") == 0
        assert dimension(1, "vassiliev") == 1  # the framing strut
        assert dimension(2, "vassiliev") == 1
        assert dimension(3, "vassiliev") == 1

    def test_vassiliev_4_bar_natan(self):
        # Bar-Natan, "On the Vassiliev knot invariants" (1995): 1, 1, 1, 2
        assert dimension(4, "vassiliev") == 2

    def test_rank_over_q_simple(self):
        assert rank_over_q([{0: 1, 1: 1}, {0: 2, 1: 2}, {1: 1}]) == 2
        assert rank_over_q([]) == 0
        assert rank_over_q([{}]) == 0
