import json
import random
import textwrap

import pytest

from knotbench.errors import InputError
from knotbench.seifert import (
    SeifertMatrix,
    UNKNOT,
    connected_sum,
    integer_determinant,
    load_knot_table,
    mirror,
)

from conftest import torus


class TestSeifertMatrix:
    def test_invariants_enforced(self):
        with pytest.raises(InputError, match="even"):
            SeifertMatrix([[1]])
        with pytest.raises(InputError, match="square"):
            SeifertMatrix([[1, 2]])
        with pytest.raises(InputError, match="Seifert"):
            SeifertMatrix([[0, 0], [0, 0]])  # skew part singular

    @pytest.mark.parametrize("rows", [
        [[-1.9, 1], [0, -1]],          # int() would truncate it to a knot
        [[-1, 1], [0, True]],
        [[1, "a"], [0, 1]],
    ])
    def test_non_integer_entries_refused(self, rows):
        with pytest.raises(InputError, match="not an integer"):
            SeifertMatrix(rows)

    @pytest.mark.parametrize("rows", [5, [1, 2], {}, "", {"a": 1}, "ab",
                                      [{}, {}], ["ab", "cd"], [b"ab", b"cd"]])
    def test_non_array_refused(self, rows):
        with pytest.raises(InputError, match="array of rows"):
            SeifertMatrix(rows)

    def test_integer_like_entries_accepted(self):
        import numpy as np

        v = SeifertMatrix(np.array([[-1, 1], [0, -1]]))
        assert v.rows == ((-1, 1), (0, -1))
        assert all(type(x) is int for row in v.rows for x in row)

    def test_genus(self):
        assert UNKNOT.genus == 0
        assert SeifertMatrix([[-1, 1], [0, -1]]).genus == 1

    def test_integer_determinant(self):
        assert integer_determinant([]) == 1
        assert integer_determinant([[0, 1], [-1, 0]]) == 1
        assert integer_determinant([[2, 0], [0, 3]]) == 6
        assert integer_determinant([[1, 2], [2, 4]]) == 0


def _berkowitz(m):
    import sympy

    return int(sympy.Matrix(m).det(method="berkowitz")) if m else 1


def _banded(rng, n, lower):
    return [[rng.randint(-4, 4) if -lower <= j - i <= 2 else 0
             for j in range(n)] for i in range(n)]


def _permuted(rng, m):
    rows, cols = list(range(len(m))), list(range(len(m)))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return [[m[i][j] for j in cols] for i in rows]


def _block_diagonal(rng, n):
    m = [[0] * n for _ in range(n)]
    start = 0
    while start < n:
        end = min(n, start + rng.randint(1, 4))
        for i in range(start, end):
            for j in range(start, end):
                m[i][j] = rng.randint(-5, 5)
        start = end
    return m


def _sparse(rng, n):
    density = rng.uniform(0.1, 1)
    return [[rng.randint(-6, 6) if rng.random() < density else 0
             for _ in range(n)] for _ in range(n)]


def _duplicate_row(rng, n):
    m = _sparse(rng, n)
    if n > 1:
        i, j = rng.sample(range(n), 2)
        m[i] = list(m[j])
    return m


def _emptying_column(rng, n):
    """Column c is a combination of the columns before it, so its entries
    in rows c and below are 0 after step c - 1."""
    m = _sparse(rng, n)
    if n > 1:
        c = rng.randrange(1, n)
        coef = [rng.randint(-2, 2) for _ in range(c)]
        for row in m:
            row[c] = sum(a * row[t] for t, a in enumerate(coef))
    return m


def _stale_pivot(rng, n):
    """A nonsingular s x s block over rows 0 .. s - 1, and below it rows
    that are 0 in columns 0 .. s - 1, so steps 0 .. s - 1 skip them.  Rows
    s .. n - 2 are 0 in column s too, so step s swaps in the last row,
    skipped for s steps; the lower right block is a cyclic shift of a
    triangular one with a nonzero diagonal, so the matrix is nonsingular."""
    s = rng.randrange(1, n - 1)
    while True:
        m = [[rng.randint(-5, 5) if rng.random() < 0.6 else 0
              for _ in range(n)] for _ in range(s)]
        if _berkowitz([row[:s] for row in m]):
            break
    for i in range(s, n):
        lead = s if i == n - 1 else i + 1
        m.append([0] * lead + [rng.choice((-3, -1, 1, 2))]
                 + [rng.randint(-5, 5) for _ in range(n - lead - 1)])
    return m


def _matrices():
    rng = random.Random(20260417)
    for n in range(13):
        for lower in (1, 2, 3):
            band = _banded(rng, n, lower)
            yield f"banded{lower}-{n}", band
            yield f"banded{lower}-permuted-{n}", _permuted(rng, band)
        yield f"block-{n}", _block_diagonal(rng, n)
        for t in range(3):
            yield f"density-{n}-{t}", _sparse(rng, n)
        yield f"duplicate-row-{n}", _duplicate_row(rng, n)
        yield f"emptying-column-{n}", _emptying_column(rng, n)
        if n >= 3:
            for t in range(3):
                yield f"stale-pivot-{n}-{t}", _stale_pivot(rng, n)


class TestIntegerDeterminantAgainstSympy:
    """Rows with a zero in the pivot column are left alone and scaled up
    to date when next needed; these shapes skip rows for one step or
    many, swap skipped rows in as pivots, and end singular."""

    @pytest.mark.parametrize("name,m", list(_matrices()))
    def test_matches_berkowitz(self, name, m):
        assert integer_determinant(m) == _berkowitz(m)

    def test_shapes_reach_every_case(self):
        dets = {name: integer_determinant(m) for name, m in _matrices()}
        assert dets["duplicate-row-12"] == dets["emptying-column-12"] == 0
        assert all(d for name, d in dets.items()
                   if name.startswith("stale-pivot"))

    @pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (2, 7), (2, 9), (2, 13),
                                     (2, 21), (3, 4), (3, 5), (4, 3),
                                     (2, 41), (7, 8)])
    def test_braid_forms_v_minus_k_vt(self, p, q):
        """det(V - kV^T) = k^g Delta(k) for T(p, q), where t^g Delta(t) is
        (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)), 1 at t = 0 and t = 1.
        Berkowitz checks every k up to genus 10; past it, where it takes
        seconds per form, only k = 0, 2 and g."""
        v = torus(p, q)
        n, rows, g = v.size, v.rows, v.genus
        for k in range(g + 1):
            m = [[rows[i][j] - k * rows[j][i] for j in range(n)]
                 for i in range(n)]
            det = integer_determinant(m)
            assert det == (1 if k < 2 else (k ** (p * q) - 1) * (k - 1)
                           // ((k ** p - 1) * (k ** q - 1))), k
            if g <= 10 or k in (0, 2, g):
                assert det == _berkowitz(m), k


class TestConnectedSumAndMirror:
    def test_identity_element(self, trefoil):
        assert connected_sum(UNKNOT, trefoil) == trefoil
        assert connected_sum(trefoil, UNKNOT) == trefoil

    def test_mirror_involution(self, trefoil, figure_eight):
        for v in (trefoil, figure_eight, UNKNOT):
            assert mirror(mirror(v)) == v

    def test_block_structure(self, trefoil):
        s = connected_sum(trefoil, trefoil)
        assert s.size == 4
        assert s.rows[0][:2] == trefoil.rows[0]
        assert s.rows[2][2:] == trefoil.rows[0]
        assert s.rows[0][2:] == (0, 0)


class TestKnotTable:
    def test_integer_past_the_str_limit(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('[{"name": "k", "seifert": [[1%s]]}]' % ("0" * 5000))
        with pytest.raises(InputError, match="huge.json: Exceeds the limit"):
            load_knot_table(str(path))

    def test_load_valid_single_entry(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps(
            [{"name": "trefoil", "braid": {"strands": 2, "word": [1, 1, 1]}}]))
        entries = load_knot_table(str(path))
        assert len(entries) == 1
        assert entries[0].seifert_matrix().size == 2

    def test_invalid_matrix_names_entry(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            [{"name": "broken", "seifert": [[0, 0], [0, 0]]}]))
        with pytest.raises(InputError, match="broken"):
            load_knot_table(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        assert load_knot_table(str(path)) == []

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "syntax.json"
        path.write_text('[{"name": "x",}]')
        with pytest.raises(InputError, match=r":\d+:"):
            load_knot_table(str(path))

    def test_entry_requires_some_input(self, tmp_path):
        path = tmp_path / "noinput.json"
        path.write_text(json.dumps([{"name": "nothing"}]))
        with pytest.raises(InputError, match="braid' or 'seifert"):
            load_knot_table(str(path))

    def test_non_integer_braid_letter_names_entry(self, tmp_path):
        path = tmp_path / "float.json"
        path.write_text(json.dumps(
            [{"name": "floaty", "braid": {"strands": 2, "word": [1, 1.5, 1]}}]))
        with pytest.raises(InputError, match="floaty.*not an integer"):
            load_knot_table(str(path))

    def test_csv_variant(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text(textwrap.dedent("""\
            name,strands,word
            trefoil,2,1 1 1
            fig8,3,1 -2 1 -2
        """))
        entries = load_knot_table(str(path))
        assert [e.name for e in entries] == ["trefoil", "fig8"]
        assert entries[1].braid.strands == 3

    def test_path_objects_load_like_strings(self, tmp_path):
        csv_path = tmp_path / "table.csv"
        csv_path.write_text("name,strands,word\ntrefoil,2,1 1 1\n")
        json_path = tmp_path / "table.json"
        json_path.write_text(json.dumps(
            [{"name": "trefoil", "braid": {"strands": 2, "word": [1, 1, 1]}}]))
        for path in (csv_path, json_path):
            by_path = load_knot_table(path)
            by_str = load_knot_table(str(path))
            assert [e.name for e in by_path] == ["trefoil"]
            assert (by_path[0].seifert_matrix().rows
                    == by_str[0].seifert_matrix().rows)

    def test_csv_bad_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("name,strands,word\noops,two,1 1 1\n")
        with pytest.raises(InputError, match="line 2"):
            load_knot_table(str(path))

    def test_csv_short_row(self, tmp_path):
        # DictReader fills the missing word cell with None
        path = tmp_path / "short.csv"
        path.write_text("name,strands,word\na,2\n")
        with pytest.raises(InputError, match="line 2"):
            load_knot_table(str(path))

    @pytest.mark.parametrize("name", ["table.json", "table.csv"])
    def test_undecodable_bytes_name_the_file(self, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(b"\xff\xfe[1]")
        with pytest.raises(InputError, match=f"{name}: not UTF-8"):
            load_knot_table(str(path))

    def test_bundled_table_loads(self, knot_table):
        assert len(knot_table) >= 12
        names = {e.name for e in knot_table}
        assert {"unknot", "3_1", "4_1", "6_1"} <= names
