import json
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
