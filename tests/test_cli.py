import json

import pytest

from knotbench.cli import main

from conftest import TABLE_PATH


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestInvariantsCommand:
    def test_trefoil_report(self, capsys):
        code, out, _ = run(capsys, "invariants", "--braid", "n=2; 1 1 1")
        assert code == 0
        payload = json.loads(out)
        r = payload["results"]
        assert r["determinant"] == 3
        assert r["arf"] == 1
        assert r["signature_at_minus_1"] == -2
        assert r["alexander"] == "t - 1 + t^-1"
        assert r["fox_milnor"] is False

    def test_unknot_all_trivial(self, capsys):
        code, out, _ = run(capsys, "invariants", "--braid", "n=1;")
        assert code == 0
        r = json.loads(out)["results"]
        assert r["determinant"] == 1 and r["arf"] == 0
        assert r["signature_at_minus_1"] == 0
        assert r["fibered_obstruction"]["passes"] is True

    def test_link_closure_exits_2(self, capsys):
        code, _, err = run(capsys, "invariants", "--braid", "n=2; 1 1")
        assert code == 2
        assert err.startswith("error: precondition:")
        assert "link" in err

    def test_malformed_braid_exits_1(self, capsys):
        code, _, err = run(capsys, "invariants", "--braid", "two strands")
        assert code == 1
        assert err.startswith("error: input:")

    def test_seifert_json_input(self, capsys):
        code, out, _ = run(capsys, "invariants", "--seifert", "[[1,1],[0,-2]]")
        assert code == 0
        r = json.loads(out)["results"]
        assert r["determinant"] == 9
        assert r["fibered_obstruction"] == {"passes": False, "reason": "not monic"}
        assert r["fox_milnor"] is True

    @pytest.mark.parametrize("text", [
        "[[-1.9,1],[0,-1]]",     # truncated to the trefoil by int()
        "5",                     # not an array
        '[[1,"a"],[0,1]]',       # a string entry
        "[[true,1],[0,-1]]",     # a bool entry
        '{"rows": [[-1,1],[0,-1]]}',
    ])
    def test_non_integer_seifert_exits_1(self, capsys, text):
        code, out, err = run(capsys, "invariants", "--seifert", text)
        assert code == 1 and out == ""
        assert err.startswith("error: input:")

    @pytest.mark.parametrize("text", ["[1, 2]", "5", '"trefoil"'])
    def test_input_file_not_an_object_exits_1(self, capsys, tmp_path, text):
        path = tmp_path / "knot.json"
        path.write_text(text)
        code, out, err = run(capsys, "invariants", "--input", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: input:") and "JSON object" in err

    def test_input_directory_exits_1(self, capsys, tmp_path):
        code, out, err = run(capsys, "invariants", "--input", str(tmp_path))
        assert code == 1 and out == ""
        assert err.startswith("error: input:")

    def test_flags_only_where_read(self, capsys):
        for argv in (["invariants", "--braid", "n=2; 1 1 1", "--csv"],
                     ["magnus", "x", "--digits", "3"],
                     ["table", str(TABLE_PATH), "--digits", "3"]):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == ""
            assert err.startswith("error: input:")
            assert "unrecognized arguments" in err

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "invariants", "--braid", "n=3; 1 -2 1 -2")
        _, out2, _ = run(capsys, "invariants", "--braid", "n=3; 1 -2 1 -2")
        assert out1 == out2


class TestRhoCommand:
    def test_trefoil_interval(self, capsys):
        code, out, _ = run(capsys, "rho", "--braid", "n=2; 1 1 1",
                           "--precision", "1e-6")
        assert code == 0
        r = json.loads(out)["results"]
        lo, hi = float(r["rho0"]["lo"]), float(r["rho0"]["hi"])
        assert lo <= -4 / 3 <= hi
        assert hi - lo <= 2e-6
        assert r["measure"] == "normalized_1"

    def test_figure_eight_exact_zero(self, capsys):
        code, out, _ = run(capsys, "rho", "--braid", "n=3; 1 -2 1 -2")
        r = json.loads(out)["results"]
        assert r["rho0"] == {"lo": "0.000000000000", "hi": "0.000000000000"}

    def test_csv_arcs(self, capsys):
        code, out, _ = run(capsys, "rho", "--braid", "n=2; 1 1 1", "--csv")
        assert code == 0
        assert "theta_lo,theta_hi,sigma" in out
        assert "0.166666666667,0.833333333333,-2" in out


@pytest.mark.parametrize("command", ["rho", "sigfn"])
@pytest.mark.parametrize("csv", [[], ["--csv"]])
@pytest.mark.parametrize("digits", ["-1", "-3"])
def test_negative_digits_exits_1(capsys, command, csv, digits):
    code, out, err = run(capsys, command, "--braid", "n=2; 1 1 1",
                         "--digits", digits, *csv)
    assert code == 1 and out == ""
    assert err.startswith("error: input:") and "--digits" in err


@pytest.mark.parametrize("precision", ["1/0", "abc", "inf", "nan", "-1e-6"])
def test_bad_precision_exits_1(capsys, precision):
    code, out, err = run(capsys, "rho", "--braid", "n=2; 1 1 1",
                         "--precision", precision)
    assert code == 1 and out == ""
    assert err.startswith("error: input:")


@pytest.mark.parametrize("argv", [
    ["sigfn", "--digits", "4301"],
    ["sigfn", "--digits", "4301", "--csv"],
    ["rho", "--digits", "4301"],
    ["rho", "--precision", "1e-5000"],
], ids=["sigfn-digits", "sigfn-digits-csv", "rho-digits", "rho-precision"])
def test_beyond_int_str_limit_exits_2(capsys, argv):
    # the interpreter's default limit is 4300 digits per integer string
    code, out, err = run(capsys, argv[0], "--braid", "n=2; 1 1 1", *argv[1:])
    assert code == 2 and out == ""
    assert err.startswith("error: precondition:") and "4300" in err


@pytest.mark.parametrize("command", ["bracket", "tree-file", "seifert"])
def test_deep_nesting_exits_1(capsys, tmp_path, command):
    bracket, tree = "x", '"bare"'
    for _ in range(1500):
        bracket = f"[{bracket},y]"
        tree = '{"pairs": [[%s, "bare"]]}' % tree
    path = tmp_path / "deep.json"
    path.write_text(tree)
    argv = {"bracket": ["grope", "from-bracket", "--bracket", bracket],
            "tree-file": ["grope", "class", "--tree-file", str(path)],
            "seifert": ["invariants", "--seifert", "[" * 1500 + "]" * 1500]}
    code, out, err = run(capsys, *argv[command])
    assert code == 1 and out == ""
    assert err.startswith("error: input:") and "recursion" in err


@pytest.mark.parametrize("argv,message", [
    (["sigfn", "--braid", "n=2; 1 1 1", "--digits", "abc"],
     "argument --digits: invalid int value: 'abc'"),
    (["bdim", "--max", "x"], "argument --max: invalid int value: 'x'"),
    (["bdim"], "required: --max"),
    (["frobnicate"], "invalid choice: 'frobnicate'"),
], ids=["digits-abc", "max-x", "max-missing", "unknown-command"])
def test_usage_errors_exit_1(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: input:") and message in err


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == 0
    assert capsys.readouterr().out


class TestSigfnCommand:
    def test_json_jumps(self, capsys):
        code, out, _ = run(capsys, "sigfn", "--braid", "n=2; 1 1 1")
        r = json.loads(out)["results"]
        assert [j["theta"] for j in r["jumps"]] == [
            "0.166666666667", "0.833333333333"]
        assert r["arc_values"] == [0, -2, 0]


class TestBdimCommand:
    def test_table_to_3(self, capsys):
        code, out, _ = run(capsys, "bdim", "--grading", "grope", "--max", "3",
                           "--csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "grading,degree,num_diagrams,num_relations,dimension"
        assert lines[1].startswith("grope,2,1,") and lines[1].endswith(",0")
        assert lines[2].startswith("grope,3,2,") and lines[2].endswith(",1")

    @pytest.mark.parametrize("grading,top,rows", [
        ("grope", "6", ["2,1,1,0", "3,2,7,1", "4,4,24,0", "5,10,82,2",
                        "6,22,235,0"]),
        ("vassiliev", "3", ["1,1,0,1", "2,3,12,1", "3,11,99,1"]),
    ])
    def test_pinned_csv_rows(self, capsys, grading, top, rows):
        code, out, _ = run(capsys, "bdim", "--grading", grading, "--max", top,
                           "--csv")
        assert code == 0
        assert out.split("\n")[1:] == [f"{grading},{r}" for r in rows] + [""]

    def test_max_1_empty_table(self, capsys):
        code, out, _ = run(capsys, "bdim", "--grading", "grope", "--max", "1",
                           "--csv")
        assert code == 0
        assert out.strip() == "grading,degree,num_diagrams,num_relations,dimension"

    def test_over_budget_exits_2(self, capsys):
        code, _, err = run(capsys, "bdim", "--grading", "grope", "--max", "9",
                           "--csv")
        assert code == 2
        assert err.startswith("error: precondition:")


class TestGropeAndMagnus:
    def test_class_of_symmetric_height_3(self, capsys):
        import json as j
        from knotbench.gropes import symmetric_grope
        tree = j.dumps(symmetric_grope(3).to_json_dict())
        code, out, _ = run(capsys, "grope", "class", "--tree", tree)
        assert code == 0
        assert json.loads(out)["results"]["class"] == 8

    def test_from_bracket(self, capsys):
        code, out, _ = run(capsys, "grope", "from-bracket", "--bracket",
                           "[[x,y],[z,w]]")
        r = json.loads(out)["results"]
        assert r["class"] == 4 and r["height"] == "2"

    def test_magnus_commutator(self, capsys):
        code, out, _ = run(capsys, "magnus", "x y x^-1 y^-1", "--cutoff", "6")
        assert code == 0
        assert json.loads(out)["results"]["depth"] == 2

    def test_magnus_identity(self, capsys):
        code, out, _ = run(capsys, "magnus", "x x^-1", "--cutoff", "6")
        assert json.loads(out)["results"]["depth"] == ">= 6"

    def test_magnus_budget_exit(self, capsys):
        code, _, err = run(capsys, "magnus", "x", "--cutoff", "12")
        assert code == 2


class TestTableCommand:
    def test_bundled_table_no_mismatches(self, capsys):
        code, out, _ = run(capsys, "table", str(TABLE_PATH))
        assert code == 0
        r = json.loads(out)["results"]
        assert r["total_mismatches"] == 0
        assert len(r["knots"]) >= 12

    def test_csv_one_row_per_knot(self, capsys):
        code, out, _ = run(capsys, "table", str(TABLE_PATH), "--csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == ("name,alexander,d0,determinant,arf,"
                            "signature_at_minus_1,fox_milnor,mismatches")
        rows = {line.split(",")[0]: line.split(",")[1:] for line in lines[1:]}
        _, js, _ = run(capsys, "table", str(TABLE_PATH))
        knots = json.loads(js)["results"]["knots"]
        assert len(rows) == len(knots)
        assert rows["3_1"] == ["t - 1 + t^-1", "2", "3", "1", "-2", "false",
                               "0"]
        assert all(r[-1] == "0" for r in rows.values())

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run(capsys, "table", "/nonexistent/knots.json")
        assert code == 1
