import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from knotbench.cli import main
from knotbench.invariants import determinant

from conftest import TABLE_PATH, random_seifert

SRC = TABLE_PATH.parents[2]


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

    def test_torus_knot_beyond_the_delta_budget(self, capsys):
        # deg Delta = 26 exceeds FACTOR_DEGREE_BUDGET; Fox-Milnor factors
        # the degree-13 x-polynomial instead
        braid = "n=2; " + " ".join(["1"] * 27)
        code, out, err = run(capsys, "invariants", "--braid", braid)
        assert code == 0, err
        r = json.loads(out)["results"]
        assert r["fox_milnor"] is False
        assert r["determinant"] == 27
        assert r["d0"] == 26

    def test_determinant_from_the_x_polynomial(self, capsys, knot_table):
        # |P(-2)| = |Delta(-1)| = |det(V + V^T)|
        code, out, _ = run(capsys, "table", str(TABLE_PATH))
        assert code == 0
        knots = json.loads(out)["results"]["knots"]
        got = [k["results"]["determinant"] for k in knots]
        assert got == [determinant(e.seifert_matrix()) for e in knot_table]
        rng = random.Random(19)
        for k in range(100):
            v = random_seifert(rng, 1 + k % 4)
            code, out, _ = run(capsys, "invariants", "--seifert",
                               json.dumps([list(r) for r in v.rows]))
            assert code == 0
            assert json.loads(out)["results"]["determinant"] == determinant(v)

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

    def test_negative_claimed_genus_exits_1(self, capsys):
        code, out, err = run(capsys, "invariants", "--seifert", "[[0,1],[0,0]]",
                             "--claimed-genus", "-1")
        assert code == 1 and out == ""
        assert err == "error: input: claimed genus -1 is negative\n"
        code, out, _ = run(capsys, "invariants", "--seifert", "[[0,1],[0,0]]",
                           "--claimed-genus", "0")
        assert code == 0
        assert json.loads(out)["results"]["fibered_obstruction"]["passes"]

    # sha256 of the report, one for each fibered outcome: monic at the
    # claimed genus, a wrong claimed genus, not monic, and no claim
    _INVARIANTS_DIGESTS = {
        ("--braid", "n=2; 1 1 1", "--claimed-genus", "1"):
        "62b14baef307a4d152479bb4ec80e0d40915feb489d9bab4f25cf737a69897a3",
        ("--braid", "n=2; 1 1 1", "--claimed-genus", "2"):
        "0ace0cad2d620da5d5107cb4489a05167a543254ad35d5d50d166339cdf84df9",
        ("--seifert", "[[1,1],[0,-2]]"):
        "6079ecc56ef3bfb07e6db087606005ae1f3577d9ca4e56eea5cb4b9abf20669c",
        ("--braid", "n=3; 1 2 1 2 1 2 1 2"):
        "437d9e08d461fe3cc9994a3e65536186ba4c3a50064db832b51768e5b058f01b",
    }

    def test_one_x_polynomial_per_request(self, capsys, monkeypatch):
        # the report and its fibered check read one x-polynomial, and a
        # negative claimed genus is refused before any determinant
        import knotbench.invariants as invariants

        calls = []
        for name in ("x_polynomial", "integer_determinant"):
            monkeypatch.setattr(invariants, name, lambda arg, real=getattr(
                invariants, name), name=name: calls.append(name) or real(arg))
        for argv, want in self._INVARIANTS_DIGESTS.items():
            del calls[:]
            code, out, _ = run(capsys, "invariants", *argv)
            assert code == 0
            assert calls.count("x_polynomial") == 1, argv
            assert hashlib.sha256(out.encode()).hexdigest() == want, argv
        del calls[:]
        code, _, _ = run(capsys, "invariants", "--braid", "n=2; 1 1 1",
                         "--claimed-genus", "-1")
        assert code == 1 and calls == []

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

    def test_csv_refused(self, capsys):
        # the step-function CSV is sigfn --csv; rho reports only JSON
        code, out, err = run(capsys, "rho", "--braid", "n=2; 1 1 1", "--csv")
        assert code == 1 and out == ""
        assert err.startswith("error: input:") and "Traceback" not in err
        assert "unrecognized arguments: --csv" in err


_TORUS_BRAIDS = {"T(2,5)": "n=2; " + " ".join(["1"] * 5),
                 "T(3,4)": "n=3; " + " ".join(["1 2"] * 4),
                 "T(2,21)": "n=2; " + " ".join(["1"] * 21)}

# sha256 of each command's full output: the rendered angles, arc values
# and rho0 enclosures stay byte-identical when their algorithms change.
# Only sigfn writes CSV.
# The rho JSON of these torus knots prints the exact rho0, rounded down
# for lo and up for hi.
_OUTPUT_DIGESTS = {
    ("T(2,5)", "rho", 12, False): "9336e4ed73a95c6d30c14a9a6c852f04269f75f68439cddec4c86f7134db8b28",
    ("T(2,5)", "rho", 40, False): "5862ea0788489f167cf70068fb6f77f2b93ccdcb012f20ffd2c76b8939cce3d6",
    ("T(2,5)", "sigfn", 12, False): "e24778edeccbd55af0de134a35fa911e0631ba9e23ef9e3d8e038f244b6b27e7",
    ("T(2,5)", "sigfn", 12, True): "68338c6e38c6ae2626e5f516971bf20f88c847355a2c9f31f07247a549008129",
    ("T(2,5)", "sigfn", 40, False): "076d8af79aeedb201f166c45d32b63157bc029eeae0c348592295ddb00bf8e5c",
    ("T(2,5)", "sigfn", 40, True): "1450db6746247ac6582635419da14168d7a23bd7d7d88037ec0c6c11f9e128ee",
    ("T(3,4)", "rho", 12, False): "bf9616c4c4e22a53f89e4e43131837190b750cd4ab5144be7afe526e0f617fab",
    ("T(3,4)", "rho", 40, False): "37da857a2f09793bfed30d56fdcfa1a221416b3b70008099db357a0dcdc548b5",
    ("T(3,4)", "sigfn", 12, False): "7dfc679b56b14b3f6576a9e36352468f9f650ba133c468dcc36f2f4eb6a93a53",
    ("T(3,4)", "sigfn", 12, True): "a09fa1a5c2752ac8a717f4cc12a8644345489526474deec31ad92fe89a345d1e",
    ("T(3,4)", "sigfn", 40, False): "789fc3a6d6c153a45b12d3c7ba7653327a3349acc9674fb0ddee723dae5d35ff",
    ("T(3,4)", "sigfn", 40, True): "6ddb50af7461eb30bf114fba5a3d5126645a4437c6cc03802b6cb4a4535a3df9",
    ("T(2,21)", "rho", 12, False): "54235be0f68be9bff05caf90eb9236ff1a6cc54f70a0d6ef1aad4beb0946c852",
    ("T(2,21)", "rho", 40, False): "787ced2ed062cafce43ad285c463c69ac8e667264ae9dfc47e91f6d45f561038",
    ("T(2,21)", "sigfn", 12, False): "83ef79d2922d9c85e74770d2ecf25a95b106349f79859e7390acd4bcb0e3df37",
    ("T(2,21)", "sigfn", 12, True): "5e388af87f2aa60252170c2f6cd7318bce485196c33ad448722f40c6f56b3e3b",
    ("T(2,21)", "sigfn", 40, False): "73b0a3649a8f9578ddfccca39bb8d3af592a121112f92441d784c5c6c1766146",
    ("T(2,21)", "sigfn", 40, True): "0482003165abc19aa12a8ae2514096082fb9627ea4aeee319a2e7e8ab0a67ac5",
}
# rho has no --csv (sigfn --csv writes the step-function CSV): these
# command lines are pinned to their refusal, not to a digest
_OUTPUT_DIGESTS.update(dict.fromkeys(
    [(knot, "rho", digits, True)
     for knot in ("T(2,5)", "T(3,4)", "T(2,21)") for digits in (12, 40)]))


@pytest.mark.parametrize("knot,command,digits,csv", sorted(_OUTPUT_DIGESTS))
def test_pinned_output_digests(capsys, knot, command, digits, csv):
    argv = [command, "--braid", _TORUS_BRAIDS[knot], "--digits", str(digits)]
    code, out, err = run(capsys, *argv, *(["--csv"] if csv else []))
    expected = _OUTPUT_DIGESTS[knot, command, digits, csv]
    if expected is None:
        assert (code, out) == (1, "")
        assert err == "error: input: knotbench: unrecognized arguments: --csv\n"
        return
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == expected


@pytest.mark.parametrize("command,csv", [
    pytest.param("rho", [], id="csv0-rho"),
    pytest.param("sigfn", [], id="csv0-sigfn"),
    pytest.param("sigfn", ["--csv"], id="csv1-sigfn"),
])
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


@pytest.mark.parametrize("precision,code,message", [
    ("1e-10000000", 2, "exceeds 4300 digits"),
    ("-1e-10000000", 1, "precision must be positive"),
    ("0e-10000000", 1, "precision must be positive"),
    ("1e+10000000", 2, "exceeds 4300 digits"),
], ids=["tiny", "negative", "zero", "huge"])
def test_huge_precision_exponent_refused_before_expanding(capsys, precision,
                                                          code, message):
    # Fraction(precision) would compute 10^10000000 first, about 10 s
    start = time.perf_counter()
    got, out, err = run(capsys, "rho", "--braid", "n=2; 1 1 1",
                        f"--precision={precision}")
    assert time.perf_counter() - start < 2
    assert got == code and out == "" and message in err


def test_precision_budget_without_int_str_limit():
    # with the interpreter's limit off the budget is still 4300 digits, so
    # the text is refused unread instead of expanding 10^10000000
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="0", PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "knotbench.cli", "rho", "--braid",
         "n=2; 1 1 1", "--precision", "1e-10000000"],
        capture_output=True, text=True, env=env, timeout=30)
    assert time.perf_counter() - start < 5
    assert proc.returncode == 2 and proc.stdout == ""
    assert "exceeds 4300 digits" in proc.stderr


@pytest.mark.parametrize("command", ["sigfn", "rho"])
def test_digits_budget_without_int_str_limit(command):
    # --digits has the budget of --precision: with the interpreter's limit
    # off, 200,000 digits are refused instead of rendered
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="0", PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "knotbench.cli", command, "--seifert",
         "[[-1,1],[0,-2]]", "--digits", "200000"],
        capture_output=True, text=True, env=env, timeout=30)
    assert time.perf_counter() - start < 5
    assert proc.returncode == 2 and proc.stdout == ""
    assert "--digits 200000 exceeds the limit of 4300" in proc.stderr


def test_precision_exponent_refusal_matches_fraction(capsys):
    # around the exponent past which a text is refused unread, the exit
    # code is the one that Fraction(text) and the digit limit give
    def expected(text):
        try:
            f = Fraction(text)
        except ValueError:
            return 1
        if f <= 0:
            return 1
        return 2 if max(f.numerator, f.denominator) >= 10 ** 4300 else 0

    for mantissa in ("1", "-3", "0.00", "12.5", "0.000125", "9" * 40):
        for e in range(4250, 4360, 3):
            for sign in ("-", "+"):
                text = f"{mantissa}e{sign}{e}"
                code, _, _ = run(capsys, "rho", "--braid", "n=2; 1 1 1",
                                 f"--precision={text}")
                assert code == expected(text), text


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


@pytest.mark.parametrize("argv", [
    ["invariants", "--input"], ["table"], ["grope", "class", "--tree-file"]],
    ids=["invariants", "table", "grope"])
def test_undecodable_file_exits_1(capsys, tmp_path, argv):
    path = tmp_path / "knot.json"
    path.write_bytes(b"\xff\xfe[1]")
    code, out, err = run(capsys, *argv, str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: input:") and "Traceback" not in err
    assert "knot.json: not UTF-8" in err


def test_csv_row_without_word_exits_1(capsys, tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("name,strands,word\na,2\n")
    code, out, err = run(capsys, "table", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: input: line 2") and "Traceback" not in err


_HUGE = "1" + "0" * 5000  # past the interpreter's 4300-digit int-to-str limit


@pytest.mark.parametrize("argv,text", [
    (["invariants", "--seifert"], f"[[{_HUGE}]]"),
    (["invariants", "--input"], f'{{"seifert": [[{_HUGE}]]}}'),
    (["table"], f'[{{"name": "k", "seifert": [[{_HUGE}]]}}]'),
    (["grope", "class", "--tree"], f'{{"pairs": [[{_HUGE}, "bare"]]}}'),
    (["grope", "class", "--tree-file"], f'{{"pairs": [[{_HUGE}, "bare"]]}}'),
], ids=["seifert", "input", "table", "tree", "tree-file"])
def test_json_integer_past_the_str_limit_exits_1(capsys, tmp_path, argv, text):
    if argv[-1] in ("--input", "table", "--tree-file"):
        path = tmp_path / "huge.json"
        path.write_text(text)
        text = str(path)
    code, out, err = run(capsys, *argv, text)
    assert code == 1 and out == ""
    assert err.startswith("error: input:") and "Traceback" not in err
    assert "4300" in err


@pytest.mark.parametrize("argv,text", [
    (["grope", "class", "--tree"], '{"pairs": 5}'),
    (["grope", "height", "--tree"], '{"pairs": 5}'),
    (["grope", "class", "--tree-file"], '{"pairs": 5}'),
    (["grope", "class", "--tree"], '{"pairs": [["bare", {"pairs": 5}]]}'),
    (["grope", "class", "--tree"], '{"pairs": [["bare", "bare"]], "genus": true}'),
    (["grope", "class", "--tree"], '{"pairs": [["bare", "bare"]], "genus": 1.0}'),
    (["invariants", "--seifert"], '{}'),
    (["invariants", "--seifert"], '""'),
    (["invariants", "--input"], '{"seifert": {}}'),
    (["table"], '[{"name": "k", "seifert": {}}]'),
], ids=["pairs-5", "height-pairs-5", "tree-file-pairs-5", "child-pairs-5",
        "genus-true", "genus-float", "seifert-object", "seifert-string",
        "input-object", "table-object"])
def test_malformed_json_exits_1(capsys, tmp_path, argv, text):
    if argv[-1] in ("--input", "table", "--tree-file"):
        path = tmp_path / "bad.json"
        path.write_text(text)
        text = str(path)
    code, out, err = run(capsys, *argv, text)
    assert code == 1 and out == ""
    assert err.startswith("error: input:") and "Traceback" not in err


@pytest.mark.parametrize("braid,code_want,kind", [
    ("n=" + "1" * 5000 + "; 1", 1, "input"),
    ("n=1" + "0" * 4000 + "; 1", 2, "precondition"),
    ("n=1000000; 1", 2, "precondition"),
], ids=["5000-digits", "10^4000", "10^6"])
def test_strand_count_budgeted(capsys, braid, code_want, kind):
    code, out, err = run(capsys, "invariants", "--braid", braid)
    assert code == code_want and out == ""
    assert err.startswith(f"error: {kind}:") and "Traceback" not in err


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

    def test_csv_arcs(self, capsys):
        code, out, _ = run(capsys, "sigfn", "--braid", "n=2; 1 1 1", "--csv")
        assert code == 0
        assert "theta_lo,theta_hi,sigma" in out
        assert "0.166666666667,0.833333333333,-2" in out


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

    def test_weight_1_bracket_exits_2(self, capsys):
        code, out, err = run(capsys, "grope", "from-bracket", "--bracket", "x")
        assert code == 2 and out == ""
        assert err == "error: precondition: weight-1 bracket carries no grope\n"

    def test_magnus_commutator(self, capsys):
        code, out, _ = run(capsys, "magnus", "x y x^-1 y^-1", "--cutoff", "6")
        assert code == 0
        assert json.loads(out)["results"]["depth"] == 2

    def test_magnus_identity(self, capsys):
        code, out, _ = run(capsys, "magnus", "x x^-1", "--cutoff", "6")
        assert json.loads(out)["results"]["depth"] == ">= 6"

    def test_magnus_echoes_the_word_as_given(self, capsys):
        # input.word is the request; results.word_reduced its reduction
        for word, reduced in (("x x^-1", "1"), ("x  y y^-1 z", "x z"),
                              ("x y x^-1 y^-1", "x y x^-1 y^-1")):
            code, out, _ = run(capsys, "magnus", word)
            payload = json.loads(out)
            assert code == 0
            assert payload["input"]["word"] == word
            assert payload["results"]["word_reduced"] == reduced

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
