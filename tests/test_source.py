"""Source-level guards over the package modules."""

import ast
import builtins
import importlib
import json
import os
import pathlib
import subprocess
import sys

import knotbench

PACKAGE = pathlib.Path(knotbench.__file__).parent


def test_no_assert_statements():
    # `python -O` strips asserts, so no input check or invariant may rest
    # on one; raise a KnotbenchError subclass instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


_BUILTIN_EXCEPTIONS = {name for name, obj in vars(builtins).items()
                       if isinstance(obj, type)
                       and issubclass(obj, BaseException)}


def test_no_bare_builtin_raises():
    # every failure is a KnotbenchError subclass with a documented exit
    # code; a builtin exception would escape the CLI's handler
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = getattr(exc, "id", None)
                if name in _BUILTIN_EXCEPTIONS:
                    found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []


def test_no_unused_top_level_imports():
    # a module-level import that no name in the module reads (and that
    # __all__ does not re-export) is dead weight on every start-up
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                exported = set(ast.literal_eval(node.value))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line}: {name}"
                  for name, line in sorted(imported.items())
                  if name not in read | exported]
    assert found == []


# each request and in-process call prints one JSON line; the same script
# runs with sympy blocked and as it is
_REQUESTS_SCRIPT = r"""
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["sympy"] = None  # any import of sympy raises ImportError
from knotbench import cli
from knotbench.braids import BraidWord, seifert_matrix_from_braid
from knotbench.invariants import (alexander_polynomial, fox_milnor_test,
                                  signature_function)

requests = [
    ["invariants", "--braid", "n=3; 1 -2 1 -2"],
    ["invariants", "--seifert", "[[1,1],[0,-2]]"],
    ["rho", "--braid", "n=2; 1 1 1 1 1"],
    ["sigfn", "--braid", "n=3; 1 2 1 2 1 2 1 2"],
    ["table", sys.argv[2]],
]
for argv in requests:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    print(json.dumps([code, json.loads(out.getvalue())]))
for n, word in ((2, [1] * 7), (3, [1, 2] * 5), (3, [1, -2] * 2)):
    v = seifert_matrix_from_braid(BraidWord(n, word))
    sf = signature_function(v)
    delta = alexander_polynomial(v)
    print(json.dumps([sf.values, [a.poly for a in sf.jumps], sf.x_poly,
                      fox_milnor_test(delta), fox_milnor_test(delta * delta)]))
print(json.dumps(sys.modules.get("sympy") is not None))  # sympy loaded
"""


def test_requests_never_import_sympy():
    from conftest import TABLE_PATH

    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))

    def run(mode):
        proc = subprocess.run(
            [sys.executable, "-c", _REQUESTS_SCRIPT, mode, str(TABLE_PATH)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return [json.loads(line) for line in proc.stdout.splitlines()]

    blocked, plain = run("blocked"), run("plain")
    assert blocked[-1] is False and plain[-1] is False
    assert all(code == 0 for code, _ in blocked[:5])
    assert blocked[:-1] == plain[:-1]


# the 4-D requests that enclose jump angles off the roots of unity, and
# the signature at an angle, which encloses cos; the same script runs
# with mpmath blocked and as it is
_ENCLOSING_SCRIPT = r"""
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["mpmath"] = None  # any import of mpmath raises ImportError
from fractions import Fraction
from knotbench import cli
from knotbench.invariants import levine_tristram
from knotbench.seifert import SeifertMatrix

five_two = "[[-1,1],[0,-2]]"
sum_72 = "[[-1,1,0,0],[0,-2,0,0],[0,0,-1,1],[0,0,0,-3]]"  # 5_2 # 7_2
for argv in (["sigfn", "--seifert", five_two],
             ["sigfn", "--seifert", five_two, "--csv", "--digits", "40"],
             ["rho", "--seifert", five_two],
             ["rho", "--seifert", sum_72, "--precision", "1e-30"]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    print(json.dumps([code, out.getvalue()]))
for rows in (json.loads(five_two), json.loads(sum_72)):
    print(json.dumps(levine_tristram(SeifertMatrix(rows), Fraction(1, 7))))
print(json.dumps(sys.modules.get("mpmath") is not None))  # mpmath loaded
"""


def test_requests_never_import_mpmath():
    # jump angles and cos are enclosed in integer fixed point, so no
    # request needs mpmath: the blocked run succeeds and prints what the
    # plain one prints
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))

    def run(mode):
        proc = subprocess.run(
            [sys.executable, "-c", _ENCLOSING_SCRIPT, mode],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return [json.loads(line) for line in proc.stdout.splitlines()]

    blocked, plain = run("blocked"), run("plain")
    assert blocked[-1] is False and plain[-1] is False
    assert all(code == 0 for code, _ in blocked[:4])
    assert blocked == plain


# exact requests first, then sigfn with exact jumps at roots of unity,
# then one that encloses jump angles off them
_EXACT_SCRIPT = r"""
import contextlib, io, json, sys
from knotbench import cli

def loaded():
    return [name in sys.modules
            for name in ("mpmath", "knotbench.intervals", "knotbench.braids")]

out = []
for argv in (["invariants", "--seifert", "[[-1,1],[0,-1]]"],
             ["invariants", "--braid", "n=3; 1 -2 1 -2"],
             ["table", sys.argv[1]],
             ["sigfn", "--braid", "n=2; 1 1 1"],
             ["sigfn", "--seifert", "[[-1,1],[0,-2]]"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    out.append([argv[0], code, loaded()])
print(json.dumps(out))
"""


def test_exact_requests_never_import_intervals():
    # invariants and table are integer computations: neither mpmath nor
    # knotbench.intervals may load for them, and braids only for --braid.
    # The trefoil jumps at 1/6, a root of unity, whose angle is exact; 5_2
    # jumps off the roots of unity, and its angles are enclosed in integer
    # fixed point.  Both sigfn requests load intervals, which shows the
    # check can fail, and neither loads mpmath
    from conftest import TABLE_PATH

    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-c", _EXACT_SCRIPT, str(TABLE_PATH)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        ["invariants", 0, [False, False, False]],
        ["invariants", 0, [False, False, True]],
        ["table", 0, [False, False, True]],
        ["sigfn", 0, [False, True, True]],
        ["sigfn", 0, [False, True, True]],
    ]


# the 3-D requests first, then one through the Seifert-form modules
_PLAIN_CLASSES_SCRIPT = r"""
import contextlib, io, json, sys
from knotbench import cli

tree = '{"pairs": [["bare", "bare"]]}'
out = []
for argv in (["magnus", "x y x^-1 y^-1"],
             ["grope", "from-bracket", "--bracket", "[[x,y],z]"],
             ["grope", "class", "--tree", tree],
             ["grope", "height", "--tree", tree],
             ["bdim", "--max", "4"],
             ["invariants", "--seifert", "[[-1,1],[0,-1]]"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    out.append([argv[0], code, [name in sys.modules
                                for name in ("dataclasses", "inspect", "typing",
                                             "knotbench.seifert")]])
print(json.dumps(out))
"""


def test_3d_requests_never_import_dataclasses_or_typing():
    # gropes and diagrams define plain classes and read their input through
    # knotbench.errors, so magnus, grope (from a bracket or a --tree) and
    # bdim load none of dataclasses, inspect (its import), typing or
    # knotbench.seifert; python -S keeps a site-packages .pth hook from
    # loading typing first, and invariants shows the check can fail
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _PLAIN_CLASSES_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        ["magnus", 0, [False, False, False, False]],
        ["grope", 0, [False, False, False, False]],
        ["grope", 0, [False, False, False, False]],
        ["grope", 0, [False, False, False, False]],
        ["bdim", 0, [False, False, False, False]],
        ["invariants", 0, [True, True, True, True]],
    ]


def test_traced_layers_resolve():
    # the benchmark's tracer wraps these names; a renamed or deleted layer
    # should fail here, not only in a traced benchmark run
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "TRACED"
                          for t in node.targets))
    missing = []
    for mod, names in traced.items():
        module = importlib.import_module(f"knotbench.{mod}")
        for name in names:
            obj = module
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{mod}.{name}")
    assert traced and missing == []
