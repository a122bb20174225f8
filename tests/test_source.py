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


# exact requests first, then one that encloses jump angles
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
             ["sigfn", "--braid", "n=2; 1 1 1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    out.append([argv[0], code, loaded()])
print(json.dumps(out))
"""


def test_exact_requests_never_import_intervals():
    # invariants and table are integer computations: neither mpmath nor
    # knotbench.intervals may load for them, and braids only for --braid;
    # sigfn shows the check can fail
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
        ["sigfn", 0, [True, True, True]],
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
