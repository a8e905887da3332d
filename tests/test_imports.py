"""Every name a module of the package imports is used in that module, every
local a function of the package assigns is read, every parameter it takes
is read, no function imports again from a sibling module that its file
imports from at the top, and a fresh import of the CLI loads neither
dataclasses nor inspect."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import tmzv

SOURCES = sorted(pathlib.Path(tmzv.__file__).parent.glob("*.py"))


def unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def unused_locals(tree):
    """(line, name) of every name a function assigns and never reads in its
    body, nested functions included; names that start with an underscore
    are exempt.  An augmented assignment reads its target."""
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(ast.walk(fn))
        names = [n for n in nodes if isinstance(n, ast.Name)]
        read = {n.id for n in names if not isinstance(n.ctx, ast.Store)}
        read |= {n.target.id for n in nodes if isinstance(n, ast.AugAssign)
                 and isinstance(n.target, ast.Name)}
        found |= {(n.lineno, n.id) for n in names
                  if isinstance(n.ctx, ast.Store) and n.id not in read
                  and not n.id.startswith("_")}
    return sorted(found)


def unread_parameters(tree):
    """(line, function, parameter) of every parameter a function never reads
    in its body, nested functions included.  self, cls and names that start
    with an underscore are exempt, and so are the parameters of a @memo
    function: they are its memo key, read or not."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if any(isinstance(d, ast.Name) and d.id == "memo"
               for d in fn.decorator_list):
            continue
        a = fn.args
        params = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
        params += [x.arg for x in (a.vararg, a.kwarg) if x is not None]
        read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        found += [(fn.lineno, fn.name, p) for p in params
                  if p not in read and p not in ("self", "cls")
                  and not p.startswith("_")]
    return sorted(found)


def redundant_local_imports(tree):
    """(line, module) of every function-level `from .X import` in a file
    that already imports from .X at module level: the names belong in the
    module-level import.  A name that perfbench/spans.py wraps (such as
    log_coeff_matrix or tmodule_of) must still be looked up at call time,
    so it is reached through the module attribute, never bound at import."""
    top = {node.module for node in tree.body
           if isinstance(node, ast.ImportFrom) and node.level == 1
           and node.module}
    found = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found |= {(node.lineno, node.module) for node in ast.walk(fn)
                      if isinstance(node, ast.ImportFrom) and node.level == 1
                      and node.module in top}
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_scan_finds_an_unused_import():
    tree = ast.parse("import os\nfrom fractions import Fraction\nos.sep\n")
    assert unused_imports(tree) == [(2, "Fraction")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_locals(path):
    assert unused_locals(ast.parse(path.read_text())) == []


def test_scan_finds_an_unused_local():
    tree = ast.parse("def f(xs):\n"
                     "    n, m = len(xs), 0\n"
                     "    _skip = k = 1\n"
                     "    k += 1\n"
                     "    def g():\n"
                     "        return n\n"
                     "    for i in xs:\n"
                     "        pass\n"
                     "    return g\n")
    assert unused_locals(tree) == [(2, "m"), (7, "i")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unread_parameters(path):
    assert unread_parameters(ast.parse(path.read_text())) == []


def test_scan_finds_an_unread_parameter():
    tree = ast.parse("def f(fs, x, *args, y=1, _z=2, **kw):\n"
                     "    def g(a):\n"
                     "        return x\n"
                     "    return g\n"
                     "class C:\n"
                     "    def m(self, b):\n"
                     "        return b\n"
                     "@memo\n"
                     "def h(key):\n"
                     "    return []\n")
    assert unread_parameters(tree) == [
        (1, "f", "args"), (1, "f", "fs"), (1, "f", "kw"), (1, "f", "y"),
        (2, "g", "a")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_redundant_local_imports(path):
    assert redundant_local_imports(ast.parse(path.read_text())) == []


def test_scan_finds_a_redundant_local_import():
    tree = ast.parse("from .tlayer import TPoly\n"
                     "from . import motive\n"
                     "def f():\n"
                     "    from .tlayer import omega\n"
                     "    from .zeta import mzv\n"
                     "    from .motive import tmodule_of\n"
                     "    from tmzv.tlayer import bracket\n"
                     "    return omega, mzv, tmodule_of, bracket, TPoly\n")
    assert redundant_local_imports(tree) == [(4, "tlayer")]


# dataclasses pulls in inspect, ast, dis and tokenize, which cost a fresh
# `tmzv` run more time than its arithmetic; the records are written by hand
PROBE = """
import sys
before = set(sys.modules)
import tmzv.cli, tmzv.motive
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_a_fresh_import_loads_no_dataclasses():
    src = str(pathlib.Path(tmzv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, timeout=60,
                          capture_output=True, text=True, check=True)
    loaded = set(proc.stdout.split())
    assert {"tmzv.cli", "tmzv.motive"} <= loaded
    assert not loaded & {"dataclasses", "inspect"}
