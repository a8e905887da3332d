"""One copy of each series decision in the package: the only pole jet
1/(t - theta^{q^k}) at t = theta is tmodule._pole_inv_jet (unmemoised,
so no scalar strategy is kept alive as a memo key), and an element of K
becomes a windowed Laurent series through the scalar strategy's conv,
not through a second converter."""

import ast
import pathlib

import pytest

import tmzv

TREES = [(path.stem, ast.parse(path.read_text()))
         for path in sorted(pathlib.Path(tmzv.__file__).parent.glob("*.py"))]


def pole_jet_builders(trees):
    """(module, function) of every top-level function or method that calls
    pole_inv, under any receiver."""
    found = set()
    for module, tree in trees:
        for top in tree.body:
            fns = [top] if isinstance(top, ast.FunctionDef) else (
                [n for n in top.body if isinstance(n, ast.FunctionDef)]
                if isinstance(top, ast.ClassDef) else [])
            for fn in fns:
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and (
                            getattr(node.func, "attr", None) == "pole_inv"
                            or getattr(node.func, "id", None) == "pole_inv"):
                        found.add((module, fn.name))
    return sorted(found)


def defined_functions(trees, name):
    """(module, function) of every function definition called name."""
    return sorted((module, node.name) for module, tree in trees
                  for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == name)


def test_one_pole_jet():
    assert pole_jet_builders(TREES) == [("tmodule", "_pole_inv_jet")]


def test_pole_jet_is_not_memoised():
    (fn,) = [node for module, tree in TREES if module == "tmodule"
             for node in tree.body if isinstance(node, ast.FunctionDef)
             and node.name == "_pole_inv_jet"]
    assert fn.decorator_list == []


def test_no_second_laurent_conversion():
    assert defined_functions(TREES, "_laurent_rel") == []


@pytest.mark.parametrize("call", ["LocalJet.pole_inv(c, D, z)",
                                  "pole_inv(c, D, z)"])
def test_scan_finds_a_second_pole_jet(call):
    synthetic = ast.parse("@memo\n"
                          "def _ll_inv_jet(fs, i, s, D, rel):\n"
                          "    f = %s\n"
                          "    return f\n" % call)
    assert pole_jet_builders(TREES + [("zeta", synthetic)]) == [
        ("tmodule", "_pole_inv_jet"), ("zeta", "_ll_inv_jet")]
