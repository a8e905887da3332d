"""One copy of each series decision in the package: the only pole jet
1/(t - theta^{q^k}) at t = theta is tmodule._pole_inv_jet (unmemoised,
so no scalar strategy is kept alive as a memo key), and an element of K
becomes a windowed Laurent series through the scalar strategy's conv,
not through a second converter.  A strided row is laid out by
scalars._spread, and a Frobenius twist cut at N by
PrecisionLaurent.frobenius(i, N), not by a second helper; only scalars
reaches the kernel's private FieldSpec methods."""

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


def test_no_second_cut_twist():
    assert defined_functions(TREES, "_twist_to") == []


def innermost_functions(tree):
    """(name of the innermost function around node, None at module level,
    node) for every node of tree."""
    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else name
            yield inner, child
            yield from visit(child, inner)
    return visit(tree, None)


def stepped_slice_stores(trees):
    """(module, function) of every assignment to a stepped slice x[a:b:k]."""
    return sorted({(module, fn) for module, tree in trees
                   for fn, node in innermost_functions(tree)
                   if isinstance(node, ast.Subscript)
                   and isinstance(node.ctx, ast.Store)
                   and isinstance(node.slice, ast.Slice)
                   and node.slice.step is not None})


# _pack lays out the kernel's product slots, _spread every strided row, and
# embed_ram writes its sign flips into the row _spread gave it
STEPPED_STORES = [("scalars", "_pack"), ("scalars", "_spread"),
                  ("scalars", "embed_ram")]

PRIVATE_KERNEL = {node.name for module, tree in TREES if module == "scalars"
                  for top in tree.body
                  if isinstance(top, ast.ClassDef) and top.name == "FieldSpec"
                  for node in top.body if isinstance(node, ast.FunctionDef)
                  and node.name.startswith("_") and not node.name.endswith("__")}


def private_kernel_uses(trees):
    """(module, function, method) of every reference to a private FieldSpec
    method outside scalars."""
    return sorted({(module, fn, node.attr) for module, tree in trees
                   if module != "scalars"
                   for fn, node in innermost_functions(tree)
                   if isinstance(node, ast.Attribute)
                   and node.attr in PRIVATE_KERNEL})


def test_every_strided_row_is_spread():
    assert stepped_slice_stores(TREES) == STEPPED_STORES


def test_only_scalars_reaches_the_kernel_slots():
    assert {"_pack", "_unpack", "_slot_layout", "_digit_planes",
            "_from_planes"} <= PRIVATE_KERNEL
    assert private_kernel_uses(TREES) == []


def test_scans_find_a_second_layout():
    synthetic = ast.parse("def _twist_to(x, N):\n"
                          "    return x\n"
                          "def inv_bracket(fs, cs, k):\n"
                          "    out = [0] * (k * len(cs))\n"
                          "    out[::k] = cs\n"
                          "    slot = fs._slot_layout(k)\n"
                          "    return fs._pack(out, slot)\n")
    trees = TREES + [("tlayer", synthetic)]
    assert defined_functions(trees, "_twist_to") == [("tlayer", "_twist_to")]
    assert stepped_slice_stores(trees) == sorted(
        STEPPED_STORES + [("tlayer", "inv_bracket")])
    assert private_kernel_uses(trees) == [
        ("tlayer", "inv_bracket", "_pack"),
        ("tlayer", "inv_bracket", "_slot_layout")]
