"""Every function, class and method the package defines is named somewhere
besides its definition: in the package, the tests or the benchmark."""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tmzv"
SEARCHED = [path for d in ("src", "tests", "perfbench")
            for path in sorted((ROOT / d).rglob("*.py"))]


def defined_names(tree):
    """Names of the functions, classes and methods a module defines, dunders
    aside, with how many times each is defined."""
    return collections.Counter(
        node.name for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__")))


def dead_names(definitions, texts):
    """The defined names that occur, as words, no more often than they are
    defined."""
    words = collections.Counter(w for text in texts for w in re.findall(r"\w+", text))
    return sorted(name for name, k in definitions.items() if words[name] <= k)


def test_no_dead_names():
    texts = [path.read_text() for path in SEARCHED]
    definitions = collections.Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        definitions += defined_names(ast.parse(path.read_text()))
    assert dead_names(definitions, texts) == []


def test_scan_finds_a_dead_name():
    module = ("def used():\n    pass\n\n"
              "class Box:\n    def __len__(self):\n        return 0\n\n"
              "    def unused(self):\n        return used()\n")
    definitions = defined_names(ast.parse(module))
    assert dead_names(definitions, [module, "Box()"]) == ["unused"]
