"""Every name a module of the package imports is used in that module."""

import ast
import pathlib

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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_scan_finds_an_unused_import():
    tree = ast.parse("import os\nfrom fractions import Fraction\nos.sep\n")
    assert unused_imports(tree) == [(2, "Fraction")]
