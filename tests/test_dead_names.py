"""Every function, class and method the package defines is reached: it is
referenced from the package (src/tmzv) or the benchmark (perfbench/),
and from code that is itself reached.  The tests do not count, so a
helper that only the tests call belongs in the tests, as the reference
oracles in tests/reference.py do.

A reference is an ast.Name, the attribute of an ast.Attribute or an
import alias; a name in a string or a docstring is none.  References from
the package's module-level code and from every perfbench file reach what
they name; the body of a definition that is reached reaches in turn, so a
definition named only inside itself, or only by unreached code, is dead.
In a perfbench file, a Name that the file itself defines refers to that
definition, not to the package's.  A classmethod must also be named
through its own class, as Class.name, or as cls.name or self.name inside
the class, so that another class's method of the same name does not keep
it alive.  A method or nested function is reached only with what holds
it, and a dunder whenever its class is."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

# kept although nothing in src/tmzv or perfbench/ reaches it, with the reason
KEPT = {
    "PrecisionLaurent.from_dict":
        "reads back the series that to_dict and `tmzv dump series` write",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def scan(tree, own=frozenset()):
    """(units, top) of one module.  A unit is one function, class or
    method: a dict of its name, the unit that holds it (None at module
    level), its class if it is a method, whether it is a classmethod, and
    the names and (class, attribute) pairs its code references outside the
    units it holds.  top holds the references of the module-level code.  A
    Name in own is no reference."""
    top = {"names": set(), "qualified": set()}
    units = []

    def visit(node, unit, cls, owner):
        if isinstance(node, DEFINITIONS):
            new = {"name": node.name, "holder": None if unit is top else unit,
                   "owner": owner, "alive": False,
                   "classmethod": any(
                       isinstance(d, ast.Name) and d.id == "classmethod"
                       for d in node.decorator_list),
                   "names": set(), "qualified": set()}
            units.append(new)
            is_class = isinstance(node, ast.ClassDef)
            for child in ast.iter_child_nodes(node):
                visit(child, new, node.name if is_class else cls,
                      node.name if is_class else None)
            return
        if isinstance(node, ast.Name):
            if node.id not in own:
                unit["names"].add(node.id)
        elif isinstance(node, ast.Attribute):
            unit["names"].add(node.attr)
            if isinstance(node.value, ast.Name):
                who = node.value.id
                unit["qualified"].add(
                    (cls if who in ("cls", "self") else who, node.attr))
        elif isinstance(node, ast.alias):
            unit["names"].update(node.name.split("."))
        for child in ast.iter_child_nodes(node):
            visit(child, unit, cls, None)

    visit(tree, top, None, None)
    return units, top


def dead_names(root):
    """The definitions of the package under root that are not reached: a
    plain name, or Class.name for a classmethod whose name is referenced
    only through other classes.  One inside a dead definition is left to
    its holder."""
    units, names, qualified = [], set(), set()
    for path in sorted((root / "src" / "tmzv").glob("*.py")):
        found, top = scan(ast.parse(path.read_text()))
        units += found
        names |= top["names"]
        qualified |= top["qualified"]
    for path in sorted((root / "perfbench").rglob("*.py")):
        tree = ast.parse(path.read_text())
        found, top = scan(tree, {node.name for node in ast.walk(tree)
                                 if isinstance(node, DEFINITIONS)})
        for unit in [top] + found:
            names |= unit["names"]
            qualified |= unit["qualified"]

    def reached(unit):
        name = unit["name"]
        if unit["holder"] is not None and not unit["holder"]["alive"]:
            return False
        if name.startswith("__") and name.endswith("__"):
            return True
        if unit["classmethod"]:
            return (unit["owner"], name) in qualified
        return name in names

    grown = True
    while grown:
        grown = False
        for unit in units:
            if not unit["alive"] and reached(unit):
                unit["alive"] = grown = True
                names |= unit["names"]
                qualified |= unit["qualified"]
    return sorted({
        unit["name"] if unit["name"] not in names
        else "%s.%s" % (unit["owner"], unit["name"])
        for unit in units if not unit["alive"]
        and (unit["holder"] is None or unit["holder"]["alive"])})


def test_no_dead_names():
    dead = dead_names(ROOT)
    assert [name for name in dead if name not in KEPT] == []
    # an entry whose name gained a reference leaves KEPT
    assert sorted(KEPT) == [name for name in dead if name in KEPT]


def write(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_scan_finds_a_dead_name(tmp_path):
    write(tmp_path, {
        "src/tmzv/mod.py": ("def used():\n    pass\n\n"
                            "class Box:\n    def __len__(self):\n"
                            "        return 0\n\n"
                            "    def unused(self):\n        return used()\n"),
        "perfbench/run.py": "from tmzv.mod import Box, used\n\nBox()\n"})
    assert dead_names(tmp_path) == ["unused"]


def test_a_function_only_the_tests_call_is_dead(tmp_path):
    write(tmp_path, {
        "src/tmzv/mod.py": ("def used():\n    return 1\n\n\n"
                            "def helper():\n    return used() + inner()\n\n\n"
                            "def inner():\n    return 1\n"),
        "perfbench/run.py": "from tmzv.mod import used\n\nused()\n",
        "tests/test_mod.py": ("from tmzv.mod import helper\n\n\n"
                              "def test_helper():\n"
                              "    assert helper() == 1\n")})
    # inner is called only by helper, which nothing reaches
    assert dead_names(tmp_path) == ["helper", "inner"]


def test_a_name_in_a_docstring_or_string_is_no_reference(tmp_path):
    write(tmp_path, {
        "src/tmzv/mod.py": ('def used():\n'
                            '    """Unlike in_a_docstring."""\n'
                            '    return "in_a_string"\n\n\n'
                            'def in_a_docstring():\n    pass\n\n\n'
                            'def in_a_string():\n    pass\n'),
        "perfbench/run.py": "from tmzv import mod\n\nmod.used()\n"})
    assert dead_names(tmp_path) == ["in_a_docstring", "in_a_string"]


def test_a_perfbench_def_shadows_the_package_name(tmp_path):
    write(tmp_path, {
        "src/tmzv/mod.py": "def compositions(n):\n    return [n]\n",
        "perfbench/inputs.py": ("def compositions(n):\n    return [n]\n\n\n"
                                "CASES = compositions(3)\n")})
    assert dead_names(tmp_path) == ["compositions"]


def test_another_classs_classmethod_keeps_none_alive(tmp_path):
    write(tmp_path, {
        "src/tmzv/mod.py": ("class A:\n"
                            "    @classmethod\n"
                            "    def monomial(cls, n):\n"
                            "        return cls.make(n)\n\n"
                            "    @classmethod\n"
                            "    def make(cls, n):\n"
                            "        return n\n\n\n"
                            "class B:\n"
                            "    @classmethod\n"
                            "    def monomial(cls, n):\n"
                            "        return n\n"),
        "perfbench/run.py": ("from tmzv.mod import A, B\n\n"
                             "A.monomial(1), B\n")})
    assert dead_names(tmp_path) == ["B.monomial"]


def test_a_call_inside_its_own_definition_is_no_reference(tmp_path):
    write(tmp_path, {
        "src/tmzv/mod.py": ("def recursive(n):\n"
                            "    return recursive(n - 1) if n else 0\n"),
        "perfbench/run.py": "import tmzv.mod\n"})
    assert dead_names(tmp_path) == ["recursive"]
