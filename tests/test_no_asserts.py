"""Source guards, read from the syntax tree of every file:

- no assert statement in the program or its scripts: python -O strips them,
  so an invariant the results rest on must raise an error instead;
- no unused import in the program, its scripts or its tests;
- no import of another trigon module's private name in the program or its
  scripts;
- no public module-level name in the package that nothing in the program or
  its scripts reads, in its own module or in a file that imports from that
  module, unless TEST_ONLY names the claim or oracle it serves;
- no parameter default in the package that no call in the program, its
  scripts or its tests overrides: a value nothing sets is a constant."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "trigon").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "scripts").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

# public names only the tests call, each with the paper claim or the oracle
# role that keeps it
TEST_ONLY = {
    "catalog.table": "the published tables as presentations",
    "ffield.multiplicative_order": "the oracle for poly_is_primitive",
    "grouptools.todd_coxeter": "the octahedron link group claim (test_04)",
    "linkgraph.graph_automorphisms": "the whole-group oracle for the probe's Q0",
    "linkgraph.is_generalized_mgon": "the claim that links are generalized 3-gons",
    "linkgraph.spectral_gap": "the numpy oracle for the exact point-transitive gap",
    "oppmodel.incidence_model_checks": "the coset = subspace model claim (test_08)",
    "oppmodel.opp_graph_building": "the coset = subspace model claim (test_08)",
    "permgrp.closure_elements": "the brute-force oracle for stabilizer chains",
    "tripres.stabilizer_of_T": "the complete-digraph counting identity (test_03)",
}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _label(path):
    return f"{path.parent.name}/{path.name}"


def test_sources_found():
    assert len(SOURCES) > 10 and len(TESTS) > 10


@pytest.mark.parametrize("path", SOURCES, ids=_label)
def test_no_assert_statement(path):
    tree = _tree(path)
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert on lines {lines}"


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=_label)
def test_no_unused_import(path):
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    assert unused == [], f"{path.name}: unused imports (line, name) {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=_label)
def test_no_private_import_from_another_module(path):
    """A module that needs another's helper gets it under a public name, so
    a private name can change without a reader elsewhere."""
    private = sorted(
        (node.lineno, alias.name)
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "trigon")
        for alias in node.names
        if alias.name.startswith("_")
    )
    assert private == [], f"{path.name}: private imports (line, name) {private}"


def _public_definitions(path):
    names = []
    for node in _tree(path).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def _references(path):
    """(name, enclosing top-level definition) for every read of a name, an
    attribute or an imported name in the file."""
    out = set()
    for top in _tree(path).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add((node.id, owner))
            elif isinstance(node, ast.Attribute):
                out.add((node.attr, owner))
            elif isinstance(node, ast.ImportFrom):
                out.update((alias.name, owner) for alias in node.names)
    return out


def _imported_modules(path):
    """The trigon modules the file imports from, by stem."""
    return {
        node.module.split(".")[-1]
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom) and node.module
        and (node.level > 0 or node.module.split(".")[0] == "trigon")
    }


def _unreferenced():
    """Public package names that no file of the program or its scripts reads,
    not counting a definition's reads of itself.  Only the name's own module
    and the files that import from it count: a local variable of the same
    name elsewhere is not a reader."""
    refs = {path: _references(path) for path in SOURCES}
    imports = {path: _imported_modules(path) for path in SOURCES}
    out = set()
    for path in PACKAGE:
        readers = [p for p in SOURCES if p == path or path.stem in imports[p]]
        for name in _public_definitions(path):
            if not any(
                ref == name and not (where == path and owner == name)
                for where in readers
                for ref, owner in refs[where]
            ):
                out.add(f"{path.stem}.{name}")
    return out


def test_every_public_name_has_a_reader():
    unreferenced = _unreferenced()
    assert sorted(unreferenced - set(TEST_ONLY)) == []
    # an entry whose name is gone or has gained a reader must leave the list
    assert sorted(set(TEST_ONLY) - unreferenced) == []


def _defaulted_parameters(path):
    """(function name, parameter, position or None, is method) for every
    parameter with a default; a position counts from the first argument a
    call passes, so a method's self or cls is not counted (the package has
    no static methods)."""
    out = []

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                a = child.args
                first = len(a.args) - len(a.defaults)
                for i in range(first, len(a.args)):
                    pos = i - in_class
                    out.append((child.name, a.args[i].arg, pos, in_class))
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        out.append((child.name, arg.arg, None, in_class))
                visit(child, False)
            else:
                visit(child, isinstance(child, ast.ClassDef))

    visit(_tree(path), False)
    return out


def _calls():
    """(called name, whether called as an attribute, positional count or
    None after a starred argument, keyword names or None after **) for
    every call in the program, its scripts and its tests."""
    out = []
    for path in SOURCES + TESTS:
        for node in ast.walk(_tree(path)):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                name, attr = node.func.id, False
            elif isinstance(node.func, ast.Attribute):
                name, attr = node.func.attr, True
            else:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            names = {k.arg for k in node.keywords}
            out.append((name, attr, None if starred else len(node.args),
                        None if None in names else names))
    return out


def test_every_parameter_default_is_overridden_somewhere():
    calls = _calls()
    unset = []
    for path in PACKAGE:
        for fn, param, pos, method in _defaulted_parameters(path):
            if not any(
                name == fn
                and (attr or not method)
                and (keys is None or param in keys
                     or count is None or (pos is not None and count > pos))
                for name, attr, count, keys in calls
            ):
                unset.append(f"{path.stem}.{fn}({param})")
    assert sorted(unset) == []
