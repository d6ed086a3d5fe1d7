"""Every definition and import of the package has a reader in it.

Checked are top-level functions and classes, the methods of top-level
classes, module-level constants and every imported name; dunder names are
exempt, and so are the imports of ``__init__.py``, which re-export.  A
definition counts as used when its name is read anywhere in ``src/polyproj``
outside its own definition (annotations and decorators included): a
top-level definition as a name or as an attribute, a method only as an
attribute (``x.name``), so a local variable of the same name does not keep
it alive.  Reads inside a method count for that method, so a method read
only by itself or by nothing is dead even when its class is used.
Importing a name is not a use.  An import counts as used when its module
reads the name.  Tests do not count, so code kept alive only
by its tests fails here.  The names are matched without resolving modules,
so the check can miss dead code whose name is also used for something else;
code reached only through a string (an entry point, ``getattr``) needs an
entry in ``ALLOWED``.

Keyword-only parameters of top-level functions are checked the same way: a
parameter that no call in the package passes by keyword, to a function of
that name, is reported as ``"module.function(parameter=)"``.
"""

import ast
from pathlib import Path

import polyproj

PACKAGE = Path(polyproj.__file__).parent

#: definitions allowed to have no caller in the package, each with its reason
ALLOWED = {
    "afi.point_to_facets": "AFI's certificate for non-interior points; public API",
    "analysis.extract_proof": "proof extraction; ROADMAP item 2 uses it to tell Shannon classes",
    "analysis.lift_to_space": "analysis entry point; ROADMAP item 2 gives analysis a caller",
    "analysis.structural_check":
        "analysis entry point; ROADMAP item 2 gives analysis a caller",
    "matrixfile.load": "public file I/O for matrix files",
    "matrixfile.save": "public file I/O for matrix files",
    "scenarios.check_membership": "public marginal membership test",
    "scenarios.bell_probability_polytope": "public builder of the deterministic correlator points",
    "scenarios.ElementalForm.describe":
        "labels like I(A1:B1|A2); ROADMAP item 2 names Shannon classes with it",
    "fme.fme_project(row_budget=)": "ROADMAP item 1's FME budget",
    "redundancy.implied_equalities(use_float=)":
        "the exact reference path that tests compare against",
    "redundancy.prune_redundant(use_float=)":
        "the exact reference path that tests compare against",
}


def _definitions(module, stmt):
    """("module.name", name) for each checked name a top-level statement defines."""
    out = []
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        key = "%s.%s" % (module, stmt.name)
        out.append((key, stmt.name))
        if isinstance(stmt, ast.ClassDef):
            out += [("%s.%s" % (key, item.name), item.name) for item in stmt.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        out += [("%s.%s" % (module, target.id), target.id) for target in targets
                if isinstance(target, ast.Name)]
    return [(key, name) for key, name in out
            if not (name.startswith("__") and name.endswith("__"))]


def _scopes(module, stmt, names):
    """(owner, node) pairs covering a top-level statement: each method of a
    class owns the reads in its body, the statement's first name the rest."""
    if not isinstance(stmt, ast.ClassDef):
        return [(names[0][0] if names else None, stmt)]
    key = "%s.%s" % (module, stmt.name)
    out = [(key, node) for node in stmt.bases + stmt.keywords + stmt.decorator_list]
    for item in stmt.body:
        method = isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        out.append(("%s.%s" % (key, item.name) if method else key, item))
    return out


def _unread():
    """Definitions and imports ("module.name") that nothing reads."""
    defined = {}
    used_by = {}  # (name, read as an attribute) -> owners of the reads
    dead = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = set()
        for stmt in tree.body:
            names = _definitions(module, stmt)
            defined.update(names)
            for owner, scope in _scopes(module, stmt, names):
                for node in ast.walk(scope):
                    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                        name, attribute = node.id, False
                    elif isinstance(node, ast.Attribute):
                        name, attribute = node.attr, True
                    else:
                        continue
                    read.add(name)
                    used_by.setdefault((name, attribute), set()).add(owner)
        if module == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and (
                    getattr(node, "module", None) != "__future__"):
                dead.update("%s.%s" % (module, bound) for bound in
                            ((a.asname or a.name).split(".")[0] for a in node.names)
                            if bound not in read)
    def readers(key, name):
        owners = used_by.get((name, True), set())
        if key.count(".") == 1:  # top level: a bare name read counts too
            owners = owners | used_by.get((name, False), set())
        return owners - {key}

    dead.update(key for key, name in defined.items() if not readers(key, name))
    return dead


def _unpassed_keywords():
    """Keyword-only parameters ("module.function(parameter=)") of top-level
    functions that no call in the package passes by keyword."""
    params = {}
    passed = set()  # (called name, keyword)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for arg in stmt.args.kwonlyargs:
                    params["%s.%s(%s=)" % (path.stem, stmt.name, arg.arg)] = (
                        stmt.name, arg.arg)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                passed.update((name, kw.arg) for kw in node.keywords if kw.arg)
    return {key for key, pair in params.items() if pair not in passed}


def test_every_definition_has_a_caller():
    dead = _unread() | _unpassed_keywords()
    assert sorted(dead - set(ALLOWED)) == []
    # an entry that gained a caller, or is gone, leaves the list
    assert sorted(set(ALLOWED) - dead) == []
