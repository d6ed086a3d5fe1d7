"""Every definition and import of the package has a reader in it.

Checked are top-level functions and classes, the methods of top-level
classes, module-level constants and every imported name; dunder names are
exempt, and so are the imports of ``__init__.py``, which re-export.  A
definition counts as used when its name is read anywhere in ``src/polyproj``
outside its own definition (as a name or as an attribute, annotations and
decorators included); importing it is not a use.  An import counts as used
when its module reads the name.  Tests do not count, so code kept alive only
by its tests fails here.  The names are matched without resolving modules,
so the check can miss dead code whose name is also used for something else;
code reached only through a string (an entry point, ``getattr``) needs an
entry in ``ALLOWED``.
"""

import ast
from pathlib import Path

import polyproj

PACKAGE = Path(polyproj.__file__).parent

#: definitions allowed to have no caller in the package, each with its reason
ALLOWED = {
    "afi.point_to_facets": "AFI's certificate for non-interior points; public API",
    "afi.rfd": "AFI's budgeted, resumable facet search; public API",
    "analysis.extract_proof": "proof extraction; ROADMAP item 2 uses it to tell Shannon classes",
    "analysis.lift_to_space": "analysis entry point; ROADMAP item 2 gives analysis a caller",
    "analysis.structural_check":
        "analysis entry point; ROADMAP item 2 gives analysis a caller",
    "matrixfile.load": "public file I/O for matrix files",
    "matrixfile.save": "public file I/O for matrix files",
    "scenarios.check_membership": "public marginal membership test",
    "scenarios.bell_probability_polytope": "public builder of the deterministic correlator points",
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


def _unread():
    """Definitions and imports ("module.name") that nothing reads."""
    defined = {}
    used_by = {}
    dead = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = set()
        for stmt in tree.body:
            names = _definitions(module, stmt)
            defined.update(names)
            # the statement's first name owns every read in it, methods included
            owner = names[0][0] if names else None
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                read.add(name)
                used_by.setdefault(name, set()).add(owner)
        if module == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and (
                    getattr(node, "module", None) != "__future__"):
                dead.update("%s.%s" % (module, bound) for bound in
                            ((a.asname or a.name).split(".")[0] for a in node.names)
                            if bound not in read)
    dead.update(key for key, name in defined.items()
                if not used_by.get(name, set()) - {key})
    return dead


def test_every_definition_has_a_caller():
    dead = _unread()
    assert sorted(dead - set(ALLOWED)) == []
    # an entry that gained a caller, or is gone, leaves the list
    assert sorted(set(ALLOWED) - dead) == []
