"""Every top-level function and class of the package has a caller in it.

A definition counts as used when its name is read anywhere in
``src/polyproj`` outside its own definition (as a name or as an attribute,
annotations and decorators included); importing it is not a use.  Tests do
not count, so code kept alive only by its tests fails here.  The names are
matched without resolving modules, so the check can miss dead code whose
name is also used for something else; code reached only through a string
(an entry point, ``getattr``) needs an entry in ``ALLOWED``.
"""

import ast
from pathlib import Path

import polyproj

PACKAGE = Path(polyproj.__file__).parent

#: definitions allowed to have no caller in the package, each with its reason
ALLOWED = {
    "afi.point_to_facets": "AFI's certificate for non-interior points; public API",
    "afi.rfd": "AFI's budgeted, resumable facet search; public API",
    "analysis.enumerate_structured_facets":
        "structured facet search; ROADMAP item 2 gives analysis a caller",
    "analysis.extract_proof": "proof extraction; ROADMAP item 2 uses it to tell Shannon classes",
    "analysis.lift_to_space": "analysis entry point; ROADMAP item 2 gives analysis a caller",
    "analysis.structural_check":
        "analysis entry point; ROADMAP item 2 gives analysis a caller",
    "matrixfile.load": "public file I/O for matrix files",
    "matrixfile.save": "public file I/O for matrix files",
    "matrixfile.normalized_row_set": "public helper to compare matrix files",
    "scenarios.common_ancestor_model": "public builder for causal models with hidden ancestors",
    "scenarios.check_membership": "public marginal membership test",
    "scenarios.bell_probability_polytope": "public builder of the deterministic correlator points",
}


def _uncalled():
    """Top-level definitions ("module.name") with no use outside themselves."""
    defined = {}
    used_by = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = "%s.%s" % (path.stem, stmt.name)
                defined[owner] = stmt.name
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    used_by.setdefault(node.id, set()).add(owner)
                elif isinstance(node, ast.Attribute):
                    used_by.setdefault(node.attr, set()).add(owner)
    return {key for key, name in defined.items()
            if not used_by.get(name, set()) - {key}}


def test_every_definition_has_a_caller():
    dead = _uncalled()
    assert sorted(dead - set(ALLOWED)) == []
    # an entry that gained a caller, or is gone, leaves the list
    assert sorted(set(ALLOWED) - dead) == []
