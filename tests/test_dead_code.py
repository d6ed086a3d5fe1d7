"""Every definition and import of the package has a reader in it.

Checked are top-level functions and classes, the methods and the
class-level annotated fields (of dataclasses and NamedTuples) of top-level
classes, module-level constants and every imported name; dunder names are
exempt, and so are the imports of ``__init__.py``, which re-export.  A
definition counts as used when its name is read anywhere in ``src/polyproj``
outside its own definition (annotations and decorators included): a
top-level definition as a name or as an attribute, a method only as an
attribute (``x.name``), so a local variable of the same name does not keep
it alive, and a field only as an attribute that is loaded, so assigning
``x.name = ...`` does not keep it alive either.  Reads inside a method
count for that method, so a method read only by itself or by nothing is
dead even when its class is used.  Importing a name is not a use.  An
import counts as used when its module reads the name.  Tests do not count,
so code kept alive only by its tests fails here.  The names are matched
without resolving modules, so the check can miss dead code whose name is
also used for something else; code reached only through a string (an
entry point, ``getattr``) needs an entry in ``ALLOWED``.

Defaulted parameters of top-level functions and of methods are checked the
same way: a parameter that no call in the package reaches, to a function of
that name, is reported as ``"module.function(parameter=)"``.  A call reaches
it by passing it by keyword, or by passing enough positional arguments (a
method call binds ``self``/``cls`` first, so its positions shift by one).
Dunder methods are exempt.
"""

import ast
from pathlib import Path

import polyproj

PACKAGE = Path(polyproj.__file__).parent
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: definitions allowed to have no caller in the package, each with its reason
ALLOWED = {
    "analysis.extract_proof": "proof extraction; ROADMAP item 2 uses it to tell Shannon classes",
    "analysis.lift_to_space": "analysis entry point; ROADMAP item 2 gives analysis a caller",
    "matrixfile.load": "perfbench/workloads.py reads each workload's expected facets with it",
    "scenarios.ElementalForm.describe":
        "labels like I(A1:B1|A2); ROADMAP item 2 names Shannon classes with it",
    "matrixfile.MatrixFile.comments":
        "test_listings reads each fixture's scenario: header; ROADMAP item 2 adds a # classes: header",
    "cli.main(argv=)": "the test seam of the console-script entry point",
    "fme.fme_project(row_budget=)": "ROADMAP item 1's FME budget",
    "redundancy.implied_equalities(use_float=)":
        "the exact reference path that tests compare against",
    "redundancy.prune_redundant(use_float=)":
        "the exact reference path that tests compare against",
}


def _fields(stmt):
    """The names of a class's class-level annotated fields."""
    return [item.target.id for item in stmt.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]


def _definitions(module, stmt):
    """("module.name", name) for each checked name a top-level statement defines."""
    out = []
    if isinstance(stmt, _FUNCTIONS + (ast.ClassDef,)):
        key = "%s.%s" % (module, stmt.name)
        out.append((key, stmt.name))
        if isinstance(stmt, ast.ClassDef):
            out += [("%s.%s" % (key, item.name), item.name) for item in stmt.body
                    if isinstance(item, _FUNCTIONS)]
            out += [("%s.%s" % (key, name), name) for name in _fields(stmt)]
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
        method = isinstance(item, _FUNCTIONS)
        out.append(("%s.%s" % (key, item.name) if method else key, item))
    return out


def _unread():
    """Definitions and imports ("module.name") that nothing reads."""
    defined = {}
    fields = set()
    used_by = {}  # (name, "name" | "load" | "store") -> owners of the reads
    dead = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = set()
        for stmt in tree.body:
            names = _definitions(module, stmt)
            defined.update(names)
            if isinstance(stmt, ast.ClassDef):
                fields.update("%s.%s.%s" % (module, stmt.name, name)
                              for name in _fields(stmt))
            for owner, scope in _scopes(module, stmt, names):
                for node in ast.walk(scope):
                    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                        name, how = node.id, "name"
                    elif isinstance(node, ast.Attribute):
                        name = node.attr
                        how = "load" if isinstance(node.ctx, ast.Load) else "store"
                    else:
                        continue
                    read.add(name)
                    used_by.setdefault((name, how), set()).add(owner)
        if module == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and (
                    getattr(node, "module", None) != "__future__"):
                dead.update("%s.%s" % (module, bound) for bound in
                            ((a.asname or a.name).split(".")[0] for a in node.names)
                            if bound not in read)
    def readers(key, name):
        if key in fields:
            hows = ["load"]
        elif key.count(".") == 1:  # top level: a bare name read counts too
            hows = ["load", "store", "name"]
        else:
            hows = ["load", "store"]
        return set().union(*(used_by.get((name, how), set()) for how in hows)) - {key}

    dead.update(key for key, name in defined.items() if not readers(key, name))
    return dead


def _is_static(func):
    return any(isinstance(d, ast.Name) and d.id == "staticmethod"
               for d in func.decorator_list)


def _parameters(module, stmt):
    """(key, function name, parameter, position) for each defaulted parameter
    of a top-level function or of a method of a top-level class.  ``position``
    is the parameter's index among a call's positional arguments, past the
    ``self``/``cls`` a method call binds, or None for a keyword-only one."""
    if isinstance(stmt, ast.ClassDef):
        functions = [("%s.%s.%s" % (module, stmt.name, item.name), item,
                      0 if _is_static(item) else 1)
                     for item in stmt.body if isinstance(item, _FUNCTIONS)]
    elif isinstance(stmt, _FUNCTIONS):
        functions = [("%s.%s" % (module, stmt.name), stmt, 0)]
    else:
        return []
    out = []
    for key, func, bound in functions:
        if func.name.startswith("__") and func.name.endswith("__"):
            continue
        args = func.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        out += [("%s(%s=)" % (key, arg.arg), func.name, arg.arg, i - bound)
                for i, arg in enumerate(positional) if i >= first]
        out += [("%s(%s=)" % (key, arg.arg), func.name, arg.arg, None)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None]
    return out


def _unreached_parameters():
    """Defaulted parameters ("module.function(parameter=)") that no call in
    the package reaches, by keyword or by position, to a function of that
    name."""
    params = []
    calls = []  # (called name, positional argument count, keywords)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            params += _parameters(path.stem, stmt)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                count = float("inf") if starred else len(node.args)
                calls.append((name, count, {kw.arg for kw in node.keywords}))

    def reached(name, param, position):
        return any(called == name and (
            param in keywords or None in keywords
            or (position is not None and count > position))
            for called, count, keywords in calls)

    return {key for key, name, param, position in params
            if not reached(name, param, position)}


def test_every_definition_has_a_caller():
    dead = _unread() | _unreached_parameters()
    assert sorted(dead - set(ALLOWED)) == []
    # an entry that gained a caller, or is gone, leaves the list
    assert sorted(set(ALLOWED) - dead) == []


def test_parameters_count_positions_past_self_and_cls():
    tree = ast.parse(
        "def f(a, b=1, *, c=2, d): pass\n"
        "class K:\n"
        "    def m(self, a, b=1): pass\n"
        "    @classmethod\n"
        "    def n(cls, a=1): pass\n"
        "    @staticmethod\n"
        "    def s(a, b=1): pass\n"
        "    def __init__(self, a=1): pass\n")
    found = [p for stmt in tree.body for p in _parameters("mod", stmt)]
    assert found == [
        ("mod.f(b=)", "f", "b", 1),
        ("mod.f(c=)", "f", "c", None),
        ("mod.K.m(b=)", "m", "b", 1),
        ("mod.K.n(a=)", "n", "a", 0),
        ("mod.K.s(b=)", "s", "b", 1),
    ]
