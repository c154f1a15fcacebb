"""Cross-references in the package's docstrings name things that exist."""

import ast
import importlib
import inspect
import pathlib
import re

import outerint

SRC = pathlib.Path(outerint.__file__).parent
ROLE = re.compile(r":(func|class|meth|mod):`~?([^`]+)`")
KIND = {"func": callable, "meth": callable, "class": inspect.isclass, "mod": inspect.ismodule}


def references() -> list[tuple[str, str, str]]:
    """``(module, role, target)`` of each ``:func:``, ``:class:``,
    ``:meth:`` and ``:mod:`` reference in a docstring or ``#:`` doc comment
    of a module of the package."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        module = "outerint" if path.stem == "__init__" else f"outerint.{path.stem}"
        source = path.read_text()
        nodes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        docs = [ast.get_docstring(node, clean=False) or "" for node in ast.walk(ast.parse(source))
                if isinstance(node, nodes)]
        docs += [line for line in source.splitlines() if line.lstrip().startswith("#:")]
        found += [(module, role, target) for role, target in ROLE.findall("\n".join(docs))]
    return found


def resolves(module: str, role: str, target: str) -> bool:
    """Whether ``target`` names a thing of the role's kind: a module of the
    package (relative names too), or a dotted path from a name in
    ``module``'s namespace, from a method of one of its classes, or from a
    module of the package."""
    if role == "mod":
        try:
            return KIND[role](importlib.import_module(target, "outerint"))
        except ImportError:
            return False
    namespace = vars(importlib.import_module(module))
    head, *rest = target.split(".")
    starts = [namespace.get(head)]
    starts += [vars(cls).get(head) for cls in namespace.values() if inspect.isclass(cls)]
    if (SRC / f"{head}.py").exists():
        starts.append(importlib.import_module(f"outerint.{head}"))
    for obj in starts:
        for name in rest:
            obj = getattr(obj, name, None)
        if obj is not None and KIND[role](obj):
            return True
    return False


def test_every_docstring_reference_resolves():
    found = references()
    assert len(found) >= 40
    assert [ref for ref in found if not resolves(*ref)] == []


def test_a_deleted_or_misnamed_target_is_caught():
    assert resolves("outerint.dynamics", "func", "_orbit")
    assert not resolves("outerint.dynamics", "func", "_no_such_helper")
    assert not resolves("outerint.dynamics", "class", "_orbit")
    assert not resolves("outerint.marked_graph", "meth", "path_lengths")
    assert not resolves("outerint.marked_graph", "mod", ".no_such_module")
