"""Source hygiene of the hamflow package: no unused imports, parameters, locals or private names.

No linter is part of the toolchain, so this stdlib ``ast`` walk is the
guard.  Every module except ``__init__.py`` (whose imports are the package's
re-exports) must use each name it imports, and every function must read each
of its parameters and each name it assigns or unpacks, itself or in a nested
function; ``self`` and names starting with ``_`` are exempt.  A
private module-level function, class or constant (one name with a leading
underscore, not a dunder) must be read somewhere in the package, as a name,
an attribute or an import.  Every error class in ``errors.py`` but the base
``HamflowError`` must be raised somewhere in the package.

:func:`settable_parameters` counts the package's settings, which CI prints to
its step summary, and the count may not rise above
``SETTABLE_PARAMETERS_PIN``: a change that must add a setting raises the pin
and says why in CHANGES.md.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hamflow"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SETTABLE_PARAMETERS_PIN = 57


def _names_read(nodes) -> set[str]:
    """Every bare name under ``nodes``; quoted annotations are parsed too."""
    seen: set[str] = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            ann = getattr(node, "annotation", None) or getattr(node, "returns", None)
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                seen |= _names_read([ast.parse(ann.value, mode="eval")])
    return seen


def _unused_imports(tree: ast.Module) -> list[str]:
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = _names_read([tree])
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def _ignored_parameters(tree: ast.Module) -> list[str]:
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        used = _names_read(body)
        name = getattr(node, "name", "<lambda>")
        for p in params:
            if p.arg != "self" and not p.arg.startswith("_") and p.arg not in used:
                out.append(f"{name}({p.arg}) (line {node.lineno})")
    return out


def _own_scope(func):
    """Nodes of a function's body, not descending into nested functions, lambdas or classes."""
    todo = list(func.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def _unread_locals(tree: ast.Module) -> list[str]:
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        loaded = {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        stored: dict[str, int] = {}
        for sub in _own_scope(node):
            if isinstance(sub, (ast.Global, ast.Nonlocal)):
                loaded |= set(sub.names)
            elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                stored.setdefault(sub.id, sub.lineno)
        for name, line in stored.items():
            if not name.startswith("_") and name not in loaded:
                out.append(f"{node.name}: {name} (line {line})")
    return out


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                out[name] = node.lineno
    return out


def _package_reads() -> set[str]:
    """Names every module of the package loads, as bare names, attributes or imports."""
    seen: set[str] = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                seen |= {alias.name for alias in node.names}
    return seen


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_private_names(path):
    defined = _private_definitions(ast.parse(path.read_text()))
    reads = _package_reads()
    assert [f"{name} (line {line})" for name, line in defined.items() if name not in reads] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_ignored_parameters(path):
    assert _ignored_parameters(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_locals(path):
    assert _unread_locals(ast.parse(path.read_text())) == []


def _raised_names() -> set[str]:
    """Class names the package raises, called or bare, as names or attributes."""
    seen: set[str] = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, (ast.Name, ast.Attribute)):
                    seen.add(exc.id if isinstance(exc, ast.Name) else exc.attr)
    return seen


def test_every_error_class_is_raised():
    tree = ast.parse((SRC / "errors.py").read_text())
    classes = [n.name for n in tree.body if isinstance(n, ast.ClassDef) and n.name != "HamflowError"]
    assert classes
    raised = _raised_names()
    assert [name for name in classes if name not in raised] == []


def settable_parameters() -> int:
    """Defaulted ``def`` and ``lambda`` parameters, ``**kwargs`` and defaulted dataclass fields in the package."""
    n = 0
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                n += len(a.defaults) + sum(d is not None for d in a.kw_defaults) + (a.kwarg is not None)
            elif isinstance(node, ast.ClassDef) and any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                n += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
    return n


def test_settable_parameters_do_not_grow():
    assert settable_parameters() <= SETTABLE_PARAMETERS_PIN
