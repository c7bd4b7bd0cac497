"""Every name a kreinkit module imports is either used in it or re-exported
through its ``__all__``."""

import ast
from pathlib import Path

import kreinkit

MODULES = sorted(p for p in Path(kreinkit.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree):
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):  # quoted ones, such as -> "GramSource"
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _used(ast.parse(node.value, mode="eval"))
    return names


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_modules_import_no_unused_names():
    assert len(MODULES) >= 8
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        keep = _used(tree) | _exported(tree)
        unused += [f"{path.name}: {name}" for name in _imported(tree) if name not in keep]
    assert unused == []


def test_package_all_is_exactly_the_imported_public_names():
    # the package re-exports each module's __all__, in its import order
    modules = [kreinkit.errors, kreinkit.linalg, kreinkit.kernels, kreinkit.nystroem,
               kreinkit.landmarks, kreinkit.learners, kreinkit.data]
    assert {p.stem for p in MODULES} - {m.__name__.split(".")[-1] for m in modules} == {"cli"}
    expected = [name for module in modules for name in module.__all__]
    assert kreinkit.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module in modules:
        for name in module.__all__:
            assert getattr(kreinkit, name) is getattr(module, name)
