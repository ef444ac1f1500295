"""Every module-level private name of the package is read somewhere in
`src/` outside its own definition, so a helper that a refactor leaves
behind fails the suite; and no test reference imports private code of
the package, so a reference cannot pass by running the code it checks."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _defined(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function, a class or
    assignment targets."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _reads(node: ast.AST) -> Counter:
    """Each name read in node, by a bare name or as an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) or isinstance(n, ast.Attribute)
    )


def test_every_private_module_name_is_read_elsewhere_in_src():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.rglob("*.py"))}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    unread = [
        f"{path.relative_to(SRC)}: {name}"
        for path, tree in trees.items()
        for node in tree.body
        for name in _defined(node)
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
        and reads[name] == _reads(node)[name]
    ]
    assert not unread, f"private names read nowhere else: {unread}"


def _private_code(module: str) -> set[str]:
    """The private functions of a package module, and its private classes
    with a method that is not a dunder."""
    path = SRC.joinpath(*module.split("."))
    path = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
    return {
        node.name
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
        or isinstance(node, ast.ClassDef) and node.name.startswith("_") and any(
            isinstance(f, ast.FunctionDef) and not (f.name.startswith("__") and f.name.endswith("__"))
            for f in node.body
        )
    }


def test_references_import_no_private_code():
    """A reference shares data with the code it checks, never code: no
    tests/*_reference.py imports a private function or method-bearing
    private class from the package. Constants and plain record types
    such as trees._Tree may be shared."""
    shared = [
        f"{path.name}: {node.module}.{alias.name}"
        for path in sorted(Path(__file__).parent.glob("*_reference.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hgnids"
        for alias in node.names
        if alias.name in _private_code(node.module)
    ]
    assert not shared, f"references that import private code: {shared}"
