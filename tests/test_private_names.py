"""Every module-level private name of the package is read somewhere in
`src/` outside its own definition, so a helper that a refactor leaves
behind fails the suite."""

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
