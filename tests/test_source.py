"""The package source itself: no private code that nothing calls.

A private module-level name or a private method that only its own
definition mentions is dead: a deletion elsewhere left it behind.  So is
a public module-level function or class that the package does not export
and that no other code in it mentions.
"""
import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "levymix"


def _used_name(node):
    """The name a node refers to: a variable, an attribute, or an import."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def _private(name):
    return name.startswith("_") and not name.endswith("__") and name != "_"


def _definitions(tree):
    """(name, node) of each private module-level name and private method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item


def test_no_private_name_is_referenced_only_by_its_own_definition():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = Counter(_used_name(node) for tree in trees.values() for node in ast.walk(tree))
    orphans = []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            own = sum(_used_name(inner) == name for inner in ast.walk(node))
            if _private(name) and uses[name] == own:
                orphans.append(f"{module}: {name}")
    assert not orphans, f"private code that nothing references: {orphans}"


def _exported(trees):
    """The names levymix/__init__.py imports and the names in any module's __all__."""
    names = {alias.name for node in ast.walk(trees["__init__.py"]) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                names.update(ast.literal_eval(node.value))
    return names


def test_no_unexported_public_helper_is_referenced_only_by_its_own_definition():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = Counter(_used_name(node) for tree in trees.values() for node in ast.walk(tree))
    exported = _exported(trees)
    orphans = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or _private(node.name):
                continue
            # the CLI's main finds its cmd_* handlers by name, never by reference
            if node.name in exported or node.name.startswith("cmd_"):
                continue
            own = sum(_used_name(inner) == node.name for inner in ast.walk(node))
            if uses[node.name] == own:
                orphans.append(f"{module}: {node.name}")
    assert not orphans, f"unexported public code that nothing references: {orphans}"
