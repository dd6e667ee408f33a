"""The package source itself: no private code that nothing calls.

A private module-level name or a private method that only its own
definition mentions is dead: a deletion elsewhere left it behind.  So is
a public module-level function or class that the package does not export
and that no other code in it mentions, and a name a module imports and
never uses.
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


def _imports(tree):
    """(name, line) of each name the module's imports bind, from __future__ aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.asname or alias.name.partition(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((alias.asname or alias.name, node.lineno) for alias in node.names)


def test_no_module_imports_a_name_it_never_uses():
    # the package's __init__.py imports to export, as a module's __all__ lists
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                used.update(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line}: {name}" for name, line in _imports(tree) if name not in used]
    assert not unused, f"imported names that nothing uses: {unused}"


def test_only_mixing_integrates_against_a_clock():
    # integration against rho has one home: a family that grew its own rule
    # would import the quadrature module
    importers = []
    for path in sorted(SRC.glob("*.py")):
        names = {name for name, _ in _imports(ast.parse(path.read_text()))}
        if "quadrature" in names and path.name != "quadrature.py":
            importers.append(path.name)
    assert importers == ["mixing.py"]


def test_the_mixing_modules_see_a_clock_only_through_its_interface():
    # a family class imported into mixing or subordinate is a branch on the
    # clock's type; a clock's atoms are asked for through fixed_rule
    from levymix import core

    families = {name for name, obj in vars(core).items()
                if isinstance(obj, type) and issubclass(obj, core.LevyMeasure) and obj is not core.LevyMeasure}
    imported = {f"{module}: {name}" for module in ("mixing.py", "subordinate.py")
                for name, _ in _imports(ast.parse((SRC / module).read_text())) if name in families}
    assert not imported, f"jump-measure classes imported: {sorted(imported)}"


def test_the_mixing_modules_see_a_base_only_through_its_interface():
    # a base is routed by what its triplet says of itself (is_degenerate, its
    # jumps' fixed_rule): a tagged-law class imported into mixing or
    # subordinate, or a comparison with a string literal, names a route
    from levymix import core

    laws = {name for name, obj in vars(core).items() if isinstance(obj, type) and issubclass(obj, core.TaggedLaw)}
    found = []
    for module in ("mixing.py", "subordinate.py"):
        tree = ast.parse((SRC / module).read_text())
        found += [f"{module}: imports {name}" for name, _ in _imports(tree) if name in laws]
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and any(
                    isinstance(side, ast.Constant) and isinstance(side.value, str)
                    for side in [node.left, *node.comparators]):
                found.append(f"{module}:{node.lineno}: compares with a string")
    assert not found, f"routes named outside the base's interface: {found}"
