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


def test_a_triplet_has_one_truncation_convention():
    # a triplet is truncated at |x| <= 1 and nothing else: no function takes
    # a convention, and a clock is drawn from its SubordinatorPair, never
    # rebuilt as a triplet
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                args = node.args
                names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
                found += [f"{path.name}:{node.lineno}: takes a convention" for name in names if name == "convention"]
            if path.name == "simulate.py" and isinstance(node, ast.Call) and _used_name(node.func) == "LevyTriplet":
                found.append(f"{path.name}:{node.lineno}: builds a LevyTriplet")
    assert not found, f"a second truncation convention: {found}"


def test_every_family_method_has_a_caller():
    # a public method of a jump-measure or tagged-law family is interface: a
    # method that no code in the package calls, outside the definitions of
    # that name, is left behind by a deleted caller
    from levymix import core

    families = {name for name, obj in vars(core).items()
                if isinstance(obj, type) and issubclass(obj, (core.LevyMeasure, core.TaggedLaw))}
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    methods = {}
    for node in ast.parse((SRC / "core.py").read_text()).body:
        if isinstance(node, ast.ClassDef) and node.name in families:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    methods.setdefault(item.name, []).append(item)
    uses = Counter(_used_name(node) for tree in trees for node in ast.walk(tree))
    orphans = sorted(name for name, defs in methods.items()
                     if uses[name] == sum(_used_name(inner) == name for d in defs for inner in ast.walk(d)))
    assert not orphans, f"family methods that nothing calls: {orphans}"


def test_every_name_the_benchmark_tracer_wraps_resolves():
    """bench/spans.py, read as it is, wraps package functions and methods by
    name: one renamed or deleted in the package would fail a traced run.

    Its CALL_METRICS table is left out: it counts calls of
    quadrature.integrate_interval, which the package no longer has, and
    that name waits for a change to the benchmark itself."""
    import importlib
    import importlib.util
    import inspect

    path = SRC.parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = {f"{layer}.{attr}" for layer, attrs in spans.EXTRA_FUNCTIONS.items() for attr in attrs}
    names |= {f"{layer}.{cls}.{meth}" for layer, methods in spans.METHODS.items() for cls, meth in methods}
    names |= {name for members in spans.GROUPS.values() for name in members}
    names |= {target for target in spans.TIME_METRICS.values() if target not in spans.GROUPS}
    names |= set(spans._hooks({}))
    missing = []
    for name in sorted(names):
        layer, *attrs = name.split(".")
        obj = importlib.import_module(f"levymix.{layer}")
        for attr in attrs:
            obj = vars(obj).get(attr) if obj is not None else None
        if not (inspect.isfunction(obj) and obj.__module__ == f"levymix.{layer}"):
            missing.append(name)
    assert len(names) >= 27 and not missing, f"names the tracer wraps that the package lacks: {missing}"
