"""The library keeps only the route it runs: every top-level name that a
module of ``src/windwalk`` defines is read by the library, exported in
``windwalk.__all__``, or patched by the benchmark tracer.  A name that only
the tests read belongs in ``tests/reference.py``."""

import ast
import importlib.util
import pathlib
from collections import Counter, defaultdict

import windwalk

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _definitions(tree):
    """(name, node) of each top-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                        yield sub.id, node


def _reads(node):
    """What ``node`` reads: each loaded name, and each attribute of a name
    as ``"module.name"``, such as ``"_stepper.simulate"``, with its count."""
    reads = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            reads[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            reads[f"{sub.value.id}.{sub.attr}"] += 1
    return reads


def _imports(tree):
    """``(module, name)`` -> the names under which ``tree`` imports ``name``
    from the package's ``module``."""
    out = defaultdict(set)
    for sub in ast.walk(tree):
        if isinstance(sub, ast.ImportFrom) and sub.level == 1:
            for alias in sub.names:
                out[sub.module, alias.name].add(alias.asname or alias.name)
    return out


def unread_names():
    """``module.name`` of every top-level definition in ``src/windwalk``,
    dunders aside, that no code of the package reads outside the definition
    itself and that neither ``windwalk.__all__`` nor ``TRACED`` names."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    traced = {(module.rpartition(".")[2], attr) for module, attr in tracing.TRACED.values()}
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted((ROOT / "src" / "windwalk").glob("*.py"))}
    reads = {module: _reads(tree) for module, tree in trees.items()}
    imports = {module: _imports(tree) for module, tree in trees.items()}
    unread = []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            if (name.startswith("__") and name.endswith("__")) or (module, name) in traced:
                continue
            if name in windwalk.__all__ and getattr(windwalk, name) is getattr(
                    importlib.import_module(f"windwalk.{module}"), name):
                continue
            readers = sum(reads[other][f"{module}.{name}"]
                          + sum(reads[other][alias] for alias in
                                ({name} if other == module else imports[other][module, name]))
                          for other in trees)
            own = _reads(node)
            if readers == own[name] + own[f"{module}.{name}"]:
                unread.append(f"{module}.{name}")
    return unread


def test_every_library_name_has_a_reader():
    assert unread_names() == []
