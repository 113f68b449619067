"""Source checks that need no linter: parse each nmgeo module with ast."""

import ast
from pathlib import Path

import nmgeo

MODULES = sorted(Path(nmgeo.__file__).resolve().parent.glob("*.py"))


def test_no_top_level_name_defined_twice():
    dupes = []
    for path in MODULES:
        seen = set()
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name in seen:
                    dupes.append(f"{path.name}:{node.lineno} redefines {node.name}")
                seen.add(node.name)
    assert MODULES and not dupes, dupes


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_unreferenced_private_name():
    # a private top-level name that nothing in nmgeo reads is dead code
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    defined = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(path, node.lineno, n) for n in names if _is_private(n)]
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [f"{path.name}:{line} {name}" for path, line, name in defined if name not in used]
    assert defined
    assert not unused, unused
