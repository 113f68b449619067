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
