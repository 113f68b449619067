"""Source checks that need no linter: parse each nmgeo module with ast."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

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


def _runs_on_import(tree: ast.Module):
    """The nodes of a module evaluated when it is imported: all but the bodies
    of its functions (their decorators and default values run)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack += getattr(node, "decorator_list", []) + node.args.defaults
            stack += [d for d in node.args.kw_defaults if d is not None]
        else:
            stack += ast.iter_child_nodes(node)


def _root_name(node: ast.expr) -> str | None:
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def test_no_module_level_numpy_call():
    # importing nmgeo does no numpy work: every fresh interpreter pays it
    calls = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in _runs_on_import(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and _root_name(node.func) in ("np", "numpy")
    ]
    assert MODULES and not calls, calls


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


# run in a fresh interpreter: argv is src and two output paths; prints one JSON line
_IMPORT_GUARD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import nmgeo, nmgeo.cli
heavy = ["scipy.integrate", "scipy.optimize", "scipy.special", "scipy.linalg", "scipy.sparse"]
codes = [
    nmgeo.cli.run(["gfun", "--gamma-w", "0.9", "--kappa", "0.43",
                   "--t-max", "20", "--dt", "0.01", "--out", sys.argv[2]]),
    nmgeo.cli.run(["boundaries", "--gamma-w-range", "0.05:3.0:0.05", "--out", sys.argv[3]]),
]
cold = [m for m in heavy if m in sys.modules]
pool = "concurrent.futures" in sys.modules
kappa = nmgeo.tangency_point(0.5)[1]
tangency = [m for m in heavy if m in sys.modules]
nmgeo.g_ode_oracle(nmgeo.ModelParams(kappa=0.43, gamma_w=0.9), nmgeo.GridSpec(0.01, 2000))
print(json.dumps({"codes": codes, "cold": cold, "pool": pool, "tangency": tangency,
                  "loaded": [m for m in heavy if m in sys.modules], "kappa": kappa}))
"""


def test_cli_recipe_loads_no_scipy_submodule(tmp_path):
    # this session has imported scipy already, so the check needs its own interpreter
    src = str(Path(nmgeo.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_GUARD, src, str(tmp_path / "g.csv"),
         str(tmp_path / "b.csv")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["codes"] == [0, 0]
    # the README gfun and boundaries recipes, then tangency_point, load none
    assert report["cold"] == []
    # nor concurrent.futures, which only the QSD ensemble's worker pool uses
    assert report["pool"] is False
    assert report["tangency"] == []
    # only the ODE oracle loads scipy.integrate (which brings its own imports)
    assert "scipy.integrate" in report["loaded"]
    # the value test_tangency_point_values_kept pins
    assert report["kappa"] == pytest.approx(0.27474639208486323, rel=1e-12, abs=0.0)


def test_cli_import_loads_no_argparse_json_or_traceback():
    # the CLI imports them where it parses, writes and reports
    src = str(Path(nmgeo.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import nmgeo, nmgeo.cli; "
        "print([m for m in ('argparse', 'json', 'traceback') if m in sys.modules])"
    )
    proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_load_config_loads_no_argparse(tmp_path):
    # config files are checked against the CLI's flag table, not its parser
    src = str(Path(nmgeo.__file__).resolve().parents[1])
    cfg = tmp_path / "c.json"
    cfg.write_text('{"gamma_w": 0.9, "format": "json"}')
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import nmgeo.cli; "
        "print(nmgeo.cli.load_config(sys.argv[2], 'gfun'), 'argparse' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code, src, str(cfg)], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "{'gamma_w': 0.9, 'format': 'json'} False"


SCAN_INTERNALS = {"_ModalCells", "_scan", "_scan_plan", "_scan_steps", "_MAX_SCAN_STEPS", "_grid_too_large"}


def test_scan_internals_stay_in_gfunction():
    # the scan driver lives in gfunction; other modules reach it through
    # _solve_each's kernel and _scan_blocks
    uses = []
    for path in MODULES:
        if path.name == "gfunction.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            uses += [f"{path.name}:{node.lineno} {n}" for n in names if n in SCAN_INTERNALS]
    assert MODULES and not uses, uses
