"""What each entry point loads, each checked in a fresh interpreter.

`import harmdist` loads no submodule and not numpy; a submodule loads the
submodules its top-level imports name, and nothing else; `analyze` never
loads the verifier, the plot writers or the CSV row formatter.  The CLI
starts numpy with a one-thread BLAS pool unless the caller set
OPENBLAS_NUM_THREADS, and no library module touches that setting; the
source makes no BLAS call that a pool would serve but one small dot.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import harmdist

PACKAGE = Path(harmdist.__file__).parent
SUBMODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def after(code: str, result: str, env: dict | None = None):
    """The JSON value of the expression result after running code in a fresh interpreter.

    The interpreter gets this process's environment updated with env, where
    a variable set to None is removed: the pytest process holds
    OPENBLAS_NUM_THREADS once any test has imported harmdist.cli.
    """
    probe = f"{code}\nimport json, os, sys\nprint(json.dumps({result}))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent), **(env or {})}
    env = {k: v for k, v in env.items() if v is not None}
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def loaded_after(code: str) -> set[str]:
    """The harmdist modules, and numpy if loaded, after running code in a fresh interpreter."""
    return set(after(code, "[m for m in sys.modules if m == 'numpy' or m.startswith('harmdist')]"))


def top_level_imports(name: str) -> set[str]:
    """The submodules a submodule's module-level relative imports name."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    found = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module)
            else:
                found.update(a.name for a in node.names if a.name in SUBMODULES)
    return found


def closure(name: str) -> set[str]:
    seen, todo = set(), [name]
    while todo:
        mod = todo.pop()
        if mod not in seen:
            seen.add(mod)
            todo.extend(top_level_imports(mod))
    return seen


def test_there_are_fifteen_submodules():
    assert len(SUBMODULES) == 15


def test_import_harmdist_loads_no_submodule_and_not_numpy():
    assert loaded_after("import harmdist") == {"harmdist"}


@pytest.mark.parametrize("name", SUBMODULES)
def test_each_submodule_imports_on_its_own_and_loads_only_its_imports(name):
    loaded = loaded_after(f"import harmdist.{name}")
    expected = {"harmdist", *(f"harmdist.{m}" for m in closure(name))}
    assert loaded - {"numpy"} == expected


def test_the_catalog_loads_only_the_maps_it_builds():
    loaded = loaded_after("import harmdist.catalog")
    names = {m.removeprefix("harmdist.") for m in loaded - {"harmdist", "numpy"}}
    assert names == {"analytic", "catalog", "disk", "errors", "harmonic", "series"}


def test_analyze_loads_no_verifier_plots_or_csv_rows(tmp_path):
    code = ("import harmdist.cli\n"
            f"assert harmdist.cli.main(['analyze', '--map', 'koebe', '--grid', '8,16', "
            f"'--out', {str(tmp_path)!r}]) == 0")
    loaded = loaded_after(code)
    assert "harmdist.norms" in loaded and (tmp_path / "analyze.json").exists()
    assert not loaded & {"harmdist.verifier", "harmdist.plotting", "harmdist.csvrows"}


BLAS = "OPENBLAS_NUM_THREADS"


def test_the_cli_sets_one_blas_thread_unless_the_caller_set_one():
    assert after("import harmdist.cli", f"os.environ.get({BLAS!r})", {BLAS: None}) == "1"
    assert after("import harmdist.cli", f"os.environ.get({BLAS!r})", {BLAS: "2"}) == "2"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
def test_the_cli_starts_numpy_without_a_blas_pool_thread():
    found = after("import harmdist.cli",
                  "['numpy' in sys.modules, len(os.listdir('/proc/self/task'))]", {BLAS: None})
    assert found == [True, 1]


@pytest.mark.parametrize("name", [m for m in SUBMODULES if m != "cli"])
def test_a_library_module_leaves_the_blas_setting_to_its_caller(name):
    assert after(f"import harmdist.{name}", f"os.environ.get({BLAS!r})", {BLAS: None}) is None


# numpy calls that BLAS serves: functions and modules of numpy, by name, and
# ndarray's one BLAS method, .dot; "@" is the operator.
BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "einsum", "tensordot", "linalg", "polyfit",
              "lstsq"}


def blas_calls(name: str) -> list[tuple[str, str, str]]:
    """(submodule, innermost function, call) of each BLAS-backed call in a submodule."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    numpy_names = set()  # the names a numpy module or function is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            numpy_names.update((a.asname or a.name).split(".")[0] for a in node.names
                               if a.name.split(".")[0] == "numpy")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            numpy_names.update(a.asname or a.name for a in node.names)
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            call = None
            if isinstance(child, ast.Attribute) and child.attr in BLAS_CALLS:
                root = child.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if child.attr == "dot" or getattr(root, "id", None) in numpy_names:
                    call = child.attr
            elif isinstance(child, (ast.Import, ast.ImportFrom)):  # from numpy import dot, ...
                dotted = [getattr(child, "module", None) or "", *(a.name for a in child.names)]
                parts = {part for d in dotted for part in d.split(".")}
                if "numpy" in parts:
                    call = min(parts & BLAS_CALLS, default=None)
            elif isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op,
                                                                             ast.MatMult):
                call = "@"
            if call:
                found.append((name, function, call))
            visit(child, function)

    visit(tree, "")
    return found


def test_no_blas_call_would_use_a_pool():
    """The one-thread pool the CLI sets costs nothing only while this holds.

    The one BLAS call is series.reciprocal's 1-d dot of at most 121 entries;
    a new one needs the pool setting in cli.py measured again.
    """
    found = [call for name in SUBMODULES for call in blas_calls(name)]
    assert found == [("series", "reciprocal", "dot")]


# The functions and methods that no code in the package references: each is
# a door for a reader outside it, named with its reader.
UNREFERENCED = {
    "bounds.pair_jet": "the checked public entry that the README uses",
    "disk.hyperbolic": "checked public geometry",
    "norms.polar_grid": "the bit reference for _grid_points",
    "norms.sup_weighted": "bench/spans.instrument reads it with no fallback",
    "cli._Parser.error": "an argparse hook",
}
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))
FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(name: str) -> list[tuple[str, ast.AST]]:
    """(dotted name, node) of each top-level function and non-dunder method of a module."""
    found = []
    for node in ast.parse((PACKAGE / f"{name}.py").read_text()).body:
        if isinstance(node, FUNCTION):
            found.append((f"{name}.{node.name}", node))
        elif isinstance(node, ast.ClassDef):
            found.extend((f"{name}.{node.name}.{item.name}", item) for item in node.body
                         if isinstance(item, FUNCTION) and not item.name.startswith("__"))
    return found


def references(tree: ast.AST) -> list[tuple[str, set[int]]]:
    """Each name a tree references, as an ast.Name, an ast.Attribute or an import.

    With each comes the ids of the function nodes it lies in, so that a
    reference from inside a definition's own body can be told apart.
    """
    found = []

    def visit(node, inside):
        if isinstance(node, FUNCTION):
            inside = inside | {id(node)}
        if isinstance(node, ast.Name):
            found.append((node.id, inside))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, inside))
        elif isinstance(node, ast.alias):
            found.append((node.name.split(".")[-1], inside))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def test_every_function_is_referenced_in_the_package_or_is_a_named_door():
    """A function that no code of the package names runs under no command, unless a door."""
    refs = [r for m in MODULES for r in references(ast.parse((PACKAGE / f"{m}.py").read_text()))]
    unreferenced = {dotted for m in MODULES for dotted, node in definitions(m)
                    if not any(n == node.name and id(node) not in inside for n, inside in refs)}
    assert unreferenced == set(UNREFERENCED)


@pytest.mark.parametrize("name", MODULES)
def test_a_module_uses_every_name_it_imports(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported - used == set()
