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
