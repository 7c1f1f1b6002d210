"""What each entry point loads, each checked in a fresh interpreter.

`import harmdist` loads no submodule and not numpy; a submodule loads the
submodules its top-level imports name, and nothing else; `analyze` never
loads the verifier, the plot writers or the CSV row formatter.
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


def loaded_after(code: str) -> set[str]:
    """The harmdist modules, and numpy if loaded, after running code in a fresh interpreter."""
    probe = (f"{code}\nimport json, sys\n"
             "print(json.dumps([m for m in sys.modules\n"
             "                  if m == 'numpy' or m.startswith('harmdist')]))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True)
    assert run.returncode == 0, run.stderr
    return set(json.loads(run.stdout.splitlines()[-1]))


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
