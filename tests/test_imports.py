"""Import-time contracts.

scipy loads only inside the functions that use it, and every third-party
module the tests import is declared in ``pyproject.toml``.
"""

import ast
import os
import re
import subprocess
import sys
import tomllib
from importlib.metadata import packages_distributions
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])
ROOT = Path(__file__).resolve().parents[1]
FIRST_PARTY = {"repro", "tests"}


@pytest.mark.parametrize("module", ["repro", "repro.cli"])
def test_import_leaves_scipy_unloaded(module):
    # A fresh interpreter: this test process has long since imported scipy.
    code = f"import sys, {module}; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert proc.stdout.strip() == "False"


def _normalise(name: str) -> str:
    """A distribution name in PEP 503 normal form."""
    return re.sub(r"[-_.]+", "-", name).lower()


def _top_level_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_test_imports_are_declared_dependencies():
    # A runner that installs only ".[dev]" must be able to collect every test module.
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    requirements = (*project["dependencies"], *project["optional-dependencies"]["dev"])
    declared = {_normalise(re.match(r"[\w.-]+", req).group()) for req in requirements}
    distributions = packages_distributions()
    undeclared: dict[str, list[str]] = {}
    for path in sorted((ROOT / "tests").rglob("*.py")):
        for module in _top_level_imports(path):
            if module in sys.stdlib_module_names or module in FIRST_PARTY:
                continue
            # Not installed: assume the distribution shares the module's name.
            names = distributions.get(module, [module])
            if not any(_normalise(name) in declared for name in names):
                undeclared.setdefault(module, []).append(str(path.relative_to(ROOT)))
    assert not undeclared, f"imported under tests/ but not declared: {undeclared}"
