"""The runtime dependency list: what ``src/cspdclink`` imports is what
``pyproject.toml`` declares, and importing the CLI loads nothing beyond numpy
and the standard library."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cspdclink"


def declared_dependencies() -> set[str]:
    """Import names of ``[project] dependencies``, read with a regex because
    ``tomllib`` is absent on Python 3.10."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.MULTILINE | re.DOTALL)
    assert block, "pyproject.toml has no dependencies list"
    specs = re.findall(r"[\"']([^\"']+)[\"']", block.group(1))
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
            for spec in specs}


def third_party_imports() -> set[str]:
    """Top-level names of the absolute imports in the package's modules that
    are neither the standard library nor the package itself."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"cspdclink"}


def test_imports_match_declared_dependencies():
    assert third_party_imports() == declared_dependencies()


def loaded_modules(code: str) -> set[str]:
    """``sys.modules`` after running ``code`` in a fresh interpreter that
    imports the package from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", f"{code}; print(*sys.modules)"],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    return set(proc.stdout.split())


def test_cli_import_loads_only_numpy_and_the_standard_library():
    # every CLI call pays for its imports; the difference from a bare
    # interpreter leaves out the site hooks that start-up loads on its own
    added = loaded_modules("import sys, cspdclink.cli") - loaded_modules("import sys")
    allowed = set(sys.stdlib_module_names) | {"numpy", "cspdclink"}
    assert {name for name in added if name.split(".")[0] not in allowed} == set()
    assert "cspdclink.cli" in added
