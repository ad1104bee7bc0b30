"""The package imports only the standard library, as pyproject's empty dependency list says."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_src_imports_only_the_standard_library():
    outside = []
    for path in sorted((ROOT / "src" / "codegb").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "codegb" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno}: {name}")
    assert outside == []


def test_the_package_declares_no_dependencies():
    # read as text: tomllib is not in Python 3.10, which pyproject still allows
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r"^dependencies = .*$", pyproject, re.M) == ["dependencies = []"]
