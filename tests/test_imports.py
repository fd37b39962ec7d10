"""Every import in the package's modules is used.

`__init__.py` is exempt, since its imports are the public re-exports, and so
is `renorm`'s `diagonalize`, which only `perfbench/layertrace.py` reads (its
import says so).
"""

import ast
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src" / "blowuplab"
_EXEMPT = {("renorm", "diagonalize")}


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in bound if name not in used and (path.stem, name) not in _EXEMPT)


@pytest.mark.parametrize(
    "path", sorted(p for p in _SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.stem
)
def test_no_unused_import(path):
    assert _unused_imports(path) == []
