"""The package's modules import one another in one fixed order."""

import ast
from pathlib import Path

import microgridctl

# each module may import only the modules before it
ORDER = ("netmodel", "powerflow", "controller", "contingency", "certify", "sim", "data", "cli")


def _package_imports(path: Path) -> set[str]:
    """The package modules named by ``from .x import`` and ``from . import x``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.update([node.module] if node.module else (a.name for a in node.names))
    return names


def test_modules_import_only_earlier_modules():
    package = Path(microgridctl.__file__).parent
    assert sorted(p.stem for p in package.glob("*.py")) == sorted(ORDER + ("__init__",))
    for k, name in enumerate(ORDER):
        later = _package_imports(package / f"{name}.py") - set(ORDER[:k])
        assert not later, f"{name} imports {sorted(later)}, which come after it"
