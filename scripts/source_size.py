"""Print the size of the microgridctl package.

For every module under ``src/microgridctl``: its non-blank lines and its
settable values, that is, parameters with a default plus defaulted fields
of dataclasses (found by walking the module's syntax tree).  A last row
gives the totals.  Run from anywhere: ``python scripts/source_size.py``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "microgridctl"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def settable_values(tree: ast.AST) -> int:
    """Defaulted parameters of every function plus defaulted dataclass fields."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
    return count


def main():
    rows = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = sum(1 for line in text.splitlines() if line.strip())
        rows.append((path.name, lines, settable_values(ast.parse(text))))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<16}{'non-blank':>10}{'settable':>10}")
    for name, lines, values in rows:
        print(f"{name:<16}{lines:>10}{values:>10}")


if __name__ == "__main__":
    main()
