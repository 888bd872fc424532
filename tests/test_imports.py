"""Every name a module of the package or of its tests imports is used there."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(path: Path) -> list:
    """Names bound by an import in ``path`` that no expression reads and
    ``__all__`` does not list."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted([*(ROOT / "src" / "otfspn").glob("*.py"), *(ROOT / "tests").glob("*.py")])
    assert len(modules) > 10
    unused = {str(p.relative_to(ROOT)): names for p in modules
              if (names := _unused_imports(p))}
    assert unused == {}
