"""Every name a module of the package or of its tests imports is used there,
every private name a package module defines is read somewhere, and so is
every method and property of a package class.  Every public name, method
and property of the package is read by the product: the package itself,
the benchmark or the README's code."""

import ast
import re
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


def _modules() -> list:
    modules = sorted([*(ROOT / "src" / "otfspn").glob("*.py"), *(ROOT / "tests").glob("*.py")])
    assert len(modules) > 10
    return modules


def _definitions(path: Path) -> set:
    """Names bound at the top level of ``path`` by a def, a class or an
    assignment."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return names


def _private_definitions(path: Path) -> set:
    """Private names (``_x``, not ``__x__``) of ``_definitions(path)``."""
    return {n for n in _definitions(path) if n.startswith("_") and not n.endswith("__")}


def _references(path: Path) -> set:
    """Names ``path`` reads, as a bare name, an attribute or an import."""
    refs = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(a.name for a in node.names)
    return refs


def _class_members(path: Path) -> set:
    """``Class.name`` of each method and property (not ``__x__``) of the
    classes defined in ``path``.  Annotated dataclass fields are not members
    here: a field can be read through ``vars()`` rather than by name."""
    return {f"{node.name}.{item.name}"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.FunctionDef)
            and not (item.name.startswith("__") and item.name.endswith("__"))}


def _attributes_read(path: Path) -> set:
    """Names ``path`` reads as an attribute, ``x.name``."""
    return {node.attr for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _readme_code_names() -> set:
    """Identifiers inside the README's code spans and code blocks."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.S)
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(code)))


def test_no_module_imports_a_name_it_never_uses():
    modules = _modules()
    unused = {str(p.relative_to(ROOT)): names for p in modules
              if (names := _unused_imports(p))}
    assert unused == {}


def test_every_private_package_name_is_read():
    modules = _modules()
    read = set().union(*map(_references, modules))
    unread = {str(p.relative_to(ROOT)): sorted(names) for p in modules
              if p.parent.name == "otfspn" and (names := _private_definitions(p) - read)}
    assert unread == {}


def test_every_package_class_member_is_read():
    modules = _modules()
    read = set().union(*map(_attributes_read, modules))
    unread = sorted(f"{p.stem}.{m}" for p in modules if p.parent.name == "otfspn"
                    for m in _class_members(p) if m.partition(".")[2] not in read)
    assert unread == []


def test_every_public_package_name_is_read_by_the_product():
    """A public top-level name, method or property of the package is read by
    a package module, by a file under ``perfbench/`` or named in the README's
    code; a name that only tests read belongs in the tests."""
    package = sorted((ROOT / "src" / "otfspn").glob("*.py"))
    product = [*package, *sorted((ROOT / "perfbench").rglob("*.py"))]
    readme = _readme_code_names()
    names_read = set().union(readme, *map(_references, product))
    attrs_read = set().union(readme, *map(_attributes_read, product))
    unread = sorted(
        [f"{p.stem}.{n}" for p in package for n in _definitions(p)
         if not n.startswith("_") and n not in names_read]
        + [f"{p.stem}.{m}" for p in package for m in _class_members(p)
           if not m.partition(".")[2].startswith("_")
           and m.partition(".")[2] not in attrs_read])
    assert unread == []
