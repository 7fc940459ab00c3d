"""Every name a module of the package imports is used in that module or
exported through its __all__, and every private module-level name it
defines is used in it: unused-import and dead-code checks that need no
linter."""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "driftguard"


def imported_names(tree):
    """(line, name) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def used_names(tree) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    assert [(line, name) for line, name in imported_names(tree) if name not in used] == []


def private_definitions(tree):
    """(line, name) for each module-level function, class or constant whose
    name starts with a single underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield node.lineno, name


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_private_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    assert [(line, name) for line, name in private_definitions(tree) if name not in used] == []


STORAGE_NAMES = ("dataset.json", "dataset-", "audit.log", "detections.log", ".token", "writer.lock")


@pytest.mark.parametrize(
    "path",
    sorted(path for path in PACKAGE.glob("*.py") if path.name != "token.py"),
    ids=lambda path: path.name,
)
def test_only_the_token_store_names_storage_files(path):
    """The token store (token.py) owns every file under storage_path, so no
    other module spells a storage file name."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    literals = [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    assert [(line, text) for line, text in literals if any(n in text for n in STORAGE_NAMES)] == []


def imported_modules(tree):
    """(line, dotted name) for each module an import statement names,
    counting `from a import b` as both `a` and `a.b`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.lineno, node.module
            for alias in node.names:
                yield node.lineno, f"{node.module}.{alias.name}"


@pytest.mark.parametrize(
    "path",
    sorted(path for path in PACKAGE.glob("*.py") if path.name != "types.py"),
    ids=lambda path: path.name,
)
def test_only_types_decodes_json(path):
    """types.parse_json is the one JSON decoder for input read from outside,
    so no other module calls json.loads or json.load, or imports either."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    decoders = {"json.loads", "json.load"}
    calls = [
        (node.lineno, ast.unparse(node.func))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    ]
    found = calls + list(imported_modules(tree))
    assert [(line, name) for line, name in found if name in decoders] == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_only_httpbase_speaks_http(path):
    """httpbase.py owns the HTTP framing, so no module imports the stdlib's
    HTTP client or server, and no other module opens a socket."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    forbidden = {"http.client", "http.server"}
    if path.name != "httpbase.py":
        forbidden |= {"socket", "socketserver", "ssl"}
    assert [
        (line, name) for line, name in imported_modules(tree)
        if any(name == f or name.startswith(f + ".") for f in forbidden)
    ] == []


def test_package_layout_lists_every_module():
    """README's "Package layout" block names each module of the package,
    and no module that is gone."""
    readme = (PACKAGE.parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Package layout", 1)[1].split("```")[1]
    listed = re.findall(r"^  (\S+\.py) ", block, flags=re.MULTILINE)
    assert sorted(listed) == sorted(path.name for path in PACKAGE.glob("*.py"))
