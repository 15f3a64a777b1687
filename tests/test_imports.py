"""The internal module boundary, read off the source with `ast`: which
private names each module takes from which other, which functions each
test patches, and which functions are cached."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dyckperm"
TEST_FILES = sorted(Path(__file__).resolve().parent.glob("*.py"))

# verify.py's private imports: the kernel, read through its module, and
# five helpers, each from the module that defines it
VERIFY_PRIVATE = {
    "_insertion": {"_bottom_word", "_brute_weights", "_flatten_run", "_image_table",
                   "_left_count", "_run_insertion", "_up_infos"},
    "paths": {"_dyck_words", "_reflected_steps", "_runs", "_step_rows"},
    "perms": {"_criteria_verdict"},
}

# every cache in the package: a new one is added here and bounded in
# tests/test_bijection.py::TestInverseBeyondExhaustive::test_caches_stay_bounded
CACHED = {"paths._height_profile", "paths._step_rows", "paths._span_row",
          "_insertion._factor_plan", "_insertion._image_table"}


def _package_module(node: ast.ImportFrom):
    """The package module an import reads from, without the package name
    ('' for the package itself), or None outside the package."""
    if node.level:
        return node.module or ""
    head, _, rest = (node.module or "").partition(".")
    return rest if head == "dyckperm" else None


def private_reads(path: Path) -> dict[str, set[str]]:
    """Package module -> the underscore names the file imports from it or
    reads as attributes of it."""
    tree = ast.parse(path.read_text(), str(path))
    aliases: dict[str, str] = {}  # local name bound to a package module
    out: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("dyckperm.") and a.asname:
                    aliases[a.asname] = a.name.removeprefix("dyckperm.")
        elif isinstance(node, ast.ImportFrom):
            module = _package_module(node)
            if module is None:
                continue
            for a in node.names:
                if not module and (SRC / f"{a.name}.py").exists():
                    aliases[a.asname or a.name] = a.name
                elif a.name.startswith("_"):
                    out.setdefault(module, set()).add(a.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and node.attr.startswith("_")):
            out.setdefault(aliases[node.value.id], set()).add(node.attr)
    return out


def test_no_private_name_from_bijection():
    for path in [SRC / "verify.py", SRC / "cli.py", *TEST_FILES]:
        assert "bijection" not in private_reads(path), path.name


def test_verify_private_imports_are_pinned():
    # a new private coupling fails here until this list is changed on purpose
    assert private_reads(SRC / "verify.py") == VERIFY_PRIVATE


def test_no_function_patched_in_two_modules():
    # one patch of the module that defines a function reaches every caller
    for path in TEST_FILES:
        tree = ast.parse(path.read_text(), str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            targets: dict[str, set[str]] = {}
            for call in ast.walk(fn):
                if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                        and call.func.attr == "setattr"
                        and isinstance(call.func.value, ast.Name)
                        and call.func.value.id == "monkeypatch"):
                    first = call.args[0]
                    if isinstance(first, ast.Constant):  # "module.name"
                        target, name = first.value.rsplit(".", 1)
                    else:
                        target, name = ast.unparse(first), call.args[1].value
                    targets.setdefault(name, set()).add(target)
            for name, where in targets.items():
                assert len(where) == 1, f"{path.name}::{fn.name} patches {name} in {sorted(where)}"


def _is_cache(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name in ("lru_cache", "cache")


def test_cache_inventory_is_pinned():
    found = set()
    for path in SRC.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, ast.FunctionDef) and any(map(_is_cache, fn.decorator_list)):
                found.add(f"{path.stem}.{fn.name}")
    assert found == CACHED


def test_only_paths_knows_the_tabulation_policy():
    # which step shapes are tabulated, and how the others are read, is
    # decided in paths alone; other modules read rows through `_row`
    for path in SRC.glob("*.py"):
        if path.stem != "paths":
            reads = set().union(*private_reads(path).values())
            assert not reads & {"_TABULATED_HEIGHT", "_LazyRow"}, path.name
