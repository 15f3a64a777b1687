"""The internal module boundary, read off the source with `ast`: which
private names each module takes from which other, which functions each
test patches, and which functions are cached."""

import ast
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dyckperm"
TEST_FILES = sorted(Path(__file__).resolve().parent.glob("*.py"))

# verify.py's private imports: the kernel, read through its module (its
# `_frame_key` too, so the transformation suite keys its runs by the rule
# the oracle's tables use), the suites' own references, and eight helpers,
# six from `paths` and two from `perms`, each from the module that defines it
VERIFY_PRIVATE = {
    "_insertion": {"_factor_plan", "_flatten_run", "_frame_key", "_image_table", "_insert"},
    "_references": {"_parking_functions", "_top_word_direct", "_up_down_perms"},
    "paths": {"_dyck_words", "_odometer", "_path_text", "_reflected_steps", "_runs",
              "_step_rows"},
    "perms": {"_Value", "_criteria_verdict"},
}

# every cache in the package: a new one is added here and bounded in
# tests/test_bijection.py::TestInverseBeyondExhaustive::test_caches_stay_bounded
CACHED = {"paths._step_rows", "paths._row", "paths.factor_spans", "_insertion._factor_plan",
          "_insertion._image_table"}


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


def test_tables_walk_the_odometer():
    # the oracle's tables and the suites walk each word's weightings with
    # `paths._odometer` on one list, building no path per weighting; the
    # public `enumerate_weightings` stays for callers of the API
    for name in ("_insertion.py", "verify.py"):
        tree = ast.parse((SRC / name).read_text(), name)
        named = {getattr(node, "id", None) or getattr(node, "attr", None)
                 or getattr(node, "name", None) for node in ast.walk(tree)}
        assert "enumerate_weightings" not in named, name


def test_the_cut_is_read_through_its_module():
    # `_insertion._left_count` states the cut once, and no module binds it
    # by name, so that one patch of it reaches every caller
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        defined = [fn for fn in tree.body
                   if isinstance(fn, ast.FunctionDef) and fn.name == "_left_count"]
        assert len(defined) == (path.stem == "_insertion"), path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert "_left_count" not in {a.name for a in node.names}, path.name


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


def _is_bounded(decorator: ast.expr) -> bool:
    """The decorator is `lru_cache(maxsize=<int literal>)`."""
    return (isinstance(decorator, ast.Call) and not decorator.args
            and getattr(decorator.func, "attr", getattr(decorator.func, "id", None)) == "lru_cache"
            and [k.arg for k in decorator.keywords] == ["maxsize"]
            and isinstance(decorator.keywords[0].value, ast.Constant)
            and type(decorator.keywords[0].value.value) is int)


def test_every_cache_is_bounded():
    # a cache that can grow without bound fails here: `@cache`, a bare
    # `@lru_cache`, `maxsize=None` and a size that is not an int literal
    unbounded = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                unbounded += [f"{path.stem}.{fn.name}" for d in fn.decorator_list
                              if _is_cache(d) and not _is_bounded(d)]
    assert unbounded == []


def test_only_paths_knows_the_tabulation_policy():
    # which step shapes are tabulated, and how the others are read, is
    # decided in paths alone; other modules read rows through `_step_rows`
    for path in SRC.glob("*.py"):
        if path.stem != "paths":
            reads = set().union(*private_reads(path).values())
            assert not reads & {"_TABULATED_HEIGHT", "_LazyRow", "_row"}, path.name


def test_pair_constraints_are_stated_once():
    # the ids of C2..C5 name a constraint only in `paths._PAIRS`; a second
    # statement of the pair constraints needs them and fails here (a
    # docstring never equals an id, so docstrings need no skipping)
    pair_ids = {"C2", "C3", "C4", "C5"}
    found: dict[str, set[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        table = [n.value for n in tree.body if isinstance(n, ast.Assign)
                 and any(getattr(t, "id", None) == "_PAIRS" for t in n.targets)]
        inside = {id(c) for t in table for c in ast.walk(t)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and node.value in pair_ids:
                where = f"{path.stem}._PAIRS" if id(node) in inside else path.stem
                found.setdefault(where, set()).add(node.value)
    assert found == {"paths._PAIRS": pair_ids}


def test_no_count_check_stops_at_a_table_end():
    # each count check reads its sequence's formula in `_references`,
    # which has no end; the tuples of first values in verify are for
    # readers, and a module that indexes one of them or takes its length
    # has a check that stops where the tuple does
    tables = {"REFERENCE_COUNTS", "EULER_ZIGZAG", "CATALAN"}

    def names_table(node: ast.expr) -> bool:
        return (getattr(node, "id", None) or getattr(node, "attr", None)) in tables

    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Subscript) and names_table(node.value):
                found.add(f"{path.stem}: {ast.unparse(node)}")
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "len"
                  and any(map(names_table, node.args))):
                found.add(f"{path.stem}: {ast.unparse(node)}")
    assert found == set()


def test_slopes_are_scanned_once():
    # `paths._runs` is the one scan of a word into its slopes, which
    # `slopes` and the kernel's plans both read; a second scan, such as a
    # regex over the step letters, fails here.  Only paths defines `_runs`,
    # and no other module hands a pattern naming `UP`, `DOWN` or the
    # letters themselves to `re`
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and node.name == "_runs":
                found.add(f"{path.stem}._runs")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and getattr(node.func.value, "id", None) == "re"):
                parts = list(ast.walk(node))
                names = {n.id for n in parts if isinstance(n, ast.Name)}
                text = "".join(n.value for n in parts
                               if isinstance(n, ast.Constant) and isinstance(n.value, str))
                if names & {"UP", "DOWN"} or {"U", "D"} & set(text):
                    found.add(f"{path.stem}: re.{node.func.attr}")
    assert found == {"paths._runs", "paths: re.compile"}


def test_factors_are_walked_once():
    # `paths.factor_spans` is the one walk of a word to its ground returns,
    # cached per word, which the map, both inverses and the oracle read; a
    # second walk, such as a spans cache of another module, fails here
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and node.name.endswith("_spans"):
                found.add(f"{path.stem}.{node.name}")
    assert found == {"paths.factor_spans"}


def test_weights_are_turned_once():
    # `paths._odometer` is the one walker of a word's weightings: its
    # callers list completions with its `start`, and no other function
    # both reads the span rows and raises a list entry by one, as a second
    # odometer would (`counts_upto` adds counts, not ones; the parking
    # functions' odometer in `_references` reads no rows)
    rows = {"_step_rows", "_row", "_span"}
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        functions = [fn for node in tree.body
                     for fn in (node.body if isinstance(node, ast.ClassDef) else [node])
                     if isinstance(fn, ast.FunctionDef)]
        for fn in functions:
            parts = list(ast.walk(fn))
            reads = {n.id for n in parts if isinstance(n, ast.Name)} & rows
            turns = any(isinstance(n, ast.AugAssign) and isinstance(n.op, ast.Add)
                        and isinstance(n.target, ast.Subscript)
                        and getattr(n.value, "value", None) == 1 for n in parts)
            if reads and turns:
                found.add(f"{path.stem}.{fn.name}")
    assert found == {"paths._odometer"}


def test_avoider_states_are_walked_once():
    # `perms._completions` is the one recursion over avoider states, for
    # both the suffix tables and the count; only it and the prefix walk
    # `perms._avoider_groups` step the backtracker, so a second pass over
    # the states, such as a forward pass of the counter, fails here
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        functions = [fn for node in tree.body
                     for fn in (node.body if isinstance(node, ast.ClassDef) else [node])
                     if isinstance(fn, ast.FunctionDef)]
        for fn in functions:
            if any(isinstance(n, ast.Call) and "_extend" in (getattr(n.func, "id", None),
                                                            getattr(n.func, "attr", None))
                   for n in ast.walk(fn)):
                found.add(f"{path.stem}.{fn.name}")
    assert found == {"perms._avoider_groups", "perms._completions"}


def test_every_parameter_is_read():
    # a parameter accepted and then ignored fails here: each parameter of
    # each `def` in src/ is loaded somewhere in its body.  `self`, `cls`
    # and `_`-prefixed names are exempt, and so are lambdas, which stand
    # in for fixed-signature callables
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                      args.vararg, args.kwarg) if a is not None]
            loaded = {node.id for stmt in fn.body for node in ast.walk(stmt)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread += [f"{path.stem}.{fn.name}: {name}" for name in params
                       if name not in loaded and name not in ("self", "cls")
                       and not name.startswith("_")]
    assert unread == []


def test_every_module_stays_under_the_parser_token_step():
    """This pins a detail of CPython 3.11's parser, not of the package: it
    keeps a module's tokens in an array that doubles past 4,096 slots, so
    compiling a module of 4,096 tokens or more allocates twice the slots,
    about 0.29 MB more on every run that compiles it without a bytecode
    cache.  Tokens are counted as the parser sees them, NL and COMMENT
    left out."""
    skipped = {tokenize.NL, tokenize.COMMENT}
    counts = {}
    for path in sorted(SRC.glob("*.py")):
        with path.open() as f:
            counts[path.name] = sum(1 for t in tokenize.generate_tokens(f.readline)
                                    if t.type not in skipped)
    assert max(counts.values()) < 4096, counts
