"""Per-layer metrics of the traced run.

The layers are the package modules.  Their public entry points are wrapped
from here (see spans.py) and the lru caches are read with cache_info().
`report` names every per-layer figure the traced run produced;
`TRACKED` is the subset that every workload reports, which is the list of
per-layer metrics in BENCHMARK.json.
"""

from __future__ import annotations

import statistics

from spans import SpanRecorder, dyckperm_modules

# verify.SUITES at the time of writing; the self-test compares the two
SUITES = ("counts", "bijectivity", "roundtrip", "schutzenberger", "product",
          "statistic", "criteria", "insertion_lemma", "transformation",
          "parking", "topword_equivalence")

CACHES = (("paths", "_height_profile"), ("bijection", "_up_infos"),
          ("bijection", "_image_table"))


def _n_of_path(args, kwargs) -> int:
    return args[0].n


def _n_of_perm(args, kwargs) -> int:
    return len(args[0]) // 2


def _first_int(args, kwargs) -> int:
    return args[0]


def _suite_span(args, kwargs) -> str:
    return f"verify.{args[0] if args else kwargs['suite']}"


# (module, entry point, is a generator, tag, span name from the arguments)
ENTRY_POINTS = (
    ("paths", "parse_path", False, None, None),
    ("paths", "count_weighted", False, _first_int, None),
    ("paths", "enumerate_weighted", True, _first_int, None),
    ("perms", "parse_perm_text", False, None, None),
    ("perms", "enumerate_updown_avoiders", True, _first_int, None),
    ("bijection", "to_permutation", False, _n_of_path, None),
    ("bijection", "from_permutation", False, _n_of_perm, None),
    ("bijection", "from_permutation_brute", False, _n_of_perm, None),
    ("verify", "run_suite", False, None, _suite_span),
    ("cli", "main", False, None, None),
)

MODULES = ("paths", "perms", "bijection", "verify", "cli")

TRACKED_COUNTS = (
    ["bijection.to_permutation.calls", "bijection.from_permutation.calls",
     "bijection.from_permutation_brute.calls", "paths.parse_path.calls",
     "paths.count_weighted.calls", "paths.enumerate_weighted.items",
     "perms.enumerate_updown_avoiders.items", "cli.main.calls"]
    + [f"verify.{s}.checked" for s in SUITES]
    + [f"cache.{m}.{f}.{stat}" for m, f in CACHES
       for stat in ("hits", "misses", "currsize")]
)
# Only these layers run on every workload, so only their times are never 0.
TRACKED_TIMES = ("paths.self_s", "perms.self_s")
TRACKED = ([(name, "count") for name in TRACKED_COUNTS]
           + [(name, "s") for name in TRACKED_TIMES]
           + [("trace.overhead_frac", "ratio")])


def install(recorder: SpanRecorder, pkg) -> None:
    modules = dyckperm_modules()
    for mod_name, fn_name, is_gen, tag_of, name_of in ENTRY_POINTS:
        fn = getattr(getattr(pkg, mod_name), fn_name)
        name = f"{mod_name}.{fn_name}"
        if is_gen:
            traced = recorder.wrap_generator(fn, name, tag_of)
        else:
            traced = recorder.wrap_call(fn, name, tag_of, name_of)
        recorder.install(modules, fn, traced)


def clear_caches() -> None:
    """Empty every lru_cache in the package, so each unit starts cold."""
    for mod in dyckperm_modules():
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                value.cache_clear()


def cache_stats(pkg) -> dict[str, float]:
    out: dict[str, float] = {}
    for mod_name, fn_name in CACHES:
        fn = getattr(getattr(pkg, mod_name), fn_name, None)
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        prefix = f"cache.{mod_name}.{fn_name}"
        hits, misses, size = (info.hits, info.misses, info.currsize) if info else (0, 0, 0)
        out[f"{prefix}.hits"] = hits
        out[f"{prefix}.misses"] = misses
        out[f"{prefix}.currsize"] = size
        out[f"{prefix}.lookups"] = hits + misses  # base of the hit ratio
        if hits + misses:
            out[f"{prefix}.hit_ratio"] = hits / (hits + misses)
    return out


def report(recorder: SpanRecorder, pkg, reports, wall_untraced: float,
           wall_traced: float) -> dict[str, float]:
    """Every per-layer figure of one traced pass, by name.  The two walls
    are of the same parts of the unit, untraced and traced."""
    own = recorder.self_times()
    dur = recorder.dur
    tags = recorder.tag
    spans = recorder.by_name()
    out: dict[str, float] = {}
    module_self = dict.fromkeys(MODULES, 0.0)
    for name, idxs in sorted(spans.items()):
        module_self[name.split(".")[0]] += sum(own[i] for i in idxs)
        out[f"{name}.calls"] = len(idxs)
        out[f"{name}.self_s"] = sum(own[i] for i in idxs)
        if name in ("bijection.to_permutation", "bijection.from_permutation"):
            per_n: dict[int, list[float]] = {}
            for i in idxs:
                per_n.setdefault(tags[i], []).append(dur[i])
            for n, ds in sorted(per_n.items()):
                out[f"{name}.n{n}.p50_us"] = statistics.median(ds) * 1e6
                out[f"{name}.n{n}.max_us"] = max(ds) * 1e6
        elif name == "paths.count_weighted":
            for i in idxs:
                key = f"{name}.n{tags[i]}.s"
                out[key] = out.get(key, 0.0) + dur[i]
        elif name == "paths.parse_path":
            out[f"{name}.p50_us"] = statistics.median(dur[i] for i in idxs) * 1e6
        elif name == "cli.main":
            out[f"{name}.self_p50_us"] = statistics.median(own[i] for i in idxs) * 1e6
        elif name.startswith("verify."):
            out[f"{name}.elapsed_s"] = sum(dur[i] for i in idxs)
        if any(i in recorder.items for i in idxs):
            out[f"{name}.items"] = sum(recorder.items[i] for i in idxs)
    for r in reports or ():
        out[f"verify.{r.suite}.checked"] = r.checked
    for mod, total in module_self.items():
        out[f"{mod}.self_s"] = total
    out.update(cache_stats(pkg))
    out["trace.wall_s"] = wall_traced
    out["trace.untraced_wall_s"] = wall_untraced
    out["trace.overhead_frac"] = wall_traced / wall_untraced - 1  # on the same parts
    out["trace.spans"] = len(dur)
    return out


def tracked(full: dict[str, float]) -> dict[str, dict]:
    """The BENCHMARK.json per-layer metrics; a layer a workload never
    reaches made no calls, so its counts are 0."""
    return {name: {"value": full.get(name, 0), "unit": unit} for name, unit in TRACKED}
