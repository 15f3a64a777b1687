#!/usr/bin/env python3
"""dyckperm benchmark: one workload per process, serial, cold caches.

    python3 perfbench/run.py --workload gate --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  The first stdout line is an environment header, the last one the
result object.  With --trace 0 the result holds the end-to-end metrics;
with --trace 1 it holds the per-layer metrics of BENCHMARK.json, and the
line before it every per-layer figure the traced run produced.  Spans and
the full per-layer report are also written to perfbench/out/.

A run repeats its workload's fixed unit of work, each time with emptied
caches, until --seconds have passed and at least the workload's min_passes
times.  Each timed part of the unit is scaled to a reference host speed
(hostspeed.py) and counts at its fastest over these passes; set-up counts
at its fastest over several set-ups.  See perfbench/README.md for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_EVERY = 2.0   # seconds between set-ups timed between parts, until
SETUP_REPEATS = 20  # there are this many in all
END_TO_END = {"setup_s": "s", "scaled_wall_s": "s", "peak_rss_mb": "MB"}
TIMINGS = ("wall", "parts", "map_s", "invert_s", "reports")

sys.path.insert(0, str(HERE))

from hostspeed import HostSpeed  # noqa: E402
from layers import clear_caches, install, report, tracked  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

_clock = time.perf_counter


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        rev = proc.stdout.strip() or rev
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "git_rev": rev, "seed": seed}


def _package_modules() -> dict:
    return {k: m for k, m in sys.modules.items() if k == "dyckperm" or k.startswith("dyckperm.")}


def fresh_import() -> types.SimpleNamespace:
    """Import the package from scratch, dropping any earlier import."""
    for name in _package_modules():
        del sys.modules[name]
    import dyckperm.cli  # noqa: F401

    pkg = sys.modules["dyckperm"]
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"dyckperm was imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(**{m: sys.modules[f"dyckperm.{m}"]
                                    for m in ("paths", "perms", "bijection", "verify", "cli")})


def set_up(workload, seed: int):
    """Import the package and make the workload's inputs: (package, inputs, seconds)."""
    t0 = _clock()
    pkg = fresh_import()
    inputs = workload.prepare(seed, pkg)
    return pkg, inputs, _clock() - t0


def set_up_in_child(workload, seed: int) -> float:
    """Time one more set-up, in a new interpreter, so that its memory does
    not count in this process's peak RSS."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
            "sys.path.insert(0, str(run.SRC)); "
            "print(run.set_up(run.WORKLOADS[sys.argv[2]], int(sys.argv[3]))[2])")
    proc = subprocess.run([sys.executable, "-c", code, str(HERE), workload.name, str(seed)],
                          capture_output=True, text=True, check=True)
    return float(proc.stdout)


def run_checked(workload, pkg, inputs, tally: dict, keys=None, **between) -> dict:
    clear_caches()
    result = workload.run_unit(pkg, inputs, keys, **between)
    attempted, failures = workload.check(result)
    tally["attempted"] += attempted
    tally["failures"].extend(failures)
    # drop the checked outputs, so later passes do not run with more memory
    return {k: v for k, v in result.items() if k in TIMINGS}


def keep_fastest(best: dict, times: dict) -> None:
    for key, t in times.items():
        if t < best.get(key, float("inf")):
            best[key] = t


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(workload, pkg, inputs, seed: int, seconds: float, tally: dict,
               setups: list[float]) -> tuple[dict, dict]:
    """Repeat the unit for `seconds`, and at least `workload.min_passes`
    times.  Each timed part counts at its fastest over the passes, scaled to
    the reference host speed; each CLI call counts at its fastest, unscaled.
    Set-up counts at its fastest too, over set-ups timed between parts
    throughout the run: the gate's single pass takes a minute."""
    best: dict = {}
    raw: dict = {}
    calls: dict[str, dict] = {"map": {}, "invert": {}}
    passes = 0
    start = next_setup = _clock()
    host = HostSpeed()

    def between() -> None:
        nonlocal next_setup
        host.part_done()
        if len(setups) < SETUP_REPEATS and _clock() >= next_setup:
            setups.append(set_up_in_child(workload, seed))
            next_setup = _clock() + SETUP_EVERY

    while True:
        result = run_checked(workload, pkg, inputs, tally, between=between)
        passes += 1
        keep_fastest(best, host.scaled(result["parts"]))
        keep_fastest(raw, result["parts"])
        for call, fastest in calls.items():
            keep_fastest(fastest, result.get(f"{call}_s", {}))
        if _clock() - start >= seconds and passes >= workload.min_passes:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(set_up_in_child(workload, seed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {"scaled_wall_s": sum(best.values()), "peak_rss_mb": peak_rss_mb,
               "setup_s": min(setups)}
    info = {"passes": passes, "parts": len(best), "setups": len(setups),
            "wall_s": sum(raw.values()), "host_speed": host.factor(),
            "host_samples": len(host.samples)}
    # CLI latencies are reported beside the metrics: the other workloads
    # make no map or invert calls, and every metric must be on every workload
    for call, fastest in calls.items():
        if fastest:
            lat = [t * 1e3 for t in fastest.values()]
            info[f"{call}_p50_ms"] = statistics.median(lat)
            info[f"{call}_p95_ms"] = percentile(lat, 95)
            info[f"{call}_samples"] = len(lat)
    return metrics, info


def traced(workload, pkg, inputs, seed: int, tally: dict) -> dict:
    """One untraced and one traced pass; every per-layer figure, by name."""
    keys, reference = workload.trace_plan(pkg)
    untraced = run_checked(workload, pkg, inputs, tally, reference or keys)
    recorder = SpanRecorder()
    install(recorder, pkg)
    try:
        result = run_checked(workload, pkg, inputs, tally, keys)
    finally:
        recorder.uninstall()
    # the overhead compares the same parts, traced and untraced
    same = sum(result["parts"][k] for k in untraced["parts"])
    full = report(recorder, pkg, result.get("reports"), untraced["wall"], same)
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{seed}"
    recorder.write_tsv(OUT / f"spans-{stem}.tsv.gz")
    (OUT / f"layers-{stem}.json").write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")
    return full


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dyckperm" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    print(json.dumps({"env": environment(args.seed), "workload": workload.name}), flush=True)

    pkg, inputs, setup_s = set_up(workload, args.seed)
    setups = [setup_s]
    tally = {"attempted": 0, "failures": []}
    if args.trace:
        full = traced(workload, pkg, inputs, args.seed, tally)
    else:
        e2e, info = end_to_end(workload, pkg, inputs, args.seed, args.seconds, tally, setups)
    # checks that run the program again, after peak RSS has been read
    attempted, failures = workload.late_check(pkg)
    tally["attempted"] += attempted
    tally["failures"].extend(failures)
    failed = len(tally["failures"])
    if args.trace:
        print(json.dumps({"per_layer": full}, sort_keys=True))
        metrics = tracked(full)
    else:
        info["failed_frac"] = failed / tally["attempted"]
        info["failed_frac_base"] = tally["attempted"]
        print(json.dumps({"info": info}))
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    for msg in tally["failures"][:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": tally["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
