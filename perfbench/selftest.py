#!/usr/bin/env python3
"""Self-test of the benchmark's own code; exits non-zero on any failure.

    python3 perfbench/selftest.py

Checks that one seed gives byte-identical inputs in two processes, that the
generator is uniform and valid, that the span recorder computes self time
and charges generators only for next(), that wrong outputs injected here
make failed_frac non-zero, that part times are scaled by the reference
samples around them, and that BENCHMARK.json names exactly the metrics the
benchmark reports.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
from inputs import random_dyck_word, roundtrip_inputs  # noqa: E402
from layers import SUITES, TRACKED  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import (WORKLOADS, CountEnumerate, Gate, LineCheck,  # noqa: E402
                       RoundtripLarge, run_cli)

FAILED: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILED.append(what)


def inputs_bytes(seed: int) -> bytes:
    """The roundtrip-large inputs of one seed, made in a new process."""
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import run; "
            "sys.path.insert(0, str(run.SRC)); from workloads import RoundtripLarge; "
            "print(json.dumps(RoundtripLarge().prepare(int(sys.argv[2]), run.fresh_import())))")
    return subprocess.run([sys.executable, "-c", code, str(HERE), str(seed)],
                          capture_output=True, check=True).stdout


def test_inputs(pkg) -> None:
    a, b, c = inputs_bytes(7), inputs_bytes(7), inputs_bytes(8)
    expect(a == b and len(a) > 1000, "one seed gives byte-identical inputs in two processes")
    expect(a != c and sorted(json.loads(a)) == sorted(json.loads(c)),
           "another seed gives the same paths in another order")
    expect(roundtrip_inputs(7, (8,), 4) != roundtrip_inputs(8, (8,), 4),
           "the generator draws other paths from another seed")

    rng = random.Random(0)
    counts = Counter(random_dyck_word(rng, 3) for _ in range(5000))
    expect(len(counts) == 5 and min(counts.values()) > 850,
           f"cycle lemma draws the 5 Dyck words of semilength 3 evenly: {dict(counts)}")

    inputs = roundtrip_inputs(3, (8, 10, 12, 14), 4)
    sizes = Counter(n for n, _ in inputs)
    factors = Counter((n, len(pkg.paths.factor_irreducible(pkg.paths.parse_path(t))) > 1)
                      for n, t in inputs)
    expect(all(pkg.paths.parse_path(t).n == n for n, t in inputs),
           "every generated path parses and has the requested semilength")
    expect(set(sizes.values()) == {8} and set(factors.values()) == {4} and len(factors) == 8,
           "each n gets 4 irreducible and 4 reducible paths")


def test_spans() -> None:
    rec = SpanRecorder()

    def leaf():
        time.sleep(0.02)

    def gen():
        for i in range(3):
            time.sleep(0.005)
            yield i

    leaf_t = rec.wrap_call(leaf, "leaf")

    def outer():
        time.sleep(0.01)
        leaf_t()

    outer_t = rec.wrap_call(outer, "outer")
    gen_t = rec.wrap_generator(gen, "gen")
    outer_t()
    for _ in gen_t():
        time.sleep(0.03)  # consumer body: must not be charged to the generator
    own = rec.self_times()
    spans = rec.by_name()
    o, l_, g = spans["outer"][0], spans["leaf"][0], spans["gen"][0]
    expect(rec.parent[l_] == o, "a nested call records its parent")
    expect(0.009 < own[o] < 0.018 and own[l_] > 0.019,
           f"self time excludes children: outer {own[o]:.4f}, leaf {own[l_]:.4f}")
    expect(0.014 < rec.dur[g] < 0.05 and rec.items[g] == 3,
           f"a generator is charged only for next(): {rec.dur[g]:.4f} s, {rec.items[g]} items")


def test_host_speed() -> None:
    """With a reference task that sleeps 20 ms, the host runs at half the
    reference speed, so scaled times are half the measured ones."""
    saved = hostspeed.reference_task
    hostspeed.reference_task = lambda: time.sleep(0.02)
    try:
        host = hostspeed.HostSpeed()
        host.part_done()
        host.part_done()
        scaled = host.scaled({"a": 1.0, "b": 3.0})
        expect(len(host.samples) == 2, "a pass ends with a reference sample")
        expect(0.4 < scaled["a"] <= 0.5 and 1.2 < scaled["b"] <= 1.5,
               f"part times are scaled by the samples around them: {scaled}")
        host.part_done()
        try:
            host.scaled({})
            expect(False, "scaling fewer part times than parts done raises")
        except ValueError:
            expect(True, "scaling fewer part times than parts done raises")
    finally:
        hostspeed.reference_task = saved


def injected_failed_frac(workload, corrupt, pkg, inputs) -> float:
    """failed_frac of one unit whose outputs `corrupt` damages."""
    class Damaged(type(workload)):
        def run_unit(self, pkg, inputs, keys=None, **between):
            result = super().run_unit(pkg, inputs, keys, **between)
            corrupt(result)
            return result

    damaged = Damaged()
    for attr, value in vars(workload).items():
        setattr(damaged, attr, value)
    tally = {"attempted": 0, "failures": []}
    run.run_checked(damaged, pkg, inputs, tally)
    return len(tally["failures"]) / tally["attempted"]


def test_checks(pkg) -> None:
    rt = RoundtripLarge()
    rt.sizes, rt.per_kind = (8,), 2
    rt_inputs = rt.prepare(1, pkg)
    ce = CountEnumerate()
    ce.count_ns, ce.enum_n = tuple(range(8)), 4

    def fail_suite(result):
        report = result["reports"][0]
        result["reports"][0] = type(report)(report.suite, report.n_range, report.checked,
                                            ({"input": "x"},), report.elapsed)

    cases = [
        (rt, rt_inputs, lambda r: None, False, "roundtrip-large, true outputs"),
        (rt, rt_inputs, lambda r: r["outputs"].__setitem__(
            0, r["outputs"][0][:5] + ("UD;0,0\n",)), True, "roundtrip-large, wrong invert output"),
        (rt, rt_inputs, lambda r: r["outputs"].__setitem__(
            1, r["outputs"][1][:3] + ("2,1,3,4",) + r["outputs"][1][4:]), True,
         "roundtrip-large, wrong map output"),
        (ce, None, lambda r: None, False, "count-enumerate, true outputs"),
        (ce, None, lambda r: r["counts"].__setitem__(5, 6005), True, "count-enumerate, wrong count"),
        (ce, None, lambda r: r["exits"].__setitem__("wd", 1), True,
         "count-enumerate, failed enumeration"),
    ]
    for workload, inputs, corrupt, should_fail, what in cases:
        frac = injected_failed_frac(workload, corrupt, pkg, inputs)
        expect((frac > 0) == should_fail, f"{what}: failed_frac {frac:.4f}")

    # the enumerations are checked as they stream, in the late check
    attempted, failures = ce.late_check(pkg)
    expect(attempted == 4 and not failures, "count-enumerate late check, true outputs")
    lines = {family: run_cli(pkg.cli, ["enumerate", "--family", family, "--n", "4"])[1]
             .splitlines(keepends=True) for family, _ in ce.families}

    def late_failures(damage) -> int:
        sinks = {}
        for family, key in ce.families:
            sinks[family] = LineCheck(key)
            for line in damage(list(lines[family])) if family == "perm" else lines[family]:
                sinks[family].write(line)
        return len(ce.check_lines(sinks)[1])

    def swap(ls):
        ls[0], ls[1] = ls[1], ls[0]
        return ls

    expect(late_failures(lambda ls: ls) == 0, "count-enumerate late check, replayed outputs")
    expect(late_failures(swap) == 1, "count-enumerate late check, lines out of order")
    expect(late_failures(lambda ls: ls + ls[-1:]) == 2,
           "count-enumerate late check, a repeated line")
    expect(late_failures(lambda ls: ls[:-1]) == 1, "count-enumerate late check, a missing line")

    # the gate's check only reads the reports, so a failed verdict is enough
    gate = Gate()
    reports = [pkg.verify.run_suite("parking", 3), pkg.verify.run_suite("counts", 2)]
    attempted, failures = gate.check({"reports": reports})
    expect(attempted == 2 and not failures, "gate, passing reports")
    result = {"reports": list(reports)}
    fail_suite(result)
    attempted, failures = gate.check(result)
    expect(len(failures) == 1, "gate, one failing report: failed_frac 1/2")


def test_benchmark_json(pkg) -> None:
    expect(tuple(pkg.verify.SUITES) == SUITES, "layers.SUITES lists the package's verify suites")
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    expect(per_layer == list(TRACKED), "BENCHMARK.json per_layer matches layers.TRACKED")
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
           "BENCHMARK.json workloads match the benchmark's")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect(e2e == run.END_TO_END, "BENCHMARK.json end_to_end matches run.END_TO_END")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    pkg = run.fresh_import()
    test_inputs(pkg)
    test_spans()
    test_host_speed()
    test_checks(pkg)
    test_benchmark_json(pkg)
    print(f"{len(FAILED)} failed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    raise SystemExit(main())
