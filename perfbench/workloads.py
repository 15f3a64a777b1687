"""The benchmark's workloads.

Each workload has a fixed unit of work.  `prepare` builds the unit's inputs
from the seed (this is part of set-up), `run_unit` executes the unit, or
the parts of it named by `keys`, and times each part; the workload's
scaled_wall_s is the sum of the part times, each scaled to the reference
host speed.  `run_unit` calls `between()` once after each part, outside its
timing, and returns the part times in the order the parts ran, so the
harness can sample the host's speed and time a set-up there.  `check`
verifies the outputs afterwards, outside every timed section; it only looks
at the outputs, so the self-test can feed it deliberately wrong ones.  It
returns the number of checks attempted and a list of failure messages.  `late_check` runs checks that
need the program run again, after peak RSS has been read.  `trace_plan`
names the parts of the traced pass and of the untraced pass it is compared
with (None: the whole unit).  `min_passes` is the fewest passes a run
makes, whatever its --seconds.
"""

from __future__ import annotations

import io
import random
import sys
import time
from bisect import bisect_left
from math import factorial

from inputs import roundtrip_inputs

_clock = time.perf_counter


def _nothing() -> None:
    pass


def closed_form(n: int) -> int:
    """2(3n)! / (n! (n+1)! (n+2)!), the three-dimensional Catalan number."""
    return 2 * factorial(3 * n) // (factorial(n) * factorial(n + 1) * factorial(n + 2))


def run_cli(cli, argv: list[str]) -> tuple[int, str, float]:
    """Call cli.main in-process with stdout captured; (exit code, stdout, seconds)."""
    buf = io.StringIO()
    saved = sys.stdout
    sys.stdout = buf
    try:
        t0 = _clock()
        rc = cli.main(argv)
        dt = _clock() - t0
    finally:
        sys.stdout = saved
    return rc, buf.getvalue(), dt


class _Discard:
    """Stands in for stdout during a timed enumeration; keeps nothing."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


class LineCheck(_Discard):
    """Stands in for stdout during a checked enumeration.  Checks each line
    as it arrives, keeping only the line count and the previous line's key:
    strictly increasing keys are in canonical order and have no repeats."""

    def __init__(self, key) -> None:
        self.key = key
        self.count = 0
        self.unparsable = 0
        self.disorder = 0
        self._prev = None
        self._partial = ""

    def write(self, text: str) -> int:
        *lines, self._partial = (self._partial + text).split("\n")
        for line in lines:
            self.take(line)
        return len(text)

    def take(self, line: str) -> None:
        self.count += 1
        try:
            key = self.key(line)
        except ValueError:
            self.unparsable += 1
            return
        if self._prev is not None and not self._prev < key:
            self.disorder += 1
        self._prev = key


# -- independent oracles used by the checks --------------------------------

def is_up_down(p: list[int]) -> bool:
    return all((p[i] < p[i + 1]) == (i % 2 == 0) for i in range(len(p) - 1))


def longest_increasing(p: list[int]) -> int:
    tails: list[int] = []
    for v in p:
        j = bisect_left(tails, v)
        if j == len(tails):
            tails.append(v)
        else:
            tails[j] = v
    return len(tails)


def rise_positions(steps: str) -> list[int]:
    return [i for i, s in enumerate(steps, start=1) if s == "U"]


class Workload:
    name = ""
    # Each part counts at its fastest over the passes.  A count-enumerate
    # pass takes 8 to 12 s.  With two passes instead of three, the quartile
    # spread of its scaled_wall_s over eight runs rose from 0.06-0.07 to 0.12.
    min_passes = 3

    def prepare(self, seed: int, pkg):
        return None  # fixed inputs: the seed has nothing to draw

    def trace_plan(self, pkg) -> tuple:
        return None, None

    def late_check(self, pkg) -> tuple[int, list[str]]:
        return 0, []


# -- gate -------------------------------------------------------------------

class Gate(Workload):
    """verify.run_all() at the default caps, the acceptance gate itself,
    run as run_all runs it: each suite of verify.SUITES at its default cap.
    The gate is exhaustive, so it has no sampled inputs."""

    name = "gate"
    min_passes = 1  # one pass takes about a minute

    def run_unit(self, pkg, inputs, keys=None, between=_nothing) -> dict:
        parts = {}
        reports = []
        for suite in pkg.verify.SUITES if keys is None else keys:
            t0 = _clock()
            reports.append(pkg.verify.run_suite(suite))
            parts[suite] = _clock() - t0
            between()
        return {"wall": sum(parts.values()), "parts": parts, "reports": reports}

    def trace_plan(self, pkg) -> tuple:
        """The traced pass runs every suite, `roundtrip` last; the untraced
        pass it is compared with runs the others in the same order.  Leaving
        out `roundtrip`, about half the gate, keeps a traced run well inside
        its time limit; running it last keeps the caches it fills from
        slowing the suites that are compared."""
        others = tuple(s for s in pkg.verify.SUITES if s != "roundtrip")
        return others + ("roundtrip",), others

    def check(self, result: dict) -> tuple[int, list[str]]:
        failures = [f"suite {r.suite}: verdict {r.verdict}, {len(r.failures)} failures"
                    for r in result["reports"] if r.verdict != "pass"]
        return len(result["reports"]), failures


# -- roundtrip-large --------------------------------------------------------

class RoundtripLarge(Workload):
    """Random paths beyond the exhaustive range, each through in-process
    `map` and then `invert`, one CLI call at a time.  Its parts are the
    round trips.

    The paths are drawn once, from `corpus_seed`, and the run's seed only
    shuffles their order.  The search inverse's time at n = 14 is so
    heavy-tailed (one path in a few hundred takes 30 times the mean) that
    the sum over paths drawn afresh from each seed would differ from seed
    to seed by more than any bound the benchmark may set."""

    name = "roundtrip-large"
    sizes = (8, 10, 12, 14)
    per_kind = 32     # irreducible and reducible paths per n
    corpus_seed = 0

    def prepare(self, seed: int, pkg) -> list[tuple[int, str]]:
        inputs = roundtrip_inputs(self.corpus_seed, self.sizes, self.per_kind)
        random.Random(seed).shuffle(inputs)
        for _, text in inputs:
            pkg.paths.parse_path(text)  # raises on an invalid input
        return inputs

    def run_unit(self, pkg, inputs, keys=None, between=_nothing) -> dict:
        cli = pkg.cli
        parts: dict[int, float] = {}
        map_s: dict[int, float] = {}
        invert_s: dict[int, float] = {}
        outputs = []
        for i in range(len(inputs)) if keys is None else keys:
            n, text = inputs[i]
            rc_map, image, map_s[i] = run_cli(cli, ["map", text])
            image = image.rstrip("\n")
            rc_inv, back, invert_s[i] = run_cli(cli, ["invert", image])
            parts[i] = map_s[i] + invert_s[i]
            outputs.append((n, text, rc_map, image, rc_inv, back))
            between()
        return {"wall": sum(parts.values()), "parts": parts,
                "map_s": map_s, "invert_s": invert_s, "outputs": outputs}

    def check(self, result: dict) -> tuple[int, list[str]]:
        attempted = 0
        failures: list[str] = []
        for n, text, rc_map, image, rc_inv, back in result["outputs"]:
            attempted += 3
            if rc_inv != 0 or back != text + "\n":
                failures.append(f"invert({image!r}) gave {back!r} (exit {rc_inv}), "
                                f"expected {text!r}")
            try:
                p = [int(tok) for tok in image.split(",")] if rc_map == 0 else None
            except ValueError:
                p = None
            if p is None:
                failures.append(f"map({text!r}) gave {image!r} (exit {rc_map})")
                failures.append(f"map({text!r}): no image to read bottom letters from")
                continue
            if (sorted(p) != list(range(1, 2 * n + 1)) or not is_up_down(p)
                    or longest_increasing(p) > 3):
                failures.append(f"map({text!r}) = {image}: not an up-down "
                                f"1234-avoiding permutation of 1..{2 * n}")
            steps = text.partition(";")[0]
            if sorted(p[0::2]) != rise_positions(steps):
                failures.append(f"map({text!r}) = {image}: bottom letters are not "
                                f"the rise positions")
        return attempted, failures


# -- count-enumerate --------------------------------------------------------

def _wd_key(line: str) -> tuple:
    steps, _, weights = line.partition(";")
    return steps.replace("U", "0").replace("D", "1"), tuple(map(int, weights.split(",")))


def _perm_key(line: str) -> tuple:
    return tuple(map(int, line.split(",")))


class CountEnumerate(Workload):
    """count_weighted(n) for n = 0..11, then both families at n = 6 streamed
    through `enumerate` into a sink that discards them.  Never calls the
    bijection.  The enumerations are checked in a late run of their own, so
    that neither the check nor the lines count in scaled_wall_s or peak RSS."""

    name = "count-enumerate"
    count_ns = tuple(range(12))
    enum_n = 6
    families = (("wd", _wd_key), ("perm", _perm_key))

    def enumerate(self, pkg, family: str, sink) -> int:
        """`dyckperm enumerate` of one family, written to `sink`; the exit code."""
        saved = sys.stdout
        sys.stdout = sink
        try:
            return pkg.cli.main(["enumerate", "--family", family, "--n", str(self.enum_n)])
        finally:
            sys.stdout = saved

    def run_unit(self, pkg, inputs, keys=None, between=_nothing) -> dict:
        parts = {}
        counts = []
        for n in self.count_ns:
            t0 = _clock()
            counts.append(pkg.paths.count_weighted(n))
            parts[f"count{n}"] = _clock() - t0
            between()
        exits = {}
        for family, _ in self.families:
            t0 = _clock()
            exits[family] = self.enumerate(pkg, family, _Discard())
            parts[family] = _clock() - t0
            between()
        return {"wall": sum(parts.values()), "parts": parts, "counts": counts,
                "exits": exits, "reference": tuple(pkg.verify.REFERENCE_COUNTS)}

    def check(self, result: dict) -> tuple[int, list[str]]:
        attempted = 0
        failures: list[str] = []
        reference = result["reference"]
        for n, got in zip(self.count_ns, result["counts"]):
            attempted += 1
            want = closed_form(n)
            if got != want or (n < len(reference) and got != reference[n]):
                failures.append(f"count_weighted({n}) = {got}, closed form {want}")
        for family, rc in result["exits"].items():
            attempted += 1
            if rc != 0:
                failures.append(f"enumerate {family}: exit {rc}")
        return attempted, failures

    def late_check(self, pkg) -> tuple[int, list[str]]:
        sinks = {}
        for family, key in self.families:
            sinks[family] = LineCheck(key)
            self.enumerate(pkg, family, sinks[family])
        return self.check_lines(sinks)

    def check_lines(self, sinks: dict) -> tuple[int, list[str]]:
        """Two checks per family: the line count, and that every line parses
        and comes after the one before it."""
        expected = closed_form(self.enum_n)
        failures: list[str] = []
        for family, sink in sinks.items():
            if sink.count != expected:
                failures.append(f"enumerate {family}: {sink.count} lines, expected {expected}")
            if sink.unparsable or sink.disorder:
                failures.append(f"enumerate {family}: {sink.unparsable} unparsable lines, "
                                f"{sink.disorder} out of canonical order or repeated")
        return 2 * len(sinks), failures


WORKLOADS = {w.name: w for w in (Gate(), RoundtripLarge(), CountEnumerate())}
