"""Executable property suites.

Each suite turns one structural claim about the bijection into an
exhaustive pass/fail check over all instances up to a size cap, reporting
counterexamples in the canonical text serializations so that any failure
can be replayed through the CLI.  Running every suite at the default caps
is the package's acceptance gate.
"""

from __future__ import annotations

import itertools
import time
from bisect import bisect_left
from dataclasses import dataclass
from math import factorial
from typing import Iterator, Optional

# the kernel is read through its module, so a fault patched into it reaches
# the suites too
from . import _insertion
from .bijection import (
    SPLIT_CEIL,
    InternalConsistencyError,
    ParkingFunction,
    from_permutation,
    parking_to_123_avoiding,
    to_permutation,
)
from .paths import (
    DOWN,
    UP,
    DyckPath,
    WeightedDyckPath,
    _dyck_words,
    _reflected_steps,
    _runs,
    _step_rows,
    concat,
    enumerate_weighted,
    enumerate_weightings,
    count_weighted,
    factor_spans,
    heights,
    reflect,
    serialize_path,
)
from .perms import (
    _criteria_verdict,
    avoids_123_word,
    avoids_1234,
    enumerate_updown_avoiders,
    perm_text,
    schutzenberger,
    schutzenberger_word,
    shifted_concat,
    standardize,
)

SUITES = (
    "counts",
    "bijectivity",
    "roundtrip",
    "schutzenberger",
    "product",
    "statistic",
    "criteria",
    "insertion_lemma",
    "transformation",
    "parking",
    "topword_equivalence",
)

DEFAULT_CAPS = {
    "counts": 6,
    "bijectivity": 6,
    "roundtrip": 6,
    "statistic": 6,
    "schutzenberger": 5,
    "product": 5,
    "criteria": 5,  # permutations of size up to 2*5 = 10
    "parking": 8,
    "transformation": 6,
    "insertion_lemma": 6,
    "topword_equivalence": 5,
}

# Three-dimensional Catalan numbers (OEIS A005789): the common size of both
# families, embedded so no lookup is ever needed.
REFERENCE_COUNTS = (1, 1, 5, 42, 462, 6006, 87516, 1385670)

# Euler zigzag numbers E_0, E_2, ..., E_10 (OEIS A000364): the up-down
# permutations of each even size up to the criteria suite's default 10.
EULER_ZIGZAG = (1, 1, 5, 61, 1385, 50521)

# Catalan numbers: non-decreasing parking functions of length n and
# 123-avoiding permutations of size n.
CATALAN = (1, 1, 2, 5, 14, 42, 132, 429, 1430)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one suite: sizes covered, instances checked, failures."""

    suite: str
    n_range: tuple[int, int]
    checked: int
    failures: tuple[dict, ...]
    elapsed: float

    @property
    def verdict(self) -> str:
        return "pass" if not self.failures else "fail"

    def to_record(self) -> dict:
        return {
            "suite": self.suite,
            "nRange": list(self.n_range),
            "checked": self.checked,
            "failures": list(self.failures),
            "verdict": self.verdict,
            "elapsed": round(self.elapsed, 3),
        }


def _fail(input_text: str, expected: str, actual: str) -> dict:
    return {"input": input_text, "expected": expected, "actual": actual}


def _irreducible_words(n: int) -> Iterator[str]:
    """The Dyck words of semilength n with at most one factor, in order."""
    return (word for word in _dyck_words(n) if len(factor_spans(word)) <= 1)


def _irreducible(n: int) -> Iterator[WeightedDyckPath]:
    """The irreducible paths of semilength n, in `enumerate_weighted`
    order: the weightings of each Dyck word with at most one factor."""
    for word in _irreducible_words(n):
        yield from enumerate_weightings(DyckPath(word))


def _word_images(word: str, rule: str
                 ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(weights, image) for each weighting of one Dyck word, in
    `enumerate_weighted` order, read from `_image_table`, so each path is
    mapped forward once per process however many suites read it.  A word
    two of whose weightings share an image, which happens under the floor
    split, has no table; its paths are mapped one by one instead."""
    try:
        table = _insertion._image_table(word, rule)
    except InternalConsistencyError:
        for wd in enumerate_weightings(DyckPath(word)):
            yield wd.weights, to_permutation(wd, rule).perm
        return
    for perm, weights in table.items():
        yield weights, perm


def _path_text(word: str, weights: tuple[int, ...]) -> str:
    return serialize_path(WeightedDyckPath(DyckPath(word), weights))


def top_word_direct(wd: WeightedDyckPath, rule: str = SPLIT_CEIL) -> tuple[int, ...]:
    """Top word computed by scanning the falls directly, right to left.

    The down slopes are processed from the right with the left/right roles
    swapped (the rightmost half of the down slopes uses the minimality
    rule), insertion distances are measured from the left, and jumping
    elements go to the right end.  Must equal the reflected-path
    construction used by the forward map.
    """
    w = wd.weights
    h = heights(wd)
    m = len(wd)
    runs = [r for r in _runs(wd.path.steps) if r.kind == DOWN]
    cut = _insertion._left_count(len(runs), rule)
    word: list[int] = []
    falls_right = 0  # falls strictly right of the slope
    # the s-th down slope from the right takes the s-th up slope's half
    for s, run in enumerate(reversed(runs)):
        length = run.length
        end = run.start + length - 1
        shift = (m - end) - falls_right  # rises strictly right of the slope
        falls_right += length
        minimal = s < cut
        for off in range(length):
            pos = end - off  # bottom-up within the slope
            wu = w[pos - 1]
            lower = h[pos]
            if minimal:
                if off > 0:
                    bound = w[pos]  # fall just below on the same slope
                elif pos == m:
                    bound = 0
                else:
                    # valley after the slope: rise weight e caps the minimum
                    bound = h[pos] - w[pos]
                jumped = wu == bound
                dist = wu + shift - 1
            else:
                if off < length - 1:
                    bound = min(lower, w[pos - 2])  # fall just above
                else:
                    # peak atop the slope: rise weight e caps the maximum
                    bound = min(lower, h[pos - 1] - w[pos - 2])
                jumped = wu == bound
                dist = wu + shift
            if jumped:
                word.append(pos)
            else:
                word.insert(dist, pos)
    return tuple(word)


def _suite_counts(cap: int, rule: str) -> tuple[int, list[dict]]:
    checked = 0
    failures: list[dict] = []
    for n in range(cap + 1):
        ref = REFERENCE_COUNTS[n] if n < len(REFERENCE_COUNTS) else None
        got = count_weighted(n)
        checked += 1
        if ref is not None and got != ref:
            failures.append(_fail(f"weighted paths, n={n}", str(ref), str(got)))
        perm_count = sum(1 for _ in enumerate_updown_avoiders(n))
        checked += 1
        if ref is not None and perm_count != ref:
            failures.append(_fail(f"up-down avoiders, n={n}", str(ref), str(perm_count)))
        if got != perm_count:
            failures.append(_fail(f"family sizes, n={n}", str(got), str(perm_count)))
    return checked, failures


def _suite_bijectivity(cap: int, rule: str) -> tuple[int, list[dict]]:
    """Images come from `_word_images`; a word whose forward map raises its
    guard is one failure, and its later paths are not checked.  The
    avoiders are streamed in lexicographic order and each hit leaves
    `seen`, so the misses come out sorted and what stays in `seen` is the
    images outside the family."""
    checked = 0
    failures: list[dict] = []
    for n in range(cap + 1):
        seen: dict[tuple[int, ...], tuple[str, tuple[int, ...]]] = {}
        for word in _dyck_words(n):
            try:
                for weights, perm in _word_images(word, rule):
                    checked += 1
                    if perm in seen:
                        failures.append(_fail(
                            _path_text(word, weights),
                            "a fresh image",
                            f"{perm_text(perm)} already hit by {_path_text(*seen[perm])}",
                        ))
                    else:
                        seen[perm] = (word, weights)
            except InternalConsistencyError as exc:
                failures.append(_fail(word, "an image for every weighting", str(exc)))
        for perm in enumerate_updown_avoiders(n):
            checked += 1
            if seen.pop(perm, None) is None:
                failures.append(_fail(perm_text(perm), "hit by some weighted path", "missed"))
        for perm in sorted(seen):
            failures.append(_fail(
                _path_text(*seen[perm]),
                "an up-down permutation avoiding 1234",
                perm_text(perm),
            ))
    return checked, failures


def _suite_roundtrip(cap: int, rule: str) -> tuple[int, list[dict]]:
    """Each path's image comes from `_image_table`, the brute-force
    oracle's table of one Dyck word, so each path is mapped forward once.
    `from_permutation` runs the membership checks on the image; the
    oracle's half then reads the table of the word the image's bottom
    letters mark, without checking the image again.  A word two of whose
    weightings share an image is one failure, and its paths are not
    checked.  A path's text is built only for a failure."""
    checked = 0
    failures: list[dict] = []
    for n in range(cap + 1):
        for word in _dyck_words(n):
            try:
                table = _insertion._image_table(word, rule)
            except InternalConsistencyError as exc:
                failures.append(_fail(word, "weightings with distinct images", str(exc)))
                continue
            for sigma, weights in table.items():
                checked += 1
                try:
                    back = from_permutation(sigma, rule)
                except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
                    failures.append(_fail(_path_text(word, weights), "inverse succeeds",
                                          f"{type(exc).__name__}: {exc}"))
                    continue
                if (back.path.steps, back.weights) != (word, weights):
                    text = _path_text(word, weights)
                    failures.append(_fail(text, text, serialize_path(back)))
                bottom = _insertion._bottom_word(sigma)
                brute = _insertion._brute_weights(sigma, bottom, rule)
                if (bottom, brute) != (word, weights):
                    text = _path_text(word, weights)
                    failures.append(_fail(text, text,
                                          f"brute: {_path_text(bottom, brute)}"))
    return checked, failures


def _suite_schutzenberger(cap: int, rule: str) -> tuple[int, list[dict]]:
    """A path whose forward map, or its mirror's, raises its guard is one
    failure, and the suite goes on with the next path."""
    checked = 0
    failures: list[dict] = []
    for n in range(cap + 1):
        for wd in enumerate_weighted(n):
            checked += 1
            try:
                lhs = to_permutation(reflect(wd), rule).perm
                rhs = schutzenberger(to_permutation(wd, rule).perm)
            except InternalConsistencyError as exc:
                failures.append(_fail(serialize_path(wd), "an image of the path and its mirror",
                                      str(exc)))
                continue
            if lhs != rhs:
                failures.append(_fail(serialize_path(wd), perm_text(rhs), perm_text(lhs)))
    return checked, failures


def _suite_product(cap: int, rule: str) -> tuple[int, list[dict]]:
    """A path whose forward map raises its guard is one failure and is left
    out of the pairs: the map runs factor by factor, so every concatenation
    that holds the path would raise the same error."""
    checked = 0
    failures: list[dict] = []
    pools: dict[int, list[tuple[WeightedDyckPath, tuple[int, ...]]]] = {}
    for a in range(cap + 1):
        pools[a] = []
        for wd in enumerate_weighted(a):
            try:
                pools[a].append((wd, to_permutation(wd, rule).perm))
            except InternalConsistencyError as exc:
                failures.append(_fail(serialize_path(wd), "an image", str(exc)))
    for a in range(cap + 1):
        for b in range(cap + 1 - a):
            for p, p_img in pools[a]:
                for q, q_img in pools[b]:
                    checked += 1
                    lhs = to_permutation(concat(p, q), rule).perm
                    rhs = shifted_concat(q_img, p_img)
                    if lhs != rhs:
                        failures.append(_fail(
                            f"{serialize_path(p)} * {serialize_path(q)}",
                            perm_text(rhs), perm_text(lhs)))
    return checked, failures


def _suite_statistic(cap: int, rule: str) -> tuple[int, list[dict]]:
    """A word whose forward map raises its guard is one failure, as in
    `_suite_bijectivity`, and its later paths are not checked."""
    checked = 0
    failures: list[dict] = []
    for n in range(cap + 1):
        for word in _dyck_words(n):
            ups = [i for i, s in enumerate(word, start=1) if s == UP]
            try:
                for weights, perm in _word_images(word, rule):
                    checked += 1
                    bots = sorted(perm[0::2])
                    if bots != ups:
                        failures.append(_fail(_path_text(word, weights), str(ups), str(bots)))
            except InternalConsistencyError as exc:
                failures.append(_fail(word, "an image for every weighting", str(exc)))
    return checked, failures


def _up_down_perms(m: int) -> Iterator[tuple[int, ...]]:
    """Up-down permutations of size 2m (ascents at odd positions, descents
    at even ones, 1-based), lexicographically: a plain backtracker that
    tries, in increasing order, the unused letters above the last one at
    an odd position and those below it at an even one.  It knows nothing
    of the pattern 1234."""
    size = 2 * m
    prefix: list[int] = []
    unused = list(range(1, size + 1))

    def extend() -> Iterator[tuple[int, ...]]:
        if len(prefix) == size:
            yield tuple(prefix)
            return
        if not prefix:
            candidates = range(len(unused))
        elif len(prefix) % 2:
            candidates = range(bisect_left(unused, prefix[-1]), len(unused))
        else:
            candidates = range(bisect_left(unused, prefix[-1]))
        for i in candidates:
            prefix.append(unused.pop(i))
            yield from extend()
            unused.insert(i, prefix.pop())

    return extend()


def _suite_criteria(cap: int, rule: str) -> tuple[int, list[dict]]:
    """Every permutation of each even size 2m is checked: `_criteria_verdict`
    runs on all (2m)! of them, through `filter`, and the ones it accepts
    come out in lexicographic order, as `itertools.permutations` makes
    them.  The ground truth, up-down and 1234-avoiding, is a set built once
    per size: `_up_down_perms` filtered by `avoids_1234`, also in
    lexicographic order, its size checked against `EULER_ZIGZAG`.  A
    permutation is a failure exactly when it lies in one of the two
    sorted streams and not the other, so merging them yields the failures
    of a loop that compares the verdict with the ground truth on every
    permutation, in the same order, with the same text: accepted outside
    the ground set is expected False, rejected inside it expected True."""
    checked = 0
    failures: list[dict] = []
    for m in range(cap + 1):
        up_down = list(_up_down_perms(m))
        ref = EULER_ZIGZAG[m] if m < len(EULER_ZIGZAG) else None
        if ref is not None and len(up_down) != ref:
            failures.append(_fail(f"up-down permutations, size={2 * m}",
                                  str(ref), str(len(up_down))))
        ground = [p for p in up_down if avoids_1234(p)]
        checked += factorial(2 * m)
        i = 0
        for p in filter(_criteria_verdict, itertools.permutations(range(1, 2 * m + 1))):
            while i < len(ground) and ground[i] < p:
                failures.append(_fail(perm_text(ground[i]), "True", "False"))
                i += 1
            if i < len(ground) and ground[i] == p:
                i += 1
            else:
                failures.append(_fail(perm_text(p), "False", "True"))
        failures.extend(_fail(perm_text(q), "True", "False") for q in ground[i:])
    return checked, failures


def _suite_insertion_lemma(cap: int, rule: str) -> tuple[int, list[dict]]:
    """Per irreducible word, its rises and span rows are read once.  The
    feasible weights of a rise given its fixed neighbours are the
    intersection of two spans: the one its own row gives at the left
    neighbour's weight (the first step's one-entry row gives C1 alone), and
    the one the mirrored word's row gives at the right neighbour's weight,
    where that neighbour comes first, both kinds flip and the heights swap.
    Both rows include C1."""
    checked = 0
    failures: list[dict] = []
    for n in range(cap + 1):
        for word in _irreducible_words(n):
            m = len(word)
            rows = _step_rows(word)
            mirror_rows = _step_rows(_reflected_steps(word))
            infos = _insertion._up_infos(word, rule)
            for wd in enumerate_weightings(DyckPath(word)):
                checked += 1
                weights = wd.weights
                try:
                    _insertion._run_insertion(word, weights, rule, want_trace=False)
                except InternalConsistencyError as exc:
                    failures.append(_fail(serialize_path(wd), "no insertion overflow", str(exc)))
                    continue
                prev_shift = 0
                for length_before, info in enumerate(infos):
                    pos = info.pos
                    if info.shift < prev_shift:
                        failures.append(_fail(serialize_path(wd), "non-decreasing shifts",
                                              f"rise {pos}"))
                    prev_shift = info.shift
                    bound = info.row[weights[info.nb - 1]][info.end]
                    lo, hi = rows[pos - 1][weights[pos - 2] if pos >= 2 else 0]
                    if pos < m:
                        a, b = mirror_rows[m - pos][weights[pos]]
                        lo, hi = max(lo, a), min(hi, b)
                    dists = set()
                    for alt in range(lo, hi + 1):
                        if alt == bound:
                            continue
                        d = alt + info.off
                        # d < length_before: a non-jump never lands at the front,
                        # which the inverse's read-off relies on
                        if d < 0 or d >= length_before:
                            failures.append(_fail(
                                serialize_path(wd),
                                f"feasible weight {alt} of rise {pos} lands in [0,{length_before})",
                                f"distance {d}"))
                        if d < info.shift:
                            failures.append(_fail(
                                serialize_path(wd),
                                f"distance of rise {pos} at least shift {info.shift}",
                                f"distance {d}"))
                        if d in dists:
                            failures.append(_fail(
                                serialize_path(wd), f"distinct distances at rise {pos}",
                                f"repeat {d}"))
                        dists.add(d)
    return checked, failures


def _suite_transformation(cap: int, rule: str) -> tuple[int, list[dict]]:
    """One traced insertion run per path gives both the bottom word and its
    flattening (`_flatten_run`, the rule `flatten_to_single_slope` uses)."""
    checked = 0
    failures: list[dict] = []
    for n in range(cap + 1):
        for wd in _irreducible(n):
            checked += 1
            try:
                word, pf = _insertion._flatten_run(wd.path.steps, wd.weights, rule)
            except Exception as exc:  # noqa: BLE001
                failures.append(_fail(serialize_path(wd), "a valid parking function", str(exc)))
                continue
            expect = standardize(word)
            got = parking_to_123_avoiding(pf)
            if got != expect:
                failures.append(_fail(serialize_path(wd), perm_text(expect), perm_text(got)))
    return checked, failures


def _parking_functions(n: int) -> Iterator[tuple[int, ...]]:
    """Weakly increasing (v_0..v_{n-1}) with v_i <= i, lexicographically:
    an odometer that raises the last entry below its cap and resets the
    later ones to it."""
    vals = [0] * n
    while True:
        yield tuple(vals)
        i = n - 1
        while i >= 0 and vals[i] == i:
            i -= 1
        if i < 0:
            return
        vals[i] += 1
        vals[i + 1:] = [vals[i]] * (n - 1 - i)


def _suite_parking(cap: int, rule: str) -> tuple[int, list[dict]]:
    checked = 0
    failures: list[dict] = []
    for n in range(cap + 1):
        images: dict[tuple[int, ...], tuple[int, ...]] = {}
        for vals in _parking_functions(n):
            checked += 1
            word = parking_to_123_avoiding(ParkingFunction(vals))
            if not avoids_123_word(word):
                failures.append(_fail(str(list(vals)), "image avoids 123", perm_text(word)))
            if word in images:
                failures.append(_fail(
                    str(list(vals)), "a fresh image",
                    f"{perm_text(word)} already hit by {list(images[word])}"))
            images[word] = vals
        ref = CATALAN[n] if n < len(CATALAN) else None
        if ref is not None and len(images) != ref:
            failures.append(_fail(f"image count, n={n}", str(ref), str(len(images))))
    return checked, failures


def _suite_topword(cap: int, rule: str) -> tuple[int, list[dict]]:
    checked = 0
    failures: list[dict] = []
    for n in range(cap + 1):
        for wd in _irreducible(n):
            checked += 1
            raw, _ = _insertion._run_insertion(_reflected_steps(wd.path.steps),
                                               wd.weights[::-1], rule, want_trace=False)
            via_reflection = schutzenberger_word(raw, len(wd))
            direct = top_word_direct(wd, rule)
            if direct != via_reflection:
                failures.append(_fail(serialize_path(wd),
                                      perm_text(via_reflection), perm_text(direct)))
    return checked, failures


_SUITE_FUNCS = {
    "counts": _suite_counts,
    "bijectivity": _suite_bijectivity,
    "roundtrip": _suite_roundtrip,
    "schutzenberger": _suite_schutzenberger,
    "product": _suite_product,
    "statistic": _suite_statistic,
    "criteria": _suite_criteria,
    "insertion_lemma": _suite_insertion_lemma,
    "transformation": _suite_transformation,
    "parking": _suite_parking,
    "topword_equivalence": _suite_topword,
}


def run_suite(suite: str, max_n: Optional[int] = None,
              rule: str = SPLIT_CEIL) -> VerificationReport:
    """Run one suite exhaustively up to max_n (the suite's default cap when
    None).  Failures are reported in the deterministic order the instances
    are enumerated.  A negative max_n is a ValueError: it would check
    nothing and still pass.  `counts`, `criteria` and `parking` do not read
    `rule`: their reports are the same under either split rule."""
    if suite not in _SUITE_FUNCS:
        raise ValueError(f"unknown suite {suite!r}")
    if max_n is not None and max_n < 0:
        raise ValueError(f"max_n must be non-negative, got {max_n}")
    cap = DEFAULT_CAPS[suite] if max_n is None else max_n
    start = time.perf_counter()
    checked, failures = _SUITE_FUNCS[suite](cap, rule)
    return VerificationReport(suite, (0, cap), checked, tuple(failures),
                              time.perf_counter() - start)


def run_all(max_n: Optional[int] = None,
            rule: str = SPLIT_CEIL) -> list[VerificationReport]:
    """Run every suite at its default cap, lowered to max_n when given; a
    negative max_n is a ValueError, raised by the first suite."""
    out = []
    for suite in SUITES:
        cap = DEFAULT_CAPS[suite] if max_n is None else min(DEFAULT_CAPS[suite], max_n)
        out.append(run_suite(suite, cap, rule))
    return out
