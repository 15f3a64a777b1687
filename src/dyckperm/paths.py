"""Weighted Dyck paths: validation, structure, symmetries and enumeration.

A Dyck path is a word over ``U`` (rise) and ``D`` (fall) that never dips
below the ground and ends back on it.  A weighted Dyck path carries one
non-negative integer per step, constrained by the height profile.  The five
constraints are identified as C1..C5 throughout the package:

C1  0 <= weight(u) <= lower_height(u)
C2  weights weakly increase along consecutive rises
C3  weights weakly decrease along consecutive falls
C4  at a peak of height h, the two adjacent weights sum to at most h
C5  at a valley of height h, the two adjacent weights sum to at least h

All values are immutable after construction and every operation is a pure
function, so concurrent readers are safe.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import accumulate
from typing import Iterator, NamedTuple, Optional, Sequence, Union

from .perms import _Value, parse_int_list

UP = "U"
DOWN = "D"

_FLIP = str.maketrans({UP: DOWN, DOWN: UP})
_RUN = re.compile(f"{UP}+|{DOWN}+")


class PathFormatError(ValueError):
    """A textual path failed to parse or violates the weight constraints."""


class DyckPath(_Value):
    """A Dyck path as a step word over {U, D}; shape validated at construction."""

    __slots__ = ("steps",)

    def __init__(self, steps: str = "") -> None:
        height = 0
        for i, s in enumerate(steps, start=1):
            if s == UP:
                height += 1
            elif s == DOWN:
                height -= 1
            else:
                raise ValueError(f"invalid step character {s!r} at step {i}")
            if height < 0:
                raise ValueError(f"path dips below ground at step {i}")
        if height != 0:
            raise ValueError("path does not return to ground level")
        object.__setattr__(self, "steps", steps)

    @property
    def n(self) -> int:
        return len(self.steps) // 2

    def __len__(self) -> int:
        return len(self.steps)


class WeightedDyckPath(_Value):
    """A Dyck path with one integer weight per step.

    Only the length agreement is enforced here; the weight constraints
    C1..C5 are checked by :func:`validate_weighted` so that invalid
    weightings can be represented, inspected and reported.
    """

    __slots__ = ("path", "weights")

    def __init__(self, path: DyckPath, weights: Sequence[int] = ()) -> None:
        weights = tuple(weights)
        if len(weights) != len(path):
            raise ValueError(f"{len(path)} steps but {len(weights)} weights")
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def _trusted(cls, steps: str, weights: tuple[int, ...]) -> "WeightedDyckPath":
        """The path of `steps` with `weights`, built without the checks of
        `DyckPath` and of `__init__`: for the inverse, whose membership
        checks have scanned `steps` and which sets one weight per step."""
        path = object.__new__(DyckPath)
        object.__setattr__(path, "steps", steps)
        obj = object.__new__(cls)
        object.__setattr__(obj, "path", path)
        object.__setattr__(obj, "weights", weights)
        return obj

    @classmethod
    def from_steps(cls, steps: str, weights: Optional[Sequence[int]] = None) -> "WeightedDyckPath":
        path = DyckPath(steps)
        if weights is None:
            weights = (0,) * len(path)
        return cls(path, tuple(weights))

    @property
    def steps(self) -> str:
        return self.path.steps

    @property
    def n(self) -> int:
        return self.path.n

    def __len__(self) -> int:
        return len(self.path)


PathLike = Union[DyckPath, WeightedDyckPath]


def _steps_of(path: PathLike) -> str:
    if isinstance(path, WeightedDyckPath):
        return path.path.steps
    if isinstance(path, DyckPath):
        return path.steps
    raise TypeError(f"expected a path, got {type(path).__name__}")


def _height_profile(steps: str) -> tuple[int, ...]:
    out = [0]
    h = 0
    for s in steps:
        h += 1 if s == UP else -1
        out.append(h)
    return tuple(out)


def heights(path: PathLike) -> tuple[int, ...]:
    """Height profile h0..h2n, where h_i is the height after i steps."""
    return _height_profile(_steps_of(path))


def lower_height(path: PathLike, u: int) -> int:
    """Smaller endpoint height of step u (1-based); the cap on its weight."""
    steps = _steps_of(path)
    if not 1 <= u <= len(steps):
        raise IndexError(f"step index {u} out of range 1..{len(steps)}")
    h = _height_profile(steps)
    return min(h[u - 1], h[u])


def validate_weighted(wd: WeightedDyckPath) -> list[tuple[str, int]]:
    """All (constraint id, step index) violations, or [] when the weighting is valid.

    The list is exhaustive and sorted by step index, then constraint id.
    Pair constraints (`_PAIRS`) are attributed to the later of the two
    steps.  A weight that is not an int violates C1, and no pair reads it.
    """
    steps = wd.path.steps
    h = _height_profile(steps)
    out: list[tuple[str, int]] = []
    pw = None  # the previous weight, when it is an int
    for u, wu in enumerate(wd.weights, start=1):
        is_int = isinstance(wu, int)
        if not is_int or not 0 <= wu <= min(h[u - 1], h[u]):
            out.append(("C1", u))
        if is_int and pw is not None:
            cid, below, residual = _PAIRS[steps[u - 2]][steps[u - 1]]
            bound = h[u - 1] - pw if residual else pw
            if wu < bound if below else wu > bound:
                out.append((cid, u))
        pw = wu if is_int else None
    return out


def _fits(rows: Sequence[SpanRow], weights: Sequence[int]) -> bool:
    """True when every weight lies in the span its step's row gives at the
    previous weight (at 0 for the first step, whose row has one entry).

    Each row holds `_span`, that is C1 and the pair constraint, for every
    C1-feasible previous weight, and a weight that passes lies in
    [0, lower height], so the next index is always in range.  The scan
    stops at the first weight outside its span; it accepts exactly the
    integer weightings `validate_weighted` accepts.
    """
    pw = 0
    for row, x in zip(rows, weights):
        lo, hi = row[pw]
        if not lo <= x <= hi:
            return False
        pw = x
    return True


def is_valid_weighted(wd: WeightedDyckPath) -> bool:
    """C1..C5 hold: every weight is an int, as C1 asks, and the rows of
    `_step_rows` decide the rest."""
    return (all(isinstance(x, int) for x in wd.weights)
            and _fits(_step_rows(wd.path.steps), wd.weights))


class Slope(NamedTuple):
    """A maximal run of equal steps."""

    kind: str
    start: int  # 1-based index of the first step of the run
    length: int


class SlopeDecomposition(_Value):
    """Alternating rise/fall runs with boundary heights and weights.

    Runs alternate U, D, U, D, ..., starting with a rise and ending with a
    fall, so there are as many up slopes as down slopes.  `peak_heights[i]`
    is the height at the top of up slope i; `valley_heights[i]` is the
    height between down slope i and up slope i+1 (ground returns included
    with height 0).  Weight pairs are None when built from a bare path;
    peak pairs are (rise-in, fall-out), valley pairs (fall-in, rise-out).
    """

    __slots__ = ("up_slopes", "down_slopes", "peak_heights", "valley_heights",
                 "peak_weights", "valley_weights")

    def __init__(self, up_slopes: tuple[Slope, ...], down_slopes: tuple[Slope, ...],
                 peak_heights: tuple[int, ...], valley_heights: tuple[int, ...],
                 peak_weights: Optional[tuple[tuple[int, int], ...]],
                 valley_weights: Optional[tuple[tuple[int, int], ...]]) -> None:
        object.__setattr__(self, "up_slopes", up_slopes)
        object.__setattr__(self, "down_slopes", down_slopes)
        object.__setattr__(self, "peak_heights", peak_heights)
        object.__setattr__(self, "valley_heights", valley_heights)
        object.__setattr__(self, "peak_weights", peak_weights)
        object.__setattr__(self, "valley_weights", valley_weights)


def _runs(steps: str) -> tuple[Slope, ...]:
    """The maximal runs of equal steps, left to right: the one slope scan,
    which `slopes` and the kernel's `_factor_plan` both read.  Not cached:
    the kernel reads it only to build a word's cached plan."""
    # each run is built by `tuple.__new__`, not by `Slope(...)`, whose
    # `__new__` is a Python-level call
    runs = []
    start = 1
    for text in _RUN.findall(steps):
        runs.append(tuple.__new__(Slope, (text[0], start, len(text))))
        start += len(text)
    return tuple(runs)


def slopes(path: PathLike) -> SlopeDecomposition:
    """Decompose a path into maximal rises and falls with boundary context."""
    steps = _steps_of(path)
    h = _height_profile(steps)
    runs = _runs(steps)
    ups = tuple(r for r in runs if r.kind == UP)
    downs = tuple(r for r in runs if r.kind == DOWN)
    peak_heights = tuple(h[r.start + r.length - 1] for r in ups)
    valley_heights = tuple(h[r.start - 1] for r in ups[1:])
    peak_weights = valley_weights = None
    if isinstance(path, WeightedDyckPath):
        w = path.weights
        peak_weights = tuple(
            (w[r.start + r.length - 2], w[r.start + r.length - 1]) for r in ups
        )
        valley_weights = tuple((w[r.start - 2], w[r.start - 1]) for r in ups[1:])
    return SlopeDecomposition(ups, downs, peak_heights, valley_heights,
                              peak_weights, valley_weights)


def reflect(wd: WeightedDyckPath) -> WeightedDyckPath:
    """Mirror the path along a vertical axis; weights follow their steps.

    An involution that preserves validity of the weighting.
    """
    return WeightedDyckPath(DyckPath(_reflected_steps(wd.path.steps)),
                            wd.weights[::-1])


def _reflected_steps(steps: str) -> str:
    return steps[::-1].translate(_FLIP)


def concat(p: WeightedDyckPath, q: WeightedDyckPath) -> WeightedDyckPath:
    """Juxtapose two weighted paths; the ground-level junction keeps validity."""
    return WeightedDyckPath(DyckPath(p.path.steps + q.path.steps),
                            p.weights + q.weights)


@lru_cache(maxsize=4096)
def factor_spans(steps: str) -> Optional[tuple[tuple[int, int], ...]]:
    """Half-open 0-based spans of the irreducible factors (ground-to-ground
    arcs) of a word over U and D, or None when it is not a Dyck word: when
    it dips below the ground or does not end on it.  The package's one
    factor walk, which the map, both inverses and the oracle read: one pass
    with a running height that stops at the first dip, once per word."""
    spans = []
    h = a = 0
    for b, s in enumerate(steps, 1):
        if s == UP:
            h += 1
        elif not h:
            return None
        else:
            h -= 1
            if not h:
                spans.append((a, b))
                a = b
    return None if h else tuple(spans)


def factor_irreducible(wd: WeightedDyckPath) -> list[WeightedDyckPath]:
    """Split at every interior ground return; concatenating the factors in
    order reproduces the input."""
    return [
        WeightedDyckPath(DyckPath(wd.path.steps[a:b]), wd.weights[a:b])
        for a, b in factor_spans(wd.path.steps)
    ]


def _dyck_words(n: int) -> Iterator[str]:
    """All Dyck words of semilength n, lexicographically with U < D.

    Iterative: the next word turns the last U that has a positive height
    before it into a D, and refills everything after that step with the
    least completion, its rises first.
    """
    word = [UP] * n + [DOWN] * n
    while True:
        yield "".join(word)
        h = ups = 0  # height after step i, and rises after it
        for i in range(2 * n - 1, -1, -1):
            if word[i] == DOWN:
                h += 1
            elif h >= 2:  # the height before this U is positive
                break
            else:
                h -= 1
                ups += 1
        else:
            return
        downs = 2 * n - 1 - i - ups
        word[i:] = [DOWN] + [UP] * (ups + 1) + [DOWN] * (downs - 1)


# C2..C5 by the kinds of their two steps, earlier first (nested: one-letter
# keys hash faster than pairs, and `_span` reads this per count state):
# (id, bounds the later weight from below, the bound is h0 - pw rather than
# pw), with h0 the height between the steps and pw the earlier weight.
_PAIRS = {
    UP: {UP: ("C2", True, False),  # along a rise: pw <= w
         DOWN: ("C4", False, True)},  # at a peak: w <= h0 - pw
    DOWN: {DOWN: ("C3", False, False),  # along a fall: w <= pw
           UP: ("C5", True, True)},  # at a valley: w >= h0 - pw
}


def _span(prev: Optional[str], kind: str, h0: int, h1: int, prev_w: int) -> tuple[int, int]:
    """Feasible weight interval of a step of `kind` from height h0 to h1,
    after a step of kind `prev` and weight `prev_w` (`prev` None for the
    first step): C1 caps the weight by the lower height, and the pair
    constraint of `_PAIRS` between the two steps bounds it by `prev_w`.

    Because C2..C5 only couple adjacent steps, the interval is never empty
    when `prev_w` is feasible itself, which makes the left-to-right
    enumeration output-linear.
    """
    # conditional expressions rather than min/max: the span rows and the
    # counting pass call this once per previous weight
    lower = h0 if h0 < h1 else h1
    if prev is None:
        return 0, lower
    _, below, residual = _PAIRS[prev][kind]
    bound = h0 - prev_w if residual else prev_w
    if below:
        return (bound if bound > 0 else 0), lower
    return 0, (bound if bound < lower else lower)


# The tallest shape whose row is tabulated.  A row holds one span per
# feasible previous weight, so tabulating every shape of a path of height H
# takes O(H^2) memory (about 27 MB at H = 600); above this height a row is
# its shape, read on demand.  A path of height H has at most 4H + 1 shapes,
# so `_row` holds every shape of a path up to about height 1,000, and a
# taller one evicts rows and builds them again.
_TABULATED_HEIGHT = 64


class _LazyRow(tuple):
    """The row of a shape above `_TABULATED_HEIGHT`: the shape itself,
    (prev, kind, h0, h1), whose entry i is `_span` at previous weight i,
    computed when it is read."""

    __slots__ = ()

    def __getitem__(self, i: int) -> tuple[int, int]:
        return _span(*self, i)


SpanRow = Union[tuple[tuple[int, int], ...], _LazyRow]


@lru_cache(maxsize=4096)
def _row(prev: Optional[str], kind: str, h0: int, h1: int) -> SpanRow:
    """The span row of a step shape: `_span` for every C1-feasible weight
    of the previous step, indexed by that weight (0..h0-1 after a rise,
    which ends at h0, and 0..h0 otherwise: after a fall, and at the first
    step, where h0 = 0 leaves the single index 0).  Up to
    `_TABULATED_HEIGHT` the spans are tabulated, and above it the row is
    the shape as a `_LazyRow`.  A span depends only on the shape and the
    previous weight, so every step of a shape, in every path, shares one
    row."""
    if h0 > _TABULATED_HEIGHT:
        return _LazyRow((prev, kind, h0, h1))
    feasible = h0 if prev == UP else h0 + 1
    return tuple(_span(prev, kind, h0, h1, pw) for pw in range(feasible))


@lru_cache(maxsize=4096)
def _step_rows(steps: str) -> tuple[SpanRow, ...]:
    """The span row of each step of a word, from `_row`: one object per
    shape, shared with every step of the same shape, in one walk with a
    running height."""
    rows = []
    prev = None
    h = 0
    for kind in steps:
        h1 = h + 1 if kind == UP else h - 1
        rows.append(_row(prev, kind, h, h1))
        prev, h = kind, h1
    return tuple(rows)


def _odometer(steps: str, w: list[int], start: int = 0) -> Iterator[int]:
    """Set `w`, a list with one entry per step of `steps`, to each valid
    weighting of that word in turn, in lexicographic weight order, and
    yield after each the lowest index it changed (`start` for the first).
    Only `w[start:]` turns: with `start` > 0 the caller has set the prefix
    `w[:start]` to a valid one, and the walk lists its completions.

    `his` holds each step's largest feasible weight given the one before
    it, and the next weighting raises the last step still below its cap by
    one and resets every later step to the least weight its span allows,
    read from the step's row of `_step_rows` at the previous weight.  Every
    span is non-empty, so each reset succeeds, and every weight set is
    C1-feasible, so it indexes the next row in range.  The first reset
    reads the prefix only at `w[start - 1]`: C2..C5 couple adjacent steps
    alone, so a prefix's completions depend on its last weight alone.
    """
    m = len(steps)
    rows = _step_rows(steps)
    his = [0] * m

    def reset(first: int) -> None:
        for k in range(first, m):
            w[k], his[k] = rows[k][w[k - 1] if k else 0]

    reset(start)
    i = start
    while True:
        yield i
        i = m - 1
        while i >= start and w[i] == his[i]:
            i -= 1
        if i < start:
            return
        w[i] += 1
        reset(i + 1)


def enumerate_weightings(path: DyckPath) -> Iterator[WeightedDyckPath]:
    """All valid weightings of one fixed path, in lexicographic weight
    order: one per step of `_odometer`."""
    w = [0] * len(path.steps)
    for _ in _odometer(path.steps, w):
        yield WeightedDyckPath(path, tuple(w))


def enumerate_weighted(n: int) -> Iterator[WeightedDyckPath]:
    """Every weighted Dyck path of semilength n exactly once.

    Order: lexicographic on the step word (U < D), then lexicographic on
    the weight vector.  Every emitted element satisfies C1..C5.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    for word in _dyck_words(n):
        yield from enumerate_weightings(DyckPath(word))


# The steps at the end of a word whose completions `_weighted_lines`
# tabulates.  On a 2-vCPU Xeon (Python 3.11, best of 3) the lines of n = 6
# took 0.045, 0.035, 0.08 and 0.23 s with 4, 6, 8 and 10 tail steps, and
# those of n = 7 0.69, 0.34, 0.52 and 1.6 s, against 0.17 and 2.8 s with
# one odometer step per line: a longer tail joins more weights per line.
# A tail ends on the ground, so its heights, weights and completions are
# bounded by this constant, and the delay to the first lines does not
# grow with n.
_TAIL = 6


def _weighted_lines(n: int) -> Iterator[str]:
    """`serialize_path(wd) + "\\n"` for each `wd` of `enumerate_weighted(n)`,
    in the same order, built without the paths.

    Each word is cut before its last `_TAIL` steps (at 0 when shorter).
    The odometer walks the prefixes, keeping one text per weight and
    remaking after each step only the texts from the lowest changed index
    on.  C2..C5 couple adjacent steps alone, so the completions of a prefix
    depend on its last weight alone: for each distinct last weight, the
    texts of its completions are made once per word, by the odometer from
    the cut, and each line is a prefix's text plus one of them.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    for word in _dyck_words(n):
        m = len(word)
        c = max(m - _TAIL, 0)
        sep = "," if c else ""
        w = [0] * c
        texts = [""] * c
        tails: dict[int, list[str]] = {}  # last weight -> completions
        for i in _odometer(word[:c], w):
            texts[i:] = map(str, w[i:])
            last = w[-1] if c else 0
            tail = tails.get(last)
            if tail is None:
                t = w + [0] * (m - c)
                tail = tails[last] = [sep + ",".join(map(str, t[c:])) + "\n"
                                      for _ in _odometer(word, t, c)]
            yield from map(f"{word};{','.join(texts)}".__add__, tail)


def counts_upto(n: int) -> list[int]:
    """Numbers of weighted Dyck paths of semilength 0..n (exact integers),
    indexed by semilength.

    One transfer-matrix pass over all paths of semilength n at once,
    without materializing them.  After each step the state is (kind of the
    step, height, weight of the step), held as one count list per (kind,
    height) indexed by weight; only heights from which the ground is still
    reachable within 2n steps are kept.  Each state adds its count to the
    whole weight interval that `_span` allows for the next step through a
    difference list, so the pass takes O(n^3) additions.  A path of
    semilength k <= n is a prefix that ends at (fall, 0) after step 2k, and
    its height after step i is at most 2k - i <= 2n - i, so the count read
    there is exact.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    m = 2 * n
    layer: dict[tuple[Optional[str], int], list[int]] = {(None, 0): [1]}
    out = [1]
    for i in range(1, m + 1):
        diff: dict[tuple[Optional[str], int], list[int]] = {}
        for (prev, h0), counts in layer.items():
            for kind, h1 in ((UP, h0 + 1), (DOWN, h0 - 1)):
                if not 0 <= h1 <= m - i:
                    continue
                d = diff.get((kind, h1))
                if d is None:
                    d = diff[(kind, h1)] = [0] * (min(h0, h1) + 2)
                for pw, c in enumerate(counts):
                    lo, hi = _span(prev, kind, h0, h1, pw)
                    d[lo] += c
                    d[hi + 1] -= c
        layer = {key: list(accumulate(d[:-1])) for key, d in diff.items()}
        if i % 2 == 0:
            out.append(sum(layer.get((DOWN, 0), ())))
    return out


def count_weighted(n: int) -> int:
    """Number of weighted Dyck paths of semilength n (exact integer): the
    last entry of `counts_upto(n)`."""
    return counts_upto(n)[n]


def parse_path(text: str) -> WeightedDyckPath:
    """Parse ``<steps>;<w,w,...>``; the weight section may be omitted, in
    which case an all-zero weighting is used when it is valid.

    Raises PathFormatError on malformed input or any C1..C5 violation
    (reporting the first violated constraint and its step).
    """
    step_part, _, weight_part = text.strip().partition(";")
    try:
        path = DyckPath(step_part.strip())
    except ValueError as exc:
        raise PathFormatError(f"not a Dyck path: {exc}") from None
    weight_part = weight_part.strip()
    if weight_part:
        try:
            weights = parse_int_list(weight_part)
        except ValueError as exc:
            raise PathFormatError(f"malformed weight list {weight_part!r}: {exc}") from None
    else:
        weights = (0,) * len(path)
    if len(weights) != len(path):
        raise PathFormatError(
            f"{len(path)} steps but {len(weights)} weights"
        )
    wd = WeightedDyckPath(path, weights)
    if not is_valid_weighted(wd):
        cid, step = validate_weighted(wd)[0]
        raise PathFormatError(f"{cid} violated at step {step}")
    return wd


def _path_text(steps: str, weights: Sequence[int]) -> str:
    """The replayable text of the path with these steps and weights, which
    a caller holding no `WeightedDyckPath` writes without building one."""
    return f"{steps};{','.join(map(str, weights))}"


def serialize_path(wd: WeightedDyckPath) -> str:
    """Canonical text form; parse_path(serialize_path(wd)) == wd."""
    return _path_text(wd.path.steps, wd.weights)


def path_record(wd: WeightedDyckPath) -> dict:
    """Streaming record with stable field names."""
    return {"steps": wd.path.steps, "weights": list(wd.weights)}
