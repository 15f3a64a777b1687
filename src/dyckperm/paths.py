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

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

from .perms import parse_int_list

UP = "U"
DOWN = "D"

_FLIP = str.maketrans({UP: DOWN, DOWN: UP})


class PathFormatError(ValueError):
    """A textual path failed to parse or violates the weight constraints."""


@dataclass(frozen=True)
class DyckPath:
    """A Dyck path as a step word over {U, D}; shape validated at construction."""

    steps: str = ""

    def __post_init__(self) -> None:
        height = 0
        for i, s in enumerate(self.steps, start=1):
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

    @property
    def n(self) -> int:
        return len(self.steps) // 2

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class WeightedDyckPath:
    """A Dyck path with one integer weight per step.

    Only the length agreement is enforced here; the weight constraints
    C1..C5 are checked by :func:`validate_weighted` so that invalid
    weightings can be represented, inspected and reported.
    """

    path: DyckPath
    weights: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(self.weights))
        if len(self.weights) != len(self.path):
            raise ValueError(
                f"{len(self.path)} steps but {len(self.weights)} weights"
            )

    @classmethod
    def _trusted(cls, steps: str, weights: tuple[int, ...]) -> "WeightedDyckPath":
        """The path of `steps` with `weights`, built without the checks of
        `DyckPath` and of `__post_init__`: for the inverse, whose membership
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


@lru_cache(maxsize=4096)
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
    Pair constraints (C2..C5) are attributed to the later of the two steps.
    """
    steps = wd.path.steps
    w = wd.weights
    h = _height_profile(steps)
    out: list[tuple[str, int]] = []
    for u in range(1, len(steps) + 1):
        wu = w[u - 1]
        if not 0 <= wu <= min(h[u - 1], h[u]):
            out.append(("C1", u))
        if u == 1:
            continue
        prev, cur = steps[u - 2], steps[u - 1]
        pw = w[u - 2]
        if prev == UP and cur == UP:
            if wu < pw:
                out.append(("C2", u))
        elif prev == DOWN and cur == DOWN:
            if wu > pw:
                out.append(("C3", u))
        elif prev == UP and cur == DOWN:
            if pw + wu > h[u - 1]:
                out.append(("C4", u))
        elif pw + wu < h[u - 1]:
            out.append(("C5", u))
    return out


def _fits(rows: Sequence[SpanRow], weights: Sequence[int]) -> bool:
    """True when every weight lies in the span its step's row gives at the
    previous weight (at 0 for the first step, whose row has one entry).

    Each row holds `_span`, that is C1 and the pair constraint, for every
    C1-feasible previous weight, and a weight that passes lies in
    [0, lower height], so the next index is always in range.  The scan
    stops at the first weight outside its span; it accepts exactly the
    weightings `validate_weighted` accepts.  A non-integer weight that
    passes its own span cannot index a tabulated row, which raises
    TypeError.
    """
    pw = 0
    for row, x in zip(rows, weights):
        lo, hi = row[pw]
        if not lo <= x <= hi:
            return False
        pw = x
    return True


def is_valid_weighted(wd: WeightedDyckPath) -> bool:
    """C1..C5 hold: the rows of `_step_rows` decide, and a weighting they
    cannot index (a non-integer weight) falls back to `validate_weighted`."""
    try:
        return _fits(_step_rows(wd.path.steps), wd.weights)
    except TypeError:
        return not validate_weighted(wd)


class Slope(NamedTuple):
    """A maximal run of equal steps.  A named tuple: `_runs` builds one per
    run on the forward map's cold path, where a frozen dataclass costs
    several times as much to construct."""

    kind: str
    start: int  # 1-based index of the first step of the run
    length: int


@dataclass(frozen=True)
class SlopeDecomposition:
    """Alternating rise/fall runs with boundary heights and weights.

    Runs alternate U, D, U, D, ..., starting with a rise and ending with a
    fall, so there are as many up slopes as down slopes.  `peak_heights[i]`
    is the height at the top of up slope i; `valley_heights[i]` is the
    height between down slope i and up slope i+1 (ground returns included
    with height 0).  Weight pairs are None when built from a bare path;
    peak pairs are (rise-in, fall-out), valley pairs (fall-in, rise-out).
    """

    up_slopes: tuple[Slope, ...]
    down_slopes: tuple[Slope, ...]
    peak_heights: tuple[int, ...]
    valley_heights: tuple[int, ...]
    peak_weights: Optional[tuple[tuple[int, int], ...]]
    valley_weights: Optional[tuple[tuple[int, int], ...]]


def _runs(steps: str) -> tuple[Slope, ...]:
    """The maximal runs of equal steps, left to right: the one slope scan.
    Not cached: the kernel reads it only to build a word's cached plan."""
    runs: list[Slope] = []
    i = 0
    while i < len(steps):
        j = i
        while j < len(steps) and steps[j] == steps[i]:
            j += 1
        runs.append(Slope(steps[i], i + 1, j - i))
        i = j
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


def factor_spans(steps: str) -> list[tuple[int, int]]:
    """Half-open 0-based spans of the irreducible factors (ground-to-ground arcs)."""
    out: list[tuple[int, int]] = []
    h = 0
    start = 0
    for i, s in enumerate(steps):
        h += 1 if s == UP else -1
        if h == 0:
            out.append((start, i + 1))
            start = i + 1
    return out


def factor_irreducible(wd: WeightedDyckPath) -> list[WeightedDyckPath]:
    """Split at every interior ground return; concatenating the factors in
    order reproduces the input."""
    spans = factor_spans(wd.path.steps)
    if len(spans) <= 1:
        return [wd] if spans else []
    return [
        WeightedDyckPath(DyckPath(wd.path.steps[a:b]), wd.weights[a:b])
        for a, b in spans
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


def _span(prev: Optional[str], kind: str, h0: int, h1: int, prev_w: int) -> tuple[int, int]:
    """Feasible weight interval of a step of `kind` from height h0 to h1,
    after a step of kind `prev` and weight `prev_w` (`prev` None for the
    first step).  The one encoding of C1..C5 as a span: C1 caps the weight
    by the lower height, and the pair constraint between the two steps
    bounds it by `prev_w`.

    Because C2..C5 only couple adjacent steps, the interval is never empty
    when `prev_w` is feasible itself, which makes the left-to-right
    enumeration output-linear.
    """
    # conditional expressions rather than min/max: this is the inner step
    # of both the enumeration and the counting pass
    lower = h0 if h0 < h1 else h1
    if prev is None:
        return 0, lower
    if prev == UP:
        if kind == UP:  # C2
            return prev_w, lower
        cap = h0 - prev_w  # C4: peak at h0
        return 0, (cap if cap < lower else lower)
    if kind == UP:  # C5: valley at h0
        least = h0 - prev_w
        return (least if least > 0 else 0), lower
    return 0, (prev_w if prev_w < lower else lower)  # C3


# The tallest shape whose row is tabulated.  A row holds one span per
# feasible previous weight, so tabulating every shape of a path of height H
# takes O(H^2) memory (about 27 MB at H = 600).  Up to this height there are
# at most 4 * 65 + 1 shapes, so the row caches never evict a row, and no
# cached word holds a copy of one.
_TABULATED_HEIGHT = 64


class _LazyRow:
    """The row of a shape above `_TABULATED_HEIGHT`: entry i is `entry(i)`,
    computed when it is read, so a tall path keeps O(1) memory per step."""

    __slots__ = ("entry",)

    def __init__(self, entry: Callable[[int], object]) -> None:
        self.entry = entry

    def __getitem__(self, i: int):
        return self.entry(i)


SpanRow = Union[tuple[tuple[int, int], ...], _LazyRow]


@lru_cache(maxsize=512)
def _span_row(prev: Optional[str], kind: str, h0: int, h1: int) -> tuple[tuple[int, int], ...]:
    """`_span` of one step shape for every C1-feasible weight of the
    previous step, indexed by that weight: 0..h0-1 after a rise (which
    ends at h0), 0..h0 after a fall, and the single index 0 for the first
    step.  A span depends only on the shape and the previous weight, so
    every path shares the rows.  Called for shapes up to
    `_TABULATED_HEIGHT` only (see `_row`)."""
    if prev is None:
        return (_span(None, kind, h0, h1, 0),)
    feasible = h0 if prev == UP else h0 + 1
    return tuple(_span(prev, kind, h0, h1, pw) for pw in range(feasible))


def _row(prev: Optional[str], kind: str, h0: int, h1: int) -> SpanRow:
    """The span row of a step shape: `_span_row` up to `_TABULATED_HEIGHT`,
    and above it a row that computes each span when read."""
    if h0 > _TABULATED_HEIGHT:
        return _LazyRow(lambda pw: _span(prev, kind, h0, h1, pw))
    return _span_row(prev, kind, h0, h1)


@lru_cache(maxsize=4096)
def _step_rows(steps: str) -> tuple[SpanRow, ...]:
    """The span row of each step of a word, shared with every word that has
    a step of the same shape."""
    h = _height_profile(steps)
    return tuple(_row(steps[k - 1] if k else None, steps[k], h[k], h[k + 1])
                 for k in range(len(steps)))


def enumerate_weightings(path: DyckPath) -> Iterator[WeightedDyckPath]:
    """All valid weightings of one fixed path, in lexicographic weight order.

    An odometer over the weights: `his` holds each step's largest feasible
    weight given the one before it, and the next weighting raises the last
    step still below its cap by one and resets every later step to the
    least weight its span allows, read from the step's row of
    `_step_rows` at the previous weight.  Every span is non-empty, so each
    reset succeeds, and every weight set is C1-feasible, so it indexes the
    next row in range.
    """
    steps = path.steps
    m = len(steps)
    rows = _step_rows(steps)
    w = [0] * m
    his = [0] * m

    def reset(start: int) -> None:
        for k in range(start, m):
            w[k], his[k] = rows[k][w[k - 1] if k else 0]

    reset(0)
    while True:
        yield WeightedDyckPath(path, tuple(w))
        i = m - 1
        while i >= 0 and w[i] == his[i]:
            i -= 1
        if i < 0:
            return
        w[i] += 1
        reset(i + 1)


def enumerate_weighted(n: int) -> Iterator[WeightedDyckPath]:
    """Every weighted Dyck path of semilength n exactly once.

    Order: lexicographic on the step word (U < D), then lexicographic on
    the weight vector.  Every emitted element satisfies C1..C5.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    for word in _dyck_words(n):
        yield from enumerate_weightings(DyckPath(word))


def count_weighted(n: int) -> int:
    """Number of weighted Dyck paths of semilength n (exact integer).

    One transfer-matrix pass over all paths at once, without materializing
    them.  After each step the state is (kind of the step, height, weight
    of the step), held as one count list per (kind, height) indexed by
    weight; only heights from which the ground is still reachable are
    kept.  Each state adds its count to the whole weight interval that
    `_span` allows for the next step through a difference list, so the
    pass takes O(n^3) additions.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    m = 2 * n
    layer: dict[tuple[Optional[str], int], list[int]] = {(None, 0): [1]}
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
    return sum(sum(counts) for counts in layer.values())


def parse_path(text: str) -> WeightedDyckPath:
    """Parse ``<steps>;<w,w,...>``; the weight section may be omitted, in
    which case an all-zero weighting is used when it is valid.

    Raises PathFormatError on malformed input or any C1..C5 violation
    (reporting the first violated constraint and its step).
    """
    body = text.strip()
    if ";" in body:
        step_part, _, weight_part = body.partition(";")
    else:
        step_part, weight_part = body, ""
    try:
        path = DyckPath(step_part.strip())
    except ValueError as exc:
        raise PathFormatError(f"not a Dyck path: {exc}") from None
    weight_part = weight_part.strip()
    if weight_part:
        try:
            weights = parse_int_list(weight_part)
        except ValueError:
            raise PathFormatError(f"malformed weight list {weight_part!r}") from None
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


def serialize_path(wd: WeightedDyckPath) -> str:
    """Canonical text form; parse_path(serialize_path(wd)) == wd."""
    return f"{wd.path.steps};{','.join(map(str, wd.weights))}"


def path_record(wd: WeightedDyckPath) -> dict:
    """Streaming record with stable field names."""
    return {"steps": wd.path.steps, "weights": list(wd.weights)}
