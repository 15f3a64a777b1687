"""The statistics-preserving map between weighted Dyck paths and 1234-avoiding
up-down permutations.

For an irreducible path, the bottom word of the image collects the positions
of the rises, inserted one at a time into a growing word: the up slopes are
split into a left half (where a weight equal to its least feasible value
makes the element *jump* to the front) and a right half (where the greatest
feasible value triggers the jump); a non-jumping position u lands
``weight(u) + shift`` letters from the right end (one less on the left
half), where shift counts the falls left of u's slope.  The top word is the
same construction run on the mirrored path, read back through the alphabet
reversal.  Reducible paths map factor by factor, composing the images with
the shifted concatenation in reverse factor order, which makes the set of
bottom letters equal the set of rise positions.

The inverse undoes the insertions one rise at a time, from one cached plan
per word that the forward map reads too.  A rise's insertion index is the
number of earlier rises before it in the target word (the top word is read
on the mirrored path); index 0 means a jump, and any other index gives the
weight ``(length_before - index) - shift`` (plus one on the left half).  A
jump's weight is its extremal feasible value, which reads one neighbour, so
the jumps are settled along their chains of neighbours; only two jumps that
read each other, which the floor split produces, are tried over their
feasible range.  A candidate is accepted when it is valid and every rise
read as a non-jump misses its jump bound; the forward run then rebuilds
both target words, so the inverse rejects non-images and detects a second
preimage without mapping a candidate forward.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import NamedTuple, Optional, Sequence, Union

from .paths import (
    DOWN,
    UP,
    DyckPath,
    SlopeDecomposition,
    WeightedDyckPath,
    _TABULATED_HEIGHT,
    _LazyRow,
    _fits,
    _height_profile,
    _reflected_steps,
    _runs,
    _span,
    _span_row,
    _step_rows,
    enumerate_weightings,
    factor_spans,
    is_valid_weighted,
    validate_weighted,
)
from .perms import (
    AlternatingPermutation,
    assemble,
    avoids_1234,
    is_up_down,
    perm_text,
    shifted_concat,
)

SPLIT_CEIL = "ceil"
SPLIT_FLOOR = "floor"

LEFT = "L"
RIGHT = "R"


class NotInImageError(ValueError):
    """The permutation is not the image of any weighted Dyck path."""


class InternalConsistencyError(RuntimeError):
    """A guaranteed structural property failed; indicates a bug, not bad input."""


class InsertionOverflowError(RuntimeError):
    """A computed insertion distance fell outside the current word.

    Cannot happen for a valid weighted Dyck path; signals invalid input or
    an internal bug.  Carries the trace accumulated so far.
    """

    def __init__(self, message: str, trace: tuple["InsertionStep", ...]):
        super().__init__(message)
        self.trace = trace


def _left_count(k: int, rule: str) -> int:
    if rule == SPLIT_CEIL:
        return (k + 1) // 2
    if rule == SPLIT_FLOOR:
        return k // 2
    raise ValueError(f"unknown split rule {rule!r}")


def split_up_slopes(decomp: SlopeDecomposition, rule: str = SPLIT_CEIL) -> tuple[str, ...]:
    """Left/right membership per up slope: an 'L' prefix then an 'R' suffix.

    Under "ceil" (the default) the left half takes ceil(k/2) of the k up
    slopes; under "floor" it takes floor(k/2).
    """
    k = len(decomp.up_slopes)
    cut = _left_count(k, rule)
    return tuple(LEFT if i < cut else RIGHT for i in range(k))


class _UpInfo(NamedTuple):
    """One rise of a word under a split rule.  A named tuple: the
    `_up_infos` cache holds one per rise of every cached path, and a frozen
    dataclass costs several times as much to construct.

    The jump bound is `bounds[weight of step nb]`: `bounds` is the
    `_bounds` row of the pair the bound reads (see `_jump_args`), shared by
    every rise of the same shape, so its indices are the C1-feasible
    weights of step `nb`.  Every caller indexes it with such a weight: the
    forward map reads only weightings that passed the validity test, and
    the inverse reads a row only after its early C1 exit (see
    `_invert_factor`).
    """

    pos: int          # 1-based step index of the rise
    slope: int        # 1-based up-slope index
    shift: int        # falls strictly left of the slope
    membership: str
    off: int          # a non-jump inserts weight + off letters from the right end
    nb: int
    bounds: Union[tuple[int, ...], _LazyRow]


def _jump_args(steps: str, h: tuple[int, ...], pos: int, membership: str
               ) -> tuple[int, Optional[str], str, int, int, int]:
    """What the jump bound of the rise at `pos` reads: the neighbouring
    step `nb`, `_span`'s kinds and heights for the pair, and which end of
    the span is the bound.

    Under 'L' the pair is (step pos-1, the rise) and the bound is the least
    weight; for the first step `nb` is 0, and with no previous step the
    pair's row has one entry, at index 0.  Under 'R' the pair is (the
    rise, step pos+1), read on the mirrored path, where step pos+1 comes
    first, both kinds flip and the heights swap; the bound is the greatest
    weight.
    """
    if membership == LEFT:
        return pos - 1, steps[pos - 2] if pos > 1 else None, UP, h[pos - 1], h[pos], 0
    return pos + 1, DOWN if steps[pos] == UP else UP, DOWN, h[pos], h[pos - 1], 1


@lru_cache(maxsize=512)
def _bound_row(prev: Optional[str], kind: str, h0: int, h1: int, end: int) -> tuple[int, ...]:
    """End `end` of each span in `_span_row(prev, kind, h0, h1)`: the jump
    bound of one pair shape for every C1-feasible neighbour weight.  Called
    for shapes up to `_TABULATED_HEIGHT` only (see `_bounds`)."""
    return tuple(span[end] for span in _span_row(prev, kind, h0, h1))


def _bounds(prev: Optional[str], kind: str, h0: int, h1: int, end: int
            ) -> Union[tuple[int, ...], _LazyRow]:
    """The jump bounds of a pair shape: `_bound_row` up to
    `_TABULATED_HEIGHT`, and above it a row that computes each bound when
    read."""
    if h0 > _TABULATED_HEIGHT:
        return _LazyRow(lambda w: _span(prev, kind, h0, h1, w)[end])
    return _bound_row(prev, kind, h0, h1, end)


@lru_cache(maxsize=4096)
def _up_infos(steps: str, rule: str) -> tuple[_UpInfo, ...]:
    h = _height_profile(steps)
    ups = [r for r in _runs(steps) if r.kind == UP]
    cut = _left_count(len(ups), rule)
    infos: list[_UpInfo] = []
    rises_before = 0
    for idx, run in enumerate(ups, start=1):
        # falls left of the slope = steps before it minus rises before it
        shift = run.start - 1 - rises_before
        rises_before += run.length
        membership = LEFT if idx <= cut else RIGHT
        off = shift - (1 if membership == LEFT else 0)
        for p in range(run.start, run.start + run.length):
            nb, *shape = _jump_args(steps, h, p, membership)
            infos.append(_UpInfo(p, idx, shift, membership, off, nb, _bounds(*shape)))
    return tuple(infos)


# a rise of a plan: its step, the step its bound reads, its off, its bound row
_PlanRise = tuple[int, int, int, Union[tuple[int, ...], _LazyRow]]


@lru_cache(maxsize=4096)
def _factor_plan(steps: str, rule: str
                 ) -> tuple[tuple[_PlanRise, ...], tuple[_PlanRise, ...]]:
    """The rises of `steps`, then those of its mirror, from `_up_infos`.
    Step p of the mirror is step m + 1 - p of the path, and so is its
    neighbour; the weights are padded with a 0 at each end, where the first
    step of either frame reads its one-entry row."""
    m = len(steps)
    bottom = tuple((i.pos, i.nb, i.off, i.bounds) for i in _up_infos(steps, rule))
    top = tuple((m + 1 - i.pos, m + 1 - i.nb, i.off, i.bounds)
                for i in _up_infos(_reflected_steps(steps), rule))
    return bottom, top


def jump_bound(wd: WeightedDyckPath, u: int, membership: str) -> int:
    """The extremal feasible weight of rise u under the given membership.

    'L': the greatest lower bound (previous weight on the slope, or the
    valley residual for the slope's first rise, 0 on the path's first
    slope).  'R': the least upper bound (the minimum of the lower height
    and the next weight on the slope, or the peak residual for the last).
    Both are an end of the `_span` that the forward map's jump rule reads.
    """
    if membership not in (LEFT, RIGHT):
        raise ValueError(f"membership must be {LEFT!r} or {RIGHT!r}")
    steps = wd.path.steps
    if not 1 <= u <= len(steps):
        raise IndexError(f"step index {u} out of range 1..{len(steps)}")
    if steps[u - 1] != UP:
        raise ValueError(f"step {u} is not a rise")
    nb, prev, kind, h0, h1, end = _jump_args(steps, _height_profile(steps), u, membership)
    return _span(prev, kind, h0, h1, wd.weights[nb - 1])[end]


def jumps(wd: WeightedDyckPath, u: int, membership: str) -> bool:
    """True when the weight of rise u attains its extremal feasible value."""
    return wd.weights[u - 1] == jump_bound(wd, u, membership)


class InsertionStep(NamedTuple):
    """One record of the insertion run for a single rise.  A named tuple:
    traced runs build one per rise, where a frozen dataclass costs several
    times as much to construct."""

    position: int
    weight: int
    slope: int
    membership: str
    shift: int
    jumped: bool
    distance: Optional[int]  # from the right-hand end; None on jumps
    word_after: tuple[int, ...]


InsertionTrace = tuple[InsertionStep, ...]


def _insert(frame: tuple[_PlanRise, ...], w: Sequence[int],
            infos: Optional[tuple[_UpInfo, ...]] = None
            ) -> tuple[tuple[int, ...], InsertionTrace]:
    """The insertion run of one frame of a `_factor_plan` on the padded
    weights `w`, and with the frame's `_up_infos` records, its trace."""
    word: list[int] = []
    trace: list[InsertionStep] = []
    for step, nb, off, bounds in frame:
        x = w[step]
        if x == bounds[w[nb]]:
            word.insert(0, step)
            dist = None
        else:
            dist = x + off
            if dist < 0 or dist > len(word):
                raise InsertionOverflowError(f"insertion overflow at rise {step}: distance "
                                             f"{dist} with word length {len(word)}", tuple(trace))
            word.insert(len(word) - dist, step)
        if infos is not None:
            info = infos[len(trace)]  # one record per rise inserted so far
            trace.append(InsertionStep(step, x, info.slope, info.membership,
                                       info.shift, dist is None, dist, tuple(word)))
    return tuple(word), tuple(trace)


def _run_insertion(steps: str, weights: Sequence[int], rule: str,
                   want_trace: bool) -> tuple[tuple[int, ...], InsertionTrace]:
    return _insert(_factor_plan(steps, rule)[0], (0, *weights, 0),
                   _up_infos(steps, rule) if want_trace else None)


def _require_valid(wd: WeightedDyckPath) -> None:
    if not is_valid_weighted(wd):
        cid, step = validate_weighted(wd)[0]
        raise ValueError(f"invalid weighting: {cid} violated at step {step}")


def _require_irreducible(wd: WeightedDyckPath) -> None:
    if len(factor_spans(wd.path.steps)) > 1:
        raise ValueError("path is reducible (interior return to the ground)")


def insertion_word(wd: WeightedDyckPath, rule: str = SPLIT_CEIL
                   ) -> tuple[tuple[int, ...], InsertionTrace]:
    """Bottom word of an irreducible weighted Dyck path, with the full
    per-rise trace (jump flag, shift, insertion distance, word snapshot)."""
    _require_valid(wd)
    _require_irreducible(wd)
    return _run_insertion(wd.path.steps, wd.weights, rule, want_trace=True)


def _map_factor(steps: str, weights: tuple[int, ...], rule: str) -> tuple[int, ...]:
    """The image of one irreducible factor; the mirrored frame of its plan
    builds the top word backwards, in the path's own step numbers."""
    bottom, top = _factor_plan(steps, rule)
    w = (0, *weights, 0)
    bot, raw = _insert(bottom, w)[0], _insert(top, w)[0]
    try:
        return assemble(bot, raw[::-1]).perm
    except ValueError as exc:
        raise InternalConsistencyError(
            f"assembly failed for {steps};{','.join(map(str, weights))}: {exc}"
        ) from exc


def to_permutation_irreducible(wd: WeightedDyckPath, rule: str = SPLIT_CEIL
                               ) -> AlternatingPermutation:
    """Image of one irreducible weighted Dyck path: the bottom word by
    insertion, the top word via the mirrored path and alphabet reversal."""
    _require_valid(wd)
    _require_irreducible(wd)
    return AlternatingPermutation(_map_factor(wd.path.steps, wd.weights, rule))


def to_permutation(wd: WeightedDyckPath, rule: str = SPLIT_CEIL) -> AlternatingPermutation:
    """Image of any weighted Dyck path.

    Irreducible factors are mapped independently and their images composed
    with the shifted concatenation, rightmost factor first; consequently the
    sorted bottom letters of the image equal the rise positions of the path.
    """
    _require_valid(wd)
    steps, weights = wd.path.steps, wd.weights
    acc: tuple[int, ...] = ()
    for a, b in factor_spans(steps):
        acc = shifted_concat(_map_factor(steps[a:b], weights[a:b], rule), acc)
    return AlternatingPermutation(acc)


def bottom_traces(wd: WeightedDyckPath, rule: str = SPLIT_CEIL) -> InsertionTrace:
    """Bottom-word insertion records for all factors, with positions and
    word snapshots shifted to global step indices."""
    _require_valid(wd)
    steps, weights = wd.path.steps, wd.weights
    out: list[InsertionStep] = []
    for a, b in factor_spans(steps):
        _, trace = _run_insertion(steps[a:b], weights[a:b], rule, want_trace=True)
        out.extend(st._replace(position=st.position + a,
                               word_after=tuple(v + a for v in st.word_after))
                   for st in trace)
    return tuple(out)


@dataclass(frozen=True)
class ParkingFunction:
    """A weakly increasing sequence of non-negative integers with
    values[i] <= i (0-based)."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        prev = 0
        for i, v in enumerate(self.values):
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"value {v!r} at index {i} is not a non-negative integer")
            if v > i:
                raise ValueError(f"value {v} at index {i} exceeds {i}")
            if v < prev:
                raise ValueError(f"values decrease at index {i}")
            prev = v

    def __len__(self) -> int:
        return len(self.values)


def flatten_to_single_slope(wd: WeightedDyckPath, rule: str = SPLIT_CEIL) -> ParkingFunction:
    """Project the rises of an irreducible weighted path onto one single
    ascent whose insertion run reproduces the standardized bottom word.

    A jumping rise copies the previous image value; a non-jumping one adds
    its shift to its weight, plus one on the right half (offsetting the
    left half's shorter insertion distance).
    """
    _require_valid(wd)
    _require_irreducible(wd)
    return _flatten_run(wd.path.steps, wd.weights, rule)[1]


def _flatten_run(steps: str, weights: tuple[int, ...], rule: str
                 ) -> tuple[tuple[int, ...], ParkingFunction]:
    """The bottom word of one irreducible factor and its flattening, both
    from one traced insertion run: the rule of `flatten_to_single_slope`,
    without its input checks."""
    word, trace = _run_insertion(steps, weights, rule, want_trace=True)
    vals: list[int] = []
    for st in trace:
        if st.jumped:
            vals.append(vals[-1] if vals else 0)
        else:
            vals.append(st.weight + st.shift + (1 if st.membership == RIGHT else 0))
    try:
        return word, ParkingFunction(tuple(vals))
    except ValueError as exc:
        raise InternalConsistencyError(
            f"flattening {steps};{','.join(map(str, weights))} "
            f"produced a non-parking sequence {vals}"
        ) from exc


def parking_to_123_avoiding(pf: ParkingFunction) -> tuple[int, ...]:
    """Insertion replay on a single all-rise slope: a value equal to its
    predecessor jumps to the front (the first always does), a larger value v
    lands v-1 letters from the right.  The output avoids 123."""
    word: list[int] = []
    prev: Optional[int] = None
    for i, v in enumerate(pf.values, start=1):
        if prev is None or v == prev:
            word.insert(0, i)
        else:
            word.insert(len(word) - (v - 1), i)
        prev = v
    return tuple(word)


def _read_off(steps: str, image: tuple[int, ...], rule: str
              ) -> tuple[list[Optional[int]], list[_PlanRise], list[_PlanRise]]:
    """Undo both insertion runs of `steps` that build `image` (standardized):
    the padded weights w[0..m+1], None at a jump, and the plan records of
    the jumps and of the non-jumps.  Later insertions never reorder earlier
    letters, so a rise's index is the number of earlier rises of its frame
    before it in the target, and a non-jump never lands at the front (the
    insertion_lemma suite checks this).  A top letter ranks by its place in
    `image` negated: the mirrored frame builds the top word backwards."""
    m = len(steps)
    rank = [0] * (m + 1)
    for i, v in enumerate(image):
        rank[v] = -i if i & 1 else i
    w: list[Optional[int]] = [0] + [None] * m + [0]
    jumps: list[_PlanRise] = []
    nonjumps: list[_PlanRise] = []
    for frame in _factor_plan(steps, rule):
        placed: list[int] = []  # ranks of the frame's rises read so far, sorted
        for rise in frame:
            r = rank[rise[0]]
            idx = bisect_left(placed, r)
            if idx:
                w[rise[0]] = len(placed) - idx - rise[2]
                nonjumps.append(rise)
            else:
                jumps.append(rise)
            placed.insert(idx, r)
    return w, jumps, nonjumps


def _follow_chains(w: list[Optional[int]], jumps: list[_PlanRise]) -> None:
    """Set each jump whose chain of neighbours reaches a set weight to its
    bound.  A jump reads an adjacent step and a chain that turns back has
    closed, so sweeps from the left and the right follow every chain."""
    order = sorted(jumps)
    for s, nb, _, bounds in order + order[::-1]:
        if w[nb] is not None:
            w[s] = bounds[w[nb]]


def _certify(steps: str, w: list[int], nonjumps: list[_PlanRise]
             ) -> Optional[tuple[int, ...]]:
    """w[1..m] if every non-jump misses its jump bound and it is valid."""
    for s, nb, _, bounds in nonjumps:
        if w[s] == bounds[w[nb]]:
            return None
    weights = tuple(w[1:-1])
    return weights if _fits(_step_rows(steps), weights) else None


def _invert_factor(steps: str, image: tuple[int, ...], rule: str
                   ) -> list[tuple[int, ...]]:
    """Every weighting of the irreducible path `steps` whose image is
    `image` (standardized to 1..len(steps)).

    The read-off of the bottom word fixes each non-jumping rise, and that of
    the top word, on the mirrored path, each non-jumping fall.  A jump's
    weight is its bound, which reads one neighbour; its chain of neighbours
    runs through jumps to a set weight, or closes in two jumps that read
    each other (a peak or valley cycle, which the floor split produces).
    Settling in passes, each setting every jump whose neighbour is set,
    sets a jump k links from a set weight in pass k and never one whose
    chain closes; following the chains leaves the same jumps stuck, and
    sets the rest to the same bounds.  A cycle's lower step is tried at
    every weight C1 allows it.

    A candidate is certified instead of mapped forward.  Let it be valid,
    and let every rise read as a non-jump, in either frame, miss its jump
    bound; every jump has its bound by construction.  The forward run of a
    frame then takes, at each rise, the branch read off: a jump inserts at
    index 0, where the rise stands among the earlier rises in the target,
    and a non-jump at distance ``weight + shift`` (one less on the left
    half) from the right end, the distance read off.  Insertions never
    reorder earlier letters, so the run rebuilds the target word of its
    frame, and the candidate maps to `image`.  Conversely a non-jump at its
    bound would jump to index 0, which the read-off ruled out, so the
    certificate accepts exactly what the forward map would confirm.

    Every weight the search reads is C1-feasible, so every `bounds` row is
    indexed in range, and so is every row `_certify`'s validity test reads
    before it stops.  A read-off weight is at most its step's lower height
    h0 (the height before the rise in its frame): the distance read off is
    below the r earlier rises, and h0 = r - shift, so the weight is at most
    h0 - 1, plus one on the left half.  It can be negative, on a target no
    image has; C1 then fails for every candidate, so the search returns []
    there.  A jump's weight is an end of a non-empty span inside [0, lower
    height], and a cycle's trial value lies in that range too.
    """
    w, jumps, nonjumps = _read_off(steps, image, rule)
    if any(w[rise[0]] < 0 for rise in nonjumps):  # type: ignore[operator]
        return []
    _follow_chains(w, jumps)
    if None not in w:
        weights = _certify(steps, w, nonjumps)  # type: ignore[arg-type]
        return [] if weights is None else [weights]
    reads = {s: nb for s, nb, _, _ in jumps if w[s] is None}
    cycles = [r for r in jumps if r[0] < r[1] and reads.get(r[1]) == r[0]]
    rest = [r for r in jumps if r[0] in reads and r not in cycles]
    h = _height_profile(steps)
    found: list[tuple[int, ...]] = []
    for values in product(*(range(min(h[r[0] - 1], h[r[0]]) + 1) for r in cycles)):
        for s in reads:
            w[s] = None
        for (s, *_), v in zip(cycles, values):
            w[s] = v
        _follow_chains(w, rest)
        # every other jump was set to its bound after the one weight it reads
        if any(w[s] != bounds[w[nb]] for s, nb, _, bounds in cycles):
            continue
        weights = _certify(steps, w, nonjumps)  # type: ignore[arg-type]
        if weights is not None:
            found.append(weights)
    return found


def _bottom_word(p: tuple[int, ...]) -> str:
    """A rise at each bottom letter of the permutation p, a fall elsewhere."""
    word = [DOWN] * len(p)
    for i in p[0::2]:
        word[i - 1] = UP
    return "".join(word)


def _membership_checks(p: tuple[int, ...]) -> tuple[DyckPath, str]:
    if sorted(p) != list(range(1, len(p) + 1)):
        raise ValueError("input is not a permutation of 1..N")
    if not is_up_down(p):
        raise NotInImageError("not in image: not an up-down permutation")
    if not avoids_1234(p):
        raise NotInImageError(
            "not in image: contains an increasing subsequence of length 4")
    word = _bottom_word(p)
    try:
        return DyckPath(word), word
    except ValueError:
        raise NotInImageError(
            "not in image: bottom letters do not mark a Dyck path") from None


def from_permutation(p: Sequence[int], rule: str = SPLIT_CEIL) -> WeightedDyckPath:
    """The unique weighted Dyck path whose image is p.

    Each irreducible factor is inverted directly from its block of p by
    reading off its insertion runs.  Raises NotInImageError naming the first
    failed membership check (shape, avoidance, bottom letters not a Dyck
    path, a block that no factor maps to), and ValueError naming the count
    when several paths map to p, which happens under the floor split.
    """
    p = tuple(p)
    if not p:
        return WeightedDyckPath(DyckPath(""), ())
    path, word = _membership_checks(p)
    weights: list[int] = [0] * len(p)
    preimages = 1
    for a, b in reversed(factor_spans(word)):
        block = p[len(p) - b:len(p) - a]
        if min(block) <= a or max(block) > b:  # p's letters are distinct
            raise NotInImageError(
                f"not in image: block {perm_text(block)} does not hold {a + 1}..{b}")
        sols = _invert_factor(word[a:b], tuple(v - a for v in block) if a else block, rule)
        if not sols:
            raise NotInImageError(
                f"not in image: no weighting of {word[a:b]} maps to block {perm_text(block)}")
        preimages *= len(sols)
        weights[a:b] = sols[0]
    if preimages > 1:
        raise ValueError(
            f"ambiguous: {preimages} weighted paths map to this permutation "
            f"under the {rule} split rule")
    return WeightedDyckPath(path, tuple(weights))


@lru_cache(maxsize=256)
def _image_table(steps: str, rule: str) -> dict:
    """perm -> weights over all valid weightings of one fixed path, in
    `enumerate_weightings` order.

    An irreducible word's weightings are mapped one by one with
    `_map_factor`.  A reducible word's table is built from its factors'
    tables.  At an interior ground return both steps have lower height 0,
    so C1 pins their weights to 0, and the valley constraint between them
    (a sum of at least 0) always holds; no other constraint spans two
    factors.  So the word's weightings are exactly the concatenations of
    its factors' weightings, and since the factors have fixed lengths, the
    lexicographic product of the factors' tables lists them in
    `enumerate_weightings` order.  Each image is composed with
    `shifted_concat`, rightmost factor first, as `to_permutation` composes
    it, and distinct factor images give distinct composed images.  When a
    factor has two weightings with one image (the floor split does this),
    the word's paths are mapped one by one with `to_permutation` instead,
    so the error names the word and its first repeated image.

    The table stays an independent oracle for the read-off inverse: every
    irreducible factor is still mapped forward by the insertion runs, and
    the composition it borrows from `to_permutation` is checked on its
    own, on every concatenation, by the product suite.

    Bounded at 256 tables, above the 197 Dyck words of semilength <= 6:
    the bijectivity, roundtrip and statistic suites each scan those words
    in order, and an LRU cache smaller than one scan misses on every
    lookup, so each path would be mapped forward once per suite instead of
    once per process.  At most 94,033 entries are held at n <= 6; in the
    worst case, 256 tables of the n = 7 words with the most weightings,
    about 1.35M entries (871k with 64 tables), which only a long-lived
    process that asks the oracle about many n = 7 words reaches."""
    spans = factor_spans(steps)
    if len(spans) != 1:
        try:
            tables = [_image_table(steps[a:b], rule) for a, b in spans]
        except InternalConsistencyError:
            pass  # a factor has no table: map the word's paths one by one
        else:
            composed = {}
            for items in product(*(t.items() for t in tables)):
                perm: tuple[int, ...] = ()
                for image, _ in items:
                    perm = shifted_concat(image, perm)
                composed[perm] = sum((w for _, w in items), ())
            return composed
    table: dict[tuple[int, ...], tuple[int, ...]] = {}
    for wd in enumerate_weightings(DyckPath(steps)):
        if len(spans) == 1:
            perm = _map_factor(steps, wd.weights, rule)
        else:
            perm = to_permutation(wd, rule).perm
        if perm in table:
            raise InternalConsistencyError(
                f"two weightings of {steps} share the image {perm}")
        table[perm] = wd.weights
    return table


def _brute_weights(p: tuple[int, ...], word: str, rule: str) -> tuple[int, ...]:
    """The oracle's lookup once p has passed the membership checks: the
    weights of the path `word`, the one p's bottom letters mark, whose
    image is p."""
    weights = _image_table(word, rule).get(p)
    if weights is None:
        raise NotInImageError("not in image: no weighting of the bottom path matches")
    return weights


def from_permutation_brute(p: Sequence[int], cap_n: int = 7,
                           rule: str = SPLIT_CEIL) -> WeightedDyckPath:
    """Oracle inverse: enumerate every valid weighting of the path read off
    the bottom letters, map each forward, and return the unique match."""
    p = tuple(p)
    if len(p) > 2 * cap_n:
        raise ValueError(f"size {len(p)} exceeds the brute-force cap 2*{cap_n}")
    if not p:
        return WeightedDyckPath(DyckPath(""), ())
    path, word = _membership_checks(p)
    return WeightedDyckPath(path, _brute_weights(p, word, rule))
