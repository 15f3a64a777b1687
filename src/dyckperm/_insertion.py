"""The insertion kernel behind `dyckperm.bijection`: rise records, per-word
plans, the insertion runs, the read-off inverse and the oracle's image
tables.

For an irreducible path, the bottom word of the image collects the positions
of the rises, inserted one at a time into a growing word: the up slopes are
split into a left half (where a weight equal to its least feasible value
makes the element *jump* to the front) and a right half (where the greatest
feasible value triggers the jump); a non-jumping position u lands
``weight(u) + shift`` letters from the right end (one less on the left
half), where shift counts the falls left of u's slope.  The top word is the
same construction run on the mirrored path, read back through the alphabet
reversal.  Reducible paths map factor by factor, composing the images with
the shifted concatenation in reverse factor order (`_compose`), which makes
the set of bottom letters equal the set of rise positions.

The inverse undoes the insertions one rise at a time, from one cached plan
per word that the forward map reads too.  A rise's insertion index is the
number of earlier rises before it in the target word (the top word is read
on the mirrored path); index 0 means a jump, and any other index gives the
weight ``(length_before - index) - shift`` (plus one on the left half).  A
jump's weight is its extremal feasible value, which reads one neighbour, so
the jumps are settled along their chains of neighbours; only the floor split
makes two jumps read each other, at one peak, and that pair is tried over
its feasible range.  A candidate is accepted when it is valid and every rise
read as a non-jump misses its jump bound; the forward run then rebuilds
both target words, so the inverse rejects non-images and detects a second
preimage without mapping a candidate forward.

Internal: these functions skip the input checks of the public entry points
in `dyckperm.bijection`, which validate before calling them.  The
verification suites read them through this module, so a fault the tests
patch into it reaches the suites and every kernel function that calls it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice, product
from operator import gt, lt
from typing import NamedTuple, Optional, Sequence

from .paths import (
    DOWN,
    UP,
    DyckPath,
    SpanRow,
    _fits,
    _height_profile,
    _reflected_steps,
    _row,
    _runs,
    _step_rows,
    enumerate_weightings,
    factor_spans,
)

SPLIT_CEIL = "ceil"
SPLIT_FLOOR = "floor"

LEFT = "L"
RIGHT = "R"


class NotInImageError(ValueError):
    """The permutation is not the image of any weighted Dyck path."""


class InternalConsistencyError(RuntimeError):
    """A guaranteed structural property failed; indicates a bug, not bad input."""


def _left_count(k: int, rule: str) -> int:
    if rule == SPLIT_CEIL:
        return (k + 1) // 2
    if rule == SPLIT_FLOOR:
        return k // 2
    raise ValueError(f"unknown split rule {rule!r}")


class _UpInfo(NamedTuple):
    """One rise of a word under a split rule.  A named tuple: `_up_infos`
    builds one per rise, and a frozen dataclass costs several times as
    much to construct.

    The jump bound is `row[weight of step nb][end]`: `row` is the
    `paths._row` span row of the pair the bound reads (see `_jump_args`),
    the rise's own row in `_step_rows` under 'L' and the mirror's row under
    'R', shared by every step of the same shape, so its indices are the
    C1-feasible weights of step `nb`; `end` is 0 under 'L' (the least
    weight) and 1 under 'R' (the greatest).  Every caller indexes it with
    such a weight: the forward map reads only weightings that passed the
    validity test, and the inverse reads a row only after its early C1
    exit (see `_invert_factor`).
    """

    pos: int          # 1-based step index of the rise
    slope: int        # 1-based up-slope index
    shift: int        # falls strictly left of the slope
    membership: str
    off: int          # a non-jump inserts weight + off letters from the right end
    nb: int
    row: SpanRow
    end: int


def _jump_args(steps: str, h: tuple[int, ...], pos: int, membership: str
               ) -> tuple[int, Optional[str], str, int, int, int]:
    """What the jump bound of the rise at `pos` reads: the neighbouring
    step `nb`, the kinds and heights of the pair's step shape (the
    arguments of `paths._row` and `_span`), and which end of the span is
    the bound.

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
            nb, *shape, end = _jump_args(steps, h, p, membership)
            infos.append(_UpInfo(p, idx, shift, membership, off, nb, _row(*shape), end))
    return tuple(infos)


# a rise of a plan: its step, the step its bound reads, its off, the span
# row its bound reads and the end of the span that is the bound
_PlanRise = tuple[int, int, int, SpanRow, int]


@lru_cache(maxsize=4096)
def _factor_plan(steps: str, rule: str
                 ) -> tuple[tuple[_PlanRise, ...], tuple[_PlanRise, ...]]:
    """The rises of `steps`, then those of its mirror, from `_up_infos`.
    Step p of the mirror is step m + 1 - p of the path, and so is its
    neighbour; the weights are padded with a 0 at each end, where the first
    step of either frame reads its one-entry row.  A rise jumps when its
    weight is `row[w[nb]][end]`."""
    m = len(steps)
    bottom = tuple((i.pos, i.nb, i.off, i.row, i.end) for i in _up_infos(steps, rule))
    top = tuple((m + 1 - i.pos, m + 1 - i.nb, i.off, i.row, i.end)
                for i in _up_infos(_reflected_steps(steps), rule))
    return bottom, top


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


def _insert(frame: tuple[_PlanRise, ...], w: Sequence[int]) -> list[int]:
    """The word the insertion run of one frame of a `_factor_plan` builds on
    the padded weights `w`.  Every public entry point validates its path
    first, and the insertion lemma then keeps each distance inside the
    word, so the range check guards against a bug, not bad input."""
    word: list[int] = []
    for step, nb, off, row, end in frame:
        x = w[step]
        if x == row[w[nb]][end]:
            word.insert(0, step)
        else:
            dist = x + off
            if dist < 0 or dist > len(word):
                raise InternalConsistencyError(f"insertion overflow at rise {step}: distance "
                                               f"{dist} with word length {len(word)}")
            word.insert(len(word) - dist, step)
    return word


def _run_insertion(steps: str, weights: Sequence[int], rule: str,
                   want_trace: bool) -> tuple[tuple[int, ...], InsertionTrace]:
    """The bottom word of one irreducible factor, and with `want_trace` its
    trace, read off the finished word: an insertion never moves a letter
    already placed, so the word after the k-th insertion is the finished
    word restricted to the first k rises."""
    frame = _factor_plan(steps, rule)[0]
    w = (0, *weights, 0)
    word = tuple(_insert(frame, w))
    if not want_trace:
        return word, ()
    placed_at = {rise[0]: k for k, rise in enumerate(frame)}
    trace: list[InsertionStep] = []
    for k, (info, (step, nb, off, row, end)) in enumerate(zip(_up_infos(steps, rule), frame)):
        x = w[step]
        jumped = x == row[w[nb]][end]
        trace.append(InsertionStep(step, x, info.slope, info.membership, info.shift, jumped,
                                   None if jumped else x + off,
                                   tuple(v for v in word if placed_at[v] <= k)))
    return word, tuple(trace)


def _map_factor(steps: str, weights: tuple[int, ...], rule: str) -> tuple[int, ...]:
    """The image of one irreducible factor: the bottom word interleaved
    with the top word, which the mirrored frame of the plan builds
    backwards, in the path's own step numbers.

    The letters partition 1..len(steps) by construction: the bottom frame
    inserts each rise exactly once, and the mirrored frame each fall.  So
    the one runtime check is the up-down shape, a guard against a bug."""
    bottom, top = _factor_plan(steps, rule)
    w = (0, *weights, 0)
    bot = _insert(bottom, w)
    tops = _insert(top, w)[::-1]
    if len(bot) != len(tops) or not (all(map(lt, bot, tops))
                                     and all(map(gt, tops, islice(bot, 1, None)))):
        raise InternalConsistencyError(
            f"assembly failed for {steps};{','.join(map(str, weights))}: "
            f"permutation is not up-down")
    perm = [0] * (2 * len(bot))
    perm[0::2] = bot
    perm[1::2] = tops
    return tuple(perm)


def _compose(m: int, spans: Sequence[tuple[int, int]],
             images: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    """The image of a word of length m from its factors' images, in factor
    order: the shifted concatenation, rightmost factor first, written into
    one list.  Factor [a, b) lands at positions m-b..m-a, its letters
    raised by a, the length of the factors before it; a single factor is
    its own image."""
    if len(images) == 1:
        return images[0]
    perm = [0] * m
    for (a, b), image in zip(spans, images):
        perm[m - b:m - a] = [v + a for v in image] if a else image
    return tuple(perm)


def _map_path(steps: str, weights: tuple[int, ...], rule: str) -> tuple[int, ...]:
    """The image of a valid weighting of any Dyck word: each irreducible
    factor mapped with `_map_factor`, the images composed by `_compose`."""
    spans = factor_spans(steps)
    return _compose(len(steps), spans,
                    [_map_factor(steps[a:b], weights[a:b], rule) for a, b in spans])


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


def _flatten_run(steps: str, weights: tuple[int, ...], rule: str
                 ) -> tuple[tuple[int, ...], ParkingFunction]:
    """The bottom word of one irreducible factor and its flattening, the
    rule of `flatten_to_single_slope` without its input checks, both read
    from the bottom frame of the plan.  A non-jump at weight x inserts
    x + off letters from the right end, and off = shift - [L], so its value
    weight + shift + [R] is x + off + 1, its insertion distance plus one.
    A jump repeats the previous value (0 for the first rise)."""
    bottom = _factor_plan(steps, rule)[0]
    w = (0, *weights, 0)
    word = tuple(_insert(bottom, w))
    vals: list[int] = []
    for step, nb, off, row, end in bottom:
        x = w[step]
        vals.append((vals[-1] if vals else 0) if x == row[w[nb]][end] else x + off + 1)
    try:
        return word, ParkingFunction(tuple(vals))
    except ValueError as exc:
        raise InternalConsistencyError(
            f"flattening {steps};{','.join(map(str, weights))} "
            f"produced a non-parking sequence {vals}"
        ) from exc


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
    for s, nb, _, row, end in chain(order, reversed(order)):
        if w[nb] is not None:
            w[s] = row[w[nb]][end]


def _certify(steps: str, w: list[int], nonjumps: list[_PlanRise]
             ) -> Optional[tuple[int, ...]]:
    """w[1..m] if every non-jump misses its jump bound and it is valid."""
    for s, nb, _, row, end in nonjumps:
        if w[s] == row[w[nb]][end]:
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
    runs through jumps to a set weight, or closes in two adjacent jumps
    that read each other.  Settling in passes, each setting every jump
    whose neighbour is set, sets a jump k links from a set weight in pass k
    and never one whose chain closes; following the chains leaves the same
    jumps stuck, and sets the rest to the same bounds.

    A chain closes only under the floor split, at one peak.  In the bottom
    frame a jump on the left half reads step pos-1, and on the right half
    step pos+1.  In the mirrored frame a fall reads its right neighbour on
    the mirror's left half and its left neighbour on its right half.  Two
    adjacent steps of one slope share their half and read in the same
    direction, so two jumps read each other only across a peak or a
    valley.  Let the word have k up slopes, the first `cut` of them on the
    left half; down slope j is slope k+1-j of the mirror.  Across the peak
    atop up slope j both read each other when both lie on the right half,
    cut < j and cut < k+1-j, so 2(cut+1) <= k+1.  Across the valley before
    up slope j+1 both must lie on the left half, j+1 <= cut and
    k+1-j <= cut, so k+2 <= 2 cut.  The ceil split's cut (k+1)//2 allows
    neither.  The floor split's cut k//2 never allows the valley, and
    allows the peak only when k is odd and j = (k+1)/2.  So at most one
    pair of jumps reads each other, and only under floor; `_try_floor_peak`
    tries its lower step, the rise, at every weight C1 allows it.

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

    Every weight the search reads is C1-feasible, so every span row a
    bound reads is indexed in range, and so is every row `_certify`'s validity test reads
    before it stops.  A read-off weight is at most its step's lower height
    h0 (the height before the rise in its frame): the distance read off is
    below the r earlier rises, and h0 = r - shift, so the weight is at most
    h0 - 1, plus one on the left half.  It can be negative, on a target no
    image has; C1 then fails for every candidate, so the search returns []
    there.  A jump's weight is an end of a non-empty span inside [0, lower
    height], and the peak's trial value lies in that range too.
    """
    w, jumps, nonjumps = _read_off(steps, image, rule)
    for rise in nonjumps:
        if w[rise[0]] < 0:  # type: ignore[operator]
            return []
    _follow_chains(w, jumps)
    if None not in w:
        weights = _certify(steps, w, nonjumps)  # type: ignore[arg-type]
        return [] if weights is None else [weights]
    return _try_floor_peak(steps, w, [r for r in jumps if w[r[0]] is None], nonjumps)


def _try_floor_peak(steps: str, w: list[Optional[int]], stuck: list[_PlanRise],
                    nonjumps: list[_PlanRise]) -> list[tuple[int, ...]]:
    """The candidates of a read-off whose `stuck` jumps end in the one
    closed chain the floor split allows (see `_invert_factor`): the peak's
    rise is tried at each weight C1 allows it, the other stuck jumps follow
    their chains to it, and the peak's rise must then meet its own bound."""
    reads = {s: nb for s, nb, *_ in stuck}
    (peak,) = [r for r in stuck if r[0] < r[1] and reads.get(r[1]) == r[0]]
    rest = [r for r in stuck if r is not peak]
    s, nb, _, row, end = peak
    h = _height_profile(steps)
    found: list[tuple[int, ...]] = []
    for v in range(min(h[s - 1], h[s]) + 1):
        for t in reads:
            w[t] = None
        w[s] = v
        _follow_chains(w, rest)
        # every other stuck jump was set to its bound after the one weight it reads
        if v != row[w[nb]][end]:
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
    `enumerate_weightings` order.  Each image is composed with `_compose`,
    as `_map_path` composes it, and distinct factor images give distinct
    composed images.  When a factor has two weightings with one image (the
    floor split does this), the word's paths are mapped one by one with
    `_map_path` instead, so the error names the word and its first
    repeated image.

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
            m = len(steps)
            return {_compose(m, spans, [image for image, _ in items]):
                    sum((w for _, w in items), ())
                    for items in product(*(t.items() for t in tables))}
    table: dict[tuple[int, ...], tuple[int, ...]] = {}
    for wd in enumerate_weightings(DyckPath(steps)):
        if len(spans) == 1:
            perm = _map_factor(steps, wd.weights, rule)
        else:
            perm = _map_path(steps, wd.weights, rule)
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
