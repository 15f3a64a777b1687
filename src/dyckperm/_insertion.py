"""The insertion kernel behind `dyckperm.bijection`: the per-word plans of
rises, the insertion runs, the read-off inverse and the oracle's image
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

The inverse undoes both insertion runs in one walk over the target, from
one cached plan per word that the forward map reads too.  A rise's
distance from the right end is the number of earlier rises of its frame
that stand after it in the word its frame builds (the top word is built
backwards, on the mirrored path); a distance equal to the number of
earlier rises means a jump, and any other gives the weight ``distance -
shift`` (plus one on the left half).  A jump's weight is its extremal
feasible value, which reads one neighbour, so the jumps are settled in an
order fixed per word, each from a weight already set.  The candidate is
accepted when it is valid and every rise read as a non-jump misses its
jump bound; the forward run then rebuilds both target words, so the
inverse rejects non-images without mapping a candidate forward.

Internal: these functions skip the input checks of the public entry points
in `dyckperm.bijection`, which validate before calling them.  The
verification suites read them through this module, so a fault the tests
patch into it reaches the suites and every kernel function that calls it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from functools import lru_cache
from io import BytesIO
from itertools import accumulate, islice, pairwise, product
from operator import gt, itemgetter, lt
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .paths import (
    DOWN,
    UP,
    SpanRow,
    _fits,
    _height_profile,
    _odometer,
    _path_text,
    _reflected_steps,
    _runs,
    _step_rows,
    factor_spans,
)
from .perms import _Value, perm_text

LEFT = "L"
RIGHT = "R"


class NotInImageError(ValueError):
    """The permutation is not the image of any weighted Dyck path."""


class InternalConsistencyError(RuntimeError):
    """A guaranteed structural property failed; indicates a bug, not bad input."""


def _left_count(k: int) -> int:
    """The up slopes on the left half, of k: ceil(k/2)."""
    return (k + 1) // 2


# a rise of a plan: its step p, the step `nb` its bound reads, its off, the
# span row its bound reads and the end of the span that is the bound.  The
# rise jumps when its weight is `row[w[nb]][end]`.  On the left half nb is
# p - 1, the row is the rise's own row in `_step_rows` and `end` is 0 (the
# least weight); on the right half nb is p + 1, the row is the mirror's row
# of the rise, where step p + 1 comes first, and `end` is 1 (the greatest).
# Either way the row's indices are the C1-feasible weights of step `nb`, and
# every caller indexes it with such a weight: the forward map reads only
# weightings that passed the validity test, and the inverse reads a row
# only after its early C1 exit (see `_invert_factor`).
_PlanRise = tuple[int, int, int, SpanRow, int]


def _plan_frame(ups: Sequence[tuple[int, int]],
                rows: tuple[Sequence[SpanRow], Sequence[SpanRow]],
                base: int) -> tuple[_PlanRise, ...]:
    """The rises of a word in insertion order, from the (start, length) of
    each of its up runs, left to right, and the span rows of the word and
    of its reflection.  A rise on a slope with `shift` falls left of it has
    off shift - 1 on the left half and shift on the right half.  A rise at
    step 1 on the left half reads step 0, the padding, and its row has one
    entry, at index 0.  The steps are numbered base - p for the word's step
    p when `base` is set, so a mirror of a path of length m, with base
    m + 1, writes its records in the path's own step numbers; base 0 keeps
    p."""
    own, mirror = rows
    m = len(own)
    cut = _left_count(len(ups))
    sign = -1 if base else 1
    frame: list[_PlanRise] = []
    rises_before = 0
    for idx, (start, length) in enumerate(ups):
        # falls left of the slope = steps before it minus rises before it
        shift = start - 1 - rises_before
        rises_before += length
        for p in range(start, start + length):
            s = base + sign * p
            if idx < cut:
                frame.append((s, s - sign, shift - 1, own[p - 1], 0))
            else:
                frame.append((s, s + sign, shift, mirror[m - p], 1))
    return tuple(frame)


@lru_cache(maxsize=4096)
def _factor_plan(steps: str) -> tuple[tuple[_PlanRise, ...], tuple[_PlanRise, ...],
                                      tuple[Optional[int], ...], tuple[_PlanRise, ...]]:
    """The rises of `steps`, then those of its mirror, each frame from
    `_plan_frame`; each step's index in its own frame (None at index 0);
    and the records in the order the inverse settles its jumps: those that
    read step pos+1 by decreasing step, then those that read pos-1 by
    increasing step.  Step p of the mirror is step m + 1 - p of the path,
    and so is its neighbour, and the mirror's frame is written in the
    path's numbers as it is built; the weights are padded with a 0 at each
    end, where the first step of either frame reads its one-entry row.

    Both frames' runs are read off one loop over `paths._runs(steps)`, the
    one slope scan: its up runs, and its down runs, which right to left are
    the mirror's up runs, k falls from step a starting at m + 2 - a - k."""
    m = len(steps)
    rows = _step_rows(steps), _step_rows(_reflected_steps(steps))
    ups, mirror_ups = [], []
    for kind, a, k in _runs(steps):
        if kind == UP:
            ups.append((a, k))
        else:
            mirror_ups.append((m + 2 - a - k, k))
    bottom = _plan_frame(ups, rows, 0)
    top = _plan_frame(mirror_ups[::-1], rows[::-1], m + 1)
    by_step: list[Optional[int]] = [None] * (m + 1)
    for frame in (bottom, top):
        for k, rise in enumerate(frame):
            by_step[rise[0]] = k
    both = bottom + top
    settle = (*sorted((r for r in both if r[1] > r[0]), reverse=True),
              *sorted(r for r in both if r[1] < r[0]))
    return bottom, top, tuple(by_step), settle


class InsertionStep(NamedTuple):
    """One record of the insertion run for a single rise."""

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


def _frame_key(frame: tuple[_PlanRise, ...], m: int) -> Callable:
    """What the insertion run of one frame reads of a weighting of a word of
    length m: each rise's own weight and the weight its bound reads (the
    fields `step` and `nb` of each `_PlanRise`), as an `itemgetter` over
    the m unpadded weights, or `tuple` for the empty word, which reads
    nothing.  The padding is always 0 and is left out.  Two weightings with
    one key get one word from `_insert`."""
    reads = sorted({i - 1 for step, nb, *_ in frame for i in (step, nb)} - {-1, m})
    return itemgetter(*reads) if reads else tuple


def _run_insertion(steps: str, weights: Sequence[int]
                   ) -> tuple[tuple[int, ...], InsertionTrace]:
    """The bottom word of one irreducible factor and its trace, both read
    from the bottom frame of the plan.  A rise starts a slope unless the
    rise before it is the step before it, and its shift is off + 1 - end.
    An insertion never moves a letter already placed, so the word after the
    k-th insertion is the finished word restricted to the first k rises."""
    frame = _factor_plan(steps)[0]
    w = (0, *weights, 0)
    word = tuple(_insert(frame, w))
    placed_at = {rise[0]: k for k, rise in enumerate(frame)}
    trace: list[InsertionStep] = []
    slope = 0
    for k, (step, nb, off, row, end) in enumerate(frame):
        if not k or frame[k - 1][0] != step - 1:
            slope += 1
        x = w[step]
        jumped = x == row[w[nb]][end]
        trace.append(InsertionStep(step, x, slope, RIGHT if end else LEFT, off + 1 - end,
                                   jumped, None if jumped else x + off,
                                   tuple(v for v in word if placed_at[v] <= k)))
    return word, tuple(trace)


def _not_up_down(steps: str, weights: Sequence[int]) -> InternalConsistencyError:
    """The error of the forward map's one runtime check, the up-down shape."""
    return InternalConsistencyError(
        f"assembly failed for {_path_text(steps, weights)}: permutation is not up-down")


def _map_factor(steps: str, weights: tuple[int, ...]) -> tuple[int, ...]:
    """The image of one irreducible factor: the bottom word interleaved
    with the top word, which the mirrored frame of the plan builds
    backwards, in the path's own step numbers.

    The letters partition 1..len(steps) by construction: the bottom frame
    inserts each rise exactly once, and the mirrored frame each fall.  So
    the one runtime check is the up-down shape, a guard against a bug."""
    bottom, top, _, _ = _factor_plan(steps)
    w = (0, *weights, 0)
    bot = _insert(bottom, w)
    tops = _insert(top, w)[::-1]
    if len(bot) != len(tops) or not (all(map(lt, bot, tops))
                                     and all(map(gt, tops, islice(bot, 1, None)))):
        raise _not_up_down(steps, weights)
    perm = [0] * (2 * len(bot))
    perm[0::2] = bot
    perm[1::2] = tops
    return tuple(perm)


def _compose(m: int, spans: Sequence[tuple[int, int]],
             images: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    """The image of a word of length m from its factors' images, in factor
    order: the shifted concatenation, rightmost factor first, written into
    one list.  Factor [a, b) lands at positions m-b..m-a, its letters
    raised by a, the length of the factors before it, so a single factor
    lands unchanged at 0..m."""
    perm = [0] * m
    for (a, b), image in zip(spans, images):
        perm[m - b:m - a] = [v + a for v in image] if a else image
    return tuple(perm)


def _map_path(steps: str, weights: tuple[int, ...]) -> tuple[int, ...]:
    """The image of a valid weighting of any Dyck word: each irreducible
    factor, at its span from the cached walk `factor_spans`, mapped with
    `_map_factor`, and the images composed by `_compose`.  The image's
    bottom word is `steps`, so the inverse reads the same cache entry."""
    spans = factor_spans(steps)
    return _compose(len(steps), spans,
                    [_map_factor(steps[a:b], weights[a:b]) for a, b in spans])


class ParkingFunction(_Value):
    """A weakly increasing sequence of non-negative integers with
    values[i] <= i (0-based)."""

    __slots__ = ("values",)

    def __init__(self, values: Sequence[int]) -> None:
        values = tuple(values)
        prev = 0
        for i, v in enumerate(values):
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"value {v!r} at index {i} is not a non-negative integer")
            if v > i:
                raise ValueError(f"value {v} at index {i} exceeds {i}")
            if v < prev:
                raise ValueError(f"values decrease at index {i}")
            prev = v
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)


def _flatten_run(steps: str, weights: tuple[int, ...]
                 ) -> tuple[tuple[int, ...], ParkingFunction]:
    """The bottom word of one irreducible factor and its flattening, the
    rule of `flatten_to_single_slope` without its input checks, both read
    from the bottom frame of the plan.  A non-jump at weight x inserts
    x + off letters from the right end, and off = shift - [L], so its value
    weight + shift + [R] is x + off + 1, its insertion distance plus one.
    A jump repeats the previous value (0 for the first rise)."""
    bottom = _factor_plan(steps)[0]
    w = (0, *weights, 0)
    word = tuple(_insert(bottom, w))
    vals: list[int] = []
    for step, nb, off, row, end in bottom:
        x = w[step]
        vals.append((vals[-1] if vals else 0) if x == row[w[nb]][end] else x + off + 1)
    try:
        return word, ParkingFunction(vals)
    except ValueError as exc:
        raise InternalConsistencyError(
            f"flattening {_path_text(steps, weights)} "
            f"produced a non-parking sequence {vals}"
        ) from exc


def _invert_factor(steps: str, image: Sequence[int]) -> Optional[tuple[int, ...]]:
    """The weighting of the irreducible path `steps` whose image is `image`
    (standardized to 1..len(steps), its bottom letters the rises of
    `steps`), or None when no weighting maps to it.

    The read-off undoes both insertion runs in one walk.  An insertion
    never moves a letter already placed, so a rise's distance from the
    right end is the number of earlier rises of its frame that stand right
    of it in the bottom word; the mirrored frame builds the top word
    backwards, so for a fall it is the earlier falls left of it in the top
    word.  So the bottom letters are walked right to left and the top
    letters left to right, each frame's records walked so far in a bit
    mask, bit k for the k-th.  The plan's `by_step` gives each letter k,
    the index of its record in its own frame: of the k records before a
    letter's own, those already walked stand on the far side of it, and
    their number c is its distance.  When c = k, the letter was inserted
    in front of all of them, a jump, and its record is not read here;
    otherwise its weight is c - off, the record's off (the insertion_lemma
    suite checks that a non-jump never lands at the front).  A negative
    weight has no preimage: C1 fails for every candidate, so the walk
    stops there, before any row is read at it.

    A jump's weight is its bound, which reads one neighbour, and no two
    jumps read each other.  In the bottom frame a jump on the left half
    reads step pos-1, and on the right half step pos+1.  In the mirrored
    frame a fall reads its right neighbour on the mirror's left half and
    its left neighbour on its right half.  Two adjacent steps of one slope
    share their half and read in the same direction, so two steps read
    each other only across a peak or a valley.  Let the word have k up
    slopes, the first `cut` of them on the left half; down slope j is slope
    k+1-j of the mirror.  Across the peak atop up slope j both read each
    other when both lie on the right half, so 2(cut+1) <= k+1; across the
    valley before up slope j+1 both must lie on the left half, so k+2 <= 2
    cut.  The cut (k+1)//2 allows neither.  So a jump that reads its right
    neighbour reads a set weight or a jump that reads further right, and
    one that reads its left neighbour a set weight or a jump that reads
    further left: in the plan's settle order, the first by decreasing
    step and the second by increasing step, each jump is set from a weight
    already set.

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
    bound reads is indexed in range, and so is every row the validity test
    reads before it stops.  A read-off weight is at most its step's lower
    height h0 (the height before the rise in its frame): the distance read
    off is below the r earlier rises, and h0 = r - shift, so the weight is
    at most h0 - 1, plus one on the left half.  A jump's weight is an end
    of a non-empty span inside [0, lower height].
    """
    bottom, top, by_step, settle = _factor_plan(steps)
    w: list = [0] + [None] * len(steps) + [0]
    nonjumps: list[_PlanRise] = []
    for frame, letters in ((bottom, image[-2::-2]), (top, image[1::2])):
        walked = 0  # the frame's records walked so far, as a bit mask
        for v in letters:
            k = by_step[v]
            c = (walked & ((1 << k) - 1)).bit_count()
            walked |= 1 << k
            if c != k:
                rise = frame[k]
                x = c - rise[2]
                if x < 0:
                    return None
                w[v] = x
                nonjumps.append(rise)
    for s, nb, _, row, end in settle:
        if w[s] is None:
            w[s] = row[w[nb]][end]
    for s, nb, _, row, end in nonjumps:
        if w[s] == row[w[nb]][end]:
            return None
    weights = tuple(w[1:-1])
    return weights if _fits(_step_rows(steps), weights) else None


def _bottom_word(p: tuple[int, ...]) -> str:
    """A rise at each bottom letter of the permutation p, a fall elsewhere."""
    word = [DOWN] * len(p)
    for i in p[0::2]:
        word[i - 1] = UP
    return "".join(word)


def _weighting(steps: str, k: int) -> bytes:
    """The k-th valid weighting of `steps` in `enumerate_weightings` order,
    one byte per weight, unranked rather than walked to.

    A right-to-left pass over the rows of `_step_rows` counts `ways[i][x]`,
    the completions of the steps after step i when its weight is x, each
    from prefix sums of the counts after step i + 1.  Then each weight in
    turn, from the least its span allows at the previous weight, skips the
    completions of the smaller ones until the k-th lies among its own: the
    odometer's lexicographic order, in O(n^2) additions."""
    m = len(steps)
    h = _height_profile(steps)
    rows = _step_rows(steps)
    ways = [[1] * (min(h[m - 1], h[m]) + 1)]
    for i in range(m - 1, 0, -1):
        below = [0, *accumulate(ways[-1])]
        ways.append([below[hi + 1] - below[lo]
                     for lo, hi in map(rows[i].__getitem__, range(min(h[i - 1], h[i]) + 1))])
    ways.reverse()
    w = bytearray(m)
    x = 0
    for i, row in enumerate(rows):
        x = row[x][0]
        while k >= ways[i][x]:
            k -= ways[i][x]
            x += 1
        w[i] = x
    return bytes(w)


class ImageTable:
    """One word's image table: entry k, the k-th weighting in
    `enumerate_weightings` order, has its image at [k*m, (k+1)*m) of
    `images`, m being the word's length; `order` lists the entries by
    image.  The weightings are not stored: `paths._odometer` on `steps`
    yields them in entry order, and entry k's is unranked by `_weighting`.
    An entry takes m + 4 bytes, 16 B at n = 6."""

    __slots__ = ("steps", "m", "images", "order")

    def __init__(self, steps: str, images: bytes, order: Sequence[int]) -> None:
        self.steps, self.m, self.images, self.order = steps, len(steps), images, array("I", order)

    def __len__(self) -> int:
        return len(self.order)

    def _image(self, k: int) -> bytes:
        return self.images[k * self.m:(k + 1) * self.m]

    def __iter__(self) -> Iterator[bytes]:
        """The images in entry order."""
        return map(self._image, range(len(self)))

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """(image, weights) of each entry, in `enumerate_weightings` order:
        each image paired with the weighting the odometer yields at its
        position."""
        w = [0] * self.m
        return zip(self, (bytes(w) for _ in _odometer(self.steps, w)))

    def sorted_images(self) -> Iterator[bytes]:
        """The images in increasing order."""
        return map(self._image, self.order)

    def get(self, perm: object) -> Optional[bytes]:
        """The weighting whose image is `perm`, by bisecting `order` and
        unranking the entry found; None when no entry has it,
        or when `perm` is not bytes of length m."""
        if not isinstance(perm, bytes) or len(perm) != self.m:
            return None
        k = bisect_left(self.order, perm, key=self._image)
        if k == len(self) or self._image(self.order[k]) != perm:
            return None
        return _weighting(self.steps, self.order[k])


@lru_cache(maxsize=256)
def _image_table(steps: str) -> ImageTable:
    """Every valid weighting of one fixed path with its image, in
    `enumerate_weightings` order, as a flat `ImageTable`: the images in
    one bytes, one byte per letter, and the entry numbers sorted by image
    in a uint32 array.  Letters reach 2n, so each fits a byte up to
    n = 127, far beyond any table that can be built (n = 8 alone has 23.4
    million paths).  An entry takes m + 4 bytes, 16 B at n = 6, where a
    dict of bytes took about 130 B.  So callers look a permutation up as
    `bytes(p)` and compare a weighting in bytes; no other key is found.

    Both kinds of word list one image per weighting, in
    `enumerate_weightings` order, as bytes in one list.  An irreducible
    word's weightings come from `paths._odometer`, and each image is built
    from the insertion runs of `_map_factor`'s plan.  A run reads only the
    weights its frame's `_frame_key` picks, and across a word's weightings
    those repeat (161,514 distinct keys per frame for the 1,147,653
    weightings of the irreducible words of n = 7).  So each frame's word
    is built once per distinct key, into a dict that lives for this build.
    Each bottom word is kept with its ceiling, the greater of each letter
    and the next, so that `_map_factor`'s up-down check, with its error
    text, is one comparison of the top word with the ceiling.  Each image
    passes it and is then written by slice assignment into one bytearray.
    A reducible word's table is built from its factors' tables.  At an
    interior ground return both steps have lower height 0, so C1 pins
    their weights to 0, and the valley constraint between them (a sum of
    at least 0) always holds; no other constraint spans two factors.  So
    the word's weightings are exactly the concatenations of its factors'
    weightings, and since the factors have fixed lengths, the
    lexicographic product of the factors' tables lists them in
    `enumerate_weightings` order, the odometer's order on the whole word,
    which `ImageTable.items` relies on.  Each image is composed with
    `_compose`, as `_map_path` composes it.  Every table then takes the
    same tail: one stable sort of its entry numbers by image, and one scan
    of neighbours in that order, whose guard names both paths of any two
    entries with one image, the lower entry first: a bug in the forward
    map or in the composition.

    The table stays an independent oracle for the read-off inverse: every
    irreducible factor is still mapped forward by the insertion runs, and
    the composition it borrows from `to_permutation` is checked on its
    own, on every concatenation, by the product suite.

    Bounded at 256 tables, above the 197 Dyck words of semilength <= 6:
    the bijectivity, roundtrip and statistic suites each scan those words
    in order, and an LRU cache smaller than one scan misses on every
    lookup, so each path would be mapped forward once per suite instead of
    once per process.  The 94,033 entries at n <= 6 hold about 1.5 MB
    (12 MB as dicts of bytes); in the worst case, 256 tables of the n = 7
    words with the most weightings, 1.35M entries and 24 MB (185 MB as
    dicts), which only a long-lived process that asks the oracle about
    many n = 7 words reaches."""
    m = len(steps)
    spans = factor_spans(steps)
    images: list[bytes] = []
    if len(spans) == 1:
        bottom, top, _, _ = _factor_plan(steps)
        bottom_key, top_key = _frame_key(bottom, m), _frame_key(top, m)
        lower: dict = {}  # bottom key -> (bottom word, its ceiling)
        upper: dict = {}  # top key -> top word
        perm = bytearray(m)
        w = [0] * m
        for _ in _odometer(steps, w):
            low, tops = lower.get(bottom_key(w)), upper.get(top_key(w))
            if low is None:
                bot = _insert(bottom, (0, *w, 0))
                low = lower[bottom_key(w)] = bytes(bot), bytes(map(max, bot, bot[1:] + bot[-1:]))
            if tops is None:
                tops = upper[top_key(w)] = bytes(_insert(top, (0, *w, 0))[::-1])
            bot, ceiling = low
            if len(tops) != len(ceiling) or not all(map(gt, tops, ceiling)):
                raise _not_up_down(steps, w)
            perm[0::2] = bot
            perm[1::2] = tops
            images.append(bytes(perm))
    else:
        for factors in product(*(_image_table(steps[a:b]) for a, b in spans)):
            images.append(bytes(_compose(m, spans, factors)))
    order = sorted(range(len(images)), key=images.__getitem__)
    for j, k in pairwise(order):
        if images[j] == images[k]:
            raise InternalConsistencyError(
                f"{_path_text(steps, _weighting(steps, j))} and "
                f"{_path_text(steps, _weighting(steps, k))} share the image "
                f"{perm_text(images[j])}")
    blob = BytesIO()
    blob.writelines(images)  # b"".join would hold an 80-byte buffer view per image
    return ImageTable(steps, blob.getvalue(), order)
