"""The statistics-preserving map between weighted Dyck paths and 1234-avoiding
up-down permutations: the public API.

The forward map inserts the rises of each irreducible factor into a bottom
word, and those of its mirror into a top word, and composes the factors'
images with the shifted concatenation; the inverse reads the insertion runs
off the permutation and certifies its candidates.  The construction and
its proofs are in `dyckperm._insertion`; the functions here validate their
input and call it.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ._insertion import (
    LEFT,
    RIGHT,
    SPLIT_CEIL,
    SPLIT_FLOOR,
    InsertionStep,
    InsertionTrace,
    InternalConsistencyError,
    NotInImageError,
    ParkingFunction,
    _bottom_word,
    _brute_weights,
    _flatten_run,
    _invert_factor,
    _jump_args,
    _left_count,
    _map_factor,
    _map_path,
    _run_insertion,
)
# bound here too because perfbench/layers.py reads this cache as bijection.*
from ._insertion import _image_table  # noqa: F401
from .paths import (
    UP,
    DyckPath,
    SlopeDecomposition,
    WeightedDyckPath,
    _height_profile,
    _span,
    factor_spans,
    is_valid_weighted,
    validate_weighted,
)
from .perms import AlternatingPermutation, avoids_1234, is_up_down, perm_text


def split_up_slopes(decomp: SlopeDecomposition, rule: str = SPLIT_CEIL) -> tuple[str, ...]:
    """Left/right membership per up slope: an 'L' prefix then an 'R' suffix.

    Under "ceil" (the default) the left half takes ceil(k/2) of the k up
    slopes; under "floor" it takes floor(k/2).
    """
    k = len(decomp.up_slopes)
    cut = _left_count(k, rule)
    return tuple(LEFT if i < cut else RIGHT for i in range(k))


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


def to_permutation_irreducible(wd: WeightedDyckPath, rule: str = SPLIT_CEIL
                               ) -> AlternatingPermutation:
    """Image of one irreducible weighted Dyck path: the bottom word by
    insertion, the top word via the mirrored path and alphabet reversal."""
    _require_valid(wd)
    _require_irreducible(wd)
    return AlternatingPermutation._trusted(_map_factor(wd.path.steps, wd.weights, rule))


def to_permutation(wd: WeightedDyckPath, rule: str = SPLIT_CEIL) -> AlternatingPermutation:
    """Image of any weighted Dyck path.

    Irreducible factors are mapped independently and their images composed
    with the shifted concatenation, rightmost factor first; consequently the
    sorted bottom letters of the image equal the rise positions of the path.
    """
    _require_valid(wd)
    return AlternatingPermutation._trusted(_map_path(wd.path.steps, wd.weights, rule))


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


def _membership_checks(p: tuple[int, ...]) -> tuple[str, list[tuple[int, int]]]:
    """The checks both inverses run on a non-empty p, in this order: a
    permutation, up-down, no 1234, bottom letters marking a Dyck word.
    Returns that word and its factor spans, both from one scan of it.

    No input that passes the up-down check fails the last check, nor the
    block check of `from_permutation`; both stay as guards.  Each top
    letter exceeds the bottom letters on either side of it, so below any
    letter there are at least as many bottom letters as top letters: the
    word never dips below the ground.  Where it returns to the ground
    after 2k steps, the letters 1..2k are k bottom and k top letters, and
    each of those tops has its own bottom and the next one among them, so
    they fill the last k columns: each block holds its factor's letters."""
    if sorted(p) != list(range(1, len(p) + 1)):
        raise ValueError("input is not a permutation of 1..N")
    if not is_up_down(p):
        raise NotInImageError("not in image: not an up-down permutation")
    if not avoids_1234(p):
        raise NotInImageError(
            "not in image: contains an increasing subsequence of length 4")
    word = _bottom_word(p)
    spans: list[tuple[int, int]] = []
    h = start = 0
    for i, s in enumerate(word, start=1):
        if s == UP:
            h += 1
        elif h > 1:
            h -= 1
        elif h:  # back on the ground: a factor ends
            h = 0
            spans.append((start, i))
            start = i
        else:
            raise NotInImageError(
                "not in image: bottom letters do not mark a Dyck path")
    # n rises among 2n steps, so the word ends on the ground
    return word, spans


def from_permutation(p: Sequence[int], rule: str = SPLIT_CEIL) -> WeightedDyckPath:
    """The unique weighted Dyck path whose image is p.

    Each irreducible factor is inverted directly from its block of p by
    reading off its insertion runs.  The checks run in this order, and the
    first to fail names the error: ValueError when p is not a permutation
    of 1..N; NotInImageError when p is not up-down, contains 1234, or no
    weighting of a factor maps to its block; and ValueError naming the
    count when several paths map to p, which happens under the floor split.
    Two guards run between the 1234 test and the search: the bottom
    letters mark a Dyck path, and each block holds its factor's letters.
    Every up-down permutation passes both (see `_membership_checks`), so
    only a bug can trip them, with a NotInImageError.
    """
    p = tuple(p)
    if not p:
        return WeightedDyckPath(DyckPath(""), ())
    word, spans = _membership_checks(p)
    weights: list[int] = [0] * len(p)
    preimages = 1
    for a, b in reversed(spans):
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
    return WeightedDyckPath._trusted(word, tuple(weights))


def from_permutation_brute(p: Sequence[int], cap_n: int = 7,
                           rule: str = SPLIT_CEIL) -> WeightedDyckPath:
    """Oracle inverse: enumerate every valid weighting of the path read off
    the bottom letters, map each forward, and return the unique match."""
    p = tuple(p)
    if len(p) > 2 * cap_n:
        raise ValueError(f"size {len(p)} exceeds the brute-force cap 2*{cap_n}")
    if not p:
        return WeightedDyckPath(DyckPath(""), ())
    word, _ = _membership_checks(p)
    return WeightedDyckPath._trusted(word, _brute_weights(p, word, rule))
