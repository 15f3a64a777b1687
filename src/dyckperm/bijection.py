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

from itertools import repeat
from typing import Optional, Sequence

from . import _insertion
from ._insertion import (
    LEFT,
    RIGHT,
    InsertionStep,
    InsertionTrace,
    InternalConsistencyError,
    NotInImageError,
    ParkingFunction,
    _bottom_word,
    _flatten_run,
    _image_table,
    _invert_factor,
    _map_factor,
    _map_path,
    _run_insertion,
)
from .paths import (
    DOWN,
    UP,
    SlopeDecomposition,
    WeightedDyckPath,
    _height_profile,
    _span,
    factor_spans,
    is_valid_weighted,
    validate_weighted,
)
from .perms import AlternatingPermutation, avoids_1234, is_up_down, perm_text

_BRUTE_CAP_N = 7  # the largest semilength whose tables `from_permutation_brute` builds


def split_up_slopes(decomp: SlopeDecomposition) -> tuple[str, ...]:
    """Left/right membership per up slope: an 'L' prefix then an 'R' suffix.
    The left half takes ceil(k/2) of the k up slopes."""
    k = len(decomp.up_slopes)
    cut = _insertion._left_count(k)  # through the module: one patch reaches it
    return tuple(LEFT if i < cut else RIGHT for i in range(k))


def jump_bound(wd: WeightedDyckPath, u: int, membership: str) -> int:
    """The extremal feasible weight of rise u under the given membership.

    'L': the greatest lower bound (previous weight on the slope, or the
    valley residual for the slope's first rise, 0 on the path's first
    slope).  'R': the least upper bound (the minimum of the lower height
    and the next weight on the slope, or the peak residual for the last).
    Both are an end of the `_span` that the forward map's jump rule reads.
    An invalid weighting is a ValueError, raised before any weight is read.
    """
    if membership not in (LEFT, RIGHT):
        raise ValueError(f"membership must be {LEFT!r} or {RIGHT!r}")
    steps = wd.path.steps
    if not 1 <= u <= len(steps):
        raise IndexError(f"step index {u} out of range 1..{len(steps)}")
    if steps[u - 1] != UP:
        raise ValueError(f"step {u} is not a rise")
    _require_valid(wd)
    h, w = _height_profile(steps), wd.weights
    if membership == LEFT:  # the least weight after step u-1 (none for u = 1)
        return _span(steps[u - 2] if u > 1 else None, UP, h[u - 1], h[u],
                     w[u - 2] if u > 1 else 0)[0]
    # the greatest weight before step u+1, read on the mirrored path, where
    # step u+1 comes first, both kinds flip and the heights swap
    return _span(DOWN if steps[u] == UP else UP, DOWN, h[u], h[u - 1], w[u])[1]


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


def insertion_word(wd: WeightedDyckPath) -> tuple[tuple[int, ...], InsertionTrace]:
    """Bottom word of an irreducible weighted Dyck path, with the full
    per-rise trace (jump flag, shift, insertion distance, word snapshot)."""
    _require_valid(wd)
    _require_irreducible(wd)
    return _run_insertion(wd.path.steps, wd.weights)


def to_permutation_irreducible(wd: WeightedDyckPath) -> AlternatingPermutation:
    """Image of one irreducible weighted Dyck path: the bottom word by
    insertion, the top word via the mirrored path and alphabet reversal."""
    _require_valid(wd)
    _require_irreducible(wd)
    return AlternatingPermutation._trusted(_map_factor(wd.path.steps, wd.weights))


def to_permutation(wd: WeightedDyckPath) -> AlternatingPermutation:
    """Image of any weighted Dyck path.

    Irreducible factors are mapped independently and their images composed
    with the shifted concatenation, rightmost factor first; consequently the
    sorted bottom letters of the image equal the rise positions of the path.
    """
    _require_valid(wd)
    return AlternatingPermutation._trusted(_map_path(wd.path.steps, wd.weights))


def bottom_traces(wd: WeightedDyckPath) -> InsertionTrace:
    """Bottom-word insertion records for all factors, with positions and
    word snapshots shifted to global step indices."""
    _require_valid(wd)
    steps, weights = wd.path.steps, wd.weights
    out: list[InsertionStep] = []
    for a, b in factor_spans(steps):
        _, trace = _run_insertion(steps[a:b], weights[a:b])
        out.extend(st._replace(position=st.position + a,
                               word_after=tuple(v + a for v in st.word_after))
                   for st in trace)
    return tuple(out)


def flatten_to_single_slope(wd: WeightedDyckPath) -> ParkingFunction:
    """Project the rises of an irreducible weighted path onto one single
    ascent whose insertion run reproduces the standardized bottom word.

    A jumping rise copies the previous image value; a non-jumping one adds
    its shift to its weight, plus one on the right half (offsetting the
    left half's shorter insertion distance).
    """
    _require_valid(wd)
    _require_irreducible(wd)
    return _flatten_run(wd.path.steps, wd.weights)[1]


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


def _membership_checks(p: tuple[int, ...]) -> tuple[str, tuple[tuple[int, int], ...]]:
    """The checks both inverses run on p, in this order: a permutation of
    ints, up-down, no 1234, bottom letters marking a Dyck word, which
    `factor_spans` decides in the walk that finds the word's factors.
    Returns that word and its spans, the cache entry that the forward map
    reads for the preimage; the empty p passes, with the empty word and no
    span.

    No input that passes the up-down check fails the last check, nor the
    block check of `from_permutation`; both stay as guards.  Each top
    letter exceeds the bottom letters on either side of it, so below any
    letter there are at least as many bottom letters as top letters: the
    word never dips below the ground.  Where it returns to the ground
    after 2k steps, the letters 1..2k are k bottom and k top letters, and
    each of those tops has its own bottom and the next one among them, so
    they fill the last k columns: each block holds its factor's letters."""
    if not all(map(isinstance, p, repeat(int))) or sorted(p) != list(range(1, len(p) + 1)):
        raise ValueError("input is not a permutation of 1..N")
    if not is_up_down(p):
        raise NotInImageError("not in image: not an up-down permutation")
    if not avoids_1234(p):
        raise NotInImageError(
            "not in image: contains an increasing subsequence of length 4")
    word = _bottom_word(p)
    spans = factor_spans(word)
    if spans is None:
        raise NotInImageError("not in image: bottom letters do not mark a Dyck path")
    return word, spans


def from_permutation(p: Sequence[int]) -> WeightedDyckPath:
    """The unique weighted Dyck path whose image is p.

    Each irreducible factor is inverted directly from its block of p by
    reading off its insertion runs.  The checks run in this order, and the
    first to fail names the error: ValueError when p is not a permutation
    of 1..N; NotInImageError when p is not up-down, contains 1234, or no
    weighting of a factor maps to its block.  Two guards run between the
    1234 test and the search: the bottom letters mark a Dyck path, and,
    when p has two blocks or more, each block holds its factor's letters.
    Every up-down permutation passes both (see `_membership_checks`), so
    only a bug can trip them, with a NotInImageError.
    """
    p = tuple(p)
    word, spans = _membership_checks(p)
    m = len(p)
    weights = [0] * m
    for a, b in reversed(spans):  # the last factor first: its block leads p
        if len(spans) == 1:  # p is the one block, and holds 1..m
            block = p
        else:
            block = p[m - b:m - a]
            if min(block) <= a or max(block) > b:  # p's letters are distinct
                raise NotInImageError(
                    f"not in image: block {perm_text(block)} does not hold {a + 1}..{b}")
        sol = _invert_factor(word[a:b], [v - a for v in block] if a else block)
        if sol is None:
            raise NotInImageError(
                f"not in image: no weighting of {word[a:b]} maps to block {perm_text(block)}")
        weights[a:b] = sol
    return WeightedDyckPath._trusted(word, tuple(weights))


def from_permutation_brute(p: Sequence[int]) -> WeightedDyckPath:
    """Oracle inverse: enumerate every valid weighting of the path read off
    the bottom letters, map each forward, and return the unique match: the
    entry of `_image_table` whose image is p, found as bytes by bisecting
    the table's sorted index once the membership checks have passed.
    Sizes above 2 * `_BRUTE_CAP_N` are a ValueError."""
    p = tuple(p)
    if len(p) > 2 * _BRUTE_CAP_N:
        raise ValueError(f"size {len(p)} exceeds the brute-force cap 2*{_BRUTE_CAP_N}")
    word, _ = _membership_checks(p)
    weights = _image_table(word).get(bytes(p))
    if weights is None:
        raise NotInImageError("not in image: no weighting of the bottom path matches")
    return WeightedDyckPath._trusted(word, tuple(weights))
