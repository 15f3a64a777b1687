"""Up-down permutations and their pattern toolkit.

Permutations are plain tuples in one-line notation over {1..N}.  An
up-down permutation rises into every even position and falls out of it
(s1 < s2 > s3 < s4 > ...); its letters at odd positions are the *bottom*
letters, those at even positions the *top* letters.  The family of
interest is the up-down permutations of size 2n with no increasing
subsequence of length 4.

The family is enumerated by a backtracker that extends a prefix only when
it can still be completed.  Whether it can is read off the prefix's
patience tails and its largest unused letters (see
enumerate_updown_avoiders), so no branch of the search dies more than one
letter below where it went wrong, and every permutation, the first one
included, comes after time polynomial in n.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import gt, lt
from typing import Iterable, Iterator, Sequence

Permutation = tuple[int, ...]

_INF = float("inf")


def descent_set(p: Sequence[int]) -> set[int]:
    """Positions i (1-based) with p_i > p_{i+1}."""
    p = tuple(p)
    return {i for i in range(1, len(p)) if p[i - 1] > p[i]}


def is_up_down(p: Sequence[int]) -> bool:
    """True for even size with descents exactly at the even positions: each
    top letter exceeds the bottom letters on either side of it."""
    bot, top = p[0::2], p[1::2]
    return not len(p) % 2 and all(map(lt, bot, top)) and all(map(gt, top, bot[1:]))


def lis_length(p: Iterable[int]) -> int:
    """Length of the longest strictly increasing subsequence (patience piles)."""
    tails: list[int] = []
    for v in p:
        j = bisect_left(tails, v)
        if j == len(tails):
            tails.append(v)
        else:
            tails[j] = v
    return len(tails)


def avoids_1234(p: Iterable[int]) -> bool:
    """True when no strictly increasing subsequence of length 4 exists."""
    t1 = t2 = t3 = _INF
    for v in p:
        if v < t1:
            t1 = v
        elif v < t2:
            t2 = v
        elif v < t3:
            t3 = v
        else:
            return False
    return True


def avoids_123_word(w: Iterable[int]) -> bool:
    """True when a word of distinct letters has no increasing triple."""
    t1 = t2 = _INF
    for v in w:
        if v < t1:
            t1 = v
        elif v < t2:
            t2 = v
        else:
            return False
    return True


def schutzenberger(p: Sequence[int]) -> Permutation:
    """Reverse the alphabet, then the reading direction; an involution."""
    p = tuple(p)
    N = len(p)
    return tuple(N + 1 - v for v in reversed(p))


def schutzenberger_word(w: Sequence[int], ambient: int) -> tuple[int, ...]:
    """Alphabet and reading reversal for a word over {1..ambient}.

    Unlike the permutation version, not all letters need to appear.
    """
    w = tuple(w)
    for v in w:
        if not 1 <= v <= ambient:
            raise ValueError(f"letter {v} outside 1..{ambient}")
    return tuple(ambient + 1 - v for v in reversed(w))


def shifted_concat(left: Sequence[int], right: Sequence[int]) -> Permutation:
    """left's letters raised by len(right), then right verbatim."""
    left = tuple(left)
    right = tuple(right)
    k = len(right)
    return tuple(v + k for v in left) + right


def standardize(w: Sequence[int]) -> tuple[int, ...]:
    """Replace distinct letters by their ranks 1..len(w), keeping relative order."""
    w = tuple(w)
    rank = {v: i for i, v in enumerate(sorted(w), start=1)}
    if len(rank) != len(w):
        raise ValueError("letters must be distinct")
    return tuple(rank[v] for v in w)


def perm_text(p: Sequence[int]) -> str:
    """Comma-separated one-line notation."""
    return ",".join(map(str, p))


_NATURAL = re.compile(r"[0-9]+")


def parse_int_list(text: str) -> tuple[int, ...]:
    """Comma-separated tokens of ASCII digits only, the grammar of both
    permutation and weight text.  Raises ValueError on any other token,
    including the signs, underscores, spaces and non-ASCII digits that
    int() would accept."""
    tokens = text.split(",")
    for tok in tokens:
        if not _NATURAL.fullmatch(tok):
            raise ValueError(f"malformed number {tok!r}")
    return tuple(int(tok) for tok in tokens)


def parse_perm_text(text: str) -> Permutation:
    body = text.strip()
    if not body:
        return ()
    try:
        return parse_int_list(body)
    except ValueError:
        raise ValueError(f"malformed permutation text {body!r}") from None


def perm_record(p: Sequence[int]) -> dict:
    """Streaming record with a stable field name."""
    return {"perm": list(p)}


@dataclass(frozen=True)
class AlternatingPermutation:
    """A permutation with the up-down shape, validated at construction.

    Bottom letters sit at odd positions, top letters at even positions.
    Avoidance of 1234 is a property of the family, not of this type; check
    it with avoids_1234 where needed.
    """

    perm: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "perm", tuple(self.perm))
        if sorted(self.perm) != list(range(1, len(self.perm) + 1)):
            raise ValueError("not a permutation of 1..N")
        if not is_up_down(self.perm):
            raise ValueError("permutation is not up-down")

    @classmethod
    def _trusted(cls, perm: tuple[int, ...]) -> "AlternatingPermutation":
        """The instance holding `perm`, built without the checks above: for
        the forward map, whose kernel has already checked its output."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "perm", perm)
        return obj

    @property
    def n(self) -> int:
        return len(self.perm) // 2

    @property
    def bot(self) -> tuple[int, ...]:
        return self.perm[0::2]

    @property
    def top(self) -> tuple[int, ...]:
        return self.perm[1::2]


def assemble(bot: Sequence[int], top: Sequence[int]) -> AlternatingPermutation:
    """Interleave bottom and top letters into an up-down permutation.

    The letters must partition {1..2n} and the interleaving must have the
    up-down shape; otherwise ValueError.
    """
    bot = tuple(bot)
    top = tuple(top)
    if len(bot) != len(top):
        raise ValueError(f"{len(bot)} bottom letters but {len(top)} top letters")
    n2 = 2 * len(bot)
    if sorted(bot + top) != list(range(1, n2 + 1)):
        raise ValueError("letters do not partition 1..2n")
    perm = [0] * n2
    perm[0::2] = bot
    perm[1::2] = top
    return AlternatingPermutation(tuple(perm))


def enumerate_updown_avoiders(n: int) -> Iterator[Permutation]:
    """Up-down permutations of size 2n avoiding 1234, lexicographically.

    A backtracker over positions, driven by an explicit stack, that places
    a letter only when the prefix it makes can still be completed.  The
    state of a prefix is its patience tails (tails[k] is the least last
    letter of an increasing subsequence of length k+1; there are at most
    three) and the sorted list R of unused letters.

    Completion test.  When the next position is a top, a completion exists
    iff all of

    (a) max R > the last letter,
    (b) max R < tails[2] when there are three tails,
    (c) when there are at least two tails, the letters of R above tails[1]
        number at most ceil(|R|/2), the top positions still to fill.

    They are necessary: a letter above tails[2] completes a 4-chain
    wherever it goes, and a letter above tails[1] placed at a bottom is
    followed by a larger top, which completes one.  They are sufficient:
    the largest ceil(|R|/2) letters as decreasing tops, interleaved with
    the rest as decreasing bottoms, rise above the last letter by (a), and
    that suffix has no increasing subsequence longer than 2, a bottom
    followed by a later top.  Such a pair lies above tails[1] in neither
    letter, since by (c) every letter above tails[1] is a top, and no
    single suffix letter lies above tails[2], by (b); so no 4-chain forms.

    The full test runs after each bottom letter.  After a top only (b) is
    checked, so a prefix that cannot be completed is dropped at most one
    level below where it arose, and the delay between two outputs is
    polynomial in n.  Candidates rise through R, so the first one that
    would end an increasing 4-chain (a 3-chain at a bottom, which the top
    after it would extend) ends the loop: every larger letter does too.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    N = 2 * n
    free = list(range(1, N + 1))  # R, sorted
    cur: list[int] = []
    tails: list[int] = []
    undo: list[tuple[int, int, int]] = []  # per letter: index in R, tail index, old tail
    after = 0  # the next letter tried at this depth must exceed this
    while True:
        d = len(cur)
        if d == N:
            yield tuple(cur)
        else:
            if d & 1:  # a top: rise above the last letter, end at a 4-chain
                bound, stop = N + 1, 3
                if after < cur[-1]:
                    after = cur[-1]
            else:  # a bottom: fall below the last letter, end at a 3-chain
                bound, stop = (cur[-1] if d else N + 1), 2
            i = bisect_right(free, after)
            v = free[i] if i < len(free) else bound
            j = bisect_left(tails, v)
            if v < bound and j < stop:
                del free[i]
                if j == len(tails):
                    undo.append((i, j, 0))
                    tails.append(v)
                else:
                    undo.append((i, j, tails[j]))
                    tails[j] = v
                cur.append(v)
                if d & 1:  # (b)
                    ok = len(tails) < 3 or not free or free[-1] < tails[2]
                else:  # (a) and (c); (b) held before, and a bottom keeps tails[2]
                    ok = free[-1] > v and (
                        len(tails) < 2
                        or len(free) - bisect_right(free, tails[1]) <= (len(free) + 1) >> 1)
                if ok:
                    after = 0
                    continue
        # backtrack: drop the last letter and try the next one at its depth
        if not cur:
            return
        v = cur.pop()
        i, j, old = undo.pop()
        free.insert(i, v)
        if old:
            tails[j] = old
        else:
            tails.pop()
        after = v


@dataclass(frozen=True)
class CriteriaBreakdown:
    """Four structural conditions on an even-size permutation.

    Their conjunction is equivalent to being an up-down permutation that
    avoids 1234:

    c1  the top letters avoid 123;
    c2  the bottom letters avoid 123;
    c3  every top letter exceeds every bottom letter in its own column or
        any later one (columns pair bottom 2i-1 with top 2i);
    c4  for every bottom letter k preceded by a smaller bottom letter, the
        top letters greater than k from k's column on only descend.
    """

    c1: bool
    c2: bool
    c3: bool
    c4: bool

    @property
    def verdict(self) -> bool:
        return self.c1 and self.c2 and self.c3 and self.c4


def _c1(p: Permutation) -> bool:
    return avoids_123_word(p[1::2])


def _c2(p: Permutation) -> bool:
    return avoids_123_word(p[0::2])


def _c3(p: Permutation) -> bool:
    # Scan columns right to left, tracking the largest bottom seen so far.
    mx = 0
    i = len(p) - 2
    while i >= 0:
        if p[i] > mx:
            mx = p[i]
        if p[i + 1] < mx:
            return False
        i -= 2
    return True


def _c4(p: Permutation) -> bool:
    n = len(p) // 2
    seen_min = _INF
    for j in range(n):
        b = p[2 * j]
        if seen_min < b:
            last = _INF
            for i in range(j, n):
                t = p[2 * i + 1]
                if t > b:
                    if t > last:
                        return False
                    last = t
        if b < seen_min:
            seen_min = b
    return True


def _criteria_verdict(p: Permutation) -> bool:
    # Same conjunction as membership_criteria, ordered for early exits.
    return _c3(p) and _c1(p) and _c2(p) and _c4(p)


def membership_criteria(p: Sequence[int]) -> CriteriaBreakdown:
    """Evaluate the four conditions of CriteriaBreakdown on an even-size
    permutation (up-down or not)."""
    p = tuple(p)
    if len(p) % 2:
        raise ValueError("size must be even")
    return CriteriaBreakdown(_c1(p), _c2(p), _c3(p), _c4(p))

