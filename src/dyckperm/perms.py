"""Up-down permutations and their pattern toolkit.

Permutations are plain tuples in one-line notation over {1..N}.  An
up-down permutation rises into every even position and falls out of it
(s1 < s2 > s3 < s4 > ...); its letters at odd positions are the *bottom*
letters, those at even positions the *top* letters.  The family of
interest is the up-down permutations of size 2n with no increasing
subsequence of length 4.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

Permutation = tuple[int, ...]

_INF = float("inf")


def descent_set(p: Sequence[int]) -> set[int]:
    """Positions i (1-based) with p_i > p_{i+1}."""
    p = tuple(p)
    return {i for i in range(1, len(p)) if p[i - 1] > p[i]}


def is_up_down(p: Sequence[int]) -> bool:
    """True for even size with descents exactly at the even positions."""
    if len(p) % 2:
        return False
    for i in range(len(p) - 1):
        if (p[i] < p[i + 1]) != (i % 2 == 0):
            return False
    return True


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

    Backtracks position by position with the shape constraint built into
    the candidate ranges and an incremental patience bound that never
    extends a prefix whose longest increasing subsequence already exceeds 3.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        yield ()
        return
    N = 2 * n
    used = [False] * (N + 1)
    cur: list[int] = []
    tails: list[int] = []

    def rec() -> Iterator[Permutation]:
        pos = len(cur) + 1
        if pos > N:
            yield tuple(cur)
            return
        if pos == 1:
            lo, hi = 1, N
        elif pos % 2 == 0:  # rise into an even position
            lo, hi = cur[-1] + 1, N
        else:  # fall into an odd position
            lo, hi = 1, cur[-1] - 1
        for v in range(lo, hi + 1):
            if used[v]:
                continue
            j = bisect_left(tails, v)
            if j == 3:
                continue  # would complete an increasing 4-chain
            if j == len(tails):
                tails.append(v)
                old = None
            else:
                old = tails[j]
                tails[j] = v
            used[v] = True
            cur.append(v)
            yield from rec()
            cur.pop()
            used[v] = False
            if old is None:
                tails.pop()
            else:
                tails[j] = old

    yield from rec()


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


def contains_1234_naive(p: Sequence[int]) -> bool:
    """Quadruple scan over positions; the independent oracle for avoids_1234."""
    return any(a < b < c < d for a, b, c, d in combinations(p, 4))
