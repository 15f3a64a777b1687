"""Up-down permutations and their pattern toolkit.

Permutations are plain tuples in one-line notation over {1..N}.  An
up-down permutation rises into every even position and falls out of it
(s1 < s2 > s3 < s4 > ...); its letters at odd positions are the *bottom*
letters, those at even positions the *top* letters.  The family of
interest is the up-down permutations of size 2n with no increasing
subsequence of length 4.

The family is enumerated by a backtracker that extends a prefix only when
it can still be completed.  Whether it can is read off the prefix's
patience tails and its unused letters by a test that is exact after every
letter (see enumerate_updown_avoiders), so no branch of the search dies.
The backtracker stops 8 letters (`_SUFFIX`) short of the end, and each
prefix is completed from a table of suffixes in rank space, memoized per
call by the ranks of the prefix's last letter and tails among its unused
letters.  A table is built from the completions of the states one letter
below it (a state is the number of unused letters and those ranks), each
of them built once per call in the same way.  Every permutation, the
first one included, comes after time polynomial in n.  The same
recursion over the states, run from the empty prefix with a count in
place of each state's completions, counts the family without listing it
(count_updown_avoiders).
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from operator import gt, itemgetter, lt
from typing import Callable, Iterable, Iterator, Sequence

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
_NATURAL_LIST = re.compile(r"[0-9]+(?:,[0-9]+)*")


def parse_int_list(text: str) -> tuple[int, ...]:
    """Comma-separated tokens of ASCII digits only, the grammar of both
    permutation and weight text.  Raises ValueError on any other token,
    including the signs, underscores, spaces and non-ASCII digits that
    int() would accept.  One match checks the whole list; the tokens are
    walked only to name the first bad one."""
    if _NATURAL_LIST.fullmatch(text):
        return tuple(map(int, text.split(",")))
    bad = next(tok for tok in text.split(",") if not _NATURAL.fullmatch(tok))
    raise ValueError(f"malformed number {bad!r}")


def parse_perm_text(text: str) -> Permutation:
    body = text.strip()
    if not body:
        return ()
    try:
        return parse_int_list(body)
    except ValueError as exc:
        raise ValueError(f"malformed permutation text {body!r}: {exc}") from None


def perm_record(p: Sequence[int]) -> dict:
    """Streaming record with a stable field name."""
    return {"perm": list(p)}


class _Value:
    """The base of the package's value types, which behave as frozen
    dataclasses do.  A subclass names its fields, in order, as its
    `__slots__`, and its `__init__` checks them and sets them with
    `object.__setattr__`.  Values are equal when they are of one class and
    their fields are equal, and hash over their fields; the repr names
    every field; setting or deleting a field raises AttributeError; and
    copy, deepcopy and pickle rebuild a value through its class's
    constructor, checks and all.  Written out rather than taken from
    `dataclasses`, whose import and class builder cost about a third of
    the package's import."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls.__slots__

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, _value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._fields()


class AlternatingPermutation(_Value):
    """A permutation with the up-down shape, validated at construction.

    Bottom letters sit at odd positions, top letters at even positions.
    Avoidance of 1234 is a property of the family, not of this type; check
    it with avoids_1234 where needed.
    """

    __slots__ = ("perm",)

    def __init__(self, perm: Sequence[int]) -> None:
        perm = tuple(perm)
        if sorted(perm) != list(range(1, len(perm) + 1)):
            raise ValueError("not a permutation of 1..N")
        if not is_up_down(perm):
            raise ValueError("permutation is not up-down")
        object.__setattr__(self, "perm", perm)

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
    return AlternatingPermutation(perm)


def _extend(cur: list[int], free: list[int], tails: list[int],
            stop: int) -> Iterator[None]:
    """The backtracker of enumerate_updown_avoiders: extend the prefix
    `cur` of an up-down permutation of {1..len(cur) + len(free)} that avoids
    1234, in place, and yield each time it is `stop` letters long.  `free`
    is R, the sorted unused letters, and `tails` the prefix's patience
    tails; the three lists hold the state at the yield, and again after the
    generator is exhausted.  Extensions come in lexicographic order, and
    only those that the completion tests say can be completed; `cur` must
    pass those tests itself, as the empty prefix and every prefix yielded
    do (a letter relies on (b), a bottom on (c), at the letter before it)."""
    N = len(cur) + len(free)
    base = len(cur)
    undo: list[tuple[int, int, int]] = []  # per letter: index in R, tail index, old tail
    after = 0  # the next letter tried at this depth must exceed this
    while True:
        d = len(cur)
        if d == stop:
            yield
        else:
            if d & 1:  # a top: rise above the last letter, end at a 4-chain
                bound, ends = N + 1, 3
                if after < cur[-1]:
                    after = cur[-1]
                i = bisect_right(free, after)
                if d > 1 and i < len(free) and free[i] > tails[1]:
                    i = len(free) - 1  # above tails[1] only max R keeps (b)
            else:  # a bottom: fall below the last letter, end at a 3-chain
                bound, ends = (cur[-1] if d else N + 1), 2
                i = bisect_right(free, after)
                low = (len(free) >> 1) - 1  # above tails[0], (c) fails below this index
                if d and i < low and free[i] > tails[0]:
                    i = low
            v = free[i] if i < len(free) else bound
            j = bisect_left(tails, v)
            if v < bound and j < ends:
                del free[i]
                if j == len(tails):
                    undo.append((i, j, 0))
                    tails.append(v)
                else:
                    undo.append((i, j, tails[j]))
                    tails[j] = v
                cur.append(v)
                if d & 1:  # (c); a top leaves at least two tails, and keeps (b)
                    ok = len(free) - bisect_right(free, tails[1]) <= (len(free) + 1) >> 1
                else:  # (a); a bottom keeps (b), and (c) by the skip above
                    ok = free[-1] > v
                if ok:
                    after = 0
                    continue
        # backtrack: drop the last letter and try the next one at its depth
        if len(cur) == base:
            return
        v = cur.pop()
        i, j, old = undo.pop()
        free.insert(i, v)
        if old:
            tails[j] = old
        else:
            tails.pop()
        after = v


# L, the number of letters each suffix table completes.  Even, so that every
# prefix looked up ends at a top.  At 8 there are 70 signatures at n = 6 (over
# 845 prefixes) and 96 at n = 7 and 8 (over 18,275 and 381,425), built from
# 276 states below them, and the tables hold 462 distinct rank records.
# `enumerate --family perm` at n = 6, 7 and 8 on a 2-vCPU host took 0.045,
# 0.65 and 11.0 s at L = 8, 0.072, 1.26 and 23.8 s at L = 6, and 0.069, 0.64
# and 9.4 s at L = 10 (best of 9 runs, of 4 at n = 8); the medians at L = 8,
# 0.080, 0.91 and 12.8 s, were the lowest at each n.
_SUFFIX = 8

# _LIFT[r], a table for bytes.translate, raises every rank >= r by one: it
# takes the rank records of a state to those of the state before it, where
# the letter just placed has rank r.  A rank is below _SUFFIX.
_LIFT = [bytes(range(r)) + bytes(range(r + 1, 256)) + b"\xff" for r in range(_SUFFIX)]


def enumerate_updown_avoiders(n: int) -> Iterator[Permutation]:
    """Up-down permutations of size 2n avoiding 1234, lexicographically.

    A backtracker over positions, driven by an explicit stack (`_extend`),
    places a letter only when the prefix it makes can still be completed.
    The state of a prefix is its patience tails (tails[k] is the least last
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

    When the next position is a bottom (after a top v, with R not empty),
    a completion exists iff (b) and (c) hold.  They are necessary for the
    same reasons.  They are sufficient because some bottom b then passes
    (a), (b) and (c).  |R| = m is even, so (c) leaves at least m/2 letters
    of R below tails[1] <= v (v sits at tail index 1 or 2).  If min R <
    tails[0], take b = min R: tails[1] and the count in (c) stay, within
    ceil((m-1)/2) = m/2.  Otherwise take b the largest letter of R below
    tails[1] other than max R: it becomes tails[1], and the letters of R
    above it are those above tails[1], or max R alone, so at most m/2.  In
    both cases b < v, b < max R, and (b) holds since b keeps tails[2].

    So every prefix placed can be completed, the test after each letter is
    exact, and the walk never enters a branch without an output.
    Candidates rise through R, so the first one that would end an
    increasing 4-chain (a 3-chain at a bottom, which the top after it would
    extend) ends the loop: every larger letter does too.

    Bottoms skip the candidates that fail (c).  At a bottom |R| = m is
    even, and past the first bottom there are at least two tails (the
    first bottom and top rise).  A candidate below tails[0] replaces it;
    tails[1] stays, and so do the letters of R above it, at most
    m/2 = ceil((m-1)/2) by (c) at the top before.  A candidate above tails[0] is
    below tails[1] (or the loop has ended) and replaces it; as the letter
    of index k in R it leaves m - 1 - k letters of R above it, at most
    ceil((m-1)/2) = m/2 iff k >= m/2 - 1.  So the candidates that fail (c)
    are exactly those above tails[0] at an index of R below m/2 - 1: the
    walk jumps past them to that index, and makes no test of (c) at a
    bottom.

    Tops skip the candidates that fail (b).  A top v rises above the
    bottom before it, at least tails[0], so it lands at tail index 1 or 2.
    At index 2, above tails[1], v becomes tails[2], and only v = max R
    passes (b): the walk jumps from the first such candidate to max R.  So
    (b) holds after every letter untested, by induction: vacuously while
    there are under three tails, after a top at index 2 by the jump, and
    after any other letter since tails[2] stays and R only shrinks.
    Reaching the first permutation at n = 600 places 3n - 1 = 1,799
    letters (counted with a list subclass passed to `_extend` as `cur`).

    Suffix tables.  The walk stops at depth 2n - L (L = _SUFFIX, or 0 when
    2n < L) and completes each prefix from a table of its last L letters,
    looked up by a signature: the ranks among R (the number of letters of
    R below it) of the last letter and of each tail; its length gives the
    number of tails.  Two prefixes with the same signature have
    rank-identical completions.  Every test the walk makes below the prefix
    compares a letter of R with another letter of R, with the last letter,
    with a tail, or with 0 or 2n + 1; a tail that a letter of R replaces is
    a letter of R.  The order-preserving map that sends the r-th letter of
    one R to the r-th letter of the other keeps each of those comparisons,
    since a letter of rank r lies below a letter x outside R iff r < the
    rank of x.  So both walks make the same choices at the same ranks, and
    the map keeps lexicographic order.  (At an even depth the last letter
    and tails[2] are implied by the rest: the last letter is a top at tail
    index 1 or 2, so a bottom, which stays below tails[1], stays below it,
    and by (b) tails[2] exceeds all of R, which a missing tails[2] does
    too.  Keying on them keeps the argument free of the walk's tests, for
    96 tables at n >= 7 instead of 35.)

    On a miss, `_completions` builds the table from the states one letter
    below it.  For each next letter that `_extend` places, in increasing
    order, of rank r in R, the completions of the state it leaves follow r,
    with every rank >= r raised by one.  Those states, keyed by |R| and
    signature, have rank-identical completions by the same argument at
    their depth, so each is built once per call, from the states below it
    in turn; and the lift keeps lexicographic order.  At n = 6 the 70
    tables are built from 276 such states, and at n = 7 and 8 the 96
    tables from the same 276.  The states share one bytes object per
    distinct rank record (174 of 4,861 at n = 6), and the table stores
    each completion as an itemgetter of its ranks, one per distinct
    record; an output is the prefix followed by those letters of R.  The
    tables and the states live in this call and are freed with it.

    Groups.  The walk is `_avoider_groups`, which yields one group per
    prefix it looks up: the prefix, its table and R.  This generator
    flattens each group into prefix + get(R) for each getter of the table,
    and `_avoider_lines`, the text of `dyckperm enumerate`, writes the
    prefix once per group and picks each line's last L letters from the
    texts of R.  At n = 6 the 87,516 outputs come in 845 groups.

    Delay.  Between two prefixes at depth 2n - L the walk backtracks at
    most 2n levels and tries at most 2n letters at each, every prefix it
    keeps completes, and a miss builds at most the states below it not yet
    built, a set bounded in L alone, each at a cost bounded in L, a
    constant.  So every permutation, the first one included, comes after
    time polynomial in n.
    """
    for prefix, table, free in _avoider_groups(n):
        for get in table:
            yield prefix + get(free)


def _signature(cur: list[int], free: list[int], tails: list[int]) -> tuple[int, ...]:
    """The ranks among R of the last letter and of each tail, the key of
    the suffix tables (see enumerate_updown_avoiders)."""
    return tuple([bisect_left(free, v) for v in cur[-1:] + tails])


def count_updown_avoiders(n: int) -> int:
    """The number of up-down permutations of size 2n that avoid 1234, as
    many as `enumerate_updown_avoiders(n)` yields, counted without listing
    them: `_completions` run from the empty prefix, with 1 for a finished
    prefix and each next state's count taken as it is.  The recursion is
    2n + 1 frames deep, so Python's default limit is met only near n = 495;
    the work grows about as n^4 (n^3 states, O(n) per step), and n = 25
    takes about 2 s."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return _completions([], list(range(1, 2 * n + 1)), [], {}, 1, lambda _r, count: count)


def _completions(cur: list[int], free: list[int], tails: list[int], memo: dict,
                 done: list[bytes] | int, lift: Callable) -> list[bytes] | int:
    """The package's one recursion over avoider states: the value of the
    completions of the prefix `cur`.  It is `done` once R is empty, and
    otherwise the sum, over each next letter that `_extend` places in
    increasing order, of `lift(r, value)`: r is the letter's rank in R and
    value that of the state it leaves.  That state, keyed by |R| and its
    `_signature`, has its value in `memo`, built on its first visit; all
    prefixes in one state have rank-identical completions (see
    enumerate_updown_avoiders).  `_avoider_groups` sums lists of rank
    records, one byte per letter, in lexicographic order (`[b""]`, and r
    followed by the next state's ranks raised through `_LIFT[r]`), and
    `count_updown_avoiders` counts (1, and the next state's count).  The
    three lists are restored on return."""
    if not free:
        return done
    out = type(done)()  # the empty sum
    for _ in _extend(cur, free, tails, len(cur) + 1):
        sig = _signature(cur, free, tails)  # sig[0], the last letter's rank, is r
        key = (len(free), sig)
        sub = memo.get(key)
        if sub is None:
            sub = memo[key] = _completions(cur, free, tails, memo, done, lift)
        out += lift(sig[0], sub)
    return out


def _avoider_groups(n: int) -> Iterator[tuple[Permutation, list[itemgetter], list[int]]]:
    """The walk of `enumerate_updown_avoiders`, one group per prefix it
    looks up: (the prefix, its suffix table, R).  R is the walk's own list,
    valid until the next group is asked for."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:  # no suffix to look up: an itemgetter needs an index
        yield (), [lambda free: ()], []
        return
    N = 2 * n
    depth = max(N - _SUFFIX, 0)
    cur: list[int] = []
    free = list(range(1, N + 1))  # R, sorted
    tails: list[int] = []
    tables: dict[tuple[int, ...], list[itemgetter]] = {}
    getters: dict[bytes, itemgetter] = {}  # one per rank record
    memo: dict[tuple[int, tuple[int, ...]], list[bytes]] = {}
    records: dict[bytes, bytes] = {}  # one object per distinct rank record

    def lift(r: int, sub: list[bytes]) -> list[bytes]:
        head, shift = bytes((r,)), _LIFT[r]
        return [records.setdefault(x, x) for x in [head + ranks.translate(shift) for ranks in sub]]

    for _ in _extend(cur, free, tails, depth):
        key = _signature(cur, free, tails)
        table = tables.get(key)
        if table is None:
            table = tables[key] = []
            for ranks in _completions(cur, free, tails, memo, [b""], lift):
                if ranks not in getters:
                    getters[ranks] = itemgetter(*ranks)
                table.append(getters[ranks])
        yield tuple(cur), table, free


def _avoider_lines(n: int) -> Iterator[str]:
    """`perm_text(p) + "\\n"` for each `p` of `enumerate_updown_avoiders(n)`,
    in the same order, built without the permutations: each group's prefix
    is written once, and each getter of its table picks its letters' texts
    from the texts of R.  The prefix is empty when 2n <= `_SUFFIX`."""
    for prefix, table, free in _avoider_groups(n):
        head = perm_text(prefix) + "," if prefix else ""
        texts = list(map(str, free))
        for get in table:
            yield head + ",".join(get(texts)) + "\n"


class CriteriaBreakdown(_Value):
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

    __slots__ = ("c1", "c2", "c3", "c4")

    def __init__(self, c1: bool, c2: bool, c3: bool, c4: bool) -> None:
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)
        object.__setattr__(self, "c3", c3)
        object.__setattr__(self, "c4", c4)

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

