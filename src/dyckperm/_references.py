"""The verification suites' own references: each computes what a suite
compares the package against, independently of the code under test.
`top_word_direct` reads the falls straight off the path, where the forward
map inserts the rises of the mirrored path; `_up_down_perms` lists the
up-down permutations without reference to 1234; `_parking_functions` lists
the non-decreasing parking functions by an odometer.  `a005789`, `catalan`
and `euler_zigzag` are the count checks' sequences, each from its formula,
so a check holds at every size.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from math import comb, factorial
from typing import Iterator

# the cut is read through its module, so a patch of it reaches the
# reference too
from . import _insertion
from .paths import DOWN, WeightedDyckPath, _runs, heights


def top_word_direct(wd: WeightedDyckPath) -> tuple[int, ...]:
    """Top word computed by scanning the falls directly, right to left.

    The down slopes are processed from the right with the left/right roles
    swapped (the rightmost half of the down slopes uses the minimality
    rule), insertion distances are measured from the left, and jumping
    elements go to the right end.  Must equal the top word the forward
    map builds, from the top frame of the word's plan.
    """
    downs = [r for r in _runs(wd.path.steps) if r.kind == DOWN]
    return _top_word_direct(heights(wd), downs, wd.weights)


def _top_word_direct(h: tuple[int, ...], runs: list, w: tuple[int, ...]
                     ) -> tuple[int, ...]:
    """`top_word_direct` of the weights w on the word with height profile h
    and down slopes `runs`, which a caller over many weightings of one word
    reads once."""
    m = len(h) - 1
    cut = _insertion._left_count(len(runs))
    word: list[int] = []
    falls_right = 0  # falls strictly right of the slope
    # the s-th down slope from the right takes the s-th up slope's half
    for s, run in enumerate(reversed(runs)):
        length = run.length
        end = run.start + length - 1
        shift = (m - end) - falls_right  # rises strictly right of the slope
        falls_right += length
        minimal = s < cut
        for off in range(length):
            pos = end - off  # bottom-up within the slope
            wu = w[pos - 1]
            lower = h[pos]
            if minimal:
                if off > 0:
                    bound = w[pos]  # fall just below on the same slope
                elif pos == m:
                    bound = 0
                else:
                    # valley after the slope: rise weight e caps the minimum
                    bound = h[pos] - w[pos]
                jumped = wu == bound
                dist = wu + shift - 1
            else:
                if off < length - 1:
                    bound = min(lower, w[pos - 2])  # fall just above
                else:
                    # peak atop the slope: rise weight e caps the maximum
                    bound = min(lower, h[pos - 1] - w[pos - 2])
                jumped = wu == bound
                dist = wu + shift
            if jumped:
                word.append(pos)
            else:
                word.insert(dist, pos)
    return tuple(word)


def _up_down_perms(m: int) -> Iterator[tuple[int, ...]]:
    """Up-down permutations of size 2m (ascents at odd positions, descents
    at even ones, 1-based), lexicographically: a plain backtracker that
    tries, in increasing order, the unused letters above the last one at
    an odd position and those below it at an even one.  The last two
    letters are placed at once: the smaller is the bottom when it is below
    the last top, and the larger follows it.  It knows nothing of the
    pattern 1234."""
    size = 2 * m
    prefix: list[int] = []
    unused = list(range(1, size + 1))

    def extend() -> Iterator[tuple[int, ...]]:
        if len(prefix) == size:  # m = 0 only
            yield tuple(prefix)
            return
        if len(prefix) == size - 2:  # a bottom, then a top above it
            low, high = unused
            if not prefix or low < prefix[-1]:
                yield (*prefix, low, high)
            return
        if not prefix:
            candidates = range(len(unused))
        elif len(prefix) % 2:
            candidates = range(bisect_left(unused, prefix[-1]), len(unused))
        else:
            candidates = range(bisect_left(unused, prefix[-1]))
        for i in candidates:
            prefix.append(unused.pop(i))
            yield from extend()
            unused.insert(i, prefix.pop())

    return extend()


def _parking_functions(n: int) -> Iterator[tuple[int, ...]]:
    """Weakly increasing (v_0..v_{n-1}) with v_i <= i, lexicographically:
    an odometer that raises the last entry below its cap and resets the
    later ones to it."""
    vals = [0] * n
    while True:
        yield tuple(vals)
        i = n - 1
        while i >= 0 and vals[i] == i:
            i -= 1
        if i < 0:
            return
        vals[i] += 1
        vals[i + 1:] = [vals[i]] * (n - 1 - i)


def a005789(n: int) -> int:
    """OEIS A005789 at n, the common size of both families: the tableaux
    of shape (n, n, n) by the hook length formula, 2(3n)!/(n!(n+1)!(n+2)!)."""
    return 2 * factorial(3 * n) // (factorial(n) * factorial(n + 1) * factorial(n + 2))


def catalan(n: int) -> int:
    """OEIS A000108 at n: the non-decreasing parking functions of length n."""
    return comb(2 * n, n) // (n + 1)


def euler_zigzag(m: int) -> int:
    """OEIS A000364 at m, the up-down permutations of size 2m: the last
    entry of row 2m of Seidel's boustrophedon, each row the running sums
    of the one before it, read backwards."""
    row = [1]
    for _ in range(2 * m):
        row = list(accumulate(reversed(row), initial=0))
    return row[-1]
