"""Independent brute-force oracles.

Everything here is written from the definitions of the paper's objects:
Dyck words, the weight conditions, the counts, increasing subsequences and
descents.  Nothing reuses the library's pruned generators, patience-based
scans or insertion runs, so an agreement test really compares two routes.
"""

from __future__ import annotations

import itertools
from math import factorial


def brute_dyck_words(n: int) -> list[str]:
    out = []
    for combo in itertools.product("UD", repeat=2 * n):
        h = 0
        for s in combo:
            h += 1 if s == "U" else -1
            if h < 0:
                break
        else:
            if h == 0:
                out.append("".join(combo))
    return out


def brute_heights(steps: str) -> list[int]:
    h = [0]
    for s in steps:
        h.append(h[-1] + (1 if s == "U" else -1))
    return h


def brute_pair_ok(a: str, b: str, wa: int, wb: int, height: int) -> bool:
    """The condition on two consecutive steps a, b meeting at `height`."""
    if a == "U" and b == "U":
        return wa <= wb
    if a == "D" and b == "D":
        return wa >= wb
    if a == "U":
        return wa + wb <= height
    return wa + wb >= height


def brute_weighting_ok(steps: str, w: tuple[int, ...]) -> bool:
    """The five weight conditions, checked literally and globally."""
    h = brute_heights(steps)
    m = len(steps)
    for u in range(1, m + 1):
        if not 0 <= w[u - 1] <= min(h[u - 1], h[u]):
            return False
    return all(brute_pair_ok(steps[u - 1], steps[u], w[u - 1], w[u], h[u])
               for u in range(1, m))


def lex_weightings(steps: str):
    """The valid weightings of one Dyck word in lexicographic order: a
    depth-first search that tries each weight 0..lower height of a step
    against the pair condition with the step before."""
    h = brute_heights(steps)
    w: list[int] = []

    def extend(u):
        if u > len(steps):
            yield tuple(w)
            return
        for v in range(min(h[u - 1], h[u]) + 1):
            if u == 1 or brute_pair_ok(steps[u - 2], steps[u - 1], w[-1], v, h[u - 1]):
                w.append(v)
                yield from extend(u + 1)
                w.pop()

    return extend(1)


def closed_form(n: int) -> int:
    """2(3n)! / (n! (n+1)! (n+2)!), OEIS A005789: the number of weighted
    paths of semilength n."""
    return 2 * factorial(3 * n) // (factorial(n) * factorial(n + 1) * factorial(n + 2))


def word_weighting_count(steps: str) -> int:
    """Valid weightings of one Dyck word: a dynamic program over the weight
    of the last placed step, with every weight in 0..lower height tried
    against the pair condition."""
    h = brute_heights(steps)
    ways = {None: 1}  # weight of the last placed step -> prefixes
    for u in range(1, len(steps) + 1):
        ways = {
            v: sum(c for pv, c in ways.items()
                   if pv is None or brute_pair_ok(steps[u - 2], steps[u - 1], pv, v, h[u - 1]))
            for v in range(min(h[u - 1], h[u]) + 1)
        }
    return sum(ways.values())


def per_word_count(n: int) -> int:
    """Weighted paths of semilength n, counted one Dyck word at a time."""
    return sum(word_weighting_count(steps) for steps in brute_dyck_words(n))


def brute_weighted_set(n: int) -> set[tuple[str, tuple[int, ...]]]:
    """All valid (steps, weights) pairs of semilength n by raw filtering."""
    out = set()
    for steps in brute_dyck_words(n):
        h = brute_heights(steps)
        ranges = [range(0, min(h[u - 1], h[u]) + 1) for u in range(1, len(steps) + 1)]
        for w in itertools.product(*ranges):
            if brute_weighting_ok(steps, w):
                out.add((steps, w))
    if n == 0:
        out.add(("", ()))
    return out


def naive_lis(seq) -> int:
    """Quadratic dynamic program for the longest increasing subsequence."""
    seq = list(seq)
    if not seq:
        return 0
    best = [1] * len(seq)
    for i in range(len(seq)):
        for j in range(i):
            if seq[j] < seq[i] and best[j] + 1 > best[i]:
                best[i] = best[j] + 1
    return max(best)


def contains_1234_naive(p) -> bool:
    """Quadruple scan over positions; the independent oracle for avoids_1234."""
    return any(a < b < c < d for a, b, c, d in itertools.combinations(p, 4))


def contains_123_triple(word) -> bool:
    word = list(word)
    return any(a < b < c for a, b, c in itertools.combinations(word, 3))


def brute_descents(p) -> set[int]:
    return {i for i in range(1, len(p)) if p[i - 1] > p[i]}


def brute_updown_avoiders(n: int) -> set[tuple[int, ...]]:
    """Filter all permutations of size 2n by the definition."""
    want = set(range(2, 2 * n, 2))
    out = set()
    for p in itertools.permutations(range(1, 2 * n + 1)):
        if brute_descents(p) != want:
            continue
        if any(a < b < c < d for a, b, c, d in itertools.combinations(p, 4)):
            continue
        out.add(p)
    return out
