"""Independent brute-force oracles.

Everything here is written from the definitions, without reusing the
library's pruned generators or patience-based scans, so that agreement
tests really compare two routes.  The per-path reference loops at the end
are the exception: they reuse the forward map and the enumerators, and
differ from the suites in mapping every path on its own.  So are the
per-frame forward map and inverse after them, which run the insertions of
each frame on its own path, the mirror built and read back per call, and
settle the inverse's jumps in passes.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from math import factorial

import dyckperm.bijection as bijection
from dyckperm.bijection import (
    LEFT,
    InsertionOverflowError,
    InternalConsistencyError,
    NotInImageError,
    flatten_to_single_slope,
    parking_to_123_avoiding,
    to_permutation,
)
from dyckperm.paths import (
    DyckPath,
    WeightedDyckPath,
    _fits,
    _height_profile,
    _reflected_steps,
    _span,
    _step_rows,
    enumerate_weighted,
    enumerate_weightings,
    factor_spans,
    heights,
    serialize_path,
)
from dyckperm.perms import (
    assemble,
    avoids_1234,
    enumerate_updown_avoiders,
    is_up_down,
    perm_text,
    schutzenberger_word,
    standardize,
)


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


# Per-path reference loops for the suites that read images from the
# oracle's per-word table: each path is mapped forward on its own, so they
# record every failure, under either split rule, without the table.  The
# same goes for the other suites whose per-instance work the library
# shares: each reference repeats it per instance.

def _fail(input_text: str, expected: str, actual: str) -> dict:
    return {"input": input_text, "expected": expected, "actual": actual}


def per_path_bijectivity(cap: int, rule: str) -> tuple[int, list[dict]]:
    """(checked, failures) of the bijectivity suite: repeated images in
    enumeration order, then the missed avoiders and the images outside the
    family, each sorted."""
    checked = 0
    failures: list[dict] = []
    for n in range(cap + 1):
        seen = {}
        for wd in enumerate_weighted(n):
            perm = to_permutation(wd, rule).perm
            checked += 1
            if perm in seen:
                failures.append(_fail(
                    serialize_path(wd), "a fresh image",
                    f"{perm_text(perm)} already hit by {serialize_path(seen[perm])}"))
            else:
                seen[perm] = wd
        target = set(enumerate_updown_avoiders(n))
        checked += len(target)
        for perm in sorted(target - set(seen)):
            failures.append(_fail(perm_text(perm), "hit by some weighted path", "missed"))
        for perm in sorted(set(seen) - target):
            failures.append(_fail(serialize_path(seen[perm]),
                                  "an up-down permutation avoiding 1234", perm_text(perm)))
    return checked, failures


def per_path_statistic(cap: int, rule: str) -> tuple[int, list[dict]]:
    """(checked, failures) of the statistic suite: the sorted bottom letters
    of each image against the rise positions of its path."""
    checked = 0
    failures: list[dict] = []
    for n in range(cap + 1):
        for wd in enumerate_weighted(n):
            checked += 1
            bots = sorted(to_permutation(wd, rule).perm[0::2])
            ups = [i for i, s in enumerate(wd.path.steps, start=1) if s == "U"]
            if bots != ups:
                failures.append(_fail(serialize_path(wd), str(ups), str(bots)))
    return checked, failures


def per_path_image_table(steps: str, rule: str) -> dict:
    """perm -> weights of one word, every weighting mapped with
    `to_permutation`, raising on a repeated image as the library's table
    does."""
    table = {}
    for wd in enumerate_weightings(DyckPath(steps)):
        perm = to_permutation(wd, rule).perm
        if perm in table:
            raise InternalConsistencyError(
                f"two weightings of {steps} share the image {perm}")
        table[perm] = wd.weights
    return table


def per_permutation_criteria(cap: int, verdict) -> tuple[int, list[dict]]:
    """(checked, failures) of the criteria suite: `verdict` against
    up-down and 1234-avoiding on every permutation, one at a time."""
    checked = 0
    failures: list[dict] = []
    for m in range(cap + 1):
        for p in itertools.permutations(range(1, 2 * m + 1)):
            checked += 1
            ground = is_up_down(p) and avoids_1234(p)
            if verdict(p) != ground:
                failures.append(_fail(perm_text(p), str(ground), str(not ground)))
    return checked, failures


def _irreducible_paths(n: int):
    return (wd for wd in enumerate_weighted(n) if len(factor_spans(wd.path.steps)) <= 1)


def _local_span(steps, h, i, left_w, right_w):
    lo, hi = _span(None, steps[i - 1], h[i - 1], h[i], 0)
    if left_w is not None:
        a, b = _span(steps[i - 2], steps[i - 1], h[i - 1], h[i], left_w)
        lo, hi = max(lo, a), min(hi, b)
    if right_w is not None:
        prev, kind = _reflected_steps(steps[i - 1:i + 1])
        a, b = _span(prev, kind, h[i], h[i - 1], right_w)
        lo, hi = max(lo, a), min(hi, b)
    return lo, hi


def per_path_insertion_lemma(cap: int, rule: str) -> tuple[int, list[dict]]:
    """(checked, failures) of the insertion_lemma suite: per path, a traced
    insertion run, its rises, and each rise's feasible weights from
    `_span` given its fixed neighbours."""
    checked = 0
    failures: list[dict] = []
    for n in range(cap + 1):
        for wd in _irreducible_paths(n):
            checked += 1
            steps = wd.path.steps
            h = heights(wd)
            weights = wd.weights
            try:
                _, trace = bijection._run_insertion(steps, weights, rule, want_trace=True)
            except InsertionOverflowError as exc:
                failures.append(_fail(serialize_path(wd), "no insertion overflow", str(exc)))
                continue
            infos = bijection._up_infos(steps, rule)
            prev_shift = 0
            for length_before, (info, st) in enumerate(zip(infos, trace)):
                if st.shift < prev_shift:
                    failures.append(_fail(serialize_path(wd), "non-decreasing shifts",
                                          f"rise {st.position}"))
                prev_shift = st.shift
                bound = info.bounds[weights[info.nb - 1]]
                left_w = weights[info.pos - 2] if info.pos >= 2 else None
                right_w = weights[info.pos] if info.pos < len(steps) else None
                lo, hi = _local_span(steps, h, info.pos, left_w, right_w)
                dists = set()
                for alt in range(lo, hi + 1):
                    if alt == bound:
                        continue
                    d = alt + info.shift - (1 if info.membership == LEFT else 0)
                    if d < 0 or d >= length_before:
                        failures.append(_fail(
                            serialize_path(wd),
                            f"feasible weight {alt} of rise {info.pos} lands in [0,{length_before})",
                            f"distance {d}"))
                    if d < st.shift:
                        failures.append(_fail(
                            serialize_path(wd),
                            f"distance of rise {info.pos} at least shift {st.shift}",
                            f"distance {d}"))
                    if d in dists:
                        failures.append(_fail(
                            serialize_path(wd), f"distinct distances at rise {info.pos}",
                            f"repeat {d}"))
                    dists.add(d)
    return checked, failures


def per_path_transformation(cap: int, rule: str) -> tuple[int, list[dict]]:
    """(checked, failures) of the transformation suite: per path, the
    flattening, then a second, untraced insertion run for the word."""
    checked = 0
    failures: list[dict] = []
    for n in range(cap + 1):
        for wd in _irreducible_paths(n):
            checked += 1
            try:
                pf = flatten_to_single_slope(wd, rule)
            except Exception as exc:  # noqa: BLE001
                failures.append(_fail(serialize_path(wd), "a valid parking function", str(exc)))
                continue
            word, _ = bijection._run_insertion(wd.path.steps, wd.weights, rule, want_trace=False)
            expect = standardize(word)
            got = parking_to_123_avoiding(pf)
            if got != expect:
                failures.append(_fail(serialize_path(wd), perm_text(expect), perm_text(got)))
    return checked, failures


def per_frame_map_factor(steps: str, weights: tuple[int, ...], rule: str) -> tuple[int, ...]:
    """The image of one irreducible factor built frame by frame: the
    insertion run of the path gives the bottom word, and that of the
    mirrored path, read back through the alphabet reversal, the top word."""
    bot, _ = bijection._run_insertion(steps, weights, rule, want_trace=False)
    raw, _ = bijection._run_insertion(_reflected_steps(steps), weights[::-1], rule,
                                      want_trace=False)
    return assemble(bot, schutzenberger_word(raw, len(steps))).perm


def per_frame_read_off(steps: str, target: tuple[int, ...], rule: str):
    """Each rise of `steps`, as its `_up_infos` record, with the weight its
    insertion index in `target` implies, or None for a jump."""
    rank = {letter: i for i, letter in enumerate(target)}
    placed: list[int] = []
    out = []
    for info in bijection._up_infos(steps, rule):
        idx = bisect_left(placed, rank[info.pos])
        dist = len(placed) - idx
        placed.insert(idx, rank[info.pos])
        out.append((info, dist - info.off if idx else None))
    return out


def pass_settle(w: list, jumps: list) -> None:
    """Set each unset jump (step, neighbour, record) to its bound once the
    neighbour it reads is set, pass after pass, until a pass sets nothing."""
    pending = [j for j in jumps if w[j[0]] is None]
    while pending:
        ready = [j for j in pending if w[j[1]] is not None]
        if not ready:
            return
        for step, nb, info in ready:
            w[step] = info.bounds[w[nb]]
        pending = [j for j in pending if w[j[0]] is None]


def _per_frame_certify(steps: str, w: list, nonjumps: list):
    if any(w[s] == info.bounds[w[nb]] for s, nb, info in nonjumps):
        return None
    weights = tuple(w[1:-1])
    return weights if _fits(_step_rows(steps), weights) else None


def per_frame_invert_factor(steps: str, image: tuple[int, ...], rule: str) -> list:
    """Every weighting of the irreducible path `steps` whose image is the
    standardized `image`: the bottom word read off the path, the top word
    off its mirror, mapped back to the path's steps per rise, the jumps
    settled in passes and each peak or valley cycle tried over its range."""
    m = len(steps)
    h = _height_profile(steps)
    w: list = [0] + [None] * m + [0]
    jumps: list = []
    nonjumps: list = []
    topref = tuple(m + 1 - t for t in reversed(image[1::2]))
    for frame, target, mirrored in ((steps, image[0::2], False),
                                    (_reflected_steps(steps), topref, True)):
        for info, weight in per_frame_read_off(frame, target, rule):
            step, nb = info.pos, info.nb
            if mirrored:
                step, nb = m + 1 - step, m + 1 - nb
            if weight is None:
                jumps.append((step, nb, info))
            elif weight < 0:
                return []
            else:
                w[step] = weight
                nonjumps.append((step, nb, info))
    pass_settle(w, jumps)
    stuck = {step: (nb, info) for step, nb, info in jumps if w[step] is None}
    if not stuck:
        weights = _per_frame_certify(steps, w, nonjumps)
        return [] if weights is None else [weights]
    cycles = [s for s, (nb, _) in stuck.items() if s < nb and stuck[nb][0] == s]
    found = []
    for values in itertools.product(*(range(min(h[s - 1], h[s]) + 1) for s in cycles)):
        for s in stuck:
            w[s] = None
        for s, v in zip(cycles, values):
            w[s] = v
        pass_settle(w, jumps)
        if any(w[s] != stuck[s][1].bounds[w[stuck[s][0]]] for s in cycles):
            continue
        weights = _per_frame_certify(steps, w, nonjumps)
        if weights is not None:
            found.append(weights)
    return found


def per_frame_from_permutation(p, rule: str) -> WeightedDyckPath:
    """`from_permutation` with each factor inverted by
    `per_frame_invert_factor` from its block standardized."""
    p = tuple(p)
    if not p:
        return WeightedDyckPath(DyckPath(""), ())
    path, word = bijection._membership_checks(p)
    weights = [0] * len(p)
    preimages = 1
    offset = 0
    for a, b in reversed(factor_spans(word)):
        block = p[offset:offset + b - a]
        offset += b - a
        if set(block) != set(range(a + 1, b + 1)):
            raise NotInImageError(
                f"not in image: block {perm_text(block)} does not hold {a + 1}..{b}")
        sols = per_frame_invert_factor(word[a:b], standardize(block), rule)
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
