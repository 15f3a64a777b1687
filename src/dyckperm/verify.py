"""Executable property suites.

Each suite turns one structural claim about the bijection into an
exhaustive pass/fail check over all instances up to a size cap, reporting
counterexamples in the canonical text serializations so that any failure
can be replayed through the CLI.  Running every suite at the default caps
is the package's acceptance gate.

Each suite is a per-size step, `(n, failures) -> checked`: it checks
the instances of size n, appends their failures in the deterministic order
it enumerates them, and returns how many it checked.  `run_suite` runs the
step at each n up to the cap, so every suite lists its failures by size;
`product` lists its pair failures by total size, then by the first
factor's size.
"""

from __future__ import annotations

import heapq
import itertools
import time
from math import factorial
from typing import Iterator, Optional

# the kernel is read through its module, so a fault patched into it reaches
# the suites too
from . import _insertion
from ._references import (
    _parking_functions,
    _top_word_direct,
    _up_down_perms,
    a005789,
    catalan,
    euler_zigzag,
)
from .bijection import (
    InternalConsistencyError,
    ParkingFunction,
    from_permutation,
    parking_to_123_avoiding,
    to_permutation,
)
from .paths import (
    DOWN,
    UP,
    DyckPath,
    WeightedDyckPath,
    _dyck_words,
    _odometer,
    _path_text,
    _reflected_steps,
    _runs,
    _step_rows,
    concat,
    count_weighted,
    heights,
    serialize_path,
)
from .perms import (
    _criteria_verdict,
    _Value,
    avoids_123_word,
    avoids_1234,
    count_updown_avoiders,
    enumerate_updown_avoiders,
    perm_text,
    schutzenberger,
    shifted_concat,
    standardize,
)

# The first values of the count checks' sequences, each of which the
# suites compute at every size from its formula: A005789, the common size
# of both families, and the Catalan numbers for n <= 8, and the Euler
# zigzag numbers E_0, E_2, ..., E_10.
REFERENCE_COUNTS = tuple(map(a005789, range(9)))
EULER_ZIGZAG = tuple(map(euler_zigzag, range(6)))
CATALAN = tuple(map(catalan, range(9)))


class VerificationReport(_Value):
    """Outcome of one suite: sizes covered, instances checked, failures."""

    __slots__ = ("suite", "n_range", "checked", "failures", "elapsed")

    def __init__(self, suite: str, n_range: tuple[int, int], checked: int,
                 failures: tuple[dict, ...], elapsed: float) -> None:
        object.__setattr__(self, "suite", suite)
        object.__setattr__(self, "n_range", n_range)
        object.__setattr__(self, "checked", checked)
        object.__setattr__(self, "failures", failures)
        object.__setattr__(self, "elapsed", elapsed)

    @property
    def verdict(self) -> str:
        return "pass" if not self.failures else "fail"

    def to_record(self) -> dict:
        return {
            "suite": self.suite,
            "nRange": list(self.n_range),
            "checked": self.checked,
            "failures": list(self.failures),
            "verdict": self.verdict,
            "elapsed": round(self.elapsed, 3),
        }


def _fail(input_text: str, expected: str, actual: str) -> dict:
    return {"input": input_text, "expected": expected, "actual": actual}


def _irreducible_words(n: int) -> Iterator[str]:
    """The Dyck words of semilength n with at most one factor, in order:
    the empty word at n = 0, else each word of semilength n - 1 raised
    between a first rise and a last fall."""
    if not n:
        return iter(("",))
    return ("U" + word + "D" for word in _dyck_words(n - 1))


def _table(word: str, failures: list[dict]) -> _insertion.ImageTable:
    """The `_image_table` of one Dyck word, which every suite that reads
    images goes through, so each path is mapped forward once per process
    however many suites read it.  Its images and weightings are bytes,
    which `perm_text` and `_path_text` write as they write tuples of ints.
    A table whose build raises a guard of the forward map (two weightings
    with one image, say) is one failure of the word, recorded here, and
    an empty table, so the word's paths are not checked."""
    try:
        return _insertion._image_table(word)
    except InternalConsistencyError as exc:
        failures.append(_fail(word, "an image for every weighting", str(exc)))
        return _insertion.ImageTable(word, b"", ())


def _suite_counts(n: int, failures: list[dict]) -> int:
    """Both families' counters against `a005789(n)`, the hook length
    formula, each in its own record, and then against each other."""
    got = count_weighted(n)
    ref = a005789(n)
    if got != ref:
        failures.append(_fail(f"weighted paths, n={n}", str(ref), str(got)))
    perm_count = count_updown_avoiders(n)
    if perm_count != ref:
        failures.append(_fail(f"up-down avoiders, n={n}", str(ref), str(perm_count)))
    if got != perm_count:
        failures.append(_fail(f"family sizes, n={n}", str(got), str(perm_count)))
    return 2


def _suite_bijectivity(n: int, failures: list[dict]) -> int:
    """One streaming merge decides the size and names its failures, and it
    copies no table.  `heapq.merge` interleaves the sorted runs of the
    words' tables, each image tagged with its word's index, so equal images
    meet lowest word first; the merged stream is walked against
    `enumerate_updown_avoiders(n)`, each avoider as bytes (bytes of one
    length order as the tuples of their ints do).  No table holds one image
    twice (`_image_table`'s neighbour scan raises on that), so the records
    are: a repeat, an image equal to the one before it, named with the
    first path that has it; a miss, an avoider below the next new image;
    and an image outside the family, a new image that the next avoider does
    not equal.  With no record, the merged images are strictly increasing
    and equal the avoiders item for item, with the same length: they are
    distinct (the map is injective) and exactly the avoiders (every avoider
    is hit, and no image lies outside), which proves the pass.  `checked`
    counts each image and each avoider once.  A path is named by looking
    its image up in its own word's table, once per name.

    Each record is written where it is met: `_table` records the words
    whose tables raise, in word order, as the runs are built; then the
    merge writes the repeats, misses and images outside the family in
    image order."""
    words = list(_dyck_words(n))
    tables = [_table(word, failures) for word in words]

    def path(i: int, image: bytes) -> str:
        return _path_text(words[i], tables[i].get(image))

    def miss(p: bytes) -> dict:
        return _fail(perm_text(p), "hit by some weighted path", "missed")

    runs = [zip(t.sorted_images(), itertools.repeat(i)) for i, t in enumerate(tables)]
    avoiders = map(bytes, enumerate_updown_avoiders(n))
    avoider = next(avoiders, None)
    checked, first, first_i = 0, None, 0
    for image, i in heapq.merge(*runs):
        checked += 1
        if image == first:
            failures.append(_fail(path(i, image), "a fresh image",
                                  f"{perm_text(image)} already hit by {path(first_i, image)}"))
            continue
        first, first_i = image, i
        while avoider is not None and avoider < image:
            checked += 1
            failures.append(miss(avoider))
            avoider = next(avoiders, None)
        if avoider == image:
            checked += 1
            avoider = next(avoiders, None)
        else:
            failures.append(_fail(path(i, image), "an up-down permutation avoiding 1234",
                                  perm_text(image)))
    if avoider is not None:
        avoiders = itertools.chain((avoider,), avoiders)
    for p in avoiders:
        checked += 1
        failures.append(miss(p))
    return checked


def _suite_roundtrip(n: int, failures: list[dict]) -> int:
    """Each path's image comes from `_table`, the brute-force oracle's
    table of one Dyck word, so each path is mapped forward once, and
    `from_permutation` must recover the path.  The oracle's inverse is not
    run: it reads the table of the word the image's bottom letters mark,
    so on a recovered path it reads the entry the loop is on.  A word
    whose table raises is recorded by `_table`, and its empty table
    checks nothing.  A path's text is built only for a failure."""
    checked = 0
    for word in _dyck_words(n):
        table = _table(word, failures)
        for sigma, weights in table.items():
            checked += 1
            try:
                back = from_permutation(sigma)
            except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
                failures.append(_fail(_path_text(word, weights), "inverse succeeds",
                                      f"{type(exc).__name__}: {exc}"))
                continue
            if (back.path.steps, bytes(back.weights)) != (word, weights):
                text = _path_text(word, weights)
                failures.append(_fail(text, text, serialize_path(back)))
    return checked


def _suite_schutzenberger(n: int, failures: list[dict]) -> int:
    """Both images come from `_table`: a path's own from its word's table,
    and its mirror's from the reflected word's table, at the reversed
    weights, which are the mirror's.  Each table maps its own word
    forward, and neither is built from the other, so the check stays
    independent of the rule it checks.  A word whose table raises is
    recorded once, at its own turn; its empty table, or its mirror's, is
    falsy, so neither its paths nor their mirrors are checked."""
    checked = 0
    for word in _dyck_words(n):
        table = _table(word, failures)
        mirror = _table(_reflected_steps(word), [])
        if not (table and mirror):
            continue
        mirrored = {weights: image for image, weights in mirror.items()}
        for image, weights in table.items():
            checked += 1
            lhs = mirrored.get(weights[::-1], b"")
            rhs = bytes(schutzenberger(image))
            if lhs != rhs:
                failures.append(_fail(_path_text(word, weights), perm_text(rhs), perm_text(lhs)))
    return checked


def _mapped(a: int) -> Iterator[tuple]:
    """(path, image) of each weighted path of size a, in enumeration order,
    both read from `_table`, whose table of a raising word is empty."""
    for word in _dyck_words(a):
        table = _table(word, [])
        path = DyckPath(word)
        for image, weights in table.items():
            yield WeightedDyckPath(path, weights), image


def _suite_product(n: int, failures: list[dict]) -> int:
    """The pairs whose sizes add up to n, by the first factor's size, with
    images from `_mapped`.  At each split the shorter factor, of size at
    most n // 2, is held and the longer one is streamed.  A word whose
    table raises is one failure, recorded at its own size before the
    pairs, and its paths are left out of them, as `statistic` leaves them
    unchecked.  Each concatenation is mapped with `to_permutation`, the
    independent check of the composition that `_image_table` borrows."""
    for word in _dyck_words(n):
        _table(word, failures)
    short = [list(_mapped(k)) for k in range(n // 2 + 1)]
    checked = 0
    for a in range(n + 1):
        b = n - a
        for p, p_img in short[a] if a <= b else _mapped(a):
            for q, q_img in short[b] if b <= a else _mapped(b):
                checked += 1
                lhs = to_permutation(concat(p, q)).perm
                rhs = shifted_concat(q_img, p_img)
                if lhs != rhs:
                    failures.append(_fail(f"{serialize_path(p)} * {serialize_path(q)}",
                                          perm_text(rhs), perm_text(lhs)))
    return checked


def _suite_statistic(n: int, failures: list[dict]) -> int:
    """Images come from `_table`, which records a word whose table
    raises.  The check reads only the images, and a failure's weighting
    is looked up by its image, which no other entry of the table has."""
    checked = 0
    for word in _dyck_words(n):
        ups = [i for i, s in enumerate(word, start=1) if s == UP]
        table = _table(word, failures)
        for perm in table:
            checked += 1
            bots = sorted(perm[0::2])
            if bots != ups:
                failures.append(_fail(_path_text(word, table.get(perm)), str(ups), str(bots)))
    return checked


def _suite_criteria(m: int, failures: list[dict]) -> int:
    """Every permutation of size 2m is checked: `_criteria_verdict` runs on
    all (2m)! of them, through `filter`, and the ones it accepts come out
    in lexicographic order, as `itertools.permutations` makes them.  The
    ground truth, up-down and 1234-avoiding, is `_up_down_perms` filtered
    by `avoids_1234`, streamed in lexicographic order too; its up-down
    permutations are counted as they pass, and a count other than
    `euler_zigzag(m)` is recorded when that stream ends, after the
    permutations' records.  A permutation is a failure exactly when it
    lies in one of the two sorted streams and not the other, so merging
    them yields the failures of a loop that compares the verdict with the
    ground truth on every permutation, in the same order, with the same
    text.  Each permutation occurs once in each stream, so one met once
    is a failure, and its verdict says which stream it came from: accepted
    outside the ground set is expected False, rejected inside it True."""
    tally = itertools.count()
    # zip draws one number per up-down permutation, so next(tally) counts them
    ground = (p for p, _ in zip(_up_down_perms(m), tally) if avoids_1234(p))
    accepted = filter(_criteria_verdict, itertools.permutations(range(1, 2 * m + 1)))
    for p, met in itertools.groupby(heapq.merge(accepted, ground)):
        if len(list(met)) == 1:
            v = _criteria_verdict(p)
            failures.append(_fail(perm_text(p), str(not v), str(v)))
    up_down = next(tally)
    ref = euler_zigzag(m)
    if up_down != ref:
        failures.append(_fail(f"up-down permutations, size={2 * m}", str(ref), str(up_down)))
    return factorial(2 * m)


def _suite_insertion_lemma(n: int, failures: list[dict]) -> int:
    """Per irreducible word, its plan's bottom frame and its span rows are
    read once.  The feasible weights of a rise given its fixed neighbours
    are the intersection of two spans: the one its own row gives at the
    left neighbour's weight (the first step's one-entry row gives C1 alone),
    and the one the mirrored word's row gives at the right neighbour's
    weight, where that neighbour comes first, both kinds flip and the
    heights swap.  Both rows include C1, and the bound reads one of them.
    A non-jumping weight alt lands at distance alt + off, with off fixed
    per rise, so the distances of a rise's weights are distinct by
    construction and are not checked.

    So what the checks at rise k read is fixed by the word and k (both
    rows, the bound's row and end, off, the shift and the shift of rise
    k - 1) or is one of the weights w[pos-1] and w[pos+1].  Their records
    are built once per key (k, w[pos-1], w[pos+1]) and written for every
    path with that key, in the order one check per path writes them, so
    one check per key covers every path.  Each path's insertion run still
    runs, for its overflow guard."""
    checked = 0
    for word in _irreducible_words(n):
        m = len(word)
        rows = _step_rows(word)
        mirror_rows = _step_rows(_reflected_steps(word))
        frame = _insertion._factor_plan(word)[0]
        shifts = [0, *(off + 1 - end for _, _, off, _, end in frame)]

        def records(k: int, left: int, right: int) -> list[tuple[str, str]]:
            pos, nb, off, row, end = frame[k]
            shift = shifts[k + 1]
            out = []
            if shift < shifts[k]:
                out.append(("non-decreasing shifts", f"rise {pos}"))
            bound = row[left if nb < pos else right][end]
            lo, hi = rows[pos - 1][left]
            if pos < m:
                a, b = mirror_rows[m - pos][right]
                lo, hi = max(lo, a), min(hi, b)
            for alt in range(lo, hi + 1):
                if alt == bound:
                    continue
                d = alt + off
                # d < k: a non-jump never lands at the front, which the
                # inverse's read-off relies on
                if d < 0 or d >= k:
                    out.append((f"feasible weight {alt} of rise {pos} lands in [0,{k})",
                                f"distance {d}"))
                if d < shift:
                    out.append((f"distance of rise {pos} at least shift {shift}",
                                f"distance {d}"))
            return out

        memo: dict[tuple[int, int, int], list[tuple[str, str]]] = {}
        weights = [0] * m
        for _ in _odometer(word, weights):
            checked += 1
            w = (0, *weights, 0)
            try:
                _insertion._insert(frame, w)
            except InternalConsistencyError as exc:
                failures.append(_fail(_path_text(word, weights), "no insertion overflow",
                                      str(exc)))
                continue
            for k, rise in enumerate(frame):
                key = (k, w[rise[0] - 1], w[rise[0] + 1])
                found = memo.get(key)
                if found is None:
                    found = memo[key] = records(*key)
                for record in found:
                    failures.append(_fail(_path_text(word, weights), *record))
    return checked


def _suite_transformation(n: int, failures: list[dict]) -> int:
    """One traced insertion run gives both a path's bottom word and its
    flattening (`_flatten_run`, the rule `flatten_to_single_slope` uses).
    The run reads only the weights its frame reads, each rise's own and the
    neighbour its bound reads, so each word runs it once per distinct key
    of those weights: 14,480 runs for the 76,847 paths of n <= 6.  A key
    whose run raises is not kept: each path with it runs again and is
    recorded with its own text.  The two words compared depend on nothing
    but the run's result, so they are computed once per distinct (bottom
    word, parking values) key: 3,734 keys."""
    checked = 0
    for steps in _irreducible_words(n):
        w = [0] * len(steps)
        key_of = _insertion._frame_key(_insertion._factor_plan(steps)[0], len(steps))
        runs: dict = {}  # frame key -> the two words compared
        compared: dict[tuple, tuple] = {}
        for _ in _odometer(steps, w):
            checked += 1
            key = key_of(w)
            pair = runs.get(key)
            if pair is None:
                try:
                    word, pf = _insertion._flatten_run(steps, w)
                except Exception as exc:  # noqa: BLE001
                    failures.append(_fail(_path_text(steps, w), "a valid parking function",
                                          str(exc)))
                    continue
                pair = compared.get((word, pf.values))
                if pair is None:
                    pair = compared[word, pf.values] = (standardize(word),
                                                        parking_to_123_avoiding(pf))
                runs[key] = pair
            expect, got = pair
            if got != expect:
                failures.append(_fail(_path_text(steps, w), perm_text(expect), perm_text(got)))
    return checked


def _suite_parking(n: int, failures: list[dict]) -> int:
    """Each non-decreasing parking function of length n, in lexicographic
    order, maps to a 123-avoiding word that no earlier one maps to; after
    their records, the count of distinct images is checked against
    `catalan(n)`, so a map onto all the avoiders passes."""
    checked = 0
    images: dict[tuple[int, ...], tuple[int, ...]] = {}
    for vals in _parking_functions(n):
        checked += 1
        word = parking_to_123_avoiding(ParkingFunction(vals))
        if not avoids_123_word(word):
            failures.append(_fail(str(list(vals)), "image avoids 123", perm_text(word)))
        if word in images:
            failures.append(_fail(
                str(list(vals)), "a fresh image",
                f"{perm_text(word)} already hit by {list(images[word])}"))
        images[word] = vals
    ref = catalan(n)
    if len(images) != ref:
        failures.append(_fail(f"image count, n={n}", str(ref), str(len(images))))
    return checked


def _suite_topword(n: int, failures: list[dict]) -> int:
    """The direct right-to-left scan of the falls against the top word the
    forward map builds: the top frame of the word's plan, the one
    `_map_factor` reads, run on the path's own weights and read back to
    front.  Each word's slopes and plan are read once."""
    checked = 0
    for word in _irreducible_words(n):
        h = heights(DyckPath(word))
        downs = [r for r in _runs(word) if r.kind == DOWN]
        frame = _insertion._factor_plan(word)[1]
        weights = [0] * len(word)
        for _ in _odometer(word, weights):
            checked += 1
            built = tuple(_insertion._insert(frame, (0, *weights, 0))[::-1])
            direct = _top_word_direct(h, downs, weights)
            if direct != built:
                failures.append(_fail(_path_text(word, weights),
                                      perm_text(built), perm_text(direct)))
    return checked


# Each suite once, in gate order: its default cap and its per-size step.
_SUITES = {
    "counts": (6, _suite_counts),
    "bijectivity": (6, _suite_bijectivity),
    "roundtrip": (6, _suite_roundtrip),
    "schutzenberger": (5, _suite_schutzenberger),
    "product": (5, _suite_product),
    "statistic": (6, _suite_statistic),
    "criteria": (5, _suite_criteria),  # permutations of size up to 2*5 = 10
    "insertion_lemma": (6, _suite_insertion_lemma),
    "transformation": (6, _suite_transformation),
    "parking": (8, _suite_parking),
    "topword_equivalence": (5, _suite_topword),
}
SUITES = tuple(_SUITES)
DEFAULT_CAPS = {suite: cap for suite, (cap, _) in _SUITES.items()}


def run_suite(suite: str, max_n: Optional[int] = None) -> VerificationReport:
    """Run one suite exhaustively up to max_n (the suite's default cap when
    None).  This is the one loop over sizes: it runs the suite's per-size
    step at each n from 0 to the cap, collects the failures in one list
    and sums what each step checked.  Failures are reported by size, and
    within a size in the deterministic order the step enumerates its
    instances; `product` lists its pair failures by total size, then by
    the first factor's size.  A negative max_n is a ValueError: it would
    check nothing and still pass."""
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    if max_n is not None and max_n < 0:
        raise ValueError(f"max_n must be non-negative, got {max_n}")
    default_cap, step = _SUITES[suite]
    cap = default_cap if max_n is None else max_n
    start = time.perf_counter()
    failures: list[dict] = []
    checked = sum(step(n, failures) for n in range(cap + 1))
    return VerificationReport(suite, (0, cap), checked, tuple(failures),
                              time.perf_counter() - start)


def run_all(max_n: Optional[int] = None) -> list[VerificationReport]:
    """Run every suite at its default cap, lowered to max_n when given; a
    negative max_n is a ValueError from the first suite."""
    out = []
    for suite in SUITES:
        cap = DEFAULT_CAPS[suite] if max_n is None else min(DEFAULT_CAPS[suite], max_n)
        out.append(run_suite(suite, cap))
    return out
