import gc
import hashlib
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyckperm import paths
from dyckperm.paths import (
    DyckPath,
    PathFormatError,
    WeightedDyckPath,
    _LazyRow,
    _dyck_words,
    _fits,
    _odometer,
    _reflected_steps,
    _step_rows,
    _weighted_lines,
    concat,
    count_weighted,
    counts_upto,
    enumerate_weighted,
    enumerate_weightings,
    factor_irreducible,
    heights,
    is_valid_weighted,
    lower_height,
    parse_path,
    reflect,
    serialize_path,
    slopes,
    validate_weighted,
)

from .conftest import EXAMPLE14_TEXT
from .oracles import (
    brute_dyck_words,
    brute_heights,
    brute_pair_ok,
    brute_weighted_set,
    brute_weighting_ok,
    closed_form,
    lex_weightings,
    per_word_count,
    random_dyck_word,
)

EX14 = parse_path(EXAMPLE14_TEXT)

# the steps of `random_path(random.Random(8000), 8000, True)` in
# tests/test_bijection.py, a word of height 226
N8000 = "U" + random_dyck_word(random.Random(8000), 7999) + "D"


def wd(steps, weights=None):
    return WeightedDyckPath.from_steps(steps, weights)


small_wd = st.builds(
    lambda pool, i: pool[i % len(pool)],
    st.just([x for n in range(5) for x in enumerate_weighted(n)]),
    st.integers(min_value=0),
)


class TestDyckPath:
    def test_rejects_bad_character(self):
        with pytest.raises(ValueError, match="invalid step character"):
            DyckPath("UXDD")

    def test_rejects_below_ground(self):
        with pytest.raises(ValueError, match="below ground"):
            DyckPath("UDD")

    def test_rejects_unbalanced(self):
        with pytest.raises(ValueError, match="return to ground"):
            DyckPath("UUD")

    def test_empty_is_valid(self):
        assert DyckPath("").n == 0


class TestHeights:
    def test_uudd(self):
        assert heights(DyckPath("UUDD")) == (0, 1, 2, 1, 0)

    def test_ud(self):
        assert heights(DyckPath("UD")) == (0, 1, 0)

    def test_example14(self):
        assert heights(EX14) == (0, 1, 2, 1, 2, 1, 2, 3, 4, 3, 2, 3, 2, 1, 0)

    def test_rejects_a_non_path(self):
        with pytest.raises(TypeError) as exc:
            heights(object())
        assert str(exc.value) == "expected a path, got object"


class TestLowerHeight:
    def test_first_step_from_ground(self):
        assert lower_height(DyckPath("UUDD"), 1) == 0

    def test_into_the_high_peak(self):
        assert lower_height(EX14, 8) == 3

    def test_fall(self):
        assert lower_height(DyckPath("UUDD"), 3) == 1

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            lower_height(DyckPath("UUDD"), 5)
        with pytest.raises(IndexError):
            lower_height(DyckPath("UUDD"), 0)


class TestValidateWeighted:
    def test_example14_is_valid(self):
        assert validate_weighted(EX14) == []

    def test_weight_above_lower_height(self):
        bad = wd("UUDD", (0, 1, 2, 0))
        violations = validate_weighted(bad)
        assert violations[0] == ("C1", 3)
        # the same weight also breaks the peak condition
        assert violations == [("C1", 3), ("C4", 3)]

    def test_peak_boundary_ok(self):
        assert validate_weighted(wd("UUDD", (0, 1, 1, 0))) == []

    def test_each_constraint_detected(self):
        assert ("C2", 2) in validate_weighted(wd("UUDD", (1, 0, 0, 0)))
        assert ("C3", 4) in validate_weighted(wd("UUDD", (0, 1, 0, 1)))
        assert ("C4", 3) in validate_weighted(wd("UUDD", (0, 1, 2, 0)))
        assert ("C5", 4) in validate_weighted(wd("UUDUDD", (0, 0, 0, 0, 0, 0)))

    def test_length_mismatch_at_construction(self):
        with pytest.raises(ValueError, match="weights"):
            WeightedDyckPath(DyckPath("UD"), (0,))

    def test_agrees_with_naive_checker(self):
        # the list itself, not only its emptiness: per step, C1 when the
        # weight is out of range, then the pair condition with the step
        # before, named by the kinds of the two steps
        pair_id = {"UU": "C2", "DD": "C3", "UD": "C4", "DU": "C5"}
        for n in range(4):
            for steps in brute_dyck_words(n):
                h = brute_heights(steps)
                caps = [min(h[u - 1], h[u]) for u in range(1, len(steps) + 1)]
                for w in itertools.product(*(range(-1, c + 2) for c in caps)):
                    naive = []
                    for u in range(1, len(steps) + 1):
                        if not 0 <= w[u - 1] <= caps[u - 1]:
                            naive.append(("C1", u))
                        if u > 1 and not brute_pair_ok(steps[u - 2], steps[u - 1],
                                                       w[u - 2], w[u - 1], h[u - 1]):
                            naive.append((pair_id[steps[u - 2:u]], u))
                    assert validate_weighted(wd(steps, w)) == naive, (steps, w)

    def test_row_test_agrees_with_naive_checker_on_a_box(self):
        # one weight below and one above C1's range at every step, so the
        # row scan stops at each kind of violation, at every step
        for steps in ("UUDD", "UDUD", "UUDUDD", "UUUDDD"):
            h = heights(DyckPath(steps))
            caps = [min(h[u - 1], h[u]) for u in range(1, len(steps) + 1)]
            rows = _step_rows(steps)
            for weights in itertools.product(*(range(-1, c + 2) for c in caps)):
                x = wd(steps, weights)
                expect = brute_weighting_ok(steps, weights)
                assert _fits(rows, weights) == expect
                assert is_valid_weighted(x) == expect
                assert (not validate_weighted(x)) == expect

    @pytest.mark.parametrize("steps, weights, where", [
        ("UUDD", (0, "1", 0, 0), [2]),
        ("UUDD", (0, None, 0, 0), [2]),
        ("UUDD", (0, "1", 0.5, 0), [2, 3]),
        ("UDUUDD", (0, 0, None, 1, "0", 0), [3, 5]),
    ])
    def test_non_number_weights_break_c1_only(self, steps, weights, where):
        assert validate_weighted(wd(steps, weights)) == [("C1", u) for u in where]

    def test_tall_path_keeps_memory_small(self):
        # rows above a fixed height are computed when read: tabulating every
        # shape of this path would hold about 27 MB of spans
        steps = "U" * 600 + "D" * 600
        tracemalloc.start()
        try:
            assert is_valid_weighted(wd(steps))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        # C1 at a rise and C3 at a fall, both far above the tabulated rows
        for u, v, cid in ((300, 300, "C1"), (700, 1, "C3")):
            weights = [0] * len(steps)
            weights[u - 1] = v
            x = wd(steps, weights)
            assert not is_valid_weighted(x)
            assert validate_weighted(x)[0] == (cid, u)


class TestSlopes:
    def test_example14_up_slopes(self):
        dec = slopes(EX14)
        assert [(s.start, s.length) for s in dec.up_slopes] == [(1, 2), (4, 1), (6, 3), (11, 1)]

    def test_uudd(self):
        dec = slopes(DyckPath("UUDD"))
        assert [(s.start, s.length) for s in dec.up_slopes] == [(1, 2)]
        assert [(s.start, s.length) for s in dec.down_slopes] == [(3, 2)]

    def test_udud(self):
        dec = slopes(DyckPath("UDUD"))
        assert [(s.start, s.length) for s in dec.up_slopes] == [(1, 1), (3, 1)]

    def test_empty(self):
        dec = slopes(DyckPath(""))
        assert dec.up_slopes == () and dec.down_slopes == ()

    def test_boundary_context(self):
        dec = slopes(EX14)
        assert dec.peak_heights == (2, 2, 4, 3)
        assert dec.valley_heights == (1, 1, 2)
        assert dec.peak_weights == ((0, 1), (1, 1), (2, 2), (0, 2))
        assert dec.valley_weights == ((1, 1), (1, 1), (2, 0))

    def test_reconstruction_and_alternation(self, wd_pools):
        for n, pool in wd_pools.items():
            for x in pool:
                dec = slopes(x)
                runs = sorted(dec.up_slopes + dec.down_slopes, key=lambda s: s.start)
                rebuilt = "".join(s.kind * s.length for s in runs)
                assert rebuilt == x.steps
                kinds = [s.kind for s in runs]
                assert all(a != b for a, b in zip(kinds, kinds[1:]))
                assert len(dec.up_slopes) == len(dec.down_slopes)


class TestReflect:
    def test_mirrored_eight_step_path(self):
        original = parse_path("UUDUUDDD;0,0,0,1,2,1,1,0")
        assert serialize_path(reflect(original)) == "UUUDDUDD;0,1,1,2,1,0,0,0"

    def test_symmetric_path_is_fixed(self):
        x = wd("UD")
        assert reflect(x) == x

    def test_involution_on_example(self):
        assert reflect(reflect(EX14)) == EX14

    @settings(max_examples=60)
    @given(small_wd)
    def test_involution_preserves_validity(self, x):
        assert is_valid_weighted(reflect(x))
        assert reflect(reflect(x)) == x

    def test_involution_exhaustive_n5(self):
        for x in enumerate_weighted(5):
            assert is_valid_weighted(reflect(x))
            assert reflect(reflect(x)) == x


class TestConcat:
    def test_drawn_example(self):
        p = parse_path("UUDUUDDD;0,0,0,1,2,1,1,0")
        q = parse_path("UUDD;0,1,0,0")
        assert serialize_path(concat(p, q)) == "UUDUUDDDUUDD;0,0,0,1,2,1,1,0,0,1,0,0"

    def test_identity(self):
        empty = wd("")
        x = wd("UDUD")
        assert concat(empty, x) == x
        assert concat(x, empty) == x

    def test_two_arches(self):
        assert serialize_path(concat(wd("UD"), wd("UD"))) == "UDUD;0,0,0,0"

    def test_associative(self, wd_pools):
        for a in range(3):
            for b in range(3 - a):
                for c in range(3 - a - b):
                    for x in wd_pools[a]:
                        for y in wd_pools[b]:
                            for z in wd_pools[c]:
                                assert concat(concat(x, y), z) == concat(x, concat(y, z))


class TestFactorIrreducible:
    def test_split_at_ground_return(self):
        parts = factor_irreducible(wd("UDUUDD"))
        assert [p.steps for p in parts] == ["UD", "UUDD"]

    def test_example14_is_irreducible(self):
        assert factor_irreducible(EX14) == [EX14]

    def test_empty(self):
        assert factor_irreducible(wd("")) == []

    def test_refold_identity(self, wd_pools):
        for n in range(5):
            for x in wd_pools[n]:
                parts = factor_irreducible(x)
                acc = wd("")
                for part in parts:
                    acc = concat(acc, part)
                assert acc == x
        for x in enumerate_weighted(5):
            parts = factor_irreducible(x)
            acc = wd("")
            for part in parts:
                acc = concat(acc, part)
            assert acc == x


class TestEnumerateWeighted:
    def test_n1(self):
        assert [serialize_path(x) for x in enumerate_weighted(1)] == ["UD;0,0"]

    def test_n2_exact_and_ordered(self):
        got = [serialize_path(x) for x in enumerate_weighted(2)]
        assert got == [
            "UUDD;0,0,0,0",
            "UUDD;0,0,1,0",
            "UUDD;0,1,0,0",
            "UUDD;0,1,1,0",
            "UDUD;0,0,0,0",
        ]

    def test_n3_count(self):
        assert sum(1 for _ in enumerate_weighted(3)) == 42

    def test_matches_brute_force(self):
        # in order: step word with U < D first, then the weight vector
        for n in range(6):
            ours = [(x.steps, x.weights) for x in enumerate_weighted(n)]
            want = sorted(brute_weighted_set(n),
                          key=lambda x: (x[0].replace("U", "0").replace("D", "1"), x[1]))
            assert ours == want

    def test_first_at_large_n_without_recursion(self):
        first = next(enumerate_weighted(600))
        assert first.steps == "U" * 600 + "D" * 600
        assert first.weights == (0,) * 1200

    def test_all_emitted_valid(self, wd_pools):
        for pool in wd_pools.values():
            assert all(is_valid_weighted(x) for x in pool)

    def test_negative_n(self):
        with pytest.raises(ValueError):
            list(enumerate_weighted(-1))
        with pytest.raises(ValueError):
            list(_weighted_lines(-1))

    @pytest.mark.parametrize("n", range(7))
    def test_lines_are_the_serialized_paths(self, n):
        # the text of `dyckperm enumerate`, made without the path objects
        lines = list(_weighted_lines(n))
        assert lines == [serialize_path(x) + "\n" for x in enumerate_weighted(n)]
        assert n or lines == [";\n"]

    # sha256 of the lines of `_weighted_lines(n)`, joined, as the one-line
    # odometer walk wrote them before the lines were built from tail tables
    LINE_DIGESTS = {
        0: "d8a957038679125d4840554fc43375697e662283121561afdefc2c3fbecaf729",
        1: "2168731249caaf2a2fcc6eec0acb8ddb1ffc318a8567cd220dd6af50ca6155e8",
        2: "442b088d7f7aaa4dc94e336a21638608fc32a7e0005ec1f0ad266340223c6614",
        3: "79f9a9d6ce22f698af81b2fce543b92a68edbc2ba34efe8581014666dc6189fb",
        4: "3d113366afe458cf77998146a8982c28c9357cfd6c81eb1595774e340f801e3b",
        5: "8d37abdc2ad02b035b2e5da88d37ea440d08d00aff423dc26bbb25da21f87f6c",
        6: "7defb17adcf29a09487dba1070150bed6f12ae4be7f1a23f0b59618abf90dcc6",
        7: "8b2108477697f0b90f3abc41d3e9e232121ba3356e72900161ea12bfd98d1da5",
    }

    @pytest.mark.parametrize("n", range(8))
    def test_lines_are_pinned(self, n):
        text = "".join(_weighted_lines(n))
        assert hashlib.sha256(text.encode()).hexdigest() == self.LINE_DIGESTS[n]

    def test_completions_from_every_cut_make_the_walk(self):
        # for every word of n <= 5 and every cut c, each prefix the odometer
        # walks on the first c steps, followed by each completion that
        # `_odometer(..., start=c)` sets, gives the full walk in order, and
        # the completions' walk changes no index before the cut
        for n in range(6):
            for word in _dyck_words(n):
                m = len(word)
                w = [0] * m
                full = [tuple(w) for _ in _odometer(word, w)]
                for c in range(m + 1):
                    prefix = [0] * c
                    joined = []
                    for _ in _odometer(word[:c], prefix):
                        t = prefix + [0] * (m - c)
                        for i in _odometer(word, t, c):
                            assert i >= c and t[:c] == prefix
                            joined.append(tuple(t))
                    assert joined == full, (word, c)

    def test_first_lines_after_a_bounded_walk(self, monkeypatch):
        # the tails are tabulated for a fixed number of steps, so the first
        # lines of a long word take as many odometer yields at n = 40 as at
        # n = 20: polynomial delay, counted rather than timed
        walk = paths._odometer
        yields = []

        def counted(*args):
            for i in walk(*args):
                yields.append(i)
                yield i

        monkeypatch.setattr(paths, "_odometer", counted)
        needed = {}
        for n in (20, 40):
            yields.clear()
            lines = list(itertools.islice(_weighted_lines(n), 3))
            assert lines[0] == "U" * n + "D" * n + ";" + ",".join("0" * 2 * n) + "\n"
            needed[n] = len(yields)
        assert needed[40] == needed[20] <= 2 + paths._TAIL, needed

    def test_weightings_of_fixed_path(self):
        got = list(enumerate_weightings(DyckPath("UUDD")))
        assert len(got) == 4

    def test_tall_path_in_lexicographic_order(self):
        # the descent starts at height 70, above the tabulated rows, and the
        # odometer raises its first fall within the first few weightings
        steps = "U" * 70 + "D" * 70
        assert isinstance(_step_rows(steps)[70], _LazyRow)
        got = [x.weights for x in itertools.islice(enumerate_weightings(DyckPath(steps)), 3000)]
        assert got == list(itertools.islice(lex_weightings(steps), 3000))
        assert max(w[70] for w in got) > 0

    @pytest.mark.parametrize("words", [
        ("U" * 90 + "D" * 30 + "U" * 20 + "D" * 80 + "UD",),  # 82 tall rows
        ("U" * 300 + "D" * 300,),  # 471 tall rows
        (N8000, _reflected_steps(N8000)),  # 28,934 tall rows of 642 shapes
    ], ids=("82-rows", "471-rows", "n8000"))
    def test_a_tall_row_is_its_shape(self, words):
        # a row above the tabulated height is the step's shape, one tuple,
        # and every step of a shape shares it, so the rows of a word keep
        # at most 2 GC-tracked objects per distinct tall shape, however
        # many steps have it
        for steps in words:
            heights(DyckPath(steps))  # warm the height profile
        paths._row.cache_clear()
        _step_rows.cache_clear()
        gc.collect()
        gc.collect()
        before = len(gc.get_objects())
        rows = [row for steps in words for row in _step_rows(steps)]
        # a collection untracks the tuples of ints, which the collector
        # never traverses again; what stays tracked is what it keeps
        # traversing while the caches hold the rows
        gc.collect()
        gc.collect()
        added = len(gc.get_objects()) - before
        shapes = {row for row in rows if isinstance(row, _LazyRow)}
        assert shapes and added <= 2 * len(shapes)
        info = paths._row.cache_info()
        assert info.misses == info.currsize


class TestCountWeighted:
    def test_reference_values(self):
        assert [count_weighted(n) for n in range(6)] == [1, 1, 5, 42, 462, 6006]

    def test_closed_form_up_to_100(self):
        got = counts_upto(100)
        assert len(got) == 101
        for n in range(101):
            assert got[n] == closed_form(n), n

    def test_matches_per_word_oracle(self):
        for n in range(9):
            assert count_weighted(n) == per_word_count(n), n

    def test_matches_enumeration(self):
        for n in range(5):
            assert count_weighted(n) == sum(1 for _ in enumerate_weighted(n))

    def test_counts_upto_reads_every_smaller_count(self):
        upto12 = counts_upto(12)
        for n in range(13):
            assert count_weighted(n) == counts_upto(n)[n] == upto12[n], n

    def test_negative_n(self):
        with pytest.raises(ValueError):
            count_weighted(-2)
        with pytest.raises(ValueError):
            counts_upto(-1)


class TestParseSerialize:
    def test_example14(self):
        x = parse_path(EXAMPLE14_TEXT)
        assert x.steps == "UUDUDUUUDDUDDD"
        assert x.weights == (0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 0, 2, 1, 0)

    def test_minimal(self):
        assert parse_path("UD;0,0") == wd("UD")

    def test_not_a_dyck_path(self):
        with pytest.raises(PathFormatError, match="not a Dyck path"):
            parse_path("UDD;0,0,0")

    def test_missing_weights_default_to_zero(self):
        assert parse_path("UUDD") == wd("UUDD")

    def test_missing_weights_must_still_be_valid(self):
        # all-zero weights break the valley condition on this path
        with pytest.raises(PathFormatError, match="C5 violated at step 4"):
            parse_path("UUDUDD")

    def test_constraint_violation_reported(self):
        with pytest.raises(PathFormatError, match="C1 violated at step 3"):
            parse_path("UUDD;0,1,2,0")

    def test_malformed_weights(self):
        with pytest.raises(PathFormatError, match="malformed weight"):
            parse_path("UD;a,b")

    @pytest.mark.parametrize("weights", [
        "+0,0", "1_0,0", "\u0660,0", "\uff10,0", "0, 0", "0,-0", "0,,0", "0x0,0",
    ])
    def test_weights_are_ascii_digit_tokens(self, weights):
        # int() accepts signs, underscores, spaces and non-ASCII digits
        with pytest.raises(PathFormatError, match="malformed weight"):
            parse_path(f"UD;{weights}")

    def test_length_mismatch(self):
        with pytest.raises(PathFormatError, match="2 steps but 3 weights"):
            parse_path("UD;0,0,0")

    def test_empty_path(self):
        assert parse_path(";") == wd("")
        assert serialize_path(wd("")) == ";"

    @settings(max_examples=80)
    @given(small_wd)
    def test_roundtrip(self, x):
        assert parse_path(serialize_path(x)) == x
