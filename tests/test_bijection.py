import hashlib
import itertools
import random
import time
import tracemalloc
from collections import Counter, defaultdict
from operator import gt, lt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dyckperm._insertion as _insertion
from dyckperm._insertion import (
    _bottom_word,
    _factor_plan,
    _image_table,
    _invert_factor,
    _map_factor,
    _map_path,
    _word_spans,
)
from dyckperm.bijection import (
    LEFT,
    RIGHT,
    NotInImageError,
    ParkingFunction,
    bottom_traces,
    flatten_to_single_slope,
    from_permutation,
    from_permutation_brute,
    insertion_word,
    jump_bound,
    jumps,
    parking_to_123_avoiding,
    split_up_slopes,
    to_permutation,
    to_permutation_irreducible,
)
from dyckperm.paths import (
    UP,
    DyckPath,
    WeightedDyckPath,
    _dyck_words,
    _height_profile,
    _reflected_steps,
    _runs,
    _span,
    _row,
    _step_rows,
    concat,
    enumerate_weighted,
    enumerate_weightings,
    factor_spans,
    parse_path,
    reflect,
    serialize_path,
    slopes,
)
from dyckperm.perms import (
    is_up_down,
    schutzenberger,
    shifted_concat,
)

from .conftest import EXAMPLE14_IMAGE, EXAMPLE14_TEXT, INVERSE_FIRST_FAILURES
from .oracles import (
    brute_descents,
    brute_heights,
    brute_pair_ok,
    contains_1234_naive,
    lex_weightings,
    naive_lis,
    random_dyck_word,
    word_weighting_count,
)

EX14 = parse_path(EXAMPLE14_TEXT)


def wd(steps, weights=None):
    return WeightedDyckPath.from_steps(steps, weights)


def random_path(rng, n, irreducible):
    """A seeded random weighted path of semilength n >= 2, irreducible or
    with at least two factors; each weight is drawn from the interval the
    previous one leaves feasible."""
    if irreducible:
        steps = "U" + random_dyck_word(rng, n - 1) + "D"
    else:
        k = rng.randint(1, n - 1)
        steps = "U" + random_dyck_word(rng, k - 1) + "D" + random_dyck_word(rng, n - k)
    return random_weighting(rng, steps)


# words taller than 64, where the span rows are read on demand
TALL_WORDS = ("U" * 70 + "DU" * 3 + "D" * 70,
              "U" * 90 + "D" * 30 + "U" * 20 + "D" * 80 + "UD")


def random_weighting(rng, steps):
    """A seeded random valid weighting: each weight is drawn from the
    interval the previous one leaves feasible."""
    h = _height_profile(steps)
    weights = []
    for i in range(1, len(steps) + 1):
        lo, hi = _span(steps[i - 2] if i > 1 else None, steps[i - 1], h[i - 1], h[i],
                       weights[-1] if weights else 0)
        weights.append(rng.randint(lo, hi))
    return wd(steps, weights)


small_wd = st.builds(
    lambda pool, i: pool[i % len(pool)],
    st.just([x for n in range(5) for x in enumerate_weighted(n)]),
    st.integers(min_value=0),
)


class TestSplit:
    def test_example14_two_and_two(self):
        assert split_up_slopes(slopes(EX14)) == (LEFT, LEFT, RIGHT, RIGHT)

    def test_three_slopes_sixteen_steps(self):
        from dyckperm.paths import DyckPath

        assert split_up_slopes(slopes(DyckPath("UUUDDUUUDDUUDDDD"))) == (LEFT, LEFT, RIGHT)

    def test_single_slope(self):
        assert split_up_slopes(slopes(wd("UUDD"))) == (LEFT,)

    def test_left_half_is_the_ceiling(self):
        # ceil(k/2) of k up slopes, for every k a word of semilength <= 7 has
        for n in range(8):
            for steps in _dyck_words(n):
                decomp = slopes(wd(steps))
                k = len(decomp.up_slopes)
                assert split_up_slopes(decomp) == (LEFT,) * (k - k // 2) + (RIGHT,) * (k // 2)


class TestJumpRule:
    def test_bound_first_of_left_slope(self):
        # valley of height 1 entered with fall weight 1
        assert jump_bound(EX14, 4, LEFT) == 0

    def test_bound_right_mid_slope(self):
        assert jump_bound(EX14, 6, RIGHT) == 1

    def test_bound_right_end_of_slope(self):
        assert jump_bound(EX14, 8, RIGHT) == 2

    def test_first_two_rises_jump(self):
        assert jumps(EX14, 1, LEFT)
        assert jumps(EX14, 2, LEFT)

    def test_mid_slope_rise_does_not_jump(self):
        assert not jumps(EX14, 7, RIGHT)

    def test_last_slope_rise_does_not_jump(self):
        assert not jumps(EX14, 11, RIGHT)

    def test_not_a_rise(self):
        with pytest.raises(ValueError, match="not a rise"):
            jump_bound(EX14, 3, LEFT)

    def test_bad_membership(self):
        with pytest.raises(ValueError, match="membership"):
            jump_bound(EX14, 1, "M")

    # the weighting is validated before a neighbour's weight is read: a
    # string there raised a bare TypeError, and 5 came back as the bound
    @pytest.mark.parametrize("weights", [(0, "1", 0, 0, 0, 0), (0, 5, 0, 0, 0, 0)])
    def test_invalid_weighting(self, weights):
        x = wd("UUUDDD", weights)
        for entry in (jump_bound, jumps):
            with pytest.raises(ValueError) as info:
                entry(x, 3, LEFT)
            assert str(info.value) == "invalid weighting: C1 violated at step 2"

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            jump_bound(EX14, 15, LEFT)

    def test_matches_brute_force(self):
        # the least (L) or greatest (R) weight in 0..lower height that the
        # literal pair condition allows next to the one fixed neighbour
        checked = 0
        for n in range(6):
            for path in enumerate_weighted(n):
                steps, w = path.steps, path.weights
                h = brute_heights(steps)
                for u in range(1, len(steps) + 1):
                    if steps[u - 1] != "U":
                        continue
                    cands = range(min(h[u - 1], h[u]) + 1)
                    left = [v for v in cands if u == 1 or brute_pair_ok(
                        steps[u - 2], "U", w[u - 2], v, h[u - 1])]
                    right = [v for v in cands if brute_pair_ok(
                        "U", steps[u], v, w[u], h[u])]
                    assert jump_bound(path, u, LEFT) == min(left), (serialize_path(path), u)
                    assert jump_bound(path, u, RIGHT) == max(right), (serialize_path(path), u)
                    checked += 1
        assert checked == 32_015


class TestInsertionWord:
    def test_worked_example_word(self):
        word, _ = insertion_word(EX14)
        assert word == (8, 6, 11, 7, 2, 4, 1)

    def test_worked_example_trace(self):
        _, trace = insertion_word(EX14)
        assert [st_.position for st_ in trace] == [1, 2, 4, 6, 7, 8, 11]
        assert [st_.position for st_ in trace if st_.jumped] == [1, 2, 6, 8]
        assert [st_.distance for st_ in trace if not st_.jumped] == [1, 3, 4]
        assert [st_.shift for st_ in trace] == [0, 0, 1, 2, 2, 2, 4]
        assert [st_.membership for st_ in trace] == [LEFT] * 3 + [RIGHT] * 4
        assert trace[-1].word_after == (8, 6, 11, 7, 2, 4, 1)

    def test_single_arch(self):
        word, trace = insertion_word(wd("UD"))
        assert word == (1,)
        assert trace[0].jumped

    def test_no_jump_on_second_rise(self):
        word, _ = insertion_word(wd("UUDD", (0, 1, 1, 0)))
        assert word == (1, 2)

    def test_rejects_reducible(self):
        with pytest.raises(ValueError, match="reducible"):
            insertion_word(wd("UDUD"))

    def test_rejects_invalid(self):
        with pytest.raises(ValueError, match="C1"):
            insertion_word(wd("UUDD", (0, 1, 2, 0)))

    @settings(max_examples=80)
    @given(small_wd)
    def test_trace_invariants(self, x):
        from dyckperm.paths import factor_irreducible

        for factor in factor_irreducible(x):
            _, trace = insertion_word(factor)
            prev_shift = 0
            for length_before, st_ in enumerate(trace):
                assert st_.shift >= prev_shift
                prev_shift = st_.shift
                if st_.jumped:
                    assert st_.distance is None
                else:
                    adj = 1 if st_.membership == LEFT else 0
                    assert st_.distance == st_.weight + st_.shift - adj
                    assert st_.distance >= st_.shift
                    assert 0 <= st_.distance <= length_before


class TestInvalidWeightingMessages:
    # the reducible paths break C2..C5 in their second factor; a weight
    # that is not an int, 1.0 too, breaks C1 at its own step, so 0.5 is
    # reported at step 2 before the C1 and C4 breaks of the 2 at step 3
    @pytest.mark.parametrize("steps, weights, reason, parse_reason", [
        ("UUDD", (0, -1, 0, 0), "C1 violated at step 2",
         "malformed weight list '0,-1,0,0': malformed number '-1'"),
        ("UUDD", (0, 2, 0, 0), "C1 violated at step 2", "C1 violated at step 2"),
        ("UUDD", (0, 1, 2, 0), "C1 violated at step 3", "C1 violated at step 3"),
        ("UDUUUDDD", (0, 0, 0, 1, 0, 0, 0, 0), "C2 violated at step 5", "C2 violated at step 5"),
        ("UDUUUDDD", (0, 0, 0, 0, 0, 0, 1, 0), "C3 violated at step 7", "C3 violated at step 7"),
        ("UDUUUDDD", (0, 0, 0, 1, 2, 2, 1, 0), "C4 violated at step 6", "C4 violated at step 6"),
        ("UDUUDUDD", (0,) * 8, "C5 violated at step 6", "C5 violated at step 6"),
        ("UUDD", (0, 1.5, 0, 0), "C1 violated at step 2",
         "malformed weight list '0,1.5,0,0': malformed number '1.5'"),
        ("UUDD", (0, 0.5, 2, 0), "C1 violated at step 2",
         "malformed weight list '0,0.5,2,0': malformed number '0.5'"),
        ("UUDD", (0, 1.0, 0, 0), "C1 violated at step 2",
         "malformed weight list '0,1.0,0,0': malformed number '1.0'"),
    ])
    def test_same_text_from_every_entry_point(self, steps, weights, reason, parse_reason):
        x = wd(steps, weights)
        for entry in (to_permutation, insertion_word, flatten_to_single_slope):
            with pytest.raises(ValueError) as info:
                entry(x)
            assert str(info.value) == f"invalid weighting: {reason}"
        with pytest.raises(ValueError) as info:
            parse_path(f"{steps};{','.join(map(str, weights))}")
        assert str(info.value) == parse_reason

    # a weight that is not a number breaks C1 at its own step, and no pair
    # condition compares it with its neighbour, so no entry point ends in a
    # TypeError; the text grammar cannot produce these weights
    @pytest.mark.parametrize("steps, weights, step", [
        ("UUDD", (0, "1", 0, 0), 2),
        ("UUDD", (0, None, 0, 0), 2),
        ("UUDD", (0, 0.5, "1", 0), 2),
        ("UUDD", (0, 0, "0", 0.0), 3),
    ])
    def test_non_number_weight_is_c1_at_its_step(self, steps, weights, step):
        x = wd(steps, weights)
        for entry in (to_permutation, insertion_word, flatten_to_single_slope):
            with pytest.raises(ValueError) as info:
                entry(x)
            assert str(info.value) == f"invalid weighting: C1 violated at step {step}"


class TestForwardMap:
    def test_worked_example(self):
        sigma = to_permutation_irreducible(EX14)
        assert sigma.perm == EXAMPLE14_IMAGE
        assert sigma.bot == (8, 6, 11, 7, 2, 4, 1)
        assert sigma.top == (13, 12, 14, 10, 9, 5, 3)

    def test_single_arch(self):
        assert to_permutation_irreducible(wd("UD")).perm == (1, 2)

    def test_zero_weighted_double_arch(self):
        assert to_permutation_irreducible(wd("UUDD")).perm == (2, 4, 1, 3)

    def test_four_weightings_of_uudd(self):
        images = {
            weights: to_permutation(wd("UUDD", (0,) + weights + (0,))).perm
            for weights in ((0, 0), (0, 1), (1, 0), (1, 1))
        }
        assert images == {
            (0, 0): (2, 4, 1, 3),
            (0, 1): (2, 3, 1, 4),
            (1, 0): (1, 4, 2, 3),
            (1, 1): (1, 3, 2, 4),
        }

    def test_reducible_composition(self):
        assert to_permutation(wd("UDUD")).perm == (3, 4, 1, 2)
        composite = concat(wd("UUDD"), wd("UD"))
        assert to_permutation(composite).perm == (5, 6, 2, 4, 1, 3)

    def test_empty(self):
        assert to_permutation(wd("")).perm == ()

    def test_one_factor_is_its_own_image(self):
        # a path with one factor composes to a tuple equal to the one
        # `_map_factor` gives its factor
        for n in range(1, 5):
            for steps in _dyck_words(n):
                if len(factor_spans(steps)) > 1:
                    continue
                for x in enumerate_weightings(DyckPath(steps)):
                    image = to_permutation(x).perm
                    assert type(image) is tuple
                    assert image == _map_factor(steps, x.weights)

    def test_many_factors(self):
        # UD repeated k times: factor i (0-based) maps to (2i + 1, 2i + 2)
        # and lands in front of every earlier one
        k = 5000
        x = wd("UD" * k)
        image = to_permutation(x).perm
        assert image == tuple(v for i in reversed(range(k)) for v in (2 * i + 1, 2 * i + 2))
        assert from_permutation(image) == x

    def test_composed_tables_equal_per_path_maps(self):
        # a reducible word's table, composed from its factors' tables,
        # lists what mapping its weightings one by one gives, decoded from
        # the bytes it stores
        compared = 0
        for n in range(7):
            for steps in _dyck_words(n):
                if len(factor_spans(steps)) < 2:
                    continue
                per_path = [(_map_path(steps, x.weights), x.weights)
                            for x in enumerate_weightings(DyckPath(steps))]
                assert [(tuple(perm), tuple(weights)) for perm, weights
                        in _image_table(steps).items()] == per_path
                compared += 1
        # the 131 reducible words with n <= 6
        assert compared == 131

    def test_images_are_pinned(self):
        # every image at n <= 6, with its weighting, in one digest: each
        # word's text, then its weightings joined in table order, then its
        # images blob, the words in `_dyck_words` order.  A change that
        # moves any one image fails here, even one that every verify suite
        # would pass.
        # The same digest over the words of n = 7 alone begins
        # 6c057fa4c217c4f5 (see CHANGES.md)
        digest = hashlib.sha256()
        for n in range(7):
            for steps in _dyck_words(n):
                table = _image_table(steps)
                weights = b"".join(w for _, w in table.items())
                for blob in (steps.encode(), weights, table.images):
                    digest.update(blob)
        assert digest.hexdigest() == (
            "f9616237ff63f68d246e1af1207009e9114abca2a816cbcbea4a636fff600c11")

    def test_irreducible_map_rejects_reducible(self):
        with pytest.raises(ValueError, match="reducible"):
            to_permutation_irreducible(wd("UDUD"))

    def test_bottom_letters_are_rise_positions(self, wd_pools):
        for pool in wd_pools.values():
            for x in pool:
                image = to_permutation(x)
                ups = [i for i, s in enumerate(x.steps, start=1) if s == UP]
                assert sorted(image.bot) == ups


class TestSingleSlopeTransformation:
    def test_worked_example(self):
        assert flatten_to_single_slope(EX14).values == (0, 0, 2, 2, 4, 4, 5)

    def test_single_arch(self):
        assert flatten_to_single_slope(wd("UD")).values == (0,)

    def test_small_no_jump(self):
        assert flatten_to_single_slope(wd("UUDD", (0, 1, 1, 0))).values == (0, 1)

    def test_values_follow_the_traced_rule(self):
        # from the trace: a jump repeats the previous value (0 for the
        # first), a non-jump gives weight + shift, plus one on the right half
        checked = 0
        for n in range(6):
            for x in enumerate_weighted(n):
                if len(factor_spans(x.steps)) > 1:
                    continue
                vals: list[int] = []
                for st_ in insertion_word(x)[1]:
                    if st_.jumped:
                        vals.append(vals[-1] if vals else 0)
                    else:
                        vals.append(st_.weight + st_.shift + (1 if st_.membership == RIGHT else 0))
                assert flatten_to_single_slope(x).values == tuple(vals)
                checked += 1
        assert checked == 5250

    def test_parking_function_validation(self):
        with pytest.raises(ValueError):
            ParkingFunction((1,))
        with pytest.raises(ValueError):
            ParkingFunction((0, 2))
        with pytest.raises(ValueError):
            ParkingFunction((0, 1, 0))
        assert len(ParkingFunction((0, 0, 2))) == 3


class TestParkingCorrespondence:
    def test_worked_example(self):
        word = parking_to_123_avoiding(ParkingFunction((0, 0, 2, 2, 4, 4, 5)))
        assert word == (6, 4, 7, 5, 2, 3, 1)

    def test_singleton(self):
        assert parking_to_123_avoiding(ParkingFunction((0,))) == (1,)

    def test_all_zero_reverses(self):
        assert parking_to_123_avoiding(ParkingFunction((0,) * 5)) == (5, 4, 3, 2, 1)


class TestInverse:
    def test_worked_example(self):
        assert from_permutation(EXAMPLE14_IMAGE) == EX14

    def test_minimal(self):
        assert from_permutation((1, 2)) == wd("UD")

    def test_two_arches(self):
        assert from_permutation((3, 4, 1, 2)) == wd("UDUD")

    def test_empty(self):
        assert from_permutation(()) == wd("")

    def test_rejects_non_up_down(self):
        with pytest.raises(NotInImageError, match="up-down"):
            from_permutation((2, 1))

    def test_rejects_pattern_container(self):
        # every up-down permutation of size <= 8 outside the family contains
        # 1234, the first membership check it fails; both inverses say so
        rejected = 0
        for size in range(0, 9, 2):
            for p in filter(is_up_down, itertools.permutations(range(1, size + 1))):
                if contains_1234_naive(p):
                    rejected += 1
                    for invert in (from_permutation, from_permutation_brute):
                        with pytest.raises(NotInImageError) as exc:
                            invert(p)
                        assert str(exc.value) == ("not in image: contains an "
                                                  "increasing subsequence of length 4")
        assert rejected == 1453 - 511  # up-down permutations minus avoiders

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError, match="not a permutation"):
            from_permutation((1, 1))

    @pytest.mark.parametrize("p", [(1.0, 2.0), (2, 4.0, 1, 3)])
    @pytest.mark.parametrize("invert", [from_permutation, from_permutation_brute])
    def test_rejects_letters_that_are_not_ints(self, invert, p):
        # equal to the ints 1..N, and (2, 4, 1, 3) is an image, but not ints
        with pytest.raises(ValueError) as exc:
            invert(p)
        assert str(exc.value) == "input is not a permutation of 1..N"

    @pytest.mark.parametrize("invert", [from_permutation, from_permutation_brute])
    def test_first_failed_check_names_the_error(self, invert):
        # each input also fails the check after the one it is named by
        repeated, rising, odd, pattern = (p for p, _ in INVERSE_FIRST_FAILURES)
        assert not is_up_down(repeated)
        assert contains_1234_naive(rising)
        # its letters alternate pairwise as an up-down permutation's do
        assert all(map(lt, odd[0::2], odd[1::2])) and all(map(gt, odd[1::2], odd[2::2]))
        assert contains_1234_naive(odd)
        assert _invert_factor(_bottom_word(pattern), pattern) is None
        for p, text in INVERSE_FIRST_FAILURES:
            with pytest.raises(ValueError) as exc:
                invert(p)
            assert str(exc.value) == text
            assert isinstance(exc.value, NotInImageError) == text.startswith("not in image")

    def test_up_down_permutations_pass_the_word_and_block_checks(self):
        # the inverse's Dyck-word and block checks are guards no input
        # reaches: an up-down permutation's bottom letters mark a Dyck word,
        # and each block of p holds its factor's letters
        for size in range(0, 9, 2):
            for p in filter(is_up_down, itertools.permutations(range(1, size + 1))):
                word = _bottom_word(p)
                DyckPath(word)
                for a, b in factor_spans(word):
                    assert sorted(p[size - b:size - a]) == list(range(a + 1, b + 1))

    def test_exhaustive_roundtrip_small(self, wd_pools):
        for pool in wd_pools.values():
            for x in pool:
                assert from_permutation(to_permutation(x).perm) == x

    def test_every_member_has_a_preimage(self, perm_pools):
        for n in range(4):
            images = set()
            for p in perm_pools[n]:
                x = from_permutation(p)
                assert to_permutation(x).perm == p
                images.add(x)
            assert len(images) == len(perm_pools[n])


class TestInverseBeyondExhaustive:
    @pytest.mark.parametrize("irreducible", [True, False])
    @pytest.mark.parametrize("n", [20, 50, 200])
    def test_seeded_random_roundtrip(self, n, irreducible):
        rng = random.Random(n)
        for _ in range(5):
            x = random_path(rng, n, irreducible)
            assert (len(factor_spans(x.steps)) == 1) == irreducible
            assert from_permutation(to_permutation(x).perm) == x

    def test_a_plan_keys_its_records_by_index(self):
        # each plan record is held with its index in its frame, not with a
        # mask of the records before it: the plan of an n = 8,000 path
        # takes about 4.6 MB, where the masks made it about 13.2 MB
        steps = random_path(random.Random(8000), 8000, True).steps
        for word in (steps, _reflected_steps(steps)):  # the rows first
            _step_rows(word)
        _factor_plan.cache_clear()
        tracemalloc.start()
        try:
            _factor_plan(steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            _factor_plan.cache_clear()
        assert peak < 8_000_000

    def test_many_factors_invert_in_linear_time(self):
        # each factor's weights are written into one list: (UD)^16000 has
        # 16,000 factors, and prepending each factor's weights to a tuple
        # copied it once per factor, about 0.9 s where the map takes 0.07 s
        x = wd("UD" * 16000)
        p = to_permutation(x).perm
        start = time.perf_counter()
        back = from_permutation(p)
        assert time.perf_counter() - start < 0.3
        assert back == x

    def test_tall_paths_roundtrip(self):
        # heights above 64, where the span rows are read on demand
        _row.cache_clear()
        _step_rows.cache_clear()
        rng = random.Random(70)
        for steps in TALL_WORDS:
            for _ in range(5):
                x = random_weighting(rng, steps)
                assert from_permutation(to_permutation(x).perm) == x
        # the tall words have fewer shapes than `_row` holds, so each shape
        # is built once and no row is evicted
        info = _row.cache_info()
        assert info.misses == info.currsize

    def test_rows_are_evicted_and_built_again(self):
        # a word of 4,400 shapes, all distinct, more than `_row` holds:
        # building its rows evicts the first ones, and building them again
        # (the word's cached rows and plan cleared) misses at every shape
        steps = "U" * 2200 + "D" * 2200
        _row.cache_clear()
        rng = random.Random(4400)
        for _ in range(2):
            _step_rows.cache_clear()
            _factor_plan.cache_clear()
            x = random_weighting(rng, steps)
            assert from_permutation(to_permutation(x).perm) == x
        info = _row.cache_info()
        assert info.currsize <= 4096
        assert info.misses == 2 * len(steps)

    def test_caches_stay_bounded(self):
        # every fresh path adds two keys (itself and its mirror) to each
        # cache, so 2,100 of them would grow an unbounded cache past 4,096
        rng = random.Random(2100)
        for _ in range(2100):
            x = random_path(rng, 50, True)
            assert from_permutation(to_permutation(x).perm) == x
        assert _height_profile.cache_info().currsize <= 4096
        # the round trips leave _step_rows, _factor_plan (one key per
        # path: the inverse reuses the forward map's plan) and _word_spans
        # (one key per path, its bottom word) well below their bounds; the
        # 4,862 Dyck words of semilength 9 drive them past
        for steps in _dyck_words(9):
            _step_rows(steps)
            _factor_plan(steps)
            _word_spans(steps)
        for cache in (_step_rows, _factor_plan, _word_spans):
            assert cache.cache_info().currsize <= 4096
        # a path of height H has at most 4H + 1 shapes, so only paths
        # taller than about 1,000 fill `_row`; its bound is what keeps the
        # rows of taller ones from growing it
        assert _row.cache_info().maxsize == 4096
        assert _row.cache_info().currsize <= 4096


def _order_pairs(max_n):
    """(steps, image) for each irreducible word of semilength <= max_n and
    each pair of orders of its rises and of its falls, the image
    interleaving them: every target whose bottom letters mark the word."""
    for n in range(1, max_n + 1):
        for steps in _dyck_words(n):
            if len(factor_spans(steps)) > 1:
                continue
            rises = [i for i, s in enumerate(steps, start=1) if s == UP]
            falls = [i for i, s in enumerate(steps, start=1) if s != UP]
            for bot, top in itertools.product(itertools.permutations(rises),
                                              itertools.permutations(falls)):
                yield steps, tuple(v for pair in zip(bot, top) for v in pair)


def _read_off_by_count(steps, image):
    """The read-off weight of each step, None at a jump, counted as the
    `_invert_factor` docstring states it: the distance of the k-th record
    of a frame is the number of the frame's first k letters that stand
    after it in the word its frame inserts into (the bottom word, or the
    top word reversed); a distance of k is a jump, any other gives
    distance - off."""
    bottom, top = _factor_plan(steps)[:2]
    read = {}
    for frame, word in ((bottom, image[0::2]), (top, image[1::2][::-1])):
        for k, (s, _, off, _, _) in enumerate(frame):
            earlier = {rise[0] for rise in frame[:k]}
            dist = sum(v in earlier for v in word[word.index(s) + 1:])
            read[s] = None if dist == k else dist - off
    return read


class TestInvertFactor:
    def test_negative_read_off_has_no_preimage(self, monkeypatch):
        # a target no image has (it contains 1234, so from_permutation never
        # passes it on): the bottom word reads rise 4 at weight -1, and the
        # inverse stops there, before any row is read at that weight: here
        # every row of the plan raises when read
        steps, image = "UUDUDD", (1, 3, 2, 5, 4, 6)
        assert _read_off_by_count(steps, image)[4] == -1
        # the table holds bytes images, and a tuple is never in it
        table = _image_table(steps)
        assert table and all(type(perm) is bytes for perm, _ in table.items())
        assert table.get(bytes(image)) is None and table.get(image) is None

        class Unread:
            def __getitem__(self, i):
                raise AssertionError(f"a row was read at {i}")

        def hide(rise):
            s, nb, off, _, end = rise
            return s, nb, off, Unread(), end

        bottom, top, by_step, settle = _factor_plan(steps)
        hidden = (tuple(map(hide, bottom)), tuple(map(hide, top)),
                  tuple(entry and (entry[0], hide(entry[1])) for entry in by_step),
                  tuple(map(hide, settle)))
        monkeypatch.setattr(_insertion, "_factor_plan", lambda word: hidden)
        assert _invert_factor(steps, image) is None

    def test_read_off_weights_never_exceed_the_lower_height(self):
        # the bound the docstring of _invert_factor proves, on every pair of
        # rise and fall orders of the irreducible words of semilength <= 4,
        # and its proof that no two jumps read each other: the chain of
        # neighbours from every jump ends in a set weight.  This is the
        # exhaustive check behind `_invert_factor` setting the jumps in one
        # sweep each way, with no branch for a jump left unset.
        checked = 0
        for steps, image in _order_pairs(4):
            h = _height_profile(steps)
            read = _read_off_by_count(steps, image)
            for pos, w in read.items():
                assert w is None or w <= min(h[pos - 1], h[pos])
            reads = {s: nb for frame in _factor_plan(steps)[:2] for s, nb, *_ in frame}
            for s in read:
                chain = [s]
                while read.get(chain[-1], 0) is None:
                    chain.append(reads[chain[-1]])
                    assert chain[-1] not in chain[:-1], (steps, image, chain)
            checked += 1
        # (n!)^2 pairs of orders for each of the 1, 1, 2, 5 irreducible words
        assert checked == 1 + 4 + 2 * 36 + 5 * 576

    def test_inverse_agrees_with_the_table_on_every_target(self, monkeypatch):
        # every target whose bottom letters mark an irreducible word of
        # semilength <= 4, images and non-images: the inverse finds the
        # table's weighting or, exactly when the table has none, returns
        # None.  The non-images reach each None exit: a negative read-off
        # weight, a non-jump at its bound (the validity test is not
        # reached), and a weighting that is not valid
        valid = []
        real = _insertion._fits

        def fits(rows, weights):
            valid.append(real(rows, weights))
            return valid[-1]

        monkeypatch.setattr(_insertion, "_fits", fits)
        exits = Counter()
        for steps, image in _order_pairs(4):
            want = _image_table(steps).get(bytes(image))
            tested = len(valid)
            assert _invert_factor(steps, image) == (want and tuple(want)), (steps, image)
            if want:
                exits["image"] += 1
            elif any(w is not None and w < 0 for w in _read_off_by_count(steps, image).values()):
                exits["negative"] += 1
            elif len(valid) == tested:
                exits["at its bound"] += 1
            else:
                exits["not valid"] += 1
        assert valid.count(True) == exits["image"]
        assert exits == {"image": 405, "negative": 1568, "at its bound": 686, "not valid": 298}


def _frames_from_runs(steps):
    """The bottom and top frames of `_factor_plan`, each built from the
    `paths._runs` of its own word: the mirror's frame from the mirror's
    runs, renumbered into the path's steps."""
    def frame_of(word, mirror):
        rows, mirror_rows = _step_rows(word), _step_rows(mirror)
        ups = [run for run in _runs(word) if run.kind == UP]
        cut = _insertion._left_count(len(ups))
        frame, rises_before = [], 0
        for idx, run in enumerate(ups):
            shift = run.start - 1 - rises_before
            rises_before += run.length
            for p in range(run.start, run.start + run.length):
                frame.append((p, p - 1, shift - 1, rows[p - 1], 0) if idx < cut
                             else (p, p + 1, shift, mirror_rows[len(word) - p], 1))
        return tuple(frame)

    m, mirror = len(steps), _reflected_steps(steps)
    return frame_of(steps, mirror), tuple((m + 1 - s, m + 1 - nb, off, row, end)
                                          for s, nb, off, row, end in frame_of(mirror, steps))


class TestPlanFromOneScan:
    def test_frames_match_the_runs_of_each_word(self):
        # `_factor_plan` reads both frames' runs off one scan of the path;
        # the mirror's up runs are the path's down runs, right to left
        factors = {steps[a:b] for n in range(8) for steps in _dyck_words(n)
                   for a, b in factor_spans(steps)}
        assert len(factors) == sum((1, 1, 2, 5, 14, 42, 132))
        for steps in sorted(factors):
            assert _factor_plan(steps)[:2] == _frames_from_runs(steps), steps


class TestPlanAgainstSpec:
    """The plan-driven forward map and inverse against the paper's
    statements, not against the code they replaced: an image is an up-down
    permutation whose bottom letters are the path's rises, the images of
    one word are distinct avoiders of 1234, and the inverse finds exactly
    the weighting of the bottom word that maps to p."""

    def test_map_factor_small(self):
        mapped = outside = 0
        for n in range(1, 6):
            for steps in _dyck_words(n):
                if len(factor_spans(steps)) > 1:
                    continue
                rises = [i for i, s in enumerate(steps, start=1) if s == UP]
                images = set()
                for weights in lex_weightings(steps):
                    mapped += 1
                    p = _map_factor(steps, weights)
                    assert sorted(p) == list(range(1, 2 * n + 1))
                    assert brute_descents(p) == set(range(2, 2 * n, 2))
                    assert sorted(p[0::2]) == rises
                    images.add(p)
                    outside += contains_1234_naive(p)
                assert len(images) == word_weighting_count(steps)
        assert mapped == 5249
        assert outside == 0

    def test_map_factor_tall_paths(self):
        rng = random.Random(71)
        for steps in TALL_WORDS:
            rises = [i for i, s in enumerate(steps, start=1) if s == UP]
            for _ in range(5):
                x = random_weighting(rng, steps)
                p = to_permutation(x).perm
                assert brute_descents(p) == set(range(2, len(p), 2))
                assert sorted(p[0::2]) == rises
                assert naive_lis(p) <= 3
                assert from_permutation(p) == x

    def test_plan_bounds_are_the_jump_rule(self):
        # the bound a plan record reads, row[w[nb]][end], is `jump_bound` of
        # its rise under the membership `split_up_slopes` gives: on the path
        # in the bottom frame, on the mirror in the mirrored frame
        rng = random.Random(72)
        small = [x for n in range(1, 6) for x in enumerate_weighted(n)
                 if len(factor_spans(x.steps)) == 1]
        tall = [random_weighting(rng, steps) for steps in TALL_WORDS for _ in range(5)]
        checked = 0
        for x in small + tall:
            m = len(x)
            w = (0, *x.weights, 0)
            bottom, top = _factor_plan(x.steps)[:2]
            for frame, y, number in ((bottom, x, lambda s: s), (top, reflect(x), lambda s: m + 1 - s)):
                d = slopes(y)
                halves = {u: half for run, half in zip(d.up_slopes, split_up_slopes(d))
                          for u in range(run.start, run.start + run.length)}
                assert len(frame) == len(halves)
                for step, nb, _, row, end in frame:
                    u = number(step)
                    assert row[w[nb]][end] == jump_bound(y, u, halves[u]), (serialize_path(x), u)
                    checked += 1
        assert checked == 2 * sum(x.n for x in small + tall)

    def test_trace_fields_are_the_slopes_of_the_path(self):
        # the trace reads slope, membership and shift off the plan; here
        # they come from `slopes`, `split_up_slopes` and the falls left of
        # the rise's up slope
        checked = 0
        for n in range(6):
            for x in enumerate_weighted(n):
                if len(factor_spans(x.steps)) > 1:
                    continue
                d = slopes(x)
                spec = {u: (k, half, x.steps[:run.start - 1].count("D"))
                        for k, (run, half) in enumerate(
                            zip(d.up_slopes, split_up_slopes(d)), start=1)
                        for u in range(run.start, run.start + run.length)}
                _, trace = insertion_word(x)
                assert [st_.position for st_ in trace] == sorted(spec)
                for st_ in trace:
                    assert (st_.slope, st_.membership, st_.shift) == spec[st_.position]
                    checked += 1
        assert checked == sum(x.n for n in range(6) for x in enumerate_weighted(n)
                              if len(factor_spans(x.steps)) == 1)

    def test_plan_rows_are_the_step_rows(self):
        # a rise on the left half reads its own row of `_step_rows` at step
        # p-1; one on the right half reads the mirror's row of the rise at
        # step p+1.  The mirrored frame is the mirror's bottom frame, renumbered.
        for n in range(1, 6):
            for steps in _dyck_words(n):
                m = len(steps)
                mirror = reflect(wd(steps)).steps
                rows, mirror_rows = _step_rows(steps), _step_rows(mirror)
                d = slopes(DyckPath(steps))
                halves = {u: half for run, half in zip(d.up_slopes, split_up_slopes(d))
                          for u in range(run.start, run.start + run.length)}
                bottom, top = _factor_plan(steps)[:2]
                assert [rise[0] for rise in bottom] == sorted(halves)
                for p, nb, _, row, end in bottom:
                    if halves[p] == LEFT:
                        assert (nb, end) == (p - 1, 0) and row is rows[p - 1]
                    else:
                        assert (nb, end) == (p + 1, 1) and row is mirror_rows[m - p]
                assert [(m + 1 - q, m + 1 - nb, off, row, end)
                        for q, nb, off, row, end in top] == list(_factor_plan(mirror)[0])

    def test_inverse_on_every_up_down_permutation(self):
        # all 1,453 up-down permutations of size <= 8, images and
        # non-images alike; a permutation containing 1234 is rejected
        # before its bottom word is read (test_rejects_pattern_container)
        tables: dict = {}
        seen = images = 0
        for size in range(0, 9, 2):
            for p in filter(is_up_down, itertools.permutations(range(1, size + 1))):
                seen += 1
                if contains_1234_naive(p):
                    continue
                word = "".join(UP if i in p[0::2] else "D" for i in range(1, size + 1))
                # an avoider's bottom letters always mark a Dyck path
                assert min(brute_heights(word)) == 0
                if word not in tables:
                    tables[word] = defaultdict(list)
                    for w in lex_weightings(word):
                        tables[word][to_permutation(wd(word, w)).perm].append(w)
                found = tables[word].get(p, [])
                assert len(found) <= 1
                if found:
                    images += 1
                    assert from_permutation(p) == wd(word, found[0])
                else:
                    with pytest.raises(NotInImageError, match="no weighting of"):
                        from_permutation(p)
        assert seen == 1453
        assert images == 511


class TestBruteInverse:
    def test_empty(self):
        assert from_permutation_brute(()) == wd("")

    def test_composite(self):
        assert serialize_path(from_permutation_brute((5, 6, 2, 4, 1, 3))) == "UUDDUD;0,0,0,0,0,0"

    def test_small(self):
        assert from_permutation_brute((2, 4, 1, 3)) == wd("UUDD")

    def test_agrees_with_search_inverse(self, perm_pools):
        for n in range(4):
            for p in perm_pools[n]:
                assert from_permutation_brute(p) == from_permutation(p)

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            from_permutation_brute(tuple(range(1, 17)))

    def test_table_cache_is_bounded(self):
        # the 64 Dyck words of semilength 1..5, the last 16 of semilength 6
        # and the 180 of semilength 7 with the fewest weightings need more
        # tables than the cache keeps
        low7 = sorted(_dyck_words(7), key=word_weighting_count)[:180]
        words = ([w for n in range(1, 6) for w in _dyck_words(n)]
                 + list(_dyck_words(6))[-16:] + low7)
        assert len(set(words)) > 256
        for steps in words:
            x = next(enumerate_weightings(DyckPath(steps)))
            assert from_permutation_brute(to_permutation(x).perm) == x
        assert _image_table.cache_info().currsize <= 256


class TestStructuralCompatibility:
    def test_mirror_equivariance_small(self, wd_pools):
        for n in range(4):
            for x in wd_pools[n]:
                lhs = to_permutation(reflect(x)).perm
                rhs = schutzenberger(to_permutation(x).perm)
                assert lhs == rhs

    def test_product_anticompatibility_small(self, wd_pools):
        for a in range(3):
            for b in range(3 - a + 1):
                if a + b > 3:
                    continue
                for x in wd_pools[a]:
                    for y in wd_pools[b]:
                        lhs = to_permutation(concat(x, y)).perm
                        rhs = shifted_concat(to_permutation(y).perm,
                                             to_permutation(x).perm)
                        assert lhs == rhs
