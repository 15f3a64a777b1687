import gc
import hashlib
import itertools
from bisect import bisect_left

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dyckperm import perms
from dyckperm._references import _up_down_perms
from dyckperm.perms import (
    AlternatingPermutation,
    _avoider_groups,
    _avoider_lines,
    _extend,
    assemble,
    avoids_123_word,
    avoids_1234,
    count_updown_avoiders,
    descent_set,
    enumerate_updown_avoiders,
    is_up_down,
    lis_length,
    membership_criteria,
    parse_int_list,
    parse_perm_text,
    perm_text,
    schutzenberger,
    schutzenberger_word,
    shifted_concat,
    standardize,
)
from dyckperm.verify import REFERENCE_COUNTS

from .oracles import (
    brute_updown_avoiders,
    closed_form,
    contains_1234_naive,
    contains_123_triple,
    first_updown_avoider,
    naive_lis,
)

def walked_table(prefix, N):
    """The suffix table of `prefix` as rank tuples, from one `_extend` walk
    of the prefix to depth N, which shares no state with another table."""
    cur = list(prefix)
    free = sorted(set(range(1, N + 1)) - set(prefix))
    tails = []
    for v in prefix:
        j = bisect_left(tails, v)
        tails[j:j + 1] = [v]
    rank = {v: r for r, v in enumerate(free)}
    return [tuple(rank[v] for v in cur[len(prefix):]) for _ in _extend(cur, free, tails, N)]


def count_extend_work(monkeypatch):
    """[calls, items] of `perms._extend` from here on, counted in place."""
    count = [0, 0]
    extend = perms._extend

    def counted(*args):
        count[0] += 1
        for _ in extend(*args):
            count[1] += 1
            yield

    monkeypatch.setattr(perms, "_extend", counted)
    return count


perms_up_to_6 = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
)


class TestDescentsAndShape:
    def test_descents_of_364512(self):
        assert descent_set((3, 6, 4, 5, 1, 2)) == {2, 4}

    def test_identity_has_no_descent(self):
        assert descent_set((1, 2, 3, 4, 5, 6)) == set()

    def test_single_descent(self):
        assert descent_set((2, 1)) == {1}

    def test_up_down_examples(self):
        assert is_up_down((1, 4, 3, 6, 2, 5))
        assert is_up_down((1, 2))
        assert not is_up_down((2, 1))
        assert not is_up_down((1, 2, 3))  # odd size
        assert is_up_down(())


class TestIncreasingSubsequences:
    def test_examples(self):
        assert avoids_1234((5, 6, 2, 4, 1, 3))
        assert not avoids_1234((1, 2, 3, 4, 5, 6))
        assert lis_length((1, 2, 3, 4, 5, 6)) == 6
        assert avoids_1234((1, 4, 3, 6, 2, 5))

    def test_avoids_1234_agrees_with_quadruple_scan(self):
        for size in range(1, 9):
            for p in itertools.permutations(range(1, size + 1)):
                assert avoids_1234(p) == (not contains_1234_naive(p))

    @given(perms_up_to_6)
    def test_lis_matches_quadratic_dp(self, p):
        assert lis_length(p) == naive_lis(p)

    def test_avoids_123_word_examples(self):
        assert avoids_123_word((8, 6, 11, 7, 2, 4, 1))
        assert not avoids_123_word((1, 2, 3))
        assert avoids_123_word(())

    @given(st.lists(st.integers(min_value=1, max_value=50), unique=True, max_size=8))
    def test_avoids_123_matches_triple_scan(self, w):
        assert avoids_123_word(w) == (not contains_123_triple(w))


class TestSchutzenberger:
    def test_printed_example(self):
        assert schutzenberger((4, 8, 2, 7, 1, 6, 3, 5)) == (4, 6, 3, 8, 2, 7, 1, 5)

    def test_size_two(self):
        assert schutzenberger((1, 2)) == (1, 2)

    def test_empty(self):
        assert schutzenberger(()) == ()

    @given(perms_up_to_6)
    def test_involution(self, p):
        assert schutzenberger(schutzenberger(tuple(p))) == tuple(p)

    def test_stabilizes_the_family(self, perm_pools):
        for n in range(5):
            family = set(perm_pools[n])
            assert {schutzenberger(p) for p in family} == family

    def test_word_variant_example(self):
        assert schutzenberger_word((1, 6, 4), 8) == (5, 3, 8)

    def test_word_variant_small(self):
        assert schutzenberger_word((1,), 2) == (2,)

    def test_word_variant_involution(self):
        w = (13, 12, 14, 10, 9, 5, 3)
        assert schutzenberger_word(schutzenberger_word(w, 14), 14) == w

    def test_word_variant_range_check(self):
        with pytest.raises(ValueError, match="outside"):
            schutzenberger_word((9,), 8)


class TestShiftedConcat:
    def test_printed_example(self):
        assert shifted_concat((1, 2), (1, 4, 2, 3)) == (5, 6, 1, 4, 2, 3)

    def test_identity(self):
        assert shifted_concat((), (2, 4, 1, 3)) == (2, 4, 1, 3)
        assert shifted_concat((2, 4, 1, 3), ()) == (2, 4, 1, 3)

    def test_two_rises(self):
        assert shifted_concat((1, 2), (1, 2)) == (3, 4, 1, 2)

    def test_closure_of_the_family(self, perm_pools):
        for a in range(4):
            for b in range(4 - a + 1):
                if a + b > 4:
                    continue
                family = set(perm_pools[a + b])
                for s in perm_pools[a]:
                    for t in perm_pools[b]:
                        assert shifted_concat(s, t) in family

    def test_alphabet_reversal_is_an_antimorphism(self, perm_pools):
        for a in range(4):
            for b in range(4 - a + 1):
                if a + b > 4:
                    continue
                for s in perm_pools[a]:
                    for t in perm_pools[b]:
                        lhs = schutzenberger(shifted_concat(s, t))
                        rhs = shifted_concat(schutzenberger(t), schutzenberger(s))
                        assert lhs == rhs


class TestStandardize:
    def test_bottom_word_of_the_example(self):
        assert standardize((8, 6, 11, 7, 2, 4, 1)) == (6, 4, 7, 5, 2, 3, 1)

    def test_rank_map(self):
        assert standardize((1, 6, 4)) == (1, 3, 2)

    def test_already_standard(self):
        assert standardize((2, 3, 1)) == (2, 3, 1)

    def test_rejects_repeats(self):
        with pytest.raises(ValueError, match="distinct"):
            standardize((1, 1))


class TestAssemble:
    def test_small_figure(self):
        assert assemble((3, 4, 1), (6, 5, 2)).perm == (3, 6, 4, 5, 1, 2)

    def test_worked_example(self):
        sigma = assemble((8, 6, 11, 7, 2, 4, 1), (13, 12, 14, 10, 9, 5, 3))
        assert sigma.perm == (8, 13, 6, 12, 11, 14, 7, 10, 2, 9, 4, 5, 1, 3)
        assert sigma.bot == (8, 6, 11, 7, 2, 4, 1)
        assert sigma.top == (13, 12, 14, 10, 9, 5, 3)

    def test_minimal(self):
        assert assemble((1,), (2,)).perm == (1, 2)

    def test_halves_of_two_lengths(self):
        with pytest.raises(ValueError) as exc:
            assemble((1,), ())
        assert str(exc.value) == "1 bottom letters but 0 top letters"

    def test_not_a_partition(self):
        with pytest.raises(ValueError, match="partition"):
            assemble((1,), (3,))

    def test_not_up_down(self):
        with pytest.raises(ValueError, match="up-down"):
            assemble((2,), (1,))

    def test_alternating_type_validates(self):
        with pytest.raises(ValueError):
            AlternatingPermutation((2, 1))
        with pytest.raises(ValueError):
            AlternatingPermutation((1, 3))

    def test_alternating_size_is_half_the_length(self):
        assert AlternatingPermutation((1, 3, 2, 4)).n == 2


class TestEnumeration:
    def test_n0_and_n1(self):
        assert list(enumerate_updown_avoiders(0)) == [()]
        assert list(enumerate_updown_avoiders(1)) == [(1, 2)]

    def test_n2_exact(self):
        got = list(enumerate_updown_avoiders(2))
        assert got == [(1, 3, 2, 4), (1, 4, 2, 3), (2, 3, 1, 4), (2, 4, 1, 3), (3, 4, 1, 2)]

    def test_matches_brute_force(self):
        for n in range(5):
            assert list(enumerate_updown_avoiders(n)) == sorted(brute_updown_avoiders(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 600])
    def test_first_is_closed_form(self, n):
        # n = 600 finishes only if the search neither recurses 1200 deep
        # nor wanders through prefixes that cannot be completed
        assert next(enumerate_updown_avoiders(n)) == first_updown_avoider(n)

    def test_first_at_n600_places_few_letters(self):
        # tops jump to max R once a candidate lies above tails[1], and
        # bottoms past the candidates that fail (c): 3n - 1 = 1,799 letters,
        # where placing each top above tails[1] and testing (b) took 180,900
        class Counting(list):
            placed = 0

            def append(self, v):
                self.placed += 1
                super().append(v)

        cur = Counting()
        next(_extend(cur, list(range(1, 1201)), [], 1200))
        assert tuple(cur) == first_updown_avoider(600)
        assert cur.placed < 2000

    def test_n3_order_and_count(self):
        got = list(enumerate_updown_avoiders(3))
        assert len(got) == 42
        assert got[0] == (1, 4, 3, 6, 2, 5)
        assert got[1] == (1, 5, 3, 6, 2, 4)
        assert got[-1] == (5, 6, 3, 4, 1, 2)
        assert got == sorted(got)

    def test_negative(self):
        with pytest.raises(ValueError):
            list(enumerate_updown_avoiders(-1))
        with pytest.raises(ValueError):
            list(_avoider_lines(-1))

    def test_matches_the_plain_up_down_backtracker(self):
        # _up_down_perms knows nothing of 1234; at n = 5 the suffix tables
        # complete prefixes of length 2
        ground = [p for p in _up_down_perms(5) if avoids_1234(p)]
        assert list(enumerate_updown_avoiders(5)) == ground

    def test_n6_is_pinned(self):
        # the sha256 of `dyckperm enumerate --family perm --n 6` before the
        # suffix tables; at n = 6 they complete prefixes of length 4
        digest = hashlib.sha256()
        count = 0
        for p in enumerate_updown_avoiders(6):
            digest.update(f"{perm_text(p)}\n".encode())
            count += 1
        assert count == REFERENCE_COUNTS[6]
        assert digest.hexdigest() == (
            "d2c1165e7d48dd32ff36d97192e2cf3b7d9cce015e6fb3d55dde1fc7960b4023")

    @pytest.mark.parametrize("n", range(7))
    def test_lines_are_the_permutation_texts(self, n):
        # the text of `dyckperm enumerate`, made without the permutations;
        # up to n = 4 every prefix is empty, from n = 5 on it is not
        lines = list(_avoider_lines(n))
        assert lines == [perm_text(p) + "\n" for p in enumerate_updown_avoiders(n)]
        assert n or lines == ["\n"]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_walk_keeps_exactly_the_completable_prefixes(self, n):
        # the completion test is exact after every letter, tops included
        family = list(enumerate_updown_avoiders(n))
        for depth in range(2 * n + 1):
            cur, free, tails = [], list(range(1, 2 * n + 1)), []
            walked = [tuple(cur) for _ in _extend(cur, free, tails, depth)]
            assert walked == sorted({p[:depth] for p in family})
            assert (cur, free, tails) == ([], list(range(1, 2 * n + 1)), [])


class TestSuffixTables:
    @pytest.mark.parametrize("n, signatures", [(5, 35), (6, 70), (7, 96)])
    def test_each_table_is_a_direct_walk(self, n, signatures):
        # the tables are shared per signature; check each at the first
        # prefix that meets it
        seen = {}
        for prefix, table, free in _avoider_groups(n):
            if id(table) not in seen:
                seen[id(table)] = table
                ranks = [get(range(len(free))) for get in table]
                assert ranks == walked_table(prefix, 2 * n)
        assert len(seen) == signatures

    @pytest.mark.parametrize("n, calls, items", [(6, 345, 1818), (7, 371, 19372)])
    def test_work_per_call(self, monkeypatch, n, calls, items):
        # one step per state below the lookup depth; a walk of 8 letters
        # per table would make 71 calls and 12,857 items at n = 6, and 97
        # and 33,719 at n = 7
        count = count_extend_work(monkeypatch)
        assert sum(1 for _ in _avoider_lines(n)) == REFERENCE_COUNTS[n]
        assert count == [calls, items]

    def test_no_reference_cycle(self):
        # the memo of sub-states goes with the call, without waiting for
        # the cyclic collector
        gc.collect()
        gc.disable()
        try:
            list(_avoider_lines(6))
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestCounting:
    def test_closed_form(self):
        # 2,861,142,656,400 avoiders at n = 12, none of them listed
        for n in range(13):
            assert count_updown_avoiders(n) == closed_form(n)

    def test_matches_the_enumeration(self):
        for n in range(7):
            assert count_updown_avoiders(n) == sum(1 for _ in enumerate_updown_avoiders(n))

    def test_negative(self):
        with pytest.raises(ValueError):
            count_updown_avoiders(-1)

    @pytest.mark.parametrize("n, calls, items", [(6, 481, 1524), (10, 2647, 13453)])
    def test_work_per_call(self, monkeypatch, n, calls, items):
        # one `_extend` step per state that is not finished, one item per
        # way out of it; a memo that never hit would give the same counts
        # after exponentially many steps
        count = count_extend_work(monkeypatch)
        assert count_updown_avoiders(n) == closed_form(n)
        assert count == [calls, items]

    def test_one_memo_serves_every_n(self):
        # a state's count does not depend on n, only on |R| and its
        # signature, so a memo filled at smaller n answers at larger n
        memo = {}
        for n in range(13):
            count = perms._completions([], list(range(1, 2 * n + 1)), [], memo, 1,
                                       lambda _r, count: count)
            assert count == closed_form(n)


class TestCriteria:
    def test_member_passes_all_four(self):
        c = membership_criteria((1, 4, 3, 6, 2, 5))
        assert (c.c1, c.c2, c.c3, c.c4) == (True, True, True, True)
        assert c.verdict

    def test_identity_fails_top_condition(self):
        c = membership_criteria((1, 2, 3, 4, 5, 6))
        assert not c.c1  # top letters 2,4,6 contain an increasing triple
        assert not c.verdict

    def test_another_member(self):
        assert membership_criteria((5, 6, 2, 4, 1, 3)).verdict

    def test_descent_at_odd_position_is_caught(self):
        # up-down fails only through the column condition here
        c = membership_criteria((3, 4, 2, 1))
        assert not c.c3
        assert not c.verdict

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError, match="even"):
            membership_criteria((1, 2, 3))

    def test_equivalence_exhaustive_size_6(self):
        for p in itertools.permutations(range(1, 7)):
            expected = is_up_down(p) and avoids_1234(p)
            assert membership_criteria(p).verdict == expected


class TestTextForms:
    def test_roundtrip(self):
        assert parse_perm_text("8,13,6,12,11,14,7,10,2,9,4,5,1,3") == (
            8, 13, 6, 12, 11, 14, 7, 10, 2, 9, 4, 5, 1, 3)
        assert perm_text((1, 4, 3, 6, 2, 5)) == "1,4,3,6,2,5"
        assert parse_perm_text("") == ()

    def test_malformed(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_perm_text("1,x")

    @pytest.mark.parametrize("text", [
        "+1,2", "1_0", "\u0662,\u0661", "\uff11,\uff12", "1, 2", "-1", "1,,2",
    ])
    def test_tokens_are_ascii_digits(self, text):
        # int() accepts signs, underscores, spaces and non-ASCII digits
        with pytest.raises(ValueError, match="malformed"):
            parse_perm_text(text)

    @pytest.mark.parametrize("text, bad", [
        ("1,x,y", "x"), ("", ""), ("1,", ""), ("1, 2", " 2"), ("+1,-2", "+1"),
    ])
    def test_error_names_the_first_bad_token(self, text, bad):
        with pytest.raises(ValueError) as exc:
            parse_int_list(text)
        assert str(exc.value) == f"malformed number {bad!r}"

    @given(perms_up_to_6)
    def test_text_roundtrip(self, p):
        assert parse_perm_text(perm_text(p)) == tuple(p)
