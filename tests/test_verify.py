import itertools
import json

import pytest

import dyckperm.bijection as bijection
import dyckperm.verify as verify
from dyckperm.bijection import (
    SPLIT_CEIL,
    SPLIT_FLOOR,
    InternalConsistencyError,
    _image_table,
    _map_factor,
    to_permutation,
)
from dyckperm.paths import WeightedDyckPath, _dyck_words, factor_spans, parse_path, serialize_path
from dyckperm.perms import is_up_down
from dyckperm.verify import (
    DEFAULT_CAPS,
    EULER_ZIGZAG,
    REFERENCE_COUNTS,
    SUITES,
    run_all,
    run_suite,
    top_word_direct,
)

from .conftest import EXAMPLE14_TEXT
from .oracles import (
    brute_dyck_words,
    per_path_bijectivity,
    per_path_image_table,
    per_path_insertion_lemma,
    per_path_statistic,
    per_path_transformation,
    per_permutation_criteria,
    word_weighting_count,
)

EX14 = parse_path(EXAMPLE14_TEXT)


class TestTopWordDirect:
    def test_worked_example(self):
        assert top_word_direct(EX14) == (13, 12, 14, 10, 9, 5, 3)

    def test_single_arch(self):
        assert top_word_direct(WeightedDyckPath.from_steps("UD")) == (2,)

    def test_double_arch(self):
        assert top_word_direct(WeightedDyckPath.from_steps("UUDD")) == (4, 3)


class TestRunSuite:
    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("everything")

    def test_negative_cap_rejected(self):
        # a negative cap would check nothing and still report a pass
        with pytest.raises(ValueError, match="non-negative"):
            run_suite("counts", -1)
        with pytest.raises(ValueError, match="non-negative"):
            run_all(-1)

    @pytest.mark.parametrize("suite", SUITES)
    def test_every_suite_passes_small(self, suite):
        report = run_suite(suite, 2)
        assert report.verdict == "pass"
        assert report.checked > 0
        assert report.failures == ()
        assert report.n_range == (0, 2)

    def test_default_caps_used(self):
        report = run_suite("schutzenberger", None)
        assert report.n_range == (0, DEFAULT_CAPS["schutzenberger"])
        assert report.verdict == "pass"

    def test_record_shape(self):
        report = run_suite("counts", 2)
        record = report.to_record()
        assert set(record) == {"suite", "nRange", "checked", "failures", "verdict", "elapsed"}
        json.dumps(record)  # serializable

    def test_reports_reproducible(self):
        a = run_suite("bijectivity", 3).to_record()
        b = run_suite("bijectivity", 3).to_record()
        a.pop("elapsed")
        b.pop("elapsed")
        assert a == b

    def test_reference_counts(self):
        assert REFERENCE_COUNTS == (1, 1, 5, 42, 462, 6006, 87516, 1385670)

    def test_catalan_values_against_brute_filter(self):
        import itertools

        from .oracles import contains_123_triple

        for n in range(8):
            found = sum(
                1 for p in itertools.permutations(range(1, n + 1))
                if not contains_123_triple(p)
            )
            assert found == verify.CATALAN[n]


class TestRunAll:
    def test_trivial_cap_passes(self):
        reports = run_all(1)
        assert [r.suite for r in reports] == list(SUITES)
        assert all(r.verdict == "pass" for r in reports)

    def test_cap_is_lowered_not_raised(self):
        reports = run_all(2)
        for r in reports:
            assert r.n_range[1] == min(DEFAULT_CAPS[r.suite], 2)
            assert r.verdict == "pass"


class TestAlternativeSplitRule:
    def test_floor_rule_still_bijective_at_n2(self):
        assert run_suite("bijectivity", 2, rule=SPLIT_FLOOR).verdict == "pass"

    def test_floor_rule_breaks_at_n3(self):
        # machine-decided: the floor split is not injective from n=3 on,
        # which pins the ceil split as the right convention
        report = run_suite("bijectivity", 3, rule=SPLIT_FLOOR)
        assert report.verdict == "fail"
        assert len(report.failures) == 16


class TestSharedImageTable:
    def test_each_path_mapped_forward_once(self, monkeypatch):
        # bijectivity, roundtrip and statistic read every image from the
        # per-word table, and a reducible word's table is composed from its
        # factors' tables, so one process maps each irreducible path once
        mapped = []

        def counting(steps, weights, rule):
            mapped.append((steps, weights))
            return _map_factor(steps, weights, rule)

        _image_table.cache_clear()
        monkeypatch.setattr(bijection, "_map_factor", counting)
        try:
            for suite in ("bijectivity", "roundtrip", "statistic"):
                assert run_suite(suite, 5).verdict == "pass"
        finally:
            _image_table.cache_clear()
        irreducible = [w for n in range(1, 6) for w in brute_dyck_words(n)
                       if len(factor_spans(w)) == 1]
        assert len(mapped) == len(set(mapped))
        assert len(mapped) == sum(word_weighting_count(w) for w in irreducible) == 5249
        assert {steps for steps, _ in mapped} == set(irreducible)

    @pytest.mark.parametrize("rule", [SPLIT_CEIL, SPLIT_FLOOR])
    def test_tables_equal_per_path_reference(self, rule):
        # items and their order, and under floor the error of a word two of
        # whose weightings share an image; each table is composed afresh
        _image_table.cache_clear()
        raised = 0
        try:
            for n in range(6):
                for steps in _dyck_words(n):
                    try:
                        want = list(per_path_image_table(steps, rule).items())
                    except InternalConsistencyError as exc:
                        raised += 1
                        with pytest.raises(InternalConsistencyError) as got:
                            _image_table(steps, rule)
                        assert str(got.value) == str(exc)
                        continue
                    assert list(_image_table(steps, rule).items()) == want
        finally:
            _image_table.cache_clear()
        # 16 of the 65 words at n <= 5 have no table under floor
        assert raised == (16 if rule == SPLIT_FLOOR else 0)

    @pytest.mark.parametrize("rule", [SPLIT_CEIL, SPLIT_FLOOR])
    def test_records_equal_per_path_reference(self, rule):
        # under floor some words have two weightings with one image, and
        # those words are mapped path by path instead of through the table
        for suite, reference in (("bijectivity", per_path_bijectivity),
                                 ("statistic", per_path_statistic)):
            report = run_suite(suite, 4, rule=rule)
            assert (report.checked, list(report.failures)) == reference(4, rule)


class TestFaultInjection:
    def test_bijectivity_catches_a_corrupted_map(self, monkeypatch):
        fixture = WeightedDyckPath.from_steps("UUDD")
        other = WeightedDyckPath.from_steps("UUDD", (0, 1, 1, 0))

        def corrupted(steps, weights, rule):
            if (steps, weights) == (fixture.steps, fixture.weights):
                return _map_factor(other.steps, other.weights, rule)
            return _map_factor(steps, weights, rule)

        # the suite reads images from _image_table, which maps each
        # irreducible path with bijection._map_factor; the corruption gives
        # two weightings of UUDD one image, so that word is mapped path by
        # path with to_permutation, which maps its factor with the same
        # corrupted function.  No table of the corrupted map may outlive
        # the test.
        _image_table.cache_clear()
        monkeypatch.setattr(bijection, "_map_factor", corrupted)
        try:
            report = run_suite("bijectivity", 2)
        finally:
            _image_table.cache_clear()
        assert report.verdict == "fail"
        blob = json.dumps(report.to_record())
        assert serialize_path(fixture) in blob or serialize_path(other) in blob

    def test_roundtrip_catches_a_corrupted_inverse(self, monkeypatch):
        fixture = WeightedDyckPath.from_steps("UUDD")
        target = to_permutation(fixture).perm
        real = verify.from_permutation

        def corrupted(p, rule=None, **kw):
            if tuple(p) == target:
                return WeightedDyckPath.from_steps("UUDD", (0, 1, 1, 0))
            return real(p)

        monkeypatch.setattr(verify, "from_permutation", corrupted)
        report = run_suite("roundtrip", 2)
        assert report.verdict == "fail"
        assert any(serialize_path(fixture) == f["input"] for f in report.failures)


class TestCriteriaGround:
    def test_backtracker_is_the_up_down_filter(self):
        for m in range(5):
            want = list(filter(is_up_down, itertools.permutations(range(1, 2 * m + 1))))
            assert list(verify._up_down_perms(m)) == want

    def test_backtracker_counts_are_euler_numbers(self):
        assert EULER_ZIGZAG == (1, 1, 5, 61, 1385, 50521)
        for m, ref in enumerate(EULER_ZIGZAG):
            assert sum(1 for _ in verify._up_down_perms(m)) == ref

    @pytest.mark.parametrize("flips", [
        # rejected members: the first and last avoider of size 6, one of size 8
        ((1, 3, 2, 5, 4, 6), (5, 6, 3, 4, 1, 2), (1, 3, 2, 5, 4, 7, 6, 8)),
        # accepted outsiders: before, between and after the avoiders
        ((1, 2, 3, 4, 5, 6), (2, 1, 4, 3, 6, 5), (6, 5, 4, 3, 2, 1), (8, 7, 6, 5, 4, 3, 2, 1)),
        # both kinds, and size 0
        ((), (1, 2), (2, 1), (1, 3, 2, 5, 4, 6), (6, 5, 4, 3, 2, 1)),
    ])
    def test_fault_injection_matches_per_permutation_loop(self, monkeypatch, flips):
        real = verify._criteria_verdict
        flipped = set(flips)

        def corrupted(p):
            return real(p) != (p in flipped)

        monkeypatch.setattr(verify, "_criteria_verdict", corrupted)
        report = run_suite("criteria", 4)
        assert len(report.failures) == len(flips)
        assert (report.checked, list(report.failures)) == per_permutation_criteria(4, corrupted)

    def test_broken_backtracker_is_caught(self, monkeypatch):
        real = verify._up_down_perms

        def dropping(m):
            return (p for p in real(m) if p != (1, 3, 2, 4))

        monkeypatch.setattr(verify, "_up_down_perms", dropping)
        report = run_suite("criteria", 3)
        assert [f["input"] for f in report.failures] == ["up-down permutations, size=4", "1,3,2,4"]


def _perturbed_up_infos(real):
    """`_up_infos` with one more fall counted left of the first and the
    last rise of every word: the first rise's shift then exceeds the
    next one's, and the last rise inserts one letter further left."""
    def perturbed(steps, rule):
        infos = real(steps, rule)
        return tuple(i._replace(shift=i.shift + 1, off=i.off + 1)
                     if k in (0, len(infos) - 1) else i
                     for k, i in enumerate(infos))
    return perturbed


class TestInsertionSuitesEqualPerPathReference:
    @pytest.mark.parametrize("perturb", [False, True])
    @pytest.mark.parametrize("rule", [SPLIT_CEIL, SPLIT_FLOOR])
    @pytest.mark.parametrize("suite, reference", [
        ("insertion_lemma", per_path_insertion_lemma),
        ("transformation", per_path_transformation),
    ])
    def test_records(self, monkeypatch, suite, reference, rule, perturb):
        if perturb:
            # the suites and the references read rises through these two
            # bindings, and the insertion runs through plans built from the
            # first, so all see the same faulty jump rule; no plan built
            # from it may outlive the test
            fake = _perturbed_up_infos(bijection._up_infos)
            monkeypatch.setattr(bijection, "_up_infos", fake)
            monkeypatch.setattr(verify, "_up_infos", fake)
        bijection._factor_plan.cache_clear()
        try:
            report = run_suite(suite, 5, rule=rule)
            assert (report.verdict == "fail") == perturb
            assert (report.checked, list(report.failures)) == reference(5, rule)
        finally:
            bijection._factor_plan.cache_clear()
