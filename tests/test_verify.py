import json

import pytest

import dyckperm.bijection as bijection
import dyckperm.verify as verify
from dyckperm.bijection import SPLIT_CEIL, SPLIT_FLOOR, _image_table, to_permutation
from dyckperm.paths import WeightedDyckPath, parse_path, serialize_path
from dyckperm.verify import (
    DEFAULT_CAPS,
    REFERENCE_COUNTS,
    SUITES,
    run_all,
    run_suite,
    top_word_direct,
)

from .conftest import EXAMPLE14_TEXT
from .oracles import per_path_bijectivity, per_path_statistic

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
        # per-word table, so one process maps each path once
        calls = 0

        def counting(*args, **kw):
            nonlocal calls
            calls += 1
            return to_permutation(*args, **kw)

        _image_table.cache_clear()
        monkeypatch.setattr(bijection, "to_permutation", counting)
        monkeypatch.setattr(verify, "to_permutation", counting)
        try:
            for suite in ("bijectivity", "roundtrip", "statistic"):
                assert run_suite(suite, 5).verdict == "pass"
        finally:
            _image_table.cache_clear()
        assert calls == sum(REFERENCE_COUNTS[:6]) == 6517

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

        def corrupted(x, rule=None, **kw):
            if x == fixture:
                return to_permutation(other)
            return to_permutation(x)

        # the suite reads images from _image_table, which maps with
        # bijection.to_permutation; the corruption gives two weightings of
        # UUDD one image, so that word is mapped path by path, with verify's
        # binding.  No table of the corrupted map may outlive the test.
        _image_table.cache_clear()
        monkeypatch.setattr(bijection, "to_permutation", corrupted)
        monkeypatch.setattr(verify, "to_permutation", corrupted)
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
