import itertools
import json
from collections import Counter, defaultdict
from math import factorial

import pytest

import dyckperm._insertion as _insertion
import dyckperm.verify as verify
from dyckperm._insertion import _factor_plan, _image_table, _map_factor
from dyckperm.bijection import SPLIT_CEIL, SPLIT_FLOOR, InternalConsistencyError, to_permutation
from dyckperm.cli import main
from dyckperm.paths import (
    WeightedDyckPath,
    enumerate_weighted,
    factor_spans,
    parse_path,
    reflect,
    serialize_path,
)
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
    brute_descents,
    brute_dyck_words,
    brute_heights,
    closed_form,
    contains_1234_naive,
    lex_weightings,
    word_weighting_count,
)

EX14 = parse_path(EXAMPLE14_TEXT)


def _reverse_top_word_of_uududd(monkeypatch):
    """Patch the kernel so that the top word of UUDUDD comes back reversed;
    the image is then not up-down on the weightings with weight 1 at step 3,
    and the map's one runtime check fires.  The caller clears the image
    tables before and after, so that no table of the corrupted map
    outlives the test."""
    real = _insertion._insert
    top_frame = _factor_plan("UUDUDD", SPLIT_CEIL)[1]

    def reversing(frame, w):
        word = real(frame, w)
        return word[::-1] if frame == top_frame else word

    monkeypatch.setattr(_insertion, "_insert", reversing)


def _assembly_message(wd):
    return f"assembly failed for {serialize_path(wd)}: permutation is not up-down"


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
        monkeypatch.setattr(_insertion, "_map_factor", counting)
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
    def test_tables_list_every_weighting(self, rule):
        # items and their order, and under floor the error of a word two of
        # whose weightings share an image; each table is composed afresh
        _image_table.cache_clear()
        raised = 0
        try:
            for n in range(6):
                for steps in brute_dyck_words(n):
                    items = [(to_permutation(WeightedDyckPath.from_steps(steps, w), rule).perm, w)
                             for w in lex_weightings(steps)]
                    images = [p for p, _ in items]
                    repeats = [p for i, p in enumerate(images) if p in images[:i]]
                    if repeats:
                        raised += 1
                        with pytest.raises(InternalConsistencyError) as got:
                            _image_table(steps, rule)
                        assert str(got.value) == (f"two weightings of {steps} "
                                                  f"share the image {repeats[0]}")
                    else:
                        assert list(_image_table(steps, rule).items()) == items
        finally:
            _image_table.cache_clear()
        # 16 of the 65 words at n <= 5 have no table under floor
        assert raised == (16 if rule == SPLIT_FLOOR else 0)

    @pytest.mark.parametrize("rule", [SPLIT_CEIL, SPLIT_FLOOR])
    def test_records_follow_from_the_images(self, rule):
        # at n <= 4, from the image of every weighting and the avoiders
        # filtered by definition: each repeat of an image is one record
        # naming an earlier path with that image, each avoider no path hits
        # is one, and so is each image outside the family; the bottom
        # letters are the rises whatever the rule
        statistic = run_suite("statistic", 4, rule=rule)
        bijectivity = run_suite("bijectivity", 4, rule=rule)
        paths = sum(closed_form(n) for n in range(5))
        assert (statistic.checked, statistic.failures) == (paths, ())
        assert bijectivity.checked == 2 * paths
        hits: dict = defaultdict(set)
        want: Counter = Counter()
        for n in range(5):
            images = set()
            for steps in brute_dyck_words(n):
                for w in lex_weightings(steps):
                    x = WeightedDyckPath.from_steps(steps, w)
                    p = to_permutation(x, rule).perm
                    want[("repeat", p)] += p in images
                    images.add(p)
                    hits[p].add(serialize_path(x))
            avoiders = {p for p in itertools.permutations(range(1, 2 * n + 1))
                        if brute_descents(p) == set(range(2, 2 * n, 2))
                        and not contains_1234_naive(p)}
            want.update(("missed", p) for p in avoiders - images)
            want.update(("outside", p) for p in images - avoiders)
        got: Counter = Counter()
        for f in bijectivity.failures:
            if f["expected"] == "a fresh image":
                image, earlier = f["actual"].split(" already hit by ")
                p = tuple(map(int, image.split(",")))
                assert f["input"] != earlier and {f["input"], earlier} <= hits[p]
                got[("repeat", p)] += 1
            elif f["expected"] == "hit by some weighted path":
                assert f["actual"] == "missed"
                got[("missed", tuple(map(int, f["input"].split(","))))] += 1
            else:
                assert f["expected"] == "an up-down permutation avoiding 1234"
                p = tuple(map(int, f["actual"].split(",")))
                assert f["input"] in hits[p]
                got[("outside", p)] += 1
        assert got == +want
        assert bool(+want) == (rule == SPLIT_FLOOR)


class TestFaultInjection:
    def test_bijectivity_catches_a_corrupted_map(self, monkeypatch):
        fixture = WeightedDyckPath.from_steps("UUDD")
        other = WeightedDyckPath.from_steps("UUDD", (0, 1, 1, 0))

        def corrupted(steps, weights, rule):
            if (steps, weights) == (fixture.steps, fixture.weights):
                return _map_factor(other.steps, other.weights, rule)
            return _map_factor(steps, weights, rule)

        # the suite reads images from _image_table, which maps each
        # irreducible path with _insertion._map_factor; the corruption gives
        # two weightings of UUDD one image, so that word is mapped path by
        # path with to_permutation, which maps its factor with the same
        # corrupted function.  No table of the corrupted map may outlive
        # the test.
        _image_table.cache_clear()
        monkeypatch.setattr(_insertion, "_map_factor", corrupted)
        try:
            report = run_suite("bijectivity", 2)
        finally:
            _image_table.cache_clear()
        assert report.verdict == "fail"
        blob = json.dumps(report.to_record())
        assert serialize_path(fixture) in blob or serialize_path(other) in blob

    def test_assembly_guard_catches_a_reversed_top_word(self, monkeypatch, capsys):
        text = "UUDUDD;0,0,1,0,0,0"
        message = _assembly_message(parse_path(text))
        _image_table.cache_clear()
        _reverse_top_word_of_uududd(monkeypatch)
        try:
            with pytest.raises(InternalConsistencyError) as exc:
                to_permutation(parse_path(text))
            assert str(exc.value) == message
            assert main(["map", text]) == 1
            assert capsys.readouterr() == ("", f"error: {message}\n")
            report = run_suite("bijectivity", 3)
        finally:
            _image_table.cache_clear()
        assert report.verdict == "fail"
        assert {"input": "UUDUDD", "expected": "an image for every weighting",
                "actual": message} in report.failures

    def test_every_sweep_suite_records_the_assembly_guard(self, monkeypatch, capsys):
        # each suite that maps paths forward records the guard's error and
        # goes on, so the CLI prints one record per suite
        def raises(x):
            return x.steps == "UUDUDD" and x.weights[2] == 1

        _image_table.cache_clear()
        _reverse_top_word_of_uududd(monkeypatch)
        try:
            reports = {s: run_suite(s, 3) for s in ("schutzenberger", "product", "statistic")}
            code = main(["verify", "--max-n", "3"])
        finally:
            _image_table.cache_clear()
        paths = [wd for n in range(4) for wd in enumerate_weighted(n)]
        bad = [wd for wd in paths if raises(wd)]
        assert len(bad) == 8
        first_bad = {wd: next((x for x in (reflect(wd), wd) if raises(x)), None) for wd in paths}
        assert reports["schutzenberger"].failures == tuple(
            {"input": serialize_path(wd), "expected": "an image of the path and its mirror",
             "actual": _assembly_message(x)} for wd, x in first_bad.items() if x is not None)
        assert reports["product"].failures == tuple(
            {"input": serialize_path(wd), "expected": "an image", "actual": _assembly_message(wd)}
            for wd in bad)
        # the pairs that hold a failed path are left out
        sizes = Counter(wd.n for wd in paths)
        pairs = sum(sizes[a] * sizes[b] for a in range(4) for b in range(4 - a))
        assert reports["product"].checked == pairs - 2 * len(bad)
        assert reports["statistic"].failures == (
            {"input": "UUDUDD", "expected": "an image for every weighting",
             "actual": _assembly_message(bad[0])},)
        assert {r.verdict for r in reports.values()} == {"fail"}
        out = capsys.readouterr().out.splitlines()
        assert code == 1
        assert [json.loads(line)["suite"] for line in out] == list(SUITES)

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
    def test_fault_injection_fails_exactly_the_flips(self, monkeypatch, flips):
        real = verify._criteria_verdict
        flipped = set(flips)

        def corrupted(p):
            return real(p) != (p in flipped)

        monkeypatch.setattr(verify, "_criteria_verdict", corrupted)
        report = run_suite("criteria", 4)
        # a rejected member expects True and got False, an accepted
        # outsider the reverse; by size, then lexicographically
        want = []
        for p in sorted(flips, key=lambda p: (len(p), p)):
            member = brute_descents(p) == set(range(2, len(p), 2)) and not contains_1234_naive(p)
            want.append({"input": ",".join(map(str, p)),
                         "expected": str(member), "actual": str(not member)})
        assert report.checked == sum(factorial(2 * m) for m in range(5))
        assert list(report.failures) == want

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


class TestInsertionSuitePerturbation:
    @pytest.mark.parametrize("rule", [SPLIT_CEIL, SPLIT_FLOOR])
    @pytest.mark.parametrize("suite", ["insertion_lemma", "transformation"])
    def test_unperturbed_suites_pass(self, suite, rule):
        # the control: each suite checks every irreducible weighted path
        # of semilength <= 5 once, the empty path among them, and passes
        irreducible = sum(word_weighting_count(w) for n in range(6) for w in brute_dyck_words(n)
                          if 0 not in brute_heights(w)[1:-1])
        report = run_suite(suite, 5, rule=rule)
        assert (report.verdict, report.checked, report.failures) == ("pass", irreducible, ())

    def test_records_on_small_paths(self, monkeypatch):
        # UUUDDD;0,...,0 has one up slope, on the left half, so each rise
        # has shift 0 and off -1; perturbed, rises 1 and 3 have shift 1
        # and off 0.  Rise 2's shift 0 is below rise 1's.  Rise 3 (bound:
        # rise 2's weight 0; 2 rises before it) may weigh 0..2 next to
        # weights 0, so its non-jumping weights 1 and 2 land at distances
        # 1 and 2, and 2 is not below 2.  On UUDD both rises are perturbed,
        # and rise 2 at weight 1 misses its bound 0, so it flattens to
        # 1 + shift 1 = 2 at index 1.  The plans read the rises through the
        # kernel, so no plan built from the fault may outlive the test.
        monkeypatch.setattr(_insertion, "_up_infos", _perturbed_up_infos(_insertion._up_infos))
        _factor_plan.cache_clear()
        try:
            lemma = run_suite("insertion_lemma", 3)
            flattening = run_suite("transformation", 2)
        finally:
            _factor_plan.cache_clear()
        path = "UUUDDD;0,0,0,0,0,0"
        assert [f for f in lemma.failures if f["input"] == path] == [
            {"input": path, "expected": "non-decreasing shifts", "actual": "rise 2"},
            {"input": path, "expected": "feasible weight 2 of rise 3 lands in [0,2)",
             "actual": "distance 2"},
        ]
        assert list(flattening.failures) == [
            {"input": f"UUDD;0,1,{w},0", "expected": "a valid parking function",
             "actual": f"flattening UUDD;0,1,{w},0 produced a non-parking sequence [0, 2]"}
            for w in (0, 1)]
