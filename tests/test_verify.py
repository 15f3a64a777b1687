import gc
import hashlib
import itertools
import json
import tracemalloc
from collections import Counter, defaultdict
from math import comb, factorial
from pathlib import Path

import pytest

import dyckperm._insertion as _insertion
import dyckperm.verify as verify
from dyckperm._insertion import _factor_plan, _image_table
from dyckperm._references import a005789, catalan, euler_zigzag, top_word_direct
from dyckperm.bijection import (
    LEFT,
    RIGHT,
    InternalConsistencyError,
    ParkingFunction,
    flatten_to_single_slope,
    insertion_word,
    parking_to_123_avoiding,
    split_up_slopes,
    to_permutation,
)
from dyckperm.cli import main
from dyckperm.paths import (
    DyckPath,
    WeightedDyckPath,
    _odometer,
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
    enumerate_updown_avoiders,
    is_up_down,
    perm_text,
    schutzenberger,
    standardize,
)
from dyckperm.verify import (
    DEFAULT_CAPS,
    EULER_ZIGZAG,
    REFERENCE_COUNTS,
    SUITES,
    run_all,
    run_suite,
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


def _irreducible_count(n):
    """Weighted paths of semilength n that touch the ground only at their
    ends, the empty path at n = 0, from the brute-force oracles."""
    return sum(word_weighting_count(w) for w in brute_dyck_words(n)
               if 0 not in brute_heights(w)[1:-1])


# what each suite's step checks at size n: its whole family there, counted
# without the package (REFERENCE_COUNTS is the paper's list)
FAMILY_SIZE = {
    "counts": lambda n: 2,  # the two family sizes
    "bijectivity": lambda n: 2 * REFERENCE_COUNTS[n],  # each image and each avoider
    "roundtrip": lambda n: REFERENCE_COUNTS[n],
    "schutzenberger": lambda n: REFERENCE_COUNTS[n],
    "product": lambda n: sum(REFERENCE_COUNTS[a] * REFERENCE_COUNTS[n - a]
                             for a in range(n + 1)),
    "statistic": lambda n: REFERENCE_COUNTS[n],
    "criteria": lambda m: factorial(2 * m),  # every permutation of size 2m
    "insertion_lemma": _irreducible_count,
    "transformation": _irreducible_count,
    "parking": lambda n: comb(2 * n, n) // (n + 1),
    "topword_equivalence": _irreducible_count,
}


def _reverse_top_word_of_uududd(monkeypatch):
    """Patch the kernel so that the top word of UUDUDD comes back reversed;
    the image is then not up-down on the weightings with weight 1 at step 3,
    and the map's one runtime check fires.  The caller clears the image
    tables before and after, so that no table of the corrupted map
    outlives the test."""
    real = _insertion._insert
    top_frame = _factor_plan("UUDUDD")[1]

    def reversing(frame, w):
        word = real(frame, w)
        return word[::-1] if frame == top_frame else word

    monkeypatch.setattr(_insertion, "_insert", reversing)


def _assembly_message(wd):
    return f"assembly failed for {serialize_path(wd)}: permutation is not up-down"


def _traced_peak(run):
    """The tracemalloc peak of run() above what was held when it began.  A
    full collection first empties the free lists, so that the objects run()
    keeps are allocated, and traced, rather than reused."""
    gc.collect()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


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

    @pytest.mark.parametrize("n", range(4))
    @pytest.mark.parametrize("suite", SUITES)
    def test_step_checks_the_whole_family(self, suite, n):
        # a step is `(n, failures) -> checked`: called alone at one size, it
        # checks its whole family there and records nothing
        failures = []
        assert verify._SUITES[suite][1](n, failures) == FAMILY_SIZE[suite](n)
        assert failures == []

    @pytest.mark.parametrize("n", range(9))
    def test_irreducible_words_are_the_one_factor_words(self, n):
        # built directly, in the order of every Dyck word filtered to those
        # that touch the ground only at their ends
        assert list(verify._irreducible_words(n)) == [
            w for w in brute_dyck_words(n) if 0 not in brute_heights(w)[1:-1]]

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
        assert REFERENCE_COUNTS == (1, 1, 5, 42, 462, 6006, 87516, 1385670, 23371634)

    def test_catalan_counts(self):
        # OEIS A000108: the parking suite checks n = 8 against the last
        # entry at its default cap, past the brute filter's n <= 7
        assert verify.CATALAN == (1, 1, 2, 5, 14, 42, 132, 429, 1430)

    def test_catalan_values_against_brute_filter(self):
        import itertools

        from .oracles import contains_123_triple

        for n in range(8):
            found = sum(
                1 for p in itertools.permutations(range(1, n + 1))
                if not contains_123_triple(p)
            )
            assert found == verify.CATALAN[n]

    def test_formulas_past_the_tables(self):
        # the suites and `count` compare against the formulas at every n;
        # the tuples above pin their first values, these the values beyond
        assert all(a005789(n) == closed_form(n) for n in range(61))
        assert a005789(10) == 7646001090
        assert catalan(10) == 16796
        assert (euler_zigzag(6), euler_zigzag(7)) == (2702765, 199360981)


class TestSuiteTable:
    def test_order_and_default_caps(self):
        assert SUITES == (
            "counts", "bijectivity", "roundtrip", "schutzenberger", "product",
            "statistic", "criteria", "insertion_lemma", "transformation",
            "parking", "topword_equivalence",
        )
        assert DEFAULT_CAPS == {
            "counts": 6, "bijectivity": 6, "roundtrip": 6, "schutzenberger": 5,
            "product": 5, "statistic": 6, "criteria": 5, "insertion_lemma": 6,
            "transformation": 6, "parking": 8, "topword_equivalence": 5,
        }
        assert list(DEFAULT_CAPS) == list(SUITES)

    def test_readme_table_matches(self):
        # the README's "Verification suites" table lists every suite in
        # order with its default cap; criteria's cap is half the size
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("## Verification suites", 1)[1]
        lines = itertools.dropwhile(lambda line: not line.startswith("|"),
                                    section.splitlines())
        table = list(itertools.takewhile(lambda line: line.startswith("|"), lines))
        rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in table[2:]]
        assert [(row[0], row[-1]) for row in rows] == [
            (s, f"size <= {2 * DEFAULT_CAPS[s]}" if s == "criteria"
             else f"n <= {DEFAULT_CAPS[s]}") for s in SUITES]


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

    def test_records_are_pinned(self, capsys):
        # the sha256 of the records, each as JSON with `elapsed` removed and
        # keys sorted, joined by newlines: a change that moves a count or a
        # failure of any suite fails here
        assert main(["verify", "--max-n", "4"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        for record in records:
            del record["elapsed"]
        text = "\n".join(json.dumps(record, sort_keys=True) for record in records)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "d110d77803ce793283a1715e483d291c4b15fb7d580dad237e874df23f696cc9")


@pytest.fixture
def floor_cut(monkeypatch):
    """The floor split, the alternative convention: floor(k/2) of the k up
    slopes on the left half, patched into the one function that states the
    cut.  The plans and image tables are cleared before and after, so none
    built under it outlives the test."""
    _factor_plan.cache_clear()
    _image_table.cache_clear()
    monkeypatch.setattr(_insertion, "_left_count", lambda k: k // 2)
    yield
    _factor_plan.cache_clear()
    _image_table.cache_clear()


class TestFloorSplit:
    """The pin of the convention: under the floor split the map is still
    a bijection at n = 2 and is not one at n = 3, which is why the ceil
    split is the only one the package states (machine-decided)."""

    def test_bijective_at_n2(self, floor_cut):
        images = sorted(to_permutation(x).perm for x in enumerate_weighted(2))
        assert images == list(enumerate_updown_avoiders(2))
        assert run_suite("bijectivity", 2).verdict == "pass"

    def test_breaks_at_n3(self, floor_cut):
        # 4 repeated images, 4 outside the family and 8 avoiders missed
        images = [to_permutation(x).perm for x in enumerate_weighted(3)]
        avoiders = set(enumerate_updown_avoiders(3))
        assert (len(images), len(set(images))) == (42, 38)
        assert len(set(images) - avoiders) == 4
        assert len(avoiders - set(images)) == 8
        assert run_suite("bijectivity", 3).verdict == "fail"

    def test_two_weightings_of_uuuddd_share_an_image(self, floor_cut):
        # the oracle's table names both paths, so both replay through `map`
        first, second = "UUUDDD;0,0,1,2,0,0", "UUUDDD;0,0,2,1,0,0"
        assert to_permutation(parse_path(first)).perm == (3, 5, 1, 6, 2, 4)
        assert to_permutation(parse_path(second)).perm == (3, 5, 1, 6, 2, 4)
        with pytest.raises(InternalConsistencyError) as exc:
            _image_table("UUUDDD")
        assert str(exc.value) == f"{first} and {second} share the image 3,5,1,6,2,4"

    # `_insertion._left_count` is the one statement of the cut: each caller
    # below follows the patch, where a second statement of it would not

    def test_split_follows_the_cut(self, floor_cut):
        # floor(k/2) of k up slopes on the left: 2 of 4, 1 of 3, none of 1
        assert split_up_slopes(slopes(EX14)) == (LEFT, LEFT, RIGHT, RIGHT)
        assert split_up_slopes(slopes(WeightedDyckPath.from_steps("UUUDDUUUDDUUDDDD"))) == (
            LEFT, RIGHT, RIGHT)
        assert split_up_slopes(slopes(WeightedDyckPath.from_steps("UUDD"))) == (RIGHT,)

    def test_plan_follows_the_cut(self, floor_cut):
        # a rise reads the least end of its span (end 0) exactly when it
        # lies on one of the first floor(k/2) of the word's k up slopes
        for n in range(1, 6):
            for steps in brute_dyck_words(n):
                ups = slopes(WeightedDyckPath.from_steps(steps)).up_slopes
                left = {u for run in ups[:len(ups) // 2]
                        for u in range(run.start, run.start + run.length)}
                bottom = _factor_plan(steps)[0]
                assert {p for p, _, _, _, end in bottom if end == 0} == left, steps

    def test_direct_top_word_follows_the_cut(self, floor_cut):
        # UUDD's one up slope is on the right half, so its top word is the
        # reverse of the ceil split's (4, 3); the direct reading agrees with
        # the mirror's insertion on every irreducible path of n <= 4
        assert top_word_direct(WeightedDyckPath.from_steps("UUDD")) == (3, 4)
        report = run_suite("topword_equivalence", 4)
        assert (report.verdict, report.checked) == (
            "pass", sum(_irreducible_count(n) for n in range(5)))


class TestSharedImageTable:
    def test_each_path_mapped_forward_once(self, monkeypatch):
        # bijectivity, roundtrip and statistic read every image from the
        # per-word table, a reducible word's table is composed from its
        # factors' tables, and an irreducible word's build inserts each
        # frame once per distinct weights that frame reads.  So one process
        # builds each table once, assembling each path's image once, and
        # inserts each (word, frame, key) once
        words = [w for n in range(6) for w in brute_dyck_words(n)]
        irreducible = [w for w in words if len(factor_spans(w)) == 1]
        frames = {id(frame): (steps, which) for steps in irreducible
                  for which, frame in enumerate(_factor_plan(steps)[:2])}
        inserted = []
        real = _insertion._insert

        def reads(frame, w):
            return tuple(w[i] for s, nb, *_ in frame for i in (s, nb))

        def counting(frame, w):
            inserted.append((*frames[id(frame)], reads(frame, w)))
            return real(frame, w)

        _image_table.cache_clear()
        monkeypatch.setattr(_insertion, "_insert", counting)
        try:
            for suite in ("bijectivity", "roundtrip", "statistic"):
                assert run_suite(suite, 5).verdict == "pass"
            builds = _image_table.cache_info().misses
        finally:
            _image_table.cache_clear()
        keys = {(steps, which, reads(frame, (0, *x, 0)))
                for steps in irreducible for which, frame in enumerate(_factor_plan(steps)[:2])
                for x in lex_weightings(steps)}
        assert builds == len(words) == 65
        assert len(inserted) == len(set(inserted))
        assert set(inserted) == keys
        assert len(keys) == 2632 < 2 * sum(word_weighting_count(w) for w in irreducible) == 10498

    def test_a_frame_key_holds_every_weight_its_run_reads(self):
        # the weightings of each irreducible word of n <= 5 grouped by a
        # frame's `_frame_key`: `_insert` gives one word per group.  A key
        # that left out a weight the run reads would put weightings with
        # two different words in one group
        groups = 0
        for n in range(1, 6):
            for steps in brute_dyck_words(n):
                if len(factor_spans(steps)) > 1:
                    continue
                for frame in _factor_plan(steps)[:2]:
                    key, words = _insertion._frame_key(frame, len(steps)), {}
                    for x in lex_weightings(steps):
                        word = _insertion._insert(frame, (0, *x, 0))
                        assert words.setdefault(key(x), word) == word, (steps, x)
                    groups += len(words)
        assert groups == 2632

    def test_tables_list_every_weighting(self):
        # items and their order, decoded from the bytes the tables store;
        # each table is composed afresh
        _image_table.cache_clear()
        try:
            for n in range(6):
                for steps in brute_dyck_words(n):
                    items = [(to_permutation(WeightedDyckPath.from_steps(steps, w)).perm, w)
                             for w in lex_weightings(steps)]
                    assert [(tuple(perm), tuple(weights)) for perm, weights
                            in _image_table(steps).items()] == items
        finally:
            _image_table.cache_clear()

    @staticmethod
    def _held_by_tables(max_n):
        """The tables of every word of semilength <= max_n, built afresh,
        and the bytes they hold under tracemalloc.  The other caches are
        warmed first, so only the tables are measured."""
        words = [w for n in range(max_n + 1) for w in brute_dyck_words(n)]
        for steps in words:
            _image_table(steps)
        _image_table.cache_clear()
        tracemalloc.start()
        try:
            tables = [_image_table(steps) for steps in words]
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            _image_table.cache_clear()
        return tables, held

    def test_tables_hold_bytes(self):
        # the encoding and what it saves: every image and weighting at
        # n <= 5 is bytes, and the 65 flat tables, which store no
        # weighting, hold about 0.13 MB, where they held 0.18 MB with their
        # weightings, a dict of bytes per word about 0.82 MB and tuples of
        # ints about 1.46 MB
        tables, held = self._held_by_tables(5)
        assert all(type(perm) is bytes and type(weights) is bytes
                   for table in tables for perm, weights in table.items())
        assert held < 150_000

    def test_tables_up_to_n6_hold_under_2mb(self):
        # the 197 tables of n <= 6, every table the gate reads, hold about
        # 1.6 MB, where they held 2.7 MB with their weightings and a dict
        # of bytes per word about 12 MB
        tables, held = self._held_by_tables(6)
        assert len(tables) == 197
        assert sum(map(len, tables)) == sum(closed_form(n) for n in range(7))
        assert held < 2_000_000

    def test_lookup_and_sorted_run(self):
        # for every word of 1 <= n <= 5: each image looks up its weighting;
        # non-images (the decreasing permutation and the first and last
        # avoider another word hits), keys one letter too long or too short
        # and an image as a tuple find no entry; the sorted run is
        # strictly increasing and holds the images that `items` lists
        for n in range(1, 6):
            avoiders = list(map(bytes, enumerate_updown_avoiders(n)))
            for steps in brute_dyck_words(n):
                table = _image_table(steps)
                items = list(table.items())
                for perm, weights in items:
                    assert table.get(perm) == weights
                run = list(table.sorted_images())
                assert all(a < b for a, b in itertools.pairwise(run))
                assert run == sorted(perm for perm, _ in items)
                images = set(run)
                misses = [p for p in avoiders if p not in images]
                perm = items[0][0]
                for key in (bytes(range(2 * n, 0, -1)), *misses[:1], *misses[-1:],
                            perm + b"\x01", perm[:-1], tuple(perm)):
                    assert table.get(key) is None, (steps, key)

    def test_unranked_weighting_is_the_odometers(self):
        # `_weighting` unranks entry k from completion counts; for every
        # word of n <= 5, the empty word included, it gives the weighting
        # the odometer sets at its k-th step
        for n in range(6):
            for steps in brute_dyck_words(n):
                w = [0] * len(steps)
                for k, _ in enumerate(_odometer(steps, w)):
                    assert _insertion._weighting(steps, k) == bytes(w), (steps, k)

    def test_the_empty_word_has_one_entry(self):
        table = _image_table("")
        assert len(table) == 1
        assert list(table.items()) == [(b"", b"")]
        assert list(table.sorted_images()) == [b""]
        assert table.get(b"") == b""

    def test_a_reducible_collision_names_both_paths(self, monkeypatch):
        # a reducible word's table passes the same neighbour scan: with
        # `_compose` patched to give entry 3 of UUDDUD the image of entry 1,
        # the sort brings the two together and the guard names both paths,
        # the lower entry first
        compose = _insertion._compose

        def colliding(m, spans, images):
            image = compose(m, spans, images)
            return (5, 6, 2, 3, 1, 4) if image == (5, 6, 1, 3, 2, 4) else image

        _image_table.cache_clear()
        monkeypatch.setattr(_insertion, "_compose", colliding)
        try:
            with pytest.raises(InternalConsistencyError) as exc:
                _image_table("UUDDUD")
        finally:
            _image_table.cache_clear()
        assert str(exc.value) == ("UUDDUD;0,0,1,0,0,0 and UUDDUD;0,1,1,0,0,0 "
                                  "share the image 5,6,2,3,1,4")

    def test_records_follow_from_the_images(self):
        # at n <= 4, from the image of every weighting and the avoiders
        # filtered by definition: each repeat of an image is one record
        # naming an earlier path with that image, each avoider no path hits
        # is one, and so is each image outside the family; the bottom
        # letters are the rises
        statistic = run_suite("statistic", 4)
        bijectivity = run_suite("bijectivity", 4)
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
                    p = to_permutation(x).perm
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
        assert not +want


def _sorted_digest(failures):
    """sha256 of the records sorted by their JSON text: equal for two runs
    that write the same records in any order."""
    return hashlib.sha256(json.dumps(sorted(failures, key=json.dumps)).encode()).hexdigest()


def _merge_image(record):
    """The image, as a tuple, that a record of the bijectivity merge is
    about: a repeat's, a miss's or an outside image's."""
    text = record["input"] if record["actual"] == "missed" else record["actual"]
    return tuple(map(int, text.split(" ")[0].split(",")))


class TestSortedMerge:
    @staticmethod
    def _swap(monkeypatch, tables):
        """Read each word of `tables` with the real table of the word it
        maps to, through the one seam the suite reads, `verify._table`."""
        real = verify._table
        monkeypatch.setattr(verify, "_table",
                            lambda word, failures: real(tables.get(word, word), failures))

    @staticmethod
    def _digest(failures):
        return hashlib.sha256(json.dumps(list(failures)).encode()).hexdigest()

    # each fault's cap, the words that read another word's table, and
    # (checked, records, sha256 of the records, of the records sorted, and
    # records of each kind); the sorted digests are those of the records
    # of the pass that held a dict of every image, written in another order
    @pytest.mark.parametrize("fault, cap, tables, pinned", [
        # UUUDDD's 21 images again at UUDUDD, each named with UUUDDD's
        # path, and UUDUDD's 12 avoiders missed
        ("repeat", 3, {"UUDUDD": "UUUDDD"},
         (107, 33, "34f390dda311c733f911b4ca8f76f7b125078526f8da4df22607ff6dbd074586",
          "b4b00ffe6c8ebef75ba9023a53515f47c832cc8ac62d725095f49ef0fe7139bb",
          {"a fresh image": 21, "hit by some weighted path": 12})),
        # UUDUDD's table raises, so its 12 paths are dropped and their
        # avoiders missed
        ("drop", 3, {},
         (86, 13, "2a66067f3fdca49c821597267fda83a214d5af32ef8d3f5af6d2fdb828d72b46",
          "e57cb59c4f7a5a659b16797aeae00dabec900dd291a922bb5227befeeb560c43",
          {"an image for every weighting": 1, "hit by some weighted path": 12})),
        # UUUDDD's 21 images, six letters long, outside the family of
        # size 2, and UUDD's 4 avoiders missed
        ("outside", 3, {"UUDD": "UUUDDD"},
         (115, 25, "104b69cefd36718fada208b28ea40fc31290f37d7c38868f4b0d3875847c1b3c",
          "3f78aa8e8bba071f8d426d8edbee8c997871747eaa0581465927aae0c638f4fb",
          {"hit by some weighted path": 4, "an up-down permutation avoiding 1234": 21})),
    ], ids=("repeat", "drop", "outside"))
    def test_faults_give_the_pinned_records(self, monkeypatch, fault, cap, tables, pinned):
        _image_table.cache_clear()
        if fault == "drop":
            _reverse_top_word_of_uududd(monkeypatch)
        self._swap(monkeypatch, tables)
        try:
            report = run_suite("bijectivity", cap)
        finally:
            _image_table.cache_clear()
        kinds = Counter(f["expected"] for f in report.failures)
        assert (report.checked, len(report.failures), self._digest(report.failures),
                _sorted_digest(report.failures), kinds) == pinned

    def test_a_raising_word_comes_first_among_the_repeats(self, monkeypatch):
        # UUDUDD's table raises, and two later words read earlier words'
        # tables: the raising word's record comes first, then the merge's
        # 25 repeats and 17 misses, by image; the sorted digest is that of
        # the records of the pass that held a dict of every image
        _image_table.cache_clear()
        _reverse_top_word_of_uududd(monkeypatch)
        self._swap(monkeypatch, {"UUDDUD": "UUUDDD", "UDUDUD": "UDUUDD"})
        try:
            report = run_suite("bijectivity", 3)
        finally:
            _image_table.cache_clear()
        raised, *merged = report.failures
        assert raised["input"] == "UUDUDD"
        images = [_merge_image(f) for f in merged]
        assert images == sorted(images)
        assert Counter(f["expected"] for f in merged) == {
            "a fresh image": 25, "hit by some weighted path": 17}
        assert (report.checked, len(report.failures), self._digest(report.failures),
                _sorted_digest(report.failures)) == (
            106, 43, "b601d265f83baecdf814fcc1b04de11f768326ec2f38d8d1adf5c956f4de2267",
            "314a90346ad39c66ee267f33e2df0562ad24305161afa004f7ba837ab0273598")

    def test_a_repeat_on_both_sides_is_caught(self, monkeypatch):
        # UUDD reads UDUD's table, whose one image is then hit twice, and
        # by a fault of the enumerator its avoider is streamed twice: the
        # second copy is missed, with UUDD's own avoiders, and the records
        # come by image; the sorted digest is that of the records of the
        # pass that held a dict of every image
        real_avoiders = verify.enumerate_updown_avoiders
        first = tuple(next(iter(_image_table("UDUD"))))
        repeats = []

        def twice(n):
            for p in real_avoiders(n):
                yield p
                if p == first:
                    repeats.append(p)
                    yield p

        self._swap(monkeypatch, {"UUDD": "UDUD"})
        monkeypatch.setattr(verify, "enumerate_updown_avoiders", twice)
        report = run_suite("bijectivity", 2)
        assert repeats == [first]
        missed = [{"input": p, "expected": "hit by some weighted path", "actual": "missed"}
                  for p in ("1,3,2,4", "1,4,2,3", "2,3,1,4", "2,4,1,3", "3,4,1,2")]
        assert report.checked == 12
        assert list(report.failures) == [
            *missed[:4],
            {"input": "UDUD;0,0,0,0", "expected": "a fresh image",
             "actual": "3,4,1,2 already hit by UUDD;0,0,0,0"},
            missed[4]]
        assert _sorted_digest(report.failures) == (
            "ef441e9ea780014fcf7bd680dae3e5824b10b6b1255267ec88e48be5543ae6a6")

    def test_a_failing_size_holds_no_dict(self, monkeypatch):
        # with UUDUDDUUUDDD reading UUUDDDUUUDDD's table and the tables of
        # n <= 6 warm, the step holds its 693 records and the merge, about
        # 0.55 MB, where a dict of every image took about 15.7 MB; the
        # sorted digest is that of the records of the pass with the dict
        self._swap(monkeypatch, {"UUDUDDUUUDDD": "UUUDDDUUUDDD"})
        run_suite("bijectivity", 6)
        reports = []
        assert _traced_peak(lambda: reports.append(run_suite("bijectivity", 6))) < 1_000_000
        report, = reports
        assert (report.checked, len(report.failures), self._digest(report.failures),
                _sorted_digest(report.failures)) == (
            188255, 693, "cc2b8955e14baf640f0e2a3e3fa4114239cb8e918f364f94c5e23f881e5efb3d",
            "fba3898d2023708d84a1c0b0bc15d8784141a557f55307df80f1c1ca20e960c3")

    def test_merge_copies_no_image(self):
        # with the 197 image tables of n <= 6 warm, the pass holds one
        # iterator per word and the merge's heap, about 0.2 MB, where a
        # sorted list of references to every image took about 1 MB and a
        # dict of every image about 12 MB
        run_suite("bijectivity", 6)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            assert run_suite("bijectivity", 6).verdict == "pass"
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestFaultInjection:
    def test_bijectivity_catches_a_corrupted_map(self, monkeypatch):
        fixture = WeightedDyckPath.from_steps("UUDD")
        other = WeightedDyckPath.from_steps("UUDD", (0, 1, 1, 0))
        real = _insertion._insert
        frames = _factor_plan("UUDD")[:2]

        def corrupted(frame, w):
            if w == (0, *fixture.weights, 0) and frame in frames:
                return real(frame, (0, *other.weights, 0))
            return real(frame, w)

        # the suite reads images from _image_table, which builds each frame
        # word of an irreducible path with _insertion._insert; the
        # corruption gives two weightings of UUDD one image, and the table's
        # guard names both paths in the word's record.  No table of the
        # corrupted map may outlive the test.
        _image_table.cache_clear()
        monkeypatch.setattr(_insertion, "_insert", corrupted)
        try:
            report = run_suite("bijectivity", 2)
        finally:
            _image_table.cache_clear()
        assert report.verdict == "fail"
        blob = json.dumps(report.to_record())
        assert serialize_path(fixture) in blob or serialize_path(other) in blob

    def test_topword_reads_the_top_frame_of_the_map(self, monkeypatch):
        # the suite compares the direct scan with the word of the top frame
        # of the path's own plan, the frame `_map_factor` reads: a wrong
        # word from that frame at one weighting of UUDD is recorded on that
        # path, and on no other
        real = _insertion._insert
        top = _factor_plan("UUDD")[1]
        weights = (0, 1, 1, 0)

        def wrong(frame, w):
            word = real(frame, w)
            return word[::-1] if frame is top and w == (0, *weights, 0) else word

        monkeypatch.setattr(_insertion, "_insert", wrong)
        report = run_suite("topword_equivalence", 2)
        direct = top_word_direct(WeightedDyckPath.from_steps("UUDD", weights))
        assert list(report.failures) == [{"input": "UUDD;0,1,1,0",
                                          "expected": perm_text(direct[::-1]),
                                          "actual": perm_text(direct)}]

    def test_statistic_names_each_failing_path(self, monkeypatch):
        # the suite reads only a table's images and looks a failure's
        # weighting up by its image: with UUDUDD's table swapped for
        # UUUDDD's, every entry fails, and each record names the weighting
        # that `items` pairs with its image, in entry order
        real = verify._table

        def swapped(word, failures):
            return real("UUUDDD" if word == "UUDUDD" else word, failures)

        monkeypatch.setattr(verify, "_table", swapped)
        report = run_suite("statistic", 3)
        assert list(report.failures) == [
            {"input": f"UUDUDD;{','.join(map(str, w))}", "expected": "[1, 2, 4]",
             "actual": str(sorted(perm[0::2]))} for perm, w in _image_table("UUUDDD").items()]

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

        table_readers = ("bijectivity", "roundtrip", "schutzenberger", "product", "statistic")
        _image_table.cache_clear()
        _reverse_top_word_of_uududd(monkeypatch)
        try:
            reports = {s: run_suite(s, 3) for s in table_readers}
            code = main(["verify", "--max-n", "3"])
        finally:
            _image_table.cache_clear()
        paths = [wd for n in range(4) for wd in enumerate_weighted(n)]
        bad = [wd for wd in paths if raises(wd)]
        assert len(bad) == 8
        # the suites that read the oracle's tables record the word once, the
        # same record from each, and check none of its 12 paths; bijectivity
        # also names each avoider that those paths would hit as missed.
        # UUDUDD is its own mirror, so schutzenberger reads no other table
        # of it
        assert reflect(bad[0]).steps == "UUDUDD"
        record = {"input": "UUDUDD", "expected": "an image for every weighting",
                  "actual": _assembly_message(bad[0])}
        word_paths = sum(wd.steps == "UUDUDD" for wd in paths)
        assert word_paths == 12
        for s in table_readers:
            kept = [f for f in reports[s].failures if f["expected"] != "hit by some weighted path"]
            assert kept == [record], s
        assert len(reports["bijectivity"].failures) == 1 + word_paths
        assert reports["bijectivity"].checked == 2 * len(paths) - word_paths
        assert reports["roundtrip"].checked == len(paths) - word_paths
        assert reports["schutzenberger"].checked == len(paths) - word_paths
        assert reports["statistic"].checked == len(paths) - word_paths
        # the pairs that hold a path of the word are left out: at size 3,
        # each path paired with the empty path on either side
        sizes = Counter(wd.n for wd in paths)
        pairs = sum(sizes[a] * sizes[b] for a in range(4) for b in range(4 - a))
        assert reports["product"].checked == pairs - 2 * word_paths
        assert {r.verdict for r in reports.values()} == {"fail"}
        out = capsys.readouterr().out.splitlines()
        assert code == 1
        assert [json.loads(line)["suite"] for line in out] == list(SUITES)

    def test_roundtrip_catches_a_corrupted_inverse(self, monkeypatch):
        fixture = WeightedDyckPath.from_steps("UUDD")
        target = to_permutation(fixture).perm
        real = verify.from_permutation

        def corrupted(p):
            if tuple(p) == target:
                return WeightedDyckPath.from_steps("UUDD", (0, 1, 1, 0))
            return real(p)

        monkeypatch.setattr(verify, "from_permutation", corrupted)
        report = run_suite("roundtrip", 2)
        assert report.verdict == "fail"
        assert any(serialize_path(fixture) == f["input"] for f in report.failures)

    def test_roundtrip_records_a_raising_inverse(self, monkeypatch):
        # an inverse that raises on the image of one path is recorded on
        # that path with the exception's type and text, and the suite goes
        # on to the other paths
        target = to_permutation(WeightedDyckPath.from_steps("UUDD")).perm
        real = verify.from_permutation

        def raising(p):
            if tuple(p) == target:
                raise RuntimeError("inverse fault")
            return real(p)

        monkeypatch.setattr(verify, "from_permutation", raising)
        report = run_suite("roundtrip", 2)
        assert report.checked == sum(REFERENCE_COUNTS[:3])
        assert list(report.failures) == [{"input": "UUDD;0,0,0,0", "expected": "inverse succeeds",
                                          "actual": "RuntimeError: inverse fault"}]

    def test_counts_names_a_wrong_count(self, monkeypatch):
        # one family counted one too many at n = 2: the record of that
        # family's reference count, then the record of the two sizes,
        # weighted paths first
        real_paths, real_perms = verify.count_weighted, verify.count_updown_avoiders
        monkeypatch.setattr(verify, "count_weighted", lambda n: real_paths(n) + (n == 2))
        paths_off = run_suite("counts", 3)
        monkeypatch.setattr(verify, "count_weighted", real_paths)
        monkeypatch.setattr(verify, "count_updown_avoiders", lambda n: real_perms(n) + (n == 2))
        perms_off = run_suite("counts", 3)
        assert list(paths_off.failures) == [
            {"input": "weighted paths, n=2", "expected": "5", "actual": "6"},
            {"input": "family sizes, n=2", "expected": "6", "actual": "5"}]
        assert list(perms_off.failures) == [
            {"input": "up-down avoiders, n=2", "expected": "5", "actual": "6"},
            {"input": "family sizes, n=2", "expected": "5", "actual": "6"}]

    def test_counts_are_checked_past_the_first_values(self, monkeypatch):
        # n = 12 lies past the first values that `REFERENCE_COUNTS` holds;
        # the formula still names each family counted one too many there
        real_paths, real_perms = verify.count_weighted, verify.count_updown_avoiders
        monkeypatch.setattr(verify, "count_weighted", lambda n: real_paths(n) + (n == 12))
        paths_off = run_suite("counts", 12)
        monkeypatch.setattr(verify, "count_weighted", real_paths)
        monkeypatch.setattr(verify, "count_updown_avoiders", lambda n: real_perms(n) + (n == 12))
        perms_off = run_suite("counts", 12)
        assert list(paths_off.failures) == [
            {"input": "weighted paths, n=12", "expected": "2861142656400",
             "actual": "2861142656401"},
            {"input": "family sizes, n=12", "expected": "2861142656401",
             "actual": "2861142656400"}]
        assert list(perms_off.failures) == [
            {"input": "up-down avoiders, n=12", "expected": "2861142656400",
             "actual": "2861142656401"},
            {"input": "family sizes, n=12", "expected": "2861142656400",
             "actual": "2861142656401"}]

    def test_parking_image_count_past_the_first_values(self, monkeypatch):
        # at length 9, past the first values that `CATALAN` holds, one
        # parking function given another's image: its record, then the
        # count of distinct images, one short of Catalan(9)
        real = verify.parking_to_123_avoiding
        zeros, last = (0,) * 9, (0,) * 8 + (1,)

        def corrupted(pf):
            return real(ParkingFunction(zeros) if pf.values == last else pf)

        monkeypatch.setattr(verify, "parking_to_123_avoiding", corrupted)
        report = run_suite("parking", 10)
        image = perm_text(real(ParkingFunction(zeros)))
        assert list(report.failures) == [
            {"input": str(list(last)), "expected": "a fresh image",
             "actual": f"{image} already hit by {list(zeros)}"},
            {"input": "image count, n=9", "expected": "4862", "actual": "4861"}]

    def test_parking_names_each_kind_of_fault(self, monkeypatch):
        # of the five parking functions of length 3, [0, 1, 2] maps to a
        # word holding 123 and [0, 0, 1] to the image of [0, 0, 0]: one
        # record each, then the count of distinct images, 4 of 5
        real = verify.parking_to_123_avoiding

        def corrupted(pf):
            if pf.values == (0, 1, 2):
                return (1, 2, 3)
            return real(ParkingFunction((0, 0, 0)) if pf.values == (0, 0, 1) else pf)

        monkeypatch.setattr(verify, "parking_to_123_avoiding", corrupted)
        report = run_suite("parking", 3)
        assert report.checked == sum(verify.CATALAN[:4])
        assert list(report.failures) == [
            {"input": "[0, 0, 1]", "expected": "a fresh image",
             "actual": "3,2,1 already hit by [0, 0, 0]"},
            {"input": "[0, 1, 2]", "expected": "image avoids 123", "actual": "1,2,3"},
            {"input": "image count, n=3", "expected": "5", "actual": "4"}]


class TestSchutzenbergerTables:
    def test_a_wrong_image_names_each_path_that_reads_it(self, monkeypatch):
        # a stand-in table of UUDDUD, whose mirror is UDUUDD, gives one
        # entry the image of another.  The suite reads that image as the
        # entry's own image, and as the mirror image of the UDUUDD path at
        # the reversed weights; each of the two is named, with the record
        # of a check that maps the path and its mirror one by one
        word, entry = "UUDDUD", 1
        real = verify._table
        items = list(real(word, []).items())
        wrong, weights = items[entry + 1][0], items[entry][1]
        faulty = WeightedDyckPath.from_steps(word, weights)

        class Faulty:
            def items(self):
                return iter(items[:entry] + [(wrong, weights)] + items[entry + 1:])

        def table(steps, failures):
            return Faulty() if steps == word else real(steps, failures)

        monkeypatch.setattr(verify, "_table", table)
        report = run_suite("schutzenberger", 3)
        want = []
        for wd in enumerate_weighted(3):
            own = tuple(wrong) if wd == faulty else to_permutation(wd).perm
            mirror = tuple(wrong) if reflect(wd) == faulty else to_permutation(reflect(wd)).perm
            if mirror != schutzenberger(own):
                want.append({"input": serialize_path(wd),
                             "expected": perm_text(schutzenberger(own)),
                             "actual": perm_text(mirror)})
        assert [f["input"] for f in want] == [serialize_path(faulty),
                                              serialize_path(reflect(faulty))]
        assert list(report.failures) == want
        assert report.checked == sum(REFERENCE_COUNTS[:4])


class TestProductStreams:
    def test_pair_failures_keep_their_order(self, monkeypatch):
        # every 11th pair of size 4 is corrupted, on both sides of the
        # split (a <= 4 - a, where the first factor is held, and a > 4 - a,
        # where it is streamed) and in both splits with an empty factor,
        # which share one stream; the records are those of a nested loop
        # over the pairs, by the first factor's size, then p, then q
        n, real = 4, verify.shifted_concat
        pairs = [(p, q) for a in range(n + 1)
                 for p in enumerate_weighted(a) for q in enumerate_weighted(n - a)]
        image = {wd: to_permutation(wd).perm for k in range(n + 1)
                 for wd in enumerate_weighted(k)}
        chosen = pairs[::11]
        assert {p.n for p, _ in chosen} == set(range(n + 1))
        corrupt = {(image[q], image[p]) for p, q in chosen}

        def corrupted(left, right):
            joined = real(left, right)
            return joined[::-1] if (tuple(left), tuple(right)) in corrupt else joined

        monkeypatch.setattr(verify, "shifted_concat", corrupted)
        failures: list = []
        assert verify._suite_product(n, failures) == len(pairs) == 1033
        assert failures == [
            {"input": f"{serialize_path(p)} * {serialize_path(q)}",
             "expected": ",".join(map(str, real(image[q], image[p])[::-1])),
             "actual": ",".join(map(str, to_permutation(concat(p, q)).perm))}
            for p, q in chosen]

    def test_step_holds_no_pools(self):
        # with the image tables warm, the step holds the paths of sizes
        # <= n // 2 and streams the rest: about 0.18 MB at cap 5, where
        # pools of every size up to n held about 2.7 MB
        run_suite("product", 5)
        assert _traced_peak(lambda: run_suite("product", 5)) < 500_000


class TestCriteriaGround:
    def test_ground_is_not_held(self):
        # the ground truth is streamed: about 8 kB at size 8, where the
        # list of its 462 avoiders held about 56 kB
        assert _traced_peak(lambda: verify._suite_criteria(4, [])) < 20_000

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
        # the count record is written when the ground stream ends, after
        # the permutation's; the sorted digest is that of the records
        # written with the count record first
        assert report.checked == sum(factorial(2 * m) for m in range(4))
        assert [f["input"] for f in report.failures] == ["1,3,2,4", "up-down permutations, size=4"]
        assert _sorted_digest(report.failures) == (
            "211c10b51ca5ce2383b8d0d5f28cad1db26ba02dd25ca0f1ad93860297149761")


class TestTransformationKeys:
    def test_a_wrong_image_is_recorded_on_every_path_of_its_key(self, monkeypatch):
        # the suite computes the two words it compares once per (bottom
        # word, parking values) key of a Dyck word; a fault in the image of
        # one parking sequence, met by 9 paths of semilength 3 under 2
        # keys, is still recorded on each of the 9 paths, in path order
        target = (0, 1, 1)
        real = verify.parking_to_123_avoiding

        def corrupted(pf):
            word = real(pf)
            return word[::-1] if pf.values == target else word

        monkeypatch.setattr(verify, "parking_to_123_avoiding", corrupted)
        report = run_suite("transformation", 4)
        want, keys = [], set()
        for steps in verify._irreducible_words(3):
            for x in enumerate_weightings(DyckPath(steps)):
                if flatten_to_single_slope(x).values == target:
                    expect = standardize(insertion_word(x)[0])
                    keys.add((steps, expect))
                    want.append({"input": serialize_path(x), "expected": perm_text(expect),
                                 "actual": perm_text(expect[::-1])})
        assert (len(want), len(keys)) == (9, 2)
        assert list(report.failures) == want
        assert report.checked == sum(_irreducible_count(n) for n in range(5))

    def test_the_key_holds_the_bottom_word(self, monkeypatch):
        # a fault that gives every path of UUUDDD one parking sequence:
        # each path is still compared with its own bottom word, since the
        # key holds it, and so its record names its own expected word
        real = _insertion._flatten_run
        flat = ParkingFunction((0, 0, 0))

        def flattening(steps, w):
            word, pf = real(steps, w)
            return word, flat if steps == "UUUDDD" else pf

        monkeypatch.setattr(_insertion, "_flatten_run", flattening)
        report = run_suite("transformation", 3)
        got = perm_text(parking_to_123_avoiding(flat))
        want = []
        for x in enumerate_weightings(DyckPath("UUUDDD")):
            expect = perm_text(standardize(insertion_word(x)[0]))
            if expect != got:
                want.append({"input": serialize_path(x), "expected": expect, "actual": got})
        assert len({f["expected"] for f in want}) > 1
        assert list(report.failures) == want

    def test_flattening_runs_once_per_bottom_frame_key(self, monkeypatch):
        # the suite runs `_flatten_run` once per distinct weights that the
        # bottom frame reads, each rise's own and its bound's neighbour:
        # every irreducible path of n <= 5 shares those weights with
        # exactly one run, so a key that left one out would miss some path
        real = _insertion._flatten_run
        runs = []

        def counting(steps, w):
            runs.append((steps, tuple(w)))
            return real(steps, w)

        def reads(steps, weights):
            w = (0, *weights, 0)
            return steps, tuple(w[i] for s, nb, *_ in _factor_plan(steps)[0] for i in (s, nb))

        monkeypatch.setattr(_insertion, "_flatten_run", counting)
        assert run_suite("transformation", 5).verdict == "pass"
        ran = Counter(reads(*run) for run in runs)
        paths = {reads(steps, x) for n in range(6) for steps in verify._irreducible_words(n)
                 for x in lex_weightings(steps)}
        assert set(ran) == paths
        assert set(ran.values()) == {1}
        assert len(runs) == 1317 < sum(_irreducible_count(n) for n in range(6)) == 5250


def _perturbed_plan_frame(real):
    """`_plan_frame` with one more fall counted left of the first and the
    last rise of every frame: their off, and with it their shift
    (off + 1 - end), is one higher, so the first rise's shift then exceeds
    the next one's, and the last rise inserts one letter further left."""
    def perturbed(ups, rows, base):
        frame = real(ups, rows, base)
        return tuple((s, nb, off + 1, row, end) if k in (0, len(frame) - 1)
                     else (s, nb, off, row, end)
                     for k, (s, nb, off, row, end) in enumerate(frame))
    return perturbed


class TestInsertionSuitePerturbation:
    @pytest.mark.parametrize("suite", ["insertion_lemma", "transformation"])
    def test_unperturbed_suites_pass(self, suite):
        # the control: each suite checks every irreducible weighted path
        # of semilength <= 5 once, the empty path among them, and passes
        irreducible = sum(word_weighting_count(w) for n in range(6) for w in brute_dyck_words(n)
                          if 0 not in brute_heights(w)[1:-1])
        report = run_suite(suite, 5)
        assert (report.verdict, report.checked, report.failures) == ("pass", irreducible, ())

    def test_records_on_small_paths(self, monkeypatch):
        # UUUDDD;0,...,0 has one up slope, on the left half, so each rise
        # has shift 0 and off -1; perturbed, rises 1 and 3 have shift 1
        # and off 0.  Rise 2's shift 0 is below rise 1's.  Rise 3 (bound:
        # rise 2's weight 0; 2 rises before it) may weigh 0..2 next to
        # weights 0, so its non-jumping weights 1 and 2 land at distances
        # 1 and 2, and 2 is not below 2.  On UUDD both rises are perturbed,
        # and rise 2 at weight 1 misses its bound 0, so it flattens to
        # 1 + shift 1 = 2 at index 1.  The plans are built through the
        # kernel, so no plan built from the fault may outlive the test.
        monkeypatch.setattr(_insertion, "_plan_frame",
                            _perturbed_plan_frame(_insertion._plan_frame))
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

    def test_records_at_cap_4_are_pinned(self, monkeypatch):
        # every record of the perturbed plans at cap 4, 400 of shifts and
        # 238 of landings, in order: their length and the sha256 of their
        # JSON text are those of the suite that ran each path's checks one
        # by one
        monkeypatch.setattr(_insertion, "_plan_frame",
                            _perturbed_plan_frame(_insertion._plan_frame))
        _factor_plan.cache_clear()
        try:
            lemma = run_suite("insertion_lemma", 4)
        finally:
            _factor_plan.cache_clear()
        assert (lemma.checked, len(lemma.failures)) == (406, 638)
        assert hashlib.sha256(json.dumps(lemma.failures).encode()).hexdigest() == (
            "dfb87f77829eb63ce7b45ae4d9d67471aeba2660b7c1b31191535740a47d599e")

    def test_a_distance_below_the_shift_is_recorded(self, monkeypatch):
        # the second rise of each left-half frame reads a bound one above
        # its least weight, so that least weight no longer jumps: on UUDD
        # rise 2 (shift 0, off -1) then lands at distance -1 wherever
        # weight 0 is feasible for it, which the lemma's landing and shift
        # checks record, and the insertion run overflows where rise 2 weighs 0
        real = _insertion._plan_frame

        def raised(ups, rows, base):
            return tuple((s, nb, off, tuple((lo + 1, hi) for lo, hi in row), end)
                         if k == 1 and end == 0 else (s, nb, off, row, end)
                         for k, (s, nb, off, row, end) in enumerate(real(ups, rows, base)))

        _factor_plan.cache_clear()
        _image_table.cache_clear()
        monkeypatch.setattr(_insertion, "_plan_frame", raised)
        try:
            report = run_suite("insertion_lemma", 2)
        finally:
            _factor_plan.cache_clear()
            _image_table.cache_clear()
        overflow = "insertion overflow at rise 2: distance -1 with word length 1"
        assert report.checked == 6
        assert list(report.failures) == [
            *({"input": f"UUDD;0,0,{w},0", "expected": "no insertion overflow",
               "actual": overflow} for w in (0, 1)),
            *({"input": f"UUDD;0,1,{w},0", "expected": expected, "actual": "distance -1"}
              for w in (0, 1)
              for expected in ("feasible weight 0 of rise 2 lands in [0,1)",
                               "distance of rise 2 at least shift 0"))]

    def test_an_overflow_is_recorded_on_its_own_path(self, monkeypatch):
        # the first path of n <= 4 whose every lemma key (k, w[pos-1],
        # w[pos+1]) was met on an earlier path of its word: its insertion
        # run raises, and it is the one path recorded, though the records of
        # all its keys are already built
        chosen = None
        for n in range(1, 5):
            for word in verify._irreducible_words(n):
                frame, seen = _factor_plan(word)[0], set()
                for wd in enumerate_weightings(DyckPath(word)):
                    w = (0, *wd.weights, 0)
                    keys = {(k, w[pos - 1], w[pos + 1]) for k, (pos, *_) in enumerate(frame)}
                    if chosen is None and keys <= seen:
                        chosen = (wd, w)
                    seen |= keys
        wd, w = chosen
        assert serialize_path(wd) == "UUDD;0,1,1,0"
        real = _insertion._insert

        def raising(frame, weights):
            if weights == w:
                raise InternalConsistencyError("insertion overflow")
            return real(frame, weights)

        monkeypatch.setattr(_insertion, "_insert", raising)
        report = run_suite("insertion_lemma", 4)
        assert report.failures == ({"input": serialize_path(wd),
                                    "expected": "no insertion overflow",
                                    "actual": "insertion overflow"},)
        assert report.checked == sum(_irreducible_count(n) for n in range(5))
