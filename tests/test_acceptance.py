"""Acceptance gate: the headline claims, checked exactly at desk scale.

Every check is integer/combinatorial, so there are no tolerances; a
criterion either reproduces the reference value exactly or fails.  Each
test prints one pass/fail line.  The n=7 counts suite enumerates the
1385670 permutations of size 14.
"""

import hashlib
import json
import time

import pytest

from dyckperm.bijection import (
    ParkingFunction,
    flatten_to_single_slope,
    insertion_word,
    parking_to_123_avoiding,
    to_permutation,
)
from dyckperm.paths import WeightedDyckPath, count_weighted, enumerate_weighted, parse_path
from dyckperm.perms import perm_text, standardize
from dyckperm.verify import REFERENCE_COUNTS, run_all, run_suite

from .conftest import EXAMPLE14_IMAGE, EXAMPLE14_TEXT

# the 42 members of the size-6 family, frozen as ground truth
GROUND_TRUTH_42 = (
    "143625", "153624", "154623", "163524", "164523", "241635", "243615",
    "251436", "251634", "253614", "254613", "261435", "261534", "263514",
    "264513", "341625", "342615", "351426", "351624", "352416", "352614",
    "354612", "361425", "361524", "362415", "362514", "364512", "451326",
    "451623", "452316", "452613", "453612", "461325", "461523", "462315",
    "462513", "463512", "561324", "561423", "562314", "562413", "563412",
)


@pytest.fixture(scope="module")
def gate():
    """Every suite's report at its default cap, from one `run_all()`: tests
    04-11 read their suites' reports, and the records are pinned."""
    return {report.suite: report for report in run_all()}


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status}{' ' + detail if detail else ''}")
    assert ok, f"{name} failed {detail}"


def test_01_counting_reference_sequence():
    start = time.perf_counter()
    got = [count_weighted(n) for n in range(7)]
    elapsed = time.perf_counter() - start
    _report("1 counting", got == list(REFERENCE_COUNTS[:7]) and elapsed < 10,
            f"counts={got} elapsed={elapsed:.2f}s")


def test_01_counting_stretch_n7():
    _report("1s counting n=7", count_weighted(7) == 1385670)


def test_02_ground_truth_list():
    start = time.perf_counter()
    image = {perm_text(to_permutation(wd).perm) for wd in enumerate_weighted(3)}
    expected = {",".join(text) for text in GROUND_TRUTH_42}
    elapsed = time.perf_counter() - start
    _report("2 ground-truth list", image == expected and elapsed < 1.0,
            f"|image|={len(image)} elapsed={elapsed:.2f}s")


def test_03_worked_example():
    wd = parse_path(EXAMPLE14_TEXT)
    sigma = to_permutation(wd)
    word, trace = insertion_word(wd)
    ok = (
        sigma.perm == EXAMPLE14_IMAGE
        and sigma.bot == (8, 6, 11, 7, 2, 4, 1)
        and sigma.top == (13, 12, 14, 10, 9, 5, 3)
        and word == (8, 6, 11, 7, 2, 4, 1)
        and [s.position for s in trace if s.jumped] == [1, 2, 6, 8]
        and [s.distance for s in trace if not s.jumped] == [1, 3, 4]
    )
    _report("3 worked example", ok, perm_text(sigma.perm))


def test_04_bijectivity(gate):
    report = gate["bijectivity"]
    _report("4 bijectivity", report.verdict == "pass" and report.elapsed < 300,
            f"checked={report.checked} elapsed={report.elapsed:.1f}s")


def test_05_round_trip(gate):
    report = gate["roundtrip"]
    _report("5 round trip", report.verdict == "pass",
            f"checked={report.checked} elapsed={report.elapsed:.1f}s")


def test_06_equivariance_and_product(gate):
    mirror = gate["schutzenberger"]
    product = gate["product"]
    _report("6 equivariance", mirror.verdict == "pass" and product.verdict == "pass",
            f"checked={mirror.checked}+{product.checked}")


def test_07_bottom_statistic(gate):
    report = gate["statistic"]
    _report("7 statistic", report.verdict == "pass", f"checked={report.checked}")


def test_08_criteria_equivalence(gate):
    report = gate["criteria"]
    _report("8 criteria equivalence",
            report.verdict == "pass" and report.elapsed < 120,
            f"checked={report.checked} elapsed={report.elapsed:.1f}s")


def test_09_transformation(gate):
    report = gate["transformation"]
    fixture = parking_to_123_avoiding(ParkingFunction((0, 0, 2, 2, 4, 4, 5)))
    wd = parse_path(EXAMPLE14_TEXT)
    flattened = flatten_to_single_slope(wd)
    word, _ = insertion_word(wd)
    ok = (
        report.verdict == "pass"
        and fixture == (6, 4, 7, 5, 2, 3, 1)
        and flattened.values == (0, 0, 2, 2, 4, 4, 5)
        and parking_to_123_avoiding(flattened) == standardize(word)
    )
    _report("9 transformation", ok, f"checked={report.checked}")


def test_10_insertion_lemma(gate):
    report = gate["insertion_lemma"]
    _report("10 insertion lemma", report.verdict == "pass",
            f"checked={report.checked}")


def test_11_top_word_equivalence(gate):
    report = gate["topword_equivalence"]
    _report("11 top-word equivalence", report.verdict == "pass",
            f"checked={report.checked}")


def test_gate_records_are_pinned(gate):
    # the sha256 of every suite's record at its default cap, each as JSON
    # with `elapsed` removed and keys sorted, joined by newlines, in gate
    # order: a change that moves a count or a failure of any suite fails here
    records = [report.to_record() for report in gate.values()]
    for record in records:
        del record["elapsed"]
    text = "\n".join(json.dumps(record, sort_keys=True) for record in records)
    _report("gate records", hashlib.sha256(text.encode()).hexdigest() == (
        "8b3ff06d0010f26c28680c835583152f4cf91dd4381f83a0f738f5e9c758fd5f"))


def test_12_fixed_small_cases():
    cases = {
        ("UD", (0, 0)): (1, 2),
        ("UDUD", (0, 0, 0, 0)): (3, 4, 1, 2),
        ("UUDD", (0, 0, 0, 0)): (2, 4, 1, 3),
        ("UUDD", (0, 0, 1, 0)): (2, 3, 1, 4),
        ("UUDD", (0, 1, 0, 0)): (1, 4, 2, 3),
        ("UUDD", (0, 1, 1, 0)): (1, 3, 2, 4),
    }
    got = {key: to_permutation(WeightedDyckPath.from_steps(*key)).perm
           for key in cases}
    uudd_images = {v for k, v in got.items() if k[0] == "UUDD"}
    ok = got == cases and uudd_images == {(2, 4, 1, 3), (2, 3, 1, 4),
                                          (1, 4, 2, 3), (1, 3, 2, 4)}
    _report("12 fixed small cases", ok)


def test_stretch_counts_suite_n7():
    report = run_suite("counts", 7)
    _report("stretch counts n=7", report.verdict == "pass",
            f"elapsed={report.elapsed:.0f}s")
