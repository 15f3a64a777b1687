import io
import json
import os
import subprocess
import sys

import pytest

import dyckperm
from dyckperm import _insertion, bijection
from dyckperm.bijection import InternalConsistencyError
from dyckperm.cli import main, render_ascii
from dyckperm.paths import parse_path

from .conftest import EXAMPLE14_TEXT, INVERSE_FIRST_FAILURES
from .oracles import closed_form

EXAMPLE14_PERM_TEXT = "8,13,6,12,11,14,7,10,2,9,4,5,1,3"

COUNT7 = (
    "0: 1 (ref 1)\n"
    "1: 1 (ref 1)\n"
    "2: 5 (ref 5)\n"
    "3: 42 (ref 42)\n"
    "4: 462 (ref 462)\n"
    "5: 6006 (ref 6006)\n"
    "6: 87516 (ref 87516)\n"
    "7: 1385670 (ref 1385670)\n"
)

RENDER14 = (
    "       22\n"
    "      1/\\202\n"
    " 01111/  \\/\\1\n"
    "0/\\/\\/      \\0\n"
    "/            \\"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_wd_n1(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--family", "wd", "--n", "1")
        assert code == 0
        assert out == "UD;0,0\n"

    def test_wd_n3_has_42_lines(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--family", "wd", "--n", "3")
        assert code == 0
        assert len(out.splitlines()) == 42

    def test_perm_n3_text(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--family", "perm", "--n", "3")
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 42
        assert lines[0] == "1,4,3,6,2,5"

    def test_records_format(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--family", "wd", "--n", "2",
                           "--format", "records")
        records = [json.loads(line) for line in out.splitlines()]
        assert code == 0
        assert records[0] == {"steps": "UUDD", "weights": [0, 0, 0, 0]}
        assert len(records) == 5

    def test_perm_records(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--family", "perm", "--n", "1",
                           "--format", "records")
        assert json.loads(out) == {"perm": [1, 2]}

    def test_limit(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--family", "wd", "--n", "3",
                           "--limit", "5")
        assert code == 0
        assert len(out.splitlines()) == 5

    @pytest.mark.parametrize("family", ["wd", "perm"])
    def test_limit_zero_prints_nothing(self, capsys, family):
        code, out, _ = run(capsys, "enumerate", "--family", family, "--n", "2",
                           "--limit", "0")
        assert (code, out) == (0, "")

    @pytest.mark.parametrize("family, size", [("wd", 5), ("perm", 5)])
    def test_limit_above_the_family_size(self, capsys, family, size):
        code, out, _ = run(capsys, "enumerate", "--family", family, "--n", "2",
                           "--limit", "100")
        full = run(capsys, "enumerate", "--family", family, "--n", "2")[1]
        assert code == 0
        assert out == full
        assert len(out.splitlines()) == size

    def test_negative_n_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--family", "wd", "--n", "-1"])
        assert exc.value.code == 2


class TestMap:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "map", EXAMPLE14_TEXT)
        assert code == 0
        assert out.strip() == EXAMPLE14_PERM_TEXT

    def test_minimal(self, capsys):
        code, out, _ = run(capsys, "map", "UD;0,0")
        assert (code, out.strip()) == (0, "1,2")

    def test_invalid_weighting(self, capsys):
        code, out, err = run(capsys, "map", "UUDD;0,1,2,0")
        assert code == 1
        assert "C1 violated at step 3" in err

    def test_trace(self, capsys):
        code, out, _ = run(capsys, "map", EXAMPLE14_TEXT, "--trace")
        lines = out.splitlines()
        assert lines[0] == EXAMPLE14_PERM_TEXT
        records = [json.loads(line) for line in lines[1:]]
        assert [r["position"] for r in records] == [1, 2, 4, 6, 7, 8, 11]
        assert [r["position"] for r in records if r["jumped"]] == [1, 2, 6, 8]
        assert [r["distance"] for r in records if not r["jumped"]] == [1, 3, 4]
        assert records[-1]["word"] == [8, 6, 11, 7, 2, 4, 1]

    def test_trace_on_reducible_input_uses_global_positions(self, capsys):
        code, out, _ = run(capsys, "map", "UDUD;0,0,0,0", "--trace")
        lines = out.splitlines()
        assert lines[0] == "3,4,1,2"
        records = [json.loads(line) for line in lines[1:]]
        assert [r["position"] for r in records] == [1, 3]

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("UD;0,0\n"))
        code, out, _ = run(capsys, "map", "-")
        assert (code, out.strip()) == (0, "1,2")

    def test_non_ascii_digit_weights(self, capsys):
        code, out, err = run(capsys, "map", "UD;+0,\u0660")
        assert (code, out) == (1, "")
        assert "malformed weight" in err

    def test_internal_error_is_an_error_line(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise InternalConsistencyError("boom")

        monkeypatch.setattr(bijection, "to_permutation", broken)
        code, out, err = run(capsys, "map", "UD;0,0")
        assert (code, out, err) == (1, "", "error: boom\n")

    def test_insertion_overflow_is_an_error_line(self, capsys, monkeypatch):
        # plans whose offsets are pushed past every word: rise 1 of
        # UUDD;0,1,1,0 jumps, so rise 2 is the first to insert, and overflows
        real = _insertion._factor_plan

        def overflowing(steps, rule):
            return tuple(tuple((step, nb, off + len(steps) + 1, *rest)
                               for step, nb, off, *rest in frame)
                         for frame in real(steps, rule))

        monkeypatch.setattr(_insertion, "_factor_plan", overflowing)
        code, out, err = run(capsys, "map", "UUDD;0,1,1,0")
        assert (code, out) == (1, "")
        assert err == "error: insertion overflow at rise 2: distance 5 with word length 1\n"


class TestInvert:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "invert", EXAMPLE14_PERM_TEXT)
        assert code == 0
        assert out.strip() == EXAMPLE14_TEXT

    def test_minimal(self, capsys):
        code, out, _ = run(capsys, "invert", "1,2")
        assert (code, out.strip()) == (0, "UD;0,0")

    def test_not_up_down(self, capsys):
        code, out, err = run(capsys, "invert", "2,1")
        assert code == 1
        assert "not in image" in err and "up-down" in err

    def test_non_ascii_digits(self, capsys):
        code, out, err = run(capsys, "invert", "\u0662,\u0661")
        assert (code, out) == (1, "")
        assert "malformed permutation text" in err

    @pytest.mark.parametrize("perm, message", INVERSE_FIRST_FAILURES)
    def test_first_failed_check_is_the_error_line(self, capsys, perm, message):
        code, out, err = run(capsys, "invert", ",".join(map(str, perm)))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_ambiguous_floor_preimage(self, capsys):
        code, out, err = run(capsys, "invert", "3,5,1,6,2,4", "--split-rule", "floor")
        assert (code, out) == (1, "")
        assert err.startswith("error: ambiguous: 2 weighted paths")
        assert "floor split rule" in err

    def test_pipe_coherence(self, capsys):
        for text in (EXAMPLE14_TEXT, "UD;0,0", "UDUD;0,0,0,0", "UUDD;0,1,1,0",
                     "UUDDUD;0,0,0,0,0,0"):
            code, out, _ = run(capsys, "map", text)
            assert code == 0
            code, out, _ = run(capsys, "invert", out.strip())
            assert code == 0
            assert out.strip() == text


class TestCount:
    def test_small_table(self, capsys):
        code, out, _ = run(capsys, "count", "--max-n", "3")
        assert code == 0
        assert out.splitlines() == [
            "0: 1 (ref 1)",
            "1: 1 (ref 1)",
            "2: 5 (ref 5)",
            "3: 42 (ref 42)",
        ]

    def test_zero(self, capsys):
        code, out, _ = run(capsys, "count", "--max-n", "0")
        assert (code, out.strip()) == (0, "0: 1 (ref 1)")

    def test_reference_table_bytes(self, capsys):
        code, out, _ = run(capsys, "count", "--max-n", "7")
        assert (code, out) == (0, COUNT7)

    def test_past_the_reference_list(self, capsys):
        code, out, _ = run(capsys, "count", "--max-n", "30")
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 31
        assert lines[-1] == f"30: {closed_form(30)}"


class TestVerify:
    def test_single_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "bijectivity", "--max-n", "2")
        record = json.loads(out)
        assert code == 0
        assert record["suite"] == "bijectivity"
        assert record["verdict"] == "pass"
        assert record["nRange"] == [0, 2]

    def test_all_suites_trivially(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--max-n", "1")
        records = [json.loads(line) for line in out.splitlines()]
        assert code == 0
        assert len(records) == 11
        assert all(r["verdict"] == "pass" for r in records)

    def test_floor_rule_documented_verdict(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "bijectivity",
                           "--max-n", "3", "--split-rule", "floor")
        record = json.loads(out)
        assert code == 1
        assert record["verdict"] == "fail"

    def test_floor_roundtrip_records_shared_image(self, capsys):
        # two weightings of UUUDDD share an image under the floor split, so
        # the brute-force table of that word cannot be built, nor that of a
        # word with UUUDDD as a factor: its record names the whole word
        code, out, err = run(capsys, "verify", "--suite", "roundtrip",
                             "--max-n", "4", "--split-rule", "floor")
        record = json.loads(out)
        assert (code, err) == (1, "")
        assert record["verdict"] == "fail"
        assert record["failures"] == [{
            "input": word,
            "expected": "weightings with distinct images",
            "actual": f"two weightings of {word} share the image {image}",
        } for word, image in (("UUUDDD", (3, 5, 1, 6, 2, 4)),
                              ("UUUUDDDD", (4, 6, 2, 8, 1, 7, 3, 5)),
                              ("UUUDDDUD", (7, 8, 3, 5, 1, 6, 2, 4)),
                              ("UDUUUDDD", (5, 7, 3, 8, 4, 6, 1, 2)))]
        code, out, _ = run(capsys, "verify", "--suite", "roundtrip", "--max-n", "3")
        assert (code, json.loads(out)["checked"]) == (0, 49)

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nonsense"])
        assert exc.value.code == 2


class TestRender:
    def test_worked_example_golden(self, capsys):
        code, out, _ = run(capsys, "render", EXAMPLE14_TEXT)
        assert code == 0
        assert out == RENDER14 + "\n"

    def test_minimal(self, capsys):
        code, out, _ = run(capsys, "render", "UD;0,0")
        assert (code, out) == (0, "00\n/\\\n")

    def test_invalid_input(self, capsys):
        code, out, err = run(capsys, "render", "UDD;0,0,0")
        assert code == 1
        assert "not a Dyck path" in err

    def test_render_function_direct(self):
        assert render_ascii(parse_path(EXAMPLE14_TEXT)) == RENDER14

    def test_style_option_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            main(["render", "UD;0,0", "--style", "ascii"])
        assert exc.value.code == 2


class TestBrokenPipe:
    def test_reader_leaving_early_is_quiet(self):
        src = os.path.dirname(os.path.dirname(dyckperm.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "dyckperm", "enumerate", "--family", "wd", "--n", "5"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        code = proc.wait(timeout=60)
        assert first == b"UUUUUDDDDD;0,0,0,0,0,0,0,0,0,0\n"
        assert b"Traceback" not in err
        assert err == b""
        assert code == 1


class TestDeterminism:
    def test_byte_identical_output(self, capsys):
        _, first, _ = run(capsys, "enumerate", "--family", "wd", "--n", "3")
        _, second, _ = run(capsys, "enumerate", "--family", "wd", "--n", "3")
        assert first == second

    def test_reused_parser_matches_fresh_process(self, capsys):
        # main() keeps one parser for the process; no option of one call may
        # leak into the next, so each output equals a fresh interpreter's
        calls = [
            ["map", EXAMPLE14_TEXT, "--trace"],
            ["map", EXAMPLE14_TEXT],
            ["invert", EXAMPLE14_PERM_TEXT],
            ["count", "--max-n", "4"],
        ]
        src = os.path.dirname(os.path.dirname(dyckperm.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        for argv in calls:
            code, out, err = run(capsys, *argv)
            fresh = subprocess.run([sys.executable, "-m", "dyckperm", *argv],
                                   capture_output=True, text=True, env=env, check=False)
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
