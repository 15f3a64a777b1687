import hashlib
import io
import json
import os
import select
import subprocess
import sys

import pytest

import dyckperm
from dyckperm import _insertion, bijection, paths
from dyckperm.bijection import InternalConsistencyError
from dyckperm.cli import main, render_ascii
from dyckperm.paths import parse_path

from .conftest import EXAMPLE14_TEXT, INVERSE_FIRST_FAILURES
from .oracles import closed_form, first_updown_avoider

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

    @pytest.mark.parametrize("k", [0, 255, 256, 257, 300])
    @pytest.mark.parametrize("fmt", ["text", "records"])
    @pytest.mark.parametrize("family", ["wd", "perm"])
    def test_limit_gives_the_first_lines(self, capsys, family, fmt, k):
        # around the 256-line chunks of the writer; n = 4 has 462 lines
        argv = ["enumerate", "--family", family, "--n", "4", "--format", fmt]
        full = run(capsys, *argv)[1].splitlines(keepends=True)
        code, out, _ = run(capsys, *argv, "--limit", str(k))
        assert (code, out) == (0, "".join(full[:k]))

    @pytest.mark.parametrize("fmt", ["text", "records"])
    @pytest.mark.parametrize("family", ["wd", "perm"])
    def test_writes_hold_at_most_256_lines(self, capsys, monkeypatch, family, fmt):
        class Recorder:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)
                return len(text)

            def flush(self):
                pass

        argv = ["enumerate", "--family", family, "--n", "5", "--format", fmt]
        full = run(capsys, *argv)[1]
        stdout = Recorder()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(argv) == 0
        assert "".join(stdout.writes) == full
        assert max(text.count("\n") for text in stdout.writes) <= 256
        assert len(stdout.writes) < full.count("\n")

    @pytest.mark.parametrize("family, digest", [
        # the sha256 of the output when it was printed one line at a time
        ("wd", "7defb17adcf29a09487dba1070150bed6f12ae4be7f1a23f0b59618abf90dcc6"),
        # the pin of tests/test_perms.py, made before the suffix tables
        ("perm", "d2c1165e7d48dd32ff36d97192e2cf3b7d9cce015e6fb3d55dde1fc7960b4023"),
    ])
    def test_n6_is_pinned(self, capsys, family, digest):
        code, out, _ = run(capsys, "enumerate", "--family", family, "--n", "6")
        assert code == 0
        assert out.count("\n") == closed_form(6)
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_negative_n_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--family", "wd", "--n", "-1"])
        assert exc.value.code == 2

    # the integer options follow the [0-9]+ grammar of the path and
    # permutation text, so no sign, underscore, space or non-ASCII digit;
    # each token reads as at most 3 under int(), so a looser parser fails
    # these cases quickly instead of starting a large run
    @pytest.mark.parametrize("token", ["\u0663", "+2", "0_1", " 2", "2 ", ""])
    @pytest.mark.parametrize("argv", [
        ["enumerate", "--family", "wd", "--n"],
        ["enumerate", "--family", "wd", "--n", "1", "--limit"],
        ["count", "--max-n"],
        ["verify", "--max-n"],
    ])
    def test_integer_options_are_ascii_digits(self, capsys, argv, token):
        with pytest.raises(SystemExit) as exc:
            main([*argv, token])
        assert exc.value.code == 2
        assert "not a non-negative integer" in capsys.readouterr().err


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

    def test_split_rule_option_is_gone(self):
        # the ceil split is the only one; an old option is a usage error
        with pytest.raises(SystemExit) as exc:
            main(["map", "UD;0,0", "--split-rule", "ceil"])
        assert exc.value.code == 2

    def test_non_ascii_digit_weights(self, capsys):
        code, out, err = run(capsys, "map", "UD;+0,\u0660")
        assert (code, out) == (1, "")
        assert "malformed weight" in err

    def test_malformed_weight_names_its_token(self, capsys):
        code, out, err = run(capsys, "map", "UD;0,x")
        assert (code, out) == (1, "")
        assert err == "error: malformed weight list '0,x': malformed number 'x'\n"

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

        def overflowing(steps):
            bottom, top, *rest = real(steps)
            return (*(tuple((step, nb, off + len(steps) + 1, *rest)
                            for step, nb, off, *rest in frame) for frame in (bottom, top)), *rest)

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

    def test_split_rule_option_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            main(["invert", "1,2", "--split-rule", "ceil"])
        assert exc.value.code == 2

    def test_non_ascii_digits(self, capsys):
        code, out, err = run(capsys, "invert", "\u0662,\u0661")
        assert (code, out) == (1, "")
        assert "malformed permutation text" in err

    def test_malformed_letter_names_its_token(self, capsys):
        code, out, err = run(capsys, "invert", "1,x")
        assert (code, out) == (1, "")
        assert err == "error: malformed permutation text '1,x': malformed number 'x'\n"

    @pytest.mark.parametrize("perm, message", INVERSE_FIRST_FAILURES)
    def test_first_failed_check_is_the_error_line(self, capsys, perm, message):
        code, out, err = run(capsys, "invert", ",".join(map(str, perm)))
        assert (code, out, err) == (1, "", f"error: {message}\n")

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

    def test_reference_goes_past_n8(self, capsys):
        code, out, _ = run(capsys, "count", "--max-n", "9")
        lines = out.splitlines()
        assert code == 0
        assert lines[8] == "8: 23371634 (ref 23371634)"
        assert lines[9] == "9: 414315330 (ref 414315330)"

    def test_reference_on_every_line(self, capsys):
        code, out, _ = run(capsys, "count", "--max-n", "30")
        lines = out.splitlines()
        assert code == 0
        assert lines == [f"{n}: {closed_form(n)} (ref {closed_form(n)})" for n in range(31)]

    def test_mismatch_past_n8(self, capsys, monkeypatch):
        # a counter one too high at n = 9 is flagged against the formula
        real = paths.counts_upto
        monkeypatch.setattr(paths, "counts_upto",
                            lambda n: [c + (i == 9) for i, c in enumerate(real(n))])
        code, out, _ = run(capsys, "count", "--max-n", "9")
        assert code == 1
        assert out.splitlines()[9] == "9: 414315331 (ref 414315330) MISMATCH"


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

    def test_roundtrip_checks_every_path(self, capsys):
        # the 1 + 1 + 5 + 42 weighted paths of n <= 3
        code, out, _ = run(capsys, "verify", "--suite", "roundtrip", "--max-n", "3")
        assert (code, json.loads(out)["checked"]) == (0, 49)

    def test_split_rule_option_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--max-n", "1", "--split-rule", "ceil"])
        assert exc.value.code == 2

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

    def test_empty_path(self, capsys):
        assert run(capsys, "render", "") == (0, "\n", "")

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
    @staticmethod
    def first_line(*argv, timeout=60):
        """Run `python -m dyckperm` on argv, read one line of its stdout
        within `timeout` seconds, then close the pipe; (line, exit code,
        stderr).  A process with no line by then is killed."""
        src = os.path.dirname(os.path.dirname(dyckperm.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen([sys.executable, "-m", "dyckperm", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        if select.select([proc.stdout], [], [], timeout)[0]:
            line = proc.stdout.readline()
        else:
            proc.kill()
            line = b""
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        return line, proc.wait(timeout=timeout), err

    def test_reader_leaving_early_is_quiet(self):
        first, code, err = self.first_line("enumerate", "--family", "wd", "--n", "5")
        assert first == b"UUUUUDDDDD;0,0,0,0,0,0,0,0,0,0\n"
        assert b"Traceback" not in err
        assert err == b""
        assert code == 1

    def test_first_permutation_comes_at_once(self):
        # the README's `enumerate --family perm --n 200 | head -1` gives the
        # first one at once, also when the lines are written in chunks
        first, code, err = self.first_line("enumerate", "--family", "perm", "--n", "200",
                                           timeout=3)
        assert first.decode() == ",".join(map(str, first_updown_avoider(200))) + "\n"
        assert code == 1
        assert err == b""


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
