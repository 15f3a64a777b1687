"""Command line surface: enumerate, map, invert, count, verify, render.

Exit codes: 0 on success, 1 on a domain failure (validation, membership,
reference mismatch, failing suite) or when the reader of stdout closes it
early, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from typing import Optional, Sequence

from . import bijection, paths, perms, verify
from ._references import a005789

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def _nonneg(text: str) -> int:
    """ASCII digits only, the grammar of the path and permutation text."""
    if not perms._NATURAL.fullmatch(text):
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return int(text)


def _read_input(arg: str) -> str:
    return sys.stdin.read() if arg == "-" else arg


# Lines per write of `enumerate`: a write per line costs more than the join
# of a chunk, and 256 lines are few enough that the first one comes at once.
_CHUNK = 256


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.family == "wd":
        text, stream, record = (paths._weighted_lines, paths.enumerate_weighted,
                                paths.path_record)
    else:
        text, stream, record = (perms._avoider_lines, perms.enumerate_updown_avoiders,
                                perms.perm_record)
    if args.format == "text":
        lines = text(args.n)
    else:
        lines = (json.dumps(record(item)) + "\n" for item in stream(args.n))
    lines = itertools.islice(lines, args.limit)
    write = sys.stdout.write
    while chunk := list(itertools.islice(lines, _CHUNK)):
        write("".join(chunk))
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    wd = paths.parse_path(_read_input(args.input))
    image = bijection.to_permutation(wd)
    print(perms.perm_text(image.perm))
    if args.trace:
        for st in bijection.bottom_traces(wd):
            print(json.dumps({
                "position": st.position,
                "weight": st.weight,
                "slope": st.slope,
                "membership": st.membership,
                "shift": st.shift,
                "jumped": st.jumped,
                "distance": st.distance,
                "word": list(st.word_after),
            }))
    return 0


def _cmd_invert(args: argparse.Namespace) -> int:
    perm = perms.parse_perm_text(_read_input(args.input))
    wd = bijection.from_permutation(perm)
    print(paths.serialize_path(wd))
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    mismatch = False
    for n, got in enumerate(paths.counts_upto(args.max_n)):
        ref = a005789(n)
        flag = "" if got == ref else " MISMATCH"
        mismatch = mismatch or bool(flag)
        print(f"{n}: {got} (ref {ref}){flag}")
    return 1 if mismatch else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.suite == "all":
        reports = verify.run_all(args.max_n)
    else:
        reports = [verify.run_suite(args.suite, args.max_n)]
    ok = True
    for report in reports:
        print(json.dumps(report.to_record()))
        ok = ok and report.verdict == "pass"
    return 0 if ok else 1


def render_ascii(wd: paths.WeightedDyckPath) -> str:
    """Deterministic staircase drawing: one column per step, the step glyph
    at its upper endpoint's row and its weight digit one row above."""
    steps = wd.steps
    h = paths.heights(wd)
    cells: dict[tuple[int, int], str] = {}
    for i, s in enumerate(steps, start=1):
        level = h[i] if s == paths.UP else h[i - 1]
        cells[(level, i)] = "/" if s == paths.UP else "\\"
        w = wd.weights[i - 1]
        cells[(level + 1, i)] = _DIGITS[w] if w < len(_DIGITS) else "?"
    top = max(h) + 1
    lines = []
    for level in range(top, 0, -1):
        lines.append("".join(cells.get((level, i), " ")
                             for i in range(1, len(steps) + 1)).rstrip())
    return "\n".join(lines)


def _cmd_render(args: argparse.Namespace) -> int:
    wd = paths.parse_path(_read_input(args.input))
    print(render_ascii(wd))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyckperm",
        description="Weighted Dyck paths, 1234-avoiding up-down permutations, "
                    "and the bijection between them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="stream one family in canonical order")
    p.add_argument("--family", choices=("wd", "perm"), required=True)
    p.add_argument("--n", type=_nonneg, required=True, help="semilength / half size")
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.add_argument("--limit", type=_nonneg, default=None)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("map", help="map a weighted path to its permutation")
    p.add_argument("input", help="path text '<steps>;<w,...>' or '-' for stdin")
    p.add_argument("--trace", action="store_true",
                   help="also print one record per rise of the bottom-word run")
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("invert", help="recover the weighted path of a permutation")
    p.add_argument("input", help="comma-separated one-line permutation or '-'")
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("count", help="count weighted paths against the reference sequence")
    p.add_argument("--max-n", type=_nonneg, required=True)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("verify", help="run property suites and print their reports")
    p.add_argument("--suite", choices=verify.SUITES + ("all",), default="all")
    p.add_argument("--max-n", type=_nonneg, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("render", help="draw a weighted path as an ASCII staircase")
    p.add_argument("input", help="path text or '-' for stdin")
    p.set_defaults(func=_cmd_render)

    return parser


_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _parser
    if _parser is None:  # built on first use, so importing the package stays cheap
        _parser = _build_parser()
    args = _parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe surfaces here, not at exit
        return code
    except BrokenPipeError:
        # The reader left (e.g. `| head -1`).  Point stdout at devnull so
        # that the interpreter's flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (ValueError, bijection.InternalConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
