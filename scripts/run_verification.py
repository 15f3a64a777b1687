#!/usr/bin/env python3
"""Run every property suite and print one report per line, plus a summary.

Exit code 0 only if every suite passes.  --max-n lowers the per-suite caps
(never raises them); --stretch additionally runs the n=7 counting job,
which enumerates the 1385670 permutations of size 14 in about 15 s.
"""

import argparse
import json
import sys

from dyckperm.verify import run_all, run_suite


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=None)
    parser.add_argument("--split-rule", choices=("ceil", "floor"), default="ceil")
    parser.add_argument("--stretch", action="store_true",
                        help="also run the n=7 counting suite")
    args = parser.parse_args()

    reports = run_all(args.max_n, rule=args.split_rule)
    if args.stretch:
        reports.append(run_suite("counts", 7, rule=args.split_rule))
    ok = True
    for report in reports:
        print(json.dumps(report.to_record()))
        ok = ok and report.verdict == "pass"
    passed = sum(1 for r in reports if r.verdict == "pass")
    print(f"# {passed}/{len(reports)} suites passed", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
