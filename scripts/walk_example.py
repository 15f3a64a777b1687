#!/usr/bin/env python3
"""Walk one weighted Dyck path through the whole pipeline, step by step.

Prints the staircase, the slope split, the insertion run with jump
decisions, the assembled permutation, the single-slope flattening, and the
recovered path.  Defaults to the 14-step example; pass any path text.
"""

import argparse

from dyckperm.bijection import (
    bottom_traces,
    flatten_to_single_slope,
    from_permutation,
    parking_to_123_avoiding,
    split_up_slopes,
    to_permutation,
)
from dyckperm.cli import render_ascii
from dyckperm.paths import factor_irreducible, parse_path, serialize_path, slopes
from dyckperm.perms import perm_text

DEFAULT = "UUDUDUUUDDUDDD;0,0,1,1,1,1,1,2,2,2,0,2,1,0"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("path", nargs="?", default=DEFAULT)
    args = parser.parse_args()

    wd = parse_path(args.path)
    print(render_ascii(wd))
    print()

    for factor in factor_irreducible(wd):
        print(f"factor {factor.steps}: slope halves {split_up_slopes(slopes(factor))}")

    print("\nbottom-word insertion:")
    for st in bottom_traces(wd):
        action = "jumps to the front" if st.jumped else f"lands {st.distance} from the right"
        print(f"  rise {st.position:>2} (weight {st.weight}, {st.membership}, "
              f"shift {st.shift}) {action}: {' '.join(map(str, st.word_after))}")

    sigma = to_permutation(wd)
    print(f"\nimage: {perm_text(sigma.perm)}")
    print(f"  bottom letters: {' '.join(map(str, sigma.bot))}")
    print(f"  top letters:    {' '.join(map(str, sigma.top))}")

    if len(factor_irreducible(wd)) == 1 and len(wd):
        pf = flatten_to_single_slope(wd)
        print(f"\nsingle-slope weights: {list(pf.values)}")
        print(f"  insertion on the single slope: "
              f"{perm_text(parking_to_123_avoiding(pf))}")

    print(f"\nrecovered path: {serialize_path(from_permutation(sigma.perm))}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
