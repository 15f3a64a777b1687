"""Seeded input generation for the benchmark.

Dyck words come from the cycle lemma: a uniformly shuffled word of m rises
and m + 1 falls has exactly one rotation whose proper prefixes all stay at
or above the ground, and dropping that rotation's final fall leaves a
uniformly random Dyck word of semilength m.  Irreducible paths of
semilength n are ``U + word + D`` with a word of semilength n - 1.

Weights are drawn left to right, each uniformly from the interval that the
constraints C1..C5 leave open given the previous weight.  C2..C5 only couple
adjacent steps, so that interval is never empty.  The interval rule is
written out here rather than imported, so the inputs do not change when the
package's internals do.
"""

from __future__ import annotations

import random


def random_dyck_word(rng: random.Random, m: int) -> str:
    """Uniformly random Dyck word of semilength m (cycle lemma)."""
    seq = ["U"] * m + ["D"] * (m + 1)
    rng.shuffle(seq)
    height = lowest = 0
    cut = 0  # rotate to start just after the first lowest prefix
    for i, s in enumerate(seq):
        height += 1 if s == "U" else -1
        if height < lowest:
            lowest, cut = height, i + 1
    rotated = seq[cut:] + seq[:cut]
    return "".join(rotated[:-1])


def irreducible_word(rng: random.Random, n: int) -> str:
    """Random Dyck word of semilength n >= 1 with no interior ground return."""
    return "U" + random_dyck_word(rng, n - 1) + "D"


def reducible_word(rng: random.Random, n: int) -> str:
    """Random Dyck word of semilength n >= 2 with at least two factors."""
    first = rng.randint(1, n - 1)
    return irreducible_word(rng, first) + random_dyck_word(rng, n - first)


def random_weights(rng: random.Random, steps: str) -> tuple[int, ...]:
    """Weights drawn left to right, uniform in each step's feasible interval."""
    h = [0]
    for s in steps:
        h.append(h[-1] + (1 if s == "U" else -1))
    weights: list[int] = []
    for i, s in enumerate(steps):
        lo, hi = 0, min(h[i], h[i + 1])  # C1
        if i:
            prev, pw = steps[i - 1], weights[-1]
            if prev == "U" and s == "U":    # C2
                lo = pw
            elif prev == "D" and s == "D":  # C3
                hi = min(hi, pw)
            elif prev == "U":               # C4: peak at h[i]
                hi = min(hi, h[i] - pw)
            else:                           # C5: valley at h[i]
                lo = max(lo, h[i] - pw)
        weights.append(rng.randint(lo, hi))
    return tuple(weights)


def path_text(steps: str, weights: tuple[int, ...]) -> str:
    """Canonical ``<steps>;<w,w,...>`` form, as the CLI prints it."""
    return f"{steps};{','.join(map(str, weights))}"


def roundtrip_inputs(seed: int, sizes: tuple[int, ...], per_kind: int) -> list[tuple[int, str]]:
    """(n, path text) pairs: per_kind irreducible and per_kind reducible paths
    for each n in sizes, in a seeded shuffled order."""
    rng = random.Random(seed)
    out = []
    for n in sizes:
        for _ in range(per_kind):
            for steps in (irreducible_word(rng, n), reducible_word(rng, n)):
                out.append((n, path_text(steps, random_weights(rng, steps))))
    rng.shuffle(out)
    return out
