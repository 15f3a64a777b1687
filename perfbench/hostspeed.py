"""Correction of the timed parts for the host's speed.

The benchmark runs on a shared host whose speed drifts: a fixed Python task
takes up to twice its usual time for moments, and 1.2 to 1.7 times for
minutes on end.  Taking each part at its fastest over a run's passes
removes the short spells, but no run outlasts the long ones: ten runs of
count-enumerate on the same code read from 8.0 to 10.5 s.

So a fixed reference task, which does not touch the package, is timed at
the boundaries between parts, always at the end of a pass, and otherwise
once at least `EVERY` seconds of work have passed since the last sample.
Each sample lasts `SHARE` of the time since the one before, so that a long
part is flanked by long samples.  A part's scaled time is its time
multiplied by REFERENCE_S over the mean of the samples just before and
just after it: the time it would take on a host where the reference task
takes REFERENCE_S.  A change to the package changes the parts' times,
never the samples.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.010  # the reference task's time at the speed scaled times are given in
# In ten runs of count-enumerate on a shared 2-vCPU Xeon VM, samples of
# 5%, 10% and 20% gave quartile spreads of 0.064, 0.035 and 0.034 of the
# median scaled time, against 0.180 unscaled.
SHARE = 0.1
EVERY = 0.25

_clock = time.perf_counter


def reference_task() -> int:
    """A fixed amount of interpreter work like the package's: dictionary
    updates over small integer keys, in nested loops.  Returns a checksum,
    so the work cannot be skipped."""
    total = 0
    for _ in range(6):
        cur = {0: 1}
        for _ in range(60):
            nxt: dict[int, int] = {}
            for h, c in cur.items():
                for v in range(max(0, h - 2), h + 2):
                    nxt[v] = nxt.get(v, 0) + c
            cur = nxt
        total += sum(cur.values()) & 0xFFFF
    return total


class HostSpeed:
    """Samples the reference task between parts and scales the parts' times.

    Call `part_done()` right after each timed part, outside its timing, and
    `scaled(parts)` after each pass, with that pass's part times in the
    order the parts ran."""

    def __init__(self) -> None:
        self.samples: list[float] = []  # the reference task's mean time, per sample
        self._after: list[int] = []     # per part of the pass, the sample that follows it
        self._since = _clock()
        self.sample()

    def sample(self) -> None:
        target = SHARE * (_clock() - self._since)
        reps = 0
        t0 = _clock()
        while True:
            reference_task()
            reps += 1
            elapsed = _clock() - t0
            if elapsed >= target:
                break
        self.samples.append(elapsed / reps)
        self._since = _clock()

    def part_done(self) -> None:
        self._after.append(len(self.samples))
        if _clock() - self._since >= EVERY:
            self.sample()

    def scaled(self, parts: dict) -> dict:
        if self._after and self._after[-1] == len(self.samples):
            self.sample()
        after, self._after = self._after, []
        if len(after) != len(parts):
            raise ValueError(f"{len(parts)} part times for {len(after)} parts done")
        return {key: t * 2 * REFERENCE_S / (self.samples[i - 1] + self.samples[i])
                for (key, t), i in zip(parts.items(), after)}

    def factor(self) -> float:
        """The median of REFERENCE_S over the samples: how fast the host ran."""
        return statistics.median(REFERENCE_S / s for s in self.samples)
