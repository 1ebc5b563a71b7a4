"""Cancel the host's speed drift out of every timing.

The reference host is a small shared VM whose speed moves by a third on a
scale of one to tens of seconds: the same pure-Python loop takes 13 ms in
one stretch and 21 ms in the next, medians of ten-second runs of one
operation differ by 15-30% from run to run, and even the minimum of eighty
repeats has a 13% spread. No bound tighter than that could be checked on
raw wall time.

So while anything is being timed, a background thread runs a fixed *spin*
— a pure-Python integer loop of about 2 ms — every 30 ms and notes how
long each took. A timed interval's wall time is multiplied by ``reference
spin / mean spin seen during the interval``: what it would have taken had
the host run at the reference speed throughout. On a 90 s prototype over
the 1.5 s study operation this cut the spread of single operations from
24% to 5.5%, and of seven-operation medians from 34% to 3.6% (bracketing
each operation with two 50 ms spins instead only reached 13%: the drift
inside an operation matters). Raw wall times are kept beside the
normalised ones in every output file.

The sampler holds the interpreter lock for its 2 ms, so what is measured
runs about 7% slower than alone — on both sides of any comparison. The
spin measures the interpreter's speed, which is what this program's cost
is made of; time spent waiting on a disk flush or on another process does
not scale with it exactly, so the correction is weaker on
``stream_ingest`` and the serve workloads.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left, bisect_right
from typing import Callable, List, Tuple

SPIN_ITERATIONS = 40_000
PERIOD_SECONDS = 0.03
#: Median spin on the reference host in its usual state. It only fixes
#: the scale of the reported numbers; comparisons do not depend on it.
REFERENCE_SPIN_SECONDS = 0.0018
#: An interval borrows samples from this far on either side, so that one
#: shorter than the sampling period still finds some.
_MARGIN_SECONDS = 0.1


def spin() -> float:
    start = time.perf_counter()
    total = 0
    for value in range(SPIN_ITERATIONS):
        total += value * value
    return time.perf_counter() - start


class Drift:
    """``with Drift() as drift:`` samples the host's speed in the
    background; :meth:`factor` and :meth:`time` normalise against it."""

    def __init__(self) -> None:
        self._times: List[float] = []
        self._spins: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            self._sample()
            self._stop.wait(PERIOD_SECONDS)

    def _sample(self) -> None:
        taken = spin()
        self._spins.append(taken)
        self._times.append(time.perf_counter())

    def __enter__(self) -> "Drift":
        self._sample()  # never empty, whatever is asked first
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def spins(self) -> List[float]:
        return list(self._spins)

    def factor(self, start: float, end: float) -> float:
        """What to multiply the wall time of ``[start, end]`` by."""
        low = bisect_left(self._times, start - _MARGIN_SECONDS)
        high = bisect_right(self._times, end + _MARGIN_SECONDS)
        if high <= low:  # nothing near: take the nearest sample
            low = max(min(low, len(self._times) - 1) - 1, 0)
            high = low + 1
        seen = self._spins[low:high]
        return REFERENCE_SPIN_SECONDS / (sum(seen) / len(seen))

    def time(self, op: Callable[[], object]) -> Tuple[float, float, object]:
        """``(raw seconds, normalised seconds, op's result)``."""
        start = time.perf_counter()
        result = op()
        end = time.perf_counter()
        return end - start, (end - start) * self.factor(start, end), result
