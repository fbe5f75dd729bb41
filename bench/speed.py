"""Host-speed reference for the benchmark's time metrics.

The reference host's vCPUs change speed by up to 2x in phases of one
second to minutes, independently of the program (see *Host noise* in
``README.md``), which is more than any bound on a time can absorb. So
while an untraced pass runs, an interval timer takes a reference sample
every ``INTERVAL`` seconds: the signal handler times one fixed block of
the benchmark's own work (an edit-distance DP over word lists, regex
tokenizing and ``Counter`` intersections, small numpy products), which
the program's code never runs. A timed span is cut at the samples inside
it; each piece's wall time, without the samples, is scaled by ``REF_S``
over the median of the ``NEAREST`` samples nearest to it, and the pieces
are summed: the span's duration at the speed at which the reference
block takes ``REF_S`` seconds. A change to the program moves the span's
wall time and not the samples, so it shows in full.
"""

from __future__ import annotations

import bisect
import gc
import random
import re
import signal
import statistics
import time
from collections import Counter

import numpy as np

from checks import levenshtein

# Median time of one reference block on the reference host (2 vCPUs,
# Intel Xeon 2.0 GHz, Python 3.11); scaled times read as seconds there.
REF_S = 0.005
INTERVAL = 0.2
NEAREST = 5

_rng = random.Random(0)
_A = [_rng.choice("abcdefghij") for _ in range(40)]
_B = [_rng.choice("abcdefghij") for _ in range(40)]
_TEXT = " ".join("".join(_rng.choice("abcdefgh")
                         for _ in range(_rng.randint(2, 8)))
                 for _ in range(300))
_np_rng = np.random.default_rng(0)
_M = _np_rng.standard_normal((40, 40))
_X = _np_rng.standard_normal((500, 10))
_W = _np_rng.standard_normal((3, 10))


def _block() -> None:
    levenshtein(_A, _B)
    levenshtein(_B, _A)
    for _ in range(4):
        words = re.findall(r"\w+", _TEXT)
        sum((Counter(words) & Counter(words[::2])).values())
    table: dict[tuple, int] = {}
    for i in range(len(_A) - 3):
        table[tuple(_A[i:i + 3])] = i
    for _ in range(20):
        _M @ _M
        logits = _X @ _W.T
        np.exp(logits - logits.max(axis=1, keepdims=True)).sum(axis=1)


class Clock:
    """Reference samples of one run, in time order: start and end of each
    sample, and its duration."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.refs: list[float] = []

    def sample(self, *_signal_args) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _block()
        end = time.perf_counter()
        if enabled:
            gc.enable()
        self.starts.append(start)
        self.ends.append(end)
        self.refs.append(end - start)

    def start(self) -> None:
        # The handler stays installed after stop(), so that an alarm
        # already on its way is one more sample, not a default action.
        signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.sample()

    def _speed(self, t: float) -> float:
        """REF_S over the median of the samples nearest to time t."""
        i = bisect.bisect_left(self.starts, t)
        lo = max(0, min(i - NEAREST // 2, len(self.refs) - NEAREST))
        return REF_S / statistics.median(self.refs[lo:lo + NEAREST])

    def scaled(self, start: float, end: float) -> float:
        """Seconds from start to end, without the samples taken in
        between, at the reference speed."""
        total, t = 0.0, start
        k = bisect.bisect_left(self.starts, start)
        while k < len(self.starts) and self.ends[k] <= end:
            piece = self.starts[k] - t
            total += piece * self._speed(t + piece / 2)
            t = self.ends[k]
            k += 1
        return total + (end - t) * self._speed((end + t) / 2)

    def factor(self) -> float:
        """REF_S over the run's median sample: scales a time taken
        anywhere in the run to the reference speed."""
        return REF_S / statistics.median(self.refs)
