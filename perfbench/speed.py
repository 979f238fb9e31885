"""The host's speed, from a fixed calibration chunk timed between slices of the work.

On a shared host the speed of a vCPU drifts by a third or more over tens of
seconds, and CPU time drifts with wall time.  So the end-to-end times are
reported in reference seconds: each slice of wall time is scaled by
REFERENCE_S over the time the calibration chunk took next to it.  A slice
that ran while the chunk took twice REFERENCE_S counts half its length.  The
chunk's own time is left out of the work.

The runner pins itself and its children to one vCPU, because the vCPUs of a
shared VM drift apart, and a chunk measures only the vCPU it runs on.

The chunk is a fixed pure-Python loop of tuple, dict and integer operations,
like topab's own work, run with the cyclic collector off so that the size of
the measured program's heap does not change it.  Nothing in it comes from
topab, so a change to topab cannot change the chunk.
"""

import gc
import signal
import statistics
import time

# What one chunk takes at reference speed: about its median on a 2-vCPU
# shared VM with CPython 3.11.7.  Reference seconds are seconds on that host
# at its typical speed.
REFERENCE_S = 1.25e-3
# Wall time between chunks inside a metered child: short enough that a
# child's 0.2 s of set-up holds several.
PERIOD_S = 0.05
CHUNK_ITERATIONS = 3000


def chunk():
    """Time one calibration chunk; return its wall seconds."""
    collecting = gc.isenabled()
    gc.disable()
    table = {}
    total = 0
    start = time.perf_counter()
    for i in range(CHUNK_ITERATIONS):
        key = (i % 7, i % 11, i & 3)
        total = (total + table.get(key, i) * 3) % 1000003
        table[key] = total
    elapsed = time.perf_counter() - start
    if collecting:
        gc.enable()
    return elapsed


def sample(n=11):
    """The median of n chunks in a row: the host's speed just now."""
    return statistics.median(chunk() for _ in range(n))


def scaled(seconds, *chunks):
    """`seconds` of wall time in reference seconds, given chunks timed next to it."""
    return seconds * REFERENCE_S / statistics.fmean(chunks)


class Meter:
    """Times a chunk every PERIOD_S of wall time, from SIGALRM, while work runs.

    `lap` splits the window, as `stop` ends it.  `stop` returns, for each
    lap, its wall time and its work in reference seconds, chunks left out.
    Each slice between two chunks is scaled by the mean of the running
    medians (over five chunks) on its two sides, so that one chunk that was
    preempted does not skew its slices.  The first and last running medians
    scale the time just before and after the window.
    """

    def __init__(self):
        self.marks = []  # (start, seconds) of each chunk
        self.laps = [0]  # index of the chunk that opens each lap

    def _mark(self, *_):
        start = time.perf_counter()
        self.marks.append((start, chunk()))

    def start(self):
        self._mark()
        signal.signal(signal.SIGALRM, self._mark)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def lap(self):
        self._mark()
        self.laps.append(len(self.marks) - 1)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._mark()
        marks = self.marks
        seconds = [c for _, c in marks]
        smooth = [statistics.median(seconds[max(0, i - 2) : i + 3]) for i in range(len(seconds))]
        ends = self.laps[1:] + [len(marks) - 1]
        laps = []
        for first, last in zip(self.laps, ends):
            work = reference = 0.0
            for i in range(first, last):
                (s0, c0), (s1, _) = marks[i], marks[i + 1]
                work += s1 - (s0 + c0)
                reference += scaled(s1 - (s0 + c0), smooth[i], smooth[i + 1])
            laps.append({"window_s": marks[last][0] - marks[first][0], "work_s": work, "work_ref_s": reference})
        laps[-1]["window_s"] += marks[-1][1]  # the closing chunk
        return {
            "laps": laps,
            "first_chunk_s": smooth[0],
            "last_chunk_s": smooth[-1],
            "chunks": len(marks),
            "median_chunk_s": statistics.median(seconds),
        }
