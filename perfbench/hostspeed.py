"""Host speed, measured while the program runs, to steady CPU-bound times.

On a shared host the speed one process gets swings by up to a half within
minutes, as other tenants load the same cores and caches: back-to-back
assessments of ``ndjson_1m`` ranged from 7.0 to 13.3 s over seven minutes
on the 2-core VM this benchmark was built on. A burst, a fixed loop of
pure-Python integer work that stays in the first-level caches, slows by
about the same factor when it is timed while the assessment runs. Over ten
``ndjson_1m`` runs of ten seeds there, the quartile spread of the runs'
median wall time was 0.123 of its median, and that of the same times
scaled by the bursts 0.051.

``HostSampler`` runs one burst every ``INTERVAL_S`` on a thread of its own,
timed in that thread's CPU time, so that the GIL hand-overs around it are
not counted; the main thread pauses for the burst, well under 1% of its
time. CPU-bound times are then reported at the reference speed: wall time
x ``REFERENCE_BURST_S`` / median burst. The blind workload's round-trip
latency, which waits on per-request stalls more than on the CPU, is
reported as measured.
"""

from __future__ import annotations

import statistics
import threading
import time

# A burst's CPU time on a host of reference speed: about its median time on
# the 2.1 GHz Xeon VM above, so that scaled times read close to its seconds.
REFERENCE_BURST_S = 2.0e-4
INTERVAL_S = 0.05
# Bursts timed before and after the measured work, so that work shorter
# than INTERVAL_S still has a speed.
EDGE_BURSTS = 5
_BURST_RANGE = range(2000)


def burst() -> float:
    """CPU time, in seconds, of one fixed loop of integer work."""
    started = time.thread_time()
    x = 0
    for v in _BURST_RANGE:
        x = (x * 31 + v) & 0xFFFF
    return time.thread_time() - started


class HostSampler:
    """Times bursts while the ``with`` body runs; ``scale`` converts its times."""

    def __init__(self) -> None:
        self.bursts: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self.bursts.append(burst())

    def __enter__(self) -> "HostSampler":
        self.bursts.extend(burst() for _ in range(EDGE_BURSTS))
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()
        self.bursts.extend(burst() for _ in range(EDGE_BURSTS))

    @property
    def scale(self) -> float:
        return scale_of(self.bursts)


def scale_of(bursts: list[float]) -> float:
    """Factor from this host's times to times at the reference speed."""
    return REFERENCE_BURST_S / statistics.median(bursts)


def scale_now() -> float:
    """The factor from bursts timed now, for work that has just ended."""
    return scale_of([burst() for _ in range(2 * EDGE_BURSTS)])
