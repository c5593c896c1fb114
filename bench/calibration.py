"""Machine-speed calibration for the bellkit benchmark.

The machine is shared, and other tenants slow it by up to half, from
seconds to minutes at a time.  calibrate() is a fixed ~2 ms mix of the kinds
of work bellkit does (interpreter work, small numpy products, seeding), and
calls no bellkit code.  A time divided by the calibration time measured
during and around it, and multiplied by CALIBRATION_REF_S, is that time on a
machine on which calibrate() takes CALIBRATION_REF_S.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

CALIBRATION_REF_S = 0.002
CALIBRATION_INTERVAL_S = 0.05  # of CPU time
LOCAL_SAMPLES = 9  # calibration samples, at least, behind each scale factor


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter, small-numpy and seeding work."""
    start = time.perf_counter()
    op = np.eye(4, dtype=complex)
    state = np.ones(4, dtype=complex) / 2
    total = 0.0
    for i in range(120):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([i, 7])))
        state = op @ state
        total += abs(complex(state[i % 4])) ** 2 + rng.random()
        record = {"step": i, "text": f"{total:.6f}{-total:+.6f}i"}  # noqa: F841 (allocation is the work)
    return time.perf_counter() - start


class Calibration:
    """calibrate() every CALIBRATION_INTERVAL_S of this process's CPU time.

    The interval timer fires during operations as well as between them, so
    a long operation is sampled throughout and not only at its ends.  The
    time spent in the handler is taken out of the operation that it
    interrupted (see Runner.in_process).
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # s spent in the handler

    def _on_timer(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - start

    @contextlib.contextmanager
    def running(self):
        signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, CALIBRATION_INTERVAL_S, CALIBRATION_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, signal.SIG_DFL)
            if not self.samples:  # a run shorter than one interval
                self._on_timer(None, None)

    def scale(self, lo: int, hi: int) -> float:
        """Factor to the reference machine for an interval that began when
        there were `lo` samples and ended when there were `hi`: the median of
        the samples taken during it, widened to at least LOCAL_SAMPLES."""
        pad = max(1, (LOCAL_SAMPLES - (hi - lo) + 1) // 2)
        return CALIBRATION_REF_S / statistics.median(self.samples[max(0, lo - pad):hi + pad])
