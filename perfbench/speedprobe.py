"""Machine-speed probe that runs alongside each timed CLI command.

A small shared machine does not run at one speed: the vCPUs of such a host
slow by 20-40% in spells of seconds to minutes as its other tenants come and
go, and every stage of a run slows with them. Measured on the 2-vCPU
machine the benchmark was sized on, the wall time of one corpus build spread
by a quarter between builds of the same code, and two vCPUs did not slow
together, so a probe has to share the program's CPU and its time.

While a command runs, a SIGALRM interval timer interrupts the main thread
every INTERVAL_S seconds, and the handler times a fixed kernel: a pure-Python
loop and a few small matrix products, the two kinds of work the pipeline
does. Python runs the handler between bytecodes, so it never interrupts
NumPy mid-call and never touches the program's state. The median kernel time
during a command, against REFERENCE_MS, says how much slower than the
reference the machine ran; the benchmark divides the command's wall time by
it. The kernel shares no code with morphdet, so a change to the program
moves it only through the CPU caches they share.

The CLI start-up is probed in its own interpreter with the loop alone,
since the matrix products would import NumPy before the CLI does.
"""

import signal
import statistics
import time
from contextlib import contextmanager

INTERVAL_S = 0.01
# Median kernel times on the machine the benchmark was sized on, inside the
# pipeline's stages and inside the CLI start-up, so that its figures there
# read as plain wall time.
REFERENCE_MS = 0.24
REFERENCE_LOOP_MS = 0.11
_LOOP = 1200
_PRODUCTS = 3


class SpeedProbe:
    def __init__(self, products=True):
        self._products = None
        if products:
            import numpy as np

            rng = np.random.default_rng(0)
            self._products = (np.maximum, rng.random((28, 256)), rng.random((256, 64)))
        self._samples = None  # list of kernel times in ms while sampling

    def _kernel(self):
        total = 0
        for i in range(_LOOP):
            total += i * i % 7
        if self._products:
            maximum, left, right = self._products
            for _ in range(_PRODUCTS):
                maximum(left @ right, 0.5)
        return total

    def _tick(self, _signum=None, _frame=None):
        start = time.perf_counter_ns()
        self._kernel()
        self._samples.append((time.perf_counter_ns() - start) / 1e6)

    @contextmanager
    def sampling(self, samples):
        """Append kernel times (ms) to `samples` while the block runs: one
        at entry, so that even a short block has one, then one per timer
        tick. The timer and the previous handler are restored on exit."""
        self._samples = samples
        self._tick()
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield samples
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            self._samples = None


def slowdown(samples, reference=REFERENCE_MS):
    """How many times slower than `reference` the machine ran while
    `samples` were taken; 1.0 when there are none (an unprobed run)."""
    return statistics.median(samples) / reference if samples else 1.0
