"""The machine's momentary speed, from a fixed calibration kernel.

The shared virtual machines this benchmark runs on change speed by up to
2x, in phases from a fraction of a second to several minutes: the same
cache lookup takes 80 ms in one phase and 150 ms in the next, and process
CPU time moves with it, so no clock leaves the phases out.  A fixed piece
of pure-Python work (dictionary updates, ``Fraction`` arithmetic and JSON
decoding, the operations the program spends its time in) slows down by
the same factor.  The worker times this kernel before and after every
query, and every ``INTERVAL_S`` during it from a timer signal, and
scales the query's time by ``REFERENCE_S`` over the mean of those kernel
times.  ``clock()`` is ``time.perf_counter()`` stopped while the kernel
runs inside a query, so the kernel's own time is never counted as the
program's.

A reported time is therefore the time the query would have taken at the
speed at which the kernel takes ``REFERENCE_S`` (about this machine's
full speed).  The kernel imports nothing from the program, so a change
to the program moves the scaled times exactly as it moves the measured
ones.  The measured times are kept beside the scaled ones.
"""

from __future__ import annotations

import gc
import json
import signal
import time
from fractions import Fraction

#: kernel time that scaled times are expressed at (seconds)
REFERENCE_S = 0.0037

#: period of the kernel runs inside a query (seconds)
INTERVAL_S = 0.02

_RECORDS = [
    json.dumps({
        "method": "tropical", "d": i % 7, "g": i % 5, "connected": True,
        "numerator": str(i * 7919), "denominator": "12", "wall_time_ms": i,
        "tool_version": "0.1.%d" % i, "normalization_reading": "",
    })
    for i in range(400)
]


def _kernel():
    table = {}
    total = 0
    for i in range(3000):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + i
        total += Fraction(i, key + 1).numerator
    for line in _RECORDS:
        record = json.loads(line)
        total += record["d"] == 3 and record["g"] == 2
    return total


def kernel_s():
    """Seconds the calibration kernel takes now.  The collector is off
    while it runs, so the program's heap does not change its cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


_paused_s = 0.0
_inside = []


def clock():
    """Seconds, like ``time.perf_counter()``, less the time the kernel ran
    inside a query."""
    return time.perf_counter() - _paused_s


def _on_timer(_signum, _frame):
    global _paused_s
    start = time.perf_counter()
    _inside.append(kernel_s())
    _paused_s += time.perf_counter() - start


class Meter:
    """Measures stretches of the program's work and the speed the
    machine ran them at.  ``start()`` and ``stop()`` bracket one stretch;
    ``stop()`` returns the factor that turns the stretch's ``clock()``
    time into a time at the reference speed."""

    def __init__(self):
        signal.signal(signal.SIGALRM, _on_timer)
        self.kernels_s = [kernel_s()]

    def start(self):
        del _inside[:]
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        during = list(_inside) + [self.kernels_s[-1], kernel_s()]
        self.kernels_s.extend(during[:-2] + during[-1:])
        return REFERENCE_S / (sum(during) / len(during))


_kernel()  # the first run warms the interpreter's specialised code
