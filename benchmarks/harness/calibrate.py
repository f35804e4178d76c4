"""A fixed reference kernel and the choice of core, for a shared box.

The box the benchmark runs on is a few cores of a shared host whose speed
changes by a factor of 1.2 to 3, core by core, over spells of
milliseconds to tens of seconds, and none of it shows as steal time.  A
latency in ms then says more about the host than about the program.  So
the generator times a small fixed piece of Python (``kernel``) before and
after every statement, on the core the server shares with it, and reports
a statement's latency as a multiple of the kernels around it: both slow
down together, and the ratio keeps to a few percent where the ms do not.
A set-up cannot be interleaved with the kernel; a thread samples it
meanwhile (``KernelSampler``).
"""

from __future__ import annotations

import os
import statistics
import struct
import threading
import time

_RECORD = struct.Struct("<IHH")
_PAGE = bytes(range(256)) * 16
#: kernels timed on each core when choosing one
_PROBES = 15
#: the kernel's time on a quiet core of the box the benchmark was written
#: on; it turns a time in kernels back into seconds (``setup_s``)
NOMINAL_KERNEL_MS = 0.2
#: pause between two kernels of a ``KernelSampler``
_SAMPLE_EVERY_S = 0.01
try:
    #: the cores this process may use, read before it pins itself to one
    CORES = sorted(os.sched_getaffinity(0))
except (AttributeError, OSError):
    CORES = []


def kernel() -> int:
    """About 0.2 ms of what the engine itself mostly does: integer
    arithmetic in a loop, then records unpacked from a page-sized buffer
    into tuples, slices and a dict.  Never change it: every relative
    metric is a multiple of its time."""
    total = 0
    for i in range(2000):
        total += i * i % 7
    slots = {}
    for offset in range(0, 4096, 16):
        key, low, high = _RECORD.unpack_from(_PAGE, offset)
        slots[key] = (low, high, _PAGE[offset:offset + 8])
    return total + len(slots)


def kernel_ms() -> float:
    """One timed kernel."""
    begun = time.perf_counter()
    kernel()
    return (time.perf_counter() - begun) * 1000.0


def pin_to_fastest_core() -> int | None:
    """Pin this process (and so every process it starts from here on) to
    the core on which the kernel now runs fastest; returns the core.

    One core is enough: in a closed loop with the server, either the
    generator runs or the server does, and with both on one core the
    kernel is timed where the server runs.  Which core is quiet changes
    from spell to spell, so callers choose again before each set-up.
    """
    best, best_ms = None, float("inf")
    try:
        for core in CORES:
            os.sched_setaffinity(0, {core})
            times = sorted(kernel_ms() for __ in range(_PROBES))
            if times[_PROBES // 2] < best_ms:
                best, best_ms = core, times[_PROBES // 2]
        if best is not None:
            os.sched_setaffinity(0, {best})
    except OSError:
        return None
    return best


class KernelSampler:
    """Times the kernel every 10 ms on a thread of its own for as long as
    the ``with`` block runs: how fast the core was during work that cannot
    be interleaved with the kernel (a set-up).  A sample starts once the
    thread holds the interpreter lock and ends well within its turn, so it
    times the kernel, not the wait for the lock."""

    def __init__(self) -> None:
        self.samples_ms: list[float] = []
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._done.wait(_SAMPLE_EVERY_S):
            self.samples_ms.append(kernel_ms())

    def __enter__(self) -> "KernelSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._done.set()
        self._thread.join()

    def median_ms(self) -> float:
        return statistics.median(self.samples_ms or [kernel_ms()])
