"""The engine mutex: one statement inside a served engine at a time.

A served statement acquires its whole 2PL footprint in the lock manager
first, then enters the engine through :class:`EngineGate` for the
duration of its execution.  Every maintenance pass that needs a frozen
engine -- the background doctor refresh, a follower applying the
replication stream or being promoted, a test harness driving the engine
directly -- enters the same mutex with ``with sessions.latch:``.  So
exactly one thread is ever inside a served engine, and the buffer pool,
the catalog and the engine's other in-memory structures need no latches
of their own.

Why not let granted statements overlap: CPython serialises their CPU
work, the simulated disk never blocks and the WAL force costs nothing,
so there is nothing for an overlap to hide (docs/ARCHITECTURE.md
section 9 has the measurement).

Lock ordering: 2PL locks are acquired *before* entering the mutex and
never inside it, so the thread inside never waits for a lock another
waiter holds, and the mutex cannot deadlock against the lock manager.
The mutex is reentrant: a thread holding it for maintenance may run
statements of its own.
"""

from __future__ import annotations

import threading

__all__ = ["EngineGate"]


class EngineGate:
    """The reentrant engine mutex.

    :meth:`enter_shared` / :meth:`exit_shared` bracket one statement
    (the names are older than the mutex; the benchmark harness times
    admission by wrapping them); ``with gate:`` takes the same mutex for
    a maintenance pass.
    """

    def __init__(self) -> None:
        self._mutex = threading.RLock()

    def enter_shared(self) -> None:
        """Wait until no other thread is inside the engine, then enter."""
        self._mutex.acquire()

    def exit_shared(self) -> None:
        self._mutex.release()

    def __enter__(self) -> "EngineGate":
        self.enter_shared()
        return self

    def __exit__(self, *exc) -> None:
        self.exit_shared()
