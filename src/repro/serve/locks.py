"""A writer-preferring read-write lock for per-shard concurrency.

Each shard serializes mutation behind one writer while admitting any
number of concurrent readers -- the classic single-writer /
multi-reader discipline the serving tier's batch executor relies on.
Writer preference (readers queue behind a waiting writer) keeps a
steady query stream from starving updates, which matters under the
sustained mixed read/write regime of Yi's *Dynamic Indexability*.

Both acquire methods take an optional ``timeout``: ``None`` (default)
blocks forever and returns True, a number bounds the wait and returns
False on expiry without taking the lock.  The lock wait is one of the
waits a batch deadline bounds: a shard task whose lock is not free in
the remaining budget reports its slab unserved and runs none of its
ops, rather than hang on a busy writer.  Once a task holds the lock,
its whole queue runs, so lateness is at most one shard queue.

The implementation is a plain condition variable; it never spins and
holds no references to the protected state, so a shard can expose it
directly.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Optional


class ReadWriteLock:
    """Single-writer / multi-reader lock with writer preference."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    # ------------------------------------------------------------------
    def acquire_read(self, timeout: Optional[float] = None) -> bool:
        """Take a shared hold; False if ``timeout`` expired first.

        ``timeout=None`` blocks until acquired (always True);
        ``timeout=0`` is a non-blocking try.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._writer or self._writers_waiting:
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                    self._cond.wait(remaining)
                else:
                    self._cond.wait()
            self._readers += 1
            return True

    def release_read(self) -> None:
        """Release one reader hold."""
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self, timeout: Optional[float] = None) -> bool:
        """Take the exclusive hold; False if ``timeout`` expired first.

        A timed-out writer withdraws its preference claim and wakes any
        readers it was holding back, so a failed acquisition leaves the
        lock exactly as it found it.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            return False
                        self._cond.wait(remaining)
                    else:
                        self._cond.wait()
            finally:
                self._writers_waiting -= 1
                if self._writers_waiting == 0:
                    # a timed-out writer must wake readers it blocked
                    self._cond.notify_all()
            self._writer = True
            return True

    def release_write(self) -> None:
        """Release the exclusive hold."""
        with self._cond:
            self._writer = False
            self._cond.notify_all()

    # ------------------------------------------------------------------
    @contextmanager
    def read_locked(self):
        """``with lock.read_locked():`` -- shared access."""
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self):
        """``with lock.write_locked():`` -- exclusive access."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()

    def __repr__(self) -> str:
        return (
            f"ReadWriteLock(readers={self._readers}, writer={self._writer}, "
            f"waiting={self._writers_waiting})"
        )
