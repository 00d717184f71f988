"""Tests for :class:`repro.utils.rwlock.ReadWriteLock`, the hot-reload swap gate.

Every wait below is bounded, so a lock that deadlocks fails the test
instead of hanging the suite.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.utils.rwlock import ReadWriteLock

WAIT_S = 5.0


def start(target) -> threading.Thread:
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread


def wait_until(predicate, timeout: float = WAIT_S) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.001)
    return predicate()


def test_readers_overlap():
    lock = ReadWriteLock()
    both_inside = threading.Barrier(2, timeout=WAIT_S)

    def reader():
        with lock.read_locked():
            both_inside.wait()  # breaks (and raises) unless both hold the lock

    threads = [start(reader), start(reader)]
    for thread in threads:
        thread.join(WAIT_S)
    assert not both_inside.broken
    assert lock._readers == 0


def test_writer_waits_for_in_flight_readers():
    lock = ReadWriteLock()
    lock.acquire_read()
    acquired = threading.Event()

    def writer():
        with lock.write_locked():
            acquired.set()

    thread = start(writer)
    assert wait_until(lambda: lock._writers_waiting == 1)
    assert not acquired.is_set()
    lock.release_read()
    assert acquired.wait(WAIT_S)
    thread.join(WAIT_S)
    assert not lock._writer_active


def test_waiting_writer_blocks_new_readers():
    """Writer preference: once a swap is queued, fresh readers queue behind it."""
    lock = ReadWriteLock()
    lock.acquire_read()
    order: list[str] = []

    def writer():
        with lock.write_locked():
            order.append("writer")

    def late_reader():
        with lock.read_locked():
            order.append("reader")

    writer_thread = start(writer)
    assert wait_until(lambda: lock._writers_waiting == 1)
    reader_thread = start(late_reader)
    time.sleep(0.05)
    assert order == []  # the late reader did not slip past the queued writer
    lock.release_read()
    writer_thread.join(WAIT_S)
    reader_thread.join(WAIT_S)
    assert order == ["writer", "reader"]


def test_writer_excludes_readers_and_other_writers():
    lock = ReadWriteLock()
    lock.acquire_write()
    entered: list[str] = []

    def reader():
        with lock.read_locked():
            entered.append("reader")

    def writer():
        with lock.write_locked():
            entered.append("writer")

    threads = [start(reader), start(writer)]
    time.sleep(0.05)
    assert entered == []
    lock.release_write()
    for thread in threads:
        thread.join(WAIT_S)
    assert sorted(entered) == ["reader", "writer"]


@pytest.mark.parametrize("side", ["read", "write"])
def test_context_managers_release_when_the_body_raises(side):
    lock = ReadWriteLock()
    guard = lock.read_locked if side == "read" else lock.write_locked
    with pytest.raises(KeyError):
        with guard():
            raise KeyError("boom")
    assert (lock._readers, lock._writer_active, lock._writers_waiting) == (0, False, 0)
    # Both sides are free again.
    with lock.write_locked():
        pass
    with lock.read_locked():
        pass
