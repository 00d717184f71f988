"""Per-rule fixtures for the repo-native linter (``tools/lint``).

Each rule gets three kinds of fixture: code that must fire, compliant code
that must stay quiet, and a violating line whose ``# repro: allow[...]``
pragma suppresses it.  Fixtures are in-memory :class:`ModuleSource`
instances with a chosen repo-relative path, so path-scoped rules (DET001's
seeded-path prefixes, EXC001's serving taxonomy) can be exercised without
touching real files.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from tools.lint.core import REPO_ROOT, ModuleSource, collect_sources, run_rules
from tools.lint.rules import ALL_RULES, select_rules
from tools.lint.rules.det001 import DeterminismRule
from tools.lint.rules.exc001 import ExceptionDisciplineRule
from tools.lint.rules.lck001 import LockDisciplineRule
from tools.lint.rules.mpx001 import MultiprocessingHygieneRule
from tools.lint.rules.thr001 import ThreadHygieneRule


def check(rule, code: str, rel: str = "src/repro/serving/_fixture.py"):
    """Run one rule over an in-memory module; returns surviving violations."""
    source = ModuleSource(Path(rel), rel, textwrap.dedent(code))
    return run_rules([rule], [source])


# ----------------------------------------------------------------------
# LCK001 — lock discipline
# ----------------------------------------------------------------------
class TestLockDiscipline:
    rule = LockDisciplineRule()

    def test_unguarded_acquire_fires(self):
        violations = check(
            self.rule,
            """
            def swap(lock):
                lock.acquire()
                do_work()
                lock.release()
            """,
        )
        assert len(violations) == 1
        assert "not release-guarded" in violations[0].message

    def test_try_finally_guard_is_quiet(self):
        assert not check(
            self.rule,
            """
            def swap(lock):
                lock.acquire()
                try:
                    do_work()
                finally:
                    lock.release()
            """,
        )

    def test_rwlock_write_guard_pairing(self):
        fired = check(
            self.rule,
            """
            def swap(rw):
                rw.acquire_write()
                mutate()
                rw.release_write()
            """,
        )
        assert len(fired) == 1 and "release_write" in fired[0].message
        assert not check(
            self.rule,
            """
            def swap(rw):
                rw.acquire_write()
                try:
                    mutate()
                finally:
                    rw.release_write()
            """,
        )

    def test_mismatched_release_target_fires(self):
        violations = check(
            self.rule,
            """
            def swap(a, b):
                a.acquire()
                try:
                    do_work()
                finally:
                    b.release()
            """,
        )
        assert len(violations) == 1

    def test_sleep_under_lock_fires(self):
        violations = check(
            self.rule,
            """
            def tick(self):
                with self._lock:
                    time.sleep(0.1)
            """,
        )
        assert len(violations) == 1
        assert "time.sleep" in violations[0].message

    def test_untimed_queue_get_under_lock_fires(self):
        violations = check(
            self.rule,
            """
            def pull(self):
                with self._lock:
                    item = self._queue.get()
                return item
            """,
        )
        assert len(violations) == 1
        assert "un-timed" in violations[0].message

    def test_timed_queue_get_under_lock_is_quiet(self):
        assert not check(
            self.rule,
            """
            def pull(self):
                with self._lock:
                    item = self._queue.get(timeout=0.1)
                return item
            """,
        )

    def test_predict_under_write_lock_fires_but_read_lock_is_fine(self):
        fired = check(
            self.rule,
            """
            def swap(self, x):
                with self._swap_lock.write_locked():
                    return self.engine.predict(x)
            """,
        )
        assert len(fired) == 1 and "exclusive" in fired[0].message
        assert not check(
            self.rule,
            """
            def serve(self, x):
                with self._swap_lock.read_locked():
                    return self.engine.predict(x)
            """,
        )

    def test_pragma_suppresses(self):
        assert not check(
            self.rule,
            """
            def tick(self):
                with self._lock:
                    time.sleep(0.1)  # repro: allow[lock] test fixture
            """,
        )


# ----------------------------------------------------------------------
# DET001 — determinism in seeded paths
# ----------------------------------------------------------------------
class TestDeterminism:
    rule = DeterminismRule()
    scoped = "src/repro/core/_fixture.py"

    def test_np_random_global_fires_in_scope(self):
        violations = check(
            self.rule,
            """
            import numpy as np

            def sample():
                return np.random.rand(4)
            """,
            rel=self.scoped,
        )
        assert len(violations) == 1
        assert "np.random.rand" in violations[0].message

    def test_default_rng_is_sanctioned(self):
        assert not check(
            self.rule,
            """
            import numpy as np

            def sample(seed):
                return np.random.default_rng(seed).random(4)
            """,
            rel=self.scoped,
        )

    def test_out_of_scope_module_is_ignored(self):
        assert not check(
            self.rule,
            """
            import numpy as np

            def sample():
                return np.random.rand(4)
            """,
            rel="src/repro/serving/_fixture.py",
        )

    def test_wall_clock_fires_and_monotonic_does_not(self):
        fired = check(
            self.rule,
            """
            import time

            def stamp():
                return time.time()
            """,
            rel=self.scoped,
        )
        assert len(fired) == 1 and "wall clock" in fired[0].message
        assert not check(
            self.rule,
            """
            import time

            def measure():
                return time.monotonic()
            """,
            rel=self.scoped,
        )

    def test_stdlib_random_module_state_fires(self):
        violations = check(
            self.rule,
            """
            import random

            def sample():
                return random.random()
            """,
            rel=self.scoped,
        )
        assert len(violations) == 1
        # Explicit instances remain legal.
        assert not check(
            self.rule,
            """
            import random

            def sample(seed):
                return random.Random(seed).random()
            """,
            rel=self.scoped,
        )

    def test_clock_pragma_suppresses(self):
        assert not check(
            self.rule,
            """
            import time

            def stamp():
                return time.time()  # repro: allow[clock] metadata only
            """,
            rel=self.scoped,
        )


# ----------------------------------------------------------------------
# MPX001 — multiprocessing hygiene
# ----------------------------------------------------------------------
class TestMultiprocessingHygiene:
    rule = MultiprocessingHygieneRule()

    def test_lambda_target_fires(self):
        violations = check(
            self.rule,
            """
            import multiprocessing as mp

            def launch():
                return mp.Process(target=lambda: None)
            """,
        )
        assert len(violations) == 1
        assert "lambda" in violations[0].message

    def test_nested_function_target_fires(self):
        violations = check(
            self.rule,
            """
            import multiprocessing as mp

            def launch():
                def work():
                    pass
                return mp.Process(target=work)
            """,
        )
        assert len(violations) == 1
        assert "module level" in violations[0].message

    def test_module_level_target_is_quiet(self):
        assert not check(
            self.rule,
            """
            import multiprocessing as mp

            def work():
                pass

            def launch():
                return mp.Process(target=work)
            """,
        )

    def test_sharedmemory_without_cleanup_fires_twice(self):
        violations = check(
            self.rule,
            """
            from multiprocessing.shared_memory import SharedMemory

            def allocate(n):
                return SharedMemory(create=True, size=n)
            """,
        )
        messages = " ".join(v.message for v in violations)
        assert len(violations) == 2
        assert "close()" in messages and "unlink()" in messages

    def test_sharedmemory_with_cleanup_is_quiet(self):
        assert not check(
            self.rule,
            """
            from multiprocessing.shared_memory import SharedMemory

            def allocate(n):
                return SharedMemory(create=True, size=n)

            def destroy(shm):
                shm.close()
                shm.unlink()
            """,
        )

    def test_pragma_suppresses(self):
        assert not check(
            self.rule,
            """
            import multiprocessing as mp

            def launch():
                # repro: allow[mp] fork-only test helper
                return mp.Process(target=lambda: None)
            """,
        )


# ----------------------------------------------------------------------
# EXC001 — exception discipline
# ----------------------------------------------------------------------
class TestExceptionDiscipline:
    rule = ExceptionDisciplineRule()

    def test_bare_except_fires(self):
        violations = check(
            self.rule,
            """
            def risky():
                try:
                    work()
                except:
                    handle()
            """,
        )
        assert len(violations) == 1
        assert "bare" in violations[0].message

    def test_silent_broad_except_fires(self):
        violations = check(
            self.rule,
            """
            def risky():
                try:
                    work()
                except Exception:
                    pass
            """,
        )
        assert len(violations) == 1
        assert "silent" in violations[0].message

    def test_handled_broad_except_is_quiet(self):
        assert not check(
            self.rule,
            """
            def risky(log):
                try:
                    work()
                except Exception as exc:
                    log.warning("work failed: %s", exc)
            """,
        )

    def test_narrow_silent_except_is_quiet(self):
        assert not check(
            self.rule,
            """
            def risky():
                try:
                    work()
                except KeyError:
                    pass
            """,
        )

    def test_runtime_error_raise_in_serving_fires(self):
        violations = check(
            self.rule,
            """
            def submit(self):
                raise RuntimeError("queue is closed")
            """,
            rel="src/repro/serving/_fixture.py",
        )
        assert len(violations) == 1
        assert "taxonomy" in violations[0].message

    def test_runtime_error_outside_serving_is_quiet(self):
        assert not check(
            self.rule,
            """
            def submit(self):
                raise RuntimeError("queue is closed")
            """,
            rel="src/repro/core/_fixture.py",
        )

    def test_taxonomy_raise_in_serving_is_quiet(self):
        assert not check(
            self.rule,
            """
            from repro.serving.errors import NotServingError

            def submit(self):
                raise NotServingError("queue is closed")
            """,
            rel="src/repro/serving/_fixture.py",
        )

    def test_pragma_suppresses_silent_except(self):
        assert not check(
            self.rule,
            """
            def risky():
                try:
                    work()
                except Exception:  # repro: allow[exc] best-effort teardown
                    pass
            """,
        )


# ----------------------------------------------------------------------
# THR001 — thread hygiene
# ----------------------------------------------------------------------
class TestThreadHygiene:
    rule = ThreadHygieneRule()

    def test_unjoined_nondaemon_thread_fires(self):
        violations = check(
            self.rule,
            """
            import threading

            def launch(fn):
                worker = threading.Thread(target=fn)
                worker.start()
                return worker
            """,
        )
        assert len(violations) == 1
        assert "neither daemon=True nor" in violations[0].message

    def test_daemon_thread_is_quiet(self):
        assert not check(
            self.rule,
            """
            import threading

            def launch(fn):
                worker = threading.Thread(target=fn, daemon=True)
                worker.start()
                return worker
            """,
        )

    def test_joined_thread_is_quiet(self):
        assert not check(
            self.rule,
            """
            import threading

            def run(fn):
                worker = threading.Thread(target=fn)
                worker.start()
                worker.join()
            """,
        )

    def test_fire_and_forget_construction_fires(self):
        violations = check(
            self.rule,
            """
            import threading

            def launch(fn):
                threading.Thread(target=fn).start()
            """,
        )
        assert len(violations) == 1
        assert "fire-and-forget" in violations[0].message

    def test_pragma_suppresses(self):
        assert not check(
            self.rule,
            """
            import threading

            def launch(fn):
                # repro: allow[thread] joined by the caller
                worker = threading.Thread(target=fn)
                worker.start()
                return worker
            """,
        )


# ----------------------------------------------------------------------
# Registry sanity
# ----------------------------------------------------------------------
def test_rule_registry_codes_are_unique_and_selectable():
    codes = [rule.code for rule in ALL_RULES]
    assert len(codes) == len(set(codes))
    assert len(codes) == 5
    selected = select_rules(["lck001", "DET001"])
    assert [rule.code for rule in selected] == ["LCK001", "DET001"]
    with pytest.raises(ValueError):
        select_rules(["NOPE999"])


def test_default_rules_exclude_docs_checker():
    # The docs contracts are tools/check_docs.py's, run by its own CI job
    # and tests/test_docs.py; every lint rule is a per-module AST rule.
    assert "DOC001" not in {rule.code for rule in ALL_RULES}


def test_rules_are_quiet_on_the_repo_itself():
    """The committed tree carries zero un-pragma'd violations (empty baseline)."""
    sources, parse_errors = collect_sources(["src/repro"], root=REPO_ROOT)
    assert not parse_errors
    violations = run_rules(ALL_RULES, sources)
    assert violations == [], [v.format() for v in violations]
