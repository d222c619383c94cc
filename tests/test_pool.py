"""`pool.ordered_map`: input order, a bounded number of items in flight,
the task's own error, no task left running, a lazy pool, and the same
bytes from more workers than CPUs."""

import os
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from hypsurf import cli, disk, pool, text
from hypsurf.disk import DiskPoint
from hypsurf.errors import InvalidInput
from hypsurf.groups import SampleMode, limit_sample

SRC = Path(__file__).resolve().parent.parent / "src"


class Tasks:
    """Tasks that sleep a little, count how many run at once, and raise
    InvalidInput on the items in `fail`."""

    def __init__(self, fail=()):
        self.lock = threading.Lock()
        self.running = self.started = 0
        self.fail = set(fail)
        self.error = None

    def __call__(self, i):
        with self.lock:
            self.running += 1
            self.started += 1
        try:
            time.sleep(0.001 * (i % 3))
            if i in self.fail:
                self.error = InvalidInput(f"item {i}")
                raise self.error
            return i * i
        finally:
            with self.lock:
                self.running -= 1


def test_results_come_in_input_order(sized_pool):
    assert list(pool.ordered_map(Tasks(), range(40))) == [i * i for i in range(40)]
    assert list(pool.ordered_map(Tasks(), [])) == []


def test_at_most_workers_plus_one_items_are_in_flight(sized_pool):
    tasks = Tasks()
    for k, _ in enumerate(pool.ordered_map(tasks, range(30))):
        # items started and not yet yielded, the one yielded now included
        assert tasks.started - k <= sized_pool + 1
    assert tasks.started == 30


def test_a_single_item_runs_on_the_callers_thread(monkeypatch):
    monkeypatch.setattr(pool, "_pool", lambda: pytest.fail("one item started the pool"))
    assert list(pool.ordered_map(lambda _: threading.get_ident(), [7])) == \
        [threading.get_ident()]


def test_a_tasks_error_reaches_the_caller_and_no_task_outlives_the_call(sized_pool):
    tasks = Tasks(fail={4})
    with pytest.raises(InvalidInput) as raised:
        list(pool.ordered_map(tasks, range(100)))
    assert raised.value is tasks.error
    assert tasks.running == 0
    # the tasks not yet started were cancelled
    assert tasks.started <= 5 + sized_pool


def test_a_consumer_that_stops_early_leaves_no_task_running(sized_pool):
    tasks = Tasks()
    results = pool.ordered_map(tasks, range(100))
    assert next(results) == 0
    results.close()
    assert tasks.running == 0
    assert tasks.started <= 1 + sized_pool


def _process_cpus() -> int:
    # the rule of Python 3.13's os.process_cpu_count
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def test_the_default_pool_has_one_worker_per_available_cpu():
    executor, workers = pool._pool()
    assert workers == _process_cpus()
    assert list(pool.ordered_map(Tasks(), range(2 * workers + 3))) == \
        [i * i for i in range(2 * workers + 3)]


def test_importing_the_cli_starts_no_thread():
    code = textwrap.dedent("""
        import sys, threading
        before = threading.active_count()
        import hypsurf.cli
        print(threading.active_count() - before, "concurrent.futures" in sys.modules)
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True).stdout
    assert out.split() == ["0", "False"]


@pytest.mark.parametrize("sector_min", [None, 2048], ids=["one-sector", "sectors"])
def test_more_workers_than_cpus_switching_often_move_no_byte(monkeypatch, octagon, sector_min):
    # every worker reads the shared parent rows and the lazily built text
    # tables at once, and writes its frontier letters into the shared word
    # table; a torn read, a half-built table or a misplaced row would move
    # a byte.  With small sectors the net of the 39,248 endpoints runs in
    # 18 sectors, each reading the shared angles and word table
    # frontier blocks of 64 parents (448 rows) and render blocks of 448 rows
    monkeypatch.setattr(pool, "BLOCK_ROWS", 448)
    if sector_min is not None:
        monkeypatch.setattr(disk, "_SECTOR_MIN", sector_min)

    def render(workers: int) -> str:
        text._digit_tables.cache_clear()
        text._letter_ascii_table.cache_clear()
        with ThreadPoolExecutor(workers) as executor:
            monkeypatch.setattr(pool, "_pool", lambda: (executor, workers))
            s = limit_sample(octagon, DiskPoint(0), 5, SampleMode.AXIS_ENDPOINTS)
            return "".join(s.to_csv_rows())

    reference = render(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert render(_process_cpus() + 4) == reference
    finally:
        sys.setswitchinterval(interval)


def test_a_host_without_affinity_runs_on_every_cpu(monkeypatch, capsys):
    # macOS and Windows have no os.sched_getaffinity: the pool then takes
    # os.cpu_count(), and octagon n=6 (9 frontier blocks) moves no byte
    argv = ["limit-set", "--group", "octagon", "--n", "6"]
    assert cli.main(argv) == 0
    reference = capsys.readouterr().out
    assert reference.count("\n") > 10_000
    pool._pool()[0].shutdown()
    pool._pool.cache_clear()
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    try:
        assert cli.main(argv) == 0
        assert pool._pool()[1] == (os.cpu_count() or 1)
    finally:
        pool._pool()[0].shutdown()
        pool._pool.cache_clear()
    assert capsys.readouterr().out == reference
