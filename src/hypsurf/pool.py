"""One pool of worker threads for the sample block loops.

The frontier blocks of the word table (`groups`), the angle sectors of a
large `disk.circle_net`, the render blocks of a sample's text (`text`) and
the row blocks of `words.substitute_rows` and `groups.attracting_angles`
are independent and spend their time in numpy calls that release the
interpreter lock, so `ordered_map` runs them on one worker thread per CPU
this process may use, and the last one on the caller's thread.  Their
results come back in input order, so the output does not depend on the
number of workers.

The pool is made on first use by a loop of more than one item: importing
this module starts no thread and does not import `concurrent.futures`.
There is no option for the number of workers; a host with one CPU runs
the same path on one worker.

No function that perfbench's tracer wraps (`perfbench/tracing.py`,
`TRACED`) runs on a worker thread: the tasks are nested functions of
`groups`, `text`, `words.substitute_rows` and `disk.circle_net`, and
`disk._sector_net`, `groups._attracting_block` and `words._reduce_stream`.
The tracer's self times assume that spans never overlap.
"""

from __future__ import annotations

import functools
import os
from collections import deque
from typing import Callable, Iterator, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


@functools.cache
def _pool():
    """The shared executor and its number of workers."""
    from concurrent.futures import ThreadPoolExecutor

    workers = len(os.sched_getaffinity(0))
    return ThreadPoolExecutor(workers, thread_name_prefix="hypsurf"), workers


def ordered_map(fn: Callable[[T], R], items: Sequence[T]) -> Iterator[R]:
    """fn of each item, yielded in input order: all items but the last run
    on the pool, and the last on the caller's thread while the pool
    finishes the others, so a single item never leaves the caller's thread
    and does not start the pool.

    At most workers + 1 items are running or done and not yet yielded.  If
    a task raises, its own exception reaches the caller; then, or when the
    caller stops early, the tasks not yet started are cancelled and the
    running ones waited for, so none runs once this generator is closed.
    Call it from one thread at a time, never from inside a task.
    """
    if not items:
        return
    pending = deque()
    try:
        if len(items) > 1:
            pool, workers = _pool()
        for item in items[:-1]:
            pending.append(pool.submit(fn, item))
            if len(pending) > workers:
                yield pending.popleft().result()
        last = fn(items[-1])
        while pending:
            yield pending.popleft().result()
        yield last
    finally:
        for future in pending:
            future.cancel()
        if pending:
            from concurrent.futures import wait

            wait(pending)
