"""The one batch runner: the calling thread and up to ``width - 1`` helper
threads take jobs from one shared iterator."""
from __future__ import annotations

import threading
from typing import Callable, Sequence, TypeVar

J = TypeVar("J")
R = TypeVar("R")


def run_jobs(fn: Callable[[J], R], jobs: Sequence[J], width: int) -> list[R]:
    """``fn`` of every job, in job order.  At most ``max(1, width)`` jobs run
    at once, the calling thread being one of the workers, so a width of one
    starts no thread; no more workers start than there are jobs.  Once a job
    raises, no worker takes a new one; after every worker has stopped, the
    exception of the lowest-index failed job is raised.  Jobs are taken in
    order, so every job below it ran: this is the exception a serial loop
    would raise."""
    results: list = [None] * len(jobs)
    failures: dict[int, BaseException] = {}
    pending = enumerate(jobs)
    lock = threading.Lock()
    stop = False

    def work() -> None:
        nonlocal stop
        while True:
            with lock:
                item = None if stop else next(pending, None)
            if item is None:
                return
            index, job = item
            try:
                results[index] = fn(job)
            except BaseException as exc:  # re-raised by the caller below
                with lock:
                    failures[index] = exc
                    stop = True
                return

    helpers: list[threading.Thread] = []
    try:
        for _ in range(max(1, min(width, len(jobs))) - 1):
            helper = threading.Thread(target=work, daemon=True)
            helper.start()
            helpers.append(helper)
        work()
    finally:
        with lock:
            stop = True
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[min(failures)]
    return results
