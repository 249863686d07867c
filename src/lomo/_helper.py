"""One forked helper process, for work that can run beside this one.

``data.load_dataset`` reads the back part of a large manifest on it, and
``training.train`` computes its objective trace on it. Both start and stop
the helper through ``helper_process``, which holds the one rule for when a
helper may run at all; each caller adds its own rule for when the work is
large enough to earn the fork.
"""

from __future__ import annotations

import contextlib
import os
import signal


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@contextlib.contextmanager
def helper_process(target, *args):
    """Run ``target(*args)`` on one forked helper while the block runs.

    Yields the started process, or None when this process must do the work
    alone: on fewer than two usable CPUs, where ``fork`` does not exist, in
    a daemonic ``multiprocessing`` worker (which may start no process), or
    when the fork fails. The helper ignores SIGINT, since an interrupt is
    this process's to handle, and keeps SIGTERM's default action. Leaving
    the block, by return, exception or interrupt, terminates and joins it,
    so no helper outlives the block.
    """
    process = None
    if _usable_cpus() >= 2:
        import multiprocessing

        if ("fork" in multiprocessing.get_all_start_methods()
                and not multiprocessing.current_process().daemon):
            process = multiprocessing.get_context("fork").Process(target=_run, args=(target, args))
            try:
                process.start()
            except OSError:  # no process to spare: the caller does the work itself
                process = None
    try:
        yield process
    finally:
        if process is not None:
            process.terminate()
            process.join()


def _run(target, args) -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the parent's to handle
    signal.signal(signal.SIGTERM, signal.SIG_DFL)  # so that terminate() always ends it
    target(*args)
