"""A fork-join map: `fork_map(fn, items, jobs)` evaluates fn on every item in
forked worker processes and returns the outcomes in item order.

The workers inherit `fn` and `items` from the fork, so nothing is sent to
them, and each sends back one pickled message; outcomes must pickle.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import InvalidInputError

__all__ = ["fork_map", "resolve_jobs"]


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: `jobs`, or by default the CPUs this process may run on."""
    if jobs is None:
        affinity = getattr(os, "sched_getaffinity", None)
        return len(affinity(0)) if affinity else (os.cpu_count() or 1)
    if jobs < 1:
        raise InvalidInputError(f"need jobs >= 1, got {jobs}")
    return jobs


# True in a forked worker, so that a nested fork_map stays in process.
_IN_WORKER = False


class _Raised(NamedTuple):
    """An exception that fn raised on an item in a worker."""

    exc: BaseException
    trace: str  # the worker's formatted traceback


def _keep_worker_heap() -> None:
    """Keep freed row blocks in this process's heap; a no-op without glibc's mallopt.

    With both thresholds raised, the row-block temporaries a worker frees are
    reused for its next block instead of being unmapped and faulted in again.
    Raising only one of them turns off glibc's dynamic threshold and faults
    more, not less.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


def _work(fn: Callable, items: Sequence, counter, lock, pipe: Tuple[int, int], sigint) -> None:
    """Body of a forked worker: put back the SIGINT handler `sigint`, claim
    items until none is left, send one message, exit."""
    global _IN_WORKER
    code = 1
    try:
        import pickle
        import signal
        import traceback

        signal.signal(signal.SIGINT, sigint)
        os.close(pipe[0])
        _IN_WORKER = True
        _keep_worker_heap()
        done = []
        while True:
            with lock:
                j = counter.value
                counter.value = j + 1
            if j >= len(items):
                break
            try:
                done.append((j, fn(items[j])))
            except Exception as exc:
                done.append((j, _Raised(exc, traceback.format_exc())))
        with os.fdopen(pipe[1], "wb") as fh:
            fh.write(pickle.dumps(done, pickle.HIGHEST_PROTOCOL))
        code = 0
    except BaseException:
        import traceback

        traceback.print_exc()
    finally:
        os._exit(code)


def _fork_join(fn: Callable, items: Sequence, workers: int, ctx) -> list:
    """Outcomes of fn on `items` in order, from `workers` children forked from this process.

    The children inherit fn and the items, claim item indices from a shared
    counter and each write one pickled list of (index, outcome) to its own
    pipe.  This process never calls fn and never tunes its own allocator.
    However this function exits, every child still running is killed, and
    every child is reaped.

    A SIGINT that arrives while os.fork runs its at-fork hooks would be
    raised inside a hook, where Python only reports it and the run goes on.
    So each fork runs under a SIGINT handler that only records the signal.
    The child puts the previous handler back before it starts work; this
    process puts it back once the child is in `pids`, then acts on a
    recorded signal as that handler would have.
    """
    import pickle
    import select
    import signal

    counter = ctx.RawValue("q", 0)
    lock = ctx.Lock()
    pids: Dict[int, int] = {}  # read end of a child's pipe -> its pid, until reaped
    try:
        for _ in range(workers):
            pipe = os.pipe()
            held = []
            prev = signal.signal(signal.SIGINT, lambda signum, frame: held.append(signum))
            try:
                pid = os.fork()
                if pid == 0:
                    _work(fn, items, counter, lock, pipe, prev)
                pids[pipe[0]] = pid
            except BaseException:
                os.close(pipe[0])
                raise
            finally:
                os.close(pipe[1])
                signal.signal(signal.SIGINT, prev)
            if held and prev == signal.SIG_DFL:
                os.kill(os.getpid(), signal.SIGINT)
            elif held and callable(prev):
                prev(signal.SIGINT, None)
        chunks: Dict[int, List[bytes]] = {r: [] for r in pids}
        poller = select.poll()
        for r in pids:
            poller.register(r, select.POLLIN)
        while pids:
            for r, _ in poller.poll():
                data = os.read(r, 1 << 20)
                if data:
                    chunks[r].append(data)
                    continue
                poller.unregister(r)
                status = os.waitstatus_to_exitcode(os.waitpid(pids[r], 0)[1])
                del pids[r]
                os.close(r)
                if status:
                    raise RuntimeError(f"a worker exited with status {status}")
    finally:
        for r, pid in pids.items():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
            os.close(r)
    outcomes = [None] * len(items)
    for parts in chunks.values():
        for j, out in pickle.loads(b"".join(parts)):
            outcomes[j] = out
    return outcomes


def fork_map(fn: Callable, items: Sequence, jobs: int) -> list:
    """[fn(item) for item in items], on min(jobs, len(items)) forked workers.

    Runs in this process with one worker, inside a worker, without the
    fork start method, or while other threads run (a fork could copy a
    lock one of them holds).  An exception that fn raises propagates; the
    first in item order wins, as in process, with the worker's traceback as
    its cause.  A worker that dies raises RuntimeError naming its exit
    status (minus the signal number for a signal).
    """
    workers = min(jobs, len(items))
    if workers > 1 and not _IN_WORKER and threading.active_count() == 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            outcomes = _fork_join(fn, items, workers, multiprocessing.get_context("fork"))
            for out in outcomes:
                if isinstance(out, _Raised):
                    raise out.exc from RuntimeError(f"in a worker:\n{out.trace}")
            return outcomes
    return [fn(item) for item in items]
