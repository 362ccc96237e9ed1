"""parallel.fork_map on toy functions, independent of the registry."""

import os
import signal
import time

import pytest

from symcone.parallel import fork_map


def assert_no_child_left():
    """This process has no child, running or zombie."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("jobs", [1, 2])
def test_outcomes_in_item_order(jobs):
    items = list(range(7))

    def fn(x):
        time.sleep(0.01 * (len(items) - x))  # later items finish first
        return x * x, os.getpid()

    out = fork_map(fn, items, jobs)
    assert [v for v, _ in out] == [x * x for x in items]
    pids = {pid for _, pid in out}
    assert (pids == {os.getpid()}) if jobs == 1 else (os.getpid() not in pids)
    assert_no_child_left()


@pytest.mark.parametrize("jobs", [1, 2])
def test_first_exception_in_item_order_wins(jobs):
    def fn(x):
        if x == 1:
            time.sleep(0.2)  # let the later item raise first at jobs=2
        if x in (1, 3):
            raise ValueError(f"toy error at {x}")
        return x

    with pytest.raises(ValueError, match=r"^toy error at 1$") as info:
        fork_map(fn, list(range(5)), jobs)
    if jobs > 1:
        assert isinstance(info.value.__cause__, RuntimeError)
        assert "in fn" in str(info.value.__cause__)  # the worker's traceback
    assert_no_child_left()


def test_worker_killed_by_a_signal():
    parent = os.getpid()

    def fn(x):
        if os.getpid() != parent and x == 0:
            os.kill(os.getpid(), signal.SIGKILL)
        return x

    with pytest.raises(RuntimeError, match=f"exited with status {-signal.SIGKILL}$"):
        fork_map(fn, [0, 1, 2], 2)
    assert_no_child_left()


def test_nested_map_stays_in_its_worker():
    def inner(x):
        return os.getpid()

    def outer(x):
        return os.getpid(), fork_map(inner, [0, 1], 2)

    out = fork_map(outer, [0, 1], 2)
    assert all(inner_pids == [pid, pid] for pid, inner_pids in out)
    assert os.getpid() not in {pid for pid, _ in out}
    assert_no_child_left()


def test_no_items():
    assert fork_map(lambda x: x, [], 2) == []
