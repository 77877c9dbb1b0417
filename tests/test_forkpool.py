"""The fork pool on its own: answers in job order, a free worker takes the
next job, a job's exception at its place, and no worker left after any
way out of ``map_jobs``."""

import errno
import os
import select
import time

import helpers
import pytest

from bioctl import forkpool


def _squares(n, workers=2):
    return list(forkpool.map_jobs(lambda i: i * i, n, workers))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_answers_come_in_job_order(workers):
    assert _squares(20, workers) == [i * i for i in range(20)]
    helpers.assert_no_child_processes()


def test_a_job_runs_in_this_process_with_one_worker_or_no_fork(monkeypatch):
    here = os.getpid()
    assert list(forkpool.map_jobs(lambda i: os.getpid(), 3, 1)) == [here] * 3
    monkeypatch.delattr(os, "fork")
    assert list(forkpool.map_jobs(lambda i: os.getpid(), 3, 2)) == [here] * 3


def test_a_free_worker_takes_the_next_job():
    # job 0 holds its worker until job 3 has run, so the three jobs sent
    # with it can only go to the other worker
    done, signal_done = os.pipe()

    def job(i):
        if i == 0:
            select.select([done], [], [], 60)
        if i == 3:
            os.write(signal_done, b"3")
        return os.getpid()

    try:
        pids = list(forkpool.map_jobs(job, 4, 2))
    finally:
        os.close(done)
        os.close(signal_done)
    assert os.getpid() not in pids
    assert pids[0] not in pids[1:] and len(set(pids[1:])) == 1
    helpers.assert_no_child_processes()


def test_a_job_exception_is_raised_at_its_place():
    def job(i):
        if i == 5:
            raise KeyError("planted in job 5")
        return i

    answers = forkpool.map_jobs(job, 12, 2)
    assert [next(answers) for _ in range(5)] == [0, 1, 2, 3, 4]
    with pytest.raises(KeyError, match="planted in job 5"):
        next(answers)
    helpers.assert_no_child_processes()


def test_closing_early_stops_the_workers():
    def job(i):
        if i >= 2:
            time.sleep(60)
        return i

    answers = forkpool.map_jobs(job, 10, 2)
    assert [next(answers), next(answers)] == [0, 1]
    start = time.monotonic()
    answers.close()
    assert time.monotonic() - start < 10
    helpers.assert_no_child_processes()


def test_a_dead_worker_breaks_the_pool():
    def job(i):
        if i == 3:
            os._exit(3)
        return i

    with pytest.raises(forkpool.PoolBroken, match="a worker process died"):
        list(forkpool.map_jobs(job, 8, 2))
    helpers.assert_no_child_processes()


def test_a_failed_fork_breaks_the_pool_and_reaps_the_started_workers(monkeypatch):
    real_fork, forks = os.fork, []

    def second_fork_fails():
        if forks:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        forks.append(real_fork())
        return forks[-1]

    monkeypatch.setattr(os, "fork", second_fork_fails)
    with pytest.raises(forkpool.PoolBroken, match="cannot start a worker process"):
        _squares(4)
    assert len(forks) == 1
    helpers.assert_no_child_processes()
