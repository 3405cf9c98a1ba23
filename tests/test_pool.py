"""The fork pool: results, errors and log records of one process running
the jobs in order, whatever the number of workers."""

import logging
import multiprocessing
import multiprocessing.process
import os
import time

import pytest

from bugloc import pool
from bugloc.errors import BugLocError

logger = logging.getLogger("bugloc.test_pool")


@pytest.fixture
def starts(monkeypatch):
    """Records every process start, and starts it."""
    started = []
    start = multiprocessing.process.BaseProcess.start
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        lambda process: started.append(process) or start(process))
    return started


def square_logged(job):
    logger.warning("job %d in %d", job, os.getpid())
    return job * job


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_results_and_records_come_in_job_order(workers, starts, caplog):
    with caplog.at_level(logging.WARNING, logger="bugloc"):
        results = pool.run(range(7), square_logged, workers, str)
    assert results == [job * job for job in range(7)]
    assert len(starts) == workers - 1
    messages = [r.getMessage().rsplit(" in ", 1) for r in caplog.records
                if r.name == logger.name]
    assert [int(job[len("job "):]) for job, _ in messages] == list(range(7))
    # job 0 runs in the caller, and each record names the process that ran it
    assert messages[0][1] == str(os.getpid())
    assert [str(r.process) for r in caplog.records if r.name == logger.name] == [
        pid for _, pid in messages]
    assert multiprocessing.active_children() == []


def test_first_error_in_job_order_is_raised_after_the_records_before_it(caplog):
    def fn(job):
        logger.warning("job %d", job)
        if job in (3, 5):
            raise KeyError(f"job {job}")
        return job

    for workers in (1, 2):
        caplog.clear()
        with pytest.raises(KeyError) as info, caplog.at_level(logging.WARNING,
                                                                logger="bugloc"):
            pool.run(range(8), fn, workers, str)
        assert info.value.args == ("job 3",)
        assert [r.getMessage() for r in caplog.records if r.name == logger.name] == [
            f"job {job}" for job in range(4)]
        assert multiprocessing.active_children() == []


def test_job_of_a_child_that_exits_without_reporting_is_lost():
    caller, exited = os.getpid(), []

    def fn(job):
        if os.getpid() != caller:  # job 1, in the child: it dies before it reports
            os._exit(3)
        for _ in range(1000):  # job 0, in the caller: until the child is gone
            if not multiprocessing.active_children():
                break
            time.sleep(0.01)
        return job

    with pytest.raises(BugLocError) as info:
        pool.run([0, 1], fn, 2, lambda job: f"job {job} lost", exited.append)
    assert str(info.value) == "job 1 lost"
    assert len(exited) == 1 and exited[0] != caller
    assert multiprocessing.active_children() == []


def test_one_worker_runs_in_process(starts):
    assert pool.run(["a", "b"], str.upper, 1, str) == ["A", "B"]
    assert pool.run(["a"], str.upper, 4, str) == ["A"]  # one job: one worker
    assert starts == []


def test_cpu_count_falls_back_without_affinity(monkeypatch):
    assert pool.cpu_count() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert pool.cpu_count() == 3
