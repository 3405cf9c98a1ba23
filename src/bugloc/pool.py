"""One fork pool for the jobs of a call: training its paragraph-vector models
and preprocessing a large benchmark.

:func:`run` runs a list of jobs on up to one worker per CPU this process may
use (:func:`cpu_count`, from ``os.sched_getaffinity``, so ``taskset`` limits
it): the caller and children forked from it. A child reads what it needs
from the memory it shares with the caller and sends back, per job, its
result or its error, with the records the package's loggers emitted while
it ran. Each worker takes the next job not yet taken, the caller job 0
first; once a job fails no worker takes another, so every job before it
runs. The caller then hands each job's records to its own logging and
returns every result, or raises the first error, both in job order. So a
call logs, returns and raises what running its jobs in order in one process
would, as long as no job reads what another writes. On one worker, or where
the platform cannot fork, the jobs run in order in process, and only a call
on two workers or more imports :mod:`multiprocessing`.

Every child is joined before :func:`run` returns or raises; on an error
outside a job, or an interrupt, each is terminated first. A child exits
when the caller terminates it, and on Linux also when the caller is killed;
elsewhere it finishes its current job first. Python 3.12+ warns when a
process with threads forks, and numpy's OpenBLAS keeps a pool of them;
OpenBLAS stops that pool in its ``pthread_atfork`` handler and starts it
again on demand, and the callers fork with no BLAS call under way, so the
warning is silenced for these forks.
"""

from __future__ import annotations

import contextlib
import ctypes
import logging
import os
import pickle
import signal
import sys
import warnings

from .errors import BugLocError

logger = logging.getLogger(__name__)


def cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fork_context():
    """:mod:`multiprocessing`'s fork context, or None on a platform without
    one. Only a call that runs jobs on several workers imports the module."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def _portable(exc: Exception) -> Exception:
    """``exc``, or a :class:`~bugloc.errors.BugLocError` naming its type and
    message where ``exc`` would not come through a pipe whole: where
    pickling or unpickling it fails."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return BugLocError(f"{type(exc).__name__}: {exc}")
    return exc


def _signal_when_orphaned(signum: int) -> None:
    """Have the kernel send this process ``signum`` once the thread that
    forked it is gone: Linux's ``PR_SET_PDEATHSIG``. Does nothing on a
    platform without ``prctl``."""
    try:
        ctypes.CDLL(None).prctl(1, signum)  # 1: PR_SET_PDEATHSIG
    except (AttributeError, OSError):
        pass


class _Kept(logging.Handler):
    """Appends each record it handles to ``records``, ready to pickle: its
    message formatted, as ``logging.handlers.QueueHandler`` prepares one,
    with no arguments, traceback or stack left to send."""

    def __init__(self, records: list):
        super().__init__()
        self.records = records

    def emit(self, record: logging.LogRecord) -> None:
        record.msg = record.message = self.format(record)
        record.args = record.exc_info = record.exc_text = record.stack_info = None
        self.records.append(record)


@contextlib.contextmanager
def _kept(records: list):
    """Keep the records of the package's loggers in ``records`` instead of
    handling them, for as long as the block runs."""
    package = logging.getLogger(__package__)
    saved = package.handlers, package.propagate
    package.handlers, package.propagate = [_Kept(records)], False
    try:
        yield
    finally:
        package.handlers, package.propagate = saved


def run(jobs, fn, workers: int, lost, exited=None) -> list:
    """``[fn(job) for job in jobs]``, run on up to ``workers`` processes at
    once (see the module docstring). Returns the results in job order, or
    raises the first error in job order; either way, what each job up to
    then logged is handled first, in job order.

    ``lost(job)`` is the message of the error raised for a job whose child
    exited without reporting on it. ``exited(pid)``, when given, is called
    for each child that exited with an error, once it is joined, to remove
    what it left half done."""
    jobs = list(jobs)
    workers = min(workers, len(jobs))
    context = _fork_context() if workers > 1 else None
    if context is None:
        return [fn(job) for job in jobs]
    logger.info("running %d jobs on %d processes", len(jobs), workers)
    results = []
    for job, outcome in zip(jobs, _forked(context, jobs, fn, workers, exited)):
        if outcome is None:  # no worker reported on it before the first failure
            raise BugLocError(lost(job))
        records, result, error = outcome
        for record in records:
            logging.getLogger(record.name).handle(record)
        if error is not None:
            raise error
        results.append(result)
    return results


def _forked(context, jobs: list, fn, workers: int, exited) -> list:
    """Run ``jobs`` on ``workers`` processes at once: this one and
    ``workers - 1`` children forked from it. Each takes the next job not yet
    taken, this process job 0 first; once a job fails no worker takes
    another. Returns per job its records, its result and its error (see
    :func:`_portable`), or None when no worker took it or one left it
    unreported. Every child is joined before this returns or raises; on an
    error outside a job, or an interrupt, each is terminated first. A child
    also exits once this process is gone: at once where the kernel signals
    it (Linux), else when its current job ends."""
    taken = context.Value("q", 1)  # jobs taken so far; len(jobs) once one failed
    caller = os.getpid()

    def take() -> int:
        with taken.get_lock():
            taken.value += 1
            return taken.value - 1

    def work(index: int, report) -> None:
        while index < len(jobs):
            records = []
            with _kept(records):
                try:
                    result, error = fn(jobs[index]), None
                except Exception as exc:  # the job's error, raised in job order
                    with taken.get_lock():
                        taken.value = len(jobs)
                    result, error = None, exc
            report(index, (records, result, error))
            index = take()

    def child(conn) -> None:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the caller's
        # terminated, or orphaned: exit through the job's own clean-up
        signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
        _signal_when_orphaned(signal.SIGTERM)
        if os.getppid() != caller:  # orphaned before the signal was set
            return

        def report(index: int, outcome) -> None:
            if os.getppid() != caller:  # orphaned, with no signal: take no other job
                sys.exit(1)
            records, result, error = outcome
            conn.send((index, (records, result, None if error is None else _portable(error))))

        work(take(), report)

    outcomes, children = [None] * len(jobs), []
    try:
        for _ in range(workers - 1):
            reader, writer = context.Pipe(duplex=False)
            process = context.Process(target=child, args=(writer,), daemon=True)
            with warnings.catch_warnings():
                # numpy's BLAS threads: see the module docstring
                warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                        DeprecationWarning)
                process.start()
            writer.close()
            children.append((process, reader))
        work(0, outcomes.__setitem__)
        for process, reader in children:
            with reader:
                while True:
                    try:
                        index, outcome = reader.recv()
                    except EOFError:  # the child is done and closed its end
                        break
                    outcomes[index] = outcome
            process.join()
    except BaseException:
        for process, _ in children:
            process.terminate()
        raise
    finally:
        for process, _ in children:
            process.join()
            if process.exitcode and exited is not None:
                exited(process.pid)
    return outcomes
