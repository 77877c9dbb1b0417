"""A pool of forked worker processes for the jobs of one command.

``map_jobs(job, n_jobs, workers)`` yields job(i) for i in 0..n_jobs-1, in
that order.  The workers are bare ``os.fork`` children of this process:
each inherits ``job`` and everything it reads, so only job indices go out
to the workers and only pickled results come back.  There is no import of
``multiprocessing`` or ``concurrent.futures`` and no helper thread: a
pool costs one task pipe, and a fork and an answer pipe a worker.

The workers take indices from one shared task pipe, so a free worker takes
the next job (full-engine jobs are heavy-tailed, and fixed striping would
idle a core), and each answers on a pipe of its own.  At most two jobs a
worker are sent and not yet yielded, so the answers held here do not grow
with the job count.  A job's exception is pickled back and raised here at
the job's place in the order.  A worker that dies, or a fork or pipe that
fails, raises ``PoolBroken``.

A worker never flushes this process's stdio buffers or runs its
``atexit`` handlers: it leaves through ``os._exit`` or is killed.  When
``map_jobs`` returns or raises, whether the jobs ran out, one raised, the
generator was closed early or the process was interrupted, every worker
is killed and reaped, so none outlives it.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import struct

from .kernels import ConfigError

__all__ = ["PoolBroken", "map_jobs", "thread_count"]

#: an answer's header: the job index and the size of the pickled answer
_HEAD = struct.Struct("<QQ")
#: a job index on the task pipe; a write of a few is atomic (under
#: PIPE_BUF), so every read of this size gets one whole index
_INDEX = struct.Struct("<Q")


class PoolBroken(RuntimeError):
    """A worker process died, or one could not be started."""


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (a container can report the host's CPUs in ``os.cpu_count``)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def thread_count() -> int:
    """Worker processes for the jobs of a command: BIOCTL_THREADS (default
    4), capped at the usable CPUs.  Callers read it before they open their
    output, so a bad value leaves an old file alone."""
    env = os.environ.get("BIOCTL_THREADS", "").strip() or "4"
    if not env.isdecimal() or int(env) < 1:
        raise ConfigError(f"BIOCTL_THREADS must be a positive integer, got {env!r}")
    return min(int(env), _usable_cpus())


def map_jobs(job, n_jobs: int, workers: int):
    """job(i) for i in range(n_jobs), yielded in order.

    Up to `workers` forked processes run the jobs (``thread_count``
    sizes them); with one worker, one job or no os.fork the jobs run in
    this process.  Call it with no other thread running: a forked child
    gets only the thread that forked.  Closing the generator early stops
    the workers.
    """
    workers = min(workers, n_jobs)
    if workers <= 1 or not hasattr(os, "fork"):
        for i in range(n_jobs):
            yield job(i)
        return
    pool = _Workers()
    try:
        pool.start(job, workers)
        yield from pool.answers(n_jobs)
    finally:
        pool.close()


class _Workers:
    """Forked workers: one shared task pipe out, one answer pipe each back."""

    def __init__(self):
        self.pids, self.inbox, self.tasks = [], [], None

    def start(self, job, n: int) -> None:
        try:
            take, self.tasks = os.pipe()
            try:
                for _ in range(n):
                    self._fork(job, take)
            finally:
                os.close(take)
        except OSError as e:
            raise PoolBroken(f"cannot start a worker process ({e})") from e

    def _fork(self, job, take) -> None:
        read, write = os.pipe()
        self.inbox.append(read)
        try:
            pid = os.fork()
            if pid == 0:
                _serve(job, take, write, [self.tasks, *self.inbox])
        finally:
            os.close(write)
        self.pids.append(pid)

    def answers(self, n_jobs: int):
        """The jobs' results in index order."""
        window = 2 * len(self.pids)
        self._send(range(min(window, n_jobs)))
        poller = select.poll()
        for fd in self.inbox:
            poller.register(fd, select.POLLIN)
        ready = {}
        for i in range(n_jobs):
            while i not in ready:
                for fd, _ in poller.poll():
                    index, answer = _receive(fd)
                    ready[index] = answer
            if i + window < n_jobs:
                self._send(range(i + window, i + window + 1))
            ok, value = ready.pop(i)
            if not ok:
                raise value
            yield value

    def _send(self, indices: range) -> None:
        os.write(self.tasks, b"".join(map(_INDEX.pack, indices)))

    def close(self) -> None:
        """End the task pipe, then kill and reap every worker: whatever
        work is left (an early close, an error) is not wanted."""
        if self.tasks is not None:
            os.close(self.tasks)
            self.tasks = None
        for pid in self.pids:
            os.kill(pid, signal.SIGKILL)
        while self.pids:
            os.waitpid(self.pids[-1], 0)
            self.pids.pop()
        while self.inbox:
            os.close(self.inbox.pop())


def _serve(job, take, answer, inherited) -> None:
    """A worker's life: answer the job of every index read from `take`,
    then leave through os._exit at the end of the task pipe, or on any
    error outside a job."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        while len(index := os.read(take, _INDEX.size)) == _INDEX.size:
            i, = _INDEX.unpack(index)
            try:
                data = pickle.dumps((True, job(i)), pickle.HIGHEST_PROTOCOL)
            except Exception as e:
                data = pickle.dumps((False, e), pickle.HIGHEST_PROTOCOL)
            _write_all(answer, _HEAD.pack(i, len(data)))
            _write_all(answer, data)
        code = 0
    finally:
        os._exit(code)


def _write_all(fd, data) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _read_all(fd, size: int) -> bytearray:
    buf = bytearray(size)
    view, got = memoryview(buf), 0
    while got < size:
        n = os.readv(fd, [view[got:]])
        if not n:
            raise PoolBroken("a worker process died")
        got += n
    return buf


def _receive(fd):
    """(job index, (ok, result or exception)) of the next answer on fd."""
    index, size = _HEAD.unpack(_read_all(fd, _HEAD.size))
    return index, pickle.loads(_read_all(fd, size))
