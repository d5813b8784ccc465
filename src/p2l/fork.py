"""A map over independent tasks on forked children, one per usable CPU. fn
reaches the children through fork, so it is never pickled and may close over
anything; results, or the exception raised, come back pickled through a pipe."""
from __future__ import annotations

import os
import pickle
import select
import threading
from typing import Callable, Sequence


def worker_count() -> int:
    """One worker per CPU in the affinity mask; 1 where the platform has no
    mask or the caller runs other Python threads, which fork would not copy."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None or threading.active_count() > 1:
        return 1
    return len(affinity(0))


def fork_map(fn: Callable, tasks: Sequence, cost: Callable[..., int]) -> list:
    """[fn(task) for task in tasks] on a forked child per share of tasks, or in-process
    for one worker or task. Tasks go largest cost first to the least-loaded of
    worker_count() shares. Every child's pipe is waited on at once, so the first
    child to fail is seen as it fails: its exception re-raises here, and a child
    that dies unanswered raises ChildProcessError with its exit status. All are
    reaped."""
    workers = min(worker_count(), len(tasks))
    if workers <= 1:
        return [fn(task) for task in tasks]
    shares, loads = [[] for _ in range(workers)], [0] * workers
    for i in sorted(range(len(tasks)), key=lambda i: -cost(tasks[i])):
        least = loads.index(min(loads))
        shares[least].append(i)
        loads[least] += cost(tasks[i])
    fds, pids, answers, results = [], {}, {}, {}  # pids and answers by the pipe's read end
    try:
        for share in shares:
            r, w = os.pipe()
            fds.append(r)
            with os.fdopen(w, "wb") as pipe:  # closed here, so a dead child reads as EOF
                if (pid := os.fork()) == 0:
                    _child(fn, [tasks[i] for i in share], pipe)
            pids[r], answers[r] = pid, []
        poller = select.poll()
        for r in fds:
            poller.register(r, select.POLLIN)
        while pids:
            for r, _ in poller.poll():
                if data := os.read(r, 1 << 20):
                    answers[r].append(data)
                    continue
                poller.unregister(r)  # EOF: the child has answered, or died
                code = os.waitstatus_to_exitcode(os.waitpid(pids[r], 0)[1])
                pid = pids.pop(r)
                if code != 0:
                    raise ChildProcessError(f"forked worker {pid} exited with status {code}")
                ok, out = pickle.loads(b"".join(answers[r]))
                if not ok:
                    raise out
                results.update(zip(shares[fds.index(r)], out))
    finally:
        for r in fds:
            os.close(r)
        for pid in pids.values():
            os.kill(pid, 9)  # SIGKILL, without the ~1 ms import of the signal module
            os.waitpid(pid, 0)
    return [results[i] for i in range(len(tasks))]


def _child(fn: Callable, tasks: list, pipe) -> None:
    """Send fn over tasks, or what it raised, then leave without exit handlers."""
    try:
        try:
            answer = (True, [fn(task) for task in tasks])
        except BaseException as exc:
            answer = (False, exc)
        pickle.dump(answer, pipe)
        pipe.flush()
        os._exit(0)
    finally:
        os._exit(1)
