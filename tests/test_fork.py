import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from p2l import fork
from p2l.errors import BadSpec

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def alarm():
    """Fail a test that still waits after 20 s, instead of hanging the suite."""
    def timeout(signum, frame):
        raise TimeoutError("fork_map still waiting after 20 s")
    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(20)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def on_workers(monkeypatch, workers, fn, tasks, cost=lambda task: task):
    monkeypatch.setattr(fork, "worker_count", lambda: workers)
    return fork.fork_map(fn, tasks, cost)


class TestForkMap:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_results_keep_task_order(self, monkeypatch, alarm, workers):
        parent = os.getpid()
        tasks = [3, 9, 1, 7, 5, 2, 8]
        results = on_workers(monkeypatch, workers, lambda t: (t * t, os.getpid()), tasks)
        assert [r for r, _ in results] == [t * t for t in tasks]
        pids = {pid for _, pid in results}
        if workers == 1:
            assert pids == {parent}
        else:
            assert len(pids) == workers and parent not in pids
        assert_no_child_left()

    def test_one_task_runs_in_process(self, monkeypatch):
        assert on_workers(monkeypatch, 3, lambda t: os.getpid(), [1]) == [os.getpid()]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_task_exception_reraises_with_its_class_and_message(self, monkeypatch,
                                                                  alarm, workers):
        def task(t):
            if t == 7:
                raise BadSpec(f"cannot run task {t}")
            return t

        with pytest.raises(BadSpec) as raised:
            on_workers(monkeypatch, workers, task, [3, 9, 7, 1])
        assert type(raised.value) is BadSpec
        assert str(raised.value) == "cannot run task 7"
        assert_no_child_left()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_a_killed_worker_raises_instead_of_waiting(self, monkeypatch, alarm, workers):
        def task(t):
            if t == 7:
                os.kill(os.getpid(), signal.SIGKILL)
            return t

        with pytest.raises(ChildProcessError, match=r"exited with status -9$"):
            on_workers(monkeypatch, workers, task, [3, 9, 7, 1])
        assert_no_child_left()

    @pytest.mark.parametrize("failure", ["raise", "die"])
    def test_a_late_share_fails_while_the_first_blocks(self, monkeypatch, alarm, failure):
        """Every child's pipe is watched at once: the third share's failure is
        seen while the first still runs, which is then killed and reaped."""
        def short_alarm(signum, frame):
            raise TimeoutError("the third share's failure was not seen in 5 s")
        signal.signal(signal.SIGALRM, short_alarm)
        signal.alarm(5)

        def task(t):
            if t == 3:  # the largest cost: the first share
                signal.pause()
            if t == 1:  # the smallest: the third share
                if failure == "die":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise BadSpec("third share")
            return t

        expected = ((ChildProcessError, r"exited with status -9$") if failure == "die"
                    else (BadSpec, "^third share$"))
        with pytest.raises(expected[0], match=expected[1]):
            on_workers(monkeypatch, 3, task, [1, 2, 3])
        assert_no_child_left()

    def test_an_interrupted_map_kills_and_reaps_every_worker(self, monkeypatch, alarm):
        def interrupt(signum, frame):
            raise KeyboardInterrupt
        signal.signal(signal.SIGALRM, interrupt)
        signal.setitimer(signal.ITIMER_REAL, 0.5)  # a fork does not inherit it
        with pytest.raises(KeyboardInterrupt):
            on_workers(monkeypatch, 3, lambda t: signal.pause(), [1, 2, 3])
        assert_no_child_left()


def test_simulate_does_not_import_multiprocessing(tmp_path):
    code = ("import sys\n"
            "from p2l.cli import main\n"
            "assert main(['simulate', '--seed', '1', '--sources', '3', '--targets', '2',"
            " '--epochs', '1', '--out', 'sim']) == 0\n"
            "print('multiprocessing' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
    assert (tmp_path / "sim" / "summary.txt").is_file()
