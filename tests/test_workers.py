"""`segci simulate` on several CPUs: the same bytes, the same errors, no process left.

A :class:`~segci.simulate.SimulatedRows` of two batches or more is drawn in
contiguous parts, the first in this process and each other in a worker forked
for it. These tests set the usable-CPU count, so that they fork on any machine,
and count the forks, so that a run cannot pass by drawing in one process.
"""

import hashlib
import os
import signal
import tempfile
import threading

import pytest

from segci import BetaFamily, SimSpec, SimulatedRows, generate_results, parse_family
from segci import io as sio
from segci.cli import main
from segci.simulate import _BATCH
from test_cli import SIMULATE_PINS, run
from test_imports import run_fresh

CPU_COUNTS = [1, 2, 3]
MANY = 10**6  # more CPUs than any run here has batches

# argv of runs beyond the pins -> their spec: an --exclude run whose parts begin
# inside groups, and one group of more than two batches, split inside batches
SPLIT_RUNS = {
    "exclude": (["--tasks", "3", "--methods", "4", "--cases", "100", "--family", "beta:3,0.4",
                 "--exclude", "0:1,2:3", "--seed", "5"],
                SimSpec(3, 4, 100, parse_family("beta:3,0.4"), 5, ((0, 1), (2, 3)))),
    "one_group": (["--tasks", "1", "--methods", "1", "--cases", "1000", "--family", "beta:0.5,0.7",
                   "--seed", "8"],
                  SimSpec(1, 1, 1000, parse_family("beta:0.5,0.7"), 8)),
}


def digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def forks(monkeypatch):
    """The pids of the workers that os.fork made; the usable-CPU count is set by ``cpus``."""
    made, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return made


@pytest.fixture
def cpus(monkeypatch):
    def use(count: int) -> None:
        monkeypatch.setattr(sio, "_usable_cpus", lambda: count)

    return use


def workers(n_rows: int, count: int) -> int:
    """The worker processes that a run of ``n_rows`` forks on ``count`` CPUs."""
    return max(1, min(count, n_rows // _BATCH)) - 1


def assert_no_child() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("count", CPU_COUNTS)
@pytest.mark.parametrize("argv, want", list(SIMULATE_PINS.values()), ids=list(SIMULATE_PINS))
def test_pins_hold_on_any_cpu_count(capsys, tmp_path, forks, cpus, argv, want, count):
    cpus(count)
    out = tmp_path / "cases.csv"
    code, stdout, _ = run(capsys, "simulate", "--output", str(out), *argv)
    assert code == 0
    assert digest(out) == want
    n_rows = int(stdout.split()[1])
    assert len(forks) == workers(n_rows, count)
    assert_no_child()


@pytest.mark.parametrize("count", [*CPU_COUNTS, MANY])
@pytest.mark.parametrize("argv, spec", list(SPLIT_RUNS.values()), ids=list(SPLIT_RUNS))
def test_split_runs_are_generate_results(capsys, tmp_path, forks, cpus, argv, spec, count):
    # the rows of generate_results, written from a list, which never forks
    want = tmp_path / "want.csv"
    sio.write_per_case_csv(generate_results(spec), want)
    assert forks == []
    cpus(count)
    out = tmp_path / "cases.csv"
    assert run(capsys, "simulate", "--output", str(out), *argv)[0] == 0
    assert out.read_bytes() == want.read_bytes()
    assert len(forks) == workers(len(SimulatedRows(spec)), count)
    assert_no_child()


def test_the_beta_pin_with_more_cpus_than_batches(capsys, tmp_path, forks, cpus):
    # 1200 rows, four batches: four processes, each drawing one part
    argv, want = SIMULATE_PINS["beta_0.5_0.7_300_cases"]
    cpus(MANY)
    out = tmp_path / "cases.csv"
    assert run(capsys, "simulate", "--output", str(out), *argv)[0] == 0
    assert digest(out) == want
    assert len(forks) == 3
    assert_no_child()


def test_split_parts_are_the_rows():
    spec = SimSpec(3, 4, 100, BetaFamily(2.0, 5.0), 5, ((0, 1), (2, 3)))
    rows = SimulatedRows(spec)
    for k in (1, 2, 3, 4, MANY):
        parts = rows._split(k)
        assert len(parts) == min(k, len(rows) // _BATCH)
        assert [len(p) for p in parts] == [len(list(p)) for p in parts]
        assert [row for part in parts for row in part] == generate_results(spec)


def test_small_run_is_one_part():
    rows = SimulatedRows(SimSpec(1, 1, 2 * _BATCH - 1))
    assert len(rows._split(MANY)) == 1
    assert len(SimulatedRows(SimSpec(1, 1, 2 * _BATCH))._split(MANY)) == 2


def test_library_calls_do_not_fork(tmp_path, forks, cpus):
    cpus(4)
    spec = SimSpec(cases_per_task=30)
    rows = generate_results(spec)
    assert list(SimulatedRows(spec)) == rows
    sio.write_per_case_csv(rows, tmp_path / "cases.csv")
    assert forks == []


def test_another_thread_keeps_one_process(capsys, tmp_path, forks, cpus):
    # a forked child holds only the thread that forked it
    cpus(4)
    argv, want = SIMULATE_PINS["default"]
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        out = tmp_path / "cases.csv"
        assert run(capsys, "simulate", "--output", str(out), *argv)[0] == 0
    finally:
        stop.set()
        thread.join()
    assert digest(out) == want
    assert forks == []


def failing_at(monkeypatch, spec: SimSpec, row: int, fail) -> None:
    """Make the Beta sampler call ``fail()`` when it draws row ``row`` of ``spec``."""
    target, sampler = generate_results(spec)[row].dsc, BetaFamily.sampler

    def patched(self):
        draw = sampler(self)

        def checked(word):
            dsc = draw(word)
            if dsc == target:
                fail()
            return dsc

        return checked

    monkeypatch.setattr(BetaFamily, "sampler", patched)


# 3 tasks of 4 methods and 100 cases: rows 0..599 are this process's on two CPUs
ERROR_ARGV = ["--tasks", "3", "--methods", "4", "--cases", "100", "--family", "beta:8,2",
              "--seed", "3"]
ERROR_SPEC = SimSpec(3, 4, 100, BetaFamily(8.0, 2.0), 3)


def raising(exc):
    def fail():
        raise exc

    return fail


@pytest.mark.parametrize("row", [10, 900], ids=["this_process", "worker"])
@pytest.mark.parametrize("exc, code", [(ArithmeticError("no draw"), 1),
                                       (OSError(28, "No space left on device"), 2)],
                         ids=["arithmetic", "os"])
def test_error_is_the_one_process_error(capsys, tmp_path, monkeypatch, forks, cpus,
                                        row, exc, code):
    failing_at(monkeypatch, ERROR_SPEC, row, raising(exc))
    out = tmp_path / "cases.csv"
    results = []
    for count in (1, 2):
        cpus(count)
        results.append(run(capsys, "simulate", "--output", str(out), *ERROR_ARGV))
        assert not out.exists()
        assert_no_child()
    assert len(forks) == 1
    assert results[0] == results[1] == (code, "", f"error: {exc}\n")


def test_error_leaves_no_temporary_file(capsys, tmp_path, monkeypatch, forks, cpus):
    # TemporaryFile unlinks its file at once; every descriptor is closed too
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    failing_at(monkeypatch, ERROR_SPEC, 900, raising(ArithmeticError("no draw")))
    cpus(3)
    fds = sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    assert run(capsys, "simulate", "--output", str(tmp_path / "cases.csv"), *ERROR_ARGV)[0] == 1
    assert len(forks) == 2
    assert list(temp.iterdir()) == []
    if fds is not None:
        assert sorted(os.listdir("/proc/self/fd")) == fds


def test_killed_worker_is_a_data_error(capsys, tmp_path, monkeypatch, forks, cpus):
    parent = os.getpid()

    def kill():
        if os.getpid() != parent:  # in the worker
            os.kill(os.getpid(), signal.SIGKILL)

    failing_at(monkeypatch, ERROR_SPEC, 900, kill)
    cpus(2)
    out = tmp_path / "cases.csv"
    code, stdout, err = run(capsys, "simulate", "--output", str(out), *ERROR_ARGV)
    assert (code, stdout) == (2, "")
    assert err == f"error: a simulate worker process ended with status {-signal.SIGKILL}\n"
    assert not out.exists()
    assert_no_child()


def test_interrupt_kills_and_reaps_every_worker(capsys, tmp_path, monkeypatch, forks, cpus):
    # this process is interrupted at its first row, while the workers still draw
    failing_at(monkeypatch, ERROR_SPEC, 0, raising(KeyboardInterrupt()))
    cpus(3)
    out = tmp_path / "cases.csv"
    with pytest.raises(KeyboardInterrupt):
        main(["simulate", "--output", str(out), *ERROR_ARGV])
    assert len(forks) == 2
    assert not out.exists()
    assert_no_child()


def test_pipe_output_in_order():
    # --output /dev/stdout in a fresh process: stdout is a pipe, which cannot seek
    argv, want = SIMULATE_PINS["default"]
    proc = run_fresh("-m", "segci.cli", "simulate", "--output", "/dev/stdout", *argv)
    assert proc.returncode == 0, proc.stderr
    rows, last, end = proc.stdout.rsplit("\n", 2)
    assert (last, end) == ("wrote 9500 rows to /dev/stdout", "")
    assert hashlib.sha256(f"{rows}\n".encode()).hexdigest() == want
