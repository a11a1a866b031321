"""Closed-loop runner: one operation at a time, timed from outside the program.

An operation (``Op``) is one seeded analysis request.  Its ``call`` is the
timed part and talks to modefisher only through public functions or the CLI;
its ``check`` compares the answer with an oracle from ``oracles`` and is not
timed.  An op fails when its answer is wrong, when it raises, or, for the CLI,
when the process exits with an unexpected code or prints a traceback.
"""
from __future__ import annotations

import ctypes
import os
import platform
import resource
import signal
import subprocess
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


class OracleFailure(Exception):
    """The answer contradicts the oracle; ``crash`` marks a failed process.

    ``health`` carries residuals measured on the wrong answer, so that they
    are reported whether the op passed or not.
    """

    def __init__(self, message: str, crash: bool = False, health: dict | None = None):
        super().__init__(message)
        self.crash = crash
        self.health = health or {}


@dataclass
class Op:
    """One analysis request.

    ``rung`` is the ladder N the op belongs to (None for named ops outside
    the ladder).  ``defect`` names the seed defect the op is known to hit
    (ROADMAP letters a-d); such an op still counts in ``ok_frac``, but its
    failure does not make the run incorrect.
    """

    name: str
    kind: str
    n: int
    rung: int | None
    call: Callable[[Any], Any]
    check: Callable[[Any], dict]
    defect: str | None = None


@dataclass
class OpResult:
    name: str
    kind: str
    rung: int | None
    defect: str | None
    seconds: float
    ok: bool
    crashed: bool = False
    message: str = ""
    health: dict = field(default_factory=dict)
    started: float = 0.0  # perf_counter() when the op began


def run_op(op: Op, tracer=None) -> OpResult:
    """Runs and times one op, then checks its answer against the oracle."""
    if tracer is not None:
        tracer.op = op.name
    start = perf_counter()
    try:
        answer = op.call(tracer)
    except Exception as exc:  # a crash is a failed op, not a benchmark error
        seconds = perf_counter() - start
        return OpResult(op.name, op.kind, op.rung, op.defect, seconds, False, True,
                        f"{type(exc).__name__}: {exc}"[:300], started=start)
    seconds = perf_counter() - start
    try:
        health = op.check(answer) or {}
    except OracleFailure as exc:
        return OpResult(op.name, op.kind, op.rung, op.defect, seconds, False, exc.crash,
                        str(exc)[:300], exc.health, start)
    except Exception as exc:  # an answer the checker cannot read is wrong
        return OpResult(op.name, op.kind, op.rung, op.defect, seconds, False, False,
                        f"unreadable answer: {type(exc).__name__}: {exc}"[:300], started=start)
    return OpResult(op.name, op.kind, op.rung, op.defect, seconds, True, health=health,
                    started=start)


def run_pass(ops: list[Op], tracer=None) -> list[OpResult]:
    return [run_op(op, tracer) for op in ops]


def require(condition: bool, message: str, health: dict | None = None) -> None:
    if not condition:
        raise OracleFailure(message, health=health)


# --- child processes -------------------------------------------------------

@dataclass
class ChildResult:
    returncode: int
    seconds: float
    stdout: str
    stderr: str
    maxrss_mb: float
    timed_out: bool


def child_env() -> dict:
    """Environment of every child: the checkout's src/ and a fixed BLAS thread count."""
    env = {k: v for k, v in os.environ.items() if k not in ("MODEFISHER_TOL", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["OPENBLAS_NUM_THREADS"] = os.environ["OPENBLAS_NUM_THREADS"]
    return env


_LIBC = ctypes.CDLL(None, use_errno=True)
_PR_SET_PDEATHSIG = 1


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv: list[str], workdir: Path, timeout: float,
              address_space: int | None = None) -> ChildResult:
    """Runs one child process to completion and returns its output and peak RSS.

    The child gets its own process group, killed whole after ``timeout``
    seconds, and is killed when its parent dies, so a child's own children
    never outlive a killed child.  ``address_space`` sets RLIMIT_AS on the
    child only.
    """
    out_path, err_path = workdir / "child.out", workdir / "child.err"

    def preexec():
        _LIBC.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
        if address_space is not None:
            resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT, start_new_session=True,
                                preexec_fn=preexec)
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        seconds = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, seconds,
                       out_path.read_text(errors="replace"), err_path.read_text(errors="replace"),
                       usage.ru_maxrss / 1024.0,
                       proc.returncode == -signal.SIGKILL and seconds >= timeout)


# --- statistics --------------------------------------------------------------

def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def tail(values, base: int) -> tuple[float, float]:
    """(value, percentile) over all ``values`` at the highest percentile that
    has at least ten samples beyond it among ``base`` samples."""
    ordered = sorted(values)
    if base <= 10:
        return ordered[-1], 100.0
    rank = -(-(base - 10) * len(ordered) // base)  # ceil, in integers
    return ordered[rank - 1], 100.0 * (base - 10) / base


# --- provenance ----------------------------------------------------------------

def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
    except OSError:
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def provenance(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "openblas_num_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_sha": _git_sha(),
    }
