"""Process helpers: isolated forked repetitions, CPU time and machine
context.

The gated times are CPU seconds, not wall seconds.  On a shared host the
benchmark's virtual CPUs are descheduled for stretches of a minute or
more, and wall times of the same code moved by a factor of two from run
to run.  With paravirtual steal accounting the kernel leaves that stolen
time out of a process's CPU time, so CPU time measures the program's
work; wall times are still reported, among the per-layer metrics.
"""

from __future__ import annotations

import os
import pickle
import platform
import resource
import subprocess
import sys
import traceback

from inputs import ROOT, SRC, source_hash


class ChildFailed(RuntimeError):
    """A forked repetition raised; carries the child's traceback."""


def run_forked(fn, *args):
    """Run ``fn(*args)`` in a forked child; returns ``(result, peak_rss_mb)``.

    Each timed repetition gets a fresh process holding only the world it
    inherited, so one repetition's garbage cannot slow the next.  The
    result crosses back pickled through a pipe.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 0
        try:
            payload = ("ok", fn(*args))
        except BaseException:  # noqa: BLE001 - reported to the parent
            payload = ("error", traceback.format_exc())
            code = 1
        try:
            data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            with os.fdopen(write_fd, "wb") as out:
                out.write(data)
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as inp:
        data = inp.read()
    _, _, usage = os.wait4(pid, 0)
    if not data:
        raise ChildFailed("forked repetition died without a result")
    status, value = pickle.loads(data)
    if status != "ok":
        raise ChildFailed(value)
    return value, usage.ru_maxrss / 1024.0


def cpu_s_of(pid: int) -> float:
    """CPU seconds (user and system) process ``pid`` has used so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
        fields = stat.read().rpartition(")")[2].split()
    # utime and stime: fields 14 and 15 of stat(5), the 12th and 13th
    # after the command name.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def live_cpu_s_of(pid: int) -> float:
    """CPU seconds the live threads of process ``pid`` have used, to the
    nanosecond (``/proc/<pid>/stat`` counts in clock ticks, but also
    counts threads that have exited)."""
    total = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/schedstat", encoding="ascii") as stat:
            total += int(stat.read().split()[0])
    return total / 1e9


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of process ``pid`` so far."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def children_cpu_s() -> float:
    """CPU seconds of every waited-for child process so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class StealWatch:
    """Share of the host's CPU time stolen by the hypervisor since
    construction, from ``/proc/stat``; ``None`` where not reported."""

    def __init__(self) -> None:
        self.first = self._read()

    @staticmethod
    def _read():
        try:
            with open("/proc/stat", encoding="ascii") as stat:
                fields = [int(v) for v in stat.readline().split()[1:9]]
        except (OSError, ValueError):
            return None
        return fields[7], sum(fields)

    def share(self) -> float | None:
        last = self._read()
        if self.first is None or last is None or last[1] == self.first[1]:
            return None
        return (last[0] - self.first[0]) / (last[1] - self.first[1])


def python_env() -> dict[str, str]:
    """Environment for a subprocess that imports the program from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    try:
        # The ceiling keeps git from reporting an enclosing repository's
        # commit when the checkout itself is not a repository.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False, env=env,
        )
    except (OSError, subprocess.SubprocessError):
        out = None
    if out is not None and out.returncode == 0 and out.stdout.strip():
        return out.stdout.strip()
    return "src-sha256:" + source_hash("")


def machine_context(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "commit": _commit(),
    }
