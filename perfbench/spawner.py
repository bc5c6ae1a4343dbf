"""Starts the benchmark's child processes from a small helper interpreter.

Linux keeps a process's peak-memory mark across exec, so a child started
straight from the benchmark process would report at least the benchmark's
own peak (numpy, the workload's inputs, the trace).  Children are started
instead by this helper, which imports only the standard library; the
helper also times each child from spawn to exit.

The parent writes one JSON request per line to the helper's stdin and
reads one JSON reply per line from its stdout.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

TIMEOUT_S = 150


@dataclass
class ChildResult:
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int
    seconds: float
    cpu_s: float


class Spawner:
    """Parent side: one helper process for the life of a benchmark run."""

    def __init__(self, out_dir: Path, env: dict):
        self.out_dir = out_dir
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, env=env,
        )

    def run(self, argv, cwd) -> ChildResult:
        out, err = self.out_dir / "child.out", self.out_dir / "child.err"
        request = {"argv": [str(a) for a in argv], "cwd": str(cwd),
                   "stdout": str(out), "stderr": str(err)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("child-process helper exited")
        r = json.loads(reply)
        return ChildResult(r["code"], out.read_text(), err.read_text(),
                           r["maxrss_kb"], r["seconds"], r["cpu_s"])

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=TIMEOUT_S)
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if exc[0] is not None:
            self.proc.kill()
        self.close()


def serve():
    """Helper side: run each requested child to its end, killing it after
    TIMEOUT_S, and reply with its exit code, peak memory and duration."""
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "w") as fo, open(req["stderr"], "w") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=fo, stderr=fe, cwd=req["cwd"])
            timer = threading.Timer(TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "maxrss_kb": usage.ru_maxrss, "seconds": seconds,
                 "cpu_s": usage.ru_utime + usage.ru_stime}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
