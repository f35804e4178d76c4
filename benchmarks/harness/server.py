"""The server under test as a subprocess, and the counters read off it."""

from __future__ import annotations

import os
import pathlib
import select
import subprocess
import sys
from collections import defaultdict

from repro.errors import ServerError
from repro.server.client import Client, connect

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"
_CLK_TCK = os.sysconf("SC_CLK_TCK")
_START_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 30.0
#: bound on any one reply: a server that stops answering must fail the
#: run while there is still time to stop it inside the run's time limit
_REPLY_TIMEOUT_S = 20.0


def process_cpu_seconds(pid: int | str = "self") -> float:
    """utime + stime of a process from ``/proc``."""
    with open(f"/proc/{pid}/stat") as stat:
        # the command name may hold spaces; fields resume after its ")"
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def parse_prometheus(text: str) -> dict[str, float]:
    """Series -> value, plus each family's sum over its labels under the
    bare family name."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, __, value = line.rpartition(" ")
        out[series] = float(value)
        family = series.partition("{")[0]
        if family != series:
            out[family] = out.get(family, 0.0) + float(value)
    return out


class ServerProcess:
    """``python -m repro.server --snapshot FILE`` with its default flags
    (``--port 0`` only picks a free port), plus one control connection."""

    def __init__(self, snapshot: str, flags: tuple = ()) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--port", "0",
             "--snapshot", snapshot, *flags],
            stdout=subprocess.PIPE, text=True, env=env)
        try:
            ready, __, __ = select.select([self.proc.stdout], [], [],
                                          _START_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else ""
            if not line.startswith("listening on "):
                raise RuntimeError(f"server did not start: {line!r}")
            host, __, port = line.split()[-1].rpartition(":")
            self.address = (host, int(port))
            self.control = self.connect()
            self.control.ping()
        except BaseException:
            self.kill()
            raise

    @property
    def pid(self) -> int:
        return self.proc.pid

    def connect(self) -> Client:
        # no transparent retry: a dropped statement is a failed statement
        return connect(*self.address, timeout=_REPLY_TIMEOUT_S, retry=False)

    def cpu_seconds(self) -> float:
        return process_cpu_seconds(self.pid)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def counters(self) -> dict[str, float]:
        """Every counter the server publishes, flattened.  Callers take
        differences: a fresh server has already read every page once (the
        start-up doctor) and reports wait coverage far above 1."""
        out = parse_prometheus(self.control.meta("stats", "prom"))
        waits = self.control.stats()["waits"]
        out["waits.statement_seconds"] = waits["statement_seconds"]
        out["waits.attributed_seconds"] = waits["attributed_seconds"]
        return out

    def stop(self) -> None:
        """Graceful drain, else kill; the process is gone on return."""
        try:
            self.control.shutdown()
            self.proc.wait(_STOP_TIMEOUT_S)
        except (OSError, ServerError, subprocess.TimeoutExpired):
            pass
        self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    """``after - before``; a series the server has not yet touched is
    absent from its exposition, so missing keys read 0."""
    return defaultdict(float, {key: value - before.get(key, 0.0)
                               for key, value in after.items()})
