"""Crash safety: fault injection, write-ahead logging, recovery, doctor.

The package splits the crash-safety story into four small pieces:

* :mod:`repro.recovery.faults` -- deterministic disk failure injection;
* :mod:`repro.recovery.wal` -- the write-ahead log: one redo record of
  byte spans per statement, a page image on first touch after a
  checkpoint;
* :mod:`repro.recovery.manager` -- statement atomicity and restart
  recovery for one database;
* :mod:`repro.recovery.doctor` -- diagnosis and repair of replicated
  state from the forward paths;
* :mod:`repro.recovery.harness` -- the crash-matrix torture harness.
"""

from repro.recovery.doctor import DoctorReport, Finding, run_doctor
from repro.recovery.faults import MAX_READ_RETRIES, DiskFault, FaultInjector
from repro.recovery.harness import (
    CrashOutcome,
    count_writes,
    crash_matrix,
    crash_once,
    fault_points,
)
from repro.recovery.manager import RecoveryManager, RecoveryReport
from repro.recovery.wal import (
    WAL_MAGIC,
    WalError,
    WalRecord,
    WalRecordType,
    WriteAheadLog,
)

__all__ = [
    "MAX_READ_RETRIES",
    "WAL_MAGIC",
    "CrashOutcome",
    "DiskFault",
    "DoctorReport",
    "FaultInjector",
    "Finding",
    "RecoveryManager",
    "RecoveryReport",
    "WalError",
    "WalRecord",
    "WalRecordType",
    "WriteAheadLog",
    "count_writes",
    "crash_matrix",
    "crash_once",
    "fault_points",
    "run_doctor",
]
