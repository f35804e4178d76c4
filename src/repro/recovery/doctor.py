"""``doctor``: structural diagnosis and repair of replicated state.

:meth:`ReplicationManager.verify` answers *"is everything consistent?"*
with a single raised error.  The doctor answers the operational question
*"what exactly is wrong, and can it be fixed?"*: it sweeps the heaps, the
link structures, and every replication path, collects **all** findings
instead of stopping at the first, and -- with ``repair=True`` -- rebuilds
drifted replicated state from the forward paths, which remain the single
source of truth (the paper's invariant: replicas are derived data).

Repairable drift (replicated *values*):

* in-place hidden fields that no longer match the terminal object;
* separate-path replica objects whose fields are stale;
* separate-path reference counts that disagree with the forward count;
* source objects whose hidden replica reference points at the wrong
  replica (or at nothing);
* orphaned replica objects no terminal advertises.

Structural damage (a heap page that no longer decodes, a dangling
forward reference, a link file diverging from the forward references) is
reported but never guessed at -- rebuilding those needs information the
corruption destroyed.

One pass reads each object it reaches once: the structure check, the
path checks and the closing ``verify`` share one OID -> object map
(:class:`~repro.objects.store.ReadMemo`), however many referencers lead to
an object.  A repairing pass drops the map before its path checks, the
first step that writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import IntegrityError, ReproError
from repro.objects.store import ReadMemo
from repro.objects.types import FieldKind
from repro.replication.spec import Strategy


@dataclass
class Finding:
    """One observed problem (possibly repaired)."""

    category: str
    subject: str
    detail: str
    repairable: bool = False
    repaired: bool = False

    def render(self) -> str:
        mark = "fixed" if self.repaired else (
            "repairable" if self.repairable else "damage")
        return f"[{mark}] {self.category}: {self.subject} -- {self.detail}"


@dataclass
class DoctorReport:
    """Everything one doctor pass observed (and possibly repaired)."""

    findings: list[Finding] = field(default_factory=list)
    objects_checked: int = 0
    paths_checked: int = 0
    repairs: int = 0

    @property
    def healthy(self) -> bool:
        return not self.findings

    def render(self) -> str:
        lines = [
            f"doctor: {self.objects_checked} object(s), "
            f"{self.paths_checked} path(s) checked"
        ]
        if not self.findings:
            lines.append("no problems found")
        for finding in self.findings:
            lines.append(finding.render())
        if self.repairs:
            lines.append(f"{self.repairs} repair(s) applied")
        return "\n".join(lines)


def run_doctor(db, repair: bool = False) -> DoctorReport:
    """Diagnose (and optionally repair) the whole database."""
    report = DoctorReport()
    manager = db.replication
    metrics = db.telemetry.metrics
    m_repairs = metrics.counter(
        "doctor_repairs_total", "replicated structures rebuilt by doctor")

    def repaired(finding: Finding) -> None:
        finding.repaired = True
        report.repairs += 1
        m_repairs.inc(category=finding.category)

    try:
        manager.refresh_all()
    except ReproError as exc:
        report.findings.append(Finding(
            "lazy-refresh", "refresh_all", f"lazy drain failed: {exc}"))

    reads = ReadMemo(db.store)
    _check_structure(db, report, reads)
    if repair:
        reads.drop()  # the path checks write what they repair
    with db.recovery.statement("doctor repair" if repair else "doctor"):
        for path in db.catalog.paths.values():
            report.paths_checked += 1
            if path.strategy is Strategy.IN_PLACE:
                _check_inplace_path(db, path, report, repair, repaired, reads)
            else:
                _check_separate_path(db, path, report, repair, repaired, reads)

    # residual divergence doctor cannot rebuild (link structure etc.)
    try:
        manager.verify(reads)
    except IntegrityError as exc:
        report.findings.append(Finding("integrity", "verify", str(exc)))
    except ReproError as exc:
        report.findings.append(Finding("integrity", "verify",
                                       f"verify aborted: {exc}"))
    return report


def diff_databases(left, right, left_name: str = "left",
                   right_name: str = "right") -> list[str]:
    """Byte-level disk comparison of two databases.

    Flushes both buffer pools and compares the simulated disks file by
    file, page by page.  Returns human-readable difference strings; an
    empty list means the two disks are byte-identical.  The failover
    harness uses this as its zero-loss oracle: a promoted follower must
    be indistinguishable on disk from a primary that executed exactly
    the acknowledged statements.
    """
    diffs: list[str] = []
    for db in (left, right):
        db.storage.pool.flush_all()
    ldisk, rdisk = left.storage.disk, right.storage.disk
    lfiles, rfiles = ldisk.file_ids(), rdisk.file_ids()
    if lfiles != rfiles:
        only_l = sorted(set(lfiles) - set(rfiles))
        only_r = sorted(set(rfiles) - set(lfiles))
        if only_l:
            diffs.append(f"files only in {left_name}: {only_l}")
        if only_r:
            diffs.append(f"files only in {right_name}: {only_r}")
    for fid in sorted(set(lfiles) & set(rfiles)):
        lp, rp = ldisk.num_pages(fid), rdisk.num_pages(fid)
        if lp != rp:
            diffs.append(
                f"file {fid}: {left_name} has {lp} page(s), "
                f"{right_name} has {rp}")
        for page_no in range(min(lp, rp)):
            if ldisk.peek_page(fid, page_no) != rdisk.peek_page(fid, page_no):
                diffs.append(f"file {fid} page {page_no}: images differ")
    return diffs


# ---------------------------------------------------------------------------
# structural sweep
# ---------------------------------------------------------------------------


def _check_structure(db, report: DoctorReport, reads: ReadMemo) -> None:
    """Heap decodability, dangling references, unknown bookkeeping ids."""
    sets = list(db.catalog.sets.values()) + list(
        db.replication.replica_sets.values())
    known_links = set(db.catalog.links)
    known_paths = {p.path_id for p in db.catalog.paths.values()}
    for obj_set in sets:
        try:
            members = list(obj_set.scan())
        except ReproError as exc:
            report.findings.append(Finding(
                "heap", obj_set.name, f"scan failed: {exc}"))
            continue
        for oid, obj in members:
            report.objects_checked += 1
            for fdef in obj.type_def.fields:
                if fdef.kind is not FieldKind.REF or fdef.hidden:
                    continue
                target = obj.values.get(fdef.name)
                if target is not None and not reads.exists(target):
                    report.findings.append(Finding(
                        "dangling-ref", f"{obj_set.name}.{fdef.name} @ {oid}",
                        f"references missing object {target}"))
            for entry in obj.link_entries:
                if entry.base_id not in known_links:
                    report.findings.append(Finding(
                        "link", f"{obj_set.name} @ {oid}",
                        f"carries entry for unknown link {entry.base_id}"))
            for entry in obj.replica_entries:
                if entry.path_id not in known_paths:
                    report.findings.append(Finding(
                        "replica-set", f"{obj_set.name} @ {oid}",
                        f"carries entry for unknown path {entry.path_id}"))


# ---------------------------------------------------------------------------
# in-place paths: hidden values are derived from the forward chain
# ---------------------------------------------------------------------------


def _check_inplace_path(db, path, report, repair, repaired, reads) -> None:
    manager = db.replication
    src = db.catalog.get_set(path.source_set)
    for oid, obj in list(src.scan()):
        try:
            expected = manager._hidden_values_for(path, obj, reads)
        except ReproError as exc:
            report.findings.append(Finding(
                "forward-path", f"{path.text} @ {oid}",
                f"forward traversal failed: {exc}"))
            continue
        drift = {
            hname: value
            for hname, value in expected.items()
            if obj.values.get(hname) != value
        }
        if not drift:
            continue
        finding = Finding(
            "inplace-value", f"{path.text} @ {oid}",
            f"{len(drift)} hidden field(s) diverge from the terminal "
            f"({', '.join(sorted(drift))})",
            repairable=True)
        report.findings.append(finding)
        if repair:
            manager.apply_hidden_changes(src, oid, drift)
            repaired(finding)


# ---------------------------------------------------------------------------
# separate paths: replica objects, refs, and reference counts
# ---------------------------------------------------------------------------


def _check_separate_path(db, path, report, repair, repaired, reads) -> None:
    manager = db.replication
    src = db.catalog.get_set(path.source_set)
    replica_set = manager.replica_sets[path.path_id]
    expected_refs: dict = {}  # terminal OID -> set of level-(n-1) participants
    source_rows = list(src.scan())
    for oid, obj in source_rows:
        participant, terminal_oid = manager._separate_terminal_edge(
            path, oid, obj, reads)
        if terminal_oid is not None:
            expected_refs.setdefault(terminal_oid, set()).add(participant)
    live_replicas = set()
    for terminal_oid, participants in expected_refs.items():
        terminal = reads.read(terminal_oid)
        entry = terminal.replica_entry_for(path.path_id)
        if entry is None or not replica_set.contains(entry.replica_oid):
            finding = Finding(
                "replica-set", f"{path.text} terminal {terminal_oid}",
                "terminal has no live replica object", repairable=True)
            report.findings.append(finding)
            if repair:
                live_replicas.add(_rebuild_replica(
                    db, path, terminal_oid, terminal, len(participants)))
                repaired(finding)
            continue
        live_replicas.add(entry.replica_oid)
        replica = reads.read(entry.replica_oid)
        stale = {
            fname: terminal.values[fname]
            for fname in path.replicated_field_names
            if replica.values[fname] != terminal.values[fname]
        }
        if stale:
            finding = Finding(
                "replica-value", f"{path.text} replica {entry.replica_oid}",
                f"{len(stale)} field(s) stale vs terminal {terminal_oid}",
                repairable=True)
            report.findings.append(finding)
            if repair:
                for fname, value in stale.items():
                    replica.set(fname, value)
                replica_set.raw_update(entry.replica_oid, replica)
                repaired(finding)
        if entry.refcount != len(participants):
            finding = Finding(
                "replica-refcount", f"{path.text} terminal {terminal_oid}",
                f"refcount {entry.refcount}, forward count {len(participants)}",
                repairable=True)
            report.findings.append(finding)
            if repair:
                from repro.objects.instance import ReplicaEntry

                terminal = db.store.read(terminal_oid)
                terminal.set_replica_entry(ReplicaEntry(
                    entry.replica_oid, len(participants), path.path_id))
                db.store.update(terminal_oid, terminal)
                repaired(finding)
    # hidden replica references on source objects
    for oid, obj in source_rows:
        __, terminal_oid = manager._separate_terminal_edge(path, oid, obj,
                                                           reads)
        want = None
        if terminal_oid is not None:
            entry = reads.read(terminal_oid).replica_entry_for(path.path_id)
            want = entry.replica_oid if entry is not None else None
        have = reads.current(oid, obj).values.get(path.hidden_ref)
        if have != want:
            finding = Finding(
                "replica-ref", f"{path.text} @ {oid}",
                f"hidden ref {have} should be {want}", repairable=True)
            report.findings.append(finding)
            if repair:
                manager.apply_hidden_changes(src, oid, {path.hidden_ref: want})
                repaired(finding)
    # orphaned replica objects nobody advertises
    for roid, __obj in list(replica_set.scan()):
        if roid in live_replicas:
            continue
        finding = Finding(
            "replica-orphan", f"{path.text} replica {roid}",
            "replica object is not referenced by any terminal",
            repairable=True)
        report.findings.append(finding)
        if repair:
            replica_set.raw_delete(roid)
            repaired(finding)


def _rebuild_replica(db, path, terminal_oid, terminal, refcount: int):
    """Recreate a missing replica object from its terminal (forward truth);
    returns the new replica's OID."""
    from repro.objects.instance import ReplicaEntry

    replica_set = db.replication.replica_sets[path.path_id]
    replica = replica_set.make_object({
        fname: terminal.values[fname]
        for fname in path.replicated_field_names
    })
    replica_oid = replica_set.raw_insert(replica)
    terminal.set_replica_entry(ReplicaEntry(replica_oid, refcount,
                                            path.path_id))
    db.store.update(terminal_oid, terminal)
    return replica_oid
