"""Shell tests (scripted, non-interactive)."""

import io

from repro.cli import _FORWARDED_META, Shell, render_result


def run(text: str) -> str:
    out = io.StringIO()
    shell = Shell(out=out)
    shell.run_block(text)
    return out.getvalue()


SETUP = """
define type DEPT ( name: char[20], budget: int )

define type EMP ( name: char[20], salary: int, dept: ref DEPT )

create Dept: {own ref DEPT}

create Emp1: {own ref EMP}
"""


def test_ddl_and_describe():
    out = run(SETUP + "\n\\describe")
    assert out.count("ok") >= 4
    assert "create Emp1: {own ref EMP}" in out


def test_query_rendering():
    out = run(SETUP + "\nretrieve (Emp1.name)")
    assert "(0 row(s))" in out
    assert "plan: FileScan(Emp1)" in out
    assert "I/O:" in out


def test_replicate_and_verify():
    out = run(SETUP + "\nreplicate Emp1.dept.name\n\n\\verify")
    assert "all replication invariants hold" in out


def test_error_does_not_kill_session():
    out = run(SETUP + "\nretrieve (Nope.name)\n\nretrieve (Emp1.name)")
    assert "error:" in out
    assert "(0 row(s))" in out  # the later statement still ran


def test_unknown_meta_and_statement():
    out = run("\\bogus")
    assert "unknown meta-command" in out
    # answered when connected, so embedded they are not "unknown"
    assert "unknown meta-command" not in run("\\replication\n\\promote")
    out = run("frobnicate the database")
    assert "unrecognised statement" in out


def test_help_lists_every_meta_command():
    out = run("\\help")
    for name in _FORWARDED_META + ("promote", "top"):
        assert f"\\{name}" in out, name


def test_stats_and_cold():
    out = run(SETUP + "\n\\stats\n\\cold")
    assert "physical reads" in out
    assert "buffer pool flushed" in out


def test_quit_stops_processing():
    out = run("\\quit\n\\stats")
    assert "physical reads" not in out


def test_interact_line_protocol():
    out = io.StringIO()
    shell = Shell(out=out)
    shell.interact(iter([
        "define type T ( x: int )",
        "",  # blank line terminates the statement
        "create S: {own ref T};",
        "\\describe",
    ]))
    text = out.getvalue()
    assert text.count("ok") == 2
    assert "create S: {own ref T}" in text


def test_render_result_table(company):
    db = company["db"]
    result = db.execute("retrieve (Emp1.name, Emp1.salary) where Emp1.salary <= 60000")
    text = render_result(result)
    assert "Emp1.name" in text and "alice" in text
    assert "(2 row(s))" in text


def test_main_with_piped_script(tmp_path, monkeypatch, capsys):
    from repro import cli

    script = tmp_path / "s.extra"
    script.write_text(SETUP + "\nretrieve (Emp1.name)\n")
    assert cli.main([str(script)]) == 0
    captured = capsys.readouterr()
    assert "(0 row(s))" in captured.out


def _populated_shell():
    out = io.StringIO()
    shell = Shell(out=out)
    shell.run_block(SETUP)
    db = shell.db
    toys = db.insert("Dept", {"name": "toys", "budget": 100})
    db.insert("Emp1", {"name": "alice", "salary": 50_000, "dept": toys})
    db.insert("Emp1", {"name": "bob", "salary": 60_000, "dept": toys})
    out.truncate(0)
    out.seek(0)
    return shell, out


def test_stats_shows_evictions_and_metrics():
    shell, out = _populated_shell()
    shell.run_block("\\cold\nretrieve (Emp1.name)\n\n\\stats")
    text = out.getvalue()
    assert "physical reads" in text          # the original one-liner survives
    assert "evictions" in text and "dirty writebacks" in text
    assert "disk_reads_total" in text
    assert "bufferpool_misses_total" in text


def test_stats_prometheus_exposition():
    shell, out = _populated_shell()
    shell.run_block("\\cold\nretrieve (Emp1.name)\n\n\\stats prom")
    text = out.getvalue()
    assert "# TYPE disk_reads_total counter" in text
    assert "# TYPE bufferpool_resident_frames gauge" in text


def test_trace_on_dump_clear_off():
    shell, out = _populated_shell()
    shell.run_block("\\trace on\nretrieve (Emp1.dept.name)\n\n\\trace dump")
    text = out.getvalue()
    assert "tracing on" in text
    assert '"name": "query"' in text
    assert '"name": "functional_join"' in text
    out.truncate(0)
    out.seek(0)
    shell.run_block("\\trace clear\n\\trace off\n\\trace dump")
    text = out.getvalue()
    assert "trace cleared" in text and "tracing off" in text
    assert "(no spans recorded)" in text


def test_trace_dump_to_file(tmp_path):
    shell, out = _populated_shell()
    target = tmp_path / "trace.jsonl"
    shell.run_block(f"\\trace on\nretrieve (Emp1.name)\n\n\\trace dump {target}")
    assert "wrote" in out.getvalue()
    assert target.exists() and target.read_text().strip()


def test_trace_dump_unwritable_path_does_not_kill_session():
    shell, out = _populated_shell()
    shell.run_block("\\trace on\nretrieve (Emp1.name)\n\n"
                    "\\trace dump /no/such/dir/t.jsonl\n\\stats")
    text = out.getvalue()
    assert "error: cannot write trace" in text
    assert "physical reads" in text  # the session survived


def test_explain_analyze_statement():
    shell, out = _populated_shell()
    shell.run_block("explain analyze retrieve (Emp1.name, Emp1.dept.name)")
    text = out.getvalue()
    assert "operator" in text and "functional_join" in text
    assert "total" in text and "(2 row(s))" in text
    out.truncate(0)
    out.seek(0)
    # plain explain still just plans
    shell.run_block("explain retrieve (Emp1.name)")
    assert "FileScan(Emp1)" in out.getvalue()


def test_monitor_meta_command():
    shell, out = _populated_shell()
    shell.run_block("retrieve (Emp1.dept.name)\n\n\\monitor")
    text = out.getvalue()
    assert "observed functional joins" in text
    assert "Emp1.dept.name" in text


def test_doctor_healthy_and_repair():
    shell, out = _populated_shell()
    shell.run_block("replicate Emp1.dept.name\n\n\\doctor")
    assert "no problems found" in out.getvalue()
    db = shell.db
    path = db.catalog.get_path("Emp1.dept.name")
    emp_set = db.catalog.get_set("Emp1")
    oid, __ = next(iter(emp_set.scan()))
    db.replication.apply_hidden_changes(
        emp_set, oid, {path.hidden_field_for("name"): "VANDALISED"})
    out.truncate(0)
    out.seek(0)
    shell.run_block("\\doctor\n\\doctor repair\n\\verify")
    text = out.getvalue()
    assert "[repairable] inplace-value" in text
    assert "[fixed] inplace-value" in text
    assert "repair(s) applied" in text
    assert "all replication invariants hold" in text


def test_recover_meta_command():
    from tests.test_recovery import crash_mid_updates

    shell, out = _populated_shell()
    shell.run_block("\\recover")
    assert "nothing to recover" in out.getvalue()
    crashed, __, __ = crash_mid_updates(torn=True)
    shell.db = crashed
    out.truncate(0)
    out.seek(0)
    shell.run_block("retrieve (Emp.name)\n\n\\recover\n\\verify")
    text = out.getvalue()
    assert "error:" in text and "run recover()" in text  # refused pre-recovery
    assert "recovery:" in text and "statement(s) redone" in text
    assert "all replication invariants hold" in text


def test_meta_command_error_keeps_session_alive():
    shell, out = _populated_shell()
    shell.db.faults.fail_after_writes(0)
    shell.run_block("\\cold\n\\stats")
    text = out.getvalue()
    assert "error: injected write failure" in text
    assert "physical reads" in text  # the session survived
    shell.db.faults.disarm()


# ---------------------------------------------------------------------------
# script-mode exit codes
# ---------------------------------------------------------------------------


def test_main_missing_script_is_one_error_line_and_exit_1(capsys):
    from repro import cli

    assert cli.main(["/no/such/script.extra"]) == 1
    captured = capsys.readouterr()
    errors = [ln for ln in captured.err.splitlines() if ln]
    assert len(errors) == 1
    assert errors[0].startswith("error: cannot read script")
    assert captured.out == ""


def test_main_script_statement_error_exits_nonzero(tmp_path, capsys):
    from repro import cli

    script = tmp_path / "bad.extra"
    script.write_text(SETUP + "\nretrieve (Nope.name)\n\nretrieve (Emp1.name)\n")
    assert cli.main([str(script)]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.out
    assert "(0 row(s))" in captured.out  # later statements still ran


def test_main_script_meta_error_exits_nonzero(tmp_path, capsys):
    from repro import cli

    script = tmp_path / "bad.extra"
    script.write_text("\\bogus\n")
    assert cli.main([str(script)]) == 1


def test_main_clean_script_exits_zero(tmp_path, capsys):
    from repro import cli

    script = tmp_path / "ok.extra"
    script.write_text(SETUP + "\nretrieve (Emp1.name)\n")
    assert cli.main([str(script)]) == 0


# ---------------------------------------------------------------------------
# --snapshot / --save
# ---------------------------------------------------------------------------


def test_main_save_and_snapshot_round_trip(tmp_path, capsys):
    from repro import cli

    saved = tmp_path / "state.frdb"
    build = tmp_path / "build.extra"
    build.write_text(SETUP + "\nreplicate Emp1.dept.name\n")
    assert cli.main([str(build), "--save", str(saved)]) == 0
    assert saved.exists()

    reuse = tmp_path / "reuse.extra"
    reuse.write_text("retrieve (Emp1.name)\n\n\\verify\n")
    assert cli.main([str(reuse), "--snapshot", str(saved)]) == 0
    captured = capsys.readouterr()
    assert "(0 row(s))" in captured.out
    assert "all replication invariants hold" in captured.out


def test_main_unreadable_snapshot_exits_1(capsys):
    from repro import cli

    assert cli.main(["--snapshot", "/no/such/state.frdb"]) == 1
    assert "error:" in capsys.readouterr().err


def test_main_snapshot_with_connect_is_rejected(capsys):
    from repro import cli

    assert cli.main(["--connect", "127.0.0.1:1", "--snapshot", "x.frdb"]) == 1
    assert "--snapshot/--save need a local session" in capsys.readouterr().err


def test_main_connect_refused_is_one_error(capsys):
    from repro import cli

    assert cli.main(["--connect", "127.0.0.1:1"]) == 1
    assert "error: cannot connect" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# row limits
# ---------------------------------------------------------------------------


def test_render_result_truncates_at_limit(company):
    db = company["db"]
    result = db.execute("retrieve (Emp1.name)")
    text = render_result(result, limit=2)
    assert "... (4 more rows)" in text
    assert "(6 row(s))" in text  # the count line reports the truth
    assert render_result(result, limit=None).count("\n") > text.count("\n")


def test_limit_meta_command():
    shell, out = _populated_shell()
    shell.run_block("\\limit 1\nretrieve (Emp1.name)\n\n\\limit off\n"
                    "retrieve (Emp1.name)\n\n\\limit nonsense")
    text = out.getvalue()
    assert "row limit: 1" in text
    assert "... (1 more rows)" in text
    assert "row limit off" in text
    assert text.count("alice") + text.count("bob") == 3  # 1 capped + 2 full
    assert "error: \\limit takes a number" in text
    assert shell.errors == 1


# ---------------------------------------------------------------------------
# --connect: the shell as a server client
# ---------------------------------------------------------------------------


def test_shell_drives_a_live_server(company):
    from repro.server.client import connect
    from repro.server.service import Server

    server = Server(company["db"]).start()
    try:
        out = io.StringIO()
        shell = Shell(out=out, client=connect(*server.address))
        shell.run_block(
            "replicate Emp1.dept.name\n\n"
            "retrieve (Emp1.name, Emp1.dept.name)\n\n"
            "begin\n\nreplace (Emp1.salary = 1)\n\ncommit\n\n"
            "\\verify\n\\stats\n\\describe")
        text = out.getvalue()
        assert "ok" in text                      # DDL acknowledged
        assert "alice" in text and "toys" in text
        assert "plan:" in text and "I/O:" in text
        assert "all replication invariants hold" in text
        assert "physical reads" in text
        assert "replicate Emp1.dept.name" in text  # \describe shows the path
        assert shell.errors == 0
        out.truncate(0)
        out.seek(0)
        shell.run_block("retrieve (Nope.name)\n\n\\limit 2\n\\shutdown")
        text = out.getvalue()
        assert "error:" in text
        assert "row limit: 2" in text
        assert "draining" in text
        assert shell.done
        shell.close()
    finally:
        server.shutdown()


def test_local_shell_rejects_shutdown():
    shell, out = _populated_shell()
    shell.run_block("\\shutdown")
    assert "needs a connected server" in out.getvalue()
    assert shell.errors == 1
    for errors, meta in enumerate(("replication", "promote"), start=2):
        shell.run_block("\\" + meta)
        assert f"\\{meta} needs a connected server" in out.getvalue()
        assert shell.errors == errors
