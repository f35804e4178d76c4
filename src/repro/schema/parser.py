"""DDL parser for the paper's EXTRA-ish surface syntax.

Supported statements (Figure 1 and Sections 3-4 of the paper)::

    define type EMP (
        name:   char[20],
        age:    int,
        salary: int,
        dept:   ref DEPT
    )
    create Emp1: {own ref EMP}
    replicate Emp1.dept.name
    replicate Emp1.dept.org.name using separate
    replicate Emp1.dept.org.name collapsed
    replicate Emp1.dept.name lazy
    build btree on Emp1.dept.org.name
    build clustered btree on Emp1.salary

:func:`run_script` executes a whole script -- DDL statements plus
``retrieve`` / ``replace`` / ``delete`` queries -- returning the query
results in order.
"""

from __future__ import annotations

import re

from repro.errors import ParseError
from repro.objects.types import FieldDef, FieldKind, TypeDefinition
from repro.schema.database import Database

_CHAR = re.compile(r"^char\s*\[\s*(\d+)\s*\]$")
_REF = re.compile(r"^ref\s+(\w+)$")
_DEFINE = re.compile(r"^define\s+type\s+(\w+)\s*\((.*)\)\s*$", re.DOTALL)
_CREATE = re.compile(r"^create\s+(\w+)\s*:\s*\{\s*own\s+ref\s+(\w+)\s*\}\s*$")
_REPLICATE = re.compile(
    r"^replicate\s+([\w.]+)((?:\s+(?:using\s+\w+|collapsed|lazy|colocate))*)\s*$"
)
_BUILD = re.compile(r"^build\s+(clustered\s+)?btree\s+on\s+([\w.]+)\s*$")
_DROP = re.compile(r"^drop\s+(replicate|index|set)\s+([\w.]+)\s*$")


def _parse_field(text: str) -> FieldDef:
    name, sep, kind_text = text.partition(":")
    name, kind_text = name.strip(), kind_text.strip()
    if not sep or not name.isidentifier():
        raise ParseError(f"bad field declaration {text!r}")
    if kind_text == "int":
        return FieldDef(name, FieldKind.INT)
    if kind_text == "float":
        return FieldDef(name, FieldKind.FLOAT)
    match = _CHAR.match(kind_text)
    if match:
        return FieldDef(name, FieldKind.CHAR, size=int(match.group(1)))
    match = _REF.match(kind_text)
    if match:
        return FieldDef(name, FieldKind.REF, ref_type=match.group(1))
    raise ParseError(f"unknown field kind {kind_text!r} (int, float, char[n], ref T)")


def parse_type_definition(text: str) -> TypeDefinition:
    """Parse one ``define type ...`` statement."""
    match = _DEFINE.match(text.strip())
    if match is None:
        raise ParseError(f"bad define-type statement: {text!r}")
    name, body = match.group(1), match.group(2)
    fields = [
        _parse_field(chunk)
        for chunk in body.split(",")
        if chunk.strip()
    ]
    if not fields:
        raise ParseError(f"type {name!r} declares no fields")
    return TypeDefinition(name, fields)


def execute_ddl(db: Database, text: str) -> None:
    """Execute one DDL statement against ``db``.

    Listeners in ``db.ddl_listeners`` (the replication hub) are called
    with the statement text and the file-id cursor as it stood *before*
    the DDL ran -- a follower re-executing the statement adopts that
    cursor first, so the files the DDL creates get identical ids on both
    engines.
    """
    body = text.strip().rstrip(";")
    next_file_id = db.storage.disk.next_file_id
    _apply_ddl(db, body)
    for listener in list(db.ddl_listeners):
        listener(body, next_file_id)


def _apply_ddl(db: Database, body: str) -> None:
    if body.startswith("define"):
        db.define_type(parse_type_definition(body))
        return
    match = _CREATE.match(body)
    if match:
        db.create_set(match.group(1), match.group(2))
        return
    match = _REPLICATE.match(body)
    if match:
        path_text, options = match.group(1), match.group(2) or ""
        strategy = "inplace"
        using = re.search(r"using\s+(\w+)", options)
        if using:
            strategy = using.group(1)
            if strategy not in ("inplace", "separate"):
                raise ParseError(f"unknown strategy {strategy!r}")
        db.replicate(
            path_text,
            strategy=strategy,
            collapsed="collapsed" in options,
            lazy="lazy" in options,
            cluster_links="colocate" in options,
        )
        return
    match = _BUILD.match(body)
    if match:
        db.build_index(match.group(2), clustered=bool(match.group(1)))
        return
    match = _DROP.match(body)
    if match:
        kind, target = match.group(1), match.group(2)
        if kind == "replicate":
            db.drop_replication(target)
        elif kind == "index":
            db.drop_index(target)
        else:
            db.drop_set(target)
        return
    raise ParseError(f"unrecognised DDL statement: {body!r}")


_DDL_STARTERS = ("define", "create", "replicate", "build", "drop")
_QUERY_STARTERS = ("retrieve", "replace", "delete", "explain")


def split_script(text: str) -> list[str]:
    """Split a script into statements.

    A statement runs until its parentheses balance; a following line only
    continues it when it is a ``where`` clause.  ``--`` comments are
    stripped.
    """
    statements: list[str] = []
    buffer: list[str] = []
    depth = 0

    def flush() -> None:
        if buffer:
            statements.append("\n".join(buffer))
            buffer.clear()

    for raw_line in text.splitlines():
        line = raw_line.split("--")[0].rstrip()
        if not line.strip():
            if depth == 0:
                flush()
            continue
        continues = line.lstrip().startswith("where")
        if buffer and depth == 0 and not continues:
            flush()
        depth += line.count("(") - line.count(")")
        buffer.append(line)
    flush()
    return [s.strip().rstrip(";").strip() for s in statements if s.strip()]


def strip_explain_analyze(statement: str) -> tuple[str, bool]:
    """``explain analyze <query>`` as ``(<query>, True)``; any other
    statement as ``(statement, False)``."""
    words = statement.split(None, 2)
    if (len(words) == 3 and words[0].lower() == "explain"
            and words[1] == "analyze"):
        return words[2], True
    return statement, False


def run_script_statement(db: Database, statement: str):
    """Run one statement by its first word, embedded: a query returns
    its ``QueryResult``, ``explain`` the plan string, ``explain analyze``
    the rendered operator report, DDL ``None``."""
    first = statement.split(None, 1)[0] if statement.strip() else ""
    if first == "explain":
        from repro.query.analyze import render_analyze_report
        from repro.query.runner import explain_text

        query, analyze = strip_explain_analyze(statement)
        if analyze:
            return render_analyze_report(db.execute(query, analyze=True))
        return explain_text(db, statement[len("explain"):].strip())
    if first in _QUERY_STARTERS:
        return db.execute(statement)
    if first in _DDL_STARTERS:
        execute_ddl(db, statement)
        return None
    raise ParseError(f"unrecognised statement: {statement!r}")


def run_script(db: Database, text: str) -> list:
    """Run a mixed DDL / query script; returns the query results in order.

    ``explain <query>`` contributes the plan string instead of rows.
    """
    results = (run_script_statement(db, statement)
               for statement in split_script(text))
    return [result for result in results if result is not None]
