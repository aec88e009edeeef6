"""Materialize the six-table output schema as CSV files and an SQL dump.

Tables: Lots, Agents, Names, LotBuyers, LotSuppliers, Criteria. Rows are
sorted by primary key before writing so two runs on the same input produce
byte-identical files. The SQL dump re-creates the same schema with primary
and foreign keys and reloads into any stock SQL engine.

Every cell becomes text once, through one pair of row functions per table
layout, compiled once as `pipeline`'s checkpoint codec is: `cells` gives a
row's CSV cells (None is "", an int its str()), which `files.write_rows`
writes and `verify_roundtrip` compares with what csv reads back; `insert`
gives its whole INSERT line, each cell an SQL literal: None is NULL, an
INTEGER column's int is bare, and any other cell is quoted, a `'` in it
doubled. A cell's form follows its column's declared type, so build_tables
puts only ints or None in an INTEGER column and only strs or None in any
other.

Before anything is written, `verify_integrity` checks that primary keys
are unique and that every foreign value names a row, reading each key and
foreign column into a set; only when a set shows a fault does it search
the rows for the messages.
"""
from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, field
from itertools import zip_longest
from operator import itemgetter
from pathlib import Path
from typing import Callable

from .files import replacing, write_rows
from .models import (
    AgentName,
    AgentOccurrence,
    CanonicalAgent,
    Criterion,
    InvariantError,
    LotRecord,
    Role,
)


@dataclass
class Table:
    name: str
    columns: list[str]
    key: list[str]
    types: list[str]  # SQL type per column
    rows: list[tuple] = field(default_factory=list)
    foreign: list[tuple[str, str, str]] = field(default_factory=list)


# The six tables by name, in TABLE_ORDER.
OutputSchema = dict[str, Table]


TABLE_ORDER = ("Lots", "Agents", "Names", "LotBuyers", "LotSuppliers", "Criteria")


def _lot_row(lot: LotRecord) -> tuple:
    return (
        lot.lot_id,
        lot.notice_id,
        lot.lot_number,
        lot.publication_date.isoformat(),
        lot.award_date.isoformat() if lot.award_date else None,
        lot.contract_type.value if lot.contract_type else None,
        lot.activity_code,
        lot.number_of_offers,
        str(lot.awarded_value) if lot.awarded_value is not None else None,
        lot.currency,
        1 if lot.cancelled else 0,
        lot.contract_notice_ref,
    )


def build_tables(
    lots: list[LotRecord],
    agents: list[CanonicalAgent],
    names: list[AgentName],
    occurrences: list[AgentOccurrence],
    criteria: list[Criterion],
) -> OutputSchema:
    """Assemble all six tables; any dangling reference is fatal."""
    schema: OutputSchema = {}

    schema["Lots"] = Table(
        name="Lots",
        columns=[
            "lotId", "noticeId", "lotNumber", "publicationDate", "awardDate",
            "contractType", "cpv", "numberOffers", "awardedValue", "currency",
            "cancelled", "contractNoticeRef",
        ],
        key=["lotId"],
        types=[
            "INTEGER", "TEXT", "TEXT", "TEXT", "TEXT", "TEXT", "TEXT",
            "INTEGER", "NUMERIC", "TEXT", "INTEGER", "TEXT",
        ],
        rows=[_lot_row(lot) for lot in sorted(lots, key=lambda l: l.lot_id)],
    )

    names_rows = sorted({(row.agent_id.value, row.name) for row in names})
    # an agent's name is its smallest: the last pair of the reversed rows wins
    first_name = dict(reversed(names_rows))
    schema["Agents"] = Table(
        name="Agents",
        columns=[
            "agentId", "idKind", "name", "street", "zipcode", "city",
            "department", "country", "caseKinds",
        ],
        key=["agentId"],
        types=["TEXT"] * 9,
        rows=[
            (
                agent.agent_id.value,
                agent.agent_id.kind.value,
                first_name.get(agent.agent_id.value),
                agent.street,
                agent.zipcode,
                agent.city,
                agent.department,
                agent.country,
                "+".join(sorted({k.value for k in agent.case_kinds})),
            )
            for agent in sorted(agents, key=lambda a: a.agent_id.value)
        ],
    )

    schema["Names"] = Table(
        name="Names",
        columns=["agentId", "name"],
        key=["agentId", "name"],
        types=["TEXT", "TEXT"],
        rows=names_rows,
        foreign=[("agentId", "Agents", "agentId")],
    )

    # one (lotId, agentId, source, conflict) tuple per occurrence and role;
    # sorted, each (lotId, agentId) run is one row with its distinct sources
    # in order, split if any link of it is
    links: dict[Role, list[tuple]] = {Role.BUYER: [], Role.WINNER: []}
    for occ in occurrences:
        ident = occ.identifier
        if ident is None:
            raise InvariantError(
                f"occurrence {occ.occurrence_id} has no agent assignment"
            )
        links[occ.role].append(
            (occ.lot_id, ident.value, occ.identifier_source or "none", occ.split_conflict)
        )

    for role, table_name in ((Role.BUYER, "LotBuyers"), (Role.WINNER, "LotSuppliers")):
        rows: list[tuple] = []
        last_source = None
        for lot_id, agent_id, source, conflict in sorted(links.pop(role)):
            if rows and rows[-1][1] == agent_id and rows[-1][0] == lot_id:
                _, _, sources, split = rows[-1]
                if source != last_source:
                    sources = f"{sources}+{source}"
                rows[-1] = (lot_id, agent_id, sources, 1 if split or conflict else 0)
            else:
                rows.append((lot_id, agent_id, source, 1 if conflict else 0))
            last_source = source
        schema[table_name] = Table(
            name=table_name,
            columns=["lotId", "agentId", "identifierSources", "splitConflict"],
            key=["lotId", "agentId"],
            types=["INTEGER", "TEXT", "TEXT", "INTEGER"],
            rows=rows,
            foreign=[
                ("lotId", "Lots", "lotId"),
                ("agentId", "Agents", "agentId"),
            ],
        )

    criteria_rows = []
    ordinals: dict[int, int] = {}
    for criterion in criteria:
        ordinal = ordinals.get(criterion.lot_id, 0) + 1
        ordinals[criterion.lot_id] = ordinal
        criteria_rows.append(
            (
                criterion.lot_id,
                ordinal,
                criterion.raw_name,
                criterion.criterion_class.value,
                str(criterion.weight) if criterion.weight is not None else None,
                1 if criterion.weight_is_normalized else 0,
            )
        )
    criteria_rows.sort(key=itemgetter(0, 1))
    schema["Criteria"] = Table(
        name="Criteria",
        columns=["lotId", "ordinal", "rawName", "class", "weight", "weightIsNormalized"],
        key=["lotId", "ordinal"],
        types=["INTEGER", "INTEGER", "TEXT", "TEXT", "NUMERIC", "INTEGER"],
        rows=criteria_rows,
        foreign=[("lotId", "Lots", "lotId")],
    )

    violations = verify_integrity(schema)
    if violations:
        raise InvariantError("output integrity violated:\n" + "\n".join(violations))
    return schema


def verify_integrity(schema: OutputSchema) -> list[str]:
    """Primary-key uniqueness and referential containment across tables.

    Each table's keys and each foreign column are read into a set at C
    speed; the row-by-row search for what is wrong runs only when a set
    shows that something is."""
    problems: list[str] = []
    for table in schema.values():
        indices = [table.columns.index(k) for k in table.key]
        if len(set(map(itemgetter(*indices), table.rows))) == len(table.rows):
            continue
        seen = set()
        for row in table.rows:
            k = tuple(row[i] for i in indices)
            if k in seen:
                problems.append(f"{table.name}: duplicate primary key {k}")
            seen.add(k)

    for table in schema.values():
        for column, ref_table, ref_column in table.foreign:
            ref = schema.get(ref_table)
            if ref is None:
                problems.append(f"{table.name}: reference to unknown table {ref_table}")
                continue
            known = set(map(itemgetter(ref.columns.index(ref_column)), ref.rows))
            values = set(map(itemgetter(table.columns.index(column)), table.rows))
            if values <= known:
                continue
            dangling = sorted(values - known, key=str)
            shown = ", ".join(str(d) for d in dangling[:5])
            problems.append(
                f"{table.name}.{column}: {len(dangling)} dangling value(s): {shown}"
            )
    return problems


@functools.cache
def _compile_rows(name: str, types: tuple[str, ...]
                  ) -> tuple[Callable[[tuple], list[str]], Callable[[tuple], str]]:
    """The two row functions of table `name` of `types`, compiled once:
    `cells(r)`, the row's CSV cells as strings, and `insert(r)`, its whole
    INSERT line. Their source is built from column indices and fixed
    templates only, never from a cell or a name."""
    binds = ", ".join(f"v{i}" for i in range(len(types))) + ","
    cells, literals = [], []
    for i, sql_type in enumerate(types):
        if sql_type == "INTEGER":
            cells.append(f'"" if v{i} is None else str(v{i})')
            literals.append(f"{{'NULL' if v{i} is None else v{i}}}")
        else:
            cells.append(f'"" if v{i} is None else v{i}')
            escaped = f"(v{i}.replace(Q, QQ) if Q in v{i} else v{i})"
            literals.append(f"{{'NULL' if v{i} is None else Q + {escaped} + Q}}")
    namespace = {"P": f"INSERT INTO {name} VALUES (", "Q": "'", "QQ": "''"}
    exec(
        f"def cells(r):\n    {binds} = r\n    return [{', '.join(cells)}]\n"
        f"def insert(r):\n    {binds} = r\n    return f\"{{P}}{', '.join(literals)});\\n\"\n",
        namespace,
    )
    return namespace["cells"], namespace["insert"]


def write_csv(schema: OutputSchema, directory: str) -> None:
    """One file per table, header row, rows already primary-key sorted."""
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in TABLE_ORDER:
        table = schema[name]
        cells, _ = _compile_rows(name, tuple(table.types))
        write_rows(out_dir / f"{name}.csv", table.columns, map(cells, table.rows))


def write_sql_dump(schema: OutputSchema, path: str) -> None:
    """Schema plus inserts, reloadable into a stock SQL engine."""
    with replacing(Path(path)) as fh:
        fh.write("BEGIN TRANSACTION;\n")
        for name in TABLE_ORDER:
            table = schema[name]
            column_defs = [
                f"  {col} {typ}" for col, typ in zip(table.columns, table.types)
            ]
            column_defs.append(f"  PRIMARY KEY ({', '.join(table.key)})")
            for column, ref_table, ref_column in table.foreign:
                column_defs.append(
                    f"  FOREIGN KEY ({column}) REFERENCES {ref_table}({ref_column})"
                )
            fh.write(f"CREATE TABLE {name} (\n" + ",\n".join(column_defs) + "\n);\n")
        for name in TABLE_ORDER:
            table = schema[name]
            _, insert = _compile_rows(name, tuple(table.types))
            fh.writelines(map(insert, table.rows))
        fh.write("COMMIT;\n")


def verify_roundtrip(schema: OutputSchema, directory: str) -> list[str]:
    """Re-read the emitted CSVs and compare cell-for-cell with memory, row by
    row as they are read; a missing or extra row differs too. The expected
    cells are made by the function that wrote them, one row at a time."""
    problems = []
    for name in TABLE_ORDER:
        table = schema[name]
        with open(Path(directory) / f"{name}.csv", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != table.columns:
                problems.append(f"{name}: header mismatch after round-trip")
            cells, _ = _compile_rows(name, tuple(table.types))
            expected = map(cells, table.rows)
            if any(read != want for read, want in zip_longest(reader, expected)):
                problems.append(f"{name}: rows differ after round-trip")
    return problems
