"""Materialize the six-table output schema as CSV files and an SQL dump.

Tables: Lots, Agents, Names, LotBuyers, LotSuppliers, Criteria. Rows are
sorted by primary key before writing so two runs on the same input produce
byte-identical files. The SQL dump re-creates the same schema with primary
and foreign keys and reloads into any stock SQL engine.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import groupby, zip_longest
from operator import itemgetter
from pathlib import Path

from .files import replacing, write_rows
from .models import (
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
                agent.names[0] if agent.names else None,
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

    names_rows = sorted(
        {(agent.agent_id.value, name) for agent in agents for name in agent.names}
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
    # sorted, each (lotId, agentId) group is one row with its sources in order
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
        rows = []
        for key, group in groupby(sorted(links.pop(role)), key=itemgetter(0, 1)):
            group = list(group)
            sources = "+".join(dict.fromkeys(link[2] for link in group))
            rows.append((*key, sources, 1 if any(link[3] for link in group) else 0))
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
    criteria_rows.sort(key=lambda r: (r[0], r[1]))
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
    """Primary-key uniqueness and referential containment across tables."""
    problems: list[str] = []
    for table in schema.values():
        indices = [table.columns.index(k) for k in table.key]
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
            ref_index = ref.columns.index(ref_column)
            known = {row[ref_index] for row in ref.rows}
            col_index = table.columns.index(column)
            dangling = sorted(
                {row[col_index] for row in table.rows} - known, key=str
            )
            if dangling:
                shown = ", ".join(str(d) for d in dangling[:5])
                problems.append(
                    f"{table.name}.{column}: {len(dangling)} dangling value(s): {shown}"
                )
    return problems


def write_csv(schema: OutputSchema, directory: str) -> None:
    """One file per table, header row, rows already primary-key sorted."""
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in TABLE_ORDER:
        write_rows(out_dir / f"{name}.csv", schema[name].columns, schema[name].rows)


def _sql_literal(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, int):
        return str(value)
    text = str(value)
    return "'" + text.replace("'", "''") + "'"


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
            fh.writelines(
                f"INSERT INTO {name} VALUES ({', '.join(map(_sql_literal, row))});\n"
                for row in schema[name].rows
            )
        fh.write("COMMIT;\n")


def verify_roundtrip(schema: OutputSchema, directory: str) -> list[str]:
    """Re-read the emitted CSVs and compare cell-for-cell with memory, row by
    row as they are read; a missing or extra row differs too."""
    problems = []
    for name in TABLE_ORDER:
        table = schema[name]
        with open(Path(directory) / f"{name}.csv", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != table.columns:
                problems.append(f"{name}: header mismatch after round-trip")
            expected = (["" if v is None else str(v) for v in row] for row in table.rows)
            if any(read != want for read, want in zip_longest(reader, expected)):
                problems.append(f"{name}: rows differ after round-trip")
    return problems
