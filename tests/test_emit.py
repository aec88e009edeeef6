import csv
import dataclasses
import datetime as dt
import io
import sqlite3
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import corpus_config
from tedclean import emit as emit_mod
from tedclean.emit import (
    TABLE_ORDER,
    Table,
    build_tables,
    verify_integrity,
    verify_roundtrip,
    write_csv,
    write_sql_dump,
)
from tedclean.models import (
    AgentName,
    CanonicalAgent,
    CaseKind,
    ContractType,
    Criterion,
    CriterionClass,
    InvariantError,
    Role,
    full_siret,
    internal_code,
)
from tedclean.pipeline import run_pipeline

from conftest import make_lot, make_occurrence

SIRET_A = full_siret("11111111100011")
INTERNAL_1 = internal_code(1)


def agent(ident):
    return CanonicalAgent(
        agent_id=ident,
        street="1 RUE X",
        zipcode="69001",
        city="LYON",
        department="69",
        country="FRANCE",
        case_kinds=[CaseKind.SINGLETON],
    )


def small_world():
    lots = [
        make_lot(1, award_date=dt.date(2015, 7, 1), contract_type=ContractType.WORKS,
                 awarded_value=Decimal("1200.50"), currency="EUR"),
        make_lot(2),
    ]
    occurrences = [
        make_occurrence(1, 1, role=Role.BUYER, identifier=SIRET_A,
                        identifier_source="matched"),
        make_occurrence(2, 1, role=Role.WINNER, identifier=SIRET_A,
                        identifier_source="declared"),
        make_occurrence(3, 2, role=Role.BUYER, identifier=INTERNAL_1),
    ]
    agents = [agent(SIRET_A), agent(INTERNAL_1)]
    names = [AgentName(SIRET_A, "MAIRIE DE LYON"), AgentName(INTERNAL_1, "AGENT TROIS")]
    criteria = [
        Criterion(lot_id=1, raw_name="", criterion_class=CriterionClass.PRICE,
                  weight=Decimal("60.00"), weight_is_normalized=True),
        Criterion(lot_id=1, raw_name="Qualité", criterion_class=CriterionClass.TECHNICAL,
                  weight=Decimal("40.00"), weight_is_normalized=True),
    ]
    return lots, agents, names, occurrences, criteria


class TestBuildTables:
    def test_all_tables_present(self):
        schema = build_tables(*small_world())
        assert tuple(schema) == TABLE_ORDER

    def test_lots_rows(self):
        schema = build_tables(*small_world())
        rows = schema["Lots"].rows
        assert len(rows) == 2
        assert rows[0][0] == 1
        assert rows[0][3] == "2015-06-01"
        assert rows[0][4] == "2015-07-01"
        assert rows[0][5] == "works"
        assert rows[0][8] == "1200.50"
        assert rows[1][4] is None

    def test_agents_sorted_by_id(self):
        schema = build_tables(*small_world())
        ids = [r[0] for r in schema["Agents"].rows]
        assert ids == sorted(ids)
        kinds = dict(zip(ids, (r[1] for r in schema["Agents"].rows)))
        assert kinds["11111111100011"] == "siret"
        assert kinds["U000001"] == "internal"

    def test_names_one_row_per_name(self):
        lots, agents, names, occs, crit = small_world()
        names.insert(0, AgentName(SIRET_A, "VILLE DE LYON"))
        schema = build_tables(lots, agents, names, occs, crit)
        assert ("11111111100011", "MAIRIE DE LYON") in schema["Names"].rows
        assert ("11111111100011", "VILLE DE LYON") in schema["Names"].rows
        # an agent's name is its smallest, in whatever order its rows come
        assert schema["Agents"].rows[0][:3] == ("11111111100011", "siret", "MAIRIE DE LYON")

    def test_links_split_roles(self):
        schema = build_tables(*small_world())
        assert schema["LotBuyers"].rows == [
            (1, "11111111100011", "matched", 0),
            (2, "U000001", "none", 0),
        ]
        assert schema["LotSuppliers"].rows == [(1, "11111111100011", "declared", 0)]

    def test_duplicate_links_collapse(self):
        lots, agents, names, occs, crit = small_world()
        occs.append(make_occurrence(4, 1, role=Role.BUYER, identifier=SIRET_A,
                                    identifier_source="merged", split_conflict=True))
        schema = build_tables(lots, agents, names, occs, crit)
        row = schema["LotBuyers"].rows[0]
        assert row == (1, "11111111100011", "matched+merged", 1)

    def test_links_collapse_to_distinct_sources_in_order(self):
        """Sorted, a (lotId, agentId) pair's sources are distinct and in
        order, and the row is split when any link is, not just the last."""
        lots, agents, names, occs, crit = small_world()
        occs += [
            make_occurrence(4, 1, role=Role.BUYER, identifier=SIRET_A,
                            identifier_source="declared", split_conflict=True),
            make_occurrence(5, 1, role=Role.BUYER, identifier=SIRET_A,
                            identifier_source="matched"),
        ]
        schema = build_tables(lots, agents, names, occs, crit)
        assert schema["LotBuyers"].rows[0] == (1, "11111111100011", "declared+matched", 1)

    def test_criteria_ordinals(self):
        schema = build_tables(*small_world())
        assert schema["Criteria"].rows == [
            (1, 1, "", "PRICE", "60.00", 1),
            (1, 2, "Qualité", "TECHNICAL", "40.00", 1),
        ]

    def test_missing_assignment_fatal(self):
        lots, agents, names, occs, crit = small_world()
        occs[2].identifier = None
        with pytest.raises(InvariantError, match="no agent assignment"):
            build_tables(lots, agents, names, occs, crit)

    def test_dangling_criteria_fatal(self):
        lots, agents, names, occs, crit = small_world()
        crit.append(Criterion(lot_id=99, raw_name="X",
                              criterion_class=CriterionClass.OTHERS, weight=None))
        with pytest.raises(InvariantError, match="dangling"):
            build_tables(lots, agents, names, occs, crit)


class TestVerifyIntegrity:
    def test_clean(self):
        assert verify_integrity(build_tables(*small_world())) == []

    def test_duplicate_key_detected(self):
        schema = build_tables(*small_world())
        schema["Lots"].rows.append(schema["Lots"].rows[0])
        problems = verify_integrity(schema)
        assert any("duplicate primary key" in p for p in problems)

    def test_dangling_fk_detected(self):
        schema = build_tables(*small_world())
        schema["Names"].rows.append(("99999999999999", "GHOST"))
        problems = verify_integrity(schema)
        assert any("Names.agentId" in p and "dangling" in p for p in problems)

    def test_reference_to_unknown_table(self):
        names = Table("Names", ["agentId", "name"], ["agentId", "name"], ["TEXT", "TEXT"],
                      rows=[("A", "X")], foreign=[("agentId", "Agents", "agentId")])
        assert verify_integrity({"Names": names}) == [
            "Names: reference to unknown table Agents"
        ]

    def test_duplicate_key_messages(self):
        schema = build_tables(*small_world())
        schema["Lots"].rows.append(schema["Lots"].rows[0])
        schema["LotBuyers"].rows.append(schema["LotBuyers"].rows[1])
        assert verify_integrity(schema) == [
            "Lots: duplicate primary key (1,)",
            "LotBuyers: duplicate primary key (2, 'U000001')",
        ]

    def test_more_than_five_dangling_values(self):
        schema = build_tables(*small_world())
        schema["Names"].rows += [(f"G{n}", "GHOST") for n in range(7, 0, -1)]
        schema["Criteria"].rows += [
            (lot_id, 1, "X", "OTHERS", None, 0) for lot_id in (9, 100, 10, 12, 11, 13)
        ]
        assert verify_integrity(schema) == [
            "Names.agentId: 7 dangling value(s): G1, G2, G3, G4, G5",
            "Criteria.lotId: 6 dangling value(s): 10, 100, 11, 12, 13",
        ]


def _assert_cells_fit_declared_types(schema):
    """An INTEGER cell is an int or None, never a bool; any other cell is a
    str or None: emit's row functions pick a cell's form by declared type."""
    for table in schema.values():
        for i, (column, sql_type) in enumerate(zip(table.columns, table.types)):
            kinds = {type(row[i]) for row in table.rows} - {type(None)}
            assert kinds <= ({int} if sql_type == "INTEGER" else {str}), (table.name, column)


class TestDeclaredTypes:
    def test_small_world(self):
        _assert_cells_fit_declared_types(build_tables(*small_world()))

    def test_bench_shaped_corpus(self, tmp_path, monkeypatch):
        built = []

        def keep(*args):
            built.append(build_tables(*args))
            return built[-1]

        monkeypatch.setattr(emit_mod, "build_tables", keep)
        run_pipeline(corpus_config(tmp_path / "in", tmp_path / "out", rows=600, seed=0,
                                   registry_agents=8))
        (schema,) = built
        assert all(schema[name].rows for name in TABLE_ORDER)
        _assert_cells_fit_declared_types(schema)


class TestWriteOutputs:
    def test_csv_byte_identical_across_runs(self, tmp_path):
        schema = build_tables(*small_world())
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        write_csv(schema, str(dir_a))
        write_csv(build_tables(*small_world()), str(dir_b))
        for name in TABLE_ORDER:
            assert (dir_a / f"{name}.csv").read_bytes() == (
                dir_b / f"{name}.csv"
            ).read_bytes()

    def test_none_renders_empty(self, tmp_path):
        schema = build_tables(*small_world())
        write_csv(schema, str(tmp_path))
        lots = (tmp_path / "Lots.csv").read_text(encoding="utf-8").splitlines()
        assert lots[2].split(",")[4] == ""

    def test_roundtrip(self, tmp_path):
        schema = build_tables(*small_world())
        write_csv(schema, str(tmp_path))
        assert verify_roundtrip(schema, str(tmp_path)) == []

    def test_roundtrip_detects_tampering(self, tmp_path):
        schema = build_tables(*small_world())
        write_csv(schema, str(tmp_path))
        path = tmp_path / "Lots.csv"
        path.write_text(path.read_text(encoding="utf-8").replace("works", "spoofed"),
                        encoding="utf-8")
        assert any("Lots" in p for p in verify_roundtrip(schema, str(tmp_path)))

    @pytest.mark.parametrize("edit", ["drop-last", "repeat-row"])
    def test_roundtrip_detects_missing_or_extra_row(self, tmp_path, edit):
        schema = build_tables(*small_world())
        write_csv(schema, str(tmp_path))
        path = tmp_path / "Lots.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines = lines[:-1] if edit == "drop-last" else lines + [lines[1]]
        path.write_text("".join(lines), encoding="utf-8")
        assert verify_roundtrip(schema, str(tmp_path)) == [
            "Lots: rows differ after round-trip"
        ]

    def test_roundtrip_detects_header_mismatch(self, tmp_path):
        schema = build_tables(*small_world())
        write_csv(schema, str(tmp_path))
        path = tmp_path / "Names.csv"
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("agentId,name\n", "agentId,alias\n", 1), encoding="utf-8")
        assert verify_roundtrip(schema, str(tmp_path)) == [
            "Names: header mismatch after round-trip"
        ]

    def test_sql_dump_reloads_in_sqlite(self, tmp_path):
        schema = build_tables(*small_world())
        sql_path = tmp_path / "foppa.sql"
        write_sql_dump(schema, str(sql_path))
        connection = sqlite3.connect(":memory:")
        connection.executescript(sql_path.read_text(encoding="utf-8"))
        for name in TABLE_ORDER:
            count = connection.execute(f"SELECT COUNT(*) FROM {name}").fetchone()[0]
            assert count == len(schema[name].rows), name
        # spot-check a value and the declared keys
        value = connection.execute(
            "SELECT awardedValue FROM Lots WHERE lotId = 1"
        ).fetchone()[0]
        assert value in ("1200.50", 1200.5)
        fk = connection.execute("PRAGMA foreign_key_list(Names)").fetchall()
        assert fk and fk[0][2] == "Agents"
        connection.close()

    def test_sql_quotes_escaped(self, tmp_path):
        lots, agents, names, occs, crit = small_world()
        names[1] = AgentName(INTERNAL_1, "L'AGENT")
        schema = build_tables(lots, agents, names, occs, crit)
        sql_path = tmp_path / "foppa.sql"
        write_sql_dump(schema, str(sql_path))
        connection = sqlite3.connect(":memory:")
        connection.executescript(sql_path.read_text(encoding="utf-8"))
        names = connection.execute(
            "SELECT name FROM Names WHERE agentId = 'U000001'"
        ).fetchall()
        assert ("L'AGENT",) in names
        connection.close()


def _sql_literal(value) -> str:
    """A cell's SQL literal by its value's type: the oracle for emit's row
    functions, which go by the column's declared type."""
    if value is None:
        return "NULL"
    if isinstance(value, int):
        return str(value)
    text = str(value)
    return "'" + text.replace("'", "''") + "'"


def _csv_bytes(table) -> bytes:
    """The table as csv.writer writes it, a cell holding "\\r" quoted on every
    Python version, each row ending in "\\n"."""
    lines = []
    for row in [table.columns, *table.rows]:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        lines.append(buf.getvalue().removesuffix("\r\n") + "\n")
    return "".join(lines).encode("utf-8")


# text with what csv quotes, what SQL escapes, U+0085 and non-ASCII; no NUL,
# which no lot line that holds one reaches emit with
_CELL_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from("'\",\r\n\x85 Aé"),
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"),
    ),
    max_size=5,
)
_CELL_INT = st.one_of(st.just(0), st.integers(-10**6, 10**6))


@st.composite
def _awkward_schema(draw):
    """small_world()'s six tables, their rows replaced by rows of awkward
    cells that keep each column's declared type and each key unique."""
    schema = build_tables(*small_world())
    for table in schema.values():
        keys = [table.columns.index(k) for k in table.key]
        cells = []
        for i, sql_type in enumerate(table.types):
            value = _CELL_INT if sql_type == "INTEGER" else _CELL_TEXT
            cells.append(value if i in keys else st.one_of(st.none(), value))
        table.rows = draw(st.lists(st.tuples(*cells), max_size=6,
                                   unique_by=lambda row, keys=keys: tuple(row[i] for i in keys)))
    return schema


def _tables(connection) -> dict[str, list[tuple]]:
    """Each table's rows in insertion order, each value with its type."""
    return {
        name: [tuple((type(v), v) for v in row)
               for row in connection.execute(f"SELECT * FROM {name} ORDER BY rowid")]
        for name in TABLE_ORDER
    }


@given(schema=_awkward_schema())
@settings(max_examples=100, deadline=None)
def test_awkward_cells_are_csv_writer_bytes_and_the_old_sql(tmp_path_factory, schema):
    out = tmp_path_factory.mktemp("emit")
    write_csv(schema, str(out))
    for name in TABLE_ORDER:
        assert (out / f"{name}.csv").read_bytes() == _csv_bytes(schema[name]), name
    assert verify_roundtrip(schema, str(out)) == []

    write_sql_dump(schema, str(out / "foppa.sql"))
    empty = {name: dataclasses.replace(t, rows=[]) for name, t in schema.items()}
    write_sql_dump(empty, str(out / "schema.sql"))
    creates = (out / "schema.sql").read_bytes().decode("utf-8").removesuffix("COMMIT;\n")
    inserts = "".join(
        f"INSERT INTO {name} VALUES ({', '.join(map(_sql_literal, row))});\n"
        for name in TABLE_ORDER for row in schema[name].rows
    )
    dump = (out / "foppa.sql").read_bytes().decode("utf-8")
    assert dump == creates + inserts + "COMMIT;\n"

    # reloaded, each table holds what inserting its values as parameters gives
    reloaded = sqlite3.connect(":memory:")
    reloaded.executescript(dump)
    expected = sqlite3.connect(":memory:")
    expected.executescript(creates + "COMMIT;\n")
    for name in TABLE_ORDER:
        marks = ", ".join("?" * len(schema[name].columns))
        expected.executemany(f"INSERT INTO {name} VALUES ({marks})", schema[name].rows)
    assert _tables(reloaded) == _tables(expected)
    reloaded.close()
    expected.close()
