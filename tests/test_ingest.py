import datetime as dt
import itertools
import logging
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tedclean.config import MANDATORY_FIELDS, PipelineConfig
from tedclean.ingest import (
    LINE_WARNINGS,
    AgentFields,
    lot_builder,
    parse_date,
    parse_decimal,
    parse_table,
    run_ingest,
    separator_patterns,
    separators_in,
    split_joint_agents,
)
from tedclean.models import (
    ConfigError,
    ContractType,
    InputError,
    LotRecord,
    RawLotRow,
    Role,
    RowRejection,
)

import separator_oracle as oracle
from conftest import lot_row, respelled, write_lot_file

DELIMITER = PipelineConfig().delimiter
# every mandatory field named, on a file whose header is A,B
AB_MAP = {**dict.fromkeys(MANDATORY_FIELDS["column_map"], "A"), "lot_number": "B"}


class TestSeparators:
    def test_homogeneous_run_matches_longer(self):
        (pattern,) = separator_patterns(("---",))
        assert pattern.search("a----b")
        assert pattern.search("a---b")
        assert not pattern.search("a--b")

    def test_mixed_separator_is_literal(self):
        (pattern,) = separator_patterns((" // ",))
        assert pattern.search("a // b")
        assert not pattern.search("a//b")

    def test_detect_longest_first(self):
        seps = ["---", "///", " / ", ";"]
        assert separators_in("a --- b; c", seps) == list(separator_patterns(("---", ";")))
        assert separators_in("nothing", seps) == []

    def test_split_strips_parts(self):
        parts = split_joint_agents(AgentFields(name="a --- b ----- c"), ["---"])
        assert [p.name for p, _ in parts] == ["a", "b", "c"]

    @given(
        st.builds(AgentFields, oracle.cells, oracle.cells, oracle.cells,
                  oracle.cells, oracle.cells, oracle.cells),
        oracle.separator_lists,
    )
    @settings(max_examples=400)
    def test_split_joint_agents_equals_per_call_oracle(self, fields, separators):
        assert split_joint_agents(fields, separators) == oracle.split_joint_agents(
            fields, separators
        )


class TestParseDecimal:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("12 000,50", Decimal("12000.50")),
            ("1.234.567,89", Decimal("1234567.89")),
            ("1,234,567.89", Decimal("1234567.89")),
            ("1234.5", Decimal("1234.5")),
            ("60", Decimal("60")),
            ("60 %", Decimal("60")),
            ("EUR 1 500", Decimal("1500")),
            ("n/a", None),
            ("", None),
            (None, None),
            ("12 345,6", Decimal("12345.6")),
            ("-250", Decimal("-250")),
            # one mark alone that repeats is grouping, a comma or a dot alike
            ("1,234,567", Decimal("1234567")),
            ("1.234.567", Decimal("1234567")),
            # both marks, the rightmost repeated: its last one is the decimal point
            ("1,234.567.89", Decimal("1234567.89")),
        ],
    )
    def test_cases(self, raw, expected):
        assert parse_decimal(raw) == expected

    @given(st.decimals(allow_nan=False, allow_infinity=False, places=2,
                       min_value=-(10 ** 9), max_value=10 ** 9))
    @settings(max_examples=200)
    def test_roundtrip_plain(self, value):
        assert parse_decimal(str(value)) == value


class TestParseTable:
    def test_reads_rows(self, tmp_path):
        path = write_lot_file(tmp_path / "lots.csv", [lot_row("n1", "1"), lot_row("n2", "1")])
        parsed = parse_table(path, PipelineConfig().column_map, DELIMITER)
        assert len(parsed.rows) == 2
        assert parsed.skipped == 0
        assert parsed.rows[0].source_line == 2

    def test_bad_cell_count_skipped(self, tmp_path):
        path = tmp_path / "lots.csv"
        path.write_text("A,B,C\n1,2,3\n1,2\n1,2,3,4\n\n4,5,6\n", encoding="utf-8")
        parsed = parse_table(str(path), AB_MAP, DELIMITER)
        assert len(parsed.rows) == 2
        assert parsed.skipped == 2

    def test_unbalanced_quote_skipped_line_only(self, tmp_path):
        path = tmp_path / "lots.csv"
        path.write_text('A,B\n"broken,2\nok,3\n', encoding="utf-8")
        parsed = parse_table(str(path), AB_MAP, DELIMITER)
        assert [r.fields["notice_id"] for r in parsed.rows] == ["ok"]
        assert parsed.skipped == 1

    def test_nul_line_skipped(self, tmp_path):
        path = tmp_path / "lots.csv"
        path.write_text("A,B\n1,2\nx\0y,3\n4,5\n", encoding="utf-8")
        parsed = parse_table(str(path), AB_MAP, DELIMITER)
        assert [r.fields["notice_id"] for r in parsed.rows] == ["1", "4"]
        assert parsed.skipped == 1

    def test_duplicate_identities_counted(self, tmp_path):
        rows = [lot_row("n1", "1"), lot_row("n1", "1"), lot_row("n1", "2")]
        path = write_lot_file(tmp_path / "lots.csv", rows)
        parsed = parse_table(path, PipelineConfig().column_map, DELIMITER)
        assert parsed.duplicate_identities == 1
        assert len(parsed.rows) == 3

    def test_line_warnings_are_capped(self, tmp_path, caplog):
        # 30 lines of three cells, and the first line's identity 5 times more
        problems = ["d,1" if i % 7 == 6 else "x,y,z" for i in range(35)]
        path = tmp_path / "lots.csv"
        path.write_text("\n".join(["A,B", "d,1", *problems]) + "\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="tedclean.ingest"):
            parsed = parse_table(str(path), AB_MAP, DELIMITER)
        assert (parsed.skipped, parsed.duplicate_identities, len(parsed.rows)) == (30, 5, 6)
        assert LINE_WARNINGS == 20
        shown = caplog.messages[:LINE_WARNINGS]
        assert [int(m.split(":")[1]) for m in shown] == list(range(3, 23))
        assert sum("duplicate row identity" in m for m in shown) == 2
        assert caplog.messages[LINE_WARNINGS:] == [
            f"{path}: 15 more skipped lines and duplicate identities not shown;"
            " checkpoints/ingest/stats.json counts them all"
        ]

    def test_missing_mandatory_column_is_config_error(self, tmp_path):
        path = tmp_path / "lots.csv"
        path.write_text("X,Y\n1,2\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="ID_NOTICE_CAN"):
            parse_table(str(path), PipelineConfig().column_map, DELIMITER)

    def test_missing_file_is_input_error(self):
        with pytest.raises(InputError):
            parse_table("/nonexistent/lots.csv", {"notice_id": "A"}, DELIMITER)

    def test_empty_file_is_input_error(self, tmp_path):
        path = tmp_path / "lots.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(InputError):
            parse_table(str(path), {"notice_id": "A"}, DELIMITER)

    # str.splitlines breaks lines at each of these; a cell may hold them.
    @pytest.mark.parametrize(
        "char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_only_newline_ends_a_line(self, tmp_path, char):
        rows = [
            lot_row("n1", "1", CAE_NAME=f"Mairie{char} de Lyon"),
            lot_row("n2", "1", CAE_NAME=f"Region{char}Sud"),
            lot_row("n3", "1"),
        ]
        path = write_lot_file(tmp_path / "lots.csv", rows)
        parsed = parse_table(path, PipelineConfig().column_map, DELIMITER)
        assert parsed.skipped == 0
        assert [r.source_line for r in parsed.rows] == [2, 3, 4]
        assert parsed.rows[0].fields["buyer_name"] == f"Mairie{char} de Lyon"

    def test_crlf_line_ends(self, tmp_path):
        path = tmp_path / "lots.csv"
        path.write_text("A,B\r\n1,2\r\n\r\n3,4\r\n", encoding="utf-8", newline="")
        parsed = parse_table(str(path), AB_MAP, DELIMITER)
        assert [(r.fields["lot_number"], r.source_line) for r in parsed.rows] == [("2", 2), ("4", 4)]
        assert parsed.skipped == 0


def _build(cells: dict, **config_kw) -> LotRecord | RowRejection:
    config = PipelineConfig(**config_kw)
    cells = lot_row(**cells) if "ID_NOTICE_CAN" not in cells else cells
    fields = {field: cells.get(column, "").strip() for field, column in config.column_map.items()}
    row = RawLotRow(fields=fields, source_file="f.csv", source_line=2)
    return lot_builder(config)(row, 7)


class TestBuildLot:
    def test_happy_path(self):
        lot = _build(dict(
            notice="123", lot="2", DT_DISPATCH="2015-03-04", DT_AWARD="01/03/2015",
            TYPE_OF_CONTRACT="WORKS", CPV="45210000", NUMBER_OFFERS="4",
            AWARD_VALUE_EURO="1 200,50", CURRENCY="EUR", ID_NOTICE_CN="777",
        ))
        assert isinstance(lot, LotRecord)
        assert lot.lot_id == 7
        assert lot.notice_id == "123"
        assert lot.publication_date == dt.date(2015, 3, 4)
        assert lot.award_date == dt.date(2015, 3, 1)
        assert lot.contract_type is ContractType.WORKS
        assert lot.activity_code == "45210000"
        assert lot.number_of_offers == 4
        assert lot.awarded_value == Decimal("1200.50")
        assert lot.currency == "EUR"
        assert lot.contract_notice_ref == "777"
        assert lot.cancelled is False

    def test_rejections(self):
        assert _build(dict(notice="", lot="1")).reason == "missing-notice-id"
        assert _build(dict(notice="1", lot="1", DT_DISPATCH="")).reason == "missing-publication-date"
        assert _build(dict(notice="1", lot="1", DT_DISPATCH="garbage")).reason == "missing-publication-date"
        assert _build(dict(notice="1", lot="1", DT_DISPATCH="2009-12-31")).reason == "out-of-period"
        assert _build(dict(notice="1", lot="1", DT_DISPATCH="2021-01-01")).reason == "out-of-period"

    def test_absent_optionals(self):
        lot = _build(dict(notice="1", lot="", TYPE_OF_CONTRACT="UNKNOWN",
                          NUMBER_OFFERS="three", AWARD_VALUE_EURO="-5"))
        assert lot.contract_type is None
        assert lot.number_of_offers is None
        assert lot.awarded_value is None
        assert lot.award_date is None

    @pytest.mark.parametrize("offers", ["²", "٣", "１"])
    def test_non_ascii_digits_are_no_count(self, offers):
        assert _build(dict(notice="1", lot="1", NUMBER_OFFERS=offers)).number_of_offers is None

    @pytest.mark.parametrize("zeros", [0, 5000])
    def test_counts_end_at_sql_integer(self, zeros):
        def offers(count):
            return _build(dict(notice="1", lot="1", NUMBER_OFFERS="0" * zeros + str(count)))

        assert offers((1 << 63) - 1).number_of_offers == (1 << 63) - 1
        assert offers(1 << 63).number_of_offers is None

    def test_values_end_at_sql_real(self):
        def value(text):
            return _build(dict(notice="1", lot="1", AWARD_VALUE_EURO=text)).awarded_value

        # sqlite reloads the first as 1e+308 and the second as inf
        assert value("1" + "0" * 308) == Decimal("1" + "0" * 308)
        assert value("9" * 309) is None

    def test_cancelled_by_marker_without_winner(self):
        lot = _build(dict(notice="1", lot="1", WIN_NAME="", CANCELLED="1"))
        assert lot.cancelled is True

    def test_marker_with_winner_trusts_winner(self):
        lot = _build(dict(notice="1", lot="1", WIN_NAME="Vraie Entreprise", CANCELLED="1"))
        assert lot.cancelled is False

    def test_cancelled_by_winner_name(self):
        for name in ("infructueux", "Lot INFRUCTUEUX", "Sans suite"):
            lot = _build(dict(notice="1", lot="1", WIN_NAME=name))
            assert lot.cancelled is True, name

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_configured_words_fold_like_the_cells(self, data):
        """Markers and contract-type keys spelled any way a person might give
        the lots the defaults give them."""
        defaults = PipelineConfig()
        markers = [data.draw(respelled(m)) for m in defaults.unsuccessful_markers]
        types = {data.draw(respelled(k)): v for k, v in defaults.contract_type_values.items()}
        winners = [*defaults.unsuccessful_markers, "Sans-suite", "Entreprise Durand", ""]
        cells = [*defaults.contract_type_values, "travaux", " Services.", "UNKNOWN", ""]
        for winner, cell in itertools.product(winners, cells):
            row = dict(notice="1", lot="1", WIN_NAME=winner, TYPE_OF_CONTRACT=cell)
            respelled_lot = _build(row, unsuccessful_markers=markers, contract_type_values=types)
            assert respelled_lot == _build(row), (winner, cell)

    def test_contract_type_keys_folding_alike_must_agree(self):
        row = dict(notice="1", lot="1", TYPE_OF_CONTRACT="WORKS")
        same = {"Travaux": ContractType.WORKS, "TRAVAUX": ContractType.WORKS}
        assert _build(row, contract_type_values=same).contract_type is None
        apart = {"Travaux": ContractType.WORKS, "TRAVAUX ": ContractType.GOODS}
        with pytest.raises(ConfigError, match="'Travaux' and 'TRAVAUX '"):
            _build(row, contract_type_values=apart)


def lot_cells(notice="n", lot="1", **cells):
    return lot_row(notice, lot, **cells)


class TestSplitJointAgents:
    SEPS = ["---", "///", " // ", " / ", ";"]

    def test_no_separator_passthrough(self):
        fields = AgentFields(name="Commune de Brest", street="2 rue de Siam")
        assert split_joint_agents(fields, self.SEPS) == [(fields, False)]

    def test_aligned_split(self):
        fields = AgentFields(
            name="A --- B", street="ra --- rb", zipcode="11111 --- 22222",
            city="ca --- cb", country="FR", siret="11111111100011 --- 22222222200022",
        )
        parts = split_joint_agents(fields, self.SEPS)
        assert [p.name for p, _ in parts] == ["A", "B"]
        assert [p.street for p, _ in parts] == ["ra", "rb"]
        assert [p.zipcode for p, _ in parts] == ["11111", "22222"]
        assert [p.city for p, _ in parts] == ["ca", "cb"]
        assert [p.country for p, _ in parts] == ["FR", "FR"]
        assert [p.siret for p, _ in parts] == ["11111111100011", "22222222200022"]
        assert all(conflict is False for _, conflict in parts)

    def test_count_mismatch_keeps_unsplit_with_flag(self):
        fields = AgentFields(name="A --- B --- C", street="x --- y")
        parts = split_joint_agents(fields, self.SEPS)
        assert len(parts) == 1
        assert parts[0][0] is fields
        assert parts[0][1] is True

    def test_siret_never_duplicated(self):
        fields = AgentFields(name="A;B", siret="11111111100011")
        parts = split_joint_agents(fields, self.SEPS)
        assert [p.siret for p, _ in parts] == ["", ""]

    def test_empty_part_keeps_unsplit(self):
        fields = AgentFields(name="A --- ")
        parts = split_joint_agents(fields, self.SEPS)
        assert parts[0][0] is fields
        assert parts[0][1] is True

    def test_missing_secondary_fields_blank(self):
        fields = AgentFields(name="A /// B")
        parts = split_joint_agents(fields, self.SEPS)
        assert len(parts) == 2
        assert all(p.street == "" and p.zipcode == "" for p, _ in parts)

    @given(st.lists(st.text(alphabet="ABCDEF ", min_size=1, max_size=8), min_size=1, max_size=4))
    @settings(max_examples=100)
    def test_split_count_is_name_driven(self, names):
        clean = [n.strip() for n in names]
        if any(not n for n in clean):
            return
        joint = " --- ".join(clean)
        fields = AgentFields(name=joint)
        parts = split_joint_agents(fields, self.SEPS)
        if len(clean) == 1:
            assert len(parts) == 1
        else:
            assert [p.name for p, _ in parts] == clean


class TestRunIngest:
    def test_end_to_end(self, tmp_path):
        rows = [
            lot_row("n1", "1", WIN_NATIONALID="12345678900011"),
            lot_row("n2", "1", CAE_NAME="Ville A --- Ville B",
                    CAE_ADDRESS="r1 --- r2", CAE_POSTAL_CODE="11111 --- 22222",
                    CAE_TOWN="c1 --- c2"),
            lot_row("n3", "1", WIN_NAME="INFRUCTUEUX"),
            lot_row("", "1"),
        ]
        path = write_lot_file(tmp_path / "lots.csv", rows)
        config = PipelineConfig(lot_files=[path])
        result = run_ingest(config)

        assert [lot.notice_id for lot in result.lots] == ["n1", "n2", "n3"]
        assert [r.reason for r in result.rejections] == ["missing-notice-id"]
        assert len(result.criteria_raw) == 3

        # n1: buyer + winner; n2: 2 buyers + winner; n3: buyer only (cancelled)
        assert len(result.occurrences) == 6
        assert [o.occurrence_id for o in result.occurrences] == [1, 2, 3, 4, 5, 6]
        n3_lot = result.lots[2]
        assert n3_lot.cancelled is True
        n3_occs = [o for o in result.occurrences if o.lot_id == n3_lot.lot_id]
        assert {o.role for o in n3_occs} == {Role.BUYER}

        split = [o for o in result.occurrences if o.lot_id == result.lots[1].lot_id
                 and o.role is Role.BUYER]
        assert [o.raw_name for o in split] == ["Ville A", "Ville B"]
        assert [o.zipcode for o in split] == ["11111", "22222"]
        assert result.descriptions_before_split == 5

    def test_multiple_files_sequential_ids(self, tmp_path):
        p1 = write_lot_file(tmp_path / "a.csv", [lot_row("a1", "1")])
        p2 = write_lot_file(tmp_path / "b.csv", [lot_row("b1", "1")])
        result = run_ingest(PipelineConfig(lot_files=[p1, p2]))
        assert [lot.lot_id for lot in result.lots] == [1, 2]
        assert [o.occurrence_id for o in result.occurrences] == [1, 2, 3, 4]


    def test_repeated_descriptions_are_split_as_each_alone(self, tmp_path, caplog):
        """Each distinct description is split once and its parts reused: every
        occurrence is what splitting its own row's cells gives."""
        mairie = dict(CAE_NAME="Mairie", CAE_NATIONALID="12345678900011", CAE_TOWN="Lyon")
        # the joint one, the conflicting one, and Mairie with each cell changed
        buyers = [
            dict(CAE_NAME="Ville A --- Ville B", CAE_ADDRESS="r1 --- r2", CAE_COUNTRY="FR"),
            dict(CAE_NAME="Ville A --- Ville B", CAE_ADDRESS="r1 --- r2 --- r3"),
            mairie, {**mairie, "CAE_NAME": "Mairie 2"}, {**mairie, "CAE_ADDRESS": "1 rue"},
            {**mairie, "CAE_POSTAL_CODE": "69001"}, {**mairie, "CAE_TOWN": "Brest"},
            {**mairie, "CAE_COUNTRY": "FR"}, {**mairie, "CAE_NATIONALID": ""},
        ]
        winners = ["Durand", "Durand --- Martin", "INFRUCTUEUX", ""]
        rows = [lot_row(f"n{i}", "1", **buyers[i % 9], WIN_NAME=winners[i % 4])
                for i in range(18)]
        path = write_lot_file(tmp_path / "lots.csv", rows)
        with caplog.at_level(logging.DEBUG, logger="tedclean.ingest"):
            result = run_ingest(PipelineConfig(lot_files=[path]))

        expected = []
        for lot, row in zip(result.lots, rows):
            for role, prefix in ((Role.BUYER, "CAE"), (Role.WINNER, "WIN")):
                cells = AgentFields(*(row.get(f"{prefix}_{column}", "") for column in (
                    "NAME", "ADDRESS", "POSTAL_CODE", "TOWN", "COUNTRY", "NATIONALID")))
                if not cells.name or (role is Role.WINNER and lot.cancelled):
                    continue
                for part, conflict in split_joint_agents(cells, PipelineConfig().separators):
                    expected.append((lot.lot_id, role, part.name, part.street or None,
                                     part.zipcode or None, part.city or None,
                                     part.country or None, part.siret or None, conflict))
        assert [(o.lot_id, o.role, o.raw_name, o.street, o.zipcode, o.city, o.country,
                 o.declared_siret, o.split_conflict) for o in result.occurrences] == expected
        assert [o.occurrence_id for o in result.occurrences] == list(
            range(1, len(expected) + 1))
        assert result.descriptions_before_split == 28
        assert "ingest: 28 agent descriptions from 11 distinct" in caplog.messages


class TestParseDate:
    def test_formats(self):
        formats = ["%Y-%m-%d", "%d/%m/%Y"]
        assert parse_date("2015-06-01", formats) == dt.date(2015, 6, 1)
        assert parse_date("01/06/2015", formats) == dt.date(2015, 6, 1)
        assert parse_date("06/01/2015", formats) == dt.date(2015, 1, 6)
        assert parse_date("junk", formats) is None
        assert parse_date(None, formats) is None

    def test_memo_keeps_format_lists_apart(self):
        # one process, one memo: the second list must not get the first's entry
        assert parse_date("03/04/2016", ["%d/%m/%Y"]) == dt.date(2016, 4, 3)
        assert parse_date("03/04/2016", ["%m/%d/%Y"]) == dt.date(2016, 3, 4)
        assert parse_date(" 03/04/2016\t", ["%m/%d/%Y"]) == dt.date(2016, 3, 4)
