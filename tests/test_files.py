"""The input rules: how every input CSV is split and parsed, and how a
header maps to the configured fields; that write_rows writes what csv
writes; and that an output which cannot be put in place is a ConfigError
that leaves no temp file."""
from __future__ import annotations

import csv
import io
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tedclean.files import field_plan, parse_line, read_rows, replacing, write_rows
from tedclean.models import ConfigError, InputError

_DELIMITERS = st.sampled_from([",", ";", "\t", "|"])
# quotes, delimiters and line-end characters often enough to reach every csv state
_LINE = st.text(
    alphabet=st.one_of(st.sampled_from('",;\t|\r\0 x'), st.characters(blacklist_characters="\n")),
    max_size=30,
)


@given(line=_LINE, delimiter=_DELIMITERS)
@settings(max_examples=300)
def test_parse_line_is_strict_csv_of_the_line_alone(line, delimiter):
    if "\0" in line:  # on every Python version, whatever csv does with it
        with pytest.raises(csv.Error, match="NUL"):
            parse_line(line, delimiter)
        return
    try:
        expected = next(csv.reader([line], delimiter=delimiter, strict=True))
    except csv.Error:
        with pytest.raises(csv.Error):
            parse_line(line, delimiter)
    else:
        assert parse_line(line, delimiter) == expected


@given(line=st.text(alphabet=',;\t"\r\n\x00\x85 Aé', max_size=12), delimiter=_DELIMITERS)
@settings(max_examples=1000)
def test_parse_line_equals_csv_or_both_refuse(line, delimiter):
    """A quote-free line is split on the delimiter; what csv's strict reader
    makes of any line, a bare or quoted CR or LF too, is what parse_line
    gives, or both raise csv.Error."""
    try:
        expected = next(csv.reader([line], delimiter=delimiter, strict=True))
    except csv.Error:
        expected = None
    if "\0" in line:  # refused first, whatever csv does with it
        expected = None
    if expected is None:
        with pytest.raises(csv.Error):
            parse_line(line, delimiter)
    else:
        assert parse_line(line, delimiter) == expected


def test_unquoted_cell_over_csvs_field_limit_is_refused_as_csv_refuses_it():
    line = "a," + "x" * (csv.field_size_limit() + 1)
    with pytest.raises(csv.Error, match="field larger than field limit"):
        parse_line(line, ",")


_CELLS = st.text(
    alphabet=st.characters(blacklist_characters="\n\r\0", blacklist_categories=("Cs",)),
    max_size=12,
)


@given(
    rows=st.lists(st.lists(_CELLS, max_size=4), max_size=6),
    delimiter=_DELIMITERS,
    terminator=st.sampled_from(["\n", "\r\n"]),
)
@settings(max_examples=200)
def test_read_rows_equals_whole_file_reader_on_files_that_keep_the_rule(
    tmp_path_factory, rows, delimiter, terminator
):
    """Where no cell holds a line break, reading line by line changes nothing."""
    buffer = io.StringIO(newline="")
    csv.writer(buffer, delimiter=delimiter, lineterminator=terminator).writerows(rows)
    path = tmp_path_factory.mktemp("rows") / "table.csv"
    path.write_text(buffer.getvalue(), encoding="utf-8", newline="")
    whole = list(csv.reader(io.StringIO(buffer.getvalue(), newline=""), delimiter=delimiter))
    assert read_rows(str(path), "table", delimiter) == whole


def test_only_newline_ends_a_line_and_blank_lines_are_empty_rows(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("a,b\r\nc\x85d,e f\n\ng", encoding="utf-8", newline="")
    assert read_rows(str(path), "table", ",") == [
        ["a", "b"], ["c\x85d", "e f"], [], ["g"],
    ]



# duplicate, blank and padded names, and one no header has
_NAMES = st.sampled_from(["A", "B", " A", "B ", "", " ", "Z"])
_FIELDS = ("f1", "f2", "f3", "f4")  # f4 is never mapped
_PADDED = st.text(alphabet=" \txy", max_size=4)


def _header_dict_rule(header: list[str], field_map: dict[str, str], cells: list[str],
                      field: str) -> str:
    """The rule lot files had before the field plan: the row keyed by the
    stripped header, `dict(zip(...))` keeping the last of two same-named
    columns, then the field's column looked up, "" for an unmapped field
    or one mapped to ""."""
    row = dict(zip([name.strip() for name in header], cells))
    column = field_map.get(field)
    if not column:
        return ""
    return (row.get(column) or "").strip()


@given(data=st.data())
@settings(max_examples=300)
def test_field_plan_reads_what_the_header_dict_read(data):
    header = data.draw(st.lists(_NAMES, max_size=5))
    field_map = data.draw(st.dictionaries(st.sampled_from(_FIELDS[:3]), _NAMES))
    cells = data.draw(st.lists(_PADDED, min_size=len(header), max_size=len(header)))
    fields = field_plan("t.csv", "table", header, field_map, ())(cells)
    for field in _FIELDS:
        assert fields[field] == _header_dict_rule(header, field_map, cells, field), field


def test_short_row_reads_nothing_for_the_cells_it_lacks():
    fields = field_plan("t.csv", "table", ["A", "B", "A"], {"a": "A", "b": "B"}, ())
    assert fields([" 1 ", " 2 "]) == {"b": "2"}
    assert (fields([" 1 "])["a"], fields([" 1 "])["b"]) == ("", "")


@pytest.mark.parametrize("column", ["Z", "", " A"])
def test_missing_mandatory_column_is_config_error(column):
    message = f"table t.csv: header is missing mandatory column\\(s\\) {column}$"
    with pytest.raises(ConfigError, match=message):
        field_plan("t.csv", "table", ["A", "B"], {"a": column}, ["a"])


def test_missing_fixed_column_is_the_error_asked_for():
    with pytest.raises(InputError, match=r"^table t.csv: header is missing column\(s\) B, C$"):
        field_plan("t.csv", "table", ["A"], {"b": "B", "c": "C"}, ["b", "c"], InputError)


def test_output_that_cannot_replace_its_target_is_config_error(tmp_path):
    target = tmp_path / "table.csv"
    (target / "inside").mkdir(parents=True)  # a directory in the way
    with pytest.raises(ConfigError, match=f"cannot write {target}: "):
        with replacing(target) as fh:
            fh.write("lotId\n")
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


def _csv_bytes(header: list, rows: list) -> bytes:
    """What csv.writer writes for the header and rows, a cell holding "\\r"
    quoted on every Python version, each row ending in "\\n"."""
    lines = []
    for row in [header, *rows]:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        lines.append(buf.getvalue().removesuffix("\r\n") + "\n")
    return "".join(lines).encode("utf-8")


def test_write_rows_keeps_every_row_in_its_place(tmp_path):
    """Plain rows joined, and between them rows csv must write: a None or an
    int cell, a row of one "" cell, a cell csv quotes, an empty row."""
    header = ["lotId", "name"]
    odd = {3: [None, "x"], 700: [1, "Prix"], 701: (Decimal("1.50"), None), 900: [""],
           901: ["a,b", "c"], 1030: ['Valeur "technique"', ""], 1031: ["x\ny", "z"],
           1032: ["r\rs", "t"], 1500: []}
    rows = [odd.get(n, [str(n), f"nom {n} é"]) for n in range(1600)]
    path = tmp_path / "rows.csv"
    write_rows(path, header, rows)
    assert path.read_bytes() == _csv_bytes(header, rows)


_CELL = st.one_of(
    st.none(), st.integers(-5, 5),
    st.text(alphabet=',"\r\n\x85 Aé-', max_size=4), st.text(alphabet="AB é", max_size=4),
)


@given(rows=st.lists(st.lists(_CELL, max_size=3), max_size=12))
@settings(max_examples=300)
def test_write_rows_is_csv_writer_bytes(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("rows") / "rows.csv"
    write_rows(path, ["a", "b"], rows)
    assert path.read_bytes() == _csv_bytes(["a", "b"], rows)
