"""The one input line rule: how every input CSV is split and parsed."""
from __future__ import annotations

import csv
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tedclean.files import parse_line, read_rows

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

