"""The one way tedclean writes a file, and the one way it reads an input.

Every output, checkpoint, log, table, dump and report alike, is written
under a temp name next to its target and renamed into place only once
complete, so a killed run leaves either the previous file or none, never
a truncated one. An output whose temp file cannot be made, or cannot be
renamed into place (a directory in the way), is a ConfigError naming it,
never a traceback. Every CSV output, checkpoint, table, match log and
report alike, is written by one writer, `write_rows`, in one dialect, the
bytes of `csv_writer`: `,` with `\\n`, and a cell holding `\\r` quoted on
every Python version, as csv quotes it from Python 3.13 on, since csv reads
an unquoted `\\r` back as a line end.

Every input file is UTF-8, a leading byte-order mark dropped, and read
through `input_lines`; one that cannot be opened or decoded is an
InputError naming the file, never a traceback. Every input CSV, lot,
registry, postal and ground-truth file alike, is split and parsed by one
rule:

- a line ends only at "\\n" or "\\r\\n" (str.splitlines would also cut a
  row at U+0085, U+2028, form feeds and the like, which turn up inside
  cells);
- each line is parsed on its own by csv in strict mode, so a quote can
  neither swallow the lines after it nor join two lines into one row; a
  line with no quote and no line-end character is split on the delimiter,
  which is csv's own reading of it;
- a NUL is a parse failure on every Python version (csv takes it from
  Python 3.11 on; SQL engines do not).

A line that does not parse is the caller's to handle: ingest skips and
counts a bad lot line, `read_rows` stops at a bad reference-file line
with an InputError naming the file and the line.

Every table with a header, lot, registry and ground-truth file alike,
maps it to fields (a header map names each field's column) by one rule,
`field_plan`: header cells are stripped, and a field's column is the last
one with its name; a field mapped to "", to a column the header lacks, or
not at all has no column; a field reads its cell stripped, and "" without
a column or a cell; a mandatory field without a column is a ConfigError
when the config maps it, an InputError when tedclean fixes the header.
"""
from __future__ import annotations

import csv
import os
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from .models import ConfigError, InputError


@contextmanager
def replacing(path: Path) -> Iterator[TextIO]:
    """A text file that replaces `path` only once it is completely written;
    a ConfigError naming `path` when it cannot be made or put in place."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        fh = open(tmp, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from None
    except BaseException:
        with suppress(OSError):  # never raise over the error that got here
            tmp.unlink(missing_ok=True)
        raise


class _RowEnds:
    """What a `csv_writer` writes to: each row csv made with "\\r\\n", so
    that it quoted every cell holding "\\r", written to `fh` ending in "\\n"."""

    def __init__(self, fh: TextIO) -> None:
        self.fh = fh

    def write(self, row: str) -> int:
        return self.fh.write(row[:-2] + "\n")


def csv_writer(fh: TextIO):
    """A csv.writer of the one output dialect on fh."""
    return csv.writer(_RowEnds(fh), lineterminator="\r\n")


def write_rows(path: Path, header: list[str], rows: Iterable[Sequence]) -> None:
    """A CSV file: the header, then the rows; None is an empty cell and any
    other value its str().

    The one CSV writer. A row of str cells none of which needs quoting is
    written as its cells joined by commas; any other row (a None or int
    cell, a row of one "" cell, a cell holding what csv quotes) goes through
    `csv_writer`, so every byte is what csv writes. A caller with many rows
    passes str cells."""
    with replacing(path) as fh:
        writer = csv_writer(fh)
        writer.writerow(header)
        for row in rows:
            try:
                line = ",".join(row)
            except TypeError:  # a cell that is not a str
                writer.writerow(row)
                continue
            # not one "" cell, which csv writes as '""', and no cell holds a
            # comma, nor what csv_writer quotes or some csv version refuses:
            # '"', "\n", "\r", NUL (before 3.11)
            if (line and line.count(",") == len(row) - 1 and '"' not in line
                    and "\r" not in line and "\n" not in line and "\0" not in line):
                fh.write(line + "\n")
            else:
                writer.writerow(row)


def input_lines(path: str, what: str) -> list[str]:
    """The lines of an input file, line ends removed; none if it is empty."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc
    lines = text.removesuffix("\n").split("\n") if text else []
    return [line.removesuffix("\r") for line in lines]


def parse_line(line: str, delimiter: str) -> list[str]:
    """The cells of one input line; csv.Error when it does not parse on its own."""
    if "\0" in line:
        raise csv.Error("line contains NUL")
    # what csv's strict reader returns for a line it has nothing to unquote
    if (line and '"' not in line and "\r" not in line and "\n" not in line
            and len(line) <= csv.field_size_limit()):
        return line.split(delimiter)
    return next(csv.reader([line], delimiter=delimiter, strict=True))


def read_rows(path: str, what: str, delimiter: str) -> list[list[str]]:
    """Every row of an input CSV file, the header too if it has one; a blank
    line is an empty row."""
    rows = []
    for lineno, line in enumerate(input_lines(path, what), start=1):
        try:
            rows.append(parse_line(line, delimiter))
        except csv.Error as exc:
            raise InputError(f"cannot parse {what} {path}, line {lineno}: {exc}") from exc
    return rows


class Fields(dict):
    """One row's values by field; a field without a column reads ""."""

    def __missing__(self, field: str) -> str:
        return ""


def field_plan(path: str, what: str, header: list[str], field_map: dict[str, str],
               mandatory: Iterable[str], error: type[Exception] = ConfigError
               ) -> Callable[[list[str]], Fields]:
    """What reads `field_map`'s fields from a row under `header`; `error`
    when a mandatory field has no column."""
    position = {name.strip(): i for i, name in enumerate(header)}
    columns = {f: position[c] for f, c in field_map.items() if c and c in position}
    missing = [field_map[f] for f in mandatory if f not in columns]
    if missing:
        kind = "mandatory " if error is ConfigError else ""
        raise error(f"{what} {path}: header is missing {kind}column(s) {', '.join(missing)}")

    def fields(cells: list[str]) -> Fields:
        width = len(cells)
        return Fields({f: cells[i].strip() for f, i in columns.items() if i < width})

    return fields


def read_fields(path: str, what: str, delimiter: str, field_map: dict[str, str],
                mandatory: Iterable[str], error: type[Exception] = ConfigError) -> list[Fields]:
    """The fields of each non-blank data row of an input CSV file, read by
    the field plan of its header; an empty file has an empty header."""
    header, *rows = read_rows(path, what, delimiter) or [[]]
    fields = field_plan(path, what, header, field_map, mandatory, error)
    return [fields(row) for row in rows if row]
