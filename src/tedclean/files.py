"""The one way tedclean writes a file, and the one way it reads an input.

Every output, checkpoint, log, table, dump and report alike, is written
under a temp name next to its target and renamed into place only once
complete, so a killed run leaves either the previous file or none, never
a truncated one. Every CSV output is one dialect: `,` with `\\n`.

Every input file is UTF-8. One that cannot be opened, decoded or parsed
is an InputError naming the file, never a traceback.
"""
from __future__ import annotations

import csv
import io
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .models import InputError


@contextmanager
def replacing(path: Path) -> Iterator[TextIO]:
    """A text file that replaces `path` only once it is completely written."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_rows(path: Path, header: list[str], rows: Iterable[Iterable]) -> None:
    """A CSV file: the header, then the rows; None is an empty cell and any
    other value its str()."""
    with replacing(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_text(path: str, what: str) -> str:
    """The whole of an input file, decoded as UTF-8, line endings kept."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc


def read_rows(path: str, what: str, delimiter: str) -> list[list[str]]:
    """Every row of an input CSV file, the header too if it has one."""
    text = read_text(path, what)
    try:
        return list(csv.reader(io.StringIO(text, newline=""), delimiter=delimiter))
    except csv.Error as exc:
        raise InputError(f"cannot parse {what} {path}: {exc}") from exc


def read_table(path: str, what: str, delimiter: str) -> tuple[list[str], list[dict[str, str]]]:
    """An input CSV file's header, and each non-blank row keyed by it; a
    short row has no key for the columns it lacks."""
    header, *rows = read_rows(path, what, delimiter) or [[]]
    return header, [dict(zip(header, row)) for row in rows if row]
