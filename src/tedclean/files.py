"""The one way tedclean writes a file.

Every output, checkpoint, log, table, dump and report alike, is written
under a temp name next to its target and renamed into place only once
complete, so a killed run leaves either the previous file or none, never
a truncated one. Every CSV output is one dialect: `,` with `\\n`.
"""
from __future__ import annotations

import csv
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, TextIO


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
