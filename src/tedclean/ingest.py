"""Parse raw award-notice tables into typed lots and agent occurrences.

Parsing is line-based on purpose (the rule is in `files`): a malformed line
(bad quoting, wrong cell count) is skipped and counted, never silently
dropped and never allowed to swallow its neighbours.
"""
from __future__ import annotations

import csv
import datetime as dt
import logging
import math
import re
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from functools import lru_cache
from operator import itemgetter
from typing import Callable

from .config import MANDATORY_FIELDS, PipelineConfig
from .files import field_plan, input_lines, parse_line
from .models import (
    AgentOccurrence,
    CriteriaRaw,
    InputError,
    LotRecord,
    RawLotRow,
    Role,
    RowRejection,
    sql_integer,
)
from .normalize import fold_contract_types, fold_words, normalize_name

log = logging.getLogger(__name__)

_TRUTHY = {"1", "true", "yes", "oui", "y", "x"}


@lru_cache(maxsize=8)
def separator_patterns(separators: tuple[str, ...]) -> tuple[re.Pattern, ...]:
    """Regexes of the configured separators, longest separator first.

    A separator that is a run of one character (e.g. "---") also matches
    longer runs, since data entry repeats them inconsistently.
    """
    return tuple(
        re.compile(f"{re.escape(sep[0])}{{{len(sep)},}}")
        if len(sep) >= 2 and len(set(sep)) == 1
        else re.compile(re.escape(sep))
        for sep in sorted(separators, key=len, reverse=True)
    )


def separators_in(value: str, separators: list[str]) -> list[re.Pattern]:
    """Patterns of the configured separators occurring in the value, longest first."""
    if not value:
        return []
    return [p for p in separator_patterns(tuple(separators)) if p.search(value)]


# skipped lines and duplicate identities a lot file logs one by one; the
# counts in checkpoints/ingest/stats.json hold them all
LINE_WARNINGS = 20


@dataclass
class ParsedTable:
    rows: list[RawLotRow]
    skipped: int
    duplicate_identities: int


def parse_table(
    path: str,
    column_map: dict[str, str],
    delimiter: str,
) -> ParsedTable:
    """Read one delimiter-separated file into rows of mapped fields.

    Lines are split and parsed, and the header mapped to fields, by the
    rules of `files`. The header must parse and have every mandatory mapped
    column; a data line that does not parse, or whose cell count does not
    match the header, is skipped and counted. The first LINE_WARNINGS
    skipped lines and duplicate identities are logged one by one, and the
    number of the rest in one warning.
    """
    lines = input_lines(path, "lot file")
    if not lines:
        raise InputError(f"lot file {path} is empty")
    try:
        header = parse_line(lines[0], delimiter)
    except csv.Error as exc:
        raise InputError(f"cannot parse lot file {path} header: {exc}") from exc
    fields_of = field_plan(path, "lot file", header, column_map, MANDATORY_FIELDS["column_map"])

    rows: list[RawLotRow] = []
    skipped = 0
    seen_identity: set[tuple[str, str]] = set()
    duplicates = 0

    def warn(message: str, *args: object) -> None:
        if skipped + duplicates <= LINE_WARNINGS:
            log.warning(message, *args)

    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            cells = parse_line(line, delimiter)
        except csv.Error:
            skipped += 1
            warn("%s:%d: unparseable line skipped", path, lineno)
            continue
        if len(cells) != len(header):
            skipped += 1
            warn(
                "%s:%d: %d cells for %d columns, line skipped",
                path, lineno, len(cells), len(header),
            )
            continue
        row = RawLotRow(fields=fields_of(cells), source_file=path, source_line=lineno)
        identity = (row.fields["notice_id"], row.fields["lot_number"])
        if identity in seen_identity:
            duplicates += 1
            warn("%s:%d: duplicate row identity %s", path, lineno, identity)
        seen_identity.add(identity)
        rows.append(row)
    if (unshown := skipped + duplicates - LINE_WARNINGS) > 0:
        log.warning(
            "%s: %d more skipped lines and duplicate identities not shown;"
            " checkpoints/ingest/stats.json counts them all", path, unshown,
        )
    return ParsedTable(rows=rows, skipped=skipped, duplicate_identities=duplicates)


_DECIMAL_JUNK_RE = re.compile(r"[^\d.,+-]")


def parse_decimal(raw: str | None) -> Decimal | None:
    """Parse a numeric cell accepting both "." and "," decimal marks.

    Spaces and non-breaking spaces are grouping; when both marks appear the
    rightmost one is the decimal point, and one mark alone that repeats is
    grouping. Unparseable input is None, never 0.
    """
    if not raw:
        return None
    text = raw.replace(" ", "").replace(" ", "").replace(" ", "")
    text = _DECIMAL_JUNK_RE.sub("", text)
    if not any(c.isdigit() for c in text):
        return None
    if "," in text and "." in text:
        if text.rfind(",") > text.rfind("."):
            text = text.replace(".", "").replace(",", ".")
        else:
            text = text.replace(",", "")
    elif text.count(",") > 1 or text.count(".") > 1:
        text = text.replace(",", "").replace(".", "")
    else:
        text = text.replace(",", ".")
    if text.count(".") > 1:
        head, _, tail = text.rpartition(".")
        text = head.replace(".", "") + "." + tail
    try:
        return Decimal(text)
    except InvalidOperation:
        return None


# lots repeat their dates (6,260 dates parsed, 171 distinct, on a 5,000-lot
# run); the bound caps the memo's memory on a corpus spanning many years
PARSE_DATE_MEMO_SIZE = 1 << 16


def parse_date(raw: str | None, formats: list[str]) -> dt.date | None:
    if not raw or not raw.strip():
        return None
    return _parse_stripped_date(raw.strip(), tuple(formats))


# keyed on the format list too, so two format lists never share an entry
@lru_cache(maxsize=PARSE_DATE_MEMO_SIZE)
def _parse_stripped_date(text: str, formats: tuple[str, ...]) -> dt.date | None:
    for fmt in formats:
        try:
            return dt.datetime.strptime(text, fmt).date()
        except ValueError:
            continue
    return None


def lot_builder(config: PipelineConfig) -> Callable[[RawLotRow, int], LotRecord | RowRejection]:
    """A function that types one raw row under `config`, with its contract
    types and unsuccessful markers folded once; unparseable dates and
    numbers become absent."""
    contract_types = fold_contract_types(tuple(config.contract_type_values.items()))
    markers = fold_words(tuple(config.unsuccessful_markers))
    date_formats = config.date_formats
    start, end = config.period

    def build(row: RawLotRow, lot_id: int) -> LotRecord | RowRejection:
        def reject(reason: str) -> RowRejection:
            return RowRejection(row.source_file, row.source_line, reason)

        fields = row.fields
        notice_id = fields["notice_id"]
        if not notice_id:
            return reject("missing-notice-id")

        publication = parse_date(fields["publication_date"], date_formats)
        if publication is None:
            return reject("missing-publication-date")
        if not start <= publication <= end:
            return reject("out-of-period")

        contract_type = contract_types.get(normalize_name(fields["contract_type"]))

        offers = sql_integer(fields["number_of_offers"])

        value = parse_decimal(fields["awarded_value"])
        # a value past SQL's REAL range would reload as inf
        if value is not None and (value < 0 or math.isinf(value)):
            value = None

        winner_name = fields["winner_name"]
        marker_set = fields["cancelled"].lower() in _TRUTHY
        folded_winner = normalize_name(winner_name)
        cancelled = (not winner_name and marker_set) or (
            bool(folded_winner) and folded_winner in markers
        )

        return LotRecord(
            lot_id=lot_id,
            notice_id=notice_id,
            lot_number=fields["lot_number"],
            publication_date=publication,
            award_date=parse_date(fields["award_date"], date_formats),
            contract_type=contract_type,
            activity_code=fields["activity_code"] or None,
            number_of_offers=offers,
            awarded_value=value,
            currency=fields["currency"] or None,
            cancelled=cancelled,
            contract_notice_ref=fields["contract_notice_ref"] or None,
        )

    return build


@dataclass
class AgentFields:
    """Raw agent cells of one role on one row, before any splitting."""

    name: str
    street: str = ""
    zipcode: str = ""
    city: str = ""
    country: str = ""
    siret: str = ""


def split_joint_agents(
    fields: AgentFields, separators: list[str]
) -> list[tuple[AgentFields, bool]]:
    """Split a jointly-described agent into its parts.

    The name field drives the choice of separator. All present fields among
    name/street/zipcode/city must split into the same number of non-empty
    name parts; any disagreement keeps the fields unsplit and flags the
    conflict instead of guessing an alignment. The secondary fields (siret,
    country) align only on an exact part-count match: a single SIRET is
    never copied onto several agents.
    """
    found = separators_in(fields.name, separators)
    if not found:
        return [(fields, False)]

    def split(value: str) -> list[str]:
        return [part.strip() for part in found[0].split(value)]

    name_parts = split(fields.name)
    k = len(name_parts)
    if k < 2 or any(not part for part in name_parts):
        return [(fields, k >= 2)]

    strict = {"street": fields.street, "zipcode": fields.zipcode, "city": fields.city}
    split_strict: dict[str, list[str]] = {}
    for key, value in strict.items():
        if not value:
            split_strict[key] = [""] * k
            continue
        parts = split(value)
        if len(parts) != k:
            return [(fields, True)]
        split_strict[key] = parts

    def secondary(value: str) -> list[str]:
        if not value:
            return [""] * k
        parts = split(value)
        return parts if len(parts) == k else [""] * k

    sirets = secondary(fields.siret)
    # country describes the joint block as a whole; replicate when unsplit
    countries = split(fields.country) if fields.country else [""] * k
    if len(countries) != k:
        countries = [fields.country] * k

    out = []
    for i in range(k):
        out.append(
            (
                AgentFields(
                    name=name_parts[i],
                    street=split_strict["street"][i],
                    zipcode=split_strict["zipcode"][i],
                    city=split_strict["city"][i],
                    country=countries[i],
                    siret=sirets[i],
                ),
                False,
            )
        )
    return out


@dataclass
class IngestResult:
    lots: list[LotRecord] = field(default_factory=list)
    occurrences: list[AgentOccurrence] = field(default_factory=list)
    criteria_raw: list[CriteriaRaw] = field(default_factory=list)
    rejections: list[RowRejection] = field(default_factory=list)
    skipped_lines: int = 0
    duplicate_identities: int = 0
    descriptions_before_split: int = 0


# the six raw cells of each role's description, in AgentFields' order
_AGENT_CELLS = {
    role: itemgetter(*(f"{prefix}_{cell}" for cell in
                       ("name", "street", "zipcode", "city", "country", "siret")))
    for role, prefix in ((Role.BUYER, "buyer"), (Role.WINNER, "winner"))
}


def run_ingest(config: PipelineConfig) -> IngestResult:
    """Parse every configured lot file, in order, into one result set.

    Lots repeat their agents' descriptions, so each distinct description
    (its six raw cells) is split once and its parts reused."""
    result = IngestResult()
    next_lot_id = 1
    next_occurrence_id = 1
    # raw cells -> each part's occurrence cells, None for "", and its conflict flag
    parts_of: dict[tuple[str, ...], list[tuple[tuple[str | None, ...], bool]]] = {}
    build = lot_builder(config)
    for path in config.lot_files:
        parsed = parse_table(path, config.column_map, config.delimiter)
        result.skipped_lines += parsed.skipped
        result.duplicate_identities += parsed.duplicate_identities
        for row in parsed.rows:
            built = build(row, next_lot_id)
            if isinstance(built, RowRejection):
                result.rejections.append(built)
                continue
            lot = built
            next_lot_id += 1
            result.lots.append(lot)
            result.criteria_raw.append(
                CriteriaRaw(
                    lot_id=lot.lot_id,
                    names_field=row.fields["criteria_names"],
                    weights_field=row.fields["criteria_weights"],
                    price_field=row.fields["price_weight"],
                )
            )
            for role, cells_of in _AGENT_CELLS.items():
                cells = cells_of(row.fields)
                if not cells[0]:
                    continue
                if role is Role.WINNER and lot.cancelled:
                    # an unsuccessful-marker "winner" is not an agent
                    continue
                result.descriptions_before_split += 1
                parts = parts_of.get(cells)
                if parts is None:
                    parts = parts_of[cells] = [
                        ((part.name, part.street or None, part.zipcode or None,
                          part.city or None, part.country or None, part.siret or None),
                         conflict)
                        for part, conflict in split_joint_agents(
                            AgentFields(*cells), config.separators)
                    ]
                for part, conflict in parts:
                    result.occurrences.append(
                        AgentOccurrence(next_occurrence_id, lot.lot_id, role, *part,
                                        split_conflict=conflict)
                    )
                    next_occurrence_id += 1
    log.debug("ingest: %d agent descriptions from %d distinct",
              result.descriptions_before_split, len(parts_of))
    return result
