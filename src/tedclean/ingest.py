"""Parse raw award-notice tables into typed lots and agent occurrences.

Parsing is line-based on purpose: a malformed line (bad quoting, wrong cell
count) is skipped and counted, never silently dropped and never allowed to
swallow its neighbours.
"""
from __future__ import annotations

import csv
import datetime as dt
import logging
import re
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from functools import lru_cache

from .config import MANDATORY_FIELDS, PipelineConfig
from .files import read_text
from .models import (
    AgentOccurrence,
    ConfigError,
    ContractType,
    CriteriaRaw,
    InputError,
    LotRecord,
    RawLotRow,
    Role,
    RowRejection,
)
from .normalize import normalize_name

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
    """Read one delimiter-separated file into verbatim rows.

    The header must hold no NUL character and contain every mandatory
    mapped column; data lines whose cell count does not match the header
    (unbalanced quoting included), or that hold a NUL character, are
    skipped and counted. Lines end only at "\n" or "\r\n": str.splitlines
    would also cut a row at U+0085, U+2028, form feeds and the like, which
    turn up inside cells.
    """
    text = read_text(path, "lot file")
    if not text:
        raise InputError(f"lot file {path} is empty")
    lines = [line.removesuffix("\r") for line in text.split("\n")]

    try:
        if "\0" in lines[0]:  # as for data lines, on every Python version
            raise csv.Error("line contains NUL")
        header = [h.strip() for h in next(csv.reader([lines[0]], delimiter=delimiter))]
    except csv.Error as exc:
        raise InputError(f"cannot parse lot file {path} header: {exc}") from exc
    missing = [
        column_map[sem] for sem in MANDATORY_FIELDS["column_map"] if column_map[sem] not in header
    ]
    if missing:
        raise ConfigError(
            f"{path}: header is missing mandatory column(s) {', '.join(missing)}"
        )

    rows: list[RawLotRow] = []
    skipped = 0
    seen_identity: set[tuple[str, str]] = set()
    duplicates = 0
    id_col, lot_col = column_map["notice_id"], column_map["lot_number"]
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            if "\0" in line:  # csv takes NUL from Python 3.11 on; SQL engines do not
                raise csv.Error("line contains NUL")
            cells = next(csv.reader([line], delimiter=delimiter, strict=True))
        except (csv.Error, StopIteration):
            skipped += 1
            log.warning("%s:%d: unparseable line skipped", path, lineno)
            continue
        if len(cells) != len(header):
            skipped += 1
            log.warning(
                "%s:%d: %d cells for %d columns, line skipped",
                path, lineno, len(cells), len(header),
            )
            continue
        row = RawLotRow(cells=dict(zip(header, cells)), source_file=path, source_line=lineno)
        identity = (row.cells.get(id_col, ""), row.cells.get(lot_col, ""))
        if identity in seen_identity:
            duplicates += 1
            log.warning("%s:%d: duplicate row identity %s", path, lineno, identity)
        seen_identity.add(identity)
        rows.append(row)
    return ParsedTable(rows=rows, skipped=skipped, duplicate_identities=duplicates)


_DECIMAL_JUNK_RE = re.compile(r"[^\d.,+-]")


def parse_decimal(raw: str | None) -> Decimal | None:
    """Parse a numeric cell accepting both "." and "," decimal marks.

    Spaces and non-breaking spaces are grouping; when both marks appear the
    rightmost one is the decimal point. Unparseable input is None, never 0.
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
    elif "," in text:
        if text.count(",") > 1:
            text = text.replace(",", "")
        else:
            text = text.replace(",", ".")
    if text.count(".") > 1:
        head, _, tail = text.rpartition(".")
        text = head.replace(".", "") + "." + tail
    try:
        return Decimal(text)
    except InvalidOperation:
        return None


def parse_date(raw: str | None, formats: list[str]) -> dt.date | None:
    if not raw or not raw.strip():
        return None
    for fmt in formats:
        try:
            return dt.datetime.strptime(raw.strip(), fmt).date()
        except ValueError:
            continue
    return None


def _cell(row: RawLotRow, column_map: dict[str, str], semantic: str) -> str:
    column = column_map.get(semantic)
    if not column:
        return ""
    return (row.cells.get(column) or "").strip()


def build_lot(
    row: RawLotRow, config: PipelineConfig, lot_id: int
) -> LotRecord | RowRejection:
    """Type one raw row; unparseable dates and numbers become absent."""

    def reject(reason: str) -> RowRejection:
        return RowRejection(row.source_file, row.source_line, reason)

    notice_id = _cell(row, config.column_map, "notice_id")
    if not notice_id:
        return reject("missing-notice-id")

    publication = parse_date(
        _cell(row, config.column_map, "publication_date"), config.date_formats
    )
    if publication is None:
        return reject("missing-publication-date")
    start, end = config.period
    if not start <= publication <= end:
        return reject("out-of-period")

    raw_type = _cell(row, config.column_map, "contract_type").upper()
    mapped = config.contract_type_values.get(raw_type)
    contract_type = ContractType(mapped) if mapped else None

    offers_raw = _cell(row, config.column_map, "number_of_offers")
    offers = int(offers_raw) if offers_raw.isascii() and offers_raw.isdigit() else None

    value = parse_decimal(_cell(row, config.column_map, "awarded_value"))
    if value is not None and value < 0:
        value = None

    winner_name = _cell(row, config.column_map, "winner_name")
    marker_set = _cell(row, config.column_map, "cancelled").lower() in _TRUTHY
    folded_winner = normalize_name(winner_name)
    cancelled = (not winner_name and marker_set) or (
        bool(folded_winner) and folded_winner in config.unsuccessful_markers
    )

    return LotRecord(
        lot_id=lot_id,
        notice_id=notice_id,
        lot_number=_cell(row, config.column_map, "lot_number"),
        publication_date=publication,
        award_date=parse_date(_cell(row, config.column_map, "award_date"), config.date_formats),
        contract_type=contract_type,
        activity_code=_cell(row, config.column_map, "activity_code") or None,
        number_of_offers=offers,
        awarded_value=value,
        currency=_cell(row, config.column_map, "currency") or None,
        cancelled=cancelled,
        contract_notice_ref=_cell(row, config.column_map, "contract_notice_ref") or None,
        source_file=row.source_file,
        source_line=row.source_line,
    )


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


def _agent_fields(row: RawLotRow, column_map: dict[str, str], role: Role) -> AgentFields:
    prefix = "buyer" if role is Role.BUYER else "winner"
    return AgentFields(
        name=_cell(row, column_map, f"{prefix}_name"),
        street=_cell(row, column_map, f"{prefix}_street"),
        zipcode=_cell(row, column_map, f"{prefix}_zipcode"),
        city=_cell(row, column_map, f"{prefix}_city"),
        country=_cell(row, column_map, f"{prefix}_country"),
        siret=_cell(row, column_map, f"{prefix}_siret"),
    )


def run_ingest(config: PipelineConfig) -> IngestResult:
    """Parse every configured lot file, in order, into one result set."""
    result = IngestResult()
    next_lot_id = 1
    next_occurrence_id = 1
    for path in config.lot_files:
        parsed = parse_table(path, config.column_map, config.delimiter)
        result.skipped_lines += parsed.skipped
        result.duplicate_identities += parsed.duplicate_identities
        for row in parsed.rows:
            built = build_lot(row, config, next_lot_id)
            if isinstance(built, RowRejection):
                result.rejections.append(built)
                continue
            lot = built
            next_lot_id += 1
            result.lots.append(lot)
            result.criteria_raw.append(
                CriteriaRaw(
                    lot_id=lot.lot_id,
                    names_field=_cell(row, config.column_map, "criteria_names"),
                    weights_field=_cell(row, config.column_map, "criteria_weights"),
                    price_field=_cell(row, config.column_map, "price_weight"),
                )
            )
            for role in (Role.BUYER, Role.WINNER):
                fields = _agent_fields(row, config.column_map, role)
                if not fields.name:
                    continue
                if role is Role.WINNER and lot.cancelled:
                    # an unsuccessful-marker "winner" is not an agent
                    continue
                result.descriptions_before_split += 1
                for part, conflict in split_joint_agents(fields, config.separators):
                    result.occurrences.append(
                        AgentOccurrence(
                            occurrence_id=next_occurrence_id,
                            lot_id=lot.lot_id,
                            role=role,
                            raw_name=part.name,
                            street=part.street or None,
                            zipcode=part.zipcode or None,
                            city=part.city or None,
                            country=part.country or None,
                            declared_siret=part.siret or None,
                            split_conflict=conflict,
                        )
                    )
                    next_occurrence_id += 1
    return result
