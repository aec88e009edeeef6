"""The national registry of entities and facilities matched against.

Loaded once from delimiter-separated extracts, then read-only. Facilities
carry back-references to their parent entity; two indexes (department,
activity prefix) support candidate blocking.
"""
from __future__ import annotations

import datetime as dt
import logging
from dataclasses import dataclass, field

from .files import read_table
from .ingest import parse_date
from .models import (
    ConfigError,
    Identifier,
    RegistryEntity,
    RegistryFacility,
    full_siret,
    siren_only,
)
from .normalize import department_of, normalize_name

log = logging.getLogger(__name__)

# Separates the names listed in one registry cell (former names, facility names).
NAME_LIST_SEPARATOR = "|"


def validate_siret(raw: str | None) -> Identifier | None:
    """Parse a declared identifier: 14 digits -> full, 9 -> entity-only.

    Spaces are stripped first, and only ASCII digits count. Anything else
    is invalid and yields None; there is no checksum validation, the
    registry match is the check.
    """
    if not raw:
        return None
    digits = "".join(raw.split())
    if not (digits.isascii() and digits.isdigit()):
        return None
    if len(digits) == 14:
        return full_siret(digits)
    if len(digits) == 9:
        return siren_only(digits)
    return None


@dataclass
class Registry:
    activity_prefix_length: int
    entities: dict[str, RegistryEntity] = field(default_factory=dict)
    facilities: dict[str, RegistryFacility] = field(default_factory=dict)
    by_department: dict[str, set[str]] = field(default_factory=dict)
    by_activity_prefix: dict[str, set[str]] = field(default_factory=dict)

    def add_entity(self, entity: RegistryEntity) -> None:
        self.entities[entity.siren] = entity

    def add_facility(self, facility: RegistryFacility) -> None:
        if facility.parent_siren not in self.entities:
            facility.orphan = True
        self.facilities[facility.siret] = facility
        if facility.department:
            self.by_department.setdefault(facility.department, set()).add(facility.siret)
        code = self.effective_activity(facility)
        if code:
            prefix = code[: self.activity_prefix_length]
            self.by_activity_prefix.setdefault(prefix, set()).add(facility.siret)

    def parent_entity(self, facility: RegistryFacility) -> RegistryEntity | None:
        return self.entities.get(facility.parent_siren)

    def effective_activity(self, facility: RegistryFacility) -> str | None:
        """Facility activity code when present, else the parent entity's."""
        if facility.activity_code:
            return facility.activity_code
        parent = self.parent_entity(facility)
        return parent.activity_code if parent else None

    def candidate_names(self, facility: RegistryFacility) -> list[str]:
        """Folded names to compare against: the facility's own, else its parent's."""
        if facility.names:
            return facility.names
        parent = self.parent_entity(facility)
        return parent.legal_names if parent else []


def temporally_valid(facility: RegistryFacility, date: dt.date) -> bool:
    """True when the facility could exist on the date; absent dates are lenient."""
    if facility.open_date is not None and date < facility.open_date:
        return False
    if facility.close_date is not None and date > facility.close_date:
        return False
    return True


def _read_registry_file(path: str, what: str, delimiter: str, *columns: str) -> list[dict[str, str]]:
    header, rows = read_table(path, what, delimiter)
    missing = [column for column in columns if column not in header]
    if missing:
        raise ConfigError(f"{path}: header is missing mandatory column(s) {', '.join(missing)}")
    return rows


def load_registry(
    entity_path: str,
    facility_path: str,
    entity_map: dict[str, str],
    facility_map: dict[str, str],
    delimiter: str,
    date_formats: list[str],
    activity_prefix_length: int,
) -> Registry:
    """Build the in-memory registry with its two lookup indexes.

    Facilities whose parent entity is missing are kept and flagged orphan.
    Names are folded at load so every later comparison is fold-to-fold.
    """
    registry = Registry(activity_prefix_length)

    entity_rows = _read_registry_file(
        entity_path, "registry entity file", delimiter,
        entity_map["siren"], entity_map["legal_name"],
    )
    for row in entity_rows:
        siren = (row.get(entity_map["siren"]) or "").strip()
        if not (len(siren) == 9 and siren.isascii() and siren.isdigit()):
            log.warning("skipping entity row with bad identifier %r", siren)
            continue
        names = [normalize_name(row.get(entity_map["legal_name"]) or "")]
        former = (row.get(entity_map.get("former_names", ""), "") or "").strip()
        if former:
            names.extend(
                normalize_name(part) for part in former.split(NAME_LIST_SEPARATOR)
            )
        names = [n for n in names if n]
        if not names:
            log.warning("skipping entity %s without any legal name", siren)
            continue
        registry.add_entity(
            RegistryEntity(
                siren=siren,
                legal_names=names,
                activity_code=(row.get(entity_map.get("activity_code", ""), "") or "").strip() or None,
            )
        )

    facility_rows = _read_registry_file(
        facility_path, "registry facility file", delimiter, facility_map["siret"]
    )
    for row in facility_rows:
        siret = (row.get(facility_map["siret"]) or "").strip()
        if not (len(siret) == 14 and siret.isascii() and siret.isdigit()):
            log.warning("skipping facility row with bad identifier %r", siret)
            continue
        raw_names = (row.get(facility_map.get("names", ""), "") or "").strip()
        names = [
            folded
            for part in raw_names.split(NAME_LIST_SEPARATOR)
            if (folded := normalize_name(part))
        ]
        street, zipcode, city = (
            normalize_name(row.get(facility_map.get("street", ""), "") or "") or None,
            (row.get(facility_map.get("zipcode", ""), "") or "").strip() or None,
            normalize_name(row.get(facility_map.get("city", ""), "") or "") or None,
        )
        if zipcode is not None and not (len(zipcode) == 5 and zipcode.isascii() and zipcode.isdigit()):
            zipcode = None
        facility = RegistryFacility(
            siret=siret,
            names=names,
            street=street,
            zipcode=zipcode,
            city=city,
            department=department_of(zipcode),
            activity_code=(row.get(facility_map.get("activity_code", ""), "") or "").strip() or None,
            open_date=parse_date(row.get(facility_map.get("open_date", "")), date_formats),
            close_date=parse_date(row.get(facility_map.get("close_date", "")), date_formats),
        )
        registry.add_facility(facility)
        if facility.orphan:
            log.warning("facility %s has no parent entity", siret)

    return registry
