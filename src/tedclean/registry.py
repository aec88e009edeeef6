"""The national registry of entities and facilities matched against.

Loaded once from delimiter-separated extracts, then read-only. Facilities
carry back-references to their parent entity; two indexes (department,
activity prefix) support candidate blocking. A facility's street, zipcode
and city are read by `normalize_address`, as the occurrences they meet are.
"""
from __future__ import annotations

import datetime as dt
import logging
from dataclasses import dataclass, field

from .config import DEFAULT_POSTAL_TOKENS, MANDATORY_FIELDS
from .files import read_fields
from .ingest import parse_date
from .models import InputError, RegistryEntity, RegistryFacility, ascii_digits
from .normalize import department_of, normalize_address, normalize_name

log = logging.getLogger(__name__)

# Separates the names listed in one registry cell (former names, facility names).
NAME_LIST_SEPARATOR = "|"


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


def load_registry(
    entity_path: str,
    facility_path: str,
    entity_map: dict[str, str],
    facility_map: dict[str, str],
    delimiter: str,
    date_formats: list[str],
    activity_prefix_length: int,
    postal_tokens: list[str] = DEFAULT_POSTAL_TOKENS,
) -> Registry:
    """Build the in-memory registry with its two lookup indexes.

    Facilities whose parent entity is missing are kept, with a warning.
    Names and addresses are folded at load, so every comparison is fold-to-fold.
    """
    registry = Registry(activity_prefix_length)

    for row in read_fields(entity_path, "registry entity file", delimiter, entity_map,
                           MANDATORY_FIELDS["registry_entity_map"]):
        siren = row["siren"]
        if not ascii_digits(siren, 9):
            log.warning("skipping entity row with bad identifier %r", siren)
            continue
        if siren in registry.entities:
            raise InputError(f"registry entity file {entity_path}: SIREN {siren} listed twice")
        names = [normalize_name(row["legal_name"])]
        if row["former_names"]:
            names.extend(
                normalize_name(part) for part in row["former_names"].split(NAME_LIST_SEPARATOR)
            )
        names = [n for n in names if n]
        if not names:
            log.warning("skipping entity %s without any legal name", siren)
            continue
        registry.add_entity(
            RegistryEntity(siren, legal_names=names, activity_code=row["activity_code"] or None)
        )

    for row in read_fields(facility_path, "registry facility file", delimiter, facility_map,
                           MANDATORY_FIELDS["registry_facility_map"]):
        siret = row["siret"]
        if not ascii_digits(siret, 14):
            log.warning("skipping facility row with bad identifier %r", siret)
            continue
        if siret in registry.facilities:
            raise InputError(f"registry facility file {facility_path}: SIRET {siret} listed twice")
        names = [
            folded
            for part in row["names"].split(NAME_LIST_SEPARATOR)
            if (folded := normalize_name(part))
        ]
        street, zipcode, city = normalize_address(
            row["street"], row["zipcode"], row["city"], postal_tokens
        )
        facility = RegistryFacility(
            siret=siret,
            names=names,
            street=street,
            zipcode=zipcode,
            city=city,
            department=department_of(zipcode),
            activity_code=row["activity_code"] or None,
            open_date=parse_date(row["open_date"], date_formats),
            close_date=parse_date(row["close_date"], date_formats),
        )
        registry.add_facility(facility)
        if facility.parent_siren not in registry.entities:
            log.warning("facility %s has no parent entity", siret)

    return registry
