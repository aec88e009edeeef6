"""Domain records shared by the pipeline stages."""
from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from decimal import Decimal
from enum import Enum


class ConfigError(Exception):
    """Bad or inconsistent configuration (exit code 2)."""


class InputError(Exception):
    """Unreadable or structurally invalid input data (exit code 3)."""


class InvariantError(Exception):
    """A pipeline invariant was violated; names the failed assertion (exit code 4)."""


class Role(str, Enum):
    BUYER = "buyer"
    WINNER = "winner"


class ContractType(str, Enum):
    GOODS = "goods"
    SERVICES = "services"
    WORKS = "works"


class CriterionClass(str, Enum):
    PRICE = "PRICE"
    DEADLINE = "DEADLINE"
    TECHNICAL = "TECHNICAL"
    ENVIRONMENTAL = "ENVIRONMENTAL"
    SOCIAL = "SOCIAL"
    OTHERS = "OTHERS"


class IdentifierKind(str, Enum):
    FULL_SIRET = "siret"
    SIREN_ONLY = "siren"
    INTERNAL = "internal"


class CaseKind(str, Enum):
    SINGLETON = "SINGLETON"
    CONFLICTING_IDS = "CONFLICTING_IDS"
    ALL_UNIDENTIFIED = "ALL_UNIDENTIFIED"
    SINGLE_IDENTIFIED = "SINGLE_IDENTIFIED"


class MatchOutcome(str, Enum):
    FULL = "FULL"
    PARTIAL = "PARTIAL"
    INCORRECT = "INCORRECT"
    NONE = "NONE"


INTERNAL_CODE_PREFIX = "U"


def ascii_digits(text: str, length: int | None = None) -> bool:
    """True when the text is ASCII digits only, `length` of them if given."""
    return text.isascii() and text.isdigit() and (length is None or len(text) == length)


def sql_integer(text: str) -> int | None:
    """The whole number that ASCII digits spell, if SQL's INTEGER holds it:
    None for other text, and above 2**63 - 1, whatever the leading zeros."""
    if not ascii_digits(text):
        return None
    digits = text.lstrip("0")
    # int() refuses more than 4,300 digits, and more than 19 exceed the range
    if len(digits) > 19:
        return None
    value = int(digits or "0")
    return value if value < 1 << 63 else None


@dataclass(frozen=True, order=True)
class Identifier:
    """National identifier of an agent, or an internal fallback code.

    Internal codes are prefixed with a letter so they can never collide
    with the all-digit 9/14 formats.
    """

    kind: IdentifierKind
    value: str

    def __post_init__(self) -> None:
        if self.kind is IdentifierKind.FULL_SIRET:
            if not ascii_digits(self.value, 14):
                raise ValueError(f"full identifier must be 14 digits: {self.value!r}")
        elif self.kind is IdentifierKind.SIREN_ONLY:
            if not ascii_digits(self.value, 9):
                raise ValueError(f"entity identifier must be 9 digits: {self.value!r}")
        else:
            if not self.value.startswith(INTERNAL_CODE_PREFIX):
                raise ValueError(f"internal code must start with {INTERNAL_CODE_PREFIX!r}")

    @property
    def siren(self) -> str | None:
        """9-digit entity prefix, when the identifier carries one."""
        if self.kind is IdentifierKind.FULL_SIRET:
            return self.value[:9]
        if self.kind is IdentifierKind.SIREN_ONLY:
            return self.value
        return None


def full_siret(value: str) -> Identifier:
    return Identifier(IdentifierKind.FULL_SIRET, value)


def siren_only(value: str) -> Identifier:
    return Identifier(IdentifierKind.SIREN_ONLY, value)


def internal_code(sequence: int) -> Identifier:
    return Identifier(IdentifierKind.INTERNAL, f"{INTERNAL_CODE_PREFIX}{sequence:06d}")


def validate_siret(raw: str | None) -> Identifier | None:
    """Parse a declared identifier: 14 digits -> full, 9 -> entity-only.

    Spaces are stripped first, and only ASCII digits count. Anything else
    is invalid and yields None; there is no checksum validation, the
    registry match is the check.
    """
    if not raw:
        return None
    digits = "".join(raw.split())
    if ascii_digits(digits, 14):
        return full_siret(digits)
    if ascii_digits(digits, 9):
        return siren_only(digits)
    return None


@dataclass(slots=True)
class RawLotRow:
    """One data line of a source table: its fields, stripped, by semantic name."""

    fields: dict[str, str]
    source_file: str
    source_line: int


@dataclass(slots=True)
class LotRecord:
    lot_id: int
    notice_id: str
    lot_number: str
    publication_date: dt.date
    award_date: dt.date | None = None
    contract_type: ContractType | None = None
    activity_code: str | None = None
    number_of_offers: int | None = None
    awarded_value: Decimal | None = None
    currency: str | None = None
    cancelled: bool = False
    contract_notice_ref: str | None = None


@dataclass(slots=True)
class RowRejection:
    """A source row ingest refused, with the reason code."""

    source_file: str
    source_line: int
    reason: str


@dataclass(slots=True)
class AgentOccurrence:
    occurrence_id: int
    lot_id: int
    role: Role
    raw_name: str
    street: str | None = None
    zipcode: str | None = None
    city: str | None = None
    country: str | None = None
    declared_siret: str | None = None
    normalized_name: str | None = None
    department: str | None = None
    identifier: Identifier | None = None
    identifier_source: str | None = None
    split_conflict: bool = False


@dataclass(slots=True)
class CriteriaRaw:
    """Unrepaired criterion fields of one lot, as ingested."""

    lot_id: int
    names_field: str
    weights_field: str
    price_field: str


@dataclass(slots=True)
class Criterion:
    lot_id: int
    raw_name: str
    criterion_class: CriterionClass
    weight: Decimal | None
    weight_is_normalized: bool = False


@dataclass(slots=True)
class RegistryEntity:
    siren: str
    legal_names: list[str]
    activity_code: str | None = None


@dataclass(slots=True)
class RegistryFacility:
    siret: str
    names: list[str] = field(default_factory=list)
    street: str | None = None
    zipcode: str | None = None
    city: str | None = None
    department: str | None = None
    activity_code: str | None = None
    open_date: dt.date | None = None
    close_date: dt.date | None = None

    @property
    def parent_siren(self) -> str:
        return self.siret[:9]


@dataclass(slots=True)
class AgentCluster:
    cluster_id: int
    member_occurrence_ids: list[int]
    case_kind: CaseKind
    resolved_identifier: Identifier


@dataclass(slots=True)
class CanonicalAgent:
    agent_id: Identifier
    street: str | None = None
    zipcode: str | None = None
    city: str | None = None
    department: str | None = None
    country: str | None = None
    case_kinds: list[CaseKind] = field(default_factory=list)


@dataclass(slots=True)
class AgentName:
    """One row of agent_names.csv: a canonical agent and one of its names."""

    agent_id: Identifier
    name: str
