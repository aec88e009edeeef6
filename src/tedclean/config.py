"""Pipeline configuration: defaults, file loading, validation.

Config files are JSON, and the annotated fields of `PipelineConfig` and
`MatchConfig` are their schema: a field's annotation is the type its value
must have, and its default holds when the key is absent. Values convert by
annotation: a bool is not an int, an int is accepted as a float, `null` only
fits `X | None`, lists and `dict[str, X]` convert element by element, an Enum
by its value, a date from an ISO string, `match` as a nested object. A field
sits under its own name except the nine in `_JSON_PATH`; the header maps in
`_MERGED_MAPS` merge into their defaults. A bad value raises ConfigError
naming its key path (`match.name_threshold`, `period[0]`), and so does a key
that names no field, with the closest known key; only the keys of a map
(`dict[str, X]`) are data and may be anything. `validate` then checks
ranges. `criterion_lexicon_path` names a JSON file whose object replaces
`criterion_lexicon`, checked the same way. A key in `_RETIRED` selects
nothing and loads with a warning, so that old configs still run.
"""
import dataclasses
import datetime as dt
import difflib
import enum
import json
import logging
import os
import re
import types
import typing
from dataclasses import dataclass, field

from .models import ConfigError, ContractType, CriterionClass

log = logging.getLogger(__name__)

# Header names of the award-notice table, semantic field -> source column.
# TED-2010+ style names; real corpora override this in the config file.
DEFAULT_COLUMN_MAP: dict[str, str] = {
    "notice_id": "ID_NOTICE_CAN",
    "lot_number": "ID_LOT",
    "publication_date": "DT_DISPATCH",
    "award_date": "DT_AWARD",
    "contract_type": "TYPE_OF_CONTRACT",
    "activity_code": "CPV",
    "number_of_offers": "NUMBER_OFFERS",
    "awarded_value": "AWARD_VALUE_EURO",
    "currency": "CURRENCY",
    "cancelled": "CANCELLED",
    "contract_notice_ref": "ID_NOTICE_CN",
    "buyer_name": "CAE_NAME",
    "buyer_street": "CAE_ADDRESS",
    "buyer_zipcode": "CAE_POSTAL_CODE",
    "buyer_city": "CAE_TOWN",
    "buyer_country": "CAE_COUNTRY",
    "buyer_siret": "CAE_NATIONALID",
    "winner_name": "WIN_NAME",
    "winner_street": "WIN_ADDRESS",
    "winner_zipcode": "WIN_POSTAL_CODE",
    "winner_city": "WIN_TOWN",
    "winner_country": "WIN_COUNTRY",
    "winner_siret": "WIN_NATIONALID",
    "criteria_names": "CRIT_CRITERIA",
    "criteria_weights": "CRIT_WEIGHTS",
    "price_weight": "CRIT_PRICE_WEIGHT",
}

# Fields each header map must name, by map; their columns must exist in the
# file's header (cells may still be empty).
MANDATORY_FIELDS: dict[str, tuple[str, ...]] = {
    "column_map": ("notice_id", "lot_number", "publication_date", "buyer_name", "winner_name"),
    "registry_entity_map": ("siren", "legal_name"),
    "registry_facility_map": ("siret",),
}

DEFAULT_REGISTRY_ENTITY_MAP: dict[str, str] = {
    "siren": "SIREN",
    "legal_name": "LEGAL_NAME",
    "former_names": "FORMER_NAMES",
    "activity_code": "ACTIVITY",
}

DEFAULT_REGISTRY_FACILITY_MAP: dict[str, str] = {
    "siret": "SIRET",
    "names": "NAMES",
    "street": "STREET",
    "zipcode": "POSTAL_CODE",
    "city": "CITY",
    "activity_code": "ACTIVITY",
    "open_date": "OPENED",
    "close_date": "CLOSED",
}

# Separator strings seen in joint agent / criterion fields. A separator made
# of one repeated character also matches longer runs of that character.
DEFAULT_SEPARATORS = ["---", "///", " // ", " / ", ";"]

# Tokens that mark postal (not geographic) address parts; stripped together
# with any digits that follow them.
DEFAULT_POSTAL_TOKENS = ["BP", "CS", "CEDEX", "TSA"]

# Winner-name values that mean the award failed, after name normalization.
DEFAULT_UNSUCCESSFUL_MARKERS = [
    "INFRUCTUEUX",
    "INFRUCTEUX",
    "SANS SUITE",
    "ANNULE",
    "LOT INFRUCTUEUX",
]

# Keyword stem (folded) -> criterion class. Stems match as substrings of the
# folded criterion name; class priority is fixed in criteria.classify_criterion.
DEFAULT_CRITERION_LEXICON: dict[str, CriterionClass] = {
    "PRIX": CriterionClass.PRICE,
    "COUT": CriterionClass.PRICE,
    "TARIF": CriterionClass.PRICE,
    "MONTANT": CriterionClass.PRICE,
    "FINANCI": CriterionClass.PRICE,
    "PRICE": CriterionClass.PRICE,
    "DELAI": CriterionClass.DEADLINE,
    "DUREE": CriterionClass.DEADLINE,
    "CALENDRIER": CriterionClass.DEADLINE,
    "PLANNING": CriterionClass.DEADLINE,
    "RAPIDITE": CriterionClass.DEADLINE,
    "ENVIRONNEMENT": CriterionClass.ENVIRONMENTAL,
    "ECOLOG": CriterionClass.ENVIRONMENTAL,
    "DURABLE": CriterionClass.ENVIRONMENTAL,
    "DECHET": CriterionClass.ENVIRONMENTAL,
    "CARBONE": CriterionClass.ENVIRONMENTAL,
    "SOCIAL": CriterionClass.SOCIAL,
    "INSERTION": CriterionClass.SOCIAL,
    "EMPLOI": CriterionClass.SOCIAL,
    "HANDICAP": CriterionClass.SOCIAL,
    "SOLIDAIRE": CriterionClass.SOCIAL,
    "ETHIQUE": CriterionClass.SOCIAL,
    "TECHNIQUE": CriterionClass.TECHNICAL,
    "TECHNIC": CriterionClass.TECHNICAL,
    "QUALITE": CriterionClass.TECHNICAL,
    "METHODOLOG": CriterionClass.TECHNICAL,
    "MOYENS": CriterionClass.TECHNICAL,
    "COMPETENCE": CriterionClass.TECHNICAL,
    "EXPERIENCE": CriterionClass.TECHNICAL,
    "FONCTIONNEL": CriterionClass.TECHNICAL,
    "PERFORMANCE": CriterionClass.TECHNICAL,
    "ORGANISATION": CriterionClass.TECHNICAL,
    "MAINTENANCE": CriterionClass.TECHNICAL,
    "GARANTIE": CriterionClass.TECHNICAL,
    "SECURITE": CriterionClass.TECHNICAL,
    "INNOVATION": CriterionClass.TECHNICAL,
    "ESTHETIQUE": CriterionClass.TECHNICAL,
}

DEFAULT_CONTRACT_TYPE_VALUES: dict[str, ContractType] = {
    "SUPPLIES": ContractType.GOODS,
    "FOURNITURES": ContractType.GOODS,
    "GOODS": ContractType.GOODS,
    "SERVICES": ContractType.SERVICES,
    "WORKS": ContractType.WORKS,
    "TRAVAUX": ContractType.WORKS,
}

DEFAULT_DATE_FORMATS = ["%Y-%m-%d", "%d/%m/%Y"]
# each date format must read back, whole, the text it writes for this date
DATE_FORMAT_PROBE = dt.date(2013, 11, 27)


@dataclass(frozen=True)
class MatchConfig:
    """Thresholds and weights of the identification pipeline."""

    name_threshold: float = 0.80
    street_weight: float = 0.40
    zipcode_weight: float = 0.35
    city_weight: float = 0.25
    min_address_score: float = 0.30
    activity_prefix_length: int = 2
    allow_unblocked: bool = False

    def validate(self) -> list[str]:
        errors = []
        for name in ("name_threshold", "min_address_score"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                errors.append(f"match.{name} must be in [0, 1], got {v}")
        for key in ("street", "zipcode", "city"):
            if (v := getattr(self, f"{key}_weight")) < 0:
                errors.append(f"match.address_weights.{key} must be >= 0, got {v}")
        total = self.street_weight + self.zipcode_weight + self.city_weight
        if not abs(total - 1.0) <= 1e-9:
            errors.append(f"match address weights must sum to 1.0, got {total}")
        if self.activity_prefix_length < 1:
            errors.append("match.activity_prefix_length must be >= 1")
        return errors


@dataclass
class PipelineConfig:
    lot_files: list[str] = field(default_factory=list)
    registry_entity_file: str | None = None
    registry_facility_file: str | None = None
    postal_file: str | None = None
    contract_notice_file: str | None = None
    ground_truth_file: str | None = None
    output_dir: str = "out"
    delimiter: str = ","
    column_map: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_COLUMN_MAP))
    registry_entity_map: dict[str, str] = field(
        default_factory=lambda: dict(DEFAULT_REGISTRY_ENTITY_MAP)
    )
    registry_facility_map: dict[str, str] = field(
        default_factory=lambda: dict(DEFAULT_REGISTRY_FACILITY_MAP)
    )
    separators: list[str] = field(default_factory=lambda: list(DEFAULT_SEPARATORS))
    postal_tokens: list[str] = field(default_factory=lambda: list(DEFAULT_POSTAL_TOKENS))
    unsuccessful_markers: list[str] = field(
        default_factory=lambda: list(DEFAULT_UNSUCCESSFUL_MARKERS)
    )
    criterion_lexicon: dict[str, CriterionClass] = field(
        default_factory=lambda: dict(DEFAULT_CRITERION_LEXICON)
    )
    contract_type_values: dict[str, ContractType] = field(
        default_factory=lambda: dict(DEFAULT_CONTRACT_TYPE_VALUES)
    )
    date_formats: list[str] = field(default_factory=lambda: list(DEFAULT_DATE_FORMATS))
    # First and last publication date kept by ingest, both inclusive.
    period: tuple[dt.date, dt.date] = (dt.date(2010, 1, 1), dt.date(2020, 12, 31))
    match: MatchConfig = field(default_factory=MatchConfig)
    merge_threshold: float = 0.85
    # CPV prefix -> acceptable registry activity prefixes; None disables the
    # activity filter entirely.
    cpv_activity_map: dict[str, list[str]] | None = None

    def validate(self) -> list[str]:
        """Collect every problem instead of failing on the first."""
        errors: list[str] = []
        errors.extend(self.match.validate())
        if not 0.0 <= self.merge_threshold <= 1.0:
            errors.append(f"merge_threshold must be in [0, 1], got {self.merge_threshold}")
        # csv refuses each of these as a delimiter on some Python version
        if len(self.delimiter) != 1 or self.delimiter in '"\r\n\0':
            errors.append("delimiter must be a single character other than a quote, CR, LF "
                          f"or NUL, got {self.delimiter!r}")
        for map_name, keys in MANDATORY_FIELDS.items():
            for key in keys:
                if not getattr(self, map_name).get(key):
                    errors.append(f"{map_name}.{key} must name a column")
        if not self.separators or "" in self.separators:
            errors.append("separators must be a non-empty list of non-empty strings")
        if self.period[0] > self.period[1]:
            errors.append("period starts after it ends")
        if not self.date_formats:
            errors.append("date_formats must list at least one format")
        for fmt in self.date_formats:
            try:
                read = dt.datetime.strptime(DATE_FORMAT_PROBE.strftime(fmt), fmt).date()
            except (ValueError, re.error):
                read = None
            if read != DATE_FORMAT_PROBE:
                errors.append(f"date_formats: {fmt!r} does not read back the whole date"
                              f" it writes ({DATE_FORMAT_PROBE.isoformat()})")
        # os.path.exists answers False for a NUL in a path; Path.exists raises.
        for path in self.lot_files:
            if not os.path.exists(path):
                errors.append(f"lot file does not exist: {path}")
        for label, path in [
            ("registry entity file", self.registry_entity_file),
            ("registry facility file", self.registry_facility_file),
            ("postal file", self.postal_file),
            ("contract notice file", self.contract_notice_file),
            ("ground truth file", self.ground_truth_file),
        ]:
            if path is not None and not os.path.exists(path):
                errors.append(f"{label} does not exist: {path}")
        return errors


# JSON location of the fields that do not sit under their own name, relative
# to the object their dataclass is read from.
_JSON_PATH: dict[str, tuple[str, ...]] = {
    "lot_files": ("inputs", "lots"),
    "registry_entity_file": ("inputs", "registry_entities"),
    "registry_facility_file": ("inputs", "registry_facilities"),
    "postal_file": ("inputs", "postal"),
    "contract_notice_file": ("inputs", "contract_notice_ids"),
    "ground_truth_file": ("inputs", "ground_truth"),
    "street_weight": ("address_weights", "street"),
    "zipcode_weight": ("address_weights", "zipcode"),
    "city_weight": ("address_weights", "city"),
}

# Header maps: the file names only the columns that differ from the defaults.
_MERGED_MAPS = {"column_map", "registry_entity_map", "registry_facility_map"}

# Top-level keys that once named a field and now select nothing.
_RETIRED = ("jobs",)


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _fail(path: str, expected: str, value: object) -> typing.NoReturn:
    raise ConfigError(f"{path or 'the config'}: expected {expected}, got {json.dumps(value)}")


def _convert(value: object, tp: object, path: str) -> object:
    """The JSON value converted to the annotation `tp`, or ConfigError."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        (inner,) = [a for a in args if a is not type(None)]
        return None if value is None else _convert(value, inner, path)
    if dataclasses.is_dataclass(tp):
        return _from_json(tp, value, path)
    if origin is list:
        if not isinstance(value, list):
            _fail(path, "a list", value)
        return [_convert(v, args[0], f"{path}[{i}]") for i, v in enumerate(value)]
    if origin is dict:
        if not isinstance(value, dict):
            _fail(path, "an object", value)
        return {k: _convert(v, args[1], _join(path, k)) for k, v in value.items()}
    if origin is tuple:
        if not isinstance(value, list) or len(value) != len(args):
            _fail(path, f"a list of {len(args)} values", value)
        return tuple(_convert(v, a, f"{path}[{i}]") for i, (v, a) in enumerate(zip(value, args)))
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        try:
            return tp(value)
        except (ValueError, TypeError):
            _fail(path, "one of " + ", ".join(str(m.value) for m in tp), value)
    if tp is dt.date:
        try:
            return dt.date.fromisoformat(value)
        except (ValueError, TypeError):
            _fail(path, "an ISO date such as 2010-01-31", value)
    if isinstance(value, bool) != (tp is bool):
        _fail(path, tp.__name__, value)
    if tp is float and isinstance(value, int):
        try:
            return float(value)
        except OverflowError:
            _fail(path, "a number in floating-point range", value)
    if not isinstance(value, tp):
        _fail(path, tp.__name__, value)
    return value


def _from_json(cls: type, data: object, path: str, other_keys: tuple[str, ...] = ()) -> object:
    """An instance of the dataclass `cls` read from a JSON object; a key of
    it, or of an object under it such as `inputs`, that names no field and
    is none of `other_keys` is a ConfigError."""
    if not isinstance(data, dict):
        _fail(path, "an object", data)
    values = {}
    known = {path: (data, set(other_keys))}  # each object read, by path: it and its keys
    for f in dataclasses.fields(cls):
        *parents, key = _JSON_PATH.get(f.name, (f.name,))
        node, where = data, path
        for parent in parents:
            known[where][1].add(parent)
            where = _join(where, parent)
            node = node.get(parent, {})
            if not isinstance(node, dict):
                _fail(where, "an object", node)
            known.setdefault(where, (node, set()))
        known[where][1].add(key)
        if key in node:
            value = _convert(node[key], f.type, _join(where, key))
            if f.name in _MERGED_MAPS:
                value = {**f.default_factory(), **value}
            values[f.name] = value
    unknown = [
        f"  - {_join(where, key)}" + "".join(
            f" (did you mean {_join(where, close)}?)"
            for close in difflib.get_close_matches(key, keys, 1)
        )
        for where, (node, keys) in known.items() for key in node if key not in keys
    ]
    if unknown:
        raise ConfigError("config keys that name no setting:\n" + "\n".join(unknown))
    return cls(**values)


def _read_json(path: str, what: str) -> object:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    # ValueError: bad JSON, UTF-8 or path; RecursionError: nesting too deep
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read {what} {path} as JSON: {exc}") from exc


def config_from_dict(data: object) -> PipelineConfig:
    """A config read from parsed JSON; raises ConfigError naming the bad key."""
    config = _from_json(PipelineConfig, data, "", ("criterion_lexicon_path", *_RETIRED))
    for key in _RETIRED:
        if key in data:
            log.warning("config key %s is retired and selects nothing", key)
    lexicon_path = _convert(data.get("criterion_lexicon_path"), str | None, "criterion_lexicon_path")
    if lexicon_path:
        config.criterion_lexicon = _convert(
            _read_json(lexicon_path, "criterion_lexicon_path"),
            PipelineConfig.__annotations__["criterion_lexicon"],
            "criterion_lexicon_path",
        )
    return config


def validate_config(path: str) -> PipelineConfig:
    """Load and validate a config file; raises ConfigError listing every issue."""
    cfg = config_from_dict(_read_json(path, "config file"))
    errors = cfg.validate()
    if errors:
        raise ConfigError("invalid configuration:\n" + "\n".join(f"  - {e}" for e in errors))
    return cfg
