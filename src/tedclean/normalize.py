"""Name and address normalization, zipcode repair, department derivation.

All matching downstream happens on the folded forms produced here, so the
fold must be deterministic and idempotent: the output alphabet is exactly
[A-Z0-9 ] with single spaces and no leading/trailing blanks.

Both sides of a comparison fold alike: the registry's streets, zipcodes
and cities by `normalize_address`, and the configured `postal_tokens`,
`unsuccessful_markers` and `contract_type_values` keys (with the cell) by
`normalize_name`. A word folding to nothing is dropped, so an empty token
list strips nothing; contract-type keys folding alike to different types
are a ConfigError.

One rule reads every zipcode, of a lot, a registry facility or a postal
row: `normalize_address` folds the cell, strips postal tokens and keeps
its first run of exactly five digits, so `F-69003`, `69003 CEDEX` and
full-width `６９００３` read `69003`, while `2920` and a SIRET read nothing.
Where `CEDEX` took the only run (`CEDEX 69003`), the cell's first run
outside a box token is read; a box number (`BP 12345`, `CS 12345`,
`TSA 30001 CEDEX`) is never a zipcode.
"""
from __future__ import annotations

import re
import unicodedata
from collections.abc import Sequence
from functools import lru_cache

from .config import DEFAULT_POSTAL_TOKENS
from .files import read_rows
from .models import AgentOccurrence, ConfigError, ContractType, ascii_digits, validate_siret

# Ligatures and letters NFKD leaves alone.
_FOLD_TABLE = str.maketrans(
    {
        "Œ": "OE", "œ": "oe", "Æ": "AE", "æ": "ae",
        "ß": "SS", "ẞ": "SS",
        "Ø": "O", "ø": "o",
        "Đ": "D", "đ": "d", "Ð": "D", "ð": "d",
        "Þ": "TH", "þ": "th",
        "Ł": "L", "ł": "l",
        "Ĳ": "IJ", "ĳ": "ij",
    }
)

_PARENS_RE = re.compile(r"\([^()]*\)")
_NON_ALNUM_RE = re.compile(r"[^A-Z0-9]+")
_SPACES_RE = re.compile(r"\s+")
_FIVE_DIGITS_RE = re.compile(r"(?<!\d)\d{5}(?!\d)")
_DIGITS_RE = re.compile(r"\d+")


def _strip_parens(text: str) -> str:
    # innermost-out, so nesting unwinds completely
    while True:
        stripped = _PARENS_RE.sub(" ", text)
        if stripped == text:
            return text
        text = stripped


def _fold_ascii(text: str) -> str:
    text = text.translate(_FOLD_TABLE)
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(c for c in decomposed if not unicodedata.combining(c))


# a corpus repeats few names, streets and cities (65,337 folds of 110
# distinct values on a 5,000-lot run); the bound caps the memo's memory on
# corpora with many more distinct values
NORMALIZE_NAME_MEMO_SIZE = 1 << 16


@lru_cache(maxsize=NORMALIZE_NAME_MEMO_SIZE)
def normalize_name(raw: str) -> str:
    """Fold a free-text agent name to its canonical comparable form.

    Parenthesized segments go first (they carry superfluous indications),
    then "&" becomes " ET ", diacritics fold to base letters, punctuation
    becomes spaces, runs of blanks collapse, and the result is upper-cased.
    An empty result is allowed.
    """
    if not raw:
        return ""
    text = _strip_parens(raw)
    text = text.replace("&", " ET ")
    text = _fold_ascii(text).upper()
    text = _NON_ALNUM_RE.sub(" ", text)
    return _SPACES_RE.sub(" ", text).strip()


@lru_cache(maxsize=8)
def fold_words(words: tuple[str, ...]) -> tuple[str, ...]:
    """Configured words folded by normalize_name; a word that folds to nothing is dropped."""
    return tuple(folded for word in words if (folded := normalize_name(word)))


@lru_cache(maxsize=8)
def fold_contract_types(items: tuple[tuple[str, ContractType], ...]) -> dict[str, ContractType]:
    """`contract_type_values` keyed by the folded key; keys folding to nothing are dropped."""
    folded: dict[str, tuple[str, ContractType]] = {}
    for key, value in items:
        word = normalize_name(key)
        first, seen = folded.setdefault(word, (key, value))
        if word and seen is not value:
            raise ConfigError(f"contract_type_values: keys {first!r} and {key!r} both fold "
                              f"to {word!r} but map to different types")
    return {word: value for word, (_, value) in folded.items() if word}


@lru_cache(maxsize=8)
def _postal_token_re(tokens: tuple[str, ...]) -> re.Pattern:
    alts = "|".join(re.escape(t) for t in fold_words(tokens))
    # no alternative at all would match every word boundary and strip every number
    return re.compile(rf"\b(?:{alts})\b(?:\s+\d+)?" if alts else "(?!)")


@lru_cache(maxsize=8)
def _box_token_re(tokens: tuple[str, ...]) -> re.Pattern:
    """The postal tokens but CEDEX: a box (BP, CS, TSA) always takes its
    number with it, while CEDEX may stand before the zipcode (CEDEX 69003)."""
    return _postal_token_re(tuple(t for t in fold_words(tokens) if t != "CEDEX"))


def _strip_postal(value: str | None, token_re: re.Pattern) -> str | None:
    if not value:
        return None
    folded = token_re.sub(" ", normalize_name(value))
    return _SPACES_RE.sub(" ", folded).strip() or None


def normalize_city(city: str | None, postal_tokens: Sequence[str]) -> str | None:
    """Fold a city as both sides of the postal lookup see it: the name fold
    without postal tokens (and the digits after them), then without digits."""
    folded = _strip_postal(city, _postal_token_re(tuple(postal_tokens)))
    if not folded:
        return None
    return _SPACES_RE.sub(" ", _DIGITS_RE.sub(" ", folded)).strip() or None


def normalize_address(
    street: str | None,
    zipcode: str | None,
    city: str | None,
    postal_tokens: Sequence[str],
) -> tuple[str | None, str | None, str | None]:
    """Clean an address triple.

    Streets and cities get the name fold; postal-only tokens (BP, CS,
    CEDEX... plus trailing digits) are stripped from all three fields; the
    zipcode is reduced to its first run of exactly five digits or dropped;
    cities lose digits.
    """
    token_re = _postal_token_re(tuple(postal_tokens))
    out_zip = None
    if zipcode:
        folded = normalize_name(zipcode)
        # a token's digits are not the zipcode, unless CEDEX took the only
        # run there is (CEDEX 69003)
        run = _FIVE_DIGITS_RE.search(token_re.sub(" ", folded)) or _FIVE_DIGITS_RE.search(
            _box_token_re(tuple(postal_tokens)).sub(" ", folded)
        )
        out_zip = run.group(0) if run else None
    return _strip_postal(street, token_re), out_zip, normalize_city(city, postal_tokens)


def load_postal_table(
    path: str, delimiter: str, postal_tokens: Sequence[str] = DEFAULT_POSTAL_TOKENS
) -> dict[str, set[str]]:
    """Folded city -> zipcodes, from (city, zipcode) lines read by
    `normalize_address`; a header or a row without both is skipped."""
    table: dict[str, set[str]] = {}
    for row in read_rows(path, "postal file", delimiter):
        if len(row) < 2:
            continue
        _, zipcode, city = normalize_address(None, row[1], row[0], postal_tokens)
        if city and zipcode:
            table.setdefault(city, set()).add(zipcode)
    return table


def fill_zipcode(city: str, table: dict[str, set[str]]) -> str | None:
    """Zipcode for a folded city name, only when the mapping is unambiguous."""
    zips = table.get(city)
    if zips and len(zips) == 1:
        return next(iter(zips))
    return None


def department_of(zipcode: str | None) -> str | None:
    """French department code of a 5-digit zipcode.

    Overseas (97x/98x) keeps three digits; Corsica stays "20" (2A/2B are
    not distinguishable from the zipcode alone).
    """
    if not zipcode or not ascii_digits(zipcode, 5):
        return None
    if zipcode[:2] in ("97", "98"):
        return zipcode[:3]
    return zipcode[:2]


def normalize_occurrence(
    occ: AgentOccurrence,
    postal: dict[str, set[str]] | None,
    postal_tokens: list[str],
) -> None:
    """Fill normalized_name, clean the address in place, derive department.

    A missing zipcode is filled from the postal table only when the city
    maps to exactly one zipcode; a present zipcode is never overwritten.
    """
    occ.normalized_name = normalize_name(occ.raw_name) or None
    street, zipcode, city = normalize_address(
        occ.street, occ.zipcode, occ.city, postal_tokens
    )
    occ.street, occ.zipcode, occ.city = street, zipcode, city
    if occ.country:
        occ.country = normalize_name(occ.country) or None
    if occ.zipcode is None and occ.city and postal is not None:
        occ.zipcode = fill_zipcode(occ.city, postal)
    occ.department = department_of(occ.zipcode)


def merge_by_declared_siret(occurrences: list[AgentOccurrence]) -> None:
    """Identify occurrences by their valid declared SIRET or SIREN.

    Sets occ.identifier from the declared value (full SIRET or bare
    SIREN); malformed declarations are treated as absent, and an
    occurrence that already has an identifier is left alone.
    """
    for occ in occurrences:
        if occ.identifier is not None:
            continue
        if not occ.declared_siret:
            continue
        ident = validate_siret(occ.declared_siret)
        if ident is None:
            continue
        occ.identifier = ident
        occ.identifier_source = "declared"
