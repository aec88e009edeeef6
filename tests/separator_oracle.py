"""Reference separator handling: the per-call helpers that ingest and
criteria once shared, and the functions built on them, kept verbatim as
oracles for the cached patterns that replaced them.

Each separator is compiled again on every call and detection takes a list
of values; `split_criteria` parses its weight cell itself.
"""
from __future__ import annotations

import re
from decimal import Decimal

from hypothesis import strategies as st

from tedclean.criteria import (
    _LEADING_NUMBER_RE,
    _NUMBER_RE,
    _PAREN_NUMBER_RE,
    _SEGMENT_SPLIT_RE,
    _TRAILING_NUMBER_RE,
)
from tedclean.ingest import AgentFields, parse_decimal


def separator_pattern(sep: str) -> re.Pattern:
    if len(sep) >= 2 and len(set(sep)) == 1:
        return re.compile(f"{re.escape(sep[0])}{{{len(sep)},}}")
    return re.compile(re.escape(sep))


def detect_separators(values: list[str], known_separators: list[str]) -> list[str]:
    ordered = sorted(known_separators, key=len, reverse=True)
    found = []
    for sep in ordered:
        pattern = separator_pattern(sep)
        if any(pattern.search(v) for v in values if v):
            found.append(sep)
    return found


def split_on_separator(value: str, sep: str) -> list[str]:
    return [part.strip() for part in separator_pattern(sep).split(value)]


def split_joint_agents(
    fields: AgentFields, separators: list[str]
) -> list[tuple[AgentFields, bool]]:
    detected = detect_separators([fields.name], separators)
    if not detected:
        return [(fields, False)]
    sep = detected[0]
    name_parts = split_on_separator(fields.name, sep)
    k = len(name_parts)
    if k < 2 or any(not part for part in name_parts):
        return [(fields, k >= 2)]

    strict = {"street": fields.street, "zipcode": fields.zipcode, "city": fields.city}
    split_strict: dict[str, list[str]] = {}
    for key, value in strict.items():
        if not value:
            split_strict[key] = [""] * k
            continue
        parts = split_on_separator(value, sep)
        if len(parts) != k:
            return [(fields, True)]
        split_strict[key] = parts

    def secondary(value: str) -> list[str]:
        if not value:
            return [""] * k
        parts = split_on_separator(value, sep)
        return parts if len(parts) == k else [""] * k

    sirets = secondary(fields.siret)
    countries = split_on_separator(fields.country, sep) if fields.country else [""] * k
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


def clean_weight_field(raw: str, separators: list[str]) -> list[Decimal]:
    if not raw or not raw.strip():
        return []
    text = raw
    for sep in detect_separators([text], separators):
        text = separator_pattern(sep).sub("\x00", text)
    tokens: list[Decimal] = []
    for segment in text.split("\x00"):
        for match in _NUMBER_RE.finditer(segment):
            value = parse_decimal(match.group(0))
            if value is not None:
                tokens.append(value)
    return tokens


def split_criteria(
    names_field: str,
    weights_field: str,
    separators: list[str],
) -> tuple[list[tuple[str, Decimal | None]], bool]:
    detected = detect_separators([names_field], separators)
    if detected:
        names = [n for n in split_on_separator(names_field, detected[0]) if n]
    else:
        names = [names_field.strip()] if names_field.strip() else []
    weights = clean_weight_field(weights_field, separators)
    if not names:
        return [("", w) for w in weights], False
    if not weights:
        return [(n, None) for n in names], False
    if len(names) == len(weights):
        return list(zip(names, weights)), False
    return [(n, None) for n in names], True


def unmix_names_weights(mixed: str, separators: list[str]) -> list[tuple[str, Decimal | None]]:
    if not mixed or not mixed.strip():
        return []
    text = mixed
    for sep in detect_separators([text], separators):
        text = separator_pattern(sep).sub("\x00", text)
    text = _SEGMENT_SPLIT_RE.sub("\x00", text)
    pairs: list[tuple[str, Decimal | None]] = []
    for segment in text.split("\x00"):
        segment = segment.strip()
        if not segment:
            continue
        weight: Decimal | None = None
        name = segment
        for pattern in (_PAREN_NUMBER_RE, _TRAILING_NUMBER_RE, _LEADING_NUMBER_RE):
            match = pattern.search(segment)
            if match:
                weight = parse_decimal(match.group(1))
                name = (segment[: match.start()] + segment[match.end() :]).strip(" :-–\t")
                break
        pairs.append((name, weight))
    return pairs


# Separator lists with runs, overlaps (" / " inside " // "), single
# characters, letters and duplicates, and cells made of their characters.
_SEPARATOR_CHARS = "-/ ;,e|:\x00"
separator_lists = st.lists(
    st.sampled_from(["---", "--", "-", " / ", " // ", "//", ";", " ", "e", "ee", "|"])
    | st.text(alphabet=_SEPARATOR_CHARS, min_size=1, max_size=4),
    min_size=1,
    max_size=6,
)
cells = st.text(alphabet=_SEPARATOR_CHARS + "()%.0123456789Ab\t", max_size=30) | st.text(max_size=12)
