"""Repair award-criterion fields: split, un-mix, normalize, classify.

The raw tables hold criterion names and weights as free text, sometimes
several per cell, sometimes mixed into one cell, with weights summing to
anything. Repair makes each lot carry one row per criterion, classified
into six classes, with weights that sum to exactly 100.00 when they can be
normalized and kept raw (flagged) when they cannot.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from decimal import Decimal
from functools import lru_cache
from math import lcm

from .config import PipelineConfig
from .models import CriteriaRaw, Criterion, CriterionClass
from .normalize import normalize_name
from .ingest import parse_decimal, separators_in

_NUMBER_RE = re.compile(r"\d+(?:[.,]\d+)?")
_SEGMENT_SPLIT_RE = re.compile(r"[;,]")

# class priority for names matching several keywords; OTHERS is the fallback
_CLASS_PRIORITY = (
    CriterionClass.PRICE,
    CriterionClass.DEADLINE,
    CriterionClass.ENVIRONMENTAL,
    CriterionClass.SOCIAL,
    CriterionClass.TECHNICAL,
)


def _mark_separators(text: str, separators: list[str]) -> str:
    """The text with every configured separator found in it replaced by NUL."""
    for pattern in separators_in(text, separators):
        text = pattern.sub("\x00", text)
    return text


def clean_weight_field(raw: str, separators: list[str]) -> list[Decimal]:
    """Numeric tokens of a weight cell, in order, junk discarded."""
    if not raw or not raw.strip():
        return []
    tokens: list[Decimal] = []
    for segment in _mark_separators(raw, separators).split("\x00"):
        for match in _NUMBER_RE.finditer(segment):
            value = parse_decimal(match.group(0))
            if value is not None:
                tokens.append(value)
    return tokens


def split_criteria(
    names_field: str,
    weights: list[Decimal],
    separators: list[str],
) -> tuple[list[tuple[str, Decimal | None]], bool]:
    """Align name parts with the weight tokens of the lot's weight cell.

    Returns the (name, weight) pairs and a mismatch flag. When the counts
    disagree the names are kept and every weight is absent; guessing an
    alignment would attach wrong weights silently.
    """
    found = separators_in(names_field, separators)
    if found:
        names = [n for part in found[0].split(names_field) if (n := part.strip())]
    else:
        names = [names_field.strip()] if names_field.strip() else []
    if not names:
        return [("", w) for w in weights], False
    if not weights:
        return [(n, None) for n in names], False
    if len(names) == len(weights):
        return list(zip(names, weights)), False
    return [(n, None) for n in names], True


_PAREN_NUMBER_RE = re.compile(r"\(\s*(\d+(?:[.,]\d+)?)[^)]*\)")
_TRAILING_NUMBER_RE = re.compile(
    r"[:\-–]?\s*(\d+(?:[.,]\d+)?)\s*(?:%|points?|pts?)?\s*$", re.IGNORECASE
)
_LEADING_NUMBER_RE = re.compile(
    r"^\s*(\d+(?:[.,]\d+)?)\s*(?:%|points?|pts?)?\s*[:\-–]?\s*", re.IGNORECASE
)


def unmix_names_weights(mixed: str, separators: list[str]) -> list[tuple[str, Decimal | None]]:
    """Extract (name, weight) pairs from a cell that holds both.

    Segments split on configured separators plus ";" and ","; in each
    segment the weight is the bracketed, trailing, or leading number and
    the name is what remains.
    """
    if not mixed or not mixed.strip():
        return []
    text = _SEGMENT_SPLIT_RE.sub("\x00", _mark_separators(mixed, separators))
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


def normalize_weights(weights: list[Decimal]) -> list[Decimal] | None:
    """Rescale weights to sum exactly 100.00.

    Each weight becomes 100·w/Σw rounded half-up to 2 decimals; the
    rounding residual goes to the first largest input weight. The weights
    are first made integers exactly: each Decimal's integer ratio times
    the lcm of the denominators over its own (no Decimal arithmetic, which
    rounds to the context's 28 digits), so the result is scale-invariant.
    Returns None when the input cannot be normalized (empty, negative, or
    zero-sum).
    """
    if not weights:
        return None
    ratios = [w.as_integer_ratio() for w in weights]
    common = lcm(*(d for _, d in ratios))
    units = [n * (common // d) for n, d in ratios]
    total = sum(units)
    if total <= 0 or any(u < 0 for u in units):
        return None
    cents = [(20000 * u + total) // (2 * total) for u in units]  # ⌊10000·u/Σ + ½⌋
    cents[units.index(max(units))] += 10000 - sum(cents)
    return [Decimal(c).scaleb(-2) for c in cents]  # 100.00 and 0.00 keep two places


@lru_cache(maxsize=8)
def _folded_lexicon(
    items: tuple[tuple[str, str], ...]
) -> tuple[tuple[CriterionClass, tuple[str, ...]], ...]:
    by_class: dict[str, list[str]] = {}
    for keyword, cls in items:
        folded = normalize_name(keyword)
        if folded:
            by_class.setdefault(cls, []).append(folded)
    return tuple((cls, tuple(by_class.get(cls.value, ()))) for cls in _CLASS_PRIORITY)


def classify_criterion(raw_name: str, lexicon: dict[str, str]) -> CriterionClass:
    """Map a raw criterion name to one of the six classes."""
    folded = normalize_name(raw_name)
    if folded:
        for cls, keywords in _folded_lexicon(tuple(lexicon.items())):
            for keyword in keywords:
                if keyword in folded:
                    return cls
    return CriterionClass.OTHERS


def extract_price_weight(
    price_field: str, criteria: list[Criterion], lot_id: int = 0
) -> tuple[list[Criterion], bool]:
    """Ensure exactly one PRICE criterion, preferring the dedicated field.

    Returns the updated list and a conflict flag set when an explicit
    price weight had to be overridden or duplicate PRICE rows dropped.
    """
    numbers = _NUMBER_RE.findall(price_field or "")
    dedicated = parse_decimal(numbers[0]) if numbers else None
    price_rows = [c for c in criteria if c.criterion_class is CriterionClass.PRICE]
    flagged = False

    if not price_rows:
        if dedicated is None:
            return criteria, False
        price = Criterion(
            lot_id=criteria[0].lot_id if criteria else lot_id,
            raw_name="",
            criterion_class=CriterionClass.PRICE,
            weight=dedicated,
        )
        return [price] + criteria, False

    keep = next((c for c in price_rows if c.weight is not None), price_rows[0])
    dropped_ids = {id(c) for c in price_rows if c is not keep}
    if any(
        c.weight is not None and c.weight != keep.weight
        for c in price_rows
        if c is not keep
    ):
        flagged = True
    if dedicated is not None:
        if keep.weight is not None and keep.weight != dedicated:
            flagged = True
        keep.weight = dedicated
    ordered = [c for c in criteria if id(c) not in dropped_ids]
    return ordered, flagged


@dataclass
class CriteriaResult:
    criteria: list[Criterion] = field(default_factory=list)
    misaligned_lots: set[int] = field(default_factory=set)
    conflict_lots: set[int] = field(default_factory=set)
    unnormalized_lots: set[int] = field(default_factory=set)


def repair_criteria(raw_rows: list[CriteriaRaw], config: PipelineConfig) -> CriteriaResult:
    """Run the full repair on every lot's raw criterion cells."""
    result = CriteriaResult()
    for raw in raw_rows:
        names = raw.names_field.strip()
        weights = raw.weights_field.strip()
        price = raw.price_field.strip()
        if not names and not weights and not price:
            continue

        weight_tokens = clean_weight_field(weights, config.separators)
        if names and not weight_tokens and _NUMBER_RE.search(names):
            pairs = unmix_names_weights(names, config.separators)
            mismatched = False
        else:
            pairs, mismatched = split_criteria(names, weight_tokens, config.separators)
        if mismatched:
            result.misaligned_lots.add(raw.lot_id)

        criteria = [
            Criterion(
                lot_id=raw.lot_id,
                raw_name=name,
                criterion_class=classify_criterion(name, config.criterion_lexicon),
                weight=weight,
            )
            for name, weight in pairs
        ]
        criteria, conflicted = extract_price_weight(price, criteria, lot_id=raw.lot_id)
        if conflicted:
            result.conflict_lots.add(raw.lot_id)
        if not criteria:
            continue

        if all(c.weight is not None for c in criteria):
            normalized = normalize_weights([c.weight for c in criteria])
            if normalized is None:
                result.unnormalized_lots.add(raw.lot_id)
            else:
                for criterion, value in zip(criteria, normalized):
                    criterion.weight = value
                    criterion.weight_is_normalized = True
        elif any(c.weight is not None for c in criteria):
            result.unnormalized_lots.add(raw.lot_id)
        result.criteria.extend(criteria)
    return result
