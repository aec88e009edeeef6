"""Reference weight rounding and majority rule: the bodies that criteria and
merge once had, kept verbatim as oracles for the integer rounding and the
single majority function that replaced them.

`normalize_weights` rounds through `fractions.Fraction`; identifiers and
address fields each have their own majority function.
"""
from __future__ import annotations

from collections import Counter
from decimal import Decimal
from fractions import Fraction

from tedclean.merge import field_completeness
from tedclean.models import AgentOccurrence, CaseKind, Identifier


def _round_half_up_2(value: Fraction) -> Fraction:
    scaled = value * 100
    floor = scaled.numerator // scaled.denominator
    if (scaled - floor) * 2 >= 1:
        floor += 1
    return Fraction(floor, 100)


def normalize_weights(weights: list[Decimal]) -> list[Decimal] | None:
    if not weights:
        return None
    fracs = [Fraction(w) for w in weights]
    total = sum(fracs)
    if total <= 0 or any(f < 0 for f in fracs):
        return None
    rounded = [_round_half_up_2(100 * f / total) for f in fracs]
    residual = 100 - sum(rounded)
    if residual:
        largest = fracs.index(max(fracs))
        rounded[largest] += residual
    two_places = Decimal("0.01")
    return [
        (Decimal(r.numerator) / Decimal(r.denominator)).quantize(two_places)
        for r in rounded
    ]


def resolve_cluster(
    members: list[AgentOccurrence], allocate_internal
) -> tuple[CaseKind, Identifier]:
    identifiers = [occ.identifier for occ in members if occ.identifier is not None]
    distinct = set(identifiers)

    if len(members) == 1:
        resolved = members[0].identifier or allocate_internal()
        return CaseKind.SINGLETON, resolved
    if not distinct:
        return CaseKind.ALL_UNIDENTIFIED, allocate_internal()
    if len(distinct) == 1:
        return CaseKind.SINGLE_IDENTIFIED, next(iter(distinct))

    counts = Counter(identifiers)
    top = max(counts.values())
    tied = [ident for ident, n in counts.items() if n == top]
    if len(tied) > 1:
        def bearer_completeness(ident: Identifier) -> int:
            return max(
                field_completeness(occ) for occ in members if occ.identifier == ident
            )

        best = max(bearer_completeness(ident) for ident in tied)
        tied = sorted(
            (i for i in tied if bearer_completeness(i) == best),
            key=lambda i: i.value,
        )
    return CaseKind.CONFLICTING_IDS, tied[0]


def majority_value(members: list[AgentOccurrence], field_name: str) -> str | None:
    values = [getattr(occ, field_name) for occ in members if getattr(occ, field_name)]
    if not values:
        return None
    counts = Counter(values)
    top = max(counts.values())
    tied = sorted(v for v, n in counts.items() if n == top)
    if len(tied) == 1:
        return tied[0]
    bearers = [occ for occ in members if getattr(occ, field_name) in tied]
    best = max(field_completeness(occ) for occ in bearers)
    return min(
        getattr(occ, field_name) for occ in bearers if field_completeness(occ) == best
    )
