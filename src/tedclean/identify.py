"""Recover missing identifiers by successive filtering against the registry.

Three phases per occurrence: block candidates on department, validity date
and activity domain; keep candidates whose name is close enough; rank the
rest by address score and take the best. Each failure records which phase
emptied the pool, so the corpus-level failure attribution is measurable.
No score reads the lot date, so each date-free payload's block is scored
once, and filtered by date once per epoch in which no validity changes.

A block's candidate names, and apart its streets, are packed once per
call and facility set, side by side into the bits of one int, with a
token index beside them. One bit-parallel column pass over a payload's
name then gives its edit distance to every packed name, and the index
gives the token overlaps, so every name similarity in the block comes
from one pass, and every street similarity from one more; levenshtein
and name_similarity are one lane of that same pass. Each string's
tokens and match masks are prepared once, in a bounded memo. Within one
payload, each distinct facility zipcode and city is compared once, and
each distinct triple of address similarities weighed once. merge packs
and scores its blocks of payloads with the same packer and block scorer.
"""
from __future__ import annotations

import datetime as dt
import logging
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

from .config import MatchConfig, PipelineConfig
from .files import write_rows
from .models import (
    AgentOccurrence,
    Identifier,
    InvariantError,
    LotRecord,
    RegistryFacility,
    full_siret,
)
from .normalize import department_of
from .registry import Registry, temporally_valid

log = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class CandidateScore:
    """Scores of one surviving candidate facility."""

    siret: str
    name_similarity: float
    address_score: float
    presence_mask: tuple[str, ...]

REASON_NO_NAME = "no-name"
REASON_UNBLOCKABLE = "unblockable"
REASON_BLOCKING = "blocking"
REASON_NAME = "name"
REASON_ADDRESS = "address"


def _columns(masks: dict[str, int], text: str, mask: int) -> tuple[int, int]:
    """The last edit-distance column of text against every lane of mask.

    Myers (1999, JACM 46(3)) in Hyyrö's (2003) form: bit i of pv/mv says
    whether row i of a lane's column rises or falls by one from row i-1,
    and one pass over text advances every column. A lane is a run of set
    bits of mask, with a clear guard bit above it that takes its carry, so
    lanes never meet (Hyyrö, Fredriksson and Navarro, ACM JEA 10, 2005).
    masks[char] has the lane bits set where the lane's string has char;
    bits of it outside mask never carry down into a lane. Python ints have
    no word size, so any number of lanes of any length is exact. A lane's
    distance is len(text) plus its pv bits less its mv bits.
    """
    lows = mask & ~(mask << 1)  # each lane's first row, one edit from the empty prefix
    pv, mv = mask, 0
    for char in text:
        eq = masks.get(char, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        ph = (ph << 1) | lows
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    return pv, mv & mask


# city pairs repeat across payloads and candidates, in identification and
# in merge; the bound caps the memory of the pair memo, and of the
# per-string one, on corpora with many more distinct names
NAME_SIMILARITY_MEMO_SIZE = 1 << 16


class _Profile(NamedTuple):
    """What every comparison of one string needs, prepared once and shared
    by every caller, so read only."""

    tokens: dict[str, int]
    token_total: int
    match_masks: dict[str, int]  # Myers' Peq: bit i set where text[i] is the char


@lru_cache(maxsize=NAME_SIMILARITY_MEMO_SIZE)
def _profile(text: str) -> _Profile:
    words = text.split()
    match_masks: dict[str, int] = {}
    bit = 1
    for char in text:
        match_masks[char] = match_masks.get(char, 0) | bit
        bit <<= 1
    return _Profile(Counter(words), len(words), match_masks)


class _Lanes(NamedTuple):
    """Strings packed side by side into the bits of one int, for _columns."""

    spans: list[tuple[int, int, int]]  # each lane's first bit, end bit and token count
    masks: dict[str, int]
    mask: int
    postings: dict[str, list[tuple[int, int]]]  # token: (lane, its count there)


def _pack(names: list[str]) -> _Lanes:
    spans: list[tuple[int, int, int]] = []
    masks: dict[str, int] = {}
    postings: dict[str, list[tuple[int, int]]] = {}
    mask = start = 0
    for lane, name in enumerate(names):
        profile = _profile(name)
        for char, bits in profile.match_masks.items():
            masks[char] = masks.get(char, 0) | bits << start
        for token, count in profile.tokens.items():
            postings.setdefault(token, []).append((lane, count))
        end = start + len(name)
        spans.append((start, end, profile.token_total))
        mask |= (1 << end) - (1 << start)
        start = end + 1  # past the guard bit
    return _Lanes(spans, masks, mask, postings)


def _distances(text: str, lanes: _Lanes) -> list[int]:
    """The edit distance of text to every packed name, from one column pass."""
    pv, mv = _columns(lanes.masks, text, lanes.mask)
    # one digit per bit, lowest first, so a lane's bits are a slice
    rises, falls = f"{pv:b}"[::-1], f"{mv:b}"[::-1]
    return [
        len(text) + rises.count("1", start, end) - falls.count("1", start, end)
        for start, end, _ in lanes.spans
    ]


def _similarities(text: str, lanes: _Lanes) -> list[float]:
    """The similarity in [0,1] of text to every packed name, all folded.

    0.0 where either has no token; else the larger of the token-multiset
    overlap coefficient and 1 minus the normalized edit distance, so both
    word reorderings and misspellings score high, and 1.0 exactly when one
    token multiset contains the other or the strings are equal.
    """
    profile = _profile(text)
    tokens, n = profile.token_total, len(text)
    if not tokens:
        return [0.0] * len(lanes.spans)
    shared = [0] * len(lanes.spans)
    for token, count in profile.tokens.items():
        for lane, other in lanes.postings.get(token, ()):
            shared[lane] += count if count < other else other
    # min and max written out: neither term can be a signed zero or NaN,
    # so every float is the one min() and max() would give
    similarities: list[float] = []
    for (start, end, total), common, distance in zip(lanes.spans, shared, _distances(text, lanes)):
        if not total:
            similarities.append(0.0)
            continue
        width = end - start
        overlap = common / (tokens if tokens < total else total)
        edit = 1.0 - distance / (n if n > width else width)
        similarities.append(overlap if overlap > edit else edit)
    return similarities


def levenshtein(a: str, b: str) -> int:
    """Edit distance: one lane of the packed column pass."""
    return _distances(a, _pack([b]))[0]


@lru_cache(maxsize=NAME_SIMILARITY_MEMO_SIZE)
def name_similarity(a: str, b: str) -> float:
    """Similarity in [0,1] of two folded names, as _similarities gives it:
    one lane of the packed pass. Memoized: it depends on a and b alone."""
    return _similarities(a, _pack([b]))[0]


class Payload(NamedTuple):
    """The date-free inputs of one identification, hashable so repeats are cached."""

    name: str
    street: str | None
    zipcode: str | None
    city: str | None
    department: str | None
    activity: str | None


def payload_of(occurrence: AgentOccurrence, lot: LotRecord) -> Payload:
    return Payload(
        name=occurrence.normalized_name or "",
        street=occurrence.street,
        zipcode=occurrence.zipcode,
        city=occurrence.city,
        department=occurrence.department,
        activity=lot.activity_code,
    )


def _lot_date(lot: LotRecord) -> dt.date:
    return lot.award_date or lot.publication_date


def _activity_prefixes(
    activity: str | None,
    cpv_map: dict[str, list[str]] | None,
    prefix_length: int,
) -> tuple[str, ...] | None:
    """Registry activity prefixes acceptable for a lot's CPV, None = skip."""
    if not activity or not cpv_map:
        return None
    code = activity.strip()
    for length in range(len(code), 0, -1):
        allowed = cpv_map.get(code[:length])
        if allowed is not None:
            return tuple(p[:prefix_length] for p in allowed)
    return None


# what decides a payload's block under one registry and config: its
# department and the activity prefixes its lot allows
_BlockKey = tuple[str | None, tuple[str, ...] | None]


def _block_key(
    payload: Payload, registry: Registry, cpv_map: dict[str, list[str]] | None
) -> _BlockKey:
    prefixes = _activity_prefixes(payload.activity, cpv_map, registry.activity_prefix_length)
    # _block unions over the prefixes, so keys that list the same prefixes
    # in another order or repeated name one block, packed once
    return payload.department, None if prefixes is None else tuple(sorted(set(prefixes)))


def _block(key: _BlockKey, registry: Registry, config: MatchConfig) -> set[str] | None:
    department, prefixes = key
    pool: set[str] | None = None
    if department:
        pool = registry.by_department.get(department, set())
    if prefixes is not None:
        allowed: set[str] = set()
        for prefix in prefixes:
            allowed |= registry.by_activity_prefix.get(prefix, set())
        pool = allowed if pool is None else pool & allowed
    if pool is None and config.allow_unblocked:
        # the date alone never justifies scanning the whole registry
        pool = set(registry.facilities)
    return pool


def candidate_block(
    occurrence: AgentOccurrence,
    lot: LotRecord,
    registry: Registry,
    config: MatchConfig,
    cpv_map: dict[str, list[str]] | None = None,
) -> set[str]:
    """Facilities consistent with department, lot date, and activity domain.

    A filter whose input is absent on the occurrence/lot side is skipped.
    With no department and no usable activity the search is refused (empty
    set) unless the config allows unblocked scans.
    """
    date = _lot_date(lot)
    key = _block_key(payload_of(occurrence, lot), registry, cpv_map)
    block = _block(key, registry, config) or ()
    return {siret for siret in block if temporally_valid(registry.facilities[siret], date)}


_ADDRESS_FIELDS = ("street", "zipcode", "city")


def _zipcode_similarity(a: str, b: str) -> float:
    if a == b:
        return 1.0
    dept_a = department_of(a)
    if dept_a is not None and dept_a == department_of(b):
        return 0.5
    return 0.0


def _weigh_address(
    similarities: tuple[float | None, float | None, float | None], config: MatchConfig
) -> tuple[float, tuple[str, ...]]:
    """address_score of the street, zipcode and city similarities, None = absent."""
    weights = (config.street_weight, config.zipcode_weight, config.city_weight)
    present: list[str] = []
    score = total_weight = 0.0
    for field_name, weight, sim in zip(_ADDRESS_FIELDS, weights, similarities):
        if sim is not None:
            present.append(field_name)
            score += weight * sim
            total_weight += weight
    if not total_weight:
        return 0.0, ()
    return score / total_weight, tuple(present)


def address_score(a, b, config: MatchConfig) -> tuple[float, tuple[str, ...]]:
    """Weighted address agreement of two records with street, zipcode and
    city: occurrences, payloads or registry facilities.

    Weights are redistributed over the fields present on both sides.
    Returns (score, presence mask); (0.0, ()), no address evidence, when
    those fields weigh nothing.
    """
    return _weigh_address((
        name_similarity(a.street, b.street) if a.street and b.street else None,
        _zipcode_similarity(a.zipcode, b.zipcode) if a.zipcode and b.zipcode else None,
        name_similarity(a.city, b.city) if a.city and b.city else None,
    ), config)


@dataclass
class MatchResult:
    occurrence_id: int
    source: str  # declared | matched | none
    identifier: Identifier | None = None
    reason: str | None = None
    best: CandidateScore | None = None
    block_size: int = 0
    name_survivors: int = 0


# a payload's undated block: each facility with its scores if its name passes
_ScoredBlock = list[tuple[RegistryFacility, CandidateScore | None]]


class _PackedBlock(NamedTuple):
    """Records in their order (registry facilities, or merge's payloads),
    each with the lanes of its names and of its street (None without one),
    and the records' distinct names and distinct streets packed."""

    records: list
    lanes_of: list[list[int]]
    lanes: _Lanes
    street_lanes: list[int | None]
    streets: _Lanes


def _pack_records(records: list, names_of) -> _PackedBlock:
    """Records with street, zipcode and city, packed; names_of(record)
    lists the names a record is compared by."""
    lane_of: dict[str, int] = {}
    lanes_of = [[lane_of.setdefault(name, len(lane_of)) for name in names_of(r)] for r in records]
    street_of: dict[str, int] = {}
    street_lanes = [
        street_of.setdefault(r.street, len(street_of)) if r.street else None for r in records
    ]
    return _PackedBlock(
        records, lanes_of, _pack(list(lane_of)), street_lanes, _pack(list(street_of))
    )


def _pack_block(block: set[str], registry: Registry) -> _PackedBlock:
    return _pack_records([registry.facilities[siret] for siret in block], registry.candidate_names)


# the blocks packed in one identification call, by key
_Packs = dict[_BlockKey, _PackedBlock]

# each packed record's best name similarity and its address_score and presence
# mask, or None below the name threshold
_Row = list[tuple[float, float, tuple[str, ...]] | None]


def _score_block(
    payload: Payload, packed: _PackedBlock, config: MatchConfig, threshold: float
) -> _Row:
    """The payload scored against every packed record: name_similarity's
    and address_score's floats, from one name pass and one street pass."""
    similarities = _similarities(payload.name, packed.lanes)
    streets = _similarities(payload.street, packed.streets) if payload.street else None
    zipcode, city = payload.zipcode, payload.city
    # a block's records share zipcodes, cities and whole addresses, and
    # each score is a pure function of its inputs: each distinct one is
    # scored once per payload
    zipcodes: dict[str, float] = {}
    cities: dict[str, float] = {}
    addresses: dict[tuple[float | None, float | None, float | None],
                    tuple[float, tuple[str, ...]]] = {}
    row: _Row = []
    for record, lanes, street in zip(packed.records, packed.lanes_of, packed.street_lanes):
        if len(lanes) == 1:
            best_sim = similarities[lanes[0]]
        else:
            best_sim = max((similarities[lane] for lane in lanes), default=0.0)
        if best_sim < threshold:
            row.append(None)
            continue
        street_sim = zipcode_sim = city_sim = None
        if streets is not None and street is not None:
            street_sim = streets[street]
        if zipcode and record.zipcode:
            zipcode_sim = zipcodes.get(record.zipcode)
            if zipcode_sim is None:
                zipcode_sim = zipcodes[record.zipcode] = _zipcode_similarity(
                    zipcode, record.zipcode
                )
        if city and record.city:
            city_sim = cities.get(record.city)
            if city_sim is None:
                city_sim = cities[record.city] = name_similarity(city, record.city)
        sims = (street_sim, zipcode_sim, city_sim)
        address = addresses.get(sims)
        if address is None:
            address = addresses[sims] = _weigh_address(sims, config)
        row.append((best_sim, *address))
    return row


def _score_payload(
    payload: Payload,
    registry: Registry,
    config: MatchConfig,
    cpv_map: dict[str, list[str]] | None,
    packs: _Packs | None = None,
) -> _ScoredBlock | None:
    """The payload's block, scored; None when it has no name or no block.

    packs holds the blocks the calling identification packed so far, for
    this registry and config; the block is packed into it when absent.
    """
    if not payload.name:
        return None
    packs = {} if packs is None else packs
    key = _block_key(payload, registry, cpv_map)
    packed = packs.get(key)
    if packed is None:
        block = _block(key, registry, config)
        if block is None:
            return None
        packed = packs[key] = _pack_block(block, registry)
    row = _score_block(payload, packed, config, config.name_threshold)
    return [
        (facility, None if scores is None else CandidateScore(facility.siret, *scores))
        for facility, scores in zip(packed.records, row)
    ]


def _resolve(
    occurrence: AgentOccurrence,
    date: dt.date,
    scored: _ScoredBlock | None,
    config: MatchConfig,
) -> MatchResult:
    """One occurrence's outcome: its scored block filtered by date, counted, ranked."""
    valid = [score for facility, score in scored or () if temporally_valid(facility, date)]
    survivors = [c for c in valid if c is not None]
    best = min(
        # an empty mask means the address gives no evidence either way
        (c for c in survivors if not c.presence_mask or c.address_score >= config.min_address_score),
        key=lambda c: (-c.address_score, -c.name_similarity, c.siret),
        default=None,
    )
    # the phase that emptied the pool
    reason = None if best else (
        REASON_NO_NAME if not occurrence.normalized_name
        else REASON_UNBLOCKABLE if scored is None
        else REASON_ADDRESS if survivors
        else REASON_NAME if valid
        else REASON_BLOCKING
    )
    return MatchResult(
        occurrence.occurrence_id, "matched" if best else "none",
        identifier=full_siret(best.siret) if best else None, reason=reason, best=best,
        block_size=len(valid), name_survivors=len(survivors),
    )


def payload_groups(
    occurrences: list[AgentOccurrence], lots: list[LotRecord]
) -> dict[Payload | None, list[tuple[AgentOccurrence, LotRecord | None]]]:
    """Occurrences in id order, each with its lot, grouped by date-free payload
    in order of first appearance.

    Declared occurrences go under None, and their lot may be unknown. An
    undeclared occurrence with an unknown lot is an InvariantError.
    """
    lots_by_id = {lot.lot_id: lot for lot in lots}
    groups: dict[Payload | None, list[tuple[AgentOccurrence, LotRecord | None]]] = {}
    for occ in sorted(occurrences, key=lambda o: o.occurrence_id):
        lot = lots_by_id.get(occ.lot_id)
        if occ.identifier is not None:
            payload = None
        elif lot is None:
            raise InvariantError(f"occurrence {occ.occurrence_id} references unknown lot {occ.lot_id}")
        else:
            payload = payload_of(occ, lot)
        groups.setdefault(payload, []).append((occ, lot))
    return groups


def identify_all(
    occurrences: list[AgentOccurrence],
    lots: list[LotRecord],
    registry: Registry,
    config: PipelineConfig,
) -> list[MatchResult]:
    """Identify every occurrence without an identifier, in occurrence order.

    Works one payload group at a time: each date-free payload (same name,
    address, activity) has its block scored once, each occurrence in the
    group takes the outcome of its lot date's validity epoch, resolved
    once, and the scored block is dropped before the next group. Each
    distinct block is packed once and dropped when the call returns. The
    occurrences are not changed: apply_match_results records the matches.
    """
    results: list[MatchResult] = []
    packs: _Packs = {}
    groups = resolutions = 0
    for payload, members in payload_groups(occurrences, lots).items():
        if payload is None:
            results += (MatchResult(o.occurrence_id, "declared", o.identifier) for o, _ in members)
            continue
        groups += 1
        scored = _score_payload(payload, registry, config.match, config.cpv_activity_map, packs)
        # a facility is valid from its open date to its close date, both
        # included: no validity changes between two adjacent cuts
        cuts = sorted(
            {f.open_date.toordinal() for f, _ in scored or () if f.open_date}
            | {f.close_date.toordinal() + 1 for f, _ in scored or () if f.close_date}
        )
        # the outcome reads the occurrence only through its payload's name
        outcomes: dict[int, MatchResult] = {}
        for occurrence, lot in members:
            date = _lot_date(lot)
            epoch = bisect_right(cuts, date.toordinal())
            outcome = outcomes.get(epoch)
            if outcome is None:
                outcome = outcomes[epoch] = _resolve(occurrence, date, scored, config.match)
            results.append(MatchResult(
                occurrence.occurrence_id, outcome.source, outcome.identifier, outcome.reason,
                outcome.best, outcome.block_size, outcome.name_survivors,
            ))
        resolutions += len(outcomes)
    log.debug(
        "identify: %d payload groups scored against %d packed blocks of %d name lanes"
        " and %d street lanes, in %d resolutions",
        groups, len(packs), sum(len(p.lanes.spans) for p in packs.values()),
        sum(len(p.streets.spans) for p in packs.values()), resolutions,
    )
    return sorted(results, key=lambda r: r.occurrence_id)


def apply_match_results(
    occurrences: list[AgentOccurrence], results: list[MatchResult]
) -> None:
    """Set identifier and identifier_source on each matched occurrence."""
    by_id = {occ.occurrence_id: occ for occ in occurrences}
    for result in results:
        if result.source == "matched":
            occ = by_id[result.occurrence_id]
            occ.identifier = result.identifier
            occ.identifier_source = "matched"


def write_match_log(results: list[MatchResult], path: Path) -> None:
    """Audit log, one line per occurrence, in occurrence order."""
    header = [
        "occurrenceId", "outcome", "reason", "siret",
        "nameSimilarity", "addressScore", "presence",
        "blockSize", "nameSurvivors",
    ]
    write_rows(
        path,
        header,
        (
            [
                str(r.occurrence_id),
                r.source,
                r.reason or "",
                r.identifier.value if r.identifier else "",
                f"{r.best.name_similarity:.4f}" if r.best else "",
                f"{r.best.address_score:.4f}" if r.best else "",
                "+".join(r.best.presence_mask) if r.best else "",
                str(r.block_size),
                str(r.name_survivors),
            ]
            for r in sorted(results, key=lambda r: r.occurrence_id)
        ),
    )
