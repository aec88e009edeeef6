"""Cluster similar agent occurrences and resolve each cluster's identity.

Occurrences are compared only within blocks (name prefix + department).
Each block's distinct payloads are packed once and scored row by row
through identify's block scorer, so one bit-parallel pass gives a
payload's name similarity to the whole block. Pairs at or above the merge
threshold are joined by transitive closure; each cluster then falls into
one of four cases that decide its identifier, and members merge
field-wise under a majority rule.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import count
from operator import attrgetter

from .config import MatchConfig, PipelineConfig
from . import identify
from .models import (
    AgentCluster,
    AgentName,
    AgentOccurrence,
    CanonicalAgent,
    CaseKind,
    Identifier,
    internal_code,
)

REJECT_BLOCK = None  # key for occurrences that cannot be blocked


def blocking_key(occurrence: AgentOccurrence) -> str | None:
    """First 4 characters of the first name token, plus the department.

    Occurrences whose normalized name has no token land in the reject
    block (key None) and stay singletons.
    """
    tokens = (occurrence.normalized_name or "").split()
    if not tokens:
        return REJECT_BLOCK
    return f"{tokens[0][:4]}|{occurrence.department or '??'}"


def pair_similarity(a: AgentOccurrence, b: AgentOccurrence, config: MatchConfig) -> float:
    """Equal-weight mean of name similarity and address agreement.

    The scalar form of what cluster_occurrences computes a block at a time:
    the tests' reference for it, and a binding a tracer can count.
    """
    # looked up in the module at call time, like identify's own calls
    name_sim = identify.name_similarity(a.normalized_name or "", b.normalized_name or "")
    addr, _ = identify.address_score(a, b, config)
    return 0.5 * name_sim + 0.5 * addr


class _UnionFind:
    def __init__(self, size: int) -> None:
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


_MERGE_FIELDS = ("normalized_name", "street", "zipcode", "city")


def field_completeness(occ: AgentOccurrence) -> int:
    """Number of present fields among name, street, zipcode, city."""
    return sum(1 for f in _MERGE_FIELDS if getattr(occ, f))


def cluster_occurrences(
    occurrences: list[AgentOccurrence],
    threshold: float,
    config: MatchConfig,
) -> list[list[int]]:
    """Partition occurrences by transitive closure over similar pairs.

    Pairwise similarity runs on distinct field payloads, not on raw
    occurrences: copies of one payload relate to everything else all in
    the same way, so the closure over payloads expands to the exact
    occurrence-level closure at a fraction of the comparisons.

    Returns member-id lists, each sorted, ordered by smallest member.
    """
    blocks: dict[str | None, list[AgentOccurrence]] = {}
    for occ in sorted(occurrences, key=lambda o: o.occurrence_id):
        blocks.setdefault(blocking_key(occ), []).append(occ)

    clusters: list[list[int]] = []
    for key, members in blocks.items():
        if key is REJECT_BLOCK:
            clusters.extend([occ.occurrence_id] for occ in members)
            continue
        payload_ids: dict[identify.Payload, list[int]] = {}
        for occ in members:
            payload = identify.Payload(
                occ.normalized_name, occ.street, occ.zipcode, occ.city, None, None
            )
            payload_ids.setdefault(payload, []).append(occ.occurrence_id)
        payloads = list(payload_ids)  # by first occurrence id, so any hash seed

        packed = identify._pack_records(payloads, lambda p: (p.name,))
        dsu = _UnionFind(len(payloads))
        joins_itself: list[bool] = []
        for i, payload in enumerate(payloads):
            row = identify._score_block(payload, packed, config, 0.0)
            # pair_similarity's sum, so every float is the same
            similar = [0.5 * name + 0.5 * address >= threshold for name, address, _ in row]
            joins_itself.append(similar[i])
            for j in range(i + 1, len(payloads)):
                if similar[j]:
                    dsu.union(i, j)

        components: dict[int, list[int]] = {}
        for i in range(len(payloads)):
            components.setdefault(dsu.find(i), []).append(i)
        for indices in components.values():
            ids = sorted(
                oid for i in indices for oid in payload_ids[payloads[i]]
            )
            # copies of an isolated payload merge only if the payload is
            # similar to itself (an address-less one scores 0.5 against itself)
            if len(indices) == 1 and not joins_itself[indices[0]]:
                clusters.extend([oid] for oid in ids)
            else:
                clusters.append(ids)

    clusters.sort(key=lambda ids: ids[0])
    return clusters


def _majority(members: list[AgentOccurrence], value_of, key=None):
    """The most frequent present value among the members, or None.

    Ties go to the value borne by the most field-complete occurrence, then
    to the smallest value (compared through key, when given).
    """
    counts = Counter(v for occ in members if (v := value_of(occ)))
    if not counts:
        return None
    top = max(counts.values())
    bearer = {v: 0 for v, n in counts.items() if n == top}
    if len(bearer) > 1:
        for occ in members:
            v = value_of(occ)
            if v in bearer:
                bearer[v] = max(bearer[v], field_completeness(occ))
    best = max(bearer.values())
    return min((v for v, c in bearer.items() if c == best), key=key)


def resolve_cluster(
    members: list[AgentOccurrence], allocate_internal
) -> tuple[CaseKind, Identifier]:
    """Case-classify a cluster and pick its identifier.

    CONFLICTING_IDS resolves by the majority rule of `_majority`, the
    smallest identifier being the one with the smallest value. Clusters
    with no identifier at all get a fresh internal code from
    allocate_internal.
    """
    distinct = {occ.identifier for occ in members if occ.identifier is not None}

    if len(members) == 1:
        resolved = members[0].identifier or allocate_internal()
        return CaseKind.SINGLETON, resolved
    if not distinct:
        return CaseKind.ALL_UNIDENTIFIED, allocate_internal()
    if len(distinct) == 1:
        return CaseKind.SINGLE_IDENTIFIED, next(iter(distinct))
    identifier = _majority(members, attrgetter("identifier"), key=attrgetter("value"))
    return CaseKind.CONFLICTING_IDS, identifier


def _agent_names(members: list[AgentOccurrence]) -> list[str]:
    """The members' distinct normalized names, sorted; without any, their raw names."""
    names = sorted({occ.normalized_name for occ in members if occ.normalized_name})
    return names or sorted({occ.raw_name for occ in members if occ.raw_name})


def _merge_members(
    agent_id: Identifier,
    members: list[AgentOccurrence],
    case_kinds: list[CaseKind],
) -> CanonicalAgent:
    return CanonicalAgent(
        agent_id=agent_id,
        street=_majority(members, attrgetter("street")),
        zipcode=_majority(members, attrgetter("zipcode")),
        city=_majority(members, attrgetter("city")),
        department=_majority(members, attrgetter("department")),
        country=_majority(members, attrgetter("country")),
        case_kinds=case_kinds,
    )


@dataclass
class MergeResult:
    clusters: list[AgentCluster] = field(default_factory=list)
    agents: list[CanonicalAgent] = field(default_factory=list)
    names: list[AgentName] = field(default_factory=list)


def resolve_clusters(
    member_lists: list[list[int]], by_id: dict[int, AgentOccurrence]
) -> list[AgentCluster]:
    """Resolve the member lists into clusters 1, 2, ..., internal codes
    allocated in that order. No record is changed: a cluster's members
    take its resolved_identifier from the cluster."""
    serial = count(1)

    def allocate_internal() -> Identifier:
        return internal_code(next(serial))

    clusters = []
    for cluster_id, ids in enumerate(member_lists, 1):
        case, resolved = resolve_cluster([by_id[i] for i in ids], allocate_internal)
        clusters.append(AgentCluster(cluster_id, ids, case, resolved))
    return clusters


def merge_all(occurrences: list[AgentOccurrence], config: PipelineConfig) -> MergeResult:
    """Cluster, resolve, and merge every occurrence into canonical agents.

    Clusters resolving to the same identifier collapse into one agent row
    (several clusters can carry the same SIRET when blocking kept them
    apart), and `names` gets one row per name of that agent. No record is
    changed: in `occurrences`, each one whose identifier the resolution
    changes is replaced by a copy with the cluster's identifier and
    identifier_source "merged".
    """
    member_lists = cluster_occurrences(occurrences, config.merge_threshold, config.match)
    by_id = {occ.occurrence_id: occ for occ in occurrences}
    result = MergeResult(clusters=resolve_clusters(member_lists, by_id))
    resolved = {i: c.resolved_identifier for c in result.clusters for i in c.member_occurrence_ids}
    for n, occ in enumerate(occurrences):
        if occ.identifier != (ident := resolved[occ.occurrence_id]):
            occurrences[n] = replace(occ, identifier=ident, identifier_source="merged")

    groups: dict[Identifier, list[AgentCluster]] = {}
    for cluster in result.clusters:
        groups.setdefault(cluster.resolved_identifier, []).append(cluster)
    for ident in sorted(groups, key=lambda i: (i.kind.value, i.value)):
        clusters = groups[ident]
        members = [by_id[i] for c in clusters for i in c.member_occurrence_ids]
        case_kinds = [c.case_kind for c in clusters]
        result.agents.append(_merge_members(ident, members, case_kinds))
        result.names += [AgentName(ident, name) for name in _agent_names(members)]
    return result
