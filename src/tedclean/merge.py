"""Cluster similar agent occurrences and resolve each cluster's identity.

Occurrences are compared only within blocks (name prefix + department).
Pairs at or above the merge threshold are joined by transitive closure;
each cluster then falls into one of four cases that decide its identifier,
and members merge field-wise under a majority rule.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import count
from operator import attrgetter

from .config import MatchConfig, PipelineConfig
from . import identify
from .models import (
    AgentCluster,
    AgentOccurrence,
    CanonicalAgent,
    CaseKind,
    Identifier,
    internal_code,
)

REJECT_BLOCK = None  # key for occurrences that cannot be blocked


def blocking_key(occurrence: AgentOccurrence) -> str | None:
    """First 4 characters of the first name token, plus the department.

    Occurrences with an empty normalized name land in the reject block
    (key None) and stay singletons.
    """
    name = occurrence.normalized_name or ""
    if not name:
        return REJECT_BLOCK
    return f"{name.split()[0][:4]}|{occurrence.department or '??'}"


def pair_similarity(a: AgentOccurrence, b: AgentOccurrence, config: MatchConfig) -> float:
    """Equal-weight mean of name similarity and address agreement."""
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


def _merge_payload(occ: AgentOccurrence) -> tuple:
    return (occ.normalized_name, occ.street, occ.zipcode, occ.city)


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
        payload_ids: dict[tuple, list[int]] = {}
        representative: dict[tuple, AgentOccurrence] = {}
        for occ in members:
            payload = _merge_payload(occ)
            payload_ids.setdefault(payload, []).append(occ.occurrence_id)
            representative.setdefault(payload, occ)
        payloads = sorted(payload_ids, key=lambda p: tuple(x or "" for x in p))

        dsu = _UnionFind(len(payloads))
        for i in range(len(payloads)):
            rep_i = representative[payloads[i]]
            for j in range(i + 1, len(payloads)):
                if pair_similarity(rep_i, representative[payloads[j]], config) >= threshold:
                    dsu.union(i, j)

        components: dict[int, list[int]] = {}
        for i in range(len(payloads)):
            components.setdefault(dsu.find(i), []).append(i)
        for indices in components.values():
            ids = sorted(
                oid for i in indices for oid in payload_ids[payloads[i]]
            )
            if len(indices) == 1:
                # copies of an isolated payload merge only if the payload
                # is similar to itself (an address-less payload is not)
                rep = representative[payloads[indices[0]]]
                if len(ids) >= 2 and pair_similarity(rep, rep, config) >= threshold:
                    clusters.append(ids)
                else:
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


def _merge_members(
    agent_id: Identifier,
    members: list[AgentOccurrence],
    case_kinds: list[CaseKind],
) -> CanonicalAgent:
    names = sorted({occ.normalized_name for occ in members if occ.normalized_name})
    if not names:
        names = sorted({occ.raw_name for occ in members if occ.raw_name})
    return CanonicalAgent(
        agent_id=agent_id,
        names=names,
        street=_majority(members, attrgetter("street")),
        zipcode=_majority(members, attrgetter("zipcode")),
        city=_majority(members, attrgetter("city")),
        department=_majority(members, attrgetter("department")),
        country=_majority(members, attrgetter("country")),
        case_kinds=case_kinds,
        member_occurrence_ids=sorted(occ.occurrence_id for occ in members),
    )


@dataclass
class MergeResult:
    clusters: list[AgentCluster] = field(default_factory=list)
    agents: list[CanonicalAgent] = field(default_factory=list)


def resolve_clusters(
    member_lists: list[list[int]], by_id: dict[int, AgentOccurrence]
) -> list[AgentCluster]:
    """Resolve the member lists into clusters 1, 2, ..., internal codes
    allocated in that order. Side effect: members adopt their cluster's
    identifier."""
    serial = count(1)

    def allocate_internal() -> Identifier:
        return internal_code(next(serial))

    clusters = []
    for cluster_id, ids in enumerate(member_lists, 1):
        members = [by_id[i] for i in ids]
        case, resolved = resolve_cluster(members, allocate_internal)
        clusters.append(AgentCluster(cluster_id, ids, case, resolved))
        for occ in members:
            if occ.identifier != resolved:
                occ.identifier = resolved
                occ.identifier_source = "merged"
    return clusters


def merge_all(occurrences: list[AgentOccurrence], config: PipelineConfig) -> MergeResult:
    """Cluster, resolve, and merge every occurrence into canonical agents.

    Clusters resolving to the same identifier collapse into one agent row
    (several clusters can carry the same SIRET when blocking kept them
    apart). Side effect: occurrences adopt their cluster's identifier.
    """
    member_lists = cluster_occurrences(occurrences, config.merge_threshold, config.match)
    by_id = {occ.occurrence_id: occ for occ in occurrences}
    result = MergeResult(clusters=resolve_clusters(member_lists, by_id))

    groups: dict[Identifier, list[AgentCluster]] = {}
    for cluster in result.clusters:
        groups.setdefault(cluster.resolved_identifier, []).append(cluster)
    for ident in sorted(groups, key=lambda i: (i.kind.value, i.value)):
        clusters = groups[ident]
        members = [by_id[i] for c in clusters for i in c.member_occurrence_ids]
        case_kinds = [c.case_kind for c in clusters]
        result.agents.append(_merge_members(ident, members, case_kinds))
    return result
