import copy
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tedclean import identify, merge
from tedclean.config import MatchConfig, PipelineConfig
from tedclean.merge import (
    blocking_key,
    cluster_occurrences,
    field_completeness,
    _agent_names,
    _merge_members,
    merge_all,
    pair_similarity,
    resolve_cluster,
)
from tedclean.models import (
    AgentName,
    CaseKind,
    IdentifierKind,
    full_siret,
    internal_code,
    siren_only,
)
from tedclean.normalize import department_of

import rule_oracle
from conftest import make_occurrence

MATCH = MatchConfig()
THRESHOLD = 0.85


def occ(i, name=None, street=None, zipcode=None, city=None, identifier=None, **kw):
    o = make_occurrence(
        i,
        normalized_name=name,
        street=street,
        zipcode=zipcode,
        city=city,
        department=department_of(zipcode),
        **kw,
    )
    o.identifier = identifier
    return o


class TestBlockingKey:
    def test_prefix_and_department(self):
        assert blocking_key(occ(1, "MAIRIE DE LYON", zipcode="69001")) == "MAIR|69"
        assert blocking_key(occ(2, "MAIRIE DE LYON")) == "MAIR|??"
        assert blocking_key(occ(3, "AB CD", zipcode="75001")) == "AB|75"

    def test_empty_name_rejected(self):
        assert blocking_key(occ(1, None)) is None
        assert blocking_key(occ(2, "")) is None


class TestPairSimilarity:
    def test_identical_full(self):
        a = occ(1, "MAIRIE DE LYON", "1 RUE X", "69001", "LYON")
        b = occ(2, "MAIRIE DE LYON", "1 RUE X", "69001", "LYON")
        assert pair_similarity(a, b, MATCH) == pytest.approx(1.0)

    def test_name_only(self):
        a = occ(1, "MAIRIE DE LYON")
        b = occ(2, "MAIRIE DE LYON")
        assert pair_similarity(a, b, MATCH) == pytest.approx(0.5)

    def test_mixed(self):
        a = occ(1, "MAIRIE DE LYON", zipcode="69001")
        b = occ(2, "COMMUNE DE LYON", zipcode="69001")
        assert pair_similarity(a, b, MATCH) == pytest.approx(0.5 * (2 / 3) + 0.5 * 1.0)

    def test_name_comparison_goes_through_identify_module(self, monkeypatch):
        # a replaced identify.name_similarity (a tracer's counter, say) sees
        # merge's direct name comparisons as well as its street comparisons
        calls = []

        def recording(a, b):
            calls.append((a, b))
            return 1.0

        monkeypatch.setattr(identify, "name_similarity", recording)
        a = occ(1, "MAIRIE DE LYON", "1 RUE X")
        b = occ(2, "COMMUNE DE LYON", "1 RUE Y")
        assert pair_similarity(a, b, MATCH) == pytest.approx(1.0)
        assert calls == [("MAIRIE DE LYON", "COMMUNE DE LYON"), ("1 RUE X", "1 RUE Y")]


def oracle_clusters(occurrences, threshold, config):
    """O(n^2) closure over raw occurrences, blocks respected."""
    blocks = {}
    for o in occurrences:
        blocks.setdefault(blocking_key(o), []).append(o)
    clusters = []
    for key, members in blocks.items():
        if key is None:
            clusters.extend([o.occurrence_id] for o in members)
            continue
        n = len(members)
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for i in range(n):
            for j in range(i + 1, n):
                if pair_similarity(members[i], members[j], config) >= threshold:
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[rj] = ri
        comps = {}
        for i in range(n):
            comps.setdefault(find(i), []).append(members[i].occurrence_id)
        clusters.extend(sorted(ids) for ids in comps.values())
    return sorted(clusters, key=lambda ids: ids[0])


NAMES = st.sampled_from(
    ["MAIRIE DE LYON", "MAIRIE DE LYONNAIS", "COMMUNE DE LYON", "GAMMA SERVICES",
     "GAMMA SERVICE", "MAIR X", None]
)
STREETS = st.sampled_from([None, "1 RUE DE LA GARE", "2 RUE DES LILAS"])
ZIPS = st.sampled_from([None, "69001", "69002", "75001"])
CITIES = st.sampled_from([None, "LYON", "PARIS"])


@st.composite
def occurrence_lists(draw, max_size=14):
    rows = draw(
        st.lists(st.tuples(NAMES, STREETS, ZIPS, CITIES), min_size=1, max_size=max_size)
    )
    return [
        occ(i, name, street, zipcode, city)
        for i, (name, street, zipcode, city) in enumerate(rows, 1)
    ]


class TestClusterOccurrences:
    def test_exact_copies_with_address_merge(self):
        occs = [
            occ(1, "MAIRIE DE LYON", "1 RUE X", "69001", "LYON"),
            occ(2, "MAIRIE DE LYON", "1 RUE X", "69001", "LYON"),
        ]
        assert cluster_occurrences(occs, THRESHOLD, MATCH) == [[1, 2]]

    def test_addressless_copies_stay_singletons(self):
        occs = [occ(1, "MAIRIE DE LYON"), occ(2, "MAIRIE DE LYON")]
        assert cluster_occurrences(occs, THRESHOLD, MATCH) == [[1], [2]]

    def test_blocks_are_hard_boundaries(self):
        # same payload but different departments never compare
        occs = [
            occ(1, "MAIRIE DE LYON", "1 RUE X", "69001", "LYON"),
            occ(2, "MAIRIE DE LYON", "1 RUE X", "75001", "LYON"),
        ]
        assert cluster_occurrences(occs, THRESHOLD, MATCH) == [[1], [2]]

    def test_transitive_closure(self):
        # a-b similar, b-c similar, a-c not: one cluster all the same
        a = occ(1, "MAIRIE DE LYON", "1 RUE DE LA GARE", "69001", "LYON")
        b = occ(2, "MAIRIE DE LYON", "2 RUE DES LILAS", "69001", "LYON")
        c = occ(3, "MAIRIE DE LYONNAIS", "2 RUE DES LILAS", "69001", "LYON")
        sim_ab = pair_similarity(a, b, MATCH)
        sim_bc = pair_similarity(b, c, MATCH)
        sim_ac = pair_similarity(a, c, MATCH)
        assert sim_ab >= THRESHOLD and sim_bc >= THRESHOLD and sim_ac < THRESHOLD
        assert cluster_occurrences([a, b, c], THRESHOLD, MATCH) == [[1, 2, 3]]

    def test_empty_names_stay_singletons(self):
        occs = [occ(1, None, "1 RUE X", "69001", "LYON"),
                occ(2, None, "1 RUE X", "69001", "LYON")]
        assert cluster_occurrences(occs, THRESHOLD, MATCH) == [[1], [2]]

    def test_ordered_by_first_member(self):
        occs = [
            occ(3, "GAMMA SERVICES", "1 RUE DE LA GARE", "75001", "PARIS"),
            occ(1, "MAIRIE DE LYON", "1 RUE X", "69001", "LYON"),
            occ(2, "GAMMA SERVICES", "1 RUE DE LA GARE", "75001", "PARIS"),
        ]
        clusters = cluster_occurrences(occs, THRESHOLD, MATCH)
        assert clusters == [[1], [2, 3]]

    @given(occurrence_lists())
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_oracle(self, occs):
        assert cluster_occurrences(occs, THRESHOLD, MATCH) == oracle_clusters(
            occs, THRESHOLD, MATCH
        )

    @given(occurrence_lists(), st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_input_order_irrelevant(self, occs, rng):
        shuffled = list(occs)
        rng.shuffle(shuffled)
        assert cluster_occurrences(shuffled, THRESHOLD, MATCH) == cluster_occurrences(
            occs, THRESHOLD, MATCH
        )


# address weights that sum to 1, none of them the defaults
WEIGHTS = st.sampled_from([
    (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.6, 0.0, 0.4), (0.0, 0.5, 0.5),
    (0.2, 0.3, 0.5),
]).map(lambda w: MatchConfig(street_weight=w[0], zipcode_weight=w[1], city_weight=w[2]))
# folded names of several tokens, or of none
BLOCK_NAMES = st.one_of(
    st.lists(st.sampled_from(["MAIRIE", "MAIRE", "DE", "LYON", "LYONS", "GAMMA"]),
             max_size=4).map(" ".join),
    st.text(alphabet="AB ", max_size=6),
)


class TestBlockScorer:
    @given(
        st.lists(st.tuples(
            BLOCK_NAMES,
            st.sampled_from([None, "", "1 RUE X", "1 RUE Y", "2 RUE DES LILAS", "RUE"]),
            st.sampled_from([None, "", "69001", "69003", "75011"]),
            st.sampled_from([None, "", "LYON", "LYONS", "VILLEURBANNE"]),
        ), min_size=1, max_size=8),
        st.one_of(st.just(MATCH), WEIGHTS),
    )
    @settings(max_examples=300, deadline=None)
    def test_every_row_is_pair_similarity(self, rows, config):
        payloads = [identify.Payload(*row, None, None) for row in rows]
        packed = identify._pack_records(payloads, lambda p: (p.name,))
        occs = [occ(i, *row) for i, row in enumerate(rows, 1)]
        for payload, a in zip(payloads, occs):
            row = identify._score_block(payload, packed, config, 0.0)
            assert [0.5 * name + 0.5 * address for name, address, _ in row] == [
                pair_similarity(a, b, config) for b in occs
            ]

    @given(occurrence_lists(), st.sampled_from([0.5, THRESHOLD]),
           st.one_of(st.just(MATCH), WEIGHTS))
    @settings(max_examples=200, deadline=None)
    def test_clusters_without_pair_similarity(self, occs, threshold, config):
        expected = oracle_clusters(occs, threshold, config)
        refuse = AssertionError("merge scored a pair on its own")
        with mock.patch.object(merge, "pair_similarity", side_effect=refuse):
            assert cluster_occurrences(occs, threshold, config) == expected


def make_allocator():
    state = iter(range(1, 1000))
    return lambda: internal_code(next(state))


SIRET_A = full_siret("11111111100011")
SIRET_B = full_siret("22222222200011")


class TestResolveCluster:
    def test_singleton_identified(self):
        case, ident = resolve_cluster([occ(1, "X", identifier=SIRET_A)], make_allocator())
        assert case is CaseKind.SINGLETON
        assert ident == SIRET_A

    def test_singleton_unidentified(self):
        case, ident = resolve_cluster([occ(1, "X")], make_allocator())
        assert case is CaseKind.SINGLETON
        assert ident.kind is IdentifierKind.INTERNAL
        assert ident.value == "U000001"

    def test_all_unidentified(self):
        case, ident = resolve_cluster([occ(1, "X"), occ(2, "X")], make_allocator())
        assert case is CaseKind.ALL_UNIDENTIFIED
        assert ident.kind is IdentifierKind.INTERNAL

    def test_single_identified_propagates(self):
        members = [occ(1, "X", identifier=SIRET_A), occ(2, "X"), occ(3, "X")]
        case, ident = resolve_cluster(members, make_allocator())
        assert case is CaseKind.SINGLE_IDENTIFIED
        assert ident == SIRET_A

    def test_same_id_on_several_members_is_single(self):
        members = [occ(1, "X", identifier=SIRET_A), occ(2, "X", identifier=SIRET_A)]
        case, ident = resolve_cluster(members, make_allocator())
        assert case is CaseKind.SINGLE_IDENTIFIED
        assert ident == SIRET_A

    def test_conflict_majority_wins(self):
        members = [
            occ(1, "X", identifier=SIRET_A),
            occ(2, "X", identifier=SIRET_A),
            occ(3, "X", identifier=SIRET_B),
        ]
        case, ident = resolve_cluster(members, make_allocator())
        assert case is CaseKind.CONFLICTING_IDS
        assert ident == SIRET_A

    def test_conflict_tie_bearer_completeness(self):
        members = [
            occ(1, "X", identifier=SIRET_B),
            occ(2, "X", "1 RUE Y", "69001", "LYON", identifier=SIRET_A),
        ]
        case, ident = resolve_cluster(members, make_allocator())
        assert case is CaseKind.CONFLICTING_IDS
        assert ident == SIRET_A

    def test_conflict_tie_lexicographic(self):
        members = [occ(1, "X", identifier=SIRET_B), occ(2, "X", identifier=SIRET_A)]
        case, ident = resolve_cluster(members, make_allocator())
        assert ident == SIRET_A

    def test_mixed_kinds_count_separately(self):
        siren = siren_only("11111111100011"[:9])
        members = [
            occ(1, "X", identifier=SIRET_A),
            occ(2, "X", identifier=siren),
            occ(3, "X", identifier=siren),
        ]
        case, ident = resolve_cluster(members, make_allocator())
        assert case is CaseKind.CONFLICTING_IDS
        assert ident == siren


class TestMergeRecords:
    def merge(self, members):
        return _merge_members(SIRET_A, members, [CaseKind.SINGLE_IDENTIFIED])

    def test_majority(self):
        members = [
            occ(1, "MAIRIE DE LYON", "1 RUE X", "69001", "LYON"),
            occ(2, "MAIRIE DE LYON", "1 RUE X", "69001", "LYON"),
            occ(3, "VILLE DE LYON", "2 RUE Y", "69002", "LYON"),
        ]
        agent = self.merge(members)
        assert agent.street == "1 RUE X"
        assert agent.zipcode == "69001"
        assert agent.city == "LYON"
        assert _agent_names(members) == ["MAIRIE DE LYON", "VILLE DE LYON"]

    def test_absent_values_ignored(self):
        members = [occ(1, "X", None, None, None), occ(2, "X", "1 RUE X", None, None)]
        agent = self.merge(members)
        assert agent.street == "1 RUE X"
        assert agent.zipcode is None

    def test_tie_prefers_complete_bearer(self):
        members = [
            occ(1, "X", "2 RUE Y"),
            occ(2, "X", "1 RUE X", "69001", "LYON"),
        ]
        agent = self.merge(members)
        assert agent.street == "1 RUE X"

    def test_tie_then_lexicographic(self):
        members = [occ(1, "X", "B RUE"), occ(2, "X", "A RUE")]
        agent = self.merge(members)
        assert agent.street == "A RUE"

    def test_raw_name_fallback(self):
        a, b = make_occurrence(1, raw_name="Nom Brut"), make_occurrence(2, raw_name="Nom Brut")
        assert _agent_names([a, b]) == ["Nom Brut"]

    def test_permutation_invariant(self):
        members = [
            occ(1, "MAIRIE DE LYON", "1 RUE X", "69001", "LYON"),
            occ(2, "VILLE DE LYON", "2 RUE Y", "69002", "LYON"),
            occ(3, "MAIRIE DE LYON", "2 RUE Y", "69001", None),
        ]
        base, base_names = self.merge(members), _agent_names(members)
        for _ in range(5):
            random.Random(42).shuffle(members)
            again = self.merge(members)
            assert (again.street, again.zipcode, again.city, _agent_names(members)) == (
                base.street, base.zipcode, base.city, base_names,
            )


# by value SIRET_A comes first; by (kind, value) a SIREN comes before any SIRET
SIREN_HIGH = siren_only("999999999")

cluster_rows = st.lists(
    st.tuples(
        st.sampled_from([None, "MAIRIE", "VILLE"]),
        st.sampled_from([None, "", "1 RUE X", "2 RUE Y"]),
        st.sampled_from([None, "69001", "75002"]),
        st.sampled_from([None, "LYON", "PARIS"]),
        st.sampled_from([None, "FR", "BE"]),
        st.sampled_from([None, SIRET_A, SIRET_B, SIREN_HIGH, siren_only("111111111")]),
    ),
    min_size=1,
    max_size=7,
)


class TestMajorityOracle:
    @given(cluster_rows)
    @example([("X", None, None, None, None, SIREN_HIGH), ("X", None, None, None, None, SIRET_A)])
    @settings(max_examples=500)
    def test_matches_per_use_oracles(self, rows):
        members = [
            occ(i, name, street, zipcode, city, identifier=ident, country=country)
            for i, (name, street, zipcode, city, country, ident) in enumerate(rows, 1)
        ]
        assert resolve_cluster(members, make_allocator()) == rule_oracle.resolve_cluster(
            members, make_allocator()
        )
        agent = _merge_members(SIRET_A, members, [CaseKind.SINGLE_IDENTIFIED])
        for name in ("street", "zipcode", "city", "department", "country"):
            assert getattr(agent, name) == rule_oracle.majority_value(members, name)


class TestMergeAll:
    def test_internal_codes_follow_cluster_order(self):
        occs = [
            occ(1, "ALPHA SERVICES", "1 RUE X", "69001", "LYON"),
            occ(2, "BRAVO SERVICES", "2 RUE Y", "69001", "LYON"),
        ]
        result = merge_all(occs, PipelineConfig())
        assert [c.resolved_identifier.value for c in result.clusters] == [
            "U000001", "U000002",
        ]

    def test_same_identifier_clusters_collapse(self):
        # identical declared SIRET in two departments: two clusters, one agent
        occs = [
            occ(1, "MAIRIE DE LYON", "1 RUE X", "69001", "LYON", identifier=SIRET_A),
            occ(2, "MAIRIE DE LYON", "1 RUE X", "75001", "LYON", identifier=SIRET_A),
        ]
        result = merge_all(occs, PipelineConfig())
        assert len(result.clusters) == 2
        assert len(result.agents) == 1
        agent = result.agents[0]
        assert agent.agent_id == SIRET_A
        assert result.names == [AgentName(SIRET_A, "MAIRIE DE LYON")]
        assert agent.case_kinds == [CaseKind.SINGLETON, CaseKind.SINGLETON]

    def test_occurrences_adopt_resolution(self):
        occs = [
            occ(1, "MAIRIE DE LYON", "1 RUE X", "69001", "LYON", identifier=SIRET_A),
            occ(2, "MAIRIE DE LYON", "1 RUE X", "69001", "LYON"),
        ]
        merge_all(occs, PipelineConfig())
        assert [o.identifier for o in occs] == [SIRET_A, SIRET_A]
        assert occs[1].identifier_source == "merged"
        assert occs[0].identifier_source is None

    def test_agents_sorted_by_kind_then_value(self):
        occs = [
            occ(1, "ALPHA SERVICES", "1 RUE X", "69001", "LYON", identifier=SIRET_B),
            occ(2, "BRAVO SERVICES", "2 RUE Y", "69001", "LYON", identifier=SIRET_A),
            occ(3, "CHARLIE SERVICES"),
        ]
        result = merge_all(occs, PipelineConfig())
        ids = [a.agent_id for a in result.agents]
        assert ids == sorted(ids, key=lambda i: (i.kind.value, i.value))

    @given(occurrence_lists(), st.lists(st.sampled_from([None, SIRET_A, SIRET_B]), max_size=14))
    @settings(max_examples=60, deadline=None)
    def test_changes_no_record_it_is_given(self, occs, identifiers):
        """merge_all replaces, in its list, each occurrence whose identifier
        the resolution changes by a copy, and leaves every record as it was."""
        for o, identifier in zip(occs, identifiers):
            o.identifier = identifier
            o.identifier_source = "declared" if identifier else None
        given_records = list(occs)
        snapshot = copy.deepcopy(occs)
        merge_all(occs, PipelineConfig())
        assert given_records == snapshot
        for before, after in zip(given_records, occs):
            if after.identifier == before.identifier:
                assert after is before
            else:
                assert after is not before and after.identifier_source == "merged"

    @given(occurrence_lists(max_size=10), st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_list_order_does_not_change_result(self, occs, rng):
        import copy

        first = merge_all(copy.deepcopy(occs), PipelineConfig())
        shuffled = copy.deepcopy(occs)
        rng.shuffle(shuffled)
        second = merge_all(shuffled, PipelineConfig())
        as_tuple = lambda res: [
            (c.cluster_id, c.member_occurrence_ids, c.case_kind, c.resolved_identifier)
            for c in res.clusters
        ]
        assert as_tuple(first) == as_tuple(second)
        assert [a.agent_id for a in first.agents] == [a.agent_id for a in second.agents]


DEPARTMENTS = st.sampled_from([None, "69", "75"])
DECLARED = st.sampled_from([None, "11111111100011", "222222222", "JUNK"])
RESOLVED = st.sampled_from([
    (None, None), (SIRET_A, "declared"), (SIRET_B, "matched"),
    (SIREN_HIGH, "declared"), (internal_code(1), "merged"),
])


class TestIdentifiersDoNotMoveThePartition:
    """The masked evaluation resolves merge's clusters again instead of
    clustering again, which holds only while clustering reads no identifier."""

    @given(st.lists(
        st.tuples(NAMES, STREETS, ZIPS, CITIES, DEPARTMENTS, DECLARED, RESOLVED, st.booleans()),
        min_size=1, max_size=14,
    ))
    @settings(max_examples=200, deadline=None)
    def test_wiping_identifiers_keeps_the_clusters(self, rows):
        occs = []
        for i, (name, street, zipcode, city, department, declared, (ident, source), _) in (
            enumerate(rows, 1)
        ):
            o = occ(i, name, street, zipcode, city, identifier=ident, declared_siret=declared)
            o.department = department
            o.identifier_source = source
            occs.append(o)
        before = cluster_occurrences(occs, THRESHOLD, MATCH)
        for o, (*_, wipe) in zip(occs, rows):
            if wipe:
                o.declared_siret = o.identifier = o.identifier_source = None
        assert cluster_occurrences(occs, THRESHOLD, MATCH) == before
