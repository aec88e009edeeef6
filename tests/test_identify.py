import datetime as dt
import logging
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tedclean import identify
from tedclean.config import MatchConfig, PipelineConfig
from tedclean.identify import (
    REASON_ADDRESS,
    REASON_BLOCKING,
    REASON_NAME,
    REASON_NO_NAME,
    REASON_UNBLOCKABLE,
    CandidateScore,
    MatchResult,
    Payload,
    address_score,
    apply_match_results,
    candidate_block,
    identify_all,
    levenshtein,
    name_similarity,
    payload_groups,
    payload_of,
    write_match_log,
)
from tedclean.models import InvariantError, RegistryEntity, RegistryFacility, full_siret
from tedclean.registry import Registry, temporally_valid

from conftest import identify_one, make_lot, make_occurrence

FOLDED = st.text(alphabet="ABCDE ", max_size=12)
# few code points, astral ones among them, so long strings still share
# characters; 150 code points carry the bit vectors past 64 and 128 bits
FEW = "AÉé 𝔸😀"


def oracle_levenshtein(a: str, b: str) -> int:
    m, n = len(a), len(b)
    d = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        d[i][0] = i
    for j in range(n + 1):
        d[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
    return d[m][n]


def oracle_name_similarity(a: str, b: str) -> float:
    if not a.strip() or not b.strip():
        return 0.0
    if a == b:
        return 1.0
    tokens_a, tokens_b = a.split(), b.split()
    remaining = list(tokens_b)
    shared = 0
    for token in tokens_a:
        if token in remaining:
            shared += 1
            remaining.remove(token)
    overlap = shared / min(len(tokens_a), len(tokens_b))
    if overlap >= 1.0:
        return 1.0
    longest = max(len(a), len(b))
    return max(overlap, 1.0 - oracle_levenshtein(a, b) / longest)


class TestLevenshtein:
    @pytest.mark.parametrize(
        "a,b,expected",
        [("", "", 0), ("abc", "abc", 0), ("abc", "abd", 1), ("abc", "", 3),
         ("kitten", "sitting", 3), ("flaw", "lawn", 2)],
    )
    def test_examples(self, a, b, expected):
        assert levenshtein(a, b) == expected

    @given(FOLDED, FOLDED)
    @settings(max_examples=300)
    def test_matches_oracle(self, a, b):
        assert levenshtein(a, b) == oracle_levenshtein(a, b)

    @given(st.text(max_size=150), st.text(max_size=150))
    @settings(max_examples=150)
    def test_arbitrary_text_matches_oracle(self, a, b):
        assert levenshtein(a, b) == oracle_levenshtein(a, b)

    @given(st.text(alphabet=FEW, max_size=150), st.text(alphabet=FEW, max_size=150))
    @settings(max_examples=150)
    def test_long_text_matches_oracle(self, a, b):
        assert levenshtein(a, b) == oracle_levenshtein(a, b)

    @given(st.text(max_size=150))
    def test_one_side_empty(self, a):
        assert levenshtein(a, "") == levenshtein("", a) == len(a)

    @given(
        st.text(alphabet=FEW, max_size=140),
        st.text(alphabet=FEW, max_size=8),
        st.text(alphabet=FEW, max_size=8),
        st.text(alphabet=FEW, max_size=140),
    )
    @settings(max_examples=150)
    def test_shared_prefix_and_suffix(self, prefix, a, b, suffix):
        x, y = prefix + a + suffix, prefix + b + suffix
        assert levenshtein(x, y) == oracle_levenshtein(x, y)

    @pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129])
    def test_word_boundaries(self, n):
        a = "".join(FEW[i * i % len(FEW)] for i in range(n))
        for b in (a[1:], a[:-1] + "Z", "Z" + a, a[::-1], a[: n // 2]):
            assert levenshtein(a, b) == levenshtein(b, a) == oracle_levenshtein(a, b)


class TestNameSimilarity:
    def test_equal(self):
        assert name_similarity("MAIRIE DE LYON", "MAIRIE DE LYON") == 1.0

    def test_containment_is_exact_one(self):
        assert name_similarity("COMMUNE DE LYON", "COMMUNE DE LYON ANNEXE 3") == 1.0
        assert name_similarity("LYON", "VILLE DE LYON") == 1.0

    def test_shared_tokens(self):
        # 2 shared tokens of min(3, 3)
        assert name_similarity("COMMUNE DE LYON", "MAIRIE DE LYON") == pytest.approx(2 / 3)

    def test_typo_uses_edit_distance(self):
        a, b = "ENTREPRISE DURAND", "ENTREPRISE DURAN"
        assert name_similarity(a, b) == pytest.approx(1.0 - 1 / len(a))

    def test_empty_is_zero(self):
        assert name_similarity("", "X") == 0.0
        assert name_similarity("X", "") == 0.0

    def test_disjoint(self):
        assert name_similarity("AAAA BBBB", "CCCC DDDD") < 0.5

    @given(FOLDED, FOLDED)
    @settings(max_examples=400)
    def test_matches_oracle(self, a, b):
        a, b = " ".join(a.split()), " ".join(b.split())
        assert name_similarity(a, b) == oracle_name_similarity(a, b)

    @given(FOLDED, FOLDED)
    @settings(max_examples=200)
    def test_symmetric_and_bounded(self, a, b):
        s = name_similarity(a, b)
        assert s == name_similarity(b, a)
        assert 0.0 <= s <= 1.0

    @given(st.lists(st.tuples(FOLDED, FOLDED), max_size=20))
    @settings(max_examples=100)
    def test_memo_cold_and_warm_match_oracle(self, pairs):
        pairs = [(" ".join(a.split()), " ".join(b.split())) for a, b in pairs]
        expected = [oracle_name_similarity(a, b) for a, b in pairs]
        name_similarity.cache_clear()
        cold = [name_similarity(a, b) for a, b in pairs]
        warm = [name_similarity(a, b) for a, b in pairs]
        assert cold == warm == expected
        assert name_similarity.cache_info().hits >= len(pairs)
        assert [name_similarity(b, a) for a, b in pairs] == expected


def fac(siret, names, street=None, zipcode=None, city=None, activity=None,
        opened=None, closed=None):
    return RegistryFacility(
        siret=siret, names=names, street=street, zipcode=zipcode, city=city,
        department=zipcode[:2] if zipcode else None, activity_code=activity,
        open_date=opened, close_date=closed,
    )


def build_registry():
    reg = Registry(activity_prefix_length=2)
    reg.add_entity(RegistryEntity(siren="111111111", legal_names=["COMMUNE DE LYON"],
                                  activity_code="8411Z"))
    reg.add_entity(RegistryEntity(siren="222222222", legal_names=["TRAVAUX DURAND"],
                                  activity_code="4399C"))
    reg.add_entity(RegistryEntity(siren="333333333", legal_names=["DURAND BTP PARIS"],
                                  activity_code="4399C"))
    reg.add_facility(fac("11111111100011", ["MAIRIE DE LYON", "COMMUNE DE LYON"],
                         "1 PLACE DE LA COMEDIE", "69001", "LYON"))
    reg.add_facility(fac("11111111100022", ["COMMUNE DE LYON ANNEXE"],
                         "2 RUE GARIBALDI", "69003", "LYON"))
    reg.add_facility(fac("22222222200011", ["ENTREPRISE DURAND"],
                         "5 RUE DES ACACIAS", "69100", "VILLEURBANNE",
                         opened=dt.date(2012, 1, 1), closed=dt.date(2016, 12, 31)))
    reg.add_facility(fac("33333333300011", ["ENTREPRISE DURAND"],
                         "9 AVENUE DE LA REPUBLIQUE", "75011", "PARIS"))
    return reg


# read-only, shared by the property tests below
_REGISTRY = build_registry()


@pytest.fixture
def registry():
    return build_registry()


MATCH = MatchConfig()


# folded name tokens whose variants fall on both sides of the 0.8 threshold
_WORDS = ["MAIRIE", "DE", "VILLE001", "VILLE013", "ENTREPRISE", "DURAND", "COMMUNE", "LYON"]


@st.composite
def near_name(draw, base: str) -> str:
    """base with its tokens swapped and a few characters inserted, deleted or replaced."""
    tokens = base.split()
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, len(tokens) - 1)), draw(st.integers(0, len(tokens) - 1))
        tokens[i], tokens[j] = tokens[j], tokens[i]
    text = " ".join(tokens)
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(text)))
        char = draw(st.sampled_from("ABDEILNORU01 "))
        text = draw(st.sampled_from([
            text[:at] + char + text[at:], text[:at] + text[at + 1:], text[:at] + char + text[at + 1:],
        ]))
    return text


BASE_NAMES = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=4).map(" ".join)


class TestNameBound:
    def test_rules_out_a_cross_kind_name(self):
        reg = Registry(activity_prefix_length=2)
        reg.add_facility(fac("44444444400011", ["ENTREPRISE DURAND003"], zipcode="69001"))
        payload = Payload("MAIRIE DE VILLE001", None, None, None, "69", None)
        scored = identify._score_payload(payload, reg, MATCH, None)
        assert [score for _, score in scored] == [None]


def plain_score_payload(payload, registry, config, cpv_map):
    """_score_payload with every candidate name scored, and no bound."""
    key = identify._block_key(payload, registry, cpv_map)
    block = identify._block(key, registry, config) if payload.name else None
    if block is None:
        return None
    scored = []
    for siret in block:
        facility = registry.facilities[siret]
        best = max(
            (name_similarity(payload.name, n) for n in registry.candidate_names(facility)),
            default=0.0,
        )
        score = None
        if best >= config.name_threshold:
            score = CandidateScore(siret, best, *address_score(payload, facility, config))
        scored.append((facility, score))
    return scored


@st.composite
def near_block(draw):
    """A payload and a one-department registry whose names, and its
    entities' names, are variants of the payload's name or of another."""
    base = draw(BASE_NAMES)
    names = st.one_of(near_name(base), BASE_NAMES.flatmap(near_name))
    reg = Registry(activity_prefix_length=2)
    reg.add_entity(RegistryEntity(siren="666666666", legal_names=draw(st.lists(names, max_size=2))))
    for i in range(draw(st.integers(1, 8))):
        reg.add_facility(fac(f"666666666{i:05d}", draw(st.lists(names, max_size=3)),
                             draw(st.sampled_from([None, "1 RUE X", "1 RUE Y"])), "69001"))
    payload = Payload(draw(st.sampled_from([base, draw(near_name(base))])),
                      draw(st.sampled_from([None, "1 RUE X"])), None, None, "69", None)
    return payload, reg


class TestBoundedScoring:
    @given(near_block(), st.sampled_from([0.5, 0.8, 0.9, 1.0]))
    @settings(max_examples=300, deadline=None)
    def test_equals_scoring_every_name(self, block, threshold):
        payload, reg = block
        config = MatchConfig(name_threshold=threshold)
        assert identify._score_payload(payload, reg, config, None) == plain_score_payload(
            payload, reg, config, None
        )


# lanes of up to 90 characters cross 64-bit words; runs of one character
# carry into the guard bits; spaces alone make names with no token
LANE_CHARS = "AB É😀"
LANE = st.one_of(
    st.text(alphabet=LANE_CHARS, max_size=90),
    st.builds(lambda char, n: char * n, st.sampled_from(LANE_CHARS), st.integers(0, 90)),
    st.text(alphabet=LANE_CHARS, max_size=6),
)


# criterion 3's registry words
CRITERION_3_WORDS = [
    "ALPHA", "BRAVO", "CIDRE", "DUNES", "ETAIN", "FORGE", "GIVRE", "HALLE",
    "IRIS", "JONC", "KAOLIN", "LOIRE", "MARBRE", "NACRE", "OPALE", "PIVERT",
]


class TestPackedNames:
    @given(LANE, st.lists(LANE, min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_every_lane_matches_the_oracle(self, text, names):
        lanes = identify._pack(names)
        assert identify._distances(text, lanes) == [oracle_levenshtein(text, n) for n in names]
        assert identify._similarities(text, lanes) == [
            oracle_name_similarity(text, n) for n in names
        ]

    def test_criterion_3_names_match_the_oracles(self):
        """Names as criterion 3 makes them, 1-3 tokens of a word list, some
        with two letters replaced or the last token dropped, packed in
        blocks: every pair's distance and similarity, in a block and as one
        lane, is the pure-DP oracles' value."""
        rng = random.Random(3)
        for _ in range(4):
            names = []
            for _ in range(40):
                name = " ".join(rng.sample(CRITERION_3_WORDS, rng.randint(1, 3)))
                roll = rng.random()
                if roll < 0.3:
                    at = rng.randrange(len(name))
                    name = name[:at] + "QX" + name[at + 1:]
                elif roll < 0.5 and " " in name:
                    name = name.rsplit(" ", 1)[0]
                names.append(name)
            lanes = identify._pack(names)
            for text in names:
                distances = [oracle_levenshtein(text, n) for n in names]
                similarities = [oracle_name_similarity(text, n) for n in names]
                assert identify._distances(text, lanes) == distances
                assert identify._similarities(text, lanes) == similarities
                assert [levenshtein(text, n) for n in names] == distances
                assert [name_similarity(text, n) for n in names] == similarities

    def test_a_pack_is_scored_against_its_own_registry(self):
        """Two registries with the same SIRETs and other names, scored in
        turn in one process: each score reads its own registry's names."""
        lyon, durand = Registry(activity_prefix_length=2), Registry(activity_prefix_length=2)
        for i, name in enumerate(["MAIRIE DE LYON", "MAIRIE DE LYONS", "COMMUNE DE LYON"]):
            lyon.add_facility(fac(f"77777777700{i:03d}", [name], "1 RUE X", "69001"))
            durand.add_facility(fac(f"77777777700{i:03d}", ["ENTREPRISE DURAND"], "1 RUE X", "69001"))
        payload = Payload("MAIRIE DE LYON", "1 RUE X", None, None, "69", None)
        for reg in (lyon, durand, lyon):
            assert identify._score_payload(payload, reg, MATCH, None) == plain_score_payload(
                payload, reg, MATCH, None
            )
        lots = [make_lot(1)]
        occs = [make_occurrence(1, 1, normalized_name=payload.name, street=payload.street,
                                department="69")]
        config = PipelineConfig()
        for reg in (lyon, durand):
            assert identify_all(occs, lots, reg, config) == dated_results(occs, lots, reg, config)

    def test_a_pack_is_scored_under_its_own_config(self):
        """One occurrence without a department, identified in turn under
        configs that block it on the whole registry, on its activity, or
        not at all."""
        lots = [make_lot(1, activity_code="45210000")]
        occs = [make_occurrence(1, 1, normalized_name="ENTREPRISE DURAND")]
        configs = [
            PipelineConfig(match=MatchConfig(allow_unblocked=True)),
            PipelineConfig(match=MatchConfig(allow_unblocked=True), cpv_activity_map={"45": ["84"]}),
            PipelineConfig(),
            PipelineConfig(match=MatchConfig(allow_unblocked=True)),
        ]
        results = []
        for config in configs:
            results.append(identify_all(occs, lots, _REGISTRY, config))
            assert results[-1] == dated_results(occs, lots, _REGISTRY, config)
        assert [r.reason for r, in results] == [None, REASON_NAME, REASON_UNBLOCKABLE, None]


# a facility's street: absent, empty, or arbitrary text, tokenless and
# non-ASCII text among it
STREET = st.one_of(st.none(), st.just(""), LANE, st.sampled_from(["1 RUE X", "1 RUE Y"]))


@st.composite
def street_block(draw):
    """A payload and a one-department registry of facilities that all pass
    the name threshold, with arbitrary streets; the payload's street is one
    of theirs or arbitrary."""
    reg = Registry(activity_prefix_length=2)
    for i in range(draw(st.integers(1, 8))):
        reg.add_facility(fac(f"888888888{i:05d}", ["MAIRIE DE LYON"], draw(STREET),
                             draw(st.sampled_from(["69001", "69003"])),
                             draw(st.sampled_from([None, "LYON", "LYONS"]))))
    streets = [f.street for f in reg.facilities.values()]
    payload = Payload("MAIRIE DE LYON", draw(st.one_of(STREET, st.sampled_from(streets))),
                      draw(st.sampled_from([None, "69001", "75011"])),
                      draw(st.sampled_from([None, "LYON"])), "69", None)
    return payload, reg


class TestPackedStreets:
    @given(street_block(), st.sampled_from([
        MATCH, MatchConfig(street_weight=1.0, zipcode_weight=0.0, city_weight=0.0),
    ]))
    @settings(max_examples=300, deadline=None)
    def test_every_score_is_the_address_score(self, block, config):
        payload, reg = block
        scored = identify._score_payload(payload, reg, config, None)
        assert all(score is not None for _, score in scored)
        for facility, score in scored:
            assert score == CandidateScore(
                facility.siret, score.name_similarity, *address_score(payload, facility, config)
            )


@st.composite
def address_block(draw):
    """A payload and a one-department registry whose facilities list 0-3
    names of their own, or none so their entity's legal names are read, and
    share or lack streets, zipcodes and cities."""
    base = draw(BASE_NAMES)
    names = st.one_of(near_name(base), BASE_NAMES.flatmap(near_name))
    reg = Registry(activity_prefix_length=2)
    reg.add_entity(RegistryEntity(siren="777777777",
                                  legal_names=draw(st.lists(names, min_size=1, max_size=2))))
    for i in range(draw(st.integers(1, 10))):
        # the second SIREN has no entity, so a facility there without names has none
        siren = draw(st.sampled_from(["777777777", "787878787"]))
        reg.add_facility(RegistryFacility(
            siret=f"{siren}{i:05d}", names=draw(st.lists(names, max_size=3)),
            street=draw(st.sampled_from([None, "", "1 RUE X", "1 RUE Y"])),
            zipcode=draw(st.sampled_from([None, "69001", "69003", "75011"])),
            city=draw(st.sampled_from([None, "", "LYON", "LYONS", "VILLEURBANNE"])),
            department="69", activity_code=None, open_date=None, close_date=None,
        ))
    payload = Payload(draw(st.sampled_from([base, draw(near_name(base))])),
                      draw(st.sampled_from([None, "", "1 RUE X"])),
                      draw(st.sampled_from([None, "69001", "69100"])),
                      draw(st.sampled_from([None, "LYON"])), "69", None)
    return payload, reg


class TestWholeBlockReadOut:
    @given(address_block(), st.sampled_from([0.5, 0.8, 1.0]), st.sampled_from([
        (0.4, 0.35, 0.25), (0.6, 0.0, 0.4), (0.0, 0.5, 0.5), (0.0, 0.0, 1.0),
    ]))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_per_facility_oracle(self, block, threshold, weights):
        payload, reg = block
        street, zipcode, city = weights
        config = MatchConfig(name_threshold=threshold, street_weight=street,
                             zipcode_weight=zipcode, city_weight=city)
        assert identify._score_payload(payload, reg, config, None) == plain_score_payload(
            payload, reg, config, None
        )


class TestAddressScore:
    def test_all_fields_match(self):
        occ = make_occurrence(street="1 PLACE DE LA COMEDIE", zipcode="69001", city="LYON")
        facility = fac("x" * 14, [], "1 PLACE DE LA COMEDIE", "69001", "LYON")
        score, mask = address_score(occ, facility, MATCH)
        assert score == pytest.approx(1.0)
        assert mask == ("street", "zipcode", "city")

    def test_zipcode_same_department_half(self):
        occ = make_occurrence(street=None, zipcode="69001", city=None)
        facility = fac("x" * 14, [], None, "69003", None)
        score, mask = address_score(occ, facility, MATCH)
        assert score == pytest.approx(0.5)
        assert mask == ("zipcode",)

    def test_weight_redistribution(self):
        # street missing on the facility side: weights over zipcode+city
        occ = make_occurrence(street="5 RUE X", zipcode="69001", city="LYON")
        facility = fac("x" * 14, [], None, "69003", "LYON")
        score, mask = address_score(occ, facility, MATCH)
        expected = (0.35 * 0.5 + 0.25 * 1.0) / (0.35 + 0.25)
        assert score == pytest.approx(expected)
        assert mask == ("zipcode", "city")

    def test_nothing_shared(self):
        occ = make_occurrence(street=None, zipcode=None, city="LYON")
        facility = fac("x" * 14, [], "1 RUE Y", "69001", None)
        score, mask = address_score(occ, facility, MATCH)
        assert score == 0.0
        assert mask == ()

    @pytest.mark.parametrize("street", [None, "5 RUE X"])
    def test_fields_that_weigh_nothing_are_no_evidence(self, street):
        # street-only weights, street missing on one side: zipcode and city
        # are present but weigh nothing
        config = MatchConfig(street_weight=1.0, zipcode_weight=0.0, city_weight=0.0)
        occ = make_occurrence(street=street, zipcode="69001", city="LYON")
        facility = fac("x" * 14, [], None, "69001", "LYON")
        assert address_score(occ, facility, config) == (0.0, ())

    @given(*[st.sampled_from([None, "", "5 RUE X", "69001", "69003", "LYON"])] * 3)
    @settings(max_examples=60)
    def test_payload_scores_as_its_occurrence(self, street, zipcode, city):
        occ = make_occurrence(street=street, zipcode=zipcode, city=city)
        facility = fac("x" * 14, [], "5 RUE X", "69003", "LYON")
        payload = payload_of(occ, make_lot())
        assert address_score(payload, facility, MATCH) == address_score(occ, facility, MATCH)
        assert address_score(payload, occ, MATCH) == address_score(occ, occ, MATCH)


class TestCandidateBlock:
    def oracle(self, payload, date, registry, config, cpv_map):
        prefixes = None
        if payload.activity and cpv_map:
            code = payload.activity.strip()
            for length in range(len(code), 0, -1):
                allowed = cpv_map.get(code[:length])
                if allowed is not None:
                    plen = registry.activity_prefix_length
                    prefixes = {p[:plen] for p in allowed}
                    break
        if not payload.department and prefixes is None:
            if not config.allow_unblocked:
                return set()
            pool = set(registry.facilities)
        else:
            pool = set()
            for siret, facility in registry.facilities.items():
                if payload.department and facility.department != payload.department:
                    continue
                if prefixes is not None:
                    code = registry.effective_activity(facility)
                    plen = registry.activity_prefix_length
                    if code is None or code[:plen] not in prefixes:
                        continue
                pool.add(siret)
        return {s for s in pool if temporally_valid(registry.facilities[s], date)}

    def test_department_block(self, registry):
        occ = make_occurrence(zipcode="69001", department="69")
        lot = make_lot()
        block = candidate_block(occ, lot, registry, MATCH)
        assert block == {"11111111100011", "11111111100022", "22222222200011"}

    def test_date_filters_block(self, registry):
        occ = make_occurrence(department="69")
        lot = make_lot(publication_date=dt.date(2018, 5, 1))
        block = candidate_block(occ, lot, registry, MATCH)
        assert "22222222200011" not in block

    def test_activity_intersection(self, registry):
        occ = make_occurrence(department="69")
        lot = make_lot(activity_code="45210000")
        cpv_map = {"45": ["43"]}
        block = candidate_block(occ, lot, registry, MATCH, cpv_map)
        assert block == {"22222222200011"}

    def test_activity_alone_blocks(self, registry):
        occ = make_occurrence()
        lot = make_lot(activity_code="45210000")
        cpv_map = {"45": ["43"]}
        block = candidate_block(occ, lot, registry, MATCH, cpv_map)
        assert block == {"22222222200011", "33333333300011"}

    def test_unblockable_refused(self, registry):
        occ = make_occurrence()
        lot = make_lot()
        assert candidate_block(occ, lot, registry, MATCH) == set()

    def test_allow_unblocked_scans_all(self, registry):
        occ = make_occurrence()
        lot = make_lot()
        config = MatchConfig(allow_unblocked=True)
        block = candidate_block(occ, lot, registry, config)
        assert block == set(registry.facilities)

    @given(
        department=st.sampled_from([None, "69", "75", "29"]),
        activity=st.sampled_from([None, "45210000", "03110000"]),
        year=st.sampled_from([2011, 2015, 2018]),
        allow=st.booleans(),
    )
    @settings(max_examples=100)
    def test_matches_full_scan_oracle(self, department, activity, year, allow):
        occ = make_occurrence(department=department)
        lot = make_lot(publication_date=dt.date(year, 6, 1), activity_code=activity)
        config = MatchConfig(allow_unblocked=allow)
        cpv_map = {"45": ["43"], "03": []}
        payload = payload_of(occ, lot)
        date = lot.award_date or lot.publication_date
        assert candidate_block(occ, lot, _REGISTRY, config, cpv_map) == self.oracle(
            payload, date, _REGISTRY, config, cpv_map
        )


class TestIdentifyOccurrence:
    def test_clean_match(self, registry):
        occ = make_occurrence(
            normalized_name="MAIRIE DE LYON", street="1 PLACE DE LA COMEDIE",
            zipcode="69001", city="LYON", department="69",
        )
        result = identify_one(occ, make_lot(), registry, MATCH)
        assert result.source == "matched"
        assert result.identifier == full_siret("11111111100011")
        assert result.best.address_score == pytest.approx(1.0)

    def test_no_name(self, registry):
        occ = make_occurrence(normalized_name=None, department="69")
        result = identify_one(occ, make_lot(), registry, MATCH)
        assert result.source == "none"
        assert result.reason == REASON_NO_NAME

    def test_unblockable(self, registry):
        occ = make_occurrence(normalized_name="MAIRIE DE LYON")
        result = identify_one(occ, make_lot(), registry, MATCH)
        assert result.reason == REASON_UNBLOCKABLE

    def test_blocking_empties(self, registry):
        occ = make_occurrence(normalized_name="MAIRIE DE BREST", department="29")
        result = identify_one(occ, make_lot(), registry, MATCH)
        assert result.reason == REASON_BLOCKING
        assert result.block_size == 0

    def test_name_filter_empties(self, registry):
        occ = make_occurrence(normalized_name="BOULANGERIE MARTIN", department="69")
        result = identify_one(occ, make_lot(), registry, MATCH)
        assert result.reason == REASON_NAME
        assert result.block_size == 3

    def test_address_filter_empties(self, registry):
        occ = make_occurrence(
            normalized_name="ENTREPRISE DURAND", department="69",
            street="99 CHEMIN VERT", zipcode="13001", city="MARSEILLE",
        )
        result = identify_one(occ, make_lot(publication_date=dt.date(2014, 1, 1)),
                              registry, MATCH)
        assert result.reason == REASON_ADDRESS
        assert result.name_survivors == 1

    def test_empty_address_mask_survives(self, registry):
        occ = make_occurrence(normalized_name="ENTREPRISE DURAND", department="69")
        result = identify_one(occ, make_lot(publication_date=dt.date(2014, 1, 1)),
                              registry, MATCH)
        assert result.source == "matched"
        assert result.identifier == full_siret("22222222200011")
        assert result.best.presence_mask == ()

    def test_argmax_prefers_address(self, registry):
        # both Lyon facilities pass the name filter; the street decides
        occ = make_occurrence(
            normalized_name="COMMUNE DE LYON", street="2 RUE GARIBALDI",
            zipcode="69003", city="LYON", department="69",
        )
        result = identify_one(occ, make_lot(), registry, MATCH)
        assert result.identifier == full_siret("11111111100022")

    def test_tie_breaks_on_smaller_siret(self):
        reg = Registry(PipelineConfig().match.activity_prefix_length)
        reg.add_entity(RegistryEntity(siren="444444444", legal_names=["X"]))
        for siret in ("44444444400022", "44444444400011"):
            reg.add_facility(fac(siret, ["AGENCE DE L EAU"], None, "69001", None))
        occ = make_occurrence(normalized_name="AGENCE DE L EAU", department="69")
        result = identify_one(occ, make_lot(), reg, MATCH)
        assert result.best.siret == "44444444400011"


class TestIdentifyAll:
    def test_cache_equals_individual(self, registry):
        lots = [make_lot(1), make_lot(2)]
        occs = [
            make_occurrence(1, 1, normalized_name="MAIRIE DE LYON",
                            street="1 PLACE DE LA COMEDIE", zipcode="69001",
                            city="LYON", department="69"),
            make_occurrence(2, 2, normalized_name="MAIRIE DE LYON",
                            street="1 PLACE DE LA COMEDIE", zipcode="69001",
                            city="LYON", department="69"),
            make_occurrence(3, 1, normalized_name="NOBODY KNOWN", department="69"),
        ]
        individual = [
            identify_one(o, lots[o.lot_id - 1], registry, MATCH) for o in occs
        ]
        results = identify_all(occs, lots, registry, PipelineConfig())
        assert [r.identifier for r in results] == [r.identifier for r in individual]
        assert [r.reason for r in results] == [r.reason for r in individual]
        assert all(o.identifier is None for o in occs)  # identify_all only reports
        apply_match_results(occs, results)
        assert occs[0].identifier == full_siret("11111111100011")
        assert occs[0].identifier_source == "matched"
        assert occs[2].identifier is None

    def test_declared_skipped(self, registry):
        occ = make_occurrence(1, 1, normalized_name="MAIRIE DE LYON", department="69")
        occ.identifier = full_siret("99999999900011")
        results = identify_all([occ], [make_lot(1)], registry, PipelineConfig())
        assert results[0].source == "declared"
        apply_match_results([occ], results)
        assert occ.identifier == full_siret("99999999900011")

    def test_unknown_lot_raises(self, registry):
        occ = make_occurrence(1, 42, normalized_name="X", department="69")
        with pytest.raises(InvariantError):
            identify_all([occ], [make_lot(1)], registry, PipelineConfig())

    def test_results_in_occurrence_order(self, registry):
        occs = [
            make_occurrence(3, 1, normalized_name="MAIRIE DE LYON", department="69"),
            make_occurrence(1, 1, normalized_name="MAIRIE DE LYON", department="69"),
            make_occurrence(2, 1, normalized_name="MAIRIE DE LYON", department="69"),
        ]
        results = identify_all(occs, [make_lot(1)], registry, PipelineConfig())
        assert [r.occurrence_id for r in results] == [1, 2, 3]

    def test_logs_the_blocks_it_packed(self, registry, caplog):
        # two payloads share department 69's block: four distinct names and
        # three distinct streets; the first payload's lots fall in two
        # epochs, as ENTREPRISE DURAND closes at the end of 2016
        lots = [make_lot(1), make_lot(2, publication_date=dt.date(2015, 7, 1)),
                make_lot(3, publication_date=dt.date(2018, 1, 1))]
        occs = [make_occurrence(1, 1, normalized_name="MAIRIE DE LYON", department="69"),
                make_occurrence(2, 1, normalized_name="COMMUNE DE LYON", department="69"),
                make_occurrence(3, 2, normalized_name="MAIRIE DE LYON", department="69"),
                make_occurrence(4, 3, normalized_name="MAIRIE DE LYON", department="69")]
        with caplog.at_level(logging.DEBUG, logger="tedclean.identify"):
            identify_all(occs, lots, registry, PipelineConfig())
        assert caplog.messages == [
            "identify: 2 payload groups scored against 1 packed blocks of 4 name lanes"
            " and 3 street lanes, in 3 resolutions"
        ]

    def test_block_keys_ignore_prefix_order(self, registry):
        # both CPVs allow the same activity prefixes, listed in another order
        # and repeated: one department's two lots share one packed block
        config = PipelineConfig(cpv_activity_map={"45": ["43", "84"], "79": ["84", "43", "84"]})
        lots = [make_lot(1, activity_code="45210000"), make_lot(2, activity_code="79000000")]
        occs = [make_occurrence(1, 1, normalized_name="MAIRIE DE LYON", department="69"),
                make_occurrence(2, 2, normalized_name="MAIRIE DE LYON", department="69")]
        with mock.patch.object(identify, "_pack_block", wraps=identify._pack_block) as spy:
            results = identify_all(occs, lots, registry, config)
        assert spy.call_count == 1
        assert results == dated_results(occs, lots, registry, config)


class TestPayloadGroups:
    LYON = dict(normalized_name="MAIRIE DE LYON", department="69")

    def test_groups_in_order_of_first_appearance(self):
        lots = [make_lot(1), make_lot(2, activity_code="45210000"), make_lot(3)]
        occs = [
            make_occurrence(5, 3, **self.LYON),
            make_occurrence(4, 2, **self.LYON),
            make_occurrence(3, 9, identifier=full_siret("99999999900011"), **self.LYON),
            make_occurrence(2, 1, **self.LYON),
            make_occurrence(1, 2, **self.LYON),
        ]
        groups = payload_groups(occs, lots)
        # lots 1 and 3 share a payload: the lot's date is not part of it
        assert list(groups) == [payload_of(occs[4], lots[1]), payload_of(occs[3], lots[0]), None]
        assert [[(o.occurrence_id, lot and lot.lot_id) for o, lot in members]
                for members in groups.values()] == [[(1, 2), (4, 2)], [(2, 1), (5, 3)], [(3, None)]]

    def test_unknown_lot_names_the_lowest_undeclared_id(self):
        occs = [
            make_occurrence(3, 8, **self.LYON),
            make_occurrence(2, 7, **self.LYON),
            make_occurrence(1, 9, identifier=full_siret("99999999900011"), **self.LYON),
        ]
        with pytest.raises(InvariantError, match="occurrence 2 references unknown lot 7"):
            payload_groups(occs, [make_lot(1)])


def dated_block(payload, date, registry, config, cpv_map):
    """Blocking with the lot date inside: (pool, unblockable)."""
    restricted = False
    pool = None
    if payload.department:
        restricted = True
        pool = registry.by_department.get(payload.department, set())
    prefixes = identify._activity_prefixes(
        payload.activity, cpv_map, registry.activity_prefix_length
    )
    if prefixes is not None:
        restricted = True
        allowed = set()
        for prefix in prefixes:
            allowed |= registry.by_activity_prefix.get(prefix, set())
        pool = allowed if pool is None else pool & allowed
    if not restricted:
        if not config.allow_unblocked:
            return set(), True
        pool = set(registry.facilities)
    pool = {s for s in pool if temporally_valid(registry.facilities[s], date)}
    return pool, False


def dated_identify(payload, date, registry, config, cpv_map):
    """A dated payload identified on its own, its block filtered by date
    before any score: (best, reason, block size, name survivors)."""
    if not payload.name:
        return None, REASON_NO_NAME, 0, 0
    pool, unblockable = dated_block(payload, date, registry, config, cpv_map)
    if unblockable:
        return None, REASON_UNBLOCKABLE, 0, 0
    if not pool:
        return None, REASON_BLOCKING, 0, 0
    by_name = []
    for siret in pool:
        facility = registry.facilities[siret]
        best_sim = max(
            (name_similarity(payload.name, n) for n in registry.candidate_names(facility)),
            default=0.0,
        )
        if best_sim >= config.name_threshold:
            by_name.append((siret, best_sim))
    if not by_name:
        return None, REASON_NAME, len(pool), 0
    candidates = []
    for siret, sim in by_name:
        score, mask = address_score(payload, registry.facilities[siret], config)
        if mask and score < config.min_address_score:
            continue
        candidates.append(CandidateScore(siret, sim, score, mask))
    if not candidates:
        return None, REASON_ADDRESS, len(pool), len(by_name)
    best = min(candidates, key=lambda c: (-c.address_score, -c.name_similarity, c.siret))
    return best, None, len(pool), len(by_name)


def dated_results(occurrences, lots, registry, config):
    """identify_all's results, each occurrence identified on its own by the dated oracle."""
    results = []
    for occ, lot in zip(occurrences, lots):
        best, reason, block_size, survivors = dated_identify(
            payload_of(occ, lot), lot.award_date or lot.publication_date,
            registry, config.match, config.cpv_activity_map,
        )
        results.append(MatchResult(
            occ.occurrence_id, "matched" if best else "none",
            full_siret(best.siret) if best else None, reason, best, block_size, survivors,
        ))
    return results


# facility dates, and lot dates on both sides of each of them
_EDGES = [dt.date(2012, 1, 1), dt.date(2014, 6, 30), dt.date(2016, 12, 31)]
_LOT_DATES = sorted({e + dt.timedelta(days=d) for e in _EDGES for d in (-1, 0, 1)})
_NAMES = ["MAIRIE DE LYON", "MAIRIE DE LYONS", "COMMUNE DE LYON", "ENTREPRISE DURAND"]


@st.composite
def dated_corpus(draw):
    """A registry, and occurrences that share a few date-free payloads
    across lots of many dates."""
    reg = Registry(activity_prefix_length=2)
    reg.add_entity(RegistryEntity(siren="555555555", legal_names=["COMMUNE DE LYON"],
                                  activity_code="8411Z"))
    for i in range(draw(st.integers(1, 8))):
        reg.add_facility(fac(
            f"555555555{i:05d}",
            draw(st.lists(st.sampled_from(_NAMES), max_size=2, unique=True)),
            draw(st.sampled_from([None, "1 RUE X", "2 RUE Y"])),
            draw(st.sampled_from([None, "69001", "69003", "75011"])),
            draw(st.sampled_from([None, "LYON", "PARIS"])),
            draw(st.sampled_from([None, "4399C", "8411Z"])),
            opened=draw(st.sampled_from([None] + _EDGES)),
            closed=draw(st.sampled_from([None] + _EDGES)),
        ))
    payloads = draw(st.lists(st.fixed_dictionaries({
        "normalized_name": st.sampled_from([None] + _NAMES),
        "street": st.sampled_from([None, "1 RUE X", "9 RUE Z"]),
        "zipcode": st.sampled_from([None, "69001", "75011"]),
        "city": st.sampled_from([None, "LYON"]),
        "department": st.sampled_from([None, "69", "75"]),
    }), min_size=1, max_size=3))
    lots, occurrences = [], []
    for i in range(1, draw(st.integers(1, 12)) + 1):
        lots.append(make_lot(
            i,
            publication_date=draw(st.sampled_from(_LOT_DATES)),
            award_date=draw(st.sampled_from([None] + _LOT_DATES)),
            activity_code=draw(st.sampled_from([None, "45210000"])),
        ))
        occurrences.append(make_occurrence(i, i, **draw(st.sampled_from(payloads))))
    return reg, lots, occurrences


class TestDateFreeScoring:
    @given(corpus=dated_corpus(), allow=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_identify_all_equals_dated_oracle(self, corpus, allow):
        registry, lots, occs = corpus
        config = PipelineConfig(match=MatchConfig(allow_unblocked=allow),
                                cpv_activity_map={"45": ["43"]})
        expected = []
        for occ, lot in zip(occs, lots):
            best, reason, block_size, survivors = dated_identify(
                payload_of(occ, lot), lot.award_date or lot.publication_date,
                registry, config.match, config.cpv_activity_map,
            )
            expected.append(MatchResult(
                occ.occurrence_id, "matched" if best else "none",
                full_siret(best.siret) if best else None, reason, best, block_size, survivors,
            ))
        assert identify_all(occs, lots, registry, config) == expected


def epoch_of(payload, date, registry, config):
    """The side of the lot date that each of the block's open and close
    dates is on: no validity in the block changes while it holds."""
    key = identify._block_key(payload, registry, config.cpv_activity_map)
    block = identify._block(key, registry, config.match)
    facilities = [registry.facilities[s] for s in sorted(block or ()) if payload.name]
    return payload, tuple(
        (f.open_date is not None and f.open_date <= date,
         f.close_date is not None and f.close_date < date)
        for f in facilities
    )


class TestResolveOncePerEpoch:
    def spied(self, occs, lots, registry, config):
        """identify_all's results, and the (occurrence, lot date) of each resolution."""
        resolve, calls = identify._resolve, []

        def spy(occurrence, date, *args):
            calls.append((occurrence, date))
            return resolve(occurrence, date, *args)

        with mock.patch.object(identify, "_resolve", spy):
            return identify_all(occs, lots, registry, config), calls

    @given(corpus=dated_corpus(), allow=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_once_per_payload_and_epoch(self, corpus, allow):
        registry, lots, occs = corpus
        config = PipelineConfig(match=MatchConfig(allow_unblocked=allow),
                                cpv_activity_map={"45": ["43"]})
        lots_by_id = {lot.lot_id: lot for lot in lots}
        _, calls = self.spied(occs, lots, registry, config)
        resolved = [
            epoch_of(payload_of(occ, lots_by_id[occ.lot_id]), date, registry, config)
            for occ, date in calls
        ]
        assert len(resolved) == len(set(resolved))
        assert set(resolved) == {
            epoch_of(payload_of(occ, lot), lot.award_date or lot.publication_date,
                     registry, config)
            for occ, lot in zip(occs, lots)
        }

    def test_open_and_close_dates_are_valid_days(self):
        opened, closed = dt.date(2012, 1, 1), dt.date(2016, 12, 31)
        reg = Registry(activity_prefix_length=2)
        reg.add_facility(fac("99999999900011", ["MAIRIE DE LYON"], zipcode="69001",
                             opened=opened, closed=closed))
        dates = [opened - dt.timedelta(days=1), opened, closed, closed + dt.timedelta(days=1)]
        lots = [make_lot(i, publication_date=d) for i, d in enumerate(dates, 1)]
        occs = [make_occurrence(i, i, normalized_name="MAIRIE DE LYON", department="69")
                for i in range(1, 5)]
        results, calls = self.spied(occs, lots, reg, PipelineConfig())
        assert [r.block_size for r in results] == [0, 1, 1, 0]
        assert [r.occurrence_id for r in results] == [1, 2, 3, 4]
        assert [r.source for r in results] == ["none", "matched", "matched", "none"]
        # the open and the close date share an epoch
        assert [date for _, date in calls] == [dates[0], dates[1], dates[3]]


class TestWriteMatchLog:
    def test_shape(self, registry, tmp_path):
        occ = make_occurrence(1, 1, normalized_name="MAIRIE DE LYON",
                              street="1 PLACE DE LA COMEDIE", zipcode="69001",
                              city="LYON", department="69")
        results = identify_all([occ], [make_lot(1)], registry, PipelineConfig())
        path = tmp_path / "log.csv"
        write_match_log(results, path)
        assert b"\r" not in path.read_bytes()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("occurrenceId,outcome,reason,siret")
        assert lines[1].split(",")[0:2] == ["1", "matched"]
        assert "11111111100011" in lines[1]
