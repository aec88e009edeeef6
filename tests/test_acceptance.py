"""Acceptance gate: one test per release criterion, run last.

Each criterion is a single test so `pytest -v` prints one pass/fail line
per criterion. Tests print their measured numbers; tolerances and time
budgets are asserted inline. Fixtures are generated with seeded RNGs, and
expected outcomes are labeled at generation time from the construction
rules, never from the code under test.
"""
from __future__ import annotations

import csv
import dataclasses
import datetime as dt
import random
import sqlite3
from decimal import Decimal
from pathlib import Path
from time import perf_counter

import pytest

from conftest import identify_one, make_lot, make_occurrence, make_registry
from corpus import corpus_config
from test_criteria import oracle_normalize
from test_identify import fac
from test_merge import occ as merge_occ
from test_merge import oracle_clusters

from tedclean.config import MatchConfig, PipelineConfig
from tedclean.criteria import normalize_weights
from tedclean.emit import TABLE_ORDER
from tedclean.evaluate import (
    Clustering,
    classify_outcome,
    concentration_ratio,
    singleton_ratio,
)
from tedclean.identify import (
    address_score,
    candidate_block,
    name_similarity,
)
from tedclean.merge import cluster_occurrences, merge_all
from tedclean.models import (
    AgentCluster,
    CaseKind,
    Identifier,
    IdentifierKind,
    MatchOutcome,
    RegistryEntity,
    Role,
    full_siret,
    internal_code,
    siren_only,
)
from tedclean.normalize import department_of, normalize_name
from tedclean.pipeline import Checkpoints, run_pipeline, stage_evaluate

pytestmark = pytest.mark.acceptance


# --------------------------------------------------------------- criterion 1

def test_criterion_1_weight_normalization():
    """10,000 random weight vectors: sums within 100.00 +/- 0.01, exact
    scale invariance, residual placement equal to a brute-force oracle.
    Budget: 5 s."""
    rng = random.Random(101)
    t0 = perf_counter()
    tolerance = Decimal("0.01")
    exact = 0
    for _ in range(10_000):
        n = rng.randint(1, 8)
        weights = [
            Decimal(rng.randrange(0, 100_000)).scaleb(-rng.randrange(0, 3))
            for _ in range(n)
        ]
        if not any(w > 0 for w in weights):
            weights[rng.randrange(n)] = Decimal(rng.randrange(1, 100))
        result = normalize_weights(weights)
        assert result is not None, weights
        total = sum(result)
        assert abs(total - Decimal(100)) <= tolerance, (weights, result)
        exact += total == Decimal("100.00")

        factor = rng.choice([2, 3, 7, 10, 100])
        assert normalize_weights([w * factor for w in weights]) == result, weights

        assert result == oracle_normalize(weights), weights
    elapsed = perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"[criterion 1] 10000 vectors, {exact} exact sums, {elapsed:.2f}s")


# --------------------------------------------------------------- criterion 2

def test_criterion_2_name_normalization_idempotence():
    """normalize_name is idempotent on 10,000 fuzz strings with diacritics,
    nested parentheses, and mixed punctuation. Budget: 5 s."""
    rng = random.Random(202)
    alphabet = (
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
        "  ()()&&--'.,;:/éèêëàâäîïôöùûüÿçœæÉÈÀÇŒÆß«»!?"
    )
    t0 = perf_counter()
    for i in range(10_000):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        if i % 5 == 0 and len(s) > 6:
            third = len(s) // 3
            s = f"{s[:third]}({s[third:2 * third]}({s[2 * third:]}))"
        once = normalize_name(s)
        assert normalize_name(once) == once, repr(s)
    elapsed = perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"[criterion 2] 10000 strings idempotent, {elapsed:.2f}s")


# --------------------------------------------------------------- criterion 3

_WORDS = [
    "ALPHA", "BRAVO", "CIDRE", "DUNES", "ETAIN", "FORGE", "GIVRE", "HALLE",
    "IRIS", "JONC", "KAOLIN", "LOIRE", "MARBRE", "NACRE", "OPALE", "PIVERT",
    "QUARTZ", "RESINE", "SAULE", "TUILE", "ULMES", "VOSGES", "YVETTE", "ZINC",
]


def _oracle_block(occurrence, lot, registry, cpv_map):
    """Full-scan re-statement of the blocking predicate."""
    date = lot.award_date or lot.publication_date
    prefixes = None
    code = (lot.activity_code or "").strip()
    if code and cpv_map:
        for length in range(len(code), 0, -1):
            if code[:length] in cpv_map:
                prefixes = [p[:2] for p in cpv_map[code[:length]]]
                break
    if occurrence.department is None and prefixes is None:
        return set()
    out = set()
    for siret, facility in registry.facilities.items():
        if occurrence.department is not None and facility.department != occurrence.department:
            continue
        if prefixes is not None:
            activity = registry.effective_activity(facility)
            if activity is None or not any(activity.startswith(p) for p in prefixes):
                continue
        if facility.open_date is not None and date < facility.open_date:
            continue
        if facility.close_date is not None and date > facility.close_date:
            continue
        out.add(siret)
    return out


def _oracle_identify(occurrence, lot, registry, config, cpv_map):
    """Exhaustive arg-max over the oracle block; returns a siret or None."""
    name = occurrence.normalized_name or ""
    if not name:
        return None
    best = None
    for siret in sorted(_oracle_block(occurrence, lot, registry, cpv_map)):
        facility = registry.facilities[siret]
        sim = 0.0
        for candidate in registry.candidate_names(facility):
            sim = max(sim, name_similarity(name, candidate))
        if sim < config.name_threshold:
            continue
        score, mask = address_score(occurrence, facility, config)
        if mask and score < config.min_address_score:
            continue
        if best is None:
            best = (siret, sim, score)
        else:
            b_siret, b_sim, b_score = best
            if score > b_score or (
                score == b_score and (sim > b_sim or (sim == b_sim and siret < b_siret))
            ):
                best = (siret, sim, score)
    return best[0] if best else None


def _synthetic_registry(rng):
    facilities, entities = [], []
    depts = [f"{d:02d}" for d in range(10, 60)]
    activities = ["4311Z", "4399C", "8411Z", "8610Z"]
    for i in range(1000):
        siren = f"{400000000 + i // 2:09d}"
        siret = siren + f"{i % 2 + 1:05d}"
        names = [
            " ".join(rng.sample(_WORDS, rng.randint(1, 3)))
            for _ in range(rng.randint(1, 2))
        ]
        zipcode = None
        if rng.random() < 0.8:
            zipcode = rng.choice(depts) + f"{rng.randrange(1000):03d}"
        own_activity = rng.choice(activities + [None])
        opened = dt.date(2014, 6, 1) if rng.random() < 0.10 else None
        closed = dt.date(2013, 12, 31) if opened is None and rng.random() < 0.10 else None
        use_parent_names = rng.random() < 0.05
        facilities.append(
            fac(
                siret,
                [] if use_parent_names else names,
                street=f"{rng.randrange(1, 99)} RUE {rng.choice(_WORDS)}"
                if rng.random() < 0.7 else None,
                zipcode=zipcode,
                city=f"CITY{rng.randrange(200):03d}" if rng.random() < 0.8 else None,
                activity=own_activity,
                opened=opened,
                closed=closed,
            )
        )
        entities.append(
            RegistryEntity(
                siren=siren,
                legal_names=names,
                activity_code=rng.choice(activities),
            )
        )
    return make_registry(facilities, entities)


def test_criterion_3_identification_oracle_equivalence():
    """candidate_block equals a full-scan filter and identify_one
    equals an exhaustive arg-max on 1,000 facilities x 1,000 queries.
    Budget: 30 s."""
    rng = random.Random(303)
    registry = _synthetic_registry(rng)
    config = MatchConfig()
    cpv_map = {"45": ["43"], "79": ["84", "43"], "03": []}
    all_facilities = list(registry.facilities.values())

    t0 = perf_counter()
    matched = 0
    for q in range(1, 1001):
        base = rng.choice(all_facilities)
        base_names = registry.candidate_names(base)
        roll = rng.random()
        if roll < 0.55:
            name = rng.choice(base_names) if base_names else None
        elif roll < 0.75:
            picked = rng.choice(base_names) if base_names else ""
            tokens = picked.split()
            name = " ".join(tokens[:-1]) if len(tokens) > 1 else picked or None
        elif roll < 0.90:
            picked = rng.choice(base_names) if base_names else "X"
            pos = rng.randrange(max(1, len(picked)))
            name = picked[:pos] + "QX" + picked[pos + 1:]
        elif roll < 0.95:
            name = " ".join(rng.sample(_WORDS, 3))
        else:
            name = None

        addr_roll = rng.random()
        street, zipcode, city = None, None, None
        if addr_roll < 0.5:
            street, zipcode, city = base.street, base.zipcode, base.city
        elif addr_roll < 0.7:
            zipcode = base.zipcode
        elif addr_roll < 0.8:
            city = base.city
        elif addr_roll < 0.9:
            street = f"{rng.randrange(1, 99)} RUE {rng.choice(_WORDS)}"
            zipcode = f"{rng.randrange(10, 60):02d}{rng.randrange(1000):03d}"
            city = f"CITY{rng.randrange(200):03d}"

        occurrence = make_occurrence(
            occurrence_id=q,
            lot_id=q,
            normalized_name=name,
            street=street,
            zipcode=zipcode,
            city=city,
            department=department_of(zipcode),
        )
        lot = make_lot(
            lot_id=q,
            publication_date=dt.date(2010 + rng.randrange(10), 1 + rng.randrange(12), 15),
            activity_code=rng.choice(
                [None, "45210000", "79340000", "03000000", "99999999"]
            ),
        )

        block = candidate_block(occurrence, lot, registry, config, cpv_map)
        assert block == _oracle_block(occurrence, lot, registry, cpv_map), q

        result = identify_one(occurrence, lot, registry, config, cpv_map)
        got = result.identifier.value if result.identifier else None
        assert got == _oracle_identify(occurrence, lot, registry, config, cpv_map), q
        matched += got is not None
    elapsed = perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    print(f"[criterion 3] 1000/1000 queries agree, {matched} matched, {elapsed:.2f}s")


# --------------------------------------------------------------- criterion 4

_PARTS_A = _WORDS[:25] if len(_WORDS) >= 25 else _WORDS + ["AMBRE"]
_PARTS_B = [
    "BRUME", "CIMES", "DOLMEN", "EPIS", "FALUN", "GRESIL", "HOUX", "ICONE",
    "JASPE", "KRAFT", "LICHEN", "MELEZE", "NIMBE", "OSIER", "POMICE",
    "QUENNE", "ROSEAU", "SILEX", "TRAVER", "USINE", "VELIN", "WHARF",
    "XENON", "YPRES", "ZESTE",
]
_PARTS_C = ["NORD", "SUD", "EST", "OUEST", "CENTRE", "LITTORAL", "PLAINE",
            "COTEAU", "BOCAGE", "CAUSSE", "GARRIGUE", "LANDE", "MARAIS",
            "PUYS", "RIVAGE"]


def _planted_world():
    """500 target agents + 150 distractors; returns (registry, agents).

    Each agent dict carries the fields an occurrence copies from it and the
    hand labels: expected tier outcomes follow from name uniqueness, exact
    addresses, and the blocking design (tier 2 drops the address, so only
    agents whose lot carries a mapped CPV stay blockable).
    """
    depts = [f"{d:02d}" for d in range(10, 50)]
    facilities, agents = [], []
    for i in range(500):
        buyer = i < 250
        j = i if buyer else i - 250
        a, b = _PARTS_A[j % 25], _PARTS_B[(j // 25) % 25]
        if buyer:
            name = f"MAIRIE DE SAINT {a} SUR {b}"
        else:
            name = f"SOCIETE {a} ET {b} CONSTRUCTION"
        siren = f"{500000000 + i:09d}"
        siret = siren + "00011"
        dept = depts[i % 40]
        agent = {
            "index": i,
            "role": Role.BUYER if buyer else Role.WINNER,
            "name": name,
            "siret": siret,
            "street": f"{1 + i % 60} RUE {_PARTS_B[i % 25]}",
            "zipcode": dept + f"{100 + i % 800:03d}",
            "city": f"SAINT {a} SUR {b}",
            "activity": "8411Z" if buyer else "4311Z",
            "cpv": "45210000" if i % 2 == 0 else None,
            "tier2_unblockable": i % 2 == 1,
        }
        agents.append(agent)
        facilities.append(
            fac(siret, [name], agent["street"], agent["zipcode"], agent["city"],
                agent["activity"], opened=dt.date(2005, 1, 1))
        )
    for k in range(150):
        x, y = _PARTS_C[k % 15], _PARTS_C[(k // 15) % 15]
        facilities.append(
            fac(
                f"{600000000 + k:09d}00011",
                [f"LYCEE {x} {y} {k:03d}"],
                f"{1 + k % 40} RUE {x}",
                depts[k % 40] + f"{500 + k % 400:03d}",
                f"VILLE {y}",
                "8411Z" if k % 2 == 0 else "4311Z",
                opened=dt.date(2005, 1, 1),
            )
        )
    return make_registry(facilities), agents


def _transpose(s: str) -> str:
    tokens = s.split()
    t = max(range(len(tokens)), key=lambda k: len(tokens[k]))
    word = tokens[t]
    mid = len(word) // 2
    tokens[t] = word[: mid - 1] + word[mid] + word[mid - 1] + word[mid + 1:]
    return " ".join(tokens)


def _tier_occurrence(agent, tier):
    name = agent["name"]
    if tier == 1:
        raw = name.title()
        if agent["index"] % 3 == 0:
            raw = raw.replace("e", "é")
        if agent["index"] % 4 == 0:
            raw = raw.replace(" ", "-", 1)
        if agent["index"] % 2 == 1:
            raw = f"{raw} (Agence Principale)"
        name = normalize_name(raw)
        if agent["index"] % 10 == 0:
            name = _transpose(name)
    has_address = tier < 2
    return make_occurrence(
        occurrence_id=agent["index"] + 1,
        lot_id=agent["index"] + 1,
        role=agent["role"],
        normalized_name=name,
        street=agent["street"] if has_address else None,
        zipcode=agent["zipcode"] if has_address else None,
        city=agent["city"] if has_address else None,
        department=department_of(agent["zipcode"]) if has_address else None,
    )


def test_criterion_4_planted_truth_identification():
    """Planted truth, 250 buyers / 250 winners: tier 0 >= 99% FULL, tier 1
    (diacritic/punctuation noise) >= 95% FULL+PARTIAL, tier 2 (address
    removed) NONE exactly where the design makes the agent unblockable."""
    registry, agents = _planted_world()
    config = MatchConfig()
    cpv_map = {"45": ["43", "84"]}

    def outcomes(tier):
        out = []
        for agent in agents:
            occurrence = _tier_occurrence(agent, tier)
            lot = make_lot(
                lot_id=agent["index"] + 1,
                publication_date=dt.date(2015, 6, 1),
                activity_code=agent["cpv"],
            )
            result = identify_one(occurrence, lot, registry, config, cpv_map)
            out.append(
                classify_outcome(result.identifier, full_siret(agent["siret"]))
            )
        return out

    t0 = perf_counter()
    tier0 = outcomes(0)
    full0 = sum(o is MatchOutcome.FULL for o in tier0) / len(tier0)
    assert full0 >= 0.99, f"tier 0 FULL rate {full0:.3f}"

    tier1 = outcomes(1)
    ok1 = sum(o in (MatchOutcome.FULL, MatchOutcome.PARTIAL) for o in tier1) / len(tier1)
    assert ok1 >= 0.95, f"tier 1 FULL+PARTIAL rate {ok1:.3f}"

    tier2 = outcomes(2)
    for agent, outcome in zip(agents, tier2):
        expected_none = agent["tier2_unblockable"]
        assert (outcome is MatchOutcome.NONE) == expected_none, (
            agent["index"], outcome
        )
    elapsed = perf_counter() - t0
    full2 = sum(o is MatchOutcome.FULL for o in tier2) / len(tier2)
    print(
        f"[criterion 4] tier0 FULL {full0:.3f}, tier1 FULL+PARTIAL {ok1:.3f}, "
        f"tier2 FULL {full2:.3f}, {elapsed:.2f}s"
    )


# --------------------------------------------------------------- criterion 5

_CITY_POOL = ["MONTREUIL", "MONTAUBAN", "ROUBAIX", "ROYAN", "VANNES", "VIERZON",
              "PAMIERS", "PAU", "MELUN", "MEAUX", "ALBI", "AGEN"]


def _random_merge_fixture(rng, count=500):
    profiles = []
    for p in range(30):
        city = _CITY_POOL[p % 12]
        name = f"MAIRIE DE {city}" if p % 2 == 0 else f"GAMMA SERVICES {city}"
        dept = ["13", "31", "59", "69", "75"][p % 5]
        profiles.append(
            {
                "name": name,
                "street": f"{p + 1} RUE DES {_WORDS[p % 24]}",
                "zipcode": f"{dept}{p % 10}{p % 7}0",
                "city": city,
            }
        )
    sirets = [f"{71000000000000 + k:014d}" for k in range(12)]
    occurrences = []
    for i in range(1, count + 1):
        profile = rng.choice(profiles)
        name = profile["name"] if rng.random() < 0.9 else None
        street = rng.choice([profile["street"], profile["street"].replace(" DES ", " "), None])
        zipcode = rng.choice([profile["zipcode"], profile["zipcode"], None])
        city = rng.choice([profile["city"], None])
        roll = rng.random()
        identifier = None
        if roll < 0.25:
            identifier = full_siret(rng.choice(sirets))
        elif roll < 0.30:
            identifier = siren_only(rng.choice(sirets)[:9])
        occurrences.append(
            merge_occ(i, name, street=street, zipcode=zipcode, city=city,
                      identifier=identifier)
        )
    return occurrences


_PREFIX_TOKENS = ["ALFA", "BETA", "CINQ", "DELO", "ECHO", "FOXT", "GOLF",
                  "HOTE", "INDI", "JULI", "KILO", "LIMA", "MIKE", "NOVE",
                  "OSCA", "PAPA", "QUEB", "ROME", "SIER", "TANG"]


def _hand_built_clusters():
    """20 clusters covering the four cases; expected results hand-labeled.

    Returns (occurrences, expected) where expected is a list of
    (member ids frozenset, case kind, identifier kind, identifier value).
    """
    s = [f"{72000000000000 + k:014d}" for k in range(13)]
    # group -> (list of member identifier specs, expected case, expected id)
    # identifier specs: None, ("siret", k), ("siren", digits), or
    # ("siret_lc", k) for a low-completeness bearer (street removed)
    internal = lambda n: (IdentifierKind.INTERNAL, f"U{n:06d}")
    full = lambda k: (IdentifierKind.FULL_SIRET, s[k])
    plan = [
        ([None], CaseKind.SINGLETON, internal(1)),
        ([("siret", 0)], CaseKind.SINGLETON, full(0)),
        ([("siren", "111111111")], CaseKind.SINGLETON,
         (IdentifierKind.SIREN_ONLY, "111111111")),
        ([None], CaseKind.SINGLETON, internal(2)),
        ([("siret", 1)], CaseKind.SINGLETON, full(1)),
        ([None] * 3, CaseKind.ALL_UNIDENTIFIED, internal(3)),
        ([None] * 2, CaseKind.ALL_UNIDENTIFIED, internal(4)),
        ([None] * 4, CaseKind.ALL_UNIDENTIFIED, internal(5)),
        ([None] * 2, CaseKind.ALL_UNIDENTIFIED, internal(6)),
        ([None] * 3, CaseKind.ALL_UNIDENTIFIED, internal(7)),
        # conflicts
        ([("siret", 2)] * 3 + [("siret", 3)], CaseKind.CONFLICTING_IDS, full(2)),
        ([("siret", 4)] * 2 + [("siret_lc", 5)] * 2, CaseKind.CONFLICTING_IDS, full(4)),
        ([("siret", 7), ("siret", 6)], CaseKind.CONFLICTING_IDS, full(6)),
        ([("siren", "222222222"), ("siret", 8), ("siret", 8)],
         CaseKind.CONFLICTING_IDS, full(8)),
        ([("siret", 10)] * 2 + [("siret", 9)] * 2 + [None],
         CaseKind.CONFLICTING_IDS, full(9)),
        # single identified
        ([("siret", 11), None], CaseKind.SINGLE_IDENTIFIED, full(11)),
        ([("siret", 12), None, None], CaseKind.SINGLE_IDENTIFIED, full(12)),
        ([("siret", 0), ("siret", 0), None, None],
         CaseKind.SINGLE_IDENTIFIED, full(0)),
        ([("siren", "333333333"), None], CaseKind.SINGLE_IDENTIFIED,
         (IdentifierKind.SIREN_ONLY, "333333333")),
        ([("siret", 1), None, None], CaseKind.SINGLE_IDENTIFIED, full(1)),
    ]
    occurrences, expected = [], []
    for g, (specs, case, ident) in enumerate(plan):
        ids = []
        for m, spec in enumerate(specs):
            occ_id = g * 10 + m + 1
            ids.append(occ_id)
            identifier = None
            street = f"{g + 1} RUE CENTRALE"
            if spec is not None:
                kind, value = spec
                if kind == "siret":
                    identifier = full_siret(s[value])
                elif kind == "siret_lc":
                    identifier = full_siret(s[value])
                    street = None  # lower field completeness for this bearer
                else:
                    identifier = siren_only(value)
            occurrences.append(
                make_occurrence(
                    occurrence_id=occ_id,
                    lot_id=occ_id,
                    normalized_name=f"{_PREFIX_TOKENS[g]} SERVICES",
                    street=street,
                    zipcode=f"69{g:03d}",
                    city="LYON",
                    department="69",
                    identifier=identifier,
                )
            )
        expected.append((frozenset(ids), case, ident[0], ident[1]))
    return occurrences, expected


def test_criterion_5_merging_correctness():
    """Cluster partition equals the O(n^2) closure oracle on 500 random
    occurrences; the four cluster cases resolve with zero deviations on a
    hand-built 20-cluster fixture. Budget: 30 s."""
    t0 = perf_counter()
    config = PipelineConfig()
    occurrences = _random_merge_fixture(random.Random(505))
    got = cluster_occurrences(occurrences, config.merge_threshold, config.match)
    want = oracle_clusters(occurrences, config.merge_threshold, config.match)
    assert got == want

    hand_occurrences, expected = _hand_built_clusters()
    result = merge_all(hand_occurrences, PipelineConfig())
    assert len(result.clusters) == 20
    resolved = [
        (
            frozenset(c.member_occurrence_ids),
            c.case_kind,
            c.resolved_identifier.kind,
            c.resolved_identifier.value,
        )
        for c in result.clusters
    ]
    deviations = [pair for pair in zip(resolved, expected) if pair[0] != pair[1]]
    assert not deviations, deviations
    # propagation side effect: every member now carries its cluster's id
    by_id = {occurrence.occurrence_id: occurrence for occurrence in hand_occurrences}
    for members, _, kind, value in expected:
        for occ_id in members:
            assert by_id[occ_id].identifier == Identifier(kind, value)
    elapsed = perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    print(
        f"[criterion 5] partition of 500 equals oracle ({len(got)} clusters), "
        f"20/20 cases resolved, {elapsed:.2f}s"
    )


# --------------------------------------------------------------- criterion 6

def _clustering_of(partition):
    return Clustering.from_clusters(
        [
            AgentCluster(
                cluster_id=k,
                member_occurrence_ids=sorted(ids),
                case_kind=CaseKind.SINGLETON,
                resolved_identifier=internal_code(k),
            )
            for k, ids in enumerate(partition, 1)
        ]
    )


def test_criterion_6_metric_definitions():
    """Worked examples (0.5, 0.25, boundary 1.0) and the two
    iff-characterizations on 1,000 random clusterings."""
    clustering = _clustering_of([[1, 2], [3], [4], [5, 6]])
    assert concentration_ratio([1, 2, 3, 4], clustering) == pytest.approx(0.5)
    clustering = _clustering_of([[1, 2], [3], [4, 5], [6, 7]])
    assert singleton_ratio([1, 2, 3, 4], clustering) == pytest.approx(0.25)
    clustering = _clustering_of([[1, 2, 3, 4]])
    assert concentration_ratio([1, 2, 3, 4], clustering) == pytest.approx(1.0)
    assert singleton_ratio([1, 2, 3, 4], clustering) == pytest.approx(0.0)
    clustering = _clustering_of([[1], [2], [3], [4]])
    assert concentration_ratio([1, 2, 3, 4], clustering) == pytest.approx(0.25)
    assert singleton_ratio([1, 2, 3, 4], clustering) == pytest.approx(1.0)

    rng = random.Random(606)
    for _ in range(1000):
        n = rng.randint(1, 15)
        ids = list(range(1, n + 1))
        buckets = {}
        for occ_id in ids:
            buckets.setdefault(rng.randrange(5), []).append(occ_id)
        clustering = _clustering_of(list(buckets.values()))
        subset = rng.sample(ids, rng.randint(1, n))

        conc = concentration_ratio(subset, clustering)
        single = singleton_ratio(subset, clustering)
        assert 0.0 < conc <= 1.0 and 0.0 <= single <= 1.0
        one_cluster = len({clustering.cluster_of[i] for i in subset}) == 1
        assert (conc == 1.0) == one_cluster
        all_alone = all(
            clustering.sizes[clustering.cluster_of[i]] == 1 for i in subset
        )
        assert (single == 1.0) == all_alone
        if len(subset) == 1:
            assert conc == 1.0
    print("[criterion 6] worked examples and 1000 characterizations hold")


# --------------------------------------------------------------- criterion 7

def _tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _csv_rows(path: Path) -> int:
    with open(path, encoding="utf-8", newline="") as fh:
        return sum(1 for _ in csv.reader(fh)) - 1


def test_criterion_7_schema_integrity_and_determinism(tmp_path):
    """Full pipeline on the 100-row fixture: byte-identical across reruns;
    the SQL dump reloads with identical row counts; referential integrity
    holds in the reloaded database."""
    t0 = perf_counter()
    base = corpus_config(tmp_path / "in", tmp_path / "run_a", rows=100, seed=42)
    trees = {}
    for label in ("run_a", "run_b"):
        config = dataclasses.replace(base, output_dir=str(tmp_path / label))
        run_pipeline(config)
        trees[label] = _tree(Path(config.output_dir))
    assert trees["run_a"] == trees["run_b"], "rerun differs"

    out = tmp_path / "run_a"
    connection = sqlite3.connect(":memory:")
    connection.executescript((out / "foppa.sql").read_text(encoding="utf-8"))
    for table in TABLE_ORDER:
        (count,) = connection.execute(f"SELECT COUNT(*) FROM {table}").fetchone()
        assert count == _csv_rows(out / f"{table}.csv"), table
        assert count > 0, table
    violations = connection.execute("PRAGMA foreign_key_check").fetchall()
    assert violations == []
    elapsed = perf_counter() - t0
    print(f"[criterion 7] 2 runs byte-identical, SQL reload clean, {elapsed:.2f}s")


# --------------------------------------------------------------- criterion 8

def test_criterion_8_stage_accounting_shape(tmp_path):
    """Masked fixture: zero incorrect after separation, monotonically
    non-increasing missing, and rows that partition the truth total."""
    config = corpus_config(tmp_path / "in", tmp_path / "out", rows=80, seed=9)
    run_pipeline(config, stage_to="merge")
    report = stage_evaluate(config, Checkpoints(config.output_dir), mask=True)
    rows = report.mask.stage_rows
    assert [r.stage for r in rows] == [
        "separation", "normalization", "identification", "clustering",
    ]
    assert rows[0].incorrect_strict == 0 and rows[0].incorrect_entity == 0
    missing = [r.missing for r in rows]
    assert all(a >= b for a, b in zip(missing, missing[1:])), missing
    for row in rows:
        assert row.total == report.mask.truth_size
        assert row.correct_strict + row.incorrect_strict + row.missing == row.total
        assert row.correct_entity + row.incorrect_entity + row.missing == row.total
    print(
        f"[criterion 8] truth={report.mask.truth_size}, missing per stage {missing}"
    )


# --------------------------------------------------------------- criterion 9

def test_criterion_9_throughput_100k(tmp_path):
    """100,000 synthetic lots through the full pipeline in under 10
    minutes (sanity bound on a commodity multi-core machine)."""
    departments = [f"{d:02d}" for d in range(10, 90)]
    config = corpus_config(
        tmp_path / "in",
        tmp_path / "out",
        rows=100_000,
        seed=2026,
        registry_agents=400,
        departments=departments,
    )
    t0 = perf_counter()
    run_pipeline(config)
    elapsed = perf_counter() - t0
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    lots_rows = _csv_rows(tmp_path / "out" / "Lots.csv")
    assert lots_rows > 90_000
    print(f"[criterion 9] {lots_rows} lots in {elapsed:.1f}s")
