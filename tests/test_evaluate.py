import copy
import datetime as dt
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import corpus_config
from tedclean import evaluate, merge
from tedclean import pipeline as pl
from tedclean.config import PipelineConfig
from tedclean.evaluate import (
    Clustering,
    MaskReport,
    classify_outcome,
    concentration_ratio,
    distribution_tables,
    load_ground_truth,
    mask_and_rerun,
    notice_coverage,
    singleton_ratio,
    stage_accounting,
    truth_from_declared,
    write_report_files,
)
from tedclean.identify import apply_match_results, identify_all
from tedclean.merge import merge_all
from tedclean.models import (
    AgentCluster,
    AgentOccurrence,
    CaseKind,
    Identifier,
    IdentifierKind,
    InvariantError,
    LotRecord,
    MatchOutcome,
    RegistryEntity,
    Role,
    full_siret,
    internal_code,
    siren_only,
    validate_siret,
)
from tedclean.normalize import (
    load_postal_table,
    merge_by_declared_siret,
    normalize_occurrence,
)
from tedclean.pipeline import Checkpoints, run_pipeline
from tedclean.registry import Registry

from conftest import make_lot, make_occurrence
from test_identify import fac

TRUTH = full_siret("11111111100011")


class TestClassifyOutcome:
    def test_table(self):
        assert classify_outcome(None, TRUTH) is MatchOutcome.NONE
        assert classify_outcome(internal_code(3), TRUTH) is MatchOutcome.NONE
        assert classify_outcome(full_siret("11111111100011"), TRUTH) is MatchOutcome.FULL
        assert classify_outcome(full_siret("11111111100022"), TRUTH) is MatchOutcome.PARTIAL
        assert classify_outcome(siren_only("111111111"), TRUTH) is MatchOutcome.PARTIAL
        assert classify_outcome(full_siret("22222222200011"), TRUTH) is MatchOutcome.INCORRECT
        assert classify_outcome(siren_only("222222222"), TRUTH) is MatchOutcome.INCORRECT


def clustering_of(partition: list[list[int]]) -> Clustering:
    clusters = [
        AgentCluster(
            cluster_id=k,
            member_occurrence_ids=sorted(ids),
            case_kind=CaseKind.SINGLETON,
            resolved_identifier=internal_code(k),
        )
        for k, ids in enumerate(partition, 1)
    ]
    return Clustering.from_clusters(clusters)


class TestRatios:
    def test_concentration_half(self):
        # 4 occurrences of one agent, largest cluster holds 2 of them
        clustering = clustering_of([[1, 2], [3], [4], [5, 6]])
        assert concentration_ratio([1, 2, 3, 4], clustering) == pytest.approx(0.5)

    def test_singleton_quarter(self):
        # exactly 1 of the 4 sits in a singleton cluster
        clustering = clustering_of([[1, 2], [3], [4, 5], [6, 7]])
        assert singleton_ratio([1, 2, 3, 4], clustering) == pytest.approx(0.25)

    def test_perfect_concentration(self):
        clustering = clustering_of([[1, 2, 3, 4]])
        assert concentration_ratio([1, 2, 3, 4], clustering) == pytest.approx(1.0)
        assert singleton_ratio([1, 2, 3, 4], clustering) == pytest.approx(0.0)

    def test_full_scatter(self):
        clustering = clustering_of([[1], [2], [3], [4]])
        assert concentration_ratio([1, 2, 3, 4], clustering) == pytest.approx(0.25)
        assert singleton_ratio([1, 2, 3, 4], clustering) == pytest.approx(1.0)

    def test_empty_is_none(self):
        clustering = clustering_of([[1]])
        assert concentration_ratio([], clustering) is None
        assert singleton_ratio([], clustering) is None

    @given(st.data())
    @settings(max_examples=300)
    def test_characterizations(self, data):
        n = data.draw(st.integers(min_value=1, max_value=12))
        ids = list(range(1, n + 1))
        assignment = data.draw(
            st.lists(st.integers(min_value=0, max_value=4), min_size=n, max_size=n)
        )
        partition: dict[int, list[int]] = {}
        for occ_id, bucket in zip(ids, assignment):
            partition.setdefault(bucket, []).append(occ_id)
        clustering = clustering_of(list(partition.values()))
        subset = data.draw(st.sets(st.sampled_from(ids), min_size=1))
        subset = sorted(subset)

        conc = concentration_ratio(subset, clustering)
        single = singleton_ratio(subset, clustering)
        assert 0.0 < conc <= 1.0
        assert 0.0 <= single <= 1.0
        same_cluster = len({clustering.cluster_of[i] for i in subset}) == 1
        assert (conc == 1.0) == same_cluster
        all_alone = all(clustering.sizes[clustering.cluster_of[i]] == 1 for i in subset)
        assert (single == 1.0) == all_alone
        if len(subset) == 1:
            assert conc == 1.0


class TestStageAccounting:
    def test_counts_and_partition(self):
        truth = {1: TRUTH, 2: full_siret("22222222200011"), 3: full_siret("33333333300011")}
        snapshots = {
            "separation": {1: None, 2: None, 3: None},
            "normalization": {1: TRUTH, 2: None, 3: None},
            "identification": {1: TRUTH, 2: full_siret("22222222200099"), 3: None},
            "clustering": {1: TRUTH, 2: full_siret("99999999900011"), 3: None},
        }
        rows = stage_accounting(snapshots, truth)
        assert [r.stage for r in rows] == [
            "separation", "normalization", "identification", "clustering",
        ]
        sep, norm, ident, clus = rows
        assert (sep.correct_strict, sep.incorrect_strict, sep.missing) == (0, 0, 3)
        assert (norm.correct_strict, norm.missing) == (1, 2)
        assert (ident.correct_strict, ident.incorrect_strict, ident.missing) == (1, 1, 1)
        assert ident.correct_entity == 2  # the PARTIAL counts as entity-correct
        assert (clus.incorrect_strict, clus.incorrect_entity) == (1, 1)
        for row in rows:
            assert row.correct_strict + row.incorrect_strict + row.missing == row.total
            assert row.correct_entity + row.incorrect_entity + row.missing == row.total


class TestNoticeCoverage:
    def test_worked_example(self):
        lots = [
            make_lot(1, notice_id="A1", contract_notice_ref="C1"),
            make_lot(2, notice_id="A2"),
        ]
        unmatched_contracts, unmatched_awards = notice_coverage({"C1", "C2"}, lots)
        assert unmatched_contracts == pytest.approx(50.0)
        assert unmatched_awards == pytest.approx(50.0)

    def test_no_ids_is_none(self):
        assert notice_coverage(set(), [make_lot(1)]) == (None, None)
        assert notice_coverage({"C1"}, []) == (None, None)

    def test_full_match(self):
        lots = [make_lot(1, notice_id="A1", contract_notice_ref="C1")]
        assert notice_coverage({"C1"}, lots) == (pytest.approx(0.0), pytest.approx(0.0))


class TestDistributionTables:
    def test_bins(self):
        partition = [[1], [2, 3], [4, 5, 6, 7, 8, 9, 10]]
        clusters = [
            AgentCluster(k, ids, CaseKind.SINGLETON, internal_code(k))
            for k, ids in enumerate(partition, 1)
        ]
        identifier_of = {1: None, 2: TRUTH, 3: TRUTH,
                         4: TRUTH, 5: full_siret("22222222200011"), 6: None,
                         7: None, 8: None, 9: None, 10: None}
        sizes, idents = distribution_tables(clusters, identifier_of)
        assert dict((label, n) for label, n, _ in sizes) == {
            "1": 1, "2": 1, "3": 0, "4": 0, "5": 0, "6+": 1,
        }
        assert dict((label, n) for label, n, _ in idents) == {
            "0": 1, "1": 1, "2": 1, "3": 0, "4": 0, "5+": 0,
        }
        assert sum(pct for _, _, pct in sizes) == pytest.approx(100.0)

    def test_empty(self):
        sizes, idents = distribution_tables([], {})
        assert all(n == 0 and pct == 0.0 for _, n, pct in sizes)
        assert all(n == 0 and pct == 0.0 for _, n, pct in idents)


class TestTruthSources:
    def test_truth_from_declared(self):
        occs = [
            make_occurrence(1, declared_siret="11111111100011"),
            make_occurrence(2, declared_siret="123456789"),
            make_occurrence(3, declared_siret="junk"),
            make_occurrence(4),
        ]
        truth = truth_from_declared(occs)
        assert truth == {1: TRUTH}

    def test_load_ground_truth(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text(
            "occurrenceId,siret\n1,11111111100011\n2,123456789\n3,bad\n",
            encoding="utf-8",
        )
        truth = load_ground_truth(str(path), PipelineConfig().delimiter)
        assert truth == {1: TRUTH}


def mask_world():
    registry = Registry(activity_prefix_length=2)
    registry.add_entity(RegistryEntity(siren="111111111", legal_names=["COMMUNE DE LYON"]))
    registry.add_entity(RegistryEntity(siren="222222222", legal_names=["TRAVAUX DURAND"]))
    registry.add_facility(fac("11111111100011", ["MAIRIE DE LYON"],
                              "1 PLACE DE LA COMEDIE", "69001", "LYON"))
    registry.add_facility(fac("22222222200011", ["ENTREPRISE DURAND"],
                              "5 RUE DES ACACIAS", "69100", "VILLEURBANNE"))
    lots = [make_lot(1), make_lot(2)]
    occurrences = [
        make_occurrence(1, 1, role=Role.BUYER, raw_name="Mairie de Lyon",
                        street="1 place de la Comédie", zipcode="69001", city="Lyon",
                        declared_siret="11111111100011"),
        make_occurrence(2, 1, role=Role.WINNER, raw_name="Entreprise Durand",
                        street="5 rue des Acacias", zipcode="69100",
                        city="Villeurbanne", declared_siret="99999999900099"),
        make_occurrence(3, 2, role=Role.WINNER, raw_name="Société Inconnue",
                        declared_siret="33333333300011"),
    ]
    truth = {
        1: full_siret("11111111100011"),
        2: full_siret("99999999900099"),
        3: full_siret("33333333300011"),
    }
    # mask_and_rerun takes occurrences as normalization and identification
    # leave them; every one here declares its identifier
    for occ in occurrences:
        normalize_occurrence(occ, None, PipelineConfig().postal_tokens)
    merge_by_declared_siret(occurrences)
    return registry, lots, occurrences, truth


def merged_clusters(occurrences):
    """Merge's partition of the occurrences, which mask_and_rerun takes."""
    return merge_all(copy.deepcopy(occurrences), PipelineConfig()).clusters


class TestMaskAndRerun:
    def test_outcomes(self):
        registry, lots, occurrences, truth = mask_world()
        report = mask_and_rerun(occurrences, merged_clusters(occurrences), lots, registry,
                                PipelineConfig(), truth)
        assert report.truth_size == 3
        assert report.outcomes == {
            1: MatchOutcome.FULL,
            2: MatchOutcome.INCORRECT,
            3: MatchOutcome.NONE,
        }

    def test_identifies_only_the_masked(self, monkeypatch):
        registry, lots, occurrences, truth = mask_world()
        calls = []

        def spy(occs, *args):
            calls.append(sorted(occ.occurrence_id for occ in occs))
            return identify_all(occs, *args)

        monkeypatch.setattr(evaluate, "identify_all", spy)
        del truth[2]
        report = mask_and_rerun(occurrences, merged_clusters(occurrences), lots, registry,
                                PipelineConfig(), truth)
        assert calls == [[1, 3]]
        assert report.outcomes == {1: MatchOutcome.FULL, 3: MatchOutcome.NONE}
        assert occurrences[1].identifier == full_siret("99999999900099")

    def test_separation_stage_all_missing(self):
        registry, lots, occurrences, truth = mask_world()
        report = mask_and_rerun(occurrences, merged_clusters(occurrences), lots, registry,
                                PipelineConfig(), truth)
        sep = report.stage_rows[0]
        assert sep.stage == "separation"
        assert (sep.correct_strict, sep.incorrect_strict, sep.missing) == (0, 0, 3)

    def test_missing_monotone_non_increasing(self):
        registry, lots, occurrences, truth = mask_world()
        report = mask_and_rerun(occurrences, merged_clusters(occurrences), lots, registry,
                                PipelineConfig(), truth)
        missing = [row.missing for row in report.stage_rows]
        assert missing == sorted(missing, reverse=True)

    def test_role_splits(self):
        registry, lots, occurrences, truth = mask_world()
        report = mask_and_rerun(occurrences, merged_clusters(occurrences), lots, registry,
                                PipelineConfig(), truth)
        buyer = report.outcome_by_role_occurrences["buyer"]
        winner = report.outcome_by_role_occurrences["winner"]
        assert buyer["FULL"] == pytest.approx(100.0)
        assert winner["INCORRECT"] == pytest.approx(50.0)
        assert winner["NONE"] == pytest.approx(50.0)
        assert report.outcome_by_role_agents["buyer"]["FULL"] == pytest.approx(100.0)

    def test_ratios_present(self):
        registry, lots, occurrences, truth = mask_world()
        report = mask_and_rerun(occurrences, merged_clusters(occurrences), lots, registry,
                                PipelineConfig(), truth)
        assert report.concentration == [1.0, 1.0, 1.0]
        assert all(0.0 <= s <= 1.0 for s in report.singleton)

    def test_empty_truth_rejected(self):
        registry, lots, occurrences, _ = mask_world()
        with pytest.raises(InvariantError):
            mask_and_rerun(occurrences, merged_clusters(occurrences), lots, registry,
                           PipelineConfig(), {})


class TestReportFiles:
    def test_write_and_render(self, tmp_path):
        from tedclean.evaluate import EvaluationReport

        registry, lots, occurrences, truth = mask_world()
        mask = mask_and_rerun(occurrences, merged_clusters(occurrences), lots, registry,
                              PipelineConfig(), truth)
        sizes, idents = distribution_tables([], {})
        report = EvaluationReport(
            cluster_sizes=sizes,
            cluster_identifiers=idents,
            coverage=(25.0, 10.0),
            mask=mask,
        )
        text = report.render_text()
        assert "EVALUATION REPORT" in text
        assert "stage accounting" in text
        assert "unmatched contract notices: 25.00%" in text
        write_report_files(report, tmp_path)
        for name in ("cluster_sizes.csv", "cluster_identifiers.csv",
                     "stage_accounting.csv", "mask_outcomes.csv"):
            assert (tmp_path / name).exists(), name
        accounting = (tmp_path / "stage_accounting.csv").read_text(encoding="utf-8")
        assert accounting.splitlines()[0] == (
            "stage,total,correctStrict,incorrectStrict,correctEntity,"
            "incorrectEntity,missing"
        )


# ----------------------------------------------------------- oracle rerun

def oracle_mask_and_rerun(
    occurrences: list[AgentOccurrence],
    lots: list[LotRecord],
    registry: Registry,
    postal: dict[str, set[str]] | None,
    config: PipelineConfig,
    truth: dict[int, Identifier],
) -> MaskReport:
    """mask_and_rerun as it was before it reused identification's work:
    deep-copy the ingest occurrences, mask, and rerun normalize, identify
    and merge on all of them."""
    if not truth:
        raise InvariantError("mask_and_rerun requires a non-empty ground-truth set")
    masked = copy.deepcopy(occurrences)
    by_id = {occ.occurrence_id: occ for occ in masked}
    for occ_id in truth:
        occ = by_id[occ_id]
        occ.declared_siret = None
        occ.identifier = None
        occ.identifier_source = None

    snapshots: dict[str, dict[int, Identifier | None]] = {}
    snapshots["separation"] = {
        occ.occurrence_id: validate_siret(occ.declared_siret) for occ in masked
    }

    for occ in masked:
        normalize_occurrence(occ, postal, config.postal_tokens)
    merge_by_declared_siret(masked)
    snapshots["normalization"] = {occ.occurrence_id: occ.identifier for occ in masked}

    results = identify_all(masked, lots, registry, config)
    apply_match_results(masked, results)
    leaked = [
        r.occurrence_id
        for r in results
        if r.occurrence_id in truth and r.source == "declared"
    ]
    if leaked:
        raise InvariantError(
            f"masked identifiers leaked into identification: {leaked[:5]}"
        )
    snapshots["identification"] = {occ.occurrence_id: occ.identifier for occ in masked}

    merged = merge_all(masked, config)
    snapshots["clustering"] = {occ.occurrence_id: occ.identifier for occ in masked}

    outcomes = {
        occ_id: classify_outcome(snapshots["clustering"][occ_id], expected)
        for occ_id, expected in truth.items()
    }

    role_of = {occ.occurrence_id: occ.role for occ in masked}
    by_role_occ = {
        role.value: [i for i in truth if role_of[i] is role]
        for role in (Role.BUYER, Role.WINNER)
    }
    # agent base: one vote per distinct true identifier, majority outcome
    # is too lenient, so take the best outcome any occurrence achieved
    agents: dict[tuple[str, str], list[int]] = defaultdict(list)
    for occ_id, expected in truth.items():
        agents[(role_of[occ_id].value, expected.value)].append(occ_id)
    order = [MatchOutcome.FULL, MatchOutcome.PARTIAL, MatchOutcome.INCORRECT, MatchOutcome.NONE]
    agent_outcome: dict[int, MatchOutcome] = {}
    by_role_agent: dict[str, list[int]] = {r.value: [] for r in (Role.BUYER, Role.WINNER)}
    for (role_value, _), ids in sorted(agents.items()):
        best = min((outcomes[i] for i in ids), key=order.index)
        representative = min(ids)
        agent_outcome[representative] = best
        by_role_agent[role_value].append(representative)

    clustering = Clustering.from_clusters(merged.clusters)
    truth_groups: dict[str, list[int]] = defaultdict(list)
    for occ_id, expected in truth.items():
        truth_groups[expected.value].append(occ_id)
    concentration = [
        concentration_ratio(ids, clustering) for ids in truth_groups.values()
    ]
    singleton = [singleton_ratio(ids, clustering) for ids in truth_groups.values()]

    return MaskReport(
        truth_size=len(truth),
        outcomes=outcomes,
        stage_rows=stage_accounting(snapshots, truth),
        outcome_by_role_occurrences=evaluate._outcome_distribution(outcomes, by_role_occ),
        outcome_by_role_agents=evaluate._outcome_distribution(agent_outcome, by_role_agent),
        concentration=sorted(c for c in concentration if c is not None),
        singleton=sorted(s for s in singleton if s is not None),
    )


def _ground_truth_file(path, identified):
    """Every 7th identified occurrence, declared or matched, as a ground-truth file."""
    labelled = [occ for occ in identified if occ.identifier is not None and
                occ.identifier.kind is IdentifierKind.FULL_SIRET][::7]
    assert {occ.identifier_source for occ in labelled} == {"declared", "matched"}
    path.write_text(
        "occurrenceId,siret\n"
        + "".join(f"{occ.occurrence_id},{occ.identifier.value}\n" for occ in labelled),
        encoding="utf-8",
    )
    return str(path)


# the criterion-7 fixture, and a dense one whose merge joins distinct
# agents into CONFLICTING_IDS clusters, so the rerun's majority rule decides
CRITERION_7 = dict(rows=100, seed=42)
DENSE = dict(rows=200, seed=42, registry_agents=200, departments=["10", "11"])


@pytest.mark.parametrize("truth_source, shape", [
    pytest.param("declared", CRITERION_7, id="declared"),
    pytest.param("file", CRITERION_7, id="file"),
    pytest.param("declared", DENSE, id="dense-declared"),
    pytest.param("file", DENSE, id="dense-file"),
])
def test_rerun_equals_oracle(tmp_path, truth_source, shape):
    """The rerun over identification's records and merge's clusters reports
    what rerunning normalize, identify and merge over copies of the ingest
    records did."""
    config = corpus_config(tmp_path / "in", tmp_path / "out", **shape)
    run_pipeline(config, stage_to="merge")
    store = Checkpoints(config.output_dir)
    raw = store.read("ingest", "occurrences.csv", AgentOccurrence)
    identified = store.read("identify", "occurrences.csv", AgentOccurrence)
    lots = store.read("ingest", "lots.csv", LotRecord)
    if truth_source == "declared":
        truth = truth_from_declared(raw)
        # normalize and identify leave declared_siret alone
        assert truth_from_declared(identified) == truth
    else:
        path = _ground_truth_file(tmp_path / "truth.csv", identified)
        truth = load_ground_truth(path, config.delimiter)
    assert truth
    registry = pl._load_registry_from_config(config)
    postal = load_postal_table(config.postal_file, config.delimiter)

    expected = oracle_mask_and_rerun(raw, lots, registry, postal, config, truth)
    clusters = store.read("merge", "clusters.csv", AgentCluster)
    assert mask_and_rerun(identified, clusters, lots, registry, config, truth) == expected


def test_masked_evaluate_clusters_nothing(tmp_path, monkeypatch):
    """evaluate --mask resolves merge's clusters again and scores no pair:
    with merge's clustering made to raise, it writes the same report."""
    config = corpus_config(tmp_path / "in", tmp_path / "out", **DENSE)
    run_pipeline(config, mask=True)
    report = tmp_path / "out" / "checkpoints" / "evaluate" / "report.txt"
    expected = report.read_bytes()
    report.unlink()

    def refuse(*args):
        raise AssertionError("evaluate clustered again")

    monkeypatch.setattr(merge, "pair_similarity", refuse)
    monkeypatch.setattr(merge, "cluster_occurrences", refuse)
    pl.run_stage("evaluate", config, mask=True)
    assert report.read_bytes() == expected
