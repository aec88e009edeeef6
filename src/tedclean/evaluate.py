"""Quantitative validation: masked re-identification, clustering quality,
stage accounting, and corpus statistics.

The headline protocol hides known identifiers, identifies the hidden
occurrences again, resolves merge's clusters again with what that found,
and classifies what it recovers into four outcomes (FULL, PARTIAL,
INCORRECT, NONE). Clustering quality is measured per agent by how
concentrated its occurrences are in clusters; stage accounting snapshots
correctness after each pipeline step.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import astuple, dataclass, field, replace
from pathlib import Path

from .config import PipelineConfig
from .files import read_fields, write_rows
from .identify import apply_match_results, identify_all
from .merge import merge_all  # not called here: perfbench/tracer.py patches this binding
from .merge import resolve_clusters
from .models import (
    AgentCluster,
    AgentOccurrence,
    Identifier,
    IdentifierKind,
    InputError,
    InvariantError,
    LotRecord,
    MatchOutcome,
    Role,
    ascii_digits,
    sql_integer,
    validate_siret,
)
from .registry import Registry

STAGES = ("separation", "normalization", "identification", "clustering")


def classify_outcome(predicted: Identifier | None, truth: Identifier) -> MatchOutcome:
    """One of four outcomes against a known 14-digit identifier.

    An internal code is a declared failure to identify, so it counts as
    NONE, not as INCORRECT.
    """
    if predicted is None or predicted.kind is IdentifierKind.INTERNAL:
        return MatchOutcome.NONE
    if predicted == truth:
        return MatchOutcome.FULL
    if predicted.siren == truth.siren:
        return MatchOutcome.PARTIAL
    return MatchOutcome.INCORRECT


@dataclass
class Clustering:
    """Occurrence -> cluster assignment with cluster sizes."""

    cluster_of: dict[int, int] = field(default_factory=dict)
    sizes: dict[int, int] = field(default_factory=dict)

    @classmethod
    def from_clusters(cls, clusters: list[AgentCluster]) -> "Clustering":
        out = cls()
        for cluster in clusters:
            out.sizes[cluster.cluster_id] = len(cluster.member_occurrence_ids)
            for occ_id in cluster.member_occurrence_ids:
                out.cluster_of[occ_id] = cluster.cluster_id
        return out


def concentration_ratio(occurrence_ids: list[int], clustering: Clustering) -> float | None:
    """Largest share of one agent's occurrences found in a single cluster."""
    if not occurrence_ids:
        return None
    counts = Counter(clustering.cluster_of[i] for i in occurrence_ids)
    return max(counts.values()) / len(occurrence_ids)


def singleton_ratio(occurrence_ids: list[int], clustering: Clustering) -> float | None:
    """Share of one agent's occurrences that sit in singleton clusters."""
    if not occurrence_ids:
        return None
    alone = sum(
        1 for i in occurrence_ids if clustering.sizes[clustering.cluster_of[i]] == 1
    )
    return alone / len(occurrence_ids)


@dataclass
class StageRow:
    stage: str
    total: int
    correct_strict: int
    incorrect_strict: int
    correct_entity: int
    incorrect_entity: int
    missing: int


def stage_accounting(
    snapshots: dict[str, dict[int, Identifier | None]],
    truth: dict[int, Identifier],
) -> list[StageRow]:
    """Correct/incorrect/missing counts per pipeline stage.

    Both success notions are reported: strict counts only FULL as correct,
    entity-level counts FULL and PARTIAL together.
    """
    rows = []
    for stage in STAGES:
        snapshot = snapshots[stage]
        outcomes = Counter(
            classify_outcome(snapshot.get(occ_id), expected)
            for occ_id, expected in truth.items()
        )
        full = outcomes[MatchOutcome.FULL]
        partial = outcomes[MatchOutcome.PARTIAL]
        incorrect = outcomes[MatchOutcome.INCORRECT]
        missing = outcomes[MatchOutcome.NONE]
        rows.append(
            StageRow(
                stage=stage,
                total=len(truth),
                correct_strict=full,
                incorrect_strict=partial + incorrect,
                correct_entity=full + partial,
                incorrect_entity=incorrect,
                missing=missing,
            )
        )
    return rows


def notice_coverage(
    contract_notice_ids: set[str], lots: list[LotRecord]
) -> tuple[float | None, float | None]:
    """(unmatched contract notices %, unmatched award notices %)."""
    award_refs: dict[str, set[str]] = defaultdict(set)
    for lot in lots:
        if lot.contract_notice_ref:
            award_refs[lot.notice_id].add(lot.contract_notice_ref)
        else:
            award_refs[lot.notice_id]  # the notice exists even without a ref
    if not contract_notice_ids or not award_refs:
        return None, None
    referenced = {ref for refs in award_refs.values() for ref in refs}
    unmatched_contracts = len(contract_notice_ids - referenced) / len(contract_notice_ids)
    unmatched_awards = sum(
        1 for refs in award_refs.values() if not (refs & contract_notice_ids)
    ) / len(award_refs)
    return 100.0 * unmatched_contracts, 100.0 * unmatched_awards


_SIZE_BINS = ("1", "2", "3", "4", "5", "6+")
_IDENT_BINS = ("0", "1", "2", "3", "4", "5+")


def _binned(counts: Counter, labels: tuple[str, ...]) -> list[tuple[str, int, float]]:
    total = sum(counts.values())
    rows = []
    for label in labels:
        if label.endswith("+"):
            floor = int(label[:-1])
            n = sum(c for v, c in counts.items() if v >= floor)
        else:
            n = counts.get(int(label), 0)
        rows.append((label, n, 100.0 * n / total if total else 0.0))
    return rows


def distribution_tables(
    clusters: list[AgentCluster],
    identifier_of: dict[int, Identifier | None],
) -> tuple[list[tuple[str, int, float]], list[tuple[str, int, float]]]:
    """Cluster-size and distinct-identifier histograms.

    identifier_of must hold the pre-merge identifiers: the point of the
    second table is how many distinct identifiers each cluster contained
    before resolution.
    """
    size_counts = Counter(len(c.member_occurrence_ids) for c in clusters)
    ident_counts: Counter = Counter()
    for cluster in clusters:
        distinct = {
            identifier_of[i]
            for i in cluster.member_occurrence_ids
            if identifier_of.get(i) is not None
        }
        ident_counts[len(distinct)] += 1
    return _binned(size_counts, _SIZE_BINS), _binned(ident_counts, _IDENT_BINS)


def truth_from_declared(occurrences: list[AgentOccurrence]) -> dict[int, Identifier]:
    """Known identifiers: occurrences declaring a valid 14-digit value."""
    truth = {}
    for occ in occurrences:
        ident = validate_siret(occ.declared_siret)
        if ident is not None and ident.kind is IdentifierKind.FULL_SIRET:
            truth[occ.occurrence_id] = ident
    return truth


def load_ground_truth(path: str, delimiter: str) -> dict[int, Identifier]:
    """Read (occurrenceId, siret) labels from a delimiter-separated file.

    A row whose siret is not a valid 14-digit value is skipped; a missing
    column, an id that is not a whole number or is above SQL's INTEGER, or
    an id on two rows is an InputError.
    """
    columns = {"occurrence_id": "occurrenceId", "siret": "siret"}
    truth = {}
    seen: set[int] = set()
    for row in read_fields(path, "ground truth file", delimiter, columns, columns, InputError):
        cell = row["occurrence_id"]
        if not ascii_digits(cell):
            raise InputError(
                f"ground truth file {path}: occurrenceId {cell!r} is not a whole number"
            )
        occ_id = sql_integer(cell)
        if occ_id is None:  # foppa.sql holds occurrence ids as INTEGER
            raise InputError(
                f"ground truth file {path}: occurrenceId of {len(cell)} digits names no occurrence"
            )
        if occ_id in seen:
            raise InputError(f"ground truth file {path}: occurrenceId {occ_id} listed twice")
        seen.add(occ_id)
        ident = validate_siret(row["siret"])
        if ident is None or ident.kind is not IdentifierKind.FULL_SIRET:
            continue
        truth[occ_id] = ident
    return truth


@dataclass
class MaskReport:
    truth_size: int
    outcomes: dict[int, MatchOutcome]
    stage_rows: list[StageRow]
    outcome_by_role_occurrences: dict[str, dict[str, float]]
    outcome_by_role_agents: dict[str, dict[str, float]]
    concentration: list[float]
    singleton: list[float]


def _outcome_distribution(
    outcome_of: dict[int, MatchOutcome], groups: dict[str, list[int]]
) -> dict[str, dict[str, float]]:
    """Each group's share of each outcome; no shares for an empty group."""
    out: dict[str, dict[str, float]] = {}
    for label, ids in groups.items():
        counts = Counter(outcome_of[i] for i in ids)
        total = len(ids)
        out[label] = {
            outcome.value: 100.0 * counts[outcome] / total for outcome in MatchOutcome
        } if total else {}
    return out


def check_partition(clusters: list[AgentCluster], occurrence_ids: set[int], path: Path) -> None:
    """The clusters read from path must hold each of occurrence_ids exactly
    once: a stale or edited clusters file would give a plausible wrong report."""
    seen = Counter(i for cluster in clusters for i in cluster.member_occurrence_ids)
    for what, ids in (("misses", occurrence_ids - seen.keys()),
                      ("repeats", {i for i, n in seen.items() if n > 1}),
                      ("names unknown", seen.keys() - occurrence_ids)):
        if ids:
            raise InvariantError(f"{path} {what} occurrence id(s) {sorted(ids)[:5]}")


def mask_and_rerun(
    occurrences: list[AgentOccurrence],
    clusters: list[AgentCluster],
    lots: list[LotRecord],
    registry: Registry,
    config: PipelineConfig,
    truth: dict[int, Identifier],
) -> MaskReport:
    """Hide the known identifiers, rerun what that changes, classify recovery.

    `occurrences` are as identification left them, and no record is
    changed: the truth occurrences are masked in copies. `clusters` are
    merge's partition of them. Masking clears only the declared and
    resolved identifiers of the truth occurrences.
    Normalization reads neither, and every other occurrence's identifier
    depends on its own payload alone, so only the truth occurrences are
    identified again. Clustering reads no identifier either, only names,
    streets, zipcodes, cities and departments, so merge's clusters stand
    and are only resolved again. Should clustering ever read identifiers
    (a cannot-link rule, say), the rerun must cluster again.
    """
    if not truth:
        raise InvariantError("mask_and_rerun requires a non-empty ground-truth set")
    by_id = {occ.occurrence_id: occ for occ in occurrences}
    masked = [
        replace(by_id[occ_id], declared_siret=None, identifier=None, identifier_source=None)
        for occ_id in truth
    ]

    # no truth occurrence holds a declared value any more, so separation and
    # normalization know none of the truth identifiers: all missing
    snapshots: dict[str, dict[int, Identifier | None]] = {
        "separation": {},
        "normalization": {},
    }

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

    by_id.update((occ.occurrence_id, occ) for occ in masked)
    resolved = resolve_clusters([c.member_occurrence_ids for c in clusters], by_id)
    snapshots["clustering"] = {
        i: c.resolved_identifier for c in resolved for i in c.member_occurrence_ids if i in truth
    }

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

    clustering = Clustering.from_clusters(clusters)
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
        outcome_by_role_occurrences=_outcome_distribution(outcomes, by_role_occ),
        outcome_by_role_agents=_outcome_distribution(agent_outcome, by_role_agent),
        concentration=sorted(c for c in concentration if c is not None),
        singleton=sorted(s for s in singleton if s is not None),
    )


@dataclass
class EvaluationReport:
    cluster_sizes: list[tuple[str, int, float]]
    cluster_identifiers: list[tuple[str, int, float]]
    coverage: tuple[float | None, float | None]
    mask: MaskReport | None = None

    def render_text(self) -> str:
        lines = ["EVALUATION REPORT", ""]
        lines.append("Cluster size distribution")
        lines.append(f"  {'size':>6} {'clusters':>10} {'share':>8}")
        for label, n, pct in self.cluster_sizes:
            lines.append(f"  {label:>6} {n:>10} {pct:>7.2f}%")
        lines.append("")
        lines.append("Distinct identifiers per cluster")
        lines.append(f"  {'ids':>6} {'clusters':>10} {'share':>8}")
        for label, n, pct in self.cluster_identifiers:
            lines.append(f"  {label:>6} {n:>10} {pct:>7.2f}%")
        lines.append("")
        unmatched_contracts, unmatched_awards = self.coverage
        lines.append("Notice coverage")
        if unmatched_contracts is None:
            lines.append("  no contract notice ids supplied")
        else:
            lines.append(f"  unmatched contract notices: {unmatched_contracts:.2f}%")
            lines.append(f"  unmatched award notices:    {unmatched_awards:.2f}%")
        if self.mask is not None:
            lines.append("")
            lines.append(f"Masked re-identification ({self.mask.truth_size} known identifiers)")
            for base, table in (
                ("occurrences", self.mask.outcome_by_role_occurrences),
                ("agents", self.mask.outcome_by_role_agents),
            ):
                lines.append(f"  outcome shares by role, per {base}:")
                for role, dist in sorted(table.items()):
                    cells = "  ".join(
                        f"{outcome}={dist[outcome]:.2f}%" for outcome in
                        ("FULL", "PARTIAL", "INCORRECT", "NONE")
                    ) if dist else "no truth occurrence"
                    lines.append(f"    {role:<8} {cells}")
            lines.append("  stage accounting (strict | entity-level):")
            lines.append(
                f"    {'stage':<16} {'total':>6} {'correct':>16} {'incorrect':>16} {'missing':>8}"
            )
            for row in self.mask.stage_rows:
                correct = f"{row.correct_strict:>7} |{row.correct_entity:>7}"
                incorrect = f"{row.incorrect_strict:>7} |{row.incorrect_entity:>7}"
                lines.append(
                    f"    {row.stage:<16} {row.total:>6} {correct} {incorrect} {row.missing:>8}"
                )
            if self.mask.concentration:
                mean_c = sum(self.mask.concentration) / len(self.mask.concentration)
                mean_s = sum(self.mask.singleton) / len(self.mask.singleton)
                lines.append(f"  mean concentration ratio: {mean_c:.4f}")
                lines.append(f"  mean singleton ratio:     {mean_s:.4f}")
        return "\n".join(lines) + "\n"


def write_report_files(report: EvaluationReport, directory: Path) -> None:
    """Machine-readable companions to the text report."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, bins in (
        ("cluster_sizes.csv", report.cluster_sizes),
        ("cluster_identifiers.csv", report.cluster_identifiers),
    ):
        write_rows(
            directory / name,
            ["bin", "clusters", "share"],
            ((label, n, f"{pct:.2f}") for label, n, pct in bins),
        )
    if report.mask is None:
        # an earlier masked run's files must not pass for this run's
        for name in ("stage_accounting.csv", "mask_outcomes.csv"):
            (directory / name).unlink(missing_ok=True)
    else:
        write_rows(
            directory / "stage_accounting.csv",
            [
                "stage", "total", "correctStrict", "incorrectStrict",
                "correctEntity", "incorrectEntity", "missing",
            ],
            map(astuple, report.mask.stage_rows),
        )
        outcomes = report.mask.outcomes
        write_rows(
            directory / "mask_outcomes.csv",
            ["occurrenceId", "outcome"],
            ((str(occ_id), outcomes[occ_id].value) for occ_id in sorted(outcomes)),
        )
