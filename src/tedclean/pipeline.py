"""Stage orchestration over resumable CSV checkpoints.

Each stage gets and gives its records through a `Checkpoints` store, which
writes every checkpoint under <out>/checkpoints/<stage>/. `pipeline` runs
all its stages on one store, so records pass from stage to stage in memory;
a stage run alone reads its inputs from disk. Both run the same stage
bodies, so `pipeline` is the same computation as the stages one by one,
and any stage can be rerun in isolation.

One codec, `_dump` / `_load`, serializes every checkpoint record type from
its dataclass fields:

- Columns are the fields in declaration order, camelCased, with three
  renames (number_of_offers -> numberOffers, criterion_class -> class,
  member_occurrence_ids -> memberIds). CanonicalAgent.names is left out;
  agent_names.csv holds it, one row per name.
- Cells follow the field type: None is an empty cell, bool is 1/0, date is
  ISO, Decimal is str(), Enum is its value, list[int] is space-joined and
  list[Enum] is "+"-joined. An Identifier takes two columns,
  identifierKind and identifierValue. A `str` field keeps "", while a
  `str | None` field reads "" back as None; no optional pipeline value is
  an empty string, so the round trip is lossless.

A checkpoint is written through `files`, to a temp file renamed into place,
so a killed run cannot leave a truncated file for the next stage. A header,
row or cell that does not parse is an InvariantError naming the file and
line.
"""
from __future__ import annotations

import csv
import dataclasses
import datetime as dt
import functools
import json
import logging
import typing
from decimal import Decimal, InvalidOperation
from enum import Enum
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable

from . import emit as emit_mod
from . import evaluate as evaluate_mod
from .config import PipelineConfig
from .criteria import repair_criteria
from .files import input_lines, replacing, write_rows
from .identify import apply_match_results, identify_all, write_match_log
from .ingest import run_ingest
from .merge import MergeResult, merge_all
from .models import (
    AgentCluster,
    AgentOccurrence,
    CanonicalAgent,
    ConfigError,
    CriteriaRaw,
    Criterion,
    Identifier,
    IdentifierKind,
    InputError,
    InvariantError,
    LotRecord,
    RowRejection,
)
from .normalize import load_postal_table, merge_by_declared_siret, normalize_occurrence
from .registry import Registry, load_registry

log = logging.getLogger(__name__)

STAGE_ORDER = ("ingest", "criteria", "normalize", "identify", "merge", "emit", "evaluate")


_LOTS = ("ingest", "lots.csv")


class Checkpoints:
    """The one way a stage gets and gives records: `write` dumps a checkpoint
    and keeps its records, and `read` hands them out.

    ingest/lots.csv is kept for the life of the store and every reader gets
    the same list, parsed at most once: no stage changes a LotRecord
    (identify, emit, notice_coverage and mask_and_rerun only read them).
    Every other list goes to its first reader only and is forgotten, and
    any later read parses the file: normalize, identify, merge and a masked
    evaluate change the records they read, so such a list may not reach
    two readers. A list no stage reads (rejections.csv) lives as long as
    the store.
    """

    def __init__(self, output_dir: str) -> None:
        out = Path(output_dir)
        # a file there, or above it, would end the first write in a traceback
        try:
            blocker = next((p for p in (out, *out.parents) if p.exists() and not p.is_dir()), None)
            if blocker is not None:
                raise ConfigError(f"output directory {output_dir}: {blocker} is not a directory")
            out.mkdir(parents=True, exist_ok=True)
        except (OSError, ValueError) as exc:  # a NUL in the path, a name too long
            raise ConfigError(f"output directory {output_dir!r} cannot be made: {exc}") from None
        self.root = out / "checkpoints"
        self._kept: dict[tuple[str, str], list] = {}

    def stage_dir(self, stage: str) -> Path:
        path = self.root / stage
        path.mkdir(parents=True, exist_ok=True)
        return path

    def require(self, stage: str, *names: str) -> None:
        missing = [str(p) for p in (self.root / stage / n for n in names) if not p.exists()]
        if missing:
            raise ConfigError(
                f"stage depends on the '{stage}' checkpoint; missing: {', '.join(missing)}"
            )

    def write(self, stage: str, name: str, cls: type, records: Iterable) -> None:
        records = list(records)
        _dump(self.stage_dir(stage) / name, cls, records)
        self._kept[stage, name] = records

    def read(self, stage: str, name: str, cls: type) -> list:
        key = (stage, name)
        kept = self._kept.get(key) if key == _LOTS else self._kept.pop(key, None)
        if kept is not None:
            return kept
        self.require(stage, name)
        records = _load(self.root / stage / name, cls)
        if key == _LOTS:
            self._kept[key] = records
        return records


# ---------------------------------------------------------------- codec

_RENAMES = {
    "number_of_offers": "numberOffers",
    "criterion_class": "class",
    "member_occurrence_ids": "memberIds",
}
_OMITTED = {(CanonicalAgent, "names")}
_PARSE_ERRORS = (ValueError, InvalidOperation, csv.Error)


@dataclasses.dataclass
class _AgentName:
    """One row of agent_names.csv: a canonical agent and one of its names."""

    agent_id: Identifier
    name: str


def _camel(name: str) -> str:
    head, *rest = name.split("_")
    return head + "".join(part.title() for part in rest)


def _parse_bool(cell: str) -> bool:
    if cell not in ("0", "1"):
        raise ValueError(f"expected 1 or 0, got {cell!r}")
    return cell == "1"


@functools.cache
def _enum_parser(tp: type[Enum]) -> Callable[[str], Enum]:
    """tp(cell) through a dict lookup; tp itself raises on an unknown value."""
    members = {member.value: member for member in tp}
    return lambda cell: members.get(cell) or tp(cell)


def _cell_plan(tp: type) -> tuple[Callable[[str], object], Callable | None]:
    """(parse, encode) of one column; encode None leaves the value to the
    csv writer, which writes str() and None as an empty cell."""
    if typing.get_origin(tp) is list:
        (item,) = typing.get_args(tp)
        if item is int:
            return (lambda cell: [int(i) for i in cell.split()]), (
                lambda ids: " ".join(map(str, ids))
            )
        parse = _enum_parser(item)
        return (lambda cell: [parse(k) for k in cell.split("+") if k]), (
            lambda kinds: "+".join(k.value for k in kinds)
        )
    if tp is bool:
        return _parse_bool, int
    if tp is dt.date:
        return dt.date.fromisoformat, None
    if tp in (int, str, Decimal):
        return tp, None
    # the csv writer writes a str Enum member as its value
    if issubclass(tp, Enum) and issubclass(tp, str):
        return _enum_parser(tp), None
    raise TypeError(f"no checkpoint codec for {tp!r}")


def _optional(parse: Callable[[str], object]) -> Callable[[str], object]:
    if parse is str:
        return lambda cell: cell or None
    return lambda cell: parse(cell) if cell else None


@dataclasses.dataclass
class _Codec:
    columns: list[str]
    parsers: list[Callable[[str], object]]
    encode: Callable[[object], list]
    decode: Callable[[list[str]], object]


@functools.cache
def _codec(cls: type) -> _Codec:
    """Plan a record dataclass's columns once, so that the per-row work is
    a few list operations plus the conversions its field types need."""
    hints = typing.get_type_hints(cls)
    names: list[str] = []
    columns: list[str] = []
    parsers: list[Callable[[str], object]] = []
    encoders: list[tuple[int, Callable]] = []  # (field index, value -> cell)
    identifiers: list[tuple[int, int]] = []  # (field index, column), right to left
    omitted: list[tuple[int, Callable]] = []  # (init argument index, default factory)
    for position, f in enumerate(dataclasses.fields(cls)):
        if (cls, f.name) in _OMITTED:
            omitted.append((position, f.default_factory))
            continue
        tp = hints[f.name]
        optional = type(None) in typing.get_args(tp)
        if optional:
            (tp,) = [a for a in typing.get_args(tp) if a is not type(None)]
        if tp is Identifier:
            identifiers.insert(0, (len(names), len(columns)))
            columns += ["identifierKind", "identifierValue"]
            kind = _enum_parser(IdentifierKind)
            parsers += [_optional(kind) if optional else kind, str]
        else:
            parse, encode = _cell_plan(tp)
            columns.append(_RENAMES.get(f.name, _camel(f.name)))
            parsers.append(_optional(parse) if optional else parse)
            if encode is not None:
                encoders.append((len(names), encode))
        names.append(f.name)

    get = attrgetter(*names)

    # identifiers are spliced right to left, so the indexes still to do stay valid
    def encode_row(record: object) -> list:
        row = list(get(record))
        for i, encode in encoders:
            row[i] = encode(row[i])
        for i, _ in identifiers:
            ident = row[i]
            row[i : i + 1] = ("", "") if ident is None else (ident.kind.value, ident.value)
        return row

    def decode_row(row: list[str]) -> object:
        values = [parse(cell) for parse, cell in zip(parsers, row)]
        for _, c in identifiers:
            kind, value = values[c], values[c + 1]
            values[c : c + 2] = [None if kind is None else Identifier(kind, value)]
        for position, default in omitted:
            values.insert(position, default())
        return cls(*values)

    return _Codec(columns, parsers, encode_row, decode_row)


def _dump(path: Path, cls: type, records: Iterable) -> None:
    codec = _codec(cls)
    write_rows(path, codec.columns, map(codec.encode, records))


def _dump_json(path: Path, data: dict) -> None:
    with replacing(path) as fh:
        fh.write(json.dumps(data, indent=2) + "\n")


def _bad_column(codec: _Codec, row: list[str]) -> str:
    for column, parse, cell in zip(codec.columns, codec.parsers, row):
        try:
            parse(cell)
        except _PARSE_ERRORS:
            return f"column {column}: "
    return ""


def _load(path: Path, cls: type) -> list:
    codec = _codec(cls)
    width = len(codec.columns)
    records: list = []
    row: list[str] = []
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != codec.columns:
                raise InvariantError(f"{path}: header {header} is not {codec.columns}")
            for row in reader:
                if len(row) != width:
                    raise InvariantError(
                        f"{path}, line {reader.line_num}: {len(row)} cells, expected {width}"
                    )
                records.append(codec.decode(row))
    except OSError as exc:
        raise InputError(f"cannot read checkpoint {path}: {exc}") from exc
    except _PARSE_ERRORS as exc:
        raise InvariantError(
            f"{path}, line {reader.line_num}: {_bad_column(codec, row)}{exc}"
        ) from None
    return records


# ---------------------------------------------------------------- stage runners


def _load_registry_from_config(config: PipelineConfig) -> Registry:
    if not config.registry_entity_file or not config.registry_facility_file:
        raise ConfigError(
            "identification requires registry_entities and registry_facilities inputs"
        )
    return load_registry(
        config.registry_entity_file,
        config.registry_facility_file,
        config.registry_entity_map,
        config.registry_facility_map,
        delimiter=config.delimiter,
        date_formats=config.date_formats,
        activity_prefix_length=config.match.activity_prefix_length,
        postal_tokens=config.postal_tokens,
    )


def stage_ingest(config: PipelineConfig, checkpoints: Checkpoints) -> None:
    result = run_ingest(config)
    checkpoints.write("ingest", "lots.csv", LotRecord, result.lots)
    checkpoints.write("ingest", "occurrences.csv", AgentOccurrence, result.occurrences)
    checkpoints.write("ingest", "criteria_raw.csv", CriteriaRaw, result.criteria_raw)
    checkpoints.write("ingest", "rejections.csv", RowRejection, result.rejections)
    stats = {
        "lots": len(result.lots),
        "occurrences": len(result.occurrences),
        "rejections": len(result.rejections),
        "skipped_lines": result.skipped_lines,
        "duplicate_identities": result.duplicate_identities,
        "descriptions_before_split": result.descriptions_before_split,
    }
    _dump_json(checkpoints.stage_dir("ingest") / "stats.json", stats)
    log.info("ingest: %(lots)d lots, %(occurrences)d occurrences", stats)


def stage_criteria(config: PipelineConfig, checkpoints: Checkpoints) -> None:
    raw = checkpoints.read("ingest", "criteria_raw.csv", CriteriaRaw)
    result = repair_criteria(raw, config)
    checkpoints.write("criteria", "criteria.csv", Criterion, result.criteria)
    flags = {
        "misaligned_lots": sorted(result.misaligned_lots),
        "conflict_lots": sorted(result.conflict_lots),
        "unnormalized_lots": sorted(result.unnormalized_lots),
    }
    _dump_json(checkpoints.stage_dir("criteria") / "flags.json", flags)
    log.info("criteria: %d rows repaired", len(result.criteria))


def stage_normalize(config: PipelineConfig, checkpoints: Checkpoints) -> None:
    occurrences = checkpoints.read("ingest", "occurrences.csv", AgentOccurrence)
    postal = (
        load_postal_table(config.postal_file, config.delimiter, config.postal_tokens)
        if config.postal_file else None
    )
    # descriptions repeat across roles and lots: each distinct raw one is
    # normalized once, and its repeats take the same six outputs
    normalized: dict[tuple, tuple] = {}
    for occ in occurrences:
        key = (occ.raw_name, occ.street, occ.zipcode, occ.city, occ.country)
        out = normalized.get(key)
        if out is None:
            normalize_occurrence(occ, postal, config.postal_tokens)
            normalized[key] = (occ.normalized_name, occ.street, occ.zipcode,
                               occ.city, occ.country, occ.department)
        else:
            (occ.normalized_name, occ.street, occ.zipcode,
             occ.city, occ.country, occ.department) = out
    log.debug("normalize: %d occurrences from %d distinct descriptions",
              len(occurrences), len(normalized))
    merge_by_declared_siret(occurrences)
    checkpoints.write("normalize", "occurrences.csv", AgentOccurrence, occurrences)
    log.info("normalize: %d occurrences", len(occurrences))


def stage_identify(config: PipelineConfig, checkpoints: Checkpoints) -> None:
    occurrences = checkpoints.read("normalize", "occurrences.csv", AgentOccurrence)
    lots = checkpoints.read("ingest", "lots.csv", LotRecord)
    registry = _load_registry_from_config(config)

    results = identify_all(occurrences, lots, registry, config)
    apply_match_results(occurrences, results)

    checkpoints.write("identify", "occurrences.csv", AgentOccurrence, occurrences)
    write_match_log(results, checkpoints.stage_dir("identify") / "match_log.csv")
    matched = sum(1 for r in results if r.source == "matched")
    log.info("identify: %d matched of %d", matched, len(results))


def stage_merge(config: PipelineConfig, checkpoints: Checkpoints) -> None:
    occurrences = checkpoints.read("identify", "occurrences.csv", AgentOccurrence)
    result: MergeResult = merge_all(occurrences, config)
    checkpoints.write("merge", "occurrences.csv", AgentOccurrence, occurrences)
    checkpoints.write("merge", "clusters.csv", AgentCluster, result.clusters)
    checkpoints.write("merge", "agents.csv", CanonicalAgent, result.agents)
    names = (_AgentName(a.agent_id, n) for a in result.agents for n in a.names)
    checkpoints.write("merge", "agent_names.csv", _AgentName, names)
    log.info("merge: %d clusters, %d agents", len(result.clusters), len(result.agents))


def stage_emit(config: PipelineConfig, checkpoints: Checkpoints) -> None:
    lots = checkpoints.read("ingest", "lots.csv", LotRecord)
    criteria = checkpoints.read("criteria", "criteria.csv", Criterion)
    checkpoints.require("merge", "occurrences.csv", "agents.csv", "agent_names.csv")
    occurrences = checkpoints.read("merge", "occurrences.csv", AgentOccurrence)
    names: dict[Identifier, list[str]] = {}
    for row in checkpoints.read("merge", "agent_names.csv", _AgentName):
        names.setdefault(row.agent_id, []).append(row.name)
    agents = checkpoints.read("merge", "agents.csv", CanonicalAgent)
    for agent in agents:
        agent.names = names.get(agent.agent_id, [])
    schema = emit_mod.build_tables(lots, agents, occurrences, criteria)
    emit_mod.write_csv(schema, config.output_dir)
    emit_mod.write_sql_dump(schema, str(Path(config.output_dir) / "foppa.sql"))
    problems = emit_mod.verify_roundtrip(schema, config.output_dir)
    if problems:
        raise InvariantError("emitted files failed read-back:\n" + "\n".join(problems))
    log.info("emit: tables written to %s", config.output_dir)


def _load_contract_ids(config: PipelineConfig) -> set[str]:
    if not config.contract_notice_file:
        return set()
    lines = input_lines(config.contract_notice_file, "contract notice file")
    # one id a line; unlike in a CSV input, a bare "\r" also ends a line here
    return {part.strip() for line in lines for part in line.split("\r") if part.strip()}


def stage_evaluate(
    config: PipelineConfig, checkpoints: Checkpoints, mask: bool = False
) -> evaluate_mod.EvaluationReport:
    lots = checkpoints.read("ingest", "lots.csv", LotRecord)
    clusters = checkpoints.read("merge", "clusters.csv", AgentCluster)
    identified = checkpoints.read("identify", "occurrences.csv", AgentOccurrence)
    pre_merge = {occ.occurrence_id: occ.identifier for occ in identified}
    evaluate_mod.check_partition(
        clusters, set(pre_merge), checkpoints.root / "merge" / "clusters.csv"
    )
    sizes, idents = evaluate_mod.distribution_tables(clusters, pre_merge)
    coverage = evaluate_mod.notice_coverage(_load_contract_ids(config), lots)

    mask_report = None
    if mask:
        if config.ground_truth_file:
            truth = evaluate_mod.load_ground_truth(config.ground_truth_file, config.delimiter)
            unknown = sorted(truth.keys() - pre_merge.keys())
            if unknown:
                raise InputError(
                    f"ground truth file {config.ground_truth_file}: "
                    f"occurrenceId(s) {unknown[:5]} name no occurrence"
                )
        else:
            truth = evaluate_mod.truth_from_declared(identified)
        if not truth:
            raise InputError("masked evaluation needs known identifiers and found none")
        registry = _load_registry_from_config(config)
        mask_report = evaluate_mod.mask_and_rerun(
            identified, clusters, lots, registry, config, truth
        )

    report = evaluate_mod.EvaluationReport(
        cluster_sizes=sizes,
        cluster_identifiers=idents,
        coverage=coverage,
        mask=mask_report,
    )
    out = checkpoints.stage_dir("evaluate")
    with replacing(out / "report.txt") as fh:
        fh.write(report.render_text())
    evaluate_mod.write_report_files(report, out)
    log.info("evaluate: report written to %s", out)
    return report


def run_stage(
    stage: str, config: PipelineConfig, mask: bool = False, checkpoints: Checkpoints | None = None
) -> None:
    """Run one stage on the caller's store, or alone on one that reads from disk."""
    runners = {
        "ingest": stage_ingest,
        "criteria": stage_criteria,
        "normalize": stage_normalize,
        "identify": stage_identify,
        "merge": stage_merge,
        "emit": stage_emit,
        "evaluate": functools.partial(stage_evaluate, mask=mask),
    }
    if stage not in runners:
        raise ConfigError(f"unknown stage {stage!r}")
    runners[stage](config, checkpoints or Checkpoints(config.output_dir))


def _stage_index(name: str) -> int:
    try:
        return STAGE_ORDER.index(name)
    except ValueError:
        raise ConfigError(
            f"unknown stage {name!r}; stages are {', '.join(STAGE_ORDER)}"
        ) from None


def run_pipeline(
    config: PipelineConfig,
    stage_from: str | None = None,
    stage_to: str | None = None,
    mask: bool = False,
) -> None:
    """Run the stages in order on one store, which passes records on in memory."""
    start = _stage_index(stage_from) if stage_from else 0
    stop = _stage_index(stage_to) if stage_to else len(STAGE_ORDER) - 1
    if start > stop:
        raise ConfigError(f"--stage-from {stage_from!r} is after --stage-to {stage_to!r}")
    checkpoints = Checkpoints(config.output_dir)
    for stage in STAGE_ORDER[start : stop + 1]:
        log.info("stage %s", stage)
        run_stage(stage, config, mask=mask, checkpoints=checkpoints)
