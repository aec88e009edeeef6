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
  member_occurrence_ids -> memberIds).
- Cells follow the field type: None is an empty cell, bool is 1/0, date is
  ISO, Decimal is str(), Enum is its value (read from a dict of member to
  value, not through `.value`), list[int] is space-joined and list[Enum]
  is "+"-joined. An Identifier takes two columns, identifierKind and
  identifierValue. A `str` field keeps "", while a `str | None` field
  reads "" back as None; no optional pipeline value is an empty string,
  so the round trip is lossless.
- Each record type's plan is compiled once into two generated row
  functions, as `dataclasses` compiles `__init__` (source made of field
  names and fixed templates, never of a cell): `encode` gives a record's
  cells as strings, and `decode` is one constructor call on a row's cells.
- The rows are written by `files.write_rows`, which joins a row none of
  whose cells needs quoting by commas and gives any other to csv, so every
  byte is what csv writes, a cell holding "\\r" quoted, and csv reads the
  file back.

A checkpoint is written through `files`, to a temp file renamed into place,
so a killed run cannot leave a truncated file for the next stage. A header,
row or cell that does not parse is an InvariantError naming the file and
line, and the column when one cell does not parse.
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
    AgentName,
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


# the checkpoints whose records no reader changes
_SHARED = {("ingest", "lots.csv"), ("identify", "occurrences.csv")}


class Checkpoints:
    """The one way a stage gets and gives records: `write` dumps a checkpoint
    and keeps its records, and `read` hands them out.

    ingest/lots.csv and identify/occurrences.csv are kept for the life of
    the store and every reader gets the same list, parsed at most once: no
    stage changes a LotRecord (identify, emit, notice_coverage and
    mask_and_rerun only read them), and no stage changes a record identify
    wrote (merge replaces the ones it resolves in a copy of the list, and a
    masked evaluate masks copies). Every other list goes to its first
    reader only and is forgotten, and any later read parses the file:
    normalize and identify change the records they read, so such a list
    may not reach two readers. A list no stage reads (rejections.csv) lives
    as long as the store.

    A store made with `keep_registry` hands every stage that asks the
    registry the first one loaded: under `pipeline --mask`, evaluate reruns
    identification on identify's registry. One store serves one config.
    """

    def __init__(self, output_dir: str, keep_registry: bool = False) -> None:
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
        self._keep_registry = keep_registry
        self._registry: Registry | None = None

    def stage_dir(self, stage: str) -> Path:
        path = self.root / stage
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file in its place
            raise ConfigError(f"checkpoint directory {path} cannot be made: {exc}") from None
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

    def registry(self, config: PipelineConfig) -> Registry:
        registry = self._registry or _load_registry_from_config(config)
        if self._keep_registry:
            self._registry = registry
        return registry

    def read(self, stage: str, name: str, cls: type) -> list:
        key = (stage, name)
        kept = self._kept.get(key) if key in _SHARED else self._kept.pop(key, None)
        if kept is not None:
            return kept
        self.require(stage, name)
        records = _load(self.root / stage / name, cls)
        if key in _SHARED:
            self._kept[key] = records
        return records


# ---------------------------------------------------------------- codec

_RENAMES = {
    "number_of_offers": "numberOffers",
    "criterion_class": "class",
    "member_occurrence_ids": "memberIds",
}
_PARSE_ERRORS = (ValueError, InvalidOperation, csv.Error)


def _camel(name: str) -> str:
    head, *rest = name.split("_")
    return head + "".join(part.title() for part in rest)


def _parse_bool(cell: str) -> bool:
    if cell not in ("0", "1"):
        raise ValueError(f"expected 1 or 0, got {cell!r}")
    return cell == "1"


def _values(tp: type[Enum]) -> dict[Enum, str]:
    """tp's members to their values: an encoder reads this dict, since on
    Python 3.11 `.value` is a Python-level descriptor."""
    return {member: member.value for member in tp}


@functools.cache
def _enum_parser(tp: type[Enum]) -> Callable[[str], Enum]:
    """tp(cell) through a dict lookup; tp itself raises on an unknown value."""
    members = {member.value: member for member in tp}
    return lambda cell: members.get(cell) or tp(cell)


def _cell_plan(tp: type, i: int, namespace: dict[str, object]
               ) -> tuple[Callable[[str], object], str]:
    """(parse, encode) of column `i`: the cell's parser, and the template of
    the expression that writes a value `{}` as the string csv writes. An
    Enum column's values go into the encoder's `namespace` as e<i>."""
    if typing.get_origin(tp) is list:
        (item,) = typing.get_args(tp)
        if item is int:
            return (lambda cell: [int(i) for i in cell.split()]), '" ".join(map(str, {}))'
        parse = _enum_parser(item)
        namespace[f"e{i}"] = _values(item)
        return (lambda cell: [parse(k) for k in cell.split("+") if k]), (
            f'"+".join([e{i}[k] for k in {{}}])'
        )
    if tp is bool:
        return _parse_bool, '("1" if {} else "0")'
    if tp is str:
        return str, "{}"
    if tp in (int, Decimal):
        return tp, "str({})"
    if tp is dt.date:
        return dt.date.fromisoformat, "str({})"
    # the value, not str(): str(Role.BUYER) is 'Role.BUYER'
    if issubclass(tp, Enum) and issubclass(tp, str):
        namespace[f"e{i}"] = _values(tp)
        return _enum_parser(tp), f"e{i}[{{}}]"
    raise TypeError(f"no checkpoint codec for {tp!r}")


def _optional(parse: Callable[[str], object]) -> Callable[[str], object]:
    return lambda cell: parse(cell) if cell else None


@dataclasses.dataclass
class _Codec:
    columns: list[str]
    parsers: list[Callable[[str], object]]
    encode: Callable[[object], list[str]]
    decode: Callable[[list[str]], object]


@functools.cache
def _codec(cls: type) -> _Codec:
    """Plan a record dataclass's columns once and compile its two row
    functions, `encode(r)` (the cells) and `decode(c)` (one `cls(...)`
    call), as `dataclasses` compiles `__init__`: their source is built from
    field names and fixed templates only, never from a cell."""
    hints = typing.get_type_hints(cls)
    columns: list[str] = []
    parsers: list[Callable[[str], object]] = []  # of each column, for _bad_column
    binds: list[str] = []  # encode: field n of record r is v<n>
    cells: list[str] = []  # encode: one expression per column
    args: list[str] = []  # decode: one expression of cells c per init argument
    namespace: dict[str, object] = {"cls": cls, "Identifier": Identifier}
    for n, f in enumerate(dataclasses.fields(cls)):
        tp = hints[f.name]
        optional = type(None) in typing.get_args(tp)
        if optional:
            (tp,) = [a for a in typing.get_args(tp) if a is not type(None)]
        i = len(columns)
        if tp is Identifier:
            namespace[f"e{i}"] = _values(IdentifierKind)
            templates = [f"e{i}[{{}}.kind]", "{}.value"]
            columns += ["identifierKind", "identifierValue"]
            namespace[f"p{i}"] = kind = _enum_parser(IdentifierKind)
            parsers += [_optional(kind) if optional else kind, str]
            arg = f"Identifier(p{i}(c[{i}]), c[{i + 1}])"
        else:
            parse, template = _cell_plan(tp, i, namespace)
            templates = [template]
            columns.append(_RENAMES.get(f.name, _camel(f.name)))
            parsers.append(_optional(parse) if optional else parse)
            namespace[f"p{i}"] = parse
            arg = f"c[{i}]" if parse is str else f"p{i}(c[{i}])"
        binds.append(f"v{n} = r.{f.name}")
        cells += [
            f'("" if v{n} is None else {template.format(f"v{n}")})' if optional
            else template.format(f"v{n}")
            for template in templates
        ]
        args.append(f"({arg} if c[{i}] else None)" if optional else arg)
    exec(
        f"def encode(r):\n    {'; '.join(binds)}\n    return [{', '.join(cells)}]\n"
        f"def decode(c):\n    return cls({', '.join(args)})\n",
        namespace,
    )
    return _Codec(columns, parsers, namespace["encode"], namespace["decode"])


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
    registry = checkpoints.registry(config)

    results = identify_all(occurrences, lots, registry, config)
    apply_match_results(occurrences, results)

    checkpoints.write("identify", "occurrences.csv", AgentOccurrence, occurrences)
    write_match_log(results, checkpoints.stage_dir("identify") / "match_log.csv")
    matched = sum(1 for r in results if r.source == "matched")
    log.info("identify: %d matched of %d", matched, len(results))


def stage_merge(config: PipelineConfig, checkpoints: Checkpoints) -> None:
    occurrences = list(checkpoints.read("identify", "occurrences.csv", AgentOccurrence))
    result: MergeResult = merge_all(occurrences, config)
    checkpoints.write("merge", "occurrences.csv", AgentOccurrence, occurrences)
    checkpoints.write("merge", "clusters.csv", AgentCluster, result.clusters)
    checkpoints.write("merge", "agents.csv", CanonicalAgent, result.agents)
    checkpoints.write("merge", "agent_names.csv", AgentName, result.names)
    log.info("merge: %d clusters, %d agents", len(result.clusters), len(result.agents))


def stage_emit(config: PipelineConfig, checkpoints: Checkpoints) -> None:
    lots = checkpoints.read("ingest", "lots.csv", LotRecord)
    criteria = checkpoints.read("criteria", "criteria.csv", Criterion)
    checkpoints.require("merge", "occurrences.csv", "agents.csv", "agent_names.csv")
    occurrences = checkpoints.read("merge", "occurrences.csv", AgentOccurrence)
    agents = checkpoints.read("merge", "agents.csv", CanonicalAgent)
    names = checkpoints.read("merge", "agent_names.csv", AgentName)
    schema = emit_mod.build_tables(lots, agents, names, occurrences, criteria)
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
        mask_report = evaluate_mod.mask_and_rerun(
            identified, clusters, lots, checkpoints.registry(config), config, truth
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
    stages = STAGE_ORDER[start : stop + 1]
    # the registry outlives identify only when a masked evaluate reads it again
    checkpoints = Checkpoints(config.output_dir, keep_registry=mask and "evaluate" in stages)
    for stage in stages:
        log.info("stage %s", stage)
        run_stage(stage, config, mask=mask, checkpoints=checkpoints)
