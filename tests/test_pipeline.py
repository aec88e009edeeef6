"""Checkpoint serialization and stage orchestration.

The serde tests check the lossless round-trip contract of the checkpoint
codec: absent values are empty cells, a plain `str` field keeps "", and
the column layout of every checkpoint stays pinned. The csv tests check
that a dump is byte for byte what plain csv.writer writes, on text csv must
quote as well as on plain text, and reads back. The store tests check
that a written list reaches its first reader only, except ingest/lots.csv,
which reaches every reader unchanged. The orchestration
tests check that `pipeline` equals running the stages one by one, that
reruns are byte-identical, that identify gives the same bytes on copied
checkpoints, that identify scores each payload once, and that the criterion-7
fixture's output keeps a pinned digest. The normalize tests check that the
stage normalizes each distinct raw description once, to what normalizing
every occurrence on its own gives.
"""
from __future__ import annotations

import csv
import dataclasses
import datetime as dt
import gc
import hashlib
import io
import json
import logging
import shutil
import sqlite3
import tempfile
import typing
from enum import Enum
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import LOT_COLUMNS, corpus_config
from tedclean import identify
from tedclean import pipeline as pl
from tedclean.config import PipelineConfig
from tedclean.files import write_rows
from tedclean.ingest import run_ingest
from tedclean.models import (
    AgentCluster,
    AgentName,
    AgentOccurrence,
    CanonicalAgent,
    CaseKind,
    ConfigError,
    ContractType,
    CriteriaRaw,
    Criterion,
    CriterionClass,
    Identifier,
    IdentifierKind,
    InputError,
    InvariantError,
    LotRecord,
    Role,
    RowRejection,
)
from tedclean.normalize import load_postal_table, merge_by_declared_siret, normalize_occurrence
from tedclean.pipeline import (
    STAGE_ORDER,
    Checkpoints,
    run_pipeline,
    run_stage,
    stage_criteria,
    stage_evaluate,
    stage_identify,
)

_SERDE_DIR = Path(tempfile.mkdtemp(prefix="serde"))

# stripped, non-empty, no newlines: the shape every pipeline value has
_text = st.text(
    alphabet="ABZ é'\",;|-:0123456789", min_size=1, max_size=12
).map(str.strip).filter(bool)


def _opt(strategy):
    return st.none() | strategy


def _roundtrip(cls, records, name):
    path = _SERDE_DIR / name
    pl._dump(path, cls, records)
    return pl._load(path, cls)


_dates = st.dates(dt.date(2010, 1, 1), dt.date(2020, 12, 31))
_money = st.decimals(
    min_value=0, max_value=10**9, places=2, allow_nan=False, allow_infinity=False
)

_lots = st.builds(
    LotRecord,
    lot_id=st.integers(1, 10**6),
    notice_id=_text,
    lot_number=_text,
    publication_date=_dates,
    award_date=_opt(_dates),
    contract_type=_opt(st.sampled_from(ContractType)),
    activity_code=_opt(_text),
    number_of_offers=_opt(st.integers(0, 999)),
    awarded_value=_opt(_money),
    currency=_opt(_text),
    cancelled=st.booleans(),
    contract_notice_ref=_opt(_text),
)

_siret = st.from_regex(r"[0-9]{14}", fullmatch=True)
_identifiers = st.one_of(
    st.builds(Identifier, st.just(IdentifierKind.FULL_SIRET), _siret),
    st.builds(Identifier, st.just(IdentifierKind.SIREN_ONLY), st.from_regex(r"[0-9]{9}", fullmatch=True)),
    st.builds(Identifier, st.just(IdentifierKind.INTERNAL), st.from_regex(r"U[0-9]{6}", fullmatch=True)),
)

_occurrences = st.builds(
    AgentOccurrence,
    occurrence_id=st.integers(1, 10**6),
    lot_id=st.integers(1, 10**6),
    role=st.sampled_from(Role),
    raw_name=_text,
    street=_opt(_text),
    zipcode=_opt(st.from_regex(r"[0-9]{5}", fullmatch=True)),
    city=_opt(_text),
    country=_opt(_text),
    declared_siret=_opt(_siret),
    normalized_name=_opt(_text),
    department=_opt(st.from_regex(r"[0-9]{2,3}", fullmatch=True)),
    identifier=_opt(_identifiers),
    identifier_source=_opt(st.sampled_from(["declared", "matched", "merged", "none"])),
    split_conflict=st.booleans(),
)

_criteria = st.builds(
    Criterion,
    lot_id=st.integers(1, 10**6),
    raw_name=st.just("") | _text,  # dedicated price rows carry an empty raw name
    criterion_class=st.sampled_from(CriterionClass),
    weight=_opt(_money),
    weight_is_normalized=st.booleans(),
)

_criteria_raw = st.builds(
    CriteriaRaw,
    lot_id=st.integers(1, 10**6),
    # raw fields are kept verbatim, so an empty one must stay empty
    names_field=st.just("") | _text,
    weights_field=st.just("") | _text,
    price_field=st.just("") | _text,
)

_member_ids = st.lists(st.integers(1, 10**6), min_size=1, max_size=6, unique=True).map(sorted)

_clusters = st.builds(
    AgentCluster,
    cluster_id=st.integers(1, 10**6),
    member_occurrence_ids=_member_ids,
    case_kind=st.sampled_from(CaseKind),
    resolved_identifier=_identifiers,
)

_agents = st.builds(
    CanonicalAgent,
    agent_id=_identifiers,
    street=_opt(_text),
    zipcode=_opt(st.from_regex(r"[0-9]{5}", fullmatch=True)),
    city=_opt(_text),
    department=_opt(st.from_regex(r"[0-9]{2,3}", fullmatch=True)),
    country=_opt(_text),
    case_kinds=st.lists(st.sampled_from(CaseKind), min_size=1, max_size=4),
)

_agent_names = st.builds(AgentName, _identifiers, _text)


# Every checkpoint's columns, spelled out, so that a field rename in
# models.py cannot silently change checkpoint bytes.
_GOLDEN_HEADERS = {
    LotRecord: [
        "lotId", "noticeId", "lotNumber", "publicationDate", "awardDate",
        "contractType", "activityCode", "numberOffers", "awardedValue",
        "currency", "cancelled", "contractNoticeRef",
    ],
    AgentOccurrence: [
        "occurrenceId", "lotId", "role", "rawName", "street", "zipcode", "city",
        "country", "declaredSiret", "normalizedName", "department",
        "identifierKind", "identifierValue", "identifierSource", "splitConflict",
    ],
    CriteriaRaw: ["lotId", "namesField", "weightsField", "priceField"],
    Criterion: ["lotId", "rawName", "class", "weight", "weightIsNormalized"],
    AgentCluster: ["clusterId", "memberIds", "caseKind", "identifierKind", "identifierValue"],
    CanonicalAgent: [
        "identifierKind", "identifierValue", "street", "zipcode", "city",
        "department", "country", "caseKinds",
    ],
    AgentName: ["identifierKind", "identifierValue", "name"],
    RowRejection: ["sourceFile", "sourceLine", "reason"],
}


class TestSerde:
    @given(st.lists(_lots, max_size=8))
    @settings(max_examples=150)
    def test_lot_roundtrip(self, lots):
        assert _roundtrip(LotRecord, lots, "lots.csv") == lots

    @given(st.lists(_occurrences, max_size=8))
    @settings(max_examples=150)
    def test_occurrence_roundtrip(self, occs):
        assert _roundtrip(AgentOccurrence, occs, "occs.csv") == occs

    @given(st.lists(_criteria, max_size=8))
    @settings(max_examples=150)
    def test_criterion_roundtrip(self, criteria):
        assert _roundtrip(Criterion, criteria, "crit.csv") == criteria

    @given(st.lists(_criteria_raw, max_size=8))
    @settings(max_examples=100)
    def test_criteria_raw_roundtrip(self, raw):
        assert _roundtrip(CriteriaRaw, raw, "criteria_raw.csv") == raw

    @given(st.lists(_clusters, max_size=8))
    @settings(max_examples=100)
    def test_cluster_roundtrip(self, clusters):
        assert _roundtrip(AgentCluster, clusters, "clusters.csv") == clusters

    @given(st.lists(_agents, max_size=8))
    @settings(max_examples=100)
    def test_agent_roundtrip(self, agents):
        assert _roundtrip(CanonicalAgent, agents, "agents.csv") == agents

    @given(st.lists(_agent_names, max_size=8))
    @settings(max_examples=100)
    def test_agent_name_roundtrip(self, names):
        assert _roundtrip(AgentName, names, "agent_names.csv") == names

    @pytest.mark.parametrize("cls", list(_GOLDEN_HEADERS), ids=lambda c: c.__name__)
    def test_header_is_pinned(self, cls):
        path = _SERDE_DIR / f"header-{cls.__name__}.csv"
        pl._dump(path, cls, [])
        assert path.read_text(encoding="utf-8") == ",".join(_GOLDEN_HEADERS[cls]) + "\n"

    def test_read_table_missing_file_is_input_error(self):
        with pytest.raises(InputError):
            pl._load(_SERDE_DIR / "no-such-table.csv", LotRecord)

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("lotId,namesField,weightsField\n", "header"),
            ("lotId,namesField,weightsField,priceField\n1,a,b\n", "line 2: 3 cells, expected 4"),
            ("lotId,namesField,weightsField,priceField\n1,a,b,c\nx,a,b,c\n", "line 3: column lotId"),
            ("", "header None"),
        ],
    )
    def test_bad_checkpoint_is_invariant_error(self, text, problem):
        path = _SERDE_DIR / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InvariantError, match=problem) as exc:
            pl._load(path, CriteriaRaw)
        assert str(path) in str(exc.value)

    def test_interrupted_dump_keeps_previous_file(self, tmp_path):
        path = tmp_path / "table.csv"

        def killed_midway(row):
            yield row
            raise KeyboardInterrupt

        # a checkpoint through the codec, and a plain table through files
        for write, row in [
            (partial(pl._dump, path, CriteriaRaw), CriteriaRaw(1, "Prix", "60", "")),
            (partial(write_rows, path, ["lotId", "name"]), (1, "Prix")),
        ]:
            write([row])
            before = path.read_bytes()
            with pytest.raises(KeyboardInterrupt):
                write(killed_midway(row))
            assert path.read_bytes() == before
            assert list(tmp_path.iterdir()) == [path]



# cell text that csv writes as it is, and text it must quote (or, before
# Python 3.11, refuses: a NUL)
_PLAIN_TEXT = st.text(alphabet="AB é'-:09 ", max_size=6)
_QUOTED_TEXT = st.text(alphabet=',"\r\n\x00\x85 A', max_size=6)

_RECORDS = {
    LotRecord: _lots,
    AgentOccurrence: _occurrences,
    CriteriaRaw: _criteria_raw,
    Criterion: _criteria,
    AgentCluster: _clusters,
    CanonicalAgent: _agents,
    AgentName: _agent_names,
    RowRejection: st.builds(RowRejection, _text, st.integers(1, 10**6), _text),
}


@st.composite
def _any_text_record(draw, cls):
    """A record of cls whose text fields hold plain text or, in about half
    the records, text that csv quotes; a `str` field may be "", a
    `str | None` one holds None or a non-empty text."""
    record = draw(_RECORDS[cls])
    text = draw(st.sampled_from([_PLAIN_TEXT, _QUOTED_TEXT]))
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if hints[f.name] is str:
            setattr(record, f.name, draw(text))
        elif set(typing.get_args(hints[f.name])) == {str, type(None)}:
            if getattr(record, f.name) is not None:
                setattr(record, f.name, draw(text.filter(bool)))
    return record


def _csv_line(row: list) -> str:
    """One row as csv.writer writes it ending in "\\n", quoting a cell that
    holds "\\r" on every Python version: csv quotes a cell holding any
    character of its line terminator."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(row)
    return buf.getvalue().removesuffix("\r\n") + "\n"


def _oracle_csv(cls, records) -> tuple[str, list[list[str]]]:
    """The checkpoint text csv.writer writes under the codec's cell rules,
    a cell holding "\\r" quoted as from Python 3.13 on, and the cells of each
    record as strings."""
    hints = typing.get_type_hints(cls)
    lines = [_csv_line(_GOLDEN_HEADERS[cls])]
    rows = []
    for record in records:
        row = []
        for f in dataclasses.fields(cls):
            value = getattr(record, f.name)
            if Identifier in (hints[f.name], *typing.get_args(hints[f.name])):
                row += ["", ""] if value is None else [value.kind.value, value.value]
            elif isinstance(value, bool):
                row.append(int(value))
            elif isinstance(value, list):
                enums = value and isinstance(value[0], Enum)
                row.append("+".join(v.value for v in value) if enums else " ".join(map(str, value)))
            else:  # csv writes None as "", a str Enum as its value, the rest as str()
                row.append(value)
        lines.append(_csv_line(row))
        rows.append(["" if v is None else v.value if isinstance(v, Enum) else str(v) for v in row])
    return "".join(lines), rows


class TestBytesAreCsvs:
    """_dump writes byte for byte what csv.writer writes, whether a row is
    joined directly or needs csv's quoting, and _load reads it back."""

    @pytest.mark.parametrize("cls", list(_GOLDEN_HEADERS), ids=lambda c: c.__name__)
    @given(data=st.data())
    @settings(max_examples=80)
    def test_dump_is_csv_writer_bytes(self, cls, data):
        records = data.draw(st.lists(_any_text_record(cls), max_size=8))
        path = _SERDE_DIR / f"csv-{cls.__name__}.csv"
        try:
            text, rows = _oracle_csv(cls, records)
        except csv.Error:  # a NUL, before Python 3.11
            with pytest.raises(csv.Error):
                pl._dump(path, cls, records)
            return
        pl._dump(path, cls, records)
        assert path.read_bytes() == text.encode("utf-8")
        assert list(csv.reader(io.StringIO(text, newline="")))[1:] == rows
        assert pl._load(path, cls) == records

    def test_quoted_rows_keep_their_place(self):
        names = ["Prix", 'Valeur "technique"', "Délai", "a,b", "x\ny", "", "Prix"]
        records = [CriteriaRaw(i, name, "60", "") for i, name in enumerate(names, 1)]
        path = _SERDE_DIR / "quoted-in-between.csv"
        pl._dump(path, CriteriaRaw, records)
        assert path.read_bytes() == _oracle_csv(CriteriaRaw, records)[0].encode("utf-8")
        assert pl._load(path, CriteriaRaw) == records


def _quoted(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"'


@given(cells=st.lists(_QUOTED_TEXT, min_size=4, max_size=4))
@settings(max_examples=200, deadline=None)
def test_every_checkpoint_reads_back_what_ingest_accepts(tmp_path_factory, cells):
    """A lot line whose buyer name, street and identifier and whose criteria
    hold quoted commas, quotes, CRs, LFs, NULs or U+0085 goes through
    parse_line and ingest; whatever ingest keeps, each checkpoint reads back."""
    row = dict.fromkeys(LOT_COLUMNS, "")
    row.update(ID_NOTICE_CAN="N1", ID_LOT="1", DT_DISPATCH="2015-06-01", WIN_NAME="W",
               CAE_NAME="B" + cells[0], CAE_ADDRESS=cells[1], CAE_NATIONALID=cells[2],
               CRIT_CRITERIA=cells[3])
    directory = tmp_path_factory.mktemp("accepted")
    lots = directory / "lots.csv"
    lots.write_text(",".join(LOT_COLUMNS) + "\n" + ",".join(map(_quoted, row.values())) + "\n",
                    encoding="utf-8", newline="")
    result = run_ingest(PipelineConfig(lot_files=[str(lots)]))
    for cls, records in ((LotRecord, result.lots), (AgentOccurrence, result.occurrences),
                         (CriteriaRaw, result.criteria_raw), (RowRejection, result.rejections)):
        path = directory / f"{cls.__name__}.csv"
        pl._dump(path, cls, records)
        assert pl._load(path, cls) == records


class TestCheckpoints:
    def test_stage_dir_creates(self, tmp_path):
        cp = Checkpoints(str(tmp_path / "out"))
        path = cp.stage_dir("ingest")
        assert path.is_dir() and path == tmp_path / "out" / "checkpoints" / "ingest"

    def test_require_lists_missing_files(self, tmp_path):
        cp = Checkpoints(str(tmp_path))
        cp.stage_dir("merge")
        (cp.root / "merge" / "clusters.csv").write_text("x", encoding="utf-8")
        with pytest.raises(ConfigError, match="agents.csv"):
            cp.require("merge", "clusters.csv", "agents.csv")
        cp.require("merge", "clusters.csv")  # present: no error

    def test_criteria_without_ingest_checkpoint(self, tmp_path):
        cfg = corpus_config(tmp_path / "in", tmp_path / "out", rows=3)
        with pytest.raises(ConfigError, match="ingest"):
            stage_criteria(cfg, Checkpoints(cfg.output_dir))

    def test_identify_without_normalize_checkpoint(self, tmp_path):
        cfg = corpus_config(tmp_path / "in", tmp_path / "out", rows=3)
        with pytest.raises(ConfigError, match="normalize"):
            stage_identify(cfg, Checkpoints(cfg.output_dir))

    def test_first_read_takes_the_written_list(self, tmp_path):
        cp = Checkpoints(str(tmp_path))
        raw = [CriteriaRaw(1, "Prix", "60", ""), CriteriaRaw(2, "Délai", "40", "")]
        expected = [dataclasses.replace(r) for r in raw]
        cp.write("ingest", "criteria_raw.csv", CriteriaRaw, raw)
        first = cp.read("ingest", "criteria_raw.csv", CriteriaRaw)
        assert list(map(id, first)) == list(map(id, raw))  # the records, not a parse
        first[0].names_field = "changed"
        first.pop()
        second = cp.read("ingest", "criteria_raw.csv", CriteriaRaw)
        assert second == expected  # parsed from the file, not the mutated list

    def test_write_keeps_a_generator_as_a_list(self, tmp_path):
        cp = Checkpoints(str(tmp_path))
        agent = Identifier(IdentifierKind.INTERNAL, "U000001")
        rows = (AgentName(agent, name) for name in ("MAIRIE", "COMMUNE"))
        cp.write("merge", "agent_names.csv", AgentName, rows)
        expected = [AgentName(agent, "MAIRIE"), AgentName(agent, "COMMUNE")]
        kept = cp.read("merge", "agent_names.csv", AgentName)
        assert type(kept) is list and kept == expected
        assert cp.read("merge", "agent_names.csv", AgentName) == expected

    def test_every_reader_gets_the_one_lots_list(self, tmp_path):
        """ingest/lots.csv is handed to identify, emit and evaluate alike, and no
        stage changes a lot, so the list still equals the file afterwards."""
        cfg = corpus_config(tmp_path / "in", tmp_path / "out", rows=100, seed=42)
        cp = Checkpoints(cfg.output_dir)
        read = cp.read
        handed: dict[str, list[LotRecord]] = {}  # held, so no id() is reused

        def recording_read(stage, name, cls):
            records = read(stage, name, cls)
            if (stage, name) == ("ingest", "lots.csv"):
                handed[current] = records
            return records

        cp.read = recording_read
        for current in STAGE_ORDER:
            run_stage(current, cfg, mask=True, checkpoints=cp)
        assert handed.keys() == {"identify", "emit", "evaluate"}
        assert len({id(lots) for lots in handed.values()}) == 1
        written = pl._load(Path(cfg.output_dir) / "checkpoints" / "ingest" / "lots.csv", LotRecord)
        assert handed["evaluate"] == written

    @pytest.mark.parametrize("mask", [False, True], ids=["plain", "mask"])
    def test_pipeline_parses_no_checkpoint(self, tmp_path, monkeypatch, mask):
        """Under `pipeline` every stage takes its records from the store: no
        stage changes a record identify wrote, so evaluate is handed
        identify's list and no checkpoint is read back from disk."""
        cfg = corpus_config(tmp_path / "in", tmp_path / "out", rows=100, seed=42)

        def no_parse(path, cls):
            raise AssertionError(f"{path} parsed")

        monkeypatch.setattr(pl, "_load", no_parse)
        run_pipeline(cfg, mask=mask)
        assert (Path(cfg.output_dir) / "checkpoints" / "evaluate" / "report.txt").exists()

    def test_pipeline_loads_the_registry_once(self, tmp_path, monkeypatch):
        """Under `pipeline --mask` the masked evaluate reruns identification
        on the registry identify loaded; a stage run alone loads its own."""
        cfg = corpus_config(tmp_path / "in", tmp_path / "out", rows=100, seed=42)
        load, calls = pl.load_registry, []

        def counting(*args, **kwargs):
            calls.append(args)
            return load(*args, **kwargs)

        monkeypatch.setattr(pl, "load_registry", counting)
        run_pipeline(cfg, mask=True)
        assert len(calls) == 1
        run_stage("evaluate", cfg, mask=True)
        assert len(calls) == 2


def _tree(root: Path) -> dict[str, bytes]:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


# Its sourceFile cells hold the input path, which differs per run.
_PATH_DEPENDENT = {"checkpoints/ingest/rejections.csv"}
# sha256 of the criterion-7 fixture's masked output tree without the file
# above; a change that alters any output byte must say why and pin anew.
GOLDEN_DIGEST = "0b8630972365e9f769f21a41baade8300bcaf30c9cb18a7afa6a3f82e4dc9805"


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("full")
    cfg = corpus_config(base / "in", base / "out", rows=24, seed=1)
    run_pipeline(cfg)
    return cfg


class TestOrchestration:
    def test_all_checkpoints_written(self, full_run):
        root = Path(full_run.output_dir) / "checkpoints"
        for stage in STAGE_ORDER:
            if stage == "emit":  # emit writes the final tables, not a checkpoint
                continue
            assert (root / stage).is_dir(), stage
        assert (root / "ingest" / "stats.json").exists()
        assert (root / "criteria" / "flags.json").exists()
        assert (root / "identify" / "match_log.csv").exists()
        assert (root / "evaluate" / "report.txt").exists()

    def test_final_tables_written(self, full_run):
        out = Path(full_run.output_dir)
        for table in ("Lots", "Agents", "Names", "LotBuyers", "LotSuppliers", "Criteria"):
            assert (out / f"{table}.csv").exists(), table
        assert (out / "foppa.sql").exists()

    def test_ingest_stats_account_for_bad_rows(self, full_run):
        stats = json.loads(
            (Path(full_run.output_dir) / "checkpoints" / "ingest" / "stats.json").read_text()
        )
        assert stats["skipped_lines"] >= 1  # the malformed line
        assert stats["duplicate_identities"] >= 1
        assert stats["rejections"] >= 1  # the out-of-period row
        assert stats["lots"] > 0 and stats["occurrences"] > stats["lots"]

    @pytest.mark.parametrize(
        "rows, seed, overrides, mask",
        [
            (18, 2, {}, False),
            # the criterion-7 fixture, masked, from an old config whose jobs
            # key is a retired key that loads with a warning
            (100, 42, {"jobs": 1}, True),
            (100, 42, {"jobs": 4}, True),
        ],
        ids=["rows18-seed2", "criterion7-jobs1-mask", "criterion7-jobs4-mask"],
    )
    def test_pipeline_equals_stage_by_stage(self, tmp_path, rows, seed, overrides, mask):
        cfg_a = corpus_config(tmp_path / "in", tmp_path / "a", rows=rows, seed=seed, **overrides)
        run_pipeline(cfg_a, mask=mask)
        cfg_b = dataclasses.replace(cfg_a, output_dir=str(tmp_path / "b"))
        for stage in STAGE_ORDER:
            run_stage(stage, cfg_b, mask=mask)
        assert _tree(Path(cfg_a.output_dir)) == _tree(Path(cfg_b.output_dir))

    def test_golden_digest(self, tmp_path):
        """The criterion-7 fixture's masked output tree keeps its bytes."""
        cfg = corpus_config(tmp_path / "in", tmp_path / "out", rows=100, seed=42)
        run_pipeline(cfg, mask=True)
        digest = hashlib.sha256()
        for name, data in _tree(Path(cfg.output_dir)).items():
            if name not in _PATH_DEPENDENT:
                digest.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
        assert digest.hexdigest() == GOLDEN_DIGEST

    def test_nul_line_skipped_and_dump_reloads(self, tmp_path):
        """csv reads a NUL from Python 3.11 on; the line must still be skipped,
        or the NUL reaches foppa.sql, which sqlite3 then refuses to run."""
        cfg = corpus_config(tmp_path / "in", tmp_path / "out", rows=20, seed=0)
        lot_path = Path(cfg.lot_files[0])
        text = lot_path.read_text(encoding="utf-8")
        text = text.replace("broken,row,with,too,few,cells\n", "")
        text = text.replace("Valeur technique", "Valeur\0technique", 1)
        lot_path.write_text(text, encoding="utf-8")
        run_pipeline(cfg)
        out = Path(cfg.output_dir)
        stats = json.loads((out / "checkpoints" / "ingest" / "stats.json").read_text())
        assert stats["skipped_lines"] == 1
        connection = sqlite3.connect(":memory:")
        connection.executescript((out / "foppa.sql").read_text(encoding="utf-8"))
        lots = connection.execute("SELECT COUNT(*) FROM Lots").fetchone()[0]
        connection.close()
        assert lots == stats["lots"]

    def test_equal_weights_leave_the_residual_to_the_first(self, tmp_path):
        cfg = corpus_config(tmp_path / "in", tmp_path / "out", rows=3, seed=0)
        with open(cfg.lot_files[0], "a", encoding="utf-8", newline="") as fh:
            cells = dict(ID_NOTICE_CAN="NEQUAL", ID_LOT="1", DT_DISPATCH="2015-01-01",
                         CAE_NAME="Mairie", CRIT_CRITERIA="Prix;Qualité;Délai",
                         CRIT_WEIGHTS="1;1;1")
            csv.writer(fh, lineterminator="\n").writerow([cells.get(c, "") for c in LOT_COLUMNS])
        run_pipeline(cfg)
        out = Path(cfg.output_dir)
        with open(out / "Lots.csv", encoding="utf-8", newline="") as fh:
            (lot_id,) = [row["lotId"] for row in csv.DictReader(fh) if row["noticeId"] == "NEQUAL"]
        with open(out / "Criteria.csv", encoding="utf-8", newline="") as fh:
            weights = [(row["ordinal"], row["rawName"], row["weight"])
                       for row in csv.DictReader(fh) if row["lotId"] == lot_id]
        assert weights == [("1", "Prix", "33.34"), ("2", "Qualité", "33.33"),
                           ("3", "Délai", "33.33")]

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_a = corpus_config(tmp_path / "in", tmp_path / "a", rows=18, seed=3)
        cfg_b = dataclasses.replace(cfg_a, output_dir=str(tmp_path / "b"))
        run_pipeline(cfg_a)
        run_pipeline(cfg_b)
        assert _tree(Path(cfg_a.output_dir)) == _tree(Path(cfg_b.output_dir))

    def test_parallel_identify_equals_serial(self, tmp_path):
        """The identify stage gives the same bytes on copied checkpoints."""
        # with 4 registry agents, payloads repeat across lots with other dates
        for rows, agents in [(30, 40), (60, 4)]:
            base = tmp_path / f"agents{agents}"
            cfg_a = corpus_config(
                base / "in", base / "a", rows=rows, seed=4, registry_agents=agents
            )
            run_pipeline(cfg_a, stage_to="normalize")
            out_b = base / "b"
            out_b.mkdir()
            shutil.copytree(
                Path(cfg_a.output_dir) / "checkpoints", out_b / "checkpoints"
            )
            cfg_b = dataclasses.replace(cfg_a, output_dir=str(out_b))
            stage_identify(cfg_a, Checkpoints(cfg_a.output_dir))
            stage_identify(cfg_b, Checkpoints(cfg_b.output_dir))
            dir_a = Path(cfg_a.output_dir) / "checkpoints" / "identify"
            dir_b = out_b / "checkpoints" / "identify"
            assert _tree(dir_a) == _tree(dir_b)

    @pytest.mark.parametrize("registry_agents", [2, 4])
    def test_identify_scores_each_payload_once(self, tmp_path, monkeypatch, registry_agents):
        """Every payload is scored once, in this process, however often the
        registry's few agents repeat a payload across lots."""
        cfg = corpus_config(tmp_path / "in", tmp_path / "out", rows=60, seed=4,
                            registry_agents=registry_agents)
        run_pipeline(cfg, stage_to="normalize")
        root = Path(cfg.output_dir) / "checkpoints"
        occurrences = pl._load(root / "normalize" / "occurrences.csv", AgentOccurrence)
        lots = pl._load(root / "ingest" / "lots.csv", LotRecord)
        payloads = identify.payload_groups(occurrences, lots).keys() - {None}
        score, scored = identify._score_payload, []

        def spy(payload, *args):
            scored.append(payload)
            return score(payload, *args)

        monkeypatch.setattr(identify, "_score_payload", spy)
        stage_identify(cfg, Checkpoints(cfg.output_dir))
        assert payloads
        assert len(scored) == len(set(scored))
        assert set(scored) == payloads

    def test_stage_to_stops_early(self, tmp_path):
        cfg = corpus_config(tmp_path / "in", tmp_path / "out", rows=6, seed=5)
        run_pipeline(cfg, stage_to="criteria")
        root = Path(cfg.output_dir) / "checkpoints"
        assert (root / "criteria").is_dir()
        assert not (root / "normalize").exists()
        # resume from the checkpoint left behind
        run_pipeline(cfg, stage_from="normalize", stage_to="normalize")
        assert (root / "normalize" / "occurrences.csv").exists()

    def test_unknown_stage_rejected(self, tmp_path):
        cfg = corpus_config(tmp_path / "in", tmp_path / "out", rows=3, seed=6)
        with pytest.raises(ConfigError, match="unknown stage"):
            run_pipeline(cfg, stage_from="bogus")
        with pytest.raises(ConfigError, match="unknown stage"):
            run_stage("bogus", cfg)

    def test_stage_from_after_stage_to_rejected(self, tmp_path):
        cfg = corpus_config(tmp_path / "in", tmp_path / "out", rows=3, seed=7)
        with pytest.raises(ConfigError, match="after"):
            run_pipeline(cfg, stage_from="merge", stage_to="ingest")


# raw (raw_name, street, zipcode, city, country) descriptions: MAIRIE_BE
# differs from MAIRIE in its country only, and ADJOINT in its name only
MAIRIE = ("Mairie de Lyon (siège)", "1 Rue de la République", "69001", "Lyon", "France")
MAIRIE_BE = MAIRIE[:4] + ("Belgique",)
ADJOINT = ("Mairie de Lyon 2",) + MAIRIE[1:]
DURAND = ("Sarl Durand & Fils", "BP 12 Zone Nord", None, "Villeurbanne Cedex", None)
ECULLY = ("Commune d'Écully", None, "69130 CEDEX", "Écully", "FRANCE")
LYON = ("Ville de Lyon", None, None, "Lyon", "France")  # Lyon has two zipcodes
# (lot, role, description, declared SIRET): descriptions repeat across roles,
# lots and declarations, valid, malformed or absent
NORMALIZE_PLAN = [
    (1, Role.BUYER, MAIRIE, "21690123100011"),
    (1, Role.WINNER, DURAND, None),
    (2, Role.BUYER, MAIRIE, None),
    (2, Role.WINNER, MAIRIE_BE, "123"),
    (3, Role.BUYER, ADJOINT, "216901231"),
    (3, Role.WINNER, DURAND, "44306184100047"),
    (4, Role.BUYER, ECULLY, None),
    (4, Role.WINNER, MAIRIE, "21690123100011"),
    (5, Role.BUYER, LYON, None),
    (5, Role.WINNER, ECULLY, "44306184100047"),
    (6, Role.BUYER, ADJOINT, None),
    (6, Role.WINNER, LYON, "not a siret"),
]


def _raw_key(occ: AgentOccurrence) -> tuple:
    return occ.raw_name, occ.street, occ.zipcode, occ.city, occ.country


def test_a_run_leaves_no_cycles_per_row(tmp_path):
    """The premise of the CLI's collector pause: with the collector off, a
    masked run leaves the same few cyclic objects on 150 rows as on 600 (an
    indented json.dumps leaves some), so its records hold no cycles."""
    found = []
    for rows in (150, 600):
        config = corpus_config(tmp_path / f"in-{rows}", tmp_path / f"out-{rows}", rows=rows)
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            run_pipeline(config, mask=True)
            found.append(gc.collect())
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
    assert found[0] == found[1] < 150


class TestNormalizeStage:
    """The stage normalizes each distinct raw description once and copies
    the outputs to its repeats; declared SIRETs stay per occurrence."""

    @staticmethod
    def _occurrences() -> list[AgentOccurrence]:
        return [
            AgentOccurrence(i, lot, role, *description, declared_siret=siret)
            for i, (lot, role, description, siret) in enumerate(NORMALIZE_PLAN, start=1)
        ]

    def _run(self, tmp_path) -> tuple[PipelineConfig, list[AgentOccurrence]]:
        postal = tmp_path / "postal.csv"
        postal.write_text(
            "city,zipcode\nVilleurbanne,69100\nLyon,69001\nLyon,69002\n", encoding="utf-8"
        )
        cfg = PipelineConfig(postal_file=str(postal), output_dir=str(tmp_path / "out"))
        Checkpoints(cfg.output_dir).write(
            "ingest", "occurrences.csv", AgentOccurrence, self._occurrences()
        )
        run_stage("normalize", cfg)
        return cfg, Checkpoints(cfg.output_dir).read("normalize", "occurrences.csv",
                                                     AgentOccurrence)

    def test_equals_normalizing_each_occurrence(self, tmp_path):
        cfg, got = self._run(tmp_path)
        want = self._occurrences()
        postal = load_postal_table(cfg.postal_file, cfg.delimiter, cfg.postal_tokens)
        for occ in want:
            normalize_occurrence(occ, postal, cfg.postal_tokens)
        merge_by_declared_siret(want)
        assert got == want
        assert [occ.zipcode for occ in got if occ.raw_name == DURAND[0]] == ["69100"] * 2

    def test_normalizes_each_distinct_description_once(self, tmp_path, monkeypatch):
        keys = []
        real = pl.normalize_occurrence

        def spy(occ, postal, postal_tokens):
            keys.append(_raw_key(occ))
            real(occ, postal, postal_tokens)

        monkeypatch.setattr(pl, "normalize_occurrence", spy)
        self._run(tmp_path)
        distinct = {_raw_key(occ) for occ in self._occurrences()}
        assert len(keys) == len(distinct) and set(keys) == distinct

    def test_logs_the_descriptions_it_normalized(self, tmp_path, caplog):
        with caplog.at_level(logging.DEBUG, logger="tedclean.pipeline"):
            self._run(tmp_path)
        debug = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
        assert debug == ["normalize: 12 occurrences from 6 distinct descriptions"]


class TestEvaluateStage:
    def test_contract_ids_end_at_any_line_end(self, tmp_path):
        path = tmp_path / "ids.txt"
        path.write_text("C1\nC2\r\nC3\rC4\n\n  C 5 \r", encoding="utf-8", newline="")
        config = PipelineConfig(contract_notice_file=str(path))
        assert pl._load_contract_ids(config) == {"C1", "C2", "C3", "C4", "C 5"}

    def test_report_files(self, full_run):
        out = Path(full_run.output_dir) / "checkpoints" / "evaluate"
        for name in ("report.txt", "cluster_sizes.csv", "cluster_identifiers.csv"):
            assert (out / name).exists(), name
        text = (out / "report.txt").read_text(encoding="utf-8")
        assert "cluster" in text.lower()

    def test_masked_evaluation_runs_and_leaves_checkpoints_alone(self, full_run):
        root = Path(full_run.output_dir) / "checkpoints"
        before = {
            k: v for k, v in _tree(root).items() if not k.startswith("evaluate")
        }
        report = stage_evaluate(full_run, Checkpoints(full_run.output_dir), mask=True)
        assert report.mask is not None
        assert report.mask.outcomes, "corpus declares some identifiers"
        after = {k: v for k, v in _tree(root).items() if not k.startswith("evaluate")}
        assert before == after
        out = root / "evaluate"
        assert (out / "mask_outcomes.csv").exists()
        assert (out / "stage_accounting.csv").exists()

    def test_unmasked_rerun_removes_masked_files(self, tmp_path):
        out = tmp_path / "out"
        run_pipeline(corpus_config(tmp_path / "in1", out, rows=24, seed=1), mask=True)
        evaluate_dir = out / "checkpoints" / "evaluate"
        masked_files = ("stage_accounting.csv", "mask_outcomes.csv")
        assert all((evaluate_dir / name).exists() for name in masked_files)
        run_pipeline(corpus_config(tmp_path / "in2", out, rows=24, seed=2))
        assert (evaluate_dir / "report.txt").exists()
        for name in masked_files:
            assert not (evaluate_dir / name).exists(), name

    def test_masked_evaluation_without_truth_is_input_error(self, tmp_path):
        # rows=4: the only r%5==0 row is infructueux, so nothing is declared
        cfg = corpus_config(tmp_path / "in", tmp_path / "out", rows=4, seed=8)
        run_pipeline(cfg, stage_to="merge")
        with pytest.raises(InputError, match="found none"):
            stage_evaluate(cfg, Checkpoints(cfg.output_dir), mask=True)
