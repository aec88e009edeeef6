"""Shared fixture builders: tiny registries, lot tables, configs."""
from __future__ import annotations

import csv
import datetime as dt
import json
from pathlib import Path

import pytest
from hypothesis import strategies as st

from corpus import LOT_COLUMNS
from tedclean.config import MatchConfig, PipelineConfig
from tedclean.identify import MatchResult, identify_all
from tedclean.models import (
    AgentOccurrence,
    LotRecord,
    RegistryEntity,
    RegistryFacility,
    Role,
)
from tedclean.registry import Registry


_ACCENTED = {"A": "ÀÂ", "C": "Ç", "E": "ÉÈÊË", "I": "ÎÏ", "O": "Ô", "U": "ÙÛÜ"}


@st.composite
def respelled(draw, word: str) -> str:
    """A folded word as a person might type it: re-cased, accented, padded
    or punctuated; normalize_name folds it back to the word."""
    letters = []
    for c in word:
        if c == " ":
            c = draw(st.sampled_from([" ", "-", "  ", " - ", "'"]))
        else:
            c = draw(st.sampled_from(c + _ACCENTED.get(c, "")))
            c = c.lower() if draw(st.booleans()) else c
        letters.append(c)
    pad = st.sampled_from(["", " ", ".", "!", " - "])
    return draw(pad) + "".join(letters) + draw(pad)


def make_lot(lot_id: int = 1, **overrides) -> LotRecord:
    defaults = dict(
        lot_id=lot_id,
        notice_id=f"N{lot_id:06d}",
        lot_number="1",
        publication_date=dt.date(2015, 6, 1),
    )
    defaults.update(overrides)
    return LotRecord(**defaults)


def make_occurrence(occurrence_id: int = 1, lot_id: int = 1, **overrides) -> AgentOccurrence:
    defaults = dict(
        occurrence_id=occurrence_id,
        lot_id=lot_id,
        role=Role.BUYER,
        raw_name=f"Agent {occurrence_id}",
    )
    defaults.update(overrides)
    return AgentOccurrence(**defaults)


def identify_one(occurrence: AgentOccurrence, lot: LotRecord, registry: Registry,
                 match: MatchConfig, cpv_map: dict[str, list[str]] | None = None) -> MatchResult:
    """One occurrence identified the way the identify stage does it."""
    config = PipelineConfig(match=match, cpv_activity_map=cpv_map)
    return identify_all([occurrence], [lot], registry, config)[0]


def make_registry(facilities: list[RegistryFacility], entities: list[RegistryEntity] | None = None,
                  activity_prefix_length: int = 2) -> Registry:
    registry = Registry(activity_prefix_length=activity_prefix_length)
    for entity in entities or []:
        registry.add_entity(entity)
    for facility in facilities:
        registry.add_facility(facility)
    return registry


def write_registry_files(
    directory: Path,
    entities: list[dict],
    facilities: list[dict],
) -> tuple[str, str]:
    """Write entity/facility CSVs in the default column layout."""
    entity_path = directory / "entities.csv"
    facility_path = directory / "facilities.csv"
    entity_cols = ["SIREN", "LEGAL_NAME", "FORMER_NAMES", "CREATED", "CLOSED", "ACTIVITY"]
    facility_cols = ["SIRET", "NAMES", "STREET", "POSTAL_CODE", "CITY", "ACTIVITY", "OPENED", "CLOSED"]
    with open(entity_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=entity_cols, lineterminator="\n")
        writer.writeheader()
        for row in entities:
            writer.writerow({c: row.get(c, "") for c in entity_cols})
    with open(facility_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=facility_cols, lineterminator="\n")
        writer.writeheader()
        for row in facilities:
            writer.writerow({c: row.get(c, "") for c in facility_cols})
    return str(entity_path), str(facility_path)


def write_lot_file(path: Path, rows: list[dict]) -> str:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=LOT_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({c: row.get(c, "") for c in LOT_COLUMNS})
    return str(path)


def lot_row(notice: str, lot: str, **cells) -> dict:
    row = {
        "ID_NOTICE_CAN": notice,
        "ID_LOT": lot,
        "DT_DISPATCH": "2015-06-01",
        "CAE_NAME": "Mairie de Lyon",
        "WIN_NAME": "Entreprise Durand",
    }
    row.update(cells)
    return row


@pytest.fixture
def tmp_config(tmp_path) -> PipelineConfig:
    cfg = PipelineConfig()
    cfg.output_dir = str(tmp_path / "out")
    return cfg


def write_config_file(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data, indent=2), encoding="utf-8")
    return str(path)
