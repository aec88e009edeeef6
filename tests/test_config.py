"""Config loading: every value is converted by its field's annotation, and a
bad one is a configuration error that names its key path."""
from __future__ import annotations

import dataclasses
import datetime as dt
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tedclean.cli import EXIT_CONFIG, main
from tedclean.config import (
    DEFAULT_COLUMN_MAP,
    DEFAULT_REGISTRY_ENTITY_MAP,
    DEFAULT_REGISTRY_FACILITY_MAP,
    MatchConfig,
    PipelineConfig,
    config_from_dict,
    validate_config,
)
from tedclean.models import ConfigError, CriterionClass

# (config JSON, text the error message must contain)
MALFORMED = {
    "threshold-string": ({"match": {"name_threshold": "high"}}, "match.name_threshold"),
    "unknown-class": ({"criterion_lexicon": {"PRIX": "CHEAP"}}, "criterion_lexicon.PRIX"),
    "bad-date": ({"period": ["2010-13-01", "2020-12-31"]}, "period[0]"),
    "one-date": ({"period": ["2010-01-01"]}, "period"),
    "delimiter-int": ({"delimiter": 5}, "delimiter"),
    "threshold-null": ({"merge_threshold": None}, "merge_threshold"),
    "column-map-list": ({"column_map": ["a"]}, "column_map"),
    "top-level-list": ([], "expected an object"),
    "separators-string": ({"separators": "---"}, "separators"),
    "separator-empty": ({"separators": [";", ""]}, "separators"),
    "lots-string": ({"inputs": {"lots": "a.csv"}}, "inputs.lots"),
    "inputs-string": ({"inputs": "a.csv"}, "inputs"),
    "weight-string": ({"match": {"address_weights": {"city": "x"}}}, "match.address_weights.city"),
    "activity-map-string": ({"cpv_activity_map": {"45": "43"}}, "cpv_activity_map.45"),
    "unknown-contract-type": ({"contract_type_values": {"WORKS": "bogus"}},
                              "contract_type_values.WORKS"),
    "lexicon-path-missing": ({"criterion_lexicon_path": "/no/such/lexicon.json"},
                             "criterion_lexicon_path"),
    "lexicon-path-int": ({"criterion_lexicon_path": 3}, "criterion_lexicon_path"),
    # a date format that reads no whole date would refuse every lot
    "date-formats-empty": ({"date_formats": []}, "date_formats"),
    "date-format-bad-directive": ({"date_formats": ["%Q"]}, "date_formats"),
    "date-format-year-only": ({"date_formats": ["%Y"]}, "date_formats"),
    "date-format-repeated-directive": ({"date_formats": ["%d/%d/%Y"]}, "date_formats"),
}


def _write(path, data) -> str:
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("data,key", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_config_exits_2_naming_the_key(tmp_path, capsys, data, key):
    config = _write(tmp_path / "cfg.json", data)
    assert main(["ingest", "--config", config, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error")
    assert key in err


@pytest.mark.parametrize(
    "lexicon,key",
    [("[1, 2]", "criterion_lexicon_path"),
     ('{"PRIX": "CHEAP"}', "criterion_lexicon_path.PRIX"),
     ("{not json", "criterion_lexicon_path"),
     ("[" * 100_000, "criterion_lexicon_path")],
)
def test_bad_lexicon_file_exits_2(tmp_path, capsys, lexicon, key):
    (tmp_path / "lexicon.json").write_text(lexicon, encoding="utf-8")
    config = _write(tmp_path / "cfg.json",
                    {"criterion_lexicon_path": str(tmp_path / "lexicon.json")})
    assert main(["ingest", "--config", config]) == EXIT_CONFIG
    assert key in capsys.readouterr().err


def test_range_rules_still_checked():
    for data in ({"period": ["2020-01-01", "2010-01-01"]},
                 {"match": {"address_weights": {"street": float("nan")}}}):
        assert config_from_dict(data).validate()


def _at(key: str, value) -> dict:
    """A config dict holding value at the dotted key path."""
    *parents, last = key.split(".")
    data = {last: value}
    for parent in reversed(parents):
        data = {parent: data}
    return data


UNIT_RANGE_KEYS = ["merge_threshold", "match.name_threshold", "match.min_address_score"]


@pytest.mark.parametrize("key", UNIT_RANGE_KEYS)
@pytest.mark.parametrize("value", [-0.01, 1.01])
def test_unit_range_rule_names_its_key(key, value):
    errors = config_from_dict(_at(key, value)).validate()
    assert errors == [f"{key} must be in [0, 1], got {value}"]


@pytest.mark.parametrize("key", UNIT_RANGE_KEYS)
@pytest.mark.parametrize("value", [0.0, 1.0])
def test_unit_range_bounds_pass(key, value):
    assert config_from_dict(_at(key, value)).validate() == []


@pytest.mark.parametrize("weights,key", [
    ({"street": -1, "zipcode": 1, "city": 1}, "street"),
    ({"street": 0.5, "zipcode": 0.75, "city": -0.25}, "city"),
])
def test_negative_address_weight_is_rejected(weights, key):
    errors = config_from_dict({"match": {"address_weights": weights}}).validate()
    assert f"match.address_weights.{key} must be >= 0, got {float(weights[key])}" in errors


# --------------------------------------------------------------- golden loads

README_EXAMPLE = {
    "inputs": {
        "lots": ["data/lots_2015.csv", "data/lots_2016.csv"],
        "registry_entities": "data/registry_entities.csv",
        "registry_facilities": "data/registry_facilities.csv",
        "postal": "data/postal.csv",
        "contract_notice_ids": "data/contract_notices.txt",
        "ground_truth": "data/truth.csv",
    },
    "output_dir": "out",
    "period": ["2010-01-01", "2020-12-31"],
    "column_map": {"notice_id": "ID_NOTICE_CAN"},
    "cpv_activity_map": {"45": ["43", "41"]},
    "match": {
        "name_threshold": 0.80,
        "address_weights": {"street": 0.40, "zipcode": 0.35, "city": 0.25},
        "min_address_score": 0.30,
    },
    "merge_threshold": 0.85,
}

# The shape tests/corpus.generate_corpus writes, plus an output directory.
CORPUS_CONFIG = {
    "inputs": {
        "lots": ["in/lots.csv"],
        "registry_entities": "in/registry_entities.csv",
        "registry_facilities": "in/registry_facilities.csv",
        "postal": "in/postal.csv",
        "contract_notice_ids": "in/contract_notices.txt",
    },
    "cpv_activity_map": {"45": ["43", "84"], "79": ["84", "43"]},
    "output_dir": "out",
}


def _expect(**changed) -> dict:
    return {**dataclasses.asdict(PipelineConfig()), **changed}


def test_readme_example_loads():
    cfg = config_from_dict(README_EXAMPLE)
    assert dataclasses.asdict(cfg) == _expect(
        lot_files=["data/lots_2015.csv", "data/lots_2016.csv"],
        registry_entity_file="data/registry_entities.csv",
        registry_facility_file="data/registry_facilities.csv",
        postal_file="data/postal.csv",
        contract_notice_file="data/contract_notices.txt",
        ground_truth_file="data/truth.csv",
        period=(dt.date(2010, 1, 1), dt.date(2020, 12, 31)),
        cpv_activity_map={"45": ["43", "41"]},
    )
    assert cfg.match == MatchConfig(0.80, 0.40, 0.35, 0.25, 0.30, 2, False)


def test_jobs_key_of_old_configs_selects_nothing():
    assert config_from_dict({**README_EXAMPLE, "jobs": 4}) == config_from_dict(README_EXAMPLE)


def test_retired_jobs_key_warns_once(caplog):
    config_from_dict({"jobs": 4})
    assert [r.getMessage() for r in caplog.records] == [
        "config key jobs is retired and selects nothing"
    ]


def test_corpus_config_loads():
    assert dataclasses.asdict(config_from_dict(CORPUS_CONFIG)) == _expect(
        lot_files=["in/lots.csv"],
        registry_entity_file="in/registry_entities.csv",
        registry_facility_file="in/registry_facilities.csv",
        postal_file="in/postal.csv",
        contract_notice_file="in/contract_notices.txt",
        cpv_activity_map={"45": ["43", "84"], "79": ["84", "43"]},
    )


def test_empty_config_is_the_defaults():
    assert config_from_dict({}) == PipelineConfig()


def test_maps_merge_ints_widen_and_lexicon_file_wins(tmp_path):
    (tmp_path / "lexicon.json").write_text(
        json.dumps({"PRIX": "PRICE", "VERT": "ENVIRONMENTAL"}), encoding="utf-8"
    )
    cfg = config_from_dict({
        "column_map": {"buyer_name": "ACHETEUR", "extra": "EXTRA"},
        "registry_entity_map": {"siren": "ID"},
        "registry_facility_map": {"city": "VILLE"},
        "cpv_activity_map": None,
        "merge_threshold": 1,
        "match": {"name_threshold": 1, "address_weights": {"street": 1, "zipcode": 0, "city": 0},
                  "activity_prefix_length": 3, "allow_unblocked": True},
        "criterion_lexicon": {"PRIX": "SOCIAL"},
        "criterion_lexicon_path": str(tmp_path / "lexicon.json"),
        "separators": ["--", "|"],
        "period": ["2012-03-01", "2014-06-30"],
    })
    assert list(cfg.column_map.items()) == [
        *{**DEFAULT_COLUMN_MAP, "buyer_name": "ACHETEUR"}.items(), ("extra", "EXTRA")
    ]
    assert cfg.registry_entity_map == {**DEFAULT_REGISTRY_ENTITY_MAP, "siren": "ID"}
    assert cfg.registry_facility_map == {**DEFAULT_REGISTRY_FACILITY_MAP, "city": "VILLE"}
    assert cfg.cpv_activity_map is None
    assert cfg.match == MatchConfig(1.0, 1.0, 0.0, 0.0, 0.30, 3, True)
    assert type(cfg.merge_threshold) is float and cfg.merge_threshold == 1.0
    assert type(cfg.match.zipcode_weight) is float
    assert cfg.criterion_lexicon == {
        "PRIX": CriterionClass.PRICE, "VERT": CriterionClass.ENVIRONMENTAL
    }
    assert cfg.separators == ["--", "|"]
    assert cfg.period == (dt.date(2012, 3, 1), dt.date(2014, 6, 30))
    assert cfg.validate() == []


# ------------------------------------------------------------------ property

# Every place a value can sit in a config file.
KEY_PATHS = [
    (), ("inputs",), ("inputs", "lots"), ("inputs", "registry_entities"),
    ("inputs", "registry_facilities"), ("inputs", "postal"),
    ("inputs", "contract_notice_ids"), ("inputs", "ground_truth"),
    ("output_dir",), ("delimiter",), ("column_map",), ("column_map", "notice_id"),
    ("registry_entity_map",), ("registry_facility_map",), ("separators",),
    ("postal_tokens",), ("unsuccessful_markers",), ("criterion_lexicon",),
    ("criterion_lexicon", "PRIX"), ("criterion_lexicon_path",),
    ("contract_type_values",), ("date_formats",), ("period",), ("match",),
    ("match", "name_threshold"), ("match", "address_weights"),
    ("match", "address_weights", "street"), ("match", "address_weights", "zipcode"),
    ("match", "address_weights", "city"), ("match", "min_address_score"),
    ("match", "activity_prefix_length"), ("match", "allow_unblocked"),
    ("merge_threshold",), ("cpv_activity_map",), ("cpv_activity_map", "45"),
]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def base_config(tmp_path_factory):
    """A valid config whose one lot file exists."""
    directory = tmp_path_factory.mktemp("config")
    (directory / "lots.csv").write_text("ID_NOTICE_CAN,ID_LOT\n", encoding="utf-8")
    return directory, {"inputs": {"lots": [str(directory / "lots.csv")]},
                       "match": {"address_weights": {}}, "cpv_activity_map": {}}


@given(path=st.sampled_from(KEY_PATHS), value=JSON_VALUES)
@settings(max_examples=300, deadline=None)
def test_any_value_anywhere_loads_or_is_config_error(base_config, path, value):
    directory, base = base_config
    data = json.loads(json.dumps(base))
    if path:
        node = data
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
    else:
        data = value
    config = _write(directory / "cfg.json", data)
    try:
        assert isinstance(validate_config(config), PipelineConfig)
    except ConfigError as exc:
        assert str(exc)
