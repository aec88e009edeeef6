"""Command-line interface: dispatch, overrides, exit codes."""
from __future__ import annotations

import csv
import json
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LOT_COLUMNS
from corpus import write_corpus_config
from tedclean.cli import EXIT_CONFIG, EXIT_INPUT, EXIT_INVARIANT, EXIT_OK, build_parser, main
from tedclean.config import (
    DEFAULT_COLUMN_MAP,
    DEFAULT_POSTAL_TOKENS,
    DEFAULT_REGISTRY_ENTITY_MAP,
    DEFAULT_REGISTRY_FACILITY_MAP,
)
from tedclean.models import ContractType, CriterionClass
from tedclean.normalize import normalize_city


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """One full CLI pipeline run shared by the read-only tests."""
    base = tmp_path_factory.mktemp("cli")
    out = base / "out"
    config_path = write_corpus_config(base / "in", out, rows=24, seed=11)
    code = main(["pipeline", "--config", config_path])
    assert code == EXIT_OK
    return config_path, out


@pytest.fixture(scope="module")
def normalized(tmp_path_factory):
    """Checkpoints up to normalize, copied by the corrupted-checkpoint tests."""
    base = tmp_path_factory.mktemp("normalized")
    config_path = write_corpus_config(base / "in", base / "out", rows=6, seed=19)
    code = main(["pipeline", "--config", config_path, "--stage-to", "normalize"])
    assert code == EXIT_OK
    return config_path, base / "out" / "checkpoints"


@pytest.fixture(scope="module")
def merged(tmp_path_factory):
    """Checkpoints up to merge, copied by the stale-partition tests."""
    base = tmp_path_factory.mktemp("merged")
    config_path = write_corpus_config(base / "in", base / "out", rows=12, seed=21)
    code = main(["pipeline", "--config", config_path, "--stage-to", "merge"])
    assert code == EXIT_OK
    return config_path, base / "out" / "checkpoints"


def _corrupt(normalized, tmp_path, stage, name, edit):
    """Copy the checkpoints, rewrite one file's rows through edit(rows),
    and return the CLI arguments that point a stage at the copy."""
    config_path, checkpoints = normalized
    out = tmp_path / "out"
    shutil.copytree(checkpoints, out / "checkpoints")
    path = out / "checkpoints" / stage / name
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(edit(rows))
    return ["--config", config_path, "--out", str(out)]


INPUT_FILES = (
    "lots", "registry_entities", "registry_facilities", "postal", "contract_notice_ids",
    "ground_truth",
)


# the reference files, by config key, and the name an error gives each
REFERENCE_FILES = {
    "registry_entities": "registry entity file",
    "registry_facilities": "registry facility file",
    "postal": "postal file",
    "ground_truth": "ground truth file",
}

# ways to break one line so that it does not parse on its own: the line(s)
# that replace it
BAD_LINES = {
    "unbalanced-quote": lambda line: ['"' + line],
    "cell-spans-lines": lambda line: ['"spans', 'lines",' + line],
    "text-after-quote": lambda line: ['"' + line[:1] + '" ' + line[1:]],
    "nul": lambda line: [line[:1] + "\0" + line[1:]],
    "bare-cr": lambda line: [line[:1] + "\r" + line[1:]],
}


def _input_path(inputs: dict, key: str) -> str:
    return inputs[key][0] if key == "lots" else inputs[key]


def _corpus_with(tmp_path, key, edit):
    """A small corpus with a ground-truth file, after edit(inputs, directory)
    has changed its config's inputs or the files they name; returns the
    config path and the path of input `key`."""
    directory = tmp_path / "in"
    config_path = write_corpus_config(directory, tmp_path / "out", rows=12, seed=20)
    data = json.loads(Path(config_path).read_text(encoding="utf-8"))
    truth = directory / "truth.csv"
    truth.write_text("occurrenceId,siret\n1,10000000000011\n", encoding="utf-8")
    data["inputs"]["ground_truth"] = str(truth)
    edit(data["inputs"], directory)
    Path(config_path).write_text(json.dumps(data), encoding="utf-8")
    return config_path, _input_path(data["inputs"], key)


def _masked_run(tmp_path, key, edit, **overrides):
    """Exit code of `pipeline --mask` on _corpus_with's corpus after edit,
    with the config overrides, and the report it wrote (None if none)."""
    config_path, _ = _corpus_with(tmp_path, key, edit)
    data = json.loads(Path(config_path).read_text(encoding="utf-8"))
    Path(config_path).write_text(json.dumps({**data, **overrides}), encoding="utf-8")
    code = main(["pipeline", "--config", config_path, "--mask"])
    report = tmp_path / "out" / "checkpoints" / "evaluate" / "report.txt"
    return code, report.read_text(encoding="utf-8") if report.exists() else None


def _unedited(inputs, directory):
    pass


def _rewrite_column(path, column, cell):
    """Rewrite `column` of every data row as long as the header as cell(old value)."""
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    at = header.index(column)
    for row in rows:
        if len(row) == len(header):
            row[at] = cell(row[at])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


def _buyer_zipcode_filled(tmp_path, town, postal_row):
    """Lot 2's buyer placed in `town` without a zipcode, and `postal_row`
    added to the postal file: (lot, role, city, zipcode, department) of
    each normalized occurrence whose city folds as `town` does."""
    def edit(inputs, _):
        path = Path(inputs["lots"][0])
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        rows[2][header.index("CAE_POSTAL_CODE")] = ""
        rows[2][header.index("CAE_TOWN")] = town
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        with open(inputs["postal"], "a", encoding="utf-8") as fh:
            fh.write(postal_row + "\n")

    config_path, _ = _corpus_with(tmp_path, "lots", edit)
    assert main(["pipeline", "--config", config_path, "--stage-to", "normalize"]) == EXIT_OK
    path = tmp_path / "out" / "checkpoints" / "normalize" / "occurrences.csv"
    city = normalize_city(town, DEFAULT_POSTAL_TOKENS)
    with open(path, encoding="utf-8", newline="") as fh:
        return [(r["lotId"], r["role"], r["city"], r["zipcode"], r["department"])
                for r in csv.DictReader(fh) if r["city"] == city]


def test_parser_identity_and_subcommands():
    parser = build_parser()
    assert parser.prog == "tedclean"
    for stage in ("ingest", "criteria", "normalize", "identify", "merge", "emit", "evaluate"):
        args = parser.parse_args([stage, "--config", "x.json"])
        assert args.command == stage
    args = parser.parse_args(
        ["pipeline", "--config", "x.json", "--stage-from", "ingest", "--stage-to", "merge"]
    )
    assert (args.stage_from, args.stage_to) == ("ingest", "merge")


def test_missing_config_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pipeline"])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify", "--config", "x.json"])
    assert exc.value.code == 2


def test_pipeline_writes_tables(cli_run):
    _, out = cli_run
    for name in ("Lots.csv", "Agents.csv", "Names.csv", "LotBuyers.csv",
                 "LotSuppliers.csv", "Criteria.csv", "foppa.sql"):
        assert (out / name).exists(), name


def test_single_stage_dispatch(tmp_path):
    config_path = write_corpus_config(tmp_path / "in", tmp_path / "out", rows=6, seed=12)
    assert main(["ingest", "--config", config_path]) == EXIT_OK
    root = tmp_path / "out" / "checkpoints"
    assert (root / "ingest" / "lots.csv").exists()
    assert not (root / "normalize").exists()
    assert main(["criteria", "--config", config_path]) == EXIT_OK
    assert (root / "criteria" / "criteria.csv").exists()


def test_out_override_redirects_output(tmp_path, cli_run):
    config_path, configured_out = cli_run
    moved = tmp_path / "moved"
    code = main(["pipeline", "--config", config_path, "--out", str(moved),
                 "--stage-to", "ingest"])
    assert code == EXIT_OK
    assert (moved / "checkpoints" / "ingest" / "lots.csv").exists()


def test_jobs_and_seed_overrides_accepted(tmp_path):
    config_path = write_corpus_config(tmp_path / "in", tmp_path / "out", rows=6, seed=13)
    code = main(["pipeline", "--config", config_path, "--jobs", "2", "--stage-to", "ingest"])
    assert code == EXIT_OK


def test_masked_evaluate_subcommand(cli_run):
    config_path, out = cli_run
    assert main(["evaluate", "--config", config_path, "--mask"]) == EXIT_OK
    report = out / "checkpoints" / "evaluate"
    assert (report / "mask_outcomes.csv").exists()
    assert (report / "stage_accounting.csv").exists()


def test_evaluate_reads_only_clusters_of_merge(cli_run, tmp_path):
    config_path, out = cli_run
    shutil.copytree(out / "checkpoints", tmp_path / "checkpoints")
    for name in ("occurrences.csv", "agents.csv", "agent_names.csv"):
        (tmp_path / "checkpoints" / "merge" / name).unlink()
    assert main(["evaluate", "--config", config_path, "--out", str(tmp_path)]) == EXIT_OK


def test_delimiter_applies_to_inputs_only(tmp_path):
    """Inputs separated by ';' still yield ','-separated, '\\n'-ended outputs,
    all of them renamed into place."""
    config_path = write_corpus_config(tmp_path / "in", tmp_path / "out", rows=24, seed=14,
                                      delimiter=";")
    inputs = json.loads(Path(config_path).read_text(encoding="utf-8"))["inputs"]
    for key in ("lots", "registry_entities", "registry_facilities", "postal"):
        for name in inputs[key] if key == "lots" else [inputs[key]]:
            with open(name, encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))
            with open(name, "w", encoding="utf-8", newline="") as fh:
                csv.writer(fh, delimiter=";", lineterminator="\n").writerows(rows)
    assert main(["pipeline", "--config", config_path, "--mask"]) == EXIT_OK

    out = tmp_path / "out"
    written = sorted(out.rglob("*.csv"))
    assert {p.name for p in written} >= {"Lots.csv", "match_log.csv", "mask_outcomes.csv"}
    for path in written:
        data = path.read_bytes()
        header = data.split(b"\n", 1)[0]
        assert b"\r" not in data, path
        assert b"," in header and b";" not in header, path
    assert list(out.rglob(".*.tmp")) == []


class TestExitCodes:
    def test_nonexistent_config(self, capsys):
        assert main(["pipeline", "--config", "/no/such/config.json"]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["pipeline", "--config", str(bad)]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_config_with_missing_input_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"inputs": {"lots": ["/no/such/lots.csv"]},
                        "output_dir": str(tmp_path / "out")}),
            encoding="utf-8",
        )
        assert main(["pipeline", "--config", str(cfg)]) == EXIT_CONFIG
        assert "lot file does not exist" in capsys.readouterr().err

    def test_bad_jobs_value(self, tmp_path, capsys):
        config_path = write_corpus_config(tmp_path / "in", tmp_path / "out", rows=3, seed=14)
        assert main(["pipeline", "--config", config_path, "--jobs", "0"]) == EXIT_CONFIG
        assert "--jobs" in capsys.readouterr().err

    def test_stage_without_checkpoint(self, tmp_path, capsys):
        config_path = write_corpus_config(tmp_path / "in", tmp_path / "out", rows=3, seed=15)
        assert main(["identify", "--config", config_path]) == EXIT_CONFIG
        assert "checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ingest", "pipeline"])
    @pytest.mark.parametrize("under", ["", "sub/dir"], ids=["file", "under-file"])
    def test_out_is_a_file(self, tmp_path, capsys, command, under):
        config_path = write_corpus_config(tmp_path / "in", tmp_path / "out", rows=3, seed=14)
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n", encoding="utf-8")
        out = blocker / under if under else blocker
        assert main([command, "--config", config_path, "--out", str(out)]) == EXIT_CONFIG
        assert f"{blocker} is not a directory" in capsys.readouterr().err
        assert blocker.read_text(encoding="utf-8") == "not a directory\n"

    @pytest.mark.parametrize("name", ["out\0x", "x" * 300 + "/out"], ids=["nul", "too-long"])
    def test_out_cannot_be_made(self, tmp_path, capsys, name):
        config_path = write_corpus_config(tmp_path / "in", tmp_path / "out", rows=3, seed=14)
        out = str(tmp_path / name)
        assert main(["pipeline", "--config", config_path, "--out", out]) == EXIT_CONFIG
        assert f"output directory {out!r} cannot be made" in capsys.readouterr().err

    def test_contract_type_keys_that_fold_alike(self, tmp_path, capsys):
        config_path = write_corpus_config(
            tmp_path / "in", tmp_path / "out", rows=3, seed=14,
            contract_type_values={"Travaux": "works", "TRAVAUX": "goods"},
        )
        assert main(["pipeline", "--config", config_path]) == EXIT_CONFIG
        assert "keys 'Travaux' and 'TRAVAUX' both fold to 'TRAVAUX'" in capsys.readouterr().err

    def test_stage_range_inverted(self, tmp_path, capsys):
        config_path = write_corpus_config(tmp_path / "in", tmp_path / "out", rows=3, seed=16)
        code = main(["pipeline", "--config", config_path,
                     "--stage-from", "merge", "--stage-to", "ingest"])
        assert code == EXIT_CONFIG

    def test_empty_lot_file_is_input_error(self, tmp_path, capsys):
        config_path = write_corpus_config(tmp_path / "in", tmp_path / "out", rows=3, seed=17)
        data = json.loads(Path(config_path).read_text(encoding="utf-8"))
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        data["inputs"]["lots"] = [str(empty)]
        cfg2 = tmp_path / "cfg2.json"
        cfg2.write_text(json.dumps(data), encoding="utf-8")
        assert main(["ingest", "--config", str(cfg2)]) == EXIT_INPUT
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "header", ["A\0,B", ",".join(LOT_COLUMNS + ["X\0"])], ids=["two-columns", "all-mandatory"]
    )
    def test_nul_in_lot_header_is_input_error(self, tmp_path, capsys, header):
        # Python 3.10's csv raises on the NUL; 3.11+ keeps it in the column name
        config_path = write_corpus_config(tmp_path / "in", tmp_path / "out", rows=3, seed=17)
        data = json.loads(Path(config_path).read_text(encoding="utf-8"))
        lots = tmp_path / "nul.csv"
        lots.write_text(header + "\n1,2\n", encoding="utf-8")
        data["inputs"]["lots"] = [str(lots)]
        cfg2 = tmp_path / "cfg2.json"
        cfg2.write_text(json.dumps(data), encoding="utf-8")
        assert main(["pipeline", "--config", str(cfg2)]) == EXIT_INPUT
        assert f"{lots} header" in capsys.readouterr().err

    def test_corrupted_checkpoint_is_invariant_error(self, tmp_path, capsys):
        config_path = write_corpus_config(tmp_path / "in", tmp_path / "out", rows=6, seed=18)
        assert main(["pipeline", "--config", config_path, "--stage-to", "merge"]) == EXIT_OK
        agents = tmp_path / "out" / "checkpoints" / "merge" / "agents.csv"
        with open(agents, encoding="utf-8", newline="") as fh:
            header = next(csv.reader(fh))
        agents.write_text(",".join(header) + "\n", encoding="utf-8")
        names = tmp_path / "out" / "checkpoints" / "merge" / "agent_names.csv"
        with open(names, encoding="utf-8", newline="") as fh:
            names_header = next(csv.reader(fh))
        names.write_text(",".join(names_header) + "\n", encoding="utf-8")
        assert main(["emit", "--config", config_path]) == EXIT_INVARIANT
        assert "invariant violated" in capsys.readouterr().err

    def test_unknown_lot_fails_alike_serial_and_parallel(self, tmp_path, capsys):
        # 30 rows: more occurrences than jobs=4, which must change no byte of the error
        config_path = write_corpus_config(tmp_path / "in", tmp_path / "out", rows=30, seed=4)
        assert main(["pipeline", "--config", config_path, "--stage-to", "normalize"]) == EXIT_OK
        capsys.readouterr()
        lots = tmp_path / "out" / "checkpoints" / "ingest" / "lots.csv"
        with open(lots, encoding="utf-8", newline="") as fh:
            rows = [row for row in csv.reader(fh) if row[0] != "1"]
        with open(lots, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        errors = []
        for jobs in ("1", "4"):
            assert main(["identify", "--config", config_path, "--jobs", jobs]) == EXIT_INVARIANT
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "occurrence 1 references unknown lot 1" in errors[0]

    def test_corrupted_int_cell(self, normalized, tmp_path, capsys):
        def edit(rows):
            rows[1][rows[0].index("lotId")] = "x"
            return rows

        args = _corrupt(normalized, tmp_path, "ingest", "occurrences.csv", edit)
        assert main(["normalize"] + args) == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert "occurrences.csv, line 2: column lotId" in err

    def test_corrupted_enum_cell(self, normalized, tmp_path, capsys):
        def edit(rows):
            rows[1][rows[0].index("role")] = "seller"
            return rows

        args = _corrupt(normalized, tmp_path, "ingest", "occurrences.csv", edit)
        assert main(["normalize"] + args) == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert "occurrences.csv, line 2: column role" in err

    @pytest.mark.parametrize("flags", [[], ["--mask"]], ids=["plain", "masked"])
    @pytest.mark.parametrize("edit", ["dropped-cluster", "repeated-member"])
    def test_stale_clusters_are_invariant_error(self, merged, tmp_path, capsys, edit, flags):
        def drop(rows):
            return rows[:1] + rows[2:]

        def repeat(rows):
            at = rows[0].index("memberIds")
            rows[2][at] += " " + rows[1][at].split()[0]
            return rows

        editor = drop if edit == "dropped-cluster" else repeat
        args = _corrupt(merged, tmp_path, "merge", "clusters.csv", editor)
        assert main(["evaluate"] + flags + args) == EXIT_INVARIANT
        assert "clusters.csv" in capsys.readouterr().err

    def test_dropped_column(self, normalized, tmp_path, capsys):
        def edit(rows):
            return [row[:-1] for row in rows]

        args = _corrupt(normalized, tmp_path, "ingest", "criteria_raw.csv", edit)
        assert main(["criteria"] + args) == EXIT_INVARIANT
        assert "criteria_raw.csv: header" in capsys.readouterr().err

    def test_bad_awarded_value(self, normalized, tmp_path, capsys):
        def edit(rows):
            rows[1][rows[0].index("awardedValue")] = "12 000 EUR"
            return rows

        args = _corrupt(normalized, tmp_path, "ingest", "lots.csv", edit)
        assert main(["identify"] + args) == EXIT_INVARIANT
        assert "lots.csv, line 2: column awardedValue" in capsys.readouterr().err

    @pytest.mark.parametrize("key", INPUT_FILES)
    def test_latin1_input_is_input_error(self, tmp_path, capsys, key):
        def edit(inputs, _):
            with open(_input_path(inputs, key), "ab") as fh:
                fh.write("Société,1\n".encode("latin-1"))

        config_path, path = _corpus_with(tmp_path, key, edit)
        assert main(["pipeline", "--config", config_path, "--mask"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "input error: cannot read" in err and path in err

    @pytest.mark.parametrize("key", INPUT_FILES)
    def test_directory_input_is_input_error(self, tmp_path, capsys, key):
        def edit(inputs, directory):
            (directory / "a_directory").mkdir()
            inputs[key] = [str(directory / "a_directory")] if key == "lots" else str(
                directory / "a_directory"
            )

        config_path, path = _corpus_with(tmp_path, key, edit)
        assert main(["pipeline", "--config", config_path, "--mask"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "input error: cannot read" in err and path in err

    def test_unparseable_csv_input_is_input_error(self, tmp_path, capsys):
        def edit(inputs, _):
            with open(inputs["postal"], "a", encoding="utf-8") as fh:
                fh.write('"' + "x" * (csv.field_size_limit() + 1) + '",69001\n')

        config_path, path = _corpus_with(tmp_path, "postal", edit)
        assert main(["pipeline", "--config", config_path]) == EXIT_INPUT
        assert f"input error: cannot parse postal file {path}" in capsys.readouterr().err

    @pytest.mark.parametrize("delimiter", ['"', "\r", "\n", "\0"], ids=["quote", "cr", "lf", "nul"])
    def test_delimiter_csv_refuses_is_config_error(self, tmp_path, capsys, delimiter):
        config_path = write_corpus_config(tmp_path / "in", tmp_path / "out", rows=3, seed=23,
                                          delimiter=delimiter)
        assert main(["pipeline", "--config", config_path]) == EXIT_CONFIG
        assert "delimiter must be a single character other than" in capsys.readouterr().err

    @pytest.mark.parametrize("key", REFERENCE_FILES)
    @pytest.mark.parametrize("breakage", BAD_LINES)
    def test_bad_reference_line_is_input_error(self, tmp_path, capsys, key, breakage):
        """Line 2 of a registry, postal or ground-truth file does not parse on
        its own: the run stops naming the file and the line, whatever a
        whole-file reader would have made of the lines after it."""
        def edit(inputs, _):
            path = Path(_input_path(inputs, key))
            lines = path.read_text(encoding="utf-8").split("\n")
            lines[1:2] = BAD_LINES[breakage](lines[1])
            path.write_text("\n".join(lines), encoding="utf-8", newline="")

        config_path, path = _corpus_with(tmp_path, key, edit)
        assert main(["pipeline", "--config", config_path, "--mask"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"input error: cannot parse {REFERENCE_FILES[key]} {path}, line 2: " in err

    @pytest.mark.parametrize(
        "content,message",
        [
            ("occurrenceId,label\n1,11111111100011\n", "missing column(s) siret"),
            ("id,siret\n1,11111111100011\n", "missing column(s) occurrenceId"),
            ("occurrenceId,siret\none,11111111100011\n", "'one' is not a whole number"),
            ("occurrenceId,siret\n99999,11111111100011\n", "[99999] name no occurrence"),
            ("occurrenceId,siret\n1,99999999900011\n01,10000000000011\n",
             "occurrenceId 1 listed twice"),
        ],
    )
    def test_bad_ground_truth_is_input_error(self, tmp_path, capsys, content, message):
        def edit(inputs, directory):
            inputs["ground_truth"] = str(directory / "truth.csv")
            (directory / "truth.csv").write_text(content, encoding="utf-8")

        config_path, path = _corpus_with(tmp_path, "ground_truth", edit)
        assert main(["pipeline", "--config", config_path, "--mask"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"input error: ground truth file {path}" in err and message in err

    @pytest.mark.parametrize(
        "key,column",
        [
            ("registry_entities", "SIREN"),
            ("registry_entities", "LEGAL_NAME"),
            ("registry_facilities", "SIRET"),
        ],
    )
    def test_registry_header_without_key_column(self, tmp_path, capsys, key, column):
        def edit(inputs, _):
            path = Path(inputs[key])
            header, rest = path.read_text(encoding="utf-8").split("\n", 1)
            header = ",".join("RENAMED" if h == column else h for h in header.split(","))
            path.write_text(header + "\n" + rest, encoding="utf-8")

        config_path, path = _corpus_with(tmp_path, key, edit)
        assert main(["pipeline", "--config", config_path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{path}: header is missing mandatory column(s) {column}" in err

    @pytest.mark.parametrize(
        "key", ["lots", "registry_entities", "registry_facilities", "ground_truth",
                "contract_notice_ids"],
    )
    def test_byte_order_mark_changes_nothing(self, tmp_path, key):
        def add_mark(inputs, _):
            path = Path(_input_path(inputs, key))
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())

        plain = _masked_run(tmp_path / "plain", key, _unedited)
        assert plain[0] == EXIT_OK
        assert _masked_run(tmp_path / "marked", key, add_mark) == plain

    @pytest.mark.parametrize(
        "key,what,kind",
        [
            ("registry_entities", "registry entity file", "SIREN"),
            ("registry_facilities", "registry facility file", "SIRET"),
        ],
    )
    def test_repeated_registry_identifier_is_input_error(self, tmp_path, capsys, key, what, kind):
        """A second row for a loaded identifier would replace the first and
        leave the first one's index entries behind."""
        def repeat(inputs, _):
            path = Path(inputs[key])
            lines = path.read_text(encoding="utf-8").split("\n")
            lines.insert(-1, lines[1].replace("Ville000", "Ville999"))
            path.write_text("\n".join(lines), encoding="utf-8")

        config_path, path = _corpus_with(tmp_path, key, repeat)
        identifier = Path(path).read_text(encoding="utf-8").split("\n")[1].split(",")[0]
        assert main(["pipeline", "--config", config_path]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"input error: {what} {path}: {kind} {identifier} listed twice" in err

    def test_digit_bearing_city_gets_its_zipcode(self, tmp_path):
        """The postal table folds its cities as the occurrences' are folded,
        digits and all, so `Lyon 3e` finds `LYON 3E`'s zipcode."""
        assert _buyer_zipcode_filled(tmp_path, "Lyon 3e", "LYON 3E,69003") == [
            ("2", "buyer", "LYON E", "69003", "69")
        ]

    def test_postal_row_without_five_digits_fills_nothing(self, tmp_path):
        assert _buyer_zipcode_filled(tmp_path, "Brest", "Brest,2920") == [
            ("2", "buyer", "BREST", "", "")
        ]

    def test_noisy_reference_zipcodes_identify_as_clean_ones(self, tmp_path):
        """Registry cells `F-<zip> CEDEX` and postal cells `<zip> CEDEX` read
        by the lot rows' zipcode rule: the run identifies as the clean one."""
        def noisy(inputs, _):
            _rewrite_column(inputs["registry_facilities"], "POSTAL_CODE", "F-{} CEDEX".format)
            _rewrite_column(inputs["postal"], "zipcode", "{} CEDEX".format)

        def run(directory, edit):
            code, report = _masked_run(directory, "postal", edit)
            match_log = directory / "out" / "checkpoints" / "identify" / "match_log.csv"
            return code, report, match_log.read_bytes()

        clean = run(tmp_path / "clean", _unedited)
        assert clean[0] == EXIT_OK
        assert b",matched," in clean[2]
        assert run(tmp_path / "noisy", noisy) == clean

    def test_negative_address_weight(self, tmp_path, capsys):
        config_path = write_corpus_config(
            tmp_path / "in", tmp_path / "out", rows=3, seed=14,
            match={"address_weights": {"street": -1, "zipcode": 1, "city": 1}},
        )
        assert main(["pipeline", "--config", config_path]) == EXIT_CONFIG
        assert "match.address_weights.street must be >= 0" in capsys.readouterr().err

    def test_present_fields_that_weigh_nothing(self, tmp_path):
        """Street-only weights on lots without streets: the zipcode and city
        present on both sides weigh nothing, so a name match stands alone."""
        def no_streets(inputs, _):
            for column in ("CAE_ADDRESS", "WIN_ADDRESS"):
                _rewrite_column(inputs["lots"][0], column, lambda _: "")

        weights = {"street": 1, "zipcode": 0, "city": 0}
        code, report = _masked_run(tmp_path, "lots", no_streets,
                                   match={"address_weights": weights})
        assert code == EXIT_OK
        assert report is not None

    def test_padded_registry_header_names_are_read(self, tmp_path):
        def pad(inputs, _):
            path = Path(inputs["registry_facilities"])
            header, rest = path.read_text(encoding="utf-8").split("\n", 1)
            path.write_text(",".join(f" {h} " for h in header.split(",")) + "\n" + rest,
                            encoding="utf-8")

        plain = _masked_run(tmp_path / "plain", "registry_facilities", _unedited)
        assert plain[0] == EXIT_OK
        assert _masked_run(tmp_path / "padded", "registry_facilities", pad) == plain

    def test_field_mapped_to_nothing_reads_no_blank_named_column(self, tmp_path):
        """activity_code mapped to "": a blank-named column holding an
        activity no CPV code allows is not the facilities' activity."""
        def add_blank_column(inputs, _):
            path = Path(inputs["registry_facilities"])
            header, *rows = path.read_text(encoding="utf-8").removesuffix("\n").split("\n")
            path.write_text("\n".join([header + ","] + [row + ",9999Z" for row in rows]) + "\n",
                            encoding="utf-8")

        off = {"registry_facility_map": {"activity_code": ""}}
        plain = _masked_run(tmp_path / "plain", "registry_facilities", _unedited, **off)
        assert plain[0] == EXIT_OK
        assert _masked_run(tmp_path / "blank", "registry_facilities", add_blank_column,
                           **off) == plain

    @pytest.mark.parametrize(
        "map_name,key",
        [
            ("column_map", "buyer_name"),
            ("column_map", "notice_id"),
            ("registry_entity_map", "siren"),
            ("registry_entity_map", "legal_name"),
            ("registry_facility_map", "siret"),
        ],
    )
    def test_empty_mandatory_column_name(self, tmp_path, capsys, map_name, key):
        config_path = write_corpus_config(tmp_path / "in", tmp_path / "out", rows=3, seed=22,
                                          **{map_name: {key: ""}})
        assert main(["pipeline", "--config", config_path]) == EXIT_CONFIG
        assert f"{map_name}.{key} must name a column" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_truncated_row(self, normalized, tmp_path, capsys):
        def edit(rows):
            rows[-1] = rows[-1][:5]
            return rows

        args = _corrupt(normalized, tmp_path, "normalize", "occurrences.csv", edit)
        assert main(["identify"] + args) == EXIT_INVARIANT
        assert "cells, expected 15" in capsys.readouterr().err


@pytest.fixture(scope="module")
def fuzz_config(tmp_path_factory):
    """A corpus config whose lot file each fuzz example rewrites."""
    base = tmp_path_factory.mktemp("fuzz")
    config_path = write_corpus_config(base / "in", base / "out", rows=3, seed=21)
    return config_path, Path(json.loads(Path(config_path).read_text(encoding="utf-8"))
                             ["inputs"]["lots"][0])


_CELL = st.one_of(
    st.text(max_size=16),
    st.sampled_from(["", "2015-06-01", "2015-06-01T00:00", "45210000", "12345678900011",
                     "12 000,50", "²", "INFRUCTUEUX", "---", "Prix;Qualité", "60;40"]),
)
# rows of the header's width reach build_lot and beyond; raw bytes test the reader
_ROWS = st.lists(
    st.lists(_CELL, min_size=len(LOT_COLUMNS), max_size=len(LOT_COLUMNS)), max_size=4
).map(lambda rows: "".join(
    ",".join('"' + c.replace('"', '""') + '"' for c in row) + "\n" for row in rows
).encode("utf-8"))


@given(body=st.one_of(st.binary(max_size=200), _ROWS))
@settings(max_examples=200, deadline=None)
def test_any_lot_file_ends_in_an_exit_code(fuzz_config, body):
    """A valid header followed by any bytes: an exit code, never a traceback."""
    config_path, lots = fuzz_config
    lots.write_bytes((",".join(LOT_COLUMNS) + "\n").encode("utf-8") + body)
    code = main(["pipeline", "--config", config_path, "--mask"])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_INPUT, EXIT_INVARIANT)


@pytest.fixture(scope="module")
def config_corpus(tmp_path_factory):
    """An 8-row corpus with a ground-truth file; each fuzz example rewrites
    its config."""
    base = tmp_path_factory.mktemp("config-fuzz")
    config_path = write_corpus_config(base / "in", base / "out", rows=8, seed=24)
    data = json.loads(Path(config_path).read_text(encoding="utf-8"))
    truth = base / "in" / "truth.csv"
    truth.write_text("occurrenceId,siret\n1,10000000000011\n", encoding="utf-8")
    data["inputs"]["ground_truth"] = str(truth)
    return Path(config_path), data


# quotes, NUL, line breaks, % formats, separators and column names the corpus has
_STRING = st.one_of(
    st.text(max_size=8),
    st.sampled_from(
        ['"', "\0", "\r", "\n", "\r\n", "%", "%s", "%Q", "%Y", "%Y-%m-%d", "%d/%m/%Y",
         "---", ";", " / ", ",", "\t", "", "SIREN", "SIRET", "LEGAL_NAME", "NAMES",
         "POSTAL_CODE", "OPENED", "city", "zipcode", "45", "43", "84", "INFRUCTUEUX"]
        + LOT_COLUMNS
    ),
)
_NUMBER = st.sampled_from([0, 1, 5e-324, 1e308, 0.25, 0.8, -1])
_STRINGS = st.lists(_STRING, max_size=3)


def _header_map(defaults: dict) -> st.SearchStrategy:
    return st.dictionaries(st.sampled_from(sorted(defaults)), _STRING, max_size=4)


def _some(**fields) -> st.SearchStrategy:
    """A JSON object holding any subset of the fields, each drawn from its strategy."""
    return st.fixed_dictionaries({}, optional=fields)


_CONFIG_FIELDS = _some(
    delimiter=_STRING,
    column_map=_header_map(DEFAULT_COLUMN_MAP),
    registry_entity_map=_header_map(DEFAULT_REGISTRY_ENTITY_MAP),
    registry_facility_map=_header_map(DEFAULT_REGISTRY_FACILITY_MAP),
    separators=_STRINGS,
    postal_tokens=_STRINGS,
    unsuccessful_markers=_STRINGS,
    criterion_lexicon=st.dictionaries(
        st.sampled_from(["PRIX", "QUALITE", "DELAI"]) | _STRING,
        st.sampled_from([c.value for c in CriterionClass]) | _STRING,
        max_size=3,
    ),
    contract_type_values=st.dictionaries(
        st.sampled_from(["WORKS", "SERVICES", "SUPPLIES"]) | _STRING,
        st.sampled_from([t.value for t in ContractType]) | _STRING,
        max_size=3,
    ),
    date_formats=_STRINGS,
    period=st.lists(st.dates(), min_size=2, max_size=2).map(
        lambda dates: [d.isoformat() for d in sorted(dates)]
    ),
    match=_some(
        name_threshold=_NUMBER,
        min_address_score=_NUMBER,
        address_weights=_some(street=_NUMBER, zipcode=_NUMBER, city=_NUMBER),
        activity_prefix_length=st.sampled_from([0, 1, 2, 5, 10 ** 6]),
        allow_unblocked=st.booleans(),
    ),
    merge_threshold=_NUMBER,
    cpv_activity_map=st.none() | st.dictionaries(_STRING, _STRINGS, max_size=3),
)
# optional inputs, each kept or dropped
_DROPPED_INPUTS = st.sets(st.sampled_from(
    ["registry_entities", "registry_facilities", "postal", "contract_notice_ids", "ground_truth"]
))


@given(fields=_CONFIG_FIELDS, dropped=_DROPPED_INPUTS)
@settings(max_examples=100, deadline=None)
def test_any_config_ends_in_an_exit_code(config_corpus, fields, dropped):
    """Values of the right type in every field of a real corpus's config: an
    exit code, never a traceback (jobs stays 1, so no example forks)."""
    config_path, data = config_corpus
    inputs = {k: v for k, v in data["inputs"].items() if k not in dropped}
    config_path.write_text(json.dumps({**data, **fields, "inputs": inputs, "jobs": 1}),
                           encoding="utf-8")
    code = main(["pipeline", "--config", str(config_path), "--mask"])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_INPUT, EXIT_INVARIANT)
