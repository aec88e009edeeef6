"""Metamorphic gates: the database depends on the data, not on how it is fed.

One corpus (1,500 rows, seed 3, 120 registry agents in 12 departments) runs
through the CLI, `pipeline --mask`, in a subprocess per case. Under another
hash seed the whole output tree, checkpoints included, is byte for byte the
same. With the inputs moved to another directory it is too, all but
`checkpoints/ingest/rejections.csv`, whose rows name the input file a
refused line came from. With the registry rows shuffled, the lot file split
into two or three files in order (each with the header), CRLF line ends or
a UTF-8 byte-order mark on every input, the six tables and `foppa.sql` are.
"""
from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tedclean
from corpus import generate_corpus

SRC = Path(tedclean.__file__).resolve().parent.parent
TABLES = ("Lots.csv", "Agents.csv", "Names.csv", "LotBuyers.csv", "LotSuppliers.csv",
          "Criteria.csv", "foppa.sql")
INPUT_FILES = ("lots", "registry_entities", "registry_facilities", "postal",
               "contract_notice_ids")


def _run(config: Path, out: Path, hash_seed: str = "0") -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, "-m", "tedclean.cli", "pipeline", "--mask",
         "--config", str(config), "--out", str(out)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def _tree(top: Path) -> dict[str, bytes]:
    return {str(p.relative_to(top)): p.read_bytes() for p in sorted(top.rglob("*")) if p.is_file()}


def _tables(out: Path) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for name in TABLES}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> tuple[Path, Path]:
    """The corpus's inputs and config, and the output of its plain run."""
    base = tmp_path_factory.mktemp("metamorphic")
    data = generate_corpus(base / "in", 1500, seed=3, registry_agents=120,
                           departments=[str(d) for d in range(10, 22)])
    config = base / "in" / "config.json"
    config.write_text(json.dumps(data), encoding="utf-8")
    _run(config, base / "out")
    return config, base / "out"


def _edited(corpus, directory: Path, edit) -> Path:
    """A copy of the corpus's inputs under directory, after edit(inputs)
    has changed the files or the config's inputs; the copy's config."""
    config, _ = corpus
    shutil.copytree(config.parent, directory)
    data = json.loads(config.read_text(encoding="utf-8"))
    inputs = data["inputs"]

    def moved(path: str) -> str:
        return str(directory / Path(path).name)

    for key in INPUT_FILES:
        inputs[key] = [moved(p) for p in inputs[key]] if key == "lots" else moved(inputs[key])
    edit(inputs)
    path = directory / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def _input_paths(inputs: dict) -> list[Path]:
    return [Path(p) for key in INPUT_FILES
            for p in (inputs[key] if key == "lots" else [inputs[key]])]


def shuffle_registry(inputs: dict) -> None:
    for key in ("registry_entities", "registry_facilities"):
        path = Path(inputs[key])
        header, *rows = path.read_text(encoding="utf-8").removesuffix("\n").split("\n")
        random.Random(key).shuffle(rows)
        path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


def split_lots(parts: int):
    def split(inputs: dict) -> None:
        path = Path(inputs["lots"][0])
        header, *lines = path.read_text(encoding="utf-8").removesuffix("\n").split("\n")
        size = -(-len(lines) // parts)
        inputs["lots"] = []
        for n in range(parts):
            part = path.with_name(f"lots-{n + 1}.csv")
            part.write_text("\n".join([header, *lines[n * size:(n + 1) * size]]) + "\n",
                            encoding="utf-8")
            inputs["lots"].append(str(part))
        path.unlink()

    return split


def crlf_line_ends(inputs: dict) -> None:
    for path in _input_paths(inputs):
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))


def byte_order_mark(inputs: dict) -> None:
    for path in _input_paths(inputs):
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())


def test_hash_seed_changes_no_byte(corpus, tmp_path):
    config, out = corpus
    _run(config, tmp_path / "out", hash_seed="1")
    assert _tree(tmp_path / "out") == _tree(out)


def test_moving_the_inputs_changes_no_byte_but_the_rejections(corpus, tmp_path):
    config = _edited(corpus, tmp_path / "moved", lambda inputs: None)
    _run(config, tmp_path / "out")
    moved, plain = _tree(tmp_path / "out"), _tree(corpus[1])
    rejections = "checkpoints/ingest/rejections.csv"
    assert moved.pop(rejections) != plain.pop(rejections)
    assert moved == plain


@pytest.mark.parametrize("edit", [
    shuffle_registry, split_lots(2), split_lots(3), crlf_line_ends, byte_order_mark,
], ids=["shuffled-registry", "lots-in-two", "lots-in-three", "crlf", "bom"])
def test_how_inputs_are_fed_changes_no_table(corpus, tmp_path, edit):
    config = _edited(corpus, tmp_path / "in", edit)
    _run(config, tmp_path / "out")
    assert _tables(tmp_path / "out") == _tables(corpus[1])
