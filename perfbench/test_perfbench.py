"""Tests of the benchmark itself, on tiny corpora so they run in seconds.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    "tiny": {"rows": 60, "registry_agents": 8, "departments": None, "jobs": 2, "mask": False},
    "tiny-mask": {"rows": 60, "registry_agents": 8, "departments": None, "jobs": 1, "mask": True},
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORKLOADS", TINY)
    monkeypatch.setattr(run, "WORK_ROOT", tmp_path / "work")
    monkeypatch.setattr(run, "SETUP_PASSES", 1)
    return tmp_path


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_printed_with_its_unit(tiny, capsys, workload, trace, section):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert not (tiny / "work").exists()


def test_failing_run_is_counted_in_failed_pct(tiny, capsys):
    work = tiny / "work"
    bench = run.Bench("tiny", 0, work)
    assert bench.pipeline(traced=False).ok
    config = json.loads(bench.config.read_text(encoding="utf-8"))
    config["inputs"]["lots"] = [str(work / "absent.csv")]
    bench.config.write_text(json.dumps(config), encoding="utf-8")
    failed = bench.pipeline(traced=False)
    assert failed.code == 2 and not failed.ok

    result = run.report(bench, {}, [])
    out = capsys.readouterr().out
    assert "failed_pct 50.0 (1 of 2 runs)" in out
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, False)


def test_output_checks_catch_lost_rows(tiny):
    bench = run.Bench("tiny", 0, tiny / "work")
    rep = bench.pipeline(traced=False)
    assert rep.ok and rep.digest
    lots = rep.out / "Lots.csv"
    lots.write_text("".join(lots.read_text(encoding="utf-8").splitlines(True)[:-1]), encoding="utf-8")
    problems, digest = run.check_outputs(rep.out, bench.data_lines, masked=False)
    assert any("Lots" in p for p in problems)
    assert digest != rep.digest

    problems, _ = run.check_outputs(rep.out, bench.data_lines + 1, masked=False)
    assert any("accounted for" in p for p in problems)


def test_plain_runs_are_paced_and_scaled(tiny, monkeypatch):
    monkeypatch.setattr(run, "WORKLOADS", dict(TINY, slow=dict(TINY["tiny"], rows=400)))
    bench = run.Bench("slow", 0, tiny / "work")
    rep = bench.pipeline(traced=False)
    samples = json.loads(rep.out.with_suffix(".pace.json").read_text(encoding="utf-8"))
    assert rep.ok and samples, "the timer sampled the run"
    assert rep.sampling == sum(samples) < rep.wall / 10
    assert rep.pace > 0
    # a host twice as slow takes twice as long for the same work
    assert run.host_scaled(2 * rep.wall, 2 * rep.pace) == pytest.approx(run.host_scaled(rep.wall, rep.pace))
    assert rep.scaled == pytest.approx((rep.wall - rep.sampling) * run.REFERENCE_S / rep.pace)


def test_same_seed_gives_same_input_bytes(tiny):
    first = run.Bench("tiny", 5, tiny / "a")
    second = run.Bench("tiny", 5, tiny / "b")
    other = run.Bench("tiny", 6, tiny / "c")
    assert first.input_digest == second.input_digest != other.input_digest


@pytest.mark.parametrize("workload", sorted(TINY))
def test_span_self_times_add_up_to_no_more_than_their_parent(tiny, workload):
    bench = run.Bench(workload, 0, tiny / "work")
    rep = bench.pipeline(traced=True)
    assert rep.ok
    trace = json.loads(rep.out.with_suffix(".trace.json").read_text(encoding="utf-8"))
    spans = {s["id"]: s for s in trace["spans"]}
    children: dict = {}
    for span in spans.values():
        assert span["self"] >= 0
        children.setdefault(span["parent"], []).append(span)
    for parent_id, kids in children.items():
        if parent_id is None:
            continue
        parent = spans[parent_id]
        assert sum(k["end"] - k["start"] for k in kids) <= parent["end"] - parent["start"]
        assert sum(k["self"] for k in kids) <= parent["end"] - parent["start"] - parent["self"] + 1e-9
    stages = [s for s in spans.values() if s["name"].startswith("stage.")]
    assert {s["name"] for s in stages} == {f"stage.{n}" for n in
                                          ("ingest", "criteria", "normalize", "identify",
                                           "merge", "emit", "evaluate")}
    assert rep.layers["pipeline.checkpoint_s"] <= sum(s["end"] - s["start"] for s in stages)
    # with jobs=2 these counts come back from the pool workers
    assert rep.layers["identify.name_calls"] > 0
    if not bench.spec["mask"]:
        attempts = rep.layers["identify.matched"] + sum(
            rep.layers[f"identify.fail.{r}"] for r in run.FAIL_REASONS
        )
        assert rep.layers["identify.payloads"] == attempts


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "match", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
