"""tedclean benchmark: run one workload on inputs made from a seed.

    python3 perfbench/run.py --workload match --seed 0 --seconds 30 --trace 0

The inputs come from tests/corpus.generate_corpus, so they are the test
suite's synthetic corpus at the workload's size. The real CLI runs as a
child process (perfbench/pace.py calls tedclean.cli.main with `pipeline
--config ... --out DIR`), once per repetition, into a fresh output
directory, until --seconds have been spent. Every repetition's outputs are
checked. The speed of a shared host drifts by tens of percent within
seconds, so pace.py samples it while the CLI runs, and the end-to-end times
are scaled to a fixed reference speed (see host_scaled). The last line of
standard output is one JSON object: with --trace 0 it holds the end-to-end
metrics, with --trace 1 the per-layer metrics of perfbench/tracer.py plus
the tracing overhead. Metric names and units come from BENCHMARK.json.
See perfbench/README.md for what each metric means.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import sqlite3
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from pace import reference_loop

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench_work"

# Why each workload exists is in BENCHMARK.json; the sizes are tuned so a
# repetition takes a few seconds on a 2-core machine.
WORKLOADS = {
    "match": {"rows": 600, "registry_agents": 400,
              "departments": [f"{d:02d}" for d in range(10, 90)], "jobs": 2, "mask": False},
    "bulk": {"rows": 5000, "registry_agents": 8, "departments": None, "jobs": 1, "mask": False},
    "mask": {"rows": 1000, "registry_agents": 40,
             "departments": [f"{d:02d}" for d in range(10, 22)], "jobs": 1, "mask": True},
}

TABLES = ("Lots", "Agents", "Names", "LotBuyers", "LotSuppliers", "Criteria")
REJECT_REASONS = ("missing-notice-id", "missing-publication-date", "out-of-period")
FAIL_REASONS = ("no-name", "unblockable", "blocking", "name", "address")
SETUP_PASSES = 3  # before the first repetition and after each plain one
# What pace.reference_loop takes on the 2-vCPU Intel Xeon VM (Python 3.11.7)
# the benchmark was tuned on: the median over 60 repetitions of all three
# workloads. Scaled times read as seconds on that host at its median speed.
REFERENCE_S = 0.00186
SPEED_SAMPLES = 5  # reference loops timed here before each child


def speed_sample() -> float:
    """What the reference loop takes in this process now (median of a few)."""
    return statistics.median(reference_loop() for _ in range(SPEED_SAMPLES))


def host_scaled(seconds: float, pace: float) -> float:
    """A time measured on this host, as it would read at the reference speed.

    pace is what the reference loop took while the time was measured. The
    host's drift slows both alike, so the ratio cancels it.
    """
    return seconds * REFERENCE_S / pace


@dataclass
class Rep:
    """One run of the CLI and what its outputs showed."""

    out: Path
    traced: bool
    code: int
    wall: float
    rss_mb: float
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    layers: dict = field(default_factory=dict)
    pace: float = REFERENCE_S  # median reference loop time while it ran
    sampling: float = 0.0  # seconds the child spent timing reference loops

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.problems

    @property
    def scaled(self) -> float:
        """Wall time without the sampling, at the reference speed."""
        return host_scaled(self.wall - self.sampling, self.pace)


def child_env() -> dict:
    paths = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def run_child(argv: list[str], log: Path) -> tuple[int, float, float]:
    """Exit code, wall seconds and peak RSS in MB of a child and its own children.

    wait4 reports the largest resident set of the child and of every
    descendant it waited for, such as its pool workers.
    """
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def sha256_files(paths: list[Path], base: Path) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(str(path.relative_to(base)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def make_inputs(directory: Path, workload: dict, seed: int) -> tuple[Path, int, str]:
    """Config path, lot data lines and sha256 of the generated input files."""
    from corpus import generate_corpus

    data = generate_corpus(
        directory, workload["rows"], seed=seed,
        registry_agents=workload["registry_agents"], departments=workload["departments"],
    )
    data["jobs"] = workload["jobs"]
    inputs = sorted(p for p in directory.iterdir() if p.is_file())
    config = directory / "config.json"
    config.write_text(json.dumps(data, indent=2), encoding="utf-8")
    text = (directory / "lots.csv").read_text(encoding="utf-8")
    data_lines = sum(1 for line in text.split("\n")[1:] if line.strip())
    return config, data_lines, sha256_files(inputs, directory)


def check_outputs(out: Path, data_lines: int, masked: bool) -> tuple[list[str], str]:
    """Problems found in a run's outputs, and the sha256 of its final tables."""
    problems = []
    try:
        stats = json.loads((out / "checkpoints" / "ingest" / "stats.json").read_text(encoding="utf-8"))
        accounted = stats["lots"] + stats["rejections"] + stats["skipped_lines"]
        if accounted != data_lines:
            problems.append(f"{accounted} lot lines accounted for, input has {data_lines}")
        csv_rows = {}
        for table in TABLES:
            with open(out / f"{table}.csv", encoding="utf-8", newline="") as fh:
                csv_rows[table] = sum(1 for _ in csv.reader(fh)) - 1
        db = sqlite3.connect(":memory:")
        try:
            db.executescript((out / "foppa.sql").read_text(encoding="utf-8"))
            for table in TABLES:
                (loaded,) = db.execute(f"SELECT COUNT(*) FROM {table}").fetchone()
                if loaded != csv_rows[table]:
                    problems.append(f"{table}: {loaded} rows in foppa.sql, {csv_rows[table]} in CSV")
        finally:
            db.close()
        if masked:
            stage_full_pct(out, "clustering")  # the masked evaluation wrote its accounting
        digest = sha256_files([out / f"{t}.csv" for t in TABLES] + [out / "foppa.sql"], out)
    except (OSError, KeyError, ValueError, sqlite3.Error) as exc:
        return problems + [f"unreadable output: {exc}"], ""
    return problems, digest


def match_outcomes(out: Path) -> dict[str, int]:
    """Counts of match_log outcomes and failure reasons."""
    counts = {"matched": 0, "none": 0}
    with open(out / "checkpoints" / "identify" / "match_log.csv", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            counts[row["outcome"]] = counts.get(row["outcome"], 0) + 1
            if row["outcome"] == "none":
                counts[row["reason"]] = counts.get(row["reason"], 0) + 1
    return counts


def identified_pct(out: Path) -> float:
    counts = match_outcomes(out)
    return 100.0 * counts["matched"] / (counts["matched"] + counts["none"])


def stage_full_pct(out: Path, stage: str) -> float:
    """Share of masked known identifiers that are FULL after a stage."""
    path = out / "checkpoints" / "evaluate" / "stage_accounting.csv"
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["stage"] == stage:
                return 100.0 * int(row["correctStrict"]) / int(row["total"])
    raise KeyError(f"no {stage} row in {path}")


def layer_metrics(trace: dict, out: Path) -> dict[str, float]:
    """Per-layer metrics of one traced run, named as in BENCHMARK.json."""
    total, own, count = trace["totals"], trace["self"], trace["counts"]
    outcomes = match_outcomes(out)
    payloads = count.get("identify.payloads", 0)
    unique = count.get("identify.unique_payloads", 0)
    name_calls = count.get("identify.name_calls", 0)
    metrics = {
        "config.validate_s": total.get("config.validate", 0.0),
        "registry.load_s": total.get("registry.load", 0.0),
        "registry.facilities": count.get("registry.facilities", 0),
        "ingest.s": total.get("ingest", 0.0),
        "ingest.rows_in": count.get("ingest.rows_in", 0),
        "ingest.lots_out": count.get("ingest.lots_out", 0),
        "ingest.skipped_lines": count.get("ingest.skipped_lines", 0),
        "criteria.s": total.get("criteria", 0.0),
        "normalize.s": total.get("normalize", 0.0),
        "pipeline.checkpoint_s": sum(v for k, v in own.items() if k.startswith("stage.")),
        "pipeline.checkpoint_bytes": sum(
            p.stat().st_size for p in (out / "checkpoints").rglob("*") if p.is_file()
        ),
        "identify.s": total.get("identify", 0.0),
        "identify.payloads": payloads,
        "identify.unique_payloads": unique,
        "identify.cache_hit_ratio": (payloads - unique) / payloads if payloads else 0.0,
        "identify.name_calls": name_calls,
        "identify.dp_calls": count.get("identify.dp_calls", 0),
        "identify.dp_ratio": count.get("identify.dp_calls", 0) / name_calls if name_calls else 0.0,
        "identify.block_mean": count.get("identify.block_sum", 0) / unique if unique else 0.0,
        "identify.matched": outcomes["matched"],
        "merge.s": total.get("merge", 0.0),
        "merge.pair_calls": count.get("merge.pair_calls", 0),
        "merge.clusters": count.get("merge.clusters", 0),
        "merge.agents": count.get("merge.agents", 0),
        "emit.s": total.get("emit", 0.0),
        "emit.sql_s": total.get("emit.sql", 0.0),
        "emit.verify_s": total.get("emit.verify", 0.0),
        "emit.bytes": sum(
            (out / name).stat().st_size for name in [f"{t}.csv" for t in TABLES] + ["foppa.sql"]
        ),
    }
    for reason in REJECT_REASONS:
        metrics[f"ingest.rejected.{reason}"] = count.get(f"ingest.rejected.{reason}", 0)
    for reason in FAIL_REASONS:
        metrics[f"identify.fail.{reason}"] = outcomes.get(reason, 0)
    metrics.update(evaluate_metrics(trace, out))
    return metrics


def evaluate_metrics(trace: dict, out: Path) -> dict[str, float]:
    if "evaluate.mask" not in trace["totals"]:
        return {}
    return {
        "evaluate.mask_s": trace["totals"]["evaluate.mask"],
        "evaluate.identify_s": trace["totals"].get("evaluate.identify", 0.0),
        "evaluate.full_identification_pct": stage_full_pct(out, "identification"),
    }


class Bench:
    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.work = work
        self.config, self.data_lines, self.input_digest = make_inputs(work / "in", self.spec, seed)
        self.reps: list[Rep] = []
        self.evaluation: Rep | None = None
        self.setup_scaled: list[float] = []

    def time_setup(self) -> None:
        argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(self.config)]
        for _ in range(SETUP_PASSES):
            # a pass is too short for the timer, so the speed is sampled just before
            pace = speed_sample()
            code, wall, _ = run_child(argv, self.work / "setup.log")
            if code != 0:
                raise RuntimeError(f"set-up probe exited {code}; see {self.work / 'setup.log'}")
            self.setup_scaled.append(host_scaled(wall, pace))

    def cli(self, args: list[str], out: Path, traced: bool) -> Rep:
        """Run one tedclean subcommand on this workload, traced or not.

        Untraced, the host's speed is sampled during the run by pace.py, and
        once here just before it, so even a run too short for the timer has
        a pace.
        """
        log = out.with_suffix(".log")
        trace_path = out.with_suffix(".trace.json")
        samples_path = out.with_suffix(".pace.json")
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_path)]
        else:
            argv = [sys.executable, str(BENCH_DIR / "pace.py"), str(samples_path)]
        argv += args + ["--config", str(self.config), "--out", str(out)]
        before = speed_sample()
        code, wall, rss = run_child(argv, log)
        samples = []
        if samples_path.is_file():
            samples = json.loads(samples_path.read_text(encoding="utf-8"))
        rep = Rep(out=out, traced=traced, code=code, wall=wall, rss_mb=rss,
                  pace=statistics.median(samples + [before]), sampling=sum(samples))
        if code != 0:
            tail = log.read_text(encoding="utf-8", errors="replace").splitlines()[-5:]
            rep.problems.append(f"exit code {code}: " + " | ".join(tail))
        return rep

    def pipeline(self, traced: bool) -> Rep:
        out = self.work / f"out-{len(self.reps)}"
        rep = self.cli(["pipeline"] + (["--mask"] if self.spec["mask"] else []), out, traced)
        if rep.code == 0:
            rep.problems, rep.digest = check_outputs(out, self.data_lines, self.spec["mask"])
            first = next((r for r in self.reps if r.ok), None)
            if rep.ok and first is not None and rep.digest != first.digest:
                rep.problems.append(f"tables sha256 {rep.digest} differs from {first.digest}")
        if rep.ok and traced:
            trace = json.loads(out.with_suffix(".trace.json").read_text(encoding="utf-8"))
            rep.layers = layer_metrics(trace, out)
        self.reps.append(rep)
        return rep

    def measure(self, seconds: float, trace: bool) -> None:
        """Repeat the pipeline until the time is spent; traced and plain alternate.

        Without tracing, set-up is timed between the repetitions, so that its
        median, like run_s's, spans the whole run.
        """
        deadline = time.perf_counter() + seconds
        minimum = 2 if trace else 1
        if not trace:
            self.time_setup()
        while True:
            self.pipeline(traced=trace and len(self.reps) % 2 == 1)
            if not trace:
                self.time_setup()
            typical = statistics.median(r.wall for r in self.reps)
            if len(self.reps) >= minimum and time.perf_counter() + typical / 2 >= deadline:
                break

    def evaluate(self, traced: bool) -> None:
        """Masked evaluation of a plain pipeline's outputs, outside any timed span."""
        source = next((r for r in reversed(self.reps) if r.ok), None)
        if source is None:
            return
        rep = self.cli(["evaluate", "--mask"], source.out, traced)
        rep.out = source.out
        if rep.code == 0:
            try:
                stage_full_pct(source.out, "clustering")
                if traced:
                    trace_path = source.out.with_suffix(".trace.json")
                    rep.layers = evaluate_metrics(
                        json.loads(trace_path.read_text(encoding="utf-8")), source.out
                    )
            except (OSError, KeyError, ValueError) as exc:
                rep.problems.append(f"unreadable evaluation: {exc}")
        self.evaluation = rep

    def runs(self) -> list[Rep]:
        return self.reps + ([self.evaluation] if self.evaluation else [])

    def quality_out(self) -> Path:
        """Output directory whose masked evaluation gives the quality figures."""
        if self.evaluation is not None:
            return self.evaluation.out
        return next(r.out for r in self.reps if r.ok)


def end_to_end(bench: Bench) -> dict[str, float]:
    """run_s is the mean over repetitions: scaled, they have few outliers,
    and with only four to six of them a mean spreads less than a median.
    setup_s, with three passes per repetition and a cold first one, is the
    median of its passes."""
    plain = [r for r in bench.reps if r.ok and not r.traced]
    run_s = statistics.fmean(r.scaled for r in plain)
    return {
        "run_s": run_s,
        "lots_per_s": bench.data_lines / run_s,
        "setup_s": statistics.median(bench.setup_scaled),
        "peak_rss_mb": statistics.median(r.rss_mb for r in plain),
        "identified_pct": identified_pct(plain[0].out),
        "mask_full_pct": stage_full_pct(bench.quality_out(), "clustering"),
    }


def per_layer(bench: Bench) -> dict[str, float]:
    traced = [r for r in bench.reps if r.ok and r.traced]
    plain = [r for r in bench.reps if r.ok and not r.traced]
    names = traced[0].layers.keys()
    metrics = {k: statistics.median(r.layers[k] for r in traced) for k in names}
    if bench.evaluation is not None:
        metrics.update(bench.evaluation.layers)
    metrics["trace.overhead_s"] = (
        statistics.median(r.wall for r in traced)
        - statistics.median(r.wall - r.sampling for r in plain)
    )
    metrics["run.wall_s"] = statistics.fmean(r.wall - r.sampling for r in plain)
    metrics["host.pace_s"] = statistics.fmean(r.pace for r in plain)
    return metrics


def report(bench: Bench, metrics: dict[str, float], spec: list[dict]) -> dict:
    runs = bench.runs()
    failed = sum(1 for r in runs if not r.ok)
    walls = sorted(r.wall for r in bench.reps if r.ok and not r.traced)
    params = dict(bench.spec, departments=len(bench.spec["departments"] or []) or "default")
    print(f"workload {bench.name}: " + " ".join(f"{k}={v}" for k, v in params.items()))
    print(f"inputs_sha256 {bench.input_digest}")
    print(f"tables_sha256 {' '.join(sorted({r.digest for r in bench.reps if r.ok}))}")
    print(f"plain runs {len(walls)}: wall s min {walls[0]:.3f} median {statistics.median(walls):.3f}"
          f" max {walls[-1]:.3f}")
    paces = sorted(r.pace for r in bench.reps if r.ok and not r.traced)
    print(f"reference loop s min {paces[0]:.6f} median {statistics.median(paces):.6f}"
          f" max {paces[-1]:.6f} (times scaled to {REFERENCE_S})")
    print(f"failed_pct {100.0 * failed / len(runs):.1f} ({failed} of {len(runs)} runs)")
    for r in runs:
        for problem in r.problems:
            print(f"  {r.out.name}: {problem}", file=sys.stderr)
    if "evaluate.full_identification_pct" in metrics:
        print(f"masked FULL: identification {metrics['evaluate.full_identification_pct']:.2f}%"
              f" | after clustering {stage_full_pct(bench.quality_out(), 'clustering'):.2f}%")
    missing = [m["name"] for m in spec if m["name"] not in metrics]
    if missing:
        raise KeyError(f"metrics not measured: {', '.join(missing)}")
    for m in spec:
        print(f"  {m['name']:<40} {metrics[m['name']]:>14.6g} {m['unit']}")
    return {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "tedclean" / "cli.py", ROOT / "tests" / "corpus.py"]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"perfbench: not a tedclean checkout, missing {', '.join(absent)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, work)
        bench.measure(args.seconds, bool(args.trace))
        if not bench.spec["mask"]:
            bench.evaluate(traced=bool(args.trace))
        measured = {r.traced for r in bench.reps if r.ok}
        if measured != {False, bool(args.trace)} or (bench.evaluation and not bench.evaluation.ok):
            for r in bench.runs():
                print(f"{r.out.name}: {'; '.join(r.problems)}", file=sys.stderr)
            return 1
        if args.trace:
            result = report(bench, per_layer(bench), spec["per_layer"])
        else:
            result = report(bench, end_to_end(bench), spec["end_to_end"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
