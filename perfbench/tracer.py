"""Spans and counts recorded around tedclean's public functions, from outside.

Run as a script, this installs the wrappers and then runs the tedclean CLI
in the same process:

    PYTHONPATH=src python3 perfbench/tracer.py TRACE.json pipeline --config cfg.json

TRACE.json is written when the CLI returns. Nothing under src/ changes: each
wrapper replaces the binding its caller looks up, so for example
tedclean.pipeline.identify_all (the stage) and tedclean.evaluate.identify_all
(the masked rerun) are patched apart.

Spans are kept in memory. A span's self time is its duration minus the time
covered by the spans opened inside it. Per-call functions (name comparisons,
edit distances, pair similarities) are counted, not timed. Counts are keyed
by the layer that made the call, so street comparisons inside merge's pair
similarity are not booked to identify.

Identification can run in forked pool workers. Their wrappers are inherited
through the fork, and each worker writes the counts its identify_all call
made to a spool file that the parent folds in before writing the trace.
"""
from __future__ import annotations

import json
import os
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from time import perf_counter


class Tracer:
    """Open spans form a stack; closed ones are summed by name."""

    def __init__(self, spool_dir: Path) -> None:
        self.pid = os.getpid()
        self.spool_dir = spool_dir
        self.spans: list[dict] = []
        self.totals: Counter = Counter()
        self.self_totals: Counter = Counter()
        self.counts: Counter = Counter()
        self.layers: list[str] = []
        # open frames: [id, name, start, time covered by children, keep]
        self._stack: list[list] = []
        self._next_id = 0

    @property
    def layer(self) -> str | None:
        return self.layers[-1] if self.layers else None

    def open(self, name: str, keep: bool = True) -> None:
        self._stack.append([self._next_id, name, perf_counter(), 0.0, keep])
        self._next_id += 1

    def close(self) -> None:
        span_id, name, start, covered, keep = self._stack.pop()
        end = perf_counter()
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        self.totals[name] += duration
        self.self_totals[name] += duration - covered
        if keep:
            self.spans.append({
                "id": span_id,
                "parent": self._stack[-1][0] if self._stack else None,
                "name": name,
                "start": start,
                "end": end,
                "self": duration - covered,
            })

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "totals": dict(self.totals),
            "self": dict(self.self_totals),
            "counts": dict(self.counts),
        }


def _spanned(tracer: Tracer, fn, name: str, layer: str | None = None,
             keep: bool = True, after=None):
    def wrapper(*args, **kwargs):
        if layer:
            tracer.layers.append(layer)
        tracer.open(name, keep)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
            if layer:
                tracer.layers.pop()
        if after is not None:
            after(result, *args)
        return result
    return wrapper


def _counted(tracer: Tracer, fn, what: str):
    counts = tracer.counts

    def wrapper(*args, **kwargs):
        counts[f"{tracer.layer}.{what}"] += 1
        return fn(*args, **kwargs)
    return wrapper


def install(tracer: Tracer) -> None:
    """Replace the bindings of tedclean's public functions with traced ones."""
    from tedclean import cli, emit, evaluate, identify, ingest, merge, pipeline

    counts = tracer.counts

    def patch(module, attr, name, **kw):
        setattr(module, attr, _spanned(tracer, getattr(module, attr), name, **kw))

    def after_registry(registry, *_):
        counts["registry.facilities"] = len(registry.facilities)

    def after_parse(parsed, *_):
        counts["ingest.rows_in"] += len(parsed.rows) + parsed.skipped

    def after_ingest(result, *_):
        counts["ingest.lots_out"] += len(result.lots)
        counts["ingest.skipped_lines"] += result.skipped_lines
        for rejection in result.rejections:
            counts[f"ingest.rejected.{rejection.reason}"] += 1

    def after_merge(result, *_):
        counts["merge.clusters"] += len(result.clusters)
        counts["merge.agents"] += len(result.agents)

    def after_identify(results, occurrences, lots, *_):
        # payloads repeat; each distinct one is scored once per call
        lots_by_id = {lot.lot_id: lot for lot in lots}
        by_id = {occ.occurrence_id: occ for occ in occurrences}
        block_of: dict = {}
        attempts = 0
        for result in results:
            if result.source == "declared":
                continue
            attempts += 1
            occ = by_id[result.occurrence_id]
            payload = identify.payload_of(occ, lots_by_id[occ.lot_id])
            block_of.setdefault(payload, result.block_size)
        counts["identify.payloads"] += attempts
        counts["identify.unique_payloads"] += len(block_of)
        counts["identify.block_sum"] += sum(block_of.values())

    def identify_in_stage(fn):
        traced = _spanned(tracer, fn, "identify", layer="identify", after=after_identify)

        def wrapper(*args, **kwargs):
            if os.getpid() == tracer.pid:
                return traced(*args, **kwargs)
            # a forked pool worker: hand this call's counts to the parent
            before = Counter(counts)
            result = traced(*args, **kwargs)
            delta = Counter(counts)
            delta.subtract(before)
            tracer.spool_dir.mkdir(parents=True, exist_ok=True)
            spool = tracer.spool_dir / f"{os.getpid()}-{perf_counter()}.json"
            spool.write_text(json.dumps(dict(+delta)), encoding="utf-8")
            return result
        return wrapper

    class TracedPool(ProcessPoolExecutor):
        """The parallel identify section: pool start, all chunks, shutdown."""

        def __enter__(self):
            tracer.layers.append("identify")
            tracer.open("identify")
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.close()
                tracer.layers.pop()

    patch(cli, "validate_config", "config.validate")
    patch(pipeline, "load_registry", "registry.load", after=after_registry)
    for stage in pipeline.STAGE_ORDER:
        patch(pipeline, f"stage_{stage}", f"stage.{stage}")
    patch(pipeline, "run_ingest", "ingest", after=after_ingest)
    patch(ingest, "parse_table", "ingest.parse", after=after_parse)
    patch(pipeline, "repair_criteria", "criteria")
    patch(pipeline, "normalize_occurrence", "normalize", keep=False)
    patch(pipeline, "merge_by_declared_siret", "normalize")
    pipeline.identify_all = identify_in_stage(pipeline.identify_all)
    pipeline.ProcessPoolExecutor = TracedPool
    patch(evaluate, "identify_all", "evaluate.identify", layer="identify",
          after=after_identify)
    identify.name_similarity = _counted(tracer, identify.name_similarity, "name_calls")
    identify.levenshtein = _counted(tracer, identify.levenshtein, "dp_calls")
    merge.pair_similarity = _counted(tracer, merge.pair_similarity, "pair_calls")
    patch(pipeline, "merge_all", "merge", layer="merge", after=after_merge)
    patch(evaluate, "merge_all", "evaluate.merge", layer="merge")
    patch(emit, "build_tables", "emit")
    patch(emit, "write_csv", "emit")
    patch(emit, "write_sql_dump", "emit.sql")
    patch(emit, "verify_roundtrip", "emit.verify")
    patch(evaluate, "mask_and_rerun", "evaluate.mask")


def fold_spool(tracer: Tracer) -> None:
    if not tracer.spool_dir.is_dir():
        return
    for path in sorted(tracer.spool_dir.glob("*.json")):
        tracer.counts.update(json.loads(path.read_text(encoding="utf-8")))
        path.unlink()
    tracer.spool_dir.rmdir()


def main(argv: list[str]) -> int:
    trace_path = Path(argv[0])
    tracer = Tracer(trace_path.with_suffix(".spool"))
    install(tracer)
    from tedclean import cli

    code = cli.main(argv[1:])
    fold_spool(tracer)
    trace_path.write_text(json.dumps(tracer.to_json()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
