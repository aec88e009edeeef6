"""Check that this checkout's pipeline writes the same bytes as git ref REF.

    python tools/same_bytes.py REF

REF's src/ is written to a temporary directory (`git archive REF src | tar
-x`). The benchmark's inputs (perfbench/run.py's WORKLOADS and make_inputs)
are made once per workload and seed, so both sides read the same input
paths: output tables hold the absolute path of their source file. Then
`tedclean pipeline --mask` runs from each source tree on the match, bulk and
mask workloads at seeds 0 and 7, on a remapped copy of the mask inputs at
seed 0 (every lot and registry column renamed, the lot columns in reverse
order, `;` as the delimiter, the config's header maps naming the new
columns), and on a recased copy of them (the config's unsuccessful markers,
postal tokens and contract-type keys spelled in mixed case with accents, as
`Annulé` or `Cédex`, which fold to the defaults), and on a noisy-zipcode
copy of them (every registry facility and postal zipcode cell written
`F-<zip> CEDEX`, which reads as `<zip>`), and on a dense case at seed 0
(DENSE: 1,000 rows and 1,000 registry agents in departments 10-15, where
merge joins distinct agents into large clusters of conflicting
identifiers, so the masked rerun resolves those clusters), and the two
output trees are compared file by file. Exits 0 when every file matches,
and 1, listing the paths that differ, when any does not; a run that fails
on either side counts as a difference. Exits 2 on a usage error, a ref git cannot archive,
or inputs that cannot be made.
"""
from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 7)
# the dense shape, not a benchmark workload: merge chains distinct agents
DENSE = {"rows": 1000, "registry_agents": 1000,
         "departments": [str(d) for d in range(10, 16)], "jobs": 1}
# the input files of a remapped case whose header names change, by config key
RENAMED = {"lots": "column_map", "registry_entities": "registry_entity_map",
           "registry_facilities": "registry_facility_map"}
# the configured words of a recased case, as a person might spell the defaults
RECASED = {
    "INFRUCTUEUX": "Infructueux", "INFRUCTEUX": "infructeux", "SANS SUITE": "Sans suite",
    "ANNULE": "Annulé", "LOT INFRUCTUEUX": "Lot infructueux",
    "BP": "Bp", "CS": "cs", "CEDEX": "Cédex", "TSA": "Tsa",
    "SUPPLIES": "Supplies", "FOURNITURES": "Fournitures", "GOODS": "goods",
    "SERVICES": "Services", "WORKS": "Works", "TRAVAUX": "Travaux",
}


def rewrite_csv(path: Path, edit) -> None:
    """Rewrite a comma-separated file as `;`-separated, each row through edit(lineno, row)."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [edit(lineno, row) for lineno, row in enumerate(csv.reader(fh), start=1)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, delimiter=";", lineterminator="\n").writerows(rows)


def remap_inputs(config: Path) -> None:
    """Rewrite a case's inputs and config in place: every lot and registry
    column renamed, the lot columns reversed, `;` as the delimiter, and the
    three header maps naming the new columns."""
    from tedclean.config import PipelineConfig

    data = json.loads(config.read_text(encoding="utf-8"))
    inputs, defaults = data["inputs"], PipelineConfig()

    def rename(column: str) -> str:
        return f"col {column.lower()}"

    for key, map_name in RENAMED.items():
        order = -1 if key == "lots" else 1
        path = Path(inputs[key][0] if key == "lots" else inputs[key])
        rewrite_csv(path, lambda n, row: [rename(c) if n == 1 else c for c in row][::order])
        data[map_name] = {f: rename(c) for f, c in getattr(defaults, map_name).items()}
    rewrite_csv(Path(inputs["postal"]), lambda n, row: row)
    data["delimiter"] = ";"
    config.write_text(json.dumps(data, indent=2), encoding="utf-8")


def recase_config(config: Path) -> None:
    """Rewrite a case's config in place: its unsuccessful markers, postal
    tokens and contract-type keys spelled as RECASED spells the defaults."""
    from tedclean.config import PipelineConfig

    data, defaults = json.loads(config.read_text(encoding="utf-8")), PipelineConfig()
    for key in ("unsuccessful_markers", "postal_tokens"):
        data[key] = [RECASED[word] for word in getattr(defaults, key)]
    data["contract_type_values"] = {
        RECASED[word]: kind.value for word, kind in defaults.contract_type_values.items()
    }
    config.write_text(json.dumps(data, indent=2), encoding="utf-8")


def noise_zipcodes(config: Path) -> None:
    """Rewrite a case's registry facility and postal files in place, every
    zipcode cell written `F-<zip> CEDEX`."""
    inputs = json.loads(config.read_text(encoding="utf-8"))["inputs"]
    for key, column in (("registry_facilities", "POSTAL_CODE"), ("postal", "zipcode")):
        path = Path(inputs[key])
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        at = rows[0].index(column)
        for row in rows[1:]:
            row[at] = f"F-{row[at]} CEDEX"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)


def export_src(ref: str, dest: Path) -> Path:
    """REF's src/ written under dest; the path of that src/."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", ref, "src"], cwd=ROOT, capture_output=True)
    if archive.returncode != 0:
        print(f"same_bytes: {archive.stderr.decode().strip()}", file=sys.stderr)
        raise SystemExit(2)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return dest / "src"


def run_pipeline(src: Path, config: Path, out: Path) -> str | None:
    """Run `tedclean pipeline --mask` from a source tree; None, or why it failed."""
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "tedclean.cli", "pipeline", "--mask",
            "--config", str(config), "--out", str(out)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return None
    last = (proc.stderr.strip().splitlines() or [""])[-1]
    return f"exit {proc.returncode}: {last}"


def files_under(top: Path) -> dict[str, Path]:
    return {str(p.relative_to(top)): p for p in top.rglob("*") if p.is_file()}


def differing(a: Path, b: Path) -> list[str]:
    """Relative paths present in only one tree or with different bytes."""
    left, right = files_under(a), files_under(b)
    return [
        rel for rel in sorted(left.keys() | right.keys())
        if rel not in left or rel not in right or left[rel].read_bytes() != right[rel].read_bytes()
    ]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/same_bytes.py REF", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests"), str(ROOT / "src")]
    from run import WORKLOADS, make_inputs

    problems: list[str] = []
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        work = Path(tmp)
        sides = {"ref": export_src(argv[0], work / "ref"), "here": ROOT / "src"}
        cases = [(f"{name}-{seed}", workload, seed, None)
                 for name, workload in WORKLOADS.items() for seed in SEEDS]
        cases.append(("mask-0-remapped", WORKLOADS["mask"], 0, remap_inputs))
        cases.append(("mask-0-recased", WORKLOADS["mask"], 0, recase_config))
        cases.append(("mask-0-noisy-zipcodes", WORKLOADS["mask"], 0, noise_zipcodes))
        cases.append(("dense-0", DENSE, 0, None))
        for case_name, workload, seed, rewrite in cases:
            case = work / case_name
            config, _, _ = make_inputs(case / "in", workload, seed)
            if rewrite:
                rewrite(config)
            found = [
                f"{case.name}: {side} side {failure}"
                for side, src in sides.items()
                if (failure := run_pipeline(src, config, case / side))
            ]
            found += [f"{case.name}/{rel}" for rel in differing(case / "ref", case / "here")]
            print(f"{case.name}: {'differs' if found else 'same bytes'}", file=sys.stderr)
            problems += found
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
