"""Check that this checkout's pipeline writes the same bytes as git ref REF.

    python tools/same_bytes.py REF

REF's src/ is written to a temporary directory (`git archive REF src | tar
-x`). The benchmark's inputs (perfbench/run.py's WORKLOADS and make_inputs)
are made once per workload and seed, so both sides read the same input
paths: output tables hold the absolute path of their source file. Then
`tedclean pipeline --mask` runs from each source tree on the match, bulk and
mask workloads at seeds 0 and 7, and the two output trees are compared file
by file. Exits 0 when every file matches, and 1, listing the paths that
differ, when any does not; a run that fails on either side counts as a
difference. Exits 2 on a usage error, a ref git cannot archive, or inputs
that cannot be made.
"""
from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 7)


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
        for name, workload in WORKLOADS.items():
            for seed in SEEDS:
                case = work / f"{name}-{seed}"
                config, _, _ = make_inputs(case / "in", workload, seed)
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
