"""Run a tedclean CLI command while sampling how fast the host runs Python.

    PYTHONPATH=src python3 perfbench/pace.py SAMPLES.json pipeline --config cfg.json --out DIR

On a shared host the speed of a core drifts by tens of percent within
seconds, so a wall time alone says as much about the neighbours as about
tedclean. Here a SIGALRM timer interrupts the command every SAMPLE_EVERY
seconds and times reference_loop() on the same thread; the handler only
runs between bytecodes of the main thread, so it samples the speed the
command itself sees. When the command returns, the sample times go to
SAMPLES.json and the exit code is the command's.

Forked pool workers inherit the handler but not the timer, so they are not
interrupted.
"""
from __future__ import annotations

import json
import signal
import sys
from pathlib import Path
from time import perf_counter

REFERENCE_LOOPS = 20_000
SAMPLE_EVERY = 0.2


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes: one sample of the host's speed."""
    start = perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i % 7
    return perf_counter() - start


def main(argv: list[str]) -> int:
    samples: list[float] = []

    def sample(signum, frame) -> None:
        samples.append(reference_loop())

    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY / 2, SAMPLE_EVERY)
    try:
        from tedclean import cli

        return cli.main(argv[1:])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        Path(argv[0]).write_text(json.dumps(samples), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
