"""Speed probe: times a small fixed task ten times a second, until stopped.

    python3 perfbench/probe.py OUT_FILE

Each line of OUT_FILE is ``<time.monotonic() at the end> <processor seconds
taken>``. Processor time leaves out the time the probe waits for other
processes on its processor.
The task uses no ``jointmix`` code, so its time follows the host alone.
``run.py`` starts one probe per timed run and reads the file when it stops
it. The probe also stops by itself when the process that started it ends.
"""

import os
import sys
import time

import numpy as np

PERIOD_S = 0.1


def task(values, matrix, parsed):
    """Format and parse floats as TSV cells, then row-wise log-sum-exps."""
    text = "\t".join(f"{v:.6g}" for v in values)
    parsed[:] = [float(cell) for cell in text.split("\t")]
    for _ in range(5):
        shifted = matrix - matrix.max(axis=1, keepdims=True)
        parsed[: len(matrix)] += np.log(np.exp(shifted).sum(axis=1))


def main(path: str) -> None:
    values = np.random.default_rng(0).random(2_000)
    matrix = np.random.default_rng(1).random((50, 100))
    parsed = np.empty_like(values)
    parent = os.getppid()
    with open(path, "w", encoding="utf-8", buffering=1) as out:
        while os.getppid() == parent:
            started = time.thread_time()
            task(values, matrix, parsed)
            taken = time.thread_time() - started
            out.write(f"{time.monotonic():.6f} {taken:.9f}\n")
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    main(sys.argv[1])
