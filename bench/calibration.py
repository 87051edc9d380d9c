"""Machine-speed calibration for the end-to-end times.

On a shared host the speed of a vCPU drifts by up to 2x within seconds, and
the drift slows the program and any other code with it. The harness brackets
every timed region with `seconds(kind)` and reports the region's time
multiplied by REF_S[kind] over the mean of the two calibrations around it:
seconds at the speed at which that kind of work takes REF_S[kind] (about the
fast state of the 2-vCPU VM the benchmark was built on). The work calls no
blamekit code, so a change to the program moves the scaled times as it moves
the raw ones.

There are two kinds, because the drift does not slow every kind of work
alike: interpreted loops track one another, while large numpy arrays
compete for memory bandwidth and track each other. Each workload uses the
kind its items spend their time in.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

REPEATS = 3

_rng = np.random.default_rng(0)
_MATRIX = _rng.random((96, 96))
_VECTOR = np.linspace(0.0, 1.0, 32)
_tableau: dict[str, np.ndarray] = {}


class _Encoder:
    def __init__(self, width: int):
        self.weights = [1 << k for k in range(width)]

    def encode(self, digits) -> int:
        code = 0
        for digit, weight in zip(digits, self.weights):
            code += digit * weight
        return code


_ENCODER = _Encoder(9)


def interpreter_work() -> float:
    """An interpreted mixed-radix decoder with method calls and numpy element
    stores, small container allocation, small dense matrix products and
    small array arithmetic: the mix of the program's Python inner loops."""
    table = np.zeros((32, 16), dtype=np.int64)
    dims = [2] * 9
    for flat in range(512):
        row, col = divmod(flat, 16)
        rest, digits = flat, []
        for k in reversed(dims):
            digits.append(rest % k)
            rest //= k
        digits.reverse()
        table[row, col] = _ENCODER.encode(digits)
    cells = {}
    for i in range(1500):
        cells[(i, i & 7)] = [i, i & 15]
    x = _MATRIX
    for _ in range(6):
        x = np.tanh(x @ _MATRIX * 0.01)
    v = _VECTOR
    for _ in range(120):
        v = np.minimum(v * 1.01 + 0.001, 1.0)
    return float(table.sum() + len(cells) + x[0, 0] + v[0])


def memory_work() -> float:
    """One simplex-style rank-one update of an 8 MB tableau, larger than the
    caches of one core, as the largest MER tableaus are. The arrays are made
    on first use, so that workloads of the other kind do not carry them."""
    if not _tableau:
        rng = np.random.default_rng(1)
        _tableau.update(table=rng.random((1024, 1024)),
                        column=rng.random(1024), row=rng.random(1024) * 1e-6,
                        out=np.empty((1024, 1024)))
    t = _tableau
    np.subtract(t["table"], np.outer(t["column"], t["row"]), out=t["out"])
    return float(t["out"][0, 0])


WORK = {"interpreter": interpreter_work, "memory": memory_work}
REF_S = {"interpreter": 0.002, "memory": 0.0045}


def seconds(kind: str) -> float:
    """Best of REPEATS timings of one kind of work: an interrupt only ever
    adds time, while a slow machine state slows every repeat."""
    work = WORK[kind]
    best = float("inf")
    for _ in range(REPEATS):
        start = perf_counter()
        work()
        best = min(best, perf_counter() - start)
    return best
