"""Fixed reference computations, timed next to every op.

The machine the benchmark was sized on is shared, and the speed it gives a
process drifts by tens of per cent over seconds to minutes.  A reference
computation run just before each op slows with it, so its time measures
the drift; run.py scales each op's time by it.  Contention hits kinds of
work unequally, so each workload has its own reference, shaped like its
ops but independent of stabwit:

- exact: small immutable objects with bitmask arithmetic, collected into
  a dict (Pauli algebra and witness terms), then a gather over a freshly
  allocated 2^17-element complex array (dense Pauli application);
- sample: a Philox multinomial over 2^12 outcomes, string-keyed counts
  and their JSON encoding;
- certify: eigen-decompositions of small Hermitian matrices assembled by
  scattered adds (the see-saw half-step).
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

_PROBS = np.linspace(1.0, 2.0, 1 << 12)
_PROBS /= _PROBS.sum()
_COL = np.arange(16, dtype=np.int64)


@dataclass(frozen=True)
class _Word:
    x: int
    z: int
    e: int

    def __post_init__(self):
        if self.e not in (0, 1, 2, 3):
            raise ValueError(self.e)

    def __mul__(self, other: "_Word") -> "_Word":
        e = (self.e + other.e + 2 * (self.z & other.x).bit_count()) % 4
        return _Word(self.x ^ other.x, self.z ^ other.z, e)


def _exact() -> None:
    acc = _Word(0, 0, 0)
    terms: dict[_Word, float] = {}
    for k in range(1500):
        acc = acc * _Word((k * 40503) & 0xFFF, (k * 2654435761) & 0xFFF, 0)
        terms[acc] = terms.get(acc, 0.0) + 0.5
    fresh = np.ones(1 << 17, dtype=np.complex128)
    src = np.arange(fresh.size, dtype=np.int64) ^ 0xAAAA
    np.vdot(fresh, fresh[src])


def _sample() -> None:
    rng = np.random.Generator(np.random.Philox(key=12345))
    drawn = rng.multinomial(20_000, _PROBS)
    counts = {format(i, "012b"): int(c) for i, c in enumerate(drawn) if c}
    json.dumps(counts, sort_keys=True, indent=2)


def _certify() -> None:
    for k in range(55):
        m = np.zeros((16, 16), dtype=np.complex128)
        for mask in range(1, 9):
            m[_COL ^ ((k + mask) & 15), _COL] += 0.25 * (1.0 - 2.0 * (np.bitwise_count(_COL & mask) & 1))
        m = m + m.conj().T
        np.linalg.eigh(m)


_KERNELS = {"exact": _exact, "sample": _sample, "certify": _certify}


def reference_ns(workload: str) -> int:
    """Wall time of one run of the workload's reference computation."""
    kernel = _KERNELS[workload]
    start = time.perf_counter_ns()
    kernel()
    return time.perf_counter_ns() - start
