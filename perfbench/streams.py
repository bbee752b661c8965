"""Benchmark inputs derived from the seed argument only.

Query pools, request streams, hot sets and update batches come from the
benchmark's own generators below, never from ``repro.workloads``, so a
change to the program cannot change what the benchmark sends.  Every
generator takes a ``numpy.random.Generator`` made by :func:`rng`.
"""

from __future__ import annotations

import hashlib
import zlib
from typing import List, Tuple

import numpy as np

#: standard deviation of the Gaussian jitter added to database rows that
#: become pool queries or inserted vectors
NOISE = 0.01
#: share of request thresholds above the model's ``t_max``, sent unfiltered.
#: No measured traffic gives this share; it is the benchmark's choice: one or
#: two rows of a 32-row request, enough that answers beyond the trained range
#: show in the served quality, few enough that they do not dominate it
BEYOND_SHARE = 0.05
#: thresholds beyond ``t_max`` reach up to this multiple of it
BEYOND_FACTOR = 2.0
#: Zipf exponent of serve-update's read popularity: the default of the
#: program's own traffic scenarios (``Scenario.zipf_exponent`` in
#: ``repro.workloads.traffic``), copied so a change there cannot change
#: what the benchmark sends
ZIPF_EXPONENT = 1.2


def rng(seed: int, *labels: str) -> np.random.Generator:
    """An independent generator per (seed, label...) — e.g. ``rng(3, "serve-miss", "pool")``."""
    return np.random.default_rng([int(seed)] + [zlib.crc32(label.encode()) for label in labels])


def query_pool(gen: np.random.Generator, vectors: np.ndarray, size: int) -> np.ndarray:
    """``size`` distinct queries near database rows (rows drawn with replacement, jittered)."""
    rows = gen.integers(0, len(vectors), size)
    return vectors[rows] + gen.normal(0.0, NOISE, (size, vectors.shape[1]))


def thresholds(gen: np.random.Generator, shape, t_max: float) -> np.ndarray:
    """Thresholds in ``(0, t_max]``, except a :data:`BEYOND_SHARE` in ``(t_max, BEYOND_FACTOR * t_max]``.

    Real callers do not know the model's ``t_max``; the share above it is
    sent unfiltered.
    """
    inside = gen.uniform(0.0, 1.0, shape) * t_max
    outside = t_max * (1.0 + gen.uniform(0.0, 1.0, shape) * (BEYOND_FACTOR - 1.0))
    return np.where(gen.uniform(0.0, 1.0, shape) < BEYOND_SHARE, outside, np.maximum(inside, 1e-9))


def uniform_requests(
    gen: np.random.Generator, pool_size: int, num_requests: int, rows: int
) -> np.ndarray:
    """Query ids of a request stream drawn uniformly from the pool, shape ``(requests, rows)``."""
    return gen.integers(0, pool_size, (num_requests, rows))


def zipf_requests(gen: np.random.Generator, pool_size: int, num_requests: int, rows: int) -> np.ndarray:
    """Query ids with Zipf popularity ``p(rank) ~ rank**-ZIPF_EXPONENT`` over a shuffled pool."""
    weights = 1.0 / np.arange(1, pool_size + 1, dtype=np.float64) ** ZIPF_EXPONENT
    ranked = gen.permutation(pool_size)
    draws = gen.choice(pool_size, size=(num_requests, rows), p=weights / weights.sum())
    return ranked[draws]


def update_batches(
    gen: np.random.Generator,
    vectors: np.ndarray,
    pattern: List[Tuple[str, float]],
    count: int,
) -> List[Tuple[str, np.ndarray]]:
    """``count`` update batches cycling through ``pattern`` of (kind, share of the database).

    Inserts are jittered copies of current rows; deletes are distinct row
    indices into the current database.  Sizes follow the database as it
    grows and shrinks, exactly as the program will see it.
    """
    size = len(vectors)
    dim = vectors.shape[1]
    batches: List[Tuple[str, np.ndarray]] = []
    for step in range(count):
        kind, share = pattern[step % len(pattern)]
        amount = max(int(round(share * size)), 1)
        if kind == "insert":
            rows = vectors[gen.integers(0, len(vectors), amount)]
            batches.append((kind, rows + gen.normal(0.0, NOISE, (amount, dim))))
            size += amount
        else:
            batches.append((kind, np.sort(gen.choice(size, amount, replace=False))))
            size -= amount
    return batches


def fingerprint(*arrays) -> str:
    """Short digest of arrays (shape, dtype and bytes) for the run record."""
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(str((array.shape, array.dtype.str)).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()[:16]
