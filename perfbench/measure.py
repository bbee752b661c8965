"""Timing statistics, memory and machine metadata for one benchmark run."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import time
from typing import Dict, List, Sequence

import numpy as np


#: samples a tail percentile needs beyond it: fewer are one or two outliers,
#: so a p99 needs at least 1 000 samples
MIN_BEYOND = 10

#: consecutive chunks of a request stream (see :func:`quiet_quartile`)
CHUNKS = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, refused unless :data:`MIN_BEYOND` samples lie beyond it."""
    values = np.asarray(samples, dtype=np.float64)
    beyond = len(values) * (100.0 - q) / 100.0
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} needs {MIN_BEYOND} samples beyond it; {len(values)} samples give {beyond:g}"
        )
    return float(np.percentile(values, q))


def even_bounds(count: int) -> List[int]:
    """Operation indices that cut ``count`` operations into :data:`CHUNKS` consecutive chunks."""
    return [int(round(i * count / CHUNKS)) for i in range(CHUNKS + 1)]


def chunk_rates(starts: Sequence[float], end: float, rows_per_op: int, bounds: Sequence[int]) -> List[float]:
    """Rows per second of each chunk of operations ``bounds[i]:bounds[i + 1]``.

    ``starts`` are the operations' start times and ``end`` the end of the
    last one; a chunk's time runs from its first start to the next chunk's,
    so work between operations (serve-update's updates) counts where it ran.
    """
    marks = list(starts) + [end]
    return [
        rows_per_op * (hi - lo) / (marks[hi] - marks[lo])
        for lo, hi in zip(bounds, bounds[1:])
        if hi > lo
    ]


def chunk_p50s(latencies: Sequence[float], bounds: Sequence[int]) -> List[float]:
    """Median latency of each chunk ``bounds[i]:bounds[i + 1]``; NaN marks a failed operation."""
    values = np.asarray(latencies, dtype=np.float64)
    return [
        float(np.nanmedian(values[lo:hi]))
        for lo, hi in zip(bounds, bounds[1:])
        if np.any(np.isfinite(values[lo:hi]))
    ]


def quiet_quartile(values: Sequence[float], higher_is_better: bool) -> float:
    """The quartile of per-chunk values on the fast side: the upper one for a rate, the lower for a time.

    On a shared host, other tenants' load slows the program in stretches of
    a few seconds and never speeds it up.  In three ``serve-hot`` runs on a
    2-CPU host such stretches moved 3 to 6 of the 10 chunk medians from
    ~1.0 to ~1.7 ms, so the median over chunks flipped between the two
    levels from run to run; the quieter quartile holds until three chunks
    in four are slowed.  A change to the program moves every chunk, so it
    moves this quartile too.
    """
    if len(values) < 2:
        return float(values[0])
    lower, _, upper = statistics.quantiles(values, n=4)
    return upper if higher_is_better else lower


def calibration_seconds() -> float:
    """Wall time of a fixed pure-Python plus NumPy loop (machine-drift probe)."""
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i % 7
    matrix = np.linspace(0.0, 1.0, 128 * 128).reshape(128, 128)
    for _ in range(300):
        matrix = np.tanh(matrix @ matrix * 0.01)
    return time.perf_counter() - start


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size of this process (or of its largest reaped child)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def blas_threads() -> int:
    """Threads the benchmark allows BLAS and OpenMP (1, set before NumPy loads)."""
    return int(os.environ.get("OPENBLAS_NUM_THREADS", "0") or 0)


def machine_metadata(root) -> Dict[str, object]:
    blas = None
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, AttributeError):  # older NumPy without mode="dicts"
        pass
    head = root / ".git" / "HEAD"
    rev = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            rev = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            rev = ref
    return {
        "cpu_count": os.cpu_count(),
        "git_rev": rev,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "platform": platform.platform(),
    }
