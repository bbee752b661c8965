"""The four benchmark workloads, driven only through the program's public API.

Each workload has a set-up (everything before the timed phase), a timed
pass of fixed work and output checks:

* ``train`` — fit the partitioned SelNet (K = 3 cover-tree partitions) with
  a fixed epoch budget; the serving layers are idle.
* ``serve-miss`` — the same kind of model behind the default in-process
  ``EstimationService``; requests drawn uniformly from a query pool ten
  times the cache capacity, so almost every row fills the curve cache.
* ``serve-hot`` — the same kind of model behind ``repro serve`` (binary
  protocol, one network-backend shard in its own process); a warmed hot set
  smaller than the cache, so the kernel is idle.
* ``serve-update`` — ``selnet-inc`` in-process; Zipf-popular reads
  interleaved with a fixed sequence of insert/delete batches.

The size of the timed work is a function of ``seconds`` only, calibrated to
last about that long on a 2-core x86 machine, so every count is a function
of (workload, seed, seconds) and repeats exactly.
"""

from __future__ import annotations

import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro import build_workload_split, create_estimator, load_estimator, make_dataset, save_estimator
from repro.data import SelectivityOracle
from repro.data.updates import UpdateOperation, apply_update
from repro.experiments import get_scale
from repro.net.client import BinaryClient, HttpClient
from repro.serving import EstimationService

from . import measure, streams
from .tracing import PATCHES, Span, Tracer, install

#: the paper setting every workload uses (face-cos) at the ``small`` scale
SCALE = get_scale("small")
#: labelling threads.  One: between two sets of ten runs on a shared 2-CPU
#: host, the median two-thread ``train`` set-up moved 23 % while a
#: one-thread calibration loop moved 7 %
WORKERS = 1
#: rows per request, as a query optimizer batches one plan's predicates
REQUEST_ROWS = 32
#: ascending thresholds per probed query in the Lemma 1 check
PROBE_POINTS = 16
MODEL = "m"


@dataclass
class Sizes:
    """Sizes of one workload; ``ops_per_second`` is the timed work per second of ``--seconds``."""

    num_vectors: int
    num_queries: int
    fit: Dict[str, object]
    ops_per_second: float
    min_ops: int = 1
    pool: int = 0
    updates_per_second: float = 0.0
    setup_repeats: int = 5


_FIT_BUDGET = dict(early_stopping_patience=None, num_control_points=SCALE.num_control_points)

#: the served partitioned SelNet of serve-miss and serve-hot (fit during set-up)
_SERVED = dict(
    num_vectors=500,
    num_queries=100,
    fit=dict(_FIT_BUDGET, num_partitions=3, epochs=2, pretrain_epochs=1, ae_pretrain_epochs=1),
)

SIZES = {
    # three fits of 240 SelNet optimizer steps each per 10 s (~24 s): a machine
    # slow phase of ~10 s then touches one fit, not the median
    "train": Sizes(
        num_vectors=20_000,
        num_queries=SCALE.num_queries,
        fit=dict(_FIT_BUDGET, num_partitions=3, epochs=3, pretrain_epochs=1, ae_pretrain_epochs=1),
        ops_per_second=3 / 10,
        # a set-up takes ~0.1 s, so a short machine stall moves one repeat by half
        setup_repeats=9,
    ),
    # at least 1 000 requests, so p99 has ten samples beyond it; a miss-heavy
    # request takes ~17 ms, so serve-miss runs longer than --seconds
    "serve-miss": Sizes(**_SERVED, ops_per_second=100.0, min_ops=1_000, pool=2_560),
    # ~10 s of ~0.8 ms requests at 10 s, so a machine slow phase of a few
    # seconds covers a minority of the ten chunks
    "serve-hot": Sizes(**_SERVED, ops_per_second=1_200.0, min_ops=1_000, pool=128),
    "serve-update": Sizes(
        num_vectors=1_000,
        num_queries=SCALE.num_queries,
        # fine-tunes run exactly update_max_epochs: it does not exceed the patience (3)
        fit=dict(_FIT_BUDGET, epochs=2, pretrain_epochs=1, ae_pretrain_epochs=1, update_max_epochs=3),
        ops_per_second=125.0,
        min_ops=1_000,
        pool=512,
        # five update cycles per 10 s, each one chunk of the pass; the first read
        # after each of the 15 updates refills an empty cache, and those reads
        # are the tail that p99 (12.5 beyond) lands in
        updates_per_second=1.5,
    ),
}

#: serve-update batch cycle: (kind, share of the current database).  The insert
#: grows the database by half and moves validation MAE well past the default
#: drift threshold (5 objects), so one update in three fine-tunes; the small
#: deletes stay below it.
UPDATE_PATTERN = [("insert", 0.50), ("delete", 0.01), ("delete", 0.01)]


@dataclass
class PassResult:
    """What one timed pass did."""

    latencies: List[float]
    rows: int
    wall: float
    #: rows per second and median latency of consecutive chunks of the pass
    #: (fits for ``train``, update cycles for ``serve-update``)
    chunk_rates: List[float] = field(default_factory=list)
    chunk_p50s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    answers: Optional[np.ndarray] = None
    labels: Optional[np.ndarray] = None


def bad_answers(values: np.ndarray) -> int:
    """Answers that break the contract on their own: negative or non-finite."""
    values = np.asarray(values, dtype=np.float64)
    return int(np.count_nonzero(~np.isfinite(values) | (values < 0)))


#: a pair violates Lemma 1 when its estimate drops by more than this many
#: objects: the tolerance of the program's own monotonicity measure
#: (``repro.eval.metrics.empirical_monotonicity``); smaller drops are float
#: rounding in curve interpolation and are counted apart as strict decreases
MONOTONICITY_TOLERANCE = 1e-9


def decreasing_pairs(curves: np.ndarray, tolerance: float = MONOTONICITY_TOLERANCE) -> np.ndarray:
    """Per query: adjacent (t1 < t2) pairs whose estimate decreases by more than ``tolerance``."""
    curves = np.asarray(curves, dtype=np.float64)
    return np.count_nonzero(np.diff(curves, axis=1) < -tolerance, axis=1)


def probe_thresholds(t_max: float) -> np.ndarray:
    """Ascending probe thresholds from 0 to twice ``t_max`` (beyond-range included)."""
    return np.linspace(0.0, 2.0 * t_max, PROBE_POINTS)


class Workload:
    name = ""

    def __init__(self, seed: int, seconds: float, workdir: Path, tracer: Tracer, sizes: Optional[Dict] = None):
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.workdir = Path(workdir)
        self.tracer = tracer
        self.sizes = replace(SIZES[self.name], **(sizes or {}))
        self.fingerprints: Dict[str, str] = {}
        self.counters: Dict[str, float] = {}

    # -- sizing -------------------------------------------------------- #
    def num_ops(self) -> int:
        return max(self.sizes.min_ops, int(round(self.seconds * self.sizes.ops_per_second)), 1)

    def rng(self, label: str) -> np.random.Generator:
        return streams.rng(self.seed, self.name, label)

    # -- shared set-up steps ------------------------------------------- #
    def build_split(self):
        tracer = self.tracer
        with tracer.span("data.generate"):
            dataset = make_dataset(
                "face_like", num_vectors=self.sizes.num_vectors, dim=SCALE.dim_face, seed=self.seed
            )
        with tracer.span("exact.label"):
            split = build_workload_split(
                dataset,
                "cosine",
                num_queries=self.sizes.num_queries,
                thresholds_per_query=SCALE.thresholds_per_query,
                max_selectivity_fraction=SCALE.max_selectivity_fraction,
                seed=self.seed,
                num_workers=WORKERS,
            )
        tracer.count("exact.labels", self.sizes.num_queries * SCALE.thresholds_per_query)
        labels = np.concatenate([part.selectivities for part in (split.train, split.validation, split.test)])
        self.fingerprints["dataset"] = streams.fingerprint(dataset.vectors)
        self.fingerprints["labels"] = streams.fingerprint(labels)
        return split

    def fit(self, estimator_name: str, split):
        estimator = create_estimator(estimator_name, seed=self.seed, **self.sizes.fit)
        with self.tracer.span("core.fit"):
            estimator.fit(split)
        return estimator

    def save_and_load(self, estimator, load: bool = True):
        path = self.workdir / "models" / MODEL
        if path.exists():
            shutil.rmtree(path)
        with self.tracer.span("persistence.save"):
            save_estimator(estimator, path)
        if not load:
            return None
        with self.tracer.span("persistence.load"):
            return load_estimator(path, mmap=True)

    def label(self, oracle, pool: np.ndarray, ids: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
        """Exact selectivity of every request row: one distance scan per distinct query."""
        labels = np.empty(ids.shape)
        flat_ids, flat_thresholds, flat_labels = ids.ravel(), thresholds.ravel(), labels.reshape(-1)
        with self.tracer.span("exact.label"):
            order = np.argsort(flat_ids, kind="stable")
            starts = np.flatnonzero(np.r_[True, np.diff(flat_ids[order]) != 0])
            for rows in np.split(order, starts[1:]):
                distances = oracle.sorted_distances_to(pool[flat_ids[rows[0]]])
                flat_labels[rows] = np.searchsorted(distances, flat_thresholds[rows], side="right")
        self.tracer.count("exact.labels", ids.size)
        return labels

    def timed_stream(self, send, before_request=None, bounds=None) -> PassResult:
        """Send every request of ``self.ids`` in order, each after the previous answer.

        ``send(request)`` returns the answers; ``before_request(request,
        result)`` runs untimed work between requests (serve-update's updates)
        inside the stream wall.  An exception or a negative / non-finite
        answer is a failed operation.  ``bounds`` cut the stream into the
        chunks of :attr:`PassResult.chunk_rates` (default: even chunks).
        """
        result = PassResult(latencies=[], rows=self.ids.size, wall=0.0, attempted=len(self.ids))
        answers = np.full(self.ids.shape, np.nan)
        latencies = np.full(len(self.ids), np.nan)
        starts = []
        start = time.perf_counter()
        for request in range(len(self.ids)):
            starts.append(time.perf_counter())
            if before_request is not None:
                before_request(request, result)
            begin = time.perf_counter()
            try:
                with self.tracer.request(request):
                    answers[request] = send(request)
            except Exception as error:  # a raising call is a failed operation, not a crash
                result.failed += 1
                result.errors.append(repr(error))
                continue
            latencies[request] = time.perf_counter() - begin
            result.failed += 1 if bad_answers(answers[request]) else 0
        end = time.perf_counter()
        result.wall = end - start
        bounds = measure.even_bounds(len(self.ids)) if bounds is None else bounds
        result.latencies = latencies[np.isfinite(latencies)].tolist()
        result.chunk_rates = measure.chunk_rates(starts, end, REQUEST_ROWS, bounds)
        result.chunk_p50s = measure.chunk_p50s(latencies, bounds)
        result.answers, result.labels = answers.ravel(), self.labels.ravel()
        return result

    # -- interface ------------------------------------------------------ #
    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> PassResult:
        raise NotImplementedError

    def check(self, result: PassResult) -> Dict[str, float]:
        """Lemma 1 probe plus quality (see :func:`probe_summary`)."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return measure.peak_rss_mb()

    def meta(self) -> Dict[str, object]:
        """Workload-specific run metadata."""
        return {}


# ---------------------------------------------------------------------- #
# train
# ---------------------------------------------------------------------- #
#: the wrappers that time SelNet optimizer steps in ``train``'s untraced pass
STEP_PATCHES = tuple(patch for patch in PATCHES if patch[3] in ("nn.optim_step", "nn.ae_pretrain"))


def step_intervals(spans: List[Span]) -> List[float]:
    """Intervals between the ends of consecutive SelNet optimizer steps.

    Steps taken inside autoencoder pre-training are left out: their spans
    have an ``nn.ae_pretrain`` parent.
    """
    ends = [span.end for span in spans if span.name == "nn.optim_step" and span.parent is None]
    return [b - a for a, b in zip(ends, ends[1:])]


class Train(Workload):
    name = "train"

    def setup(self) -> None:
        self.split = self.build_split()

    def run(self) -> PassResult:
        fits = self.num_ops()
        # one span per ~20 ms optimizer step: the only wrappers in the untraced pass
        steps = Tracer()
        uninstall = install(steps, STEP_PATCHES)
        walls, intervals = [], []
        try:
            for _ in range(fits):
                first = len(steps.spans)
                start = time.perf_counter()
                estimator = self.fit("selnet", self.split)
                walls.append(time.perf_counter() - start)
                intervals.append(step_intervals(steps.spans[first:]))
        finally:
            uninstall()
        self.estimator = estimator
        fit = self.sizes.fit
        rows_per_fit = len(self.split.train) * (fit["epochs"] + fit["pretrain_epochs"])
        test = self.split.test
        answers = estimator.estimate(test.queries, test.thresholds)
        failed = 1 if bad_answers(answers) else 0
        return PassResult(
            latencies=[interval for fit_intervals in intervals for interval in fit_intervals],
            rows=rows_per_fit * fits,
            wall=sum(walls),
            chunk_rates=[rows_per_fit / wall for wall in walls],
            chunk_p50s=[statistics.median(fit_intervals) for fit_intervals in intervals],
            attempted=fits,
            failed=failed,
            answers=answers,
            labels=test.selectivities,
        )

    def check(self, result: PassResult) -> Dict[str, float]:
        test = self.split.test
        _, first = np.unique(test.query_ids, return_index=True)
        queries = test.queries[np.sort(first)]
        grid = probe_thresholds(self.split.t_max)
        curves = self.estimator.estimate(
            np.repeat(queries, len(grid), axis=0), np.tile(grid, len(queries))
        ).reshape(len(queries), len(grid))
        return probe_summary(curves, result)


def probe_summary(curves: np.ndarray, result: PassResult) -> Dict[str, float]:
    """Lemma 1 counts over probed queries (one probe per query) plus the workload's quality."""
    errors = np.abs(result.answers - result.labels)
    violations = decreasing_pairs(curves) + np.count_nonzero(~np.isfinite(curves) | (curves < 0), axis=1)
    return {
        "probed_pairs": float(curves.shape[0] * (curves.shape[1] - 1)),
        "violations": float(violations.sum()),
        "strict_decreases": float(decreasing_pairs(curves, tolerance=0.0).sum()),
        "probes": float(len(curves)),
        "failed_probes": float(np.count_nonzero(violations)),
        "mae": float(np.mean(errors)),
        "wape": float(errors.sum() / np.sum(result.labels)),
    }


# ---------------------------------------------------------------------- #
# serve-miss and serve-update: in-process EstimationService
# ---------------------------------------------------------------------- #
def cache_counters(stats: Dict) -> Dict[str, float]:
    """Cache counters from an ``EstimationService.stats()`` dict (in-process or a shard's)."""
    cache = stats["cache"]
    return {
        "serving.cache_hits": cache["hits"],
        "serving.cache_misses": cache["misses"],
        "serving.evictions": cache["evictions"],
        "serving.invalidations": cache["invalidations"],
        "serving.curve_builds": stats["per_model"].get(MODEL, {}).get("curve_builds", 0),
        "serving.cache_bytes": cache["bytes"],
    }


def counter_delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    """Counters over the timed pass; ``cache_bytes`` is a level, not a count."""
    delta = {key: float(after[key] - before[key]) for key in after}
    delta["serving.cache_bytes"] = float(after["serving.cache_bytes"])
    lookups = delta["serving.cache_hits"] + delta["serving.cache_misses"]
    delta["serving.hit_ratio"] = delta["serving.cache_hits"] / lookups if lookups else 0.0
    return delta


class ServeMiss(Workload):
    name = "serve-miss"
    estimator_name = "selnet"

    def setup(self) -> None:
        self.split = self.build_split()
        estimator = self.fit(self.estimator_name, self.split)
        self.estimator = self.save_and_load(estimator)
        self.service = EstimationService()
        self.service.add_model(MODEL, self.estimator)
        self.t_max = self.split.t_max
        self.pool = streams.query_pool(self.rng("pool"), self.split.dataset.vectors, self.sizes.pool)
        self.make_stream()
        # warm-up: compile the kernel and run one request of queries outside the pool
        warm = streams.query_pool(self.rng("warm"), self.split.dataset.vectors, REQUEST_ROWS)
        self.service.estimate(MODEL, warm, np.full(REQUEST_ROWS, 0.5 * self.t_max))

    def send(self, request: int) -> np.ndarray:
        with self.tracer.span("serving.estimate"):
            return self.service.estimate(MODEL, self.pool[self.ids[request]], self.thresholds[request])

    def probe(self, queries: np.ndarray) -> np.ndarray:
        """Each query's answers over ascending thresholds, through the service."""
        grid = probe_thresholds(self.t_max)
        per_call = max(self.service.max_batch_size // len(grid), 1)
        curves = []
        for start in range(0, len(queries), per_call):
            chunk = queries[start : start + per_call]
            answers = self.service.estimate(
                MODEL, np.repeat(chunk, len(grid), axis=0), np.tile(grid, len(chunk))
            )
            curves.append(answers.reshape(len(chunk), len(grid)))
        return np.concatenate(curves)

    def make_stream(self) -> None:
        requests = self.num_ops()
        self.ids = streams.uniform_requests(self.rng("stream"), len(self.pool), requests, REQUEST_ROWS)
        self.thresholds = streams.thresholds(self.rng("thresholds"), self.ids.shape, self.t_max)
        self.labels = self.label(self.split.oracle, self.pool, self.ids, self.thresholds)
        self.fingerprints["stream"] = streams.fingerprint(self.pool, self.ids, self.thresholds)

    def run(self) -> PassResult:
        before = cache_counters(self.service.stats())
        result = self.timed_stream(self.send)
        self.counters = counter_delta(before, cache_counters(self.service.stats()))
        return result

    def check(self, result: PassResult) -> Dict[str, float]:
        served = np.unique(self.ids)
        return probe_summary(self.probe(self.pool[served]), result)


class ServeUpdate(ServeMiss):
    name = "serve-update"
    estimator_name = "selnet-inc"

    def make_stream(self) -> None:
        reads = self.num_ops()
        num_updates = max(int(round(self.seconds * self.sizes.updates_per_second)), 1)
        self.ids = streams.zipf_requests(self.rng("stream"), len(self.pool), reads, REQUEST_ROWS)
        self.thresholds = streams.thresholds(self.rng("thresholds"), self.ids.shape, self.t_max)
        self.batches = streams.update_batches(
            self.rng("updates"), self.split.dataset.vectors, UPDATE_PATTERN, num_updates
        )
        # update k is applied just before read update_at[k]
        self.update_at = [int((k + 1) * reads / (num_updates + 1)) for k in range(num_updates)]
        # exact labels of each read against the database as it is when the read is sent
        data = self.split.dataset.vectors
        labels = np.empty(self.ids.shape)
        bounds = [0] + self.update_at + [reads]
        for segment in range(num_updates + 1):
            if segment:
                kind, payload = self.batches[segment - 1]
                operation = (
                    UpdateOperation(kind="insert", vectors=payload)
                    if kind == "insert"
                    else UpdateOperation(kind="delete", indices=payload)
                )
                data = apply_update(data, operation)
            rows = slice(bounds[segment], bounds[segment + 1])
            oracle = SelectivityOracle(data, self.split.distance, num_workers=WORKERS)
            labels[rows] = self.label(oracle, self.pool, self.ids[rows], self.thresholds[rows])
        self.labels = labels
        self.fingerprints["stream"] = streams.fingerprint(
            self.pool, self.ids, self.thresholds, *[payload for _, payload in self.batches]
        )

    def run(self) -> PassResult:
        before = cache_counters(self.service.stats())
        pending = dict(zip(self.update_at, self.batches))
        update_walls = []
        reports = self.reports = []

        def apply_update_before(request: int, result: PassResult) -> None:
            if request not in pending:
                return
            kind, payload = pending.pop(request)
            result.attempted += 1
            begin = time.perf_counter()
            try:
                with self.tracer.span("serving.update"):
                    if kind == "insert":
                        reports.extend(self.service.update(MODEL, inserts=payload))
                    else:
                        reports.extend(self.service.update(MODEL, deletes=payload))
            except Exception as error:  # a raising update is a failed operation
                result.failed += 1
                result.errors.append(repr(error))
            update_walls.append(time.perf_counter() - begin)

        # one chunk per update cycle (it starts at the cycle's insert), so every
        # chunk holds the same mix of fine-tune, deletes and reads
        cycle_starts = self.update_at[len(UPDATE_PATTERN) :: len(UPDATE_PATTERN)]
        bounds = [0] + cycle_starts + [len(self.ids)]
        result = self.timed_stream(self.send, apply_update_before, bounds)
        self.counters = counter_delta(before, cache_counters(self.service.stats()))
        self.counters.update(
            {
                "core.fine_tunes": float(sum(report.retrained for report in reports)),
                "core.fine_tune_epochs": float(sum(report.fine_tune_epochs for report in reports)),
                "bench.updates": float(len(self.batches)),
                "bench.update_wall_s": float(sum(update_walls)),
            }
        )
        return result

    def meta(self) -> Dict[str, object]:
        """Per update: kind, whether it fine-tuned, and validation MAE before and after it.

        The fine-tune decision compares the MAE before the update with the
        MAE after the last fine-tune against the drift threshold (5 objects);
        these values show how far each decision is from flipping.
        """
        return {
            "updates": [
                [report.operation_kind, report.retrained,
                 round(report.validation_mae_before, 3), round(report.validation_mae_after, 3)]
                for report in self.reports
            ]
        }


# ---------------------------------------------------------------------- #
# serve-hot: repro serve in its own process, one network-backend shard
# ---------------------------------------------------------------------- #
def _free_ports(count: int) -> List[int]:
    """Distinct free ports: every socket stays bound until all ports are read."""
    sockets = [socket.socket() for _ in range(count)]
    try:
        for sock in sockets:
            sock.bind(("127.0.0.1", 0))
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


_SERVER_SUMS = {
    "net.server_request_s": "repro_app_request_latency_seconds_sum{endpoint=\"estimate\"}",
    "cluster.sub_batch_s": "repro_cluster_sub_batch_latency_seconds_sum",
    "serving.server_estimate_s": "repro_service_estimate_latency_seconds_sum",
}


def _server_sums(text: str) -> Dict[str, float]:
    """Sums of the server's latency histograms, from its Prometheus text."""
    sums = {key: 0.0 for key in _SERVER_SUMS}
    for line in text.splitlines():
        name, _, value = line.rpartition(" ")
        for key, prefix in _SERVER_SUMS.items():
            if name.startswith(prefix):
                sums[key] += float(value)
    return sums


@contextmanager
def on_one_cpu():
    """Run the block, and every process it starts, on one CPU (the highest this process may use).

    serve-hot's client, frontend and shard worker hand each request on in a
    closed loop, so only one of them runs at a time.  On one CPU each hand-off
    is a local context switch; across CPUs it is a wake-up of an idle virtual
    CPU, whose delay on a shared host follows the neighbours' load.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


class ServeHot(Workload):
    name = "serve-hot"
    server: Optional[subprocess.Popen] = None
    client: Optional[BinaryClient] = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: how long each server took to stop, how many had to be killed, and
        #: how many exited while starting (a chosen port taken before it bound)
        self.stop_seconds: List[float] = []
        self.stop_timeouts = 0
        self.start_failures = 0

    def setup(self) -> None:
        self.split = self.build_split()
        self.t_max = self.split.t_max
        self.save_and_load(self.fit("selnet", self.split), load=False)
        with self.tracer.span("net.server_start"):
            self.start_server()
        vectors = self.split.dataset.vectors
        self.pool = streams.query_pool(self.rng("hot"), vectors, self.sizes.pool)
        self.ids = streams.uniform_requests(self.rng("stream"), len(self.pool), self.num_ops(), REQUEST_ROWS)
        self.thresholds = streams.thresholds(self.rng("thresholds"), self.ids.shape, self.t_max)
        self.labels = self.label(self.split.oracle, self.pool, self.ids, self.thresholds)
        self.fingerprints["stream"] = streams.fingerprint(self.pool, self.ids, self.thresholds)
        # warm-up: every hot query once, at the largest threshold the stream can send,
        # so each cached curve covers every later request
        for start in range(0, len(self.pool), REQUEST_ROWS):
            chunk = self.pool[start : start + REQUEST_ROWS]
            self.client.estimate(MODEL, chunk, np.full(len(chunk), 2.0 * self.t_max))

    def start_server(self) -> None:
        """Start ``repro serve`` and wait for its binary port; retried on fresh ports if it exits."""
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        for _ in range(3):
            http_port, binary_port = _free_ports(2)
            self.log = open(self.workdir / "server.log", "ab")
            with on_one_cpu():  # the server and its shard worker inherit the CPU
                self.server = subprocess.Popen(
                    [
                        sys.executable, "-m", "repro", "serve", str(self.workdir / "models"),
                        "--port", str(http_port), "--binary-port", str(binary_port),
                        "--shards", "1", "--backend", "network", "--max-seconds", "170",
                    ],
                    cwd=str(root),
                    env=env,
                    stdout=self.log,
                    stderr=subprocess.STDOUT,
                    start_new_session=True,  # its own process group, so close() can reap the shard worker
                )
            if self._wait_ready(binary_port):
                self.http = HttpClient("127.0.0.1", http_port)
                return
            self.start_failures += 1
            self.close()
        raise RuntimeError(f"repro serve exited at start three times; see {self.workdir / 'server.log'}")

    def _wait_ready(self, binary_port: int) -> bool:
        deadline = time.monotonic() + 60.0
        while self.server.poll() is None:
            try:
                self.client = BinaryClient("127.0.0.1", binary_port)
                self.client.ping()
                return True
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)
        return False

    def worker_counters(self) -> Dict[str, float]:
        return cache_counters(self.client.stats()["cluster"]["per_shard"][0]["worker"])

    def send(self, request: int) -> np.ndarray:
        with self.tracer.span("net.client_roundtrip"):
            return self.client.estimate(MODEL, self.pool[self.ids[request]], self.thresholds[request])

    def run(self) -> PassResult:
        before, sums_before = self.worker_counters(), _server_sums(self.http.metrics_text())
        with on_one_cpu():
            result = self.timed_stream(self.send)
        self.counters = counter_delta(before, self.worker_counters())
        sums_after = _server_sums(self.http.metrics_text())
        self.counters.update({key: sums_after[key] - sums_before[key] for key in sums_after})
        return result

    def check(self, result: PassResult) -> Dict[str, float]:
        grid = probe_thresholds(self.t_max)
        per_call = max(256 // len(grid), 1)
        curves = []
        for start in range(0, len(self.pool), per_call):
            chunk = self.pool[start : start + per_call]
            answers = self.client.estimate(MODEL, np.repeat(chunk, len(grid), axis=0), np.tile(grid, len(chunk)))
            curves.append(np.asarray(answers).reshape(len(chunk), len(grid)))
        return probe_summary(np.concatenate(curves), result)

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            start = time.perf_counter()
            if self.server.poll() is None:
                self.server.send_signal(signal.SIGINT)
                try:
                    self.server.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    self.stop_timeouts += 1
            self.stop_seconds.append(time.perf_counter() - start)
            try:  # whatever of the server's process group is still running
                os.killpg(self.server.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.server.wait(timeout=10)
            self.server = None
            self.log.close()

    def peak_rss_mb(self) -> float:
        """Largest process of the serving tier (the shard worker holds the model)."""
        self.close()
        return measure.peak_rss_mb(children=True)

    def meta(self) -> Dict[str, object]:
        return {
            "server_stop_s": self.stop_seconds,
            "server_stop_timeouts": self.stop_timeouts,
            "server_start_failures": self.start_failures,
        }


WORKLOADS = {cls.name: cls for cls in (Train, ServeMiss, ServeHot, ServeUpdate)}
