"""One benchmark run: set-up, timed pass, checks, metrics and the run record.

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` runs the same set-up and pass twice, first untraced and then
with the span wrappers of :mod:`perfbench.tracing` installed, and reports the
per-layer table: self time per layer, counts, the unattributed remainder
(untraced wall minus all self times) and the tracing overhead (traced wall
minus untraced wall).
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import measure
from .tracing import Tracer, install, layer_self_seconds, span_calls
from .workloads import WORKLOADS, PassResult

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

#: (name, unit) of every end-to-end metric, reported on every workload
END_TO_END = (
    ("setup_s", "s"),
    ("rows_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: span name -> per-layer metric of its summed self time
SPAN_METRICS = {
    "data.generate": "data.generate_s",
    "exact.label": "exact.label_s",
    "exact.delta": "exact.delta_s",
    "index.partition": "index.partition_s",
    "index.indicator": "index.indicator_s",
    "index.local_labels": "index.local_labels_s",
    "nn.ae_pretrain": "nn.ae_pretrain_s",
    "nn.optim_step": "nn.optim_step_s",
    "autodiff.backward": "autodiff.backward_s",
    "core.fit": "core.fit_s",
    "core.forward": "core.forward_s",
    "core.update": "core.update_s",
    "inference.curve_values": "inference.curve_values_s",
    "inference.compile": "inference.compile_s",
    "serving.estimate": "serving.estimate_self_s",
    "serving.update": "serving.update_self_s",
    "persistence.save": "persistence.save_s",
    "persistence.load": "persistence.load_s",
    "net.client_roundtrip": "net.client_roundtrip_s",
    "net.server_start": "net.server_start_s",
}

#: per-layer counts (tracer counts and workload counters)
COUNT_METRICS = (
    "exact.labels",
    "autodiff.backward_calls",
    "nn.optim_steps",
    "index.indicator_rows",
    "inference.curve_points",
    "inference.compiles",
    "serving.cache_hits",
    "serving.cache_misses",
    "serving.curve_builds",
    "serving.evictions",
    "serving.invalidations",
    "core.fine_tunes",
    "core.fine_tune_epochs",
    "bench.updates",
    "check.probed_pairs",
    "check.consistency_violations",
    "check.strict_decreases",
)

#: server-side sums (serve-hot) and values derived from them, in seconds
SERVER_METRICS = (
    "net.server_request_s",
    "net.server_self_s",
    "cluster.sub_batch_s",
    "cluster.transport_s",
    "net.unattributed_s",
)

OTHER_METRICS = (
    ("bench.op_tail_ms", "ms"),
    ("quality.mae", "objects"),
    ("quality.wape", "ratio"),
    ("serving.hit_ratio", "ratio"),
    ("serving.cache_bytes", "bytes"),
    ("bench.update_wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.attributed_s", "s"),
    ("trace.unattributed_s", "s"),
)


def per_layer_units() -> Dict[str, str]:
    units = {name: "s" for name in SPAN_METRICS.values()}
    units.update({name: "count" for name in COUNT_METRICS})
    units.update({name: "s" for name in SERVER_METRICS})
    units.update(dict(OTHER_METRICS))
    return units


#: values that depend on program behaviour the benchmark cannot fix, with the reason;
#: the run record compares them only when this says nothing
NOT_REPRODUCIBLE = {
    "serve-update": {
        key: "IncrementalSelNet fine-tuning shuffles with an unseeded generator, "
        "so answers after a fine-tune differ between runs of one seed"
        for key in (
            "mae", "wape", "violations", "strict_decreases",
            "check.consistency_violations", "check.strict_decreases",
        )
    },
}


#: a run with at least this many samples per chunk reports its tail as the
#: median over consecutive chunks, so a few seconds of machine stall in one
#: chunk do not set the run's tail
TAIL_CHUNK = 1_000
MAX_TAIL_CHUNKS = 5


def tail_latency(samples: List[float]) -> float:
    """Tail latency: the median over up to five consecutive chunks of each chunk's tail percentile."""
    chunks = np.array_split(np.asarray(samples), max(1, min(MAX_TAIL_CHUNKS, len(samples) // TAIL_CHUNK)))
    return statistics.median(measure.percentile(chunk, tail_percentile(len(chunk))) for chunk in chunks)


def tail_percentile(num_samples: int) -> float:
    """p99 when ten samples lie beyond it, else p90.

    Not p95 in between: the p95 of one ``train`` fit's 239 optimizer steps
    moved 21-39 ms across calm runs with a steady 21 ms median, by how many
    of the slowest steps a machine stall happened to hit.
    """
    for q in (99.0, 90.0):
        if num_samples * (100.0 - q) / 100.0 >= measure.MIN_BEYOND:
            return q
    raise ValueError(f"{num_samples} samples are too few for a tail percentile")


def code_digest() -> str:
    """Digest of the program and benchmark sources, keying the run record."""
    digest = hashlib.sha256()
    for directory in (ROOT / "src" / "repro", ROOT / "perfbench"):
        for path in sorted(directory.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def check_record(name: str, seed: int, seconds: float, trace: int, sizes, record: Dict) -> List[str]:
    """Compare with the record of an earlier run of the same code, sizes and seed; store it if new.

    Returns the mismatches: every count and quality value must repeat exactly.
    """
    skip = NOT_REPRODUCIBLE.get(name, {})
    record = {
        section: {key: value for key, value in values.items() if key not in skip}
        for section, values in record.items()
    }
    key = hashlib.sha256(f"{code_digest()} {sizes!r}".encode()).hexdigest()[:12]
    path = OUT / "records" / f"{name}-seed{seed}-sec{seconds:g}-trace{trace}-{key}.json"
    if not path.is_file():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, indent=1, sort_keys=True))
        return []
    earlier = json.loads(path.read_text())
    return [
        f"{section}.{key}: {earlier.get(section, {}).get(key)!r} before, {value!r} now"
        for section, values in record.items()
        for key, value in values.items()
        if earlier.get(section, {}).get(key) != value
    ]


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def _end_to_end(workload, setup_times: List[float], result: PassResult, checks: Dict) -> Dict:
    return {
        "setup_s": statistics.median(setup_times),
        "rows_per_s": measure.quiet_quartile(result.chunk_rates, higher_is_better=True),
        "op_p50_ms": 1000.0 * measure.quiet_quartile(result.chunk_p50s, higher_is_better=False),
        "peak_rss_mb": workload.peak_rss_mb(),
    }


def _per_layer(
    tracer: Tracer, counters: Dict[str, float], checks: Dict, walls: Dict, untraced: PassResult
) -> Dict[str, float]:
    values = {name: 0.0 for name in per_layer_units()}
    values["bench.op_tail_ms"] = 1000.0 * tail_latency(untraced.latencies)
    self_seconds = layer_self_seconds(tracer.spans)
    for span_name, seconds in self_seconds.items():
        values[SPAN_METRICS[span_name]] += seconds
    for name, amount in tracer.counts.items():
        values[name] += amount
    values.update({key: value for key, value in counters.items() if key in values})
    if "serving.server_estimate_s" in counters:
        # serve-hot: the service runs in the shard worker, timed by its own histograms
        values["serving.estimate_self_s"] = counters["serving.server_estimate_s"]
        values["cluster.transport_s"] = counters["cluster.sub_batch_s"] - counters["serving.server_estimate_s"]
        values["net.server_self_s"] = counters["net.server_request_s"] - counters["cluster.sub_batch_s"]
        values["net.unattributed_s"] = values["net.client_roundtrip_s"] - counters["net.server_request_s"]
    values["quality.mae"] = checks["mae"]
    values["quality.wape"] = checks["wape"]
    values["check.probed_pairs"] = checks["probed_pairs"]
    values["check.consistency_violations"] = checks["violations"]
    values["check.strict_decreases"] = checks["strict_decreases"]
    attributed = sum(self_seconds.values())
    values["trace.untraced_wall_s"] = walls["untraced"]
    values["trace.traced_wall_s"] = walls["traced"]
    values["trace.overhead_s"] = walls["traced"] - walls["untraced"]
    values["trace.attributed_s"] = attributed
    values["trace.unattributed_s"] = walls["untraced"] - attributed
    return values


def _table(values: Dict[str, float], calls) -> List[str]:
    wall = values["trace.untraced_wall_s"] or 1.0
    lines = [f"{'layer metric':<32}{'value':>14}{'share':>9}{'spans':>9}"]
    reverse = {metric: span for span, metric in SPAN_METRICS.items()}
    for name, value in values.items():
        share = f"{100 * value / wall:8.1f}%" if name in reverse else ""
        spans = str(calls.get(reverse.get(name), "")) if name in reverse else ""
        lines.append(f"{name:<32}{value:>14.6g}{share:>9}{spans:>9}")
    return lines


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes: Optional[Dict] = None) -> Dict:
    """Run one workload; returns the result object plus ``meta`` (machine, checks, table)."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    cls = WORKLOADS[name]
    workdir = OUT / f"work-{name}-{seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    meta: Dict[str, object] = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    meta["machine"] = measure.machine_metadata(ROOT)
    meta["calibration_before_s"] = measure.calibration_seconds()
    workloads = []
    try:
        if trace:
            walls, results = {}, {}
            for mode in ("untraced", "traced"):
                tracer = Tracer(enabled=mode == "traced")
                uninstall = install(tracer) if tracer.enabled else (lambda: None)
                workload = cls(seed, seconds, workdir, tracer, sizes)
                workloads.append(workload)
                try:
                    start = time.perf_counter()
                    workload.setup()
                    result = results[mode] = workload.run()
                    walls[mode] = time.perf_counter() - start
                finally:
                    uninstall()
                if mode == "untraced":
                    workload.close()
            checks = workload.check(result)
            metrics = _per_layer(tracer, workload.counters, checks, walls, results["untraced"])
            units = per_layer_units()
            meta["table"] = _table(metrics, span_calls(tracer.spans))
            tracer.write_jsonl(OUT / f"spans-{name}-seed{seed}.jsonl")
            counts = {key: value for key, value in metrics.items() if units[key] == "count"}
            record = {"counts": counts, "fingerprints": workload.fingerprints}
        else:
            workload = cls(seed, seconds, workdir, Tracer(enabled=False), sizes)
            workloads.append(workload)
            setup_times = []
            for _ in range(workload.sizes.setup_repeats):
                workload.close()
                start = time.perf_counter()
                workload.setup()
                setup_times.append(time.perf_counter() - start)
            result = workload.run()
            checks = workload.check(result)
            metrics = _end_to_end(workload, setup_times, result, checks)
            units = dict(END_TO_END)
            meta["setup_times_s"] = setup_times
            meta["samples"] = len(result.latencies)
            chunks = max(1, min(MAX_TAIL_CHUNKS, len(result.latencies) // TAIL_CHUNK))
            meta["tail"] = {
                "chunks": chunks,
                "percentile": tail_percentile(len(result.latencies) // chunks),
                "op_tail_ms": 1000.0 * tail_latency(result.latencies),
            }
            meta["timed_wall_s"] = result.wall
            record = {
                "counts": {"attempted": result.attempted, "failed": result.failed, "rows": result.rows},
                "fingerprints": workload.fingerprints,
            }
    finally:
        for opened in workloads:
            opened.close()
        shutil.rmtree(workdir, ignore_errors=True)
    record["quality"] = {key: checks[key] for key in ("mae", "wape", "violations", "strict_decreases")}
    meta["calibration_after_s"] = measure.calibration_seconds()
    meta["fingerprints"] = workload.fingerprints
    mismatches = check_record(name, seed, seconds, int(trace), workload.sizes, record)
    meta["record_mismatches"] = mismatches
    meta["errors"] = result.errors[:5]
    meta.update(workload.meta())
    meta["quality"] = {key: checks[key] for key in ("mae", "wape")}
    meta["lemma1"] = {key: checks[key] for key in ("probes", "probed_pairs", "violations", "strict_decreases")}
    attempted = result.attempted + int(checks["probes"])
    failed = result.failed + int(checks["failed_probes"])
    return {
        "correct": failed == 0 and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: _metric(value, units[key]) for key, value in metrics.items()},
        "meta": meta,
    }


def print_result(result: Dict, stream=sys.stdout) -> None:
    """Metadata and table as ``#`` lines, then the result object as the last line."""
    meta = result.pop("meta")
    for line in meta.pop("table", []):
        print(f"# {line}", file=stream)
    print("# meta " + json.dumps(meta, sort_keys=True, default=str), file=stream)
    print(json.dumps(result), file=stream, flush=True)
