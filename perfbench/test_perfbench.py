"""Tests of the benchmark itself: statistics, spans, inputs and a smoke run per workload."""

import numpy as np
import pytest

from perfbench import harness, measure, streams, tracing
from perfbench.workloads import WORKLOADS


# ---------------------------------------------------------------------- #
# percentile rule
# ---------------------------------------------------------------------- #
def test_p99_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        measure.percentile(np.arange(999.0), 99)
    assert measure.percentile(np.arange(1000.0), 99) == pytest.approx(np.percentile(np.arange(1000.0), 99))


def test_tail_percentile_is_p99_with_ten_beyond_else_p90():
    assert harness.tail_percentile(1000) == 99.0
    assert harness.tail_percentile(999) == 90.0
    assert harness.tail_percentile(100) == 90.0
    with pytest.raises(ValueError):
        harness.tail_percentile(99)


def test_tail_latency_is_the_median_of_chunk_tails():
    calm = np.ones(1_000)
    stalled = np.r_[np.ones(900), np.full(100, 50.0)]
    assert harness.tail_latency(np.r_[calm, calm, stalled, calm, calm]) == 1.0
    # fewer than two chunks' worth: one percentile over all samples
    assert harness.tail_latency(np.r_[np.ones(980), np.full(20, 9.0)]) == 9.0


def test_chunk_rates_charge_gaps_to_the_chunk_they_fall_in():
    # ten ops of 1 s each, 4 rows each; a 6 s stall before op 5 (chunk 3)
    starts = [0, 1, 2, 3, 4, 11, 12, 13, 14, 15]
    rates = measure.chunk_rates(starts, 16.0, rows_per_op=4, bounds=[0, 2, 4, 6, 8, 10])
    assert rates == [4.0, 4.0, 8 / 8, 4.0, 4.0]


def test_even_bounds_cut_the_stream_into_chunks():
    assert measure.even_bounds(1_000) == list(range(0, 1_001, 100))
    assert measure.even_bounds(5)[-1] == 5


def test_quiet_quartile_ignores_slow_stretches_in_under_three_chunks_of_four():
    times = [1.0, 1.0, 1.1, 1.0, 1.7, 1.7, 1.0, 1.7, 1.7, 1.0]
    assert measure.quiet_quartile(times, higher_is_better=False) == 1.0
    rates = [1 / t for t in times]
    assert measure.quiet_quartile(rates, higher_is_better=True) == 1.0
    assert measure.quiet_quartile([2.0], higher_is_better=False) == 2.0


def test_chunk_p50s_skip_failed_operations():
    latencies = [1.0, 3.0, np.nan, 9.0, np.nan, np.nan]
    assert measure.chunk_p50s(latencies, [0, 2, 4, 6]) == [2.0, 9.0]


# ---------------------------------------------------------------------- #
# spans and self time
# ---------------------------------------------------------------------- #
class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_children_from_nested_spans():
    # outer [0, 10] > a [1, 3], b [4, 8] > c [5, 6]
    tracer = tracing.Tracer(clock=FakeClock([0, 1, 3, 4, 5, 6, 8, 10]))
    with tracer.span("outer"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            with tracer.span("c"):
                pass
    selfs = {tracer.spans[i].name: s for i, s in tracing.self_times(tracer.spans).items()}
    assert selfs == {"outer": 4.0, "a": 2.0, "b": 3.0, "c": 1.0}
    assert sum(selfs.values()) == 10.0
    assert [span.parent for span in tracer.spans] == [None, 0, 0, 2]


def test_self_time_counts_overlapping_children_once():
    spans = [
        tracing.Span(0, "p", 0.0, 10.0, None, None),
        tracing.Span(1, "x", 1.0, 5.0, 0, None),
        tracing.Span(2, "y", 3.0, 12.0, 0, None),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_request_ids_tag_spans_and_disabled_tracer_records_nothing():
    tracer = tracing.Tracer()
    with tracer.request(7), tracer.span("s"):
        pass
    assert tracer.spans[0].request == 7
    off = tracing.Tracer(enabled=False)
    with off.span("s"):
        off.count("n")
    assert off.spans == [] and not off.counts


def test_install_wraps_and_uninstall_restores():
    from repro.nn.optim import Adam

    original = Adam.step
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert Adam.step is not original
    finally:
        uninstall()
    assert Adam.step is original


# ---------------------------------------------------------------------- #
# inputs come from the seed only
# ---------------------------------------------------------------------- #
def _stream(seed):
    vectors = streams.rng(seed, "data").normal(size=(50, 4))
    pool = streams.query_pool(streams.rng(seed, "w", "pool"), vectors, 20)
    ids = streams.zipf_requests(streams.rng(seed, "w", "stream"), 20, 30, 8)
    thresholds = streams.thresholds(streams.rng(seed, "w", "t"), ids.shape, 1.0)
    batches = streams.update_batches(streams.rng(seed, "w", "u"), vectors, [("insert", 0.1), ("delete", 0.1)], 4)
    return streams.fingerprint(pool, ids, thresholds, *[payload for _, payload in batches])


def test_stream_generators_are_deterministic_per_seed():
    assert _stream(3) == _stream(3)
    assert _stream(3) != _stream(4)


def test_thresholds_send_a_share_beyond_t_max():
    values = streams.thresholds(streams.rng(0, "t"), 20_000, 2.0)
    assert np.all(values > 0) and np.all(values <= 2.0 * streams.BEYOND_FACTOR)
    assert np.mean(values > 2.0) == pytest.approx(streams.BEYOND_SHARE, abs=0.01)


def test_delete_batches_index_the_current_database():
    vectors = np.zeros((100, 2))
    batches = streams.update_batches(streams.rng(0, "u"), vectors, [("delete", 0.5)], 3)
    sizes = [100, 50, 25]
    for (kind, indices), size in zip(batches, sizes):
        assert kind == "delete" and indices.max() < size and len(np.unique(indices)) == len(indices)


# ---------------------------------------------------------------------- #
# smoke run of every workload at tiny sizes
# ---------------------------------------------------------------------- #
_TINY_FIT = dict(early_stopping_patience=None, num_control_points=8, epochs=1, pretrain_epochs=1, ae_pretrain_epochs=1)
TINY = {
    "train": dict(num_vectors=600, num_queries=30, fit=dict(_TINY_FIT, num_partitions=3, batch_size=8), setup_repeats=1),
    "serve-miss": dict(num_vectors=300, num_queries=30, fit=dict(_TINY_FIT, num_partitions=3), pool=64, min_ops=100, setup_repeats=1),
    "serve-hot": dict(num_vectors=300, num_queries=30, fit=dict(_TINY_FIT, num_partitions=3), pool=16, min_ops=100, setup_repeats=1),
    "serve-update": dict(num_vectors=300, num_queries=30, fit=dict(_TINY_FIT, update_max_epochs=1), pool=32, min_ops=100, setup_repeats=1),
}


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "OUT", tmp_path)
    return tmp_path


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_every_workload(name, out_dir):
    result = harness.run_workload(name, seed=0, seconds=4, trace=False, sizes=TINY[name])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    assert [(key, metrics[key]["unit"]) for key in metrics] == list(harness.END_TO_END)
    assert all(np.isfinite(m["value"]) and m["value"] > 0 for m in metrics.values())
    expected = {"dataset", "labels"} | ({"stream"} if name.startswith("serve") else set())
    assert result["meta"]["fingerprints"].keys() >= expected


def test_traced_run_reconciles_and_repeats_its_counts(out_dir):
    first = harness.run_workload("serve-miss", seed=1, seconds=1, trace=True, sizes=TINY["serve-miss"])
    again = harness.run_workload("serve-miss", seed=1, seconds=1, trace=True, sizes=TINY["serve-miss"])
    assert first["correct"] and again["correct"]
    assert again["meta"]["record_mismatches"] == []
    values = {key: metric["value"] for key, metric in first["metrics"].items()}
    assert values["trace.attributed_s"] + values["trace.unattributed_s"] == pytest.approx(
        values["trace.untraced_wall_s"]
    )
    assert values["serving.cache_misses"] > 0 and values["index.indicator_rows"] > 0
    assert values["check.consistency_violations"] == 0
    units = harness.per_layer_units()
    assert {key: metric["unit"] for key, metric in first["metrics"].items()} == units


def test_record_mismatch_fails_the_run(out_dir):
    record = {"counts": {"attempted": 3}, "quality": {"mae": 1.0}}
    assert harness.check_record("train", 0, 1, 0, "sizes", record) == []
    changed = {"counts": {"attempted": 4}, "quality": {"mae": 1.0}}
    assert harness.check_record("train", 0, 1, 0, "sizes", changed) != []
