"""Tests for the perf runtime pieces: executors, cache, bench, merging."""

import dataclasses
import threading

import pytest

from repro.errors import ConfigurationError
from repro.perf.bench import compare_to_baseline, run_bench
from repro.perf.cache import AnalyzerCache
from repro.perf import executors
from repro.perf.executors import BACKENDS, ParallelConfig, parallel_map
from repro.pipeline import AnalyzerConfig
from repro.runtime import Instrumentation


def _square(value):
    """Module-level so the processes backend can pickle it."""
    return value * value


def _boom(value):
    raise ValueError(f"worker refused item {value}")


_WORKER_OFFSET = 0


def _install_offset(offset):
    global _WORKER_OFFSET
    _WORKER_OFFSET = offset


def _add_offset(value):
    return value + _WORKER_OFFSET


class TestParallelConfig:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="backend"):
            ParallelConfig(backend="fibers")

    def test_rejects_zero_workers(self):
        with pytest.raises(ConfigurationError, match="workers"):
            ParallelConfig(workers=0)

    def test_pool_size_never_exceeds_items(self, monkeypatch):
        monkeypatch.setattr(executors, "available_cpus", lambda: 16)
        config = ParallelConfig(backend="threads", workers=8)
        assert config.pool_size(3) == 3
        assert config.pool_size(100) == 8

    def test_pool_size_capped_at_available_cpus(self, monkeypatch):
        monkeypatch.setattr(executors, "available_cpus", lambda: 2)
        config = ParallelConfig(backend="threads", workers=8)
        assert config.pool_size(100) == 2

    def test_serial_detection(self):
        assert ParallelConfig().is_serial
        assert ParallelConfig(backend="threads", workers=1).is_serial
        assert not ParallelConfig(backend="threads", workers=2).is_serial


class TestParallelMap:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_preserves_input_order(self, backend):
        config = ParallelConfig(backend=backend, workers=3)
        items = list(range(23))
        assert parallel_map(_square, items, config) == [i * i for i in items]

    @pytest.mark.parametrize("backend", ("serial", "threads"))
    def test_worker_exception_propagates(self, backend):
        config = ParallelConfig(backend=backend, workers=2)
        with pytest.raises(ValueError, match="refused item"):
            parallel_map(_boom, [1, 2, 3], config)

    def test_initializer_runs_in_process_when_serial(self):
        out = parallel_map(
            _add_offset,
            [1, 2],
            ParallelConfig(),
            initializer=_install_offset,
            initargs=(100,),
        )
        assert out == [101, 102]

    def test_initializer_reaches_process_workers(self):
        out = parallel_map(
            _add_offset,
            list(range(6)),
            ParallelConfig(backend="processes", workers=2),
            initializer=_install_offset,
            initargs=(1000,),
        )
        assert out == [1000 + i for i in range(6)]


class TestInstrumentationMerge:
    def test_merge_folds_spans_calls_and_counters(self):
        parent = Instrumentation()
        with parent.span("shared"):
            pass
        parent.count("frames", 2)

        worker = Instrumentation()
        with worker.span("shared"):
            pass
        with worker.span("worker_only"):
            pass
        worker.count("frames", 3)
        worker.count("pixels", 10)

        parent.merge(worker)
        timings = {t.name: t for t in parent.timings()}
        assert timings["shared"].calls == 2
        assert timings["worker_only"].calls == 1
        assert parent.counter("frames") == 5
        assert parent.counter("pixels") == 10
        assert parent.seconds("shared") >= timings["worker_only"].seconds * 0

    def test_parallel_segmentation_keeps_sub_spans(self):
        from repro.segmentation.pipeline import SegmentationPipeline
        from repro.video.synthesis import (
            JumpParameters,
            SyntheticJumpConfig,
            synthesize_jump,
        )

        jump = synthesize_jump(
            SyntheticJumpConfig(seed=1, params=JumpParameters(num_frames=5))
        )
        instrumentation = Instrumentation()
        pipeline = SegmentationPipeline(
            instrumentation=instrumentation,
            parallel=ParallelConfig(backend="threads", workers=2),
        )
        pipeline.segment_video(jump.video)
        names = {t.name for t in instrumentation.timings()}
        assert "segmentation/subtract" in names
        assert "segmentation/parallel_frames" in names
        assert instrumentation.counter("segmentation.frames") == 5


class TestAnalyzerCache:
    def _config(self, max_points=1500):
        base = AnalyzerConfig()
        return dataclasses.replace(
            base,
            tracker=dataclasses.replace(
                base.tracker,
                fitness=dataclasses.replace(
                    base.tracker.fitness, max_points=max_points
                ),
            ),
        )

    def test_hit_miss_and_identity(self):
        built = []

        def factory(config):
            built.append(config)
            return object()

        cache = AnalyzerCache(factory, capacity=4)
        first = cache.get(self._config())
        second = cache.get(self._config())
        assert first is second
        assert len(built) == 1
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_eviction_at_capacity(self):
        cache = AnalyzerCache(lambda config: object(), capacity=2)
        a = cache.get(self._config(100))
        cache.get(self._config(200))
        cache.get(self._config(300))  # evicts the 100-point entry
        stats = cache.stats()
        assert stats["evictions"] == 1 and stats["size"] == 2
        assert cache.get(self._config(100)) is not a  # rebuilt

    def test_parallel_block_separates_entries(self):
        """Same config hash, different backend: distinct cache slots."""
        cache = AnalyzerCache(lambda config: object(), capacity=4)
        serial = self._config()
        threaded = dataclasses.replace(
            serial, parallel=ParallelConfig(backend="threads", workers=4)
        )
        assert cache.key_for(serial) != cache.key_for(threaded)
        assert cache.get(serial) is not cache.get(threaded)

    def test_concurrent_gets_share_one_instance(self):
        cache = AnalyzerCache(lambda config: object(), capacity=2)
        config = self._config()
        seen = []

        def worker():
            seen.append(cache.get(config))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(entry) for entry in seen}) == 1

    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            AnalyzerCache(lambda config: object(), capacity=0)


class TestBenchHarness:
    @pytest.fixture(scope="class")
    def quick_report(self):
        return run_bench(frames=4, workers=2, seed=3, quick=True)

    def test_quick_report_shape(self, quick_report):
        assert quick_report["bench_version"] >= 1
        assert quick_report["config_hash"]
        sections = quick_report["sections"]
        assert set(sections["segmentation"]["backends"]) == {"serial", "threads"}
        assert sections["ga_single_frame"]["identical_best"] is True
        assert set(sections["end_to_end"]) == {"optimized"}
        assert sections["end_to_end"]["optimized"]["seconds"] > 0
        ttfr = sections["time_to_first_result"]
        assert ttfr["warmup_frames"] >= 2
        assert ttfr["first_result_seconds"] > 0
        assert ttfr["ratio_vs_batch"] > 0
        fitness_batch = sections["fitness_batch"]
        assert fitness_batch["identical_values"] is True
        assert fitness_batch["batched"]["evaluations_per_sec"] > 0
        scale_out = sections["scale_out"]
        assert scale_out["available_cpus"] >= 1
        assert scale_out["dispatch"]["tasks"] > 0
        for entry in scale_out["sizes"]:
            assert entry["serial"]["frames_per_sec"] > 0

    def test_report_is_json_ready(self, quick_report):
        import json

        json.dumps(quick_report)

    def test_gate_accepts_itself(self, quick_report):
        ok, message = compare_to_baseline(quick_report, quick_report)
        assert ok
        assert "frames/sec" in message

    def test_gate_rejects_big_regression(self, quick_report):
        inflated = {
            "sections": {
                "end_to_end": {
                    "optimized": {
                        "frames_per_sec": quick_report["sections"]["end_to_end"][
                            "optimized"
                        ]["frames_per_sec"]
                        * 10.0
                    }
                }
            }
        }
        ok, _ = compare_to_baseline(quick_report, inflated, max_regression=2.0)
        assert not ok

    def test_gate_reports_malformed_baseline(self, quick_report):
        ok, message = compare_to_baseline(quick_report, {"sections": {}})
        assert not ok
        assert "baseline" in message

    def test_committed_bench_file_is_current_schema(self):
        import json
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "BENCH_4.json"
        committed = json.loads(path.read_text())
        assert committed["bench_version"] == 1
        end_to_end = committed["sections"]["end_to_end"]
        # The PR-4 acceptance floor: >= 2x end-to-end speedup.
        assert end_to_end["speedup"] >= 2.0
        assert end_to_end["optimized"]["frames_per_sec"] > 0

    def test_committed_bench_6_shows_streaming_latency_win(self):
        import json
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "BENCH_6.json"
        committed = json.loads(path.read_text())
        assert committed["bench_version"] == 1
        assert committed["sections"]["end_to_end"]["speedup"] >= 2.0
        ttfr = committed["sections"]["time_to_first_result"]
        # The PR-6 acceptance floor: a live stream's first tracked
        # result lands in < 0.25x the batch end-to-end latency.
        assert ttfr["warmup_frames"] >= 2
        assert ttfr["ratio_vs_batch"] < 0.25

    def test_committed_bench_9_shows_scale_out_wins(self):
        import json
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "BENCH_9.json"
        committed = json.loads(path.read_text())
        assert committed["bench_version"] == 1
        assert committed["sections"]["end_to_end"]["speedup"] >= 2.0
        scale_out = committed["sections"]["scale_out"]
        assert scale_out["sizes"], "scale_out must carry size entries"
        for entry in scale_out["sizes"]:
            # The PR-9 acceptance floors: descriptors shrink the
            # per-task payload >= 50x, and the processes backend (CPU
            # cap included) keeps up with the serial loop.
            assert entry["payload"]["payload_reduction"] >= 50
            assert entry["processes_vs_serial"] >= 1.0
        fitness_batch = committed["sections"]["fitness_batch"]
        assert fitness_batch["identical_values"] is True
        assert fitness_batch["batch_speedup"] > 1.0
