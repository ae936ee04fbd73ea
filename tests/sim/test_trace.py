"""Unit tests for stopwatches, sample statistics, and the tracer."""

import math

import pytest

from repro.sim.trace import SampleStats, Stopwatch, Tracer


class TestStopwatch:
    def test_records_interval(self, env):
        sw = Stopwatch(env)

        def proc():
            sw.start()
            yield env.timeout(7.5)
            assert sw.stop() == 7.5

        env.process(proc())
        env.run()
        assert sw.samples == [7.5]

    def test_double_start_raises(self, env):
        sw = Stopwatch(env)
        sw.start()
        with pytest.raises(RuntimeError, match="already running"):
            sw.start()

    def test_stop_without_start_raises(self, env):
        with pytest.raises(RuntimeError, match="not running"):
            Stopwatch(env).stop()

    def test_stop_after_discard_raises(self, env):
        sw = Stopwatch(env)
        sw.start()
        sw.discard()
        with pytest.raises(RuntimeError, match="not running"):
            sw.stop()

    def test_double_stop_raises(self, env):
        sw = Stopwatch(env)
        sw.start()
        sw.stop()
        with pytest.raises(RuntimeError, match="not running"):
            sw.stop()

    def test_discard_drops_interval(self, env):
        sw = Stopwatch(env)
        sw.start()
        sw.discard()
        assert sw.samples == [] and not sw.running

    def test_running_property(self, env):
        sw = Stopwatch(env)
        assert not sw.running
        sw.start()
        assert sw.running

    def test_reset_clears_samples(self, env):
        sw = Stopwatch(env)
        sw.start()
        sw.stop()
        sw.reset()
        assert sw.samples == [] and not sw.running

    def test_multiple_samples_and_mean(self, env):
        sw = Stopwatch(env)

        def proc():
            for d in (1.0, 2.0, 3.0):
                sw.start()
                yield env.timeout(d)
                sw.stop()

        env.process(proc())
        env.run()
        assert sw.mean() == 2.0


class TestSampleStats:
    def test_empty(self):
        stats = SampleStats.from_samples([])
        assert stats.count == 0
        assert math.isnan(stats.mean)
        assert stats.total == 0.0

    def test_basic_statistics(self):
        stats = SampleStats.from_samples([2.0, 4.0, 6.0])
        assert stats.count == 3
        assert stats.mean == 4.0
        assert stats.minimum == 2.0
        assert stats.maximum == 6.0
        assert stats.total == 12.0
        # Sample (n-1) variance: ((2-4)^2 + 0 + (6-4)^2) / 2 = 4.
        assert stats.stddev == pytest.approx(2.0)

    def test_single_sample(self):
        stats = SampleStats.from_samples([5.0])
        assert stats.stddev == 0.0 and stats.mean == 5.0

    def test_two_samples(self):
        stats = SampleStats.from_samples([1.0, 3.0])
        assert stats.stddev == pytest.approx(math.sqrt(2.0))


class TestStructuredEvents:
    def test_events_of_filters_by_kind(self):
        from repro.analysis.events import ProtoEvent

        tracer = Tracer()
        tracer.emit(ProtoEvent(kind="issue", time=1.0, actor="p0", data={}))
        tracer.emit(ProtoEvent(kind="apply", time=2.0, actor="s0", data={}))
        tracer.emit(ProtoEvent(kind="issue", time=3.0, actor="p1", data={}))
        assert [e.actor for e in tracer.events_of("issue")] == ["p0", "p1"]
        assert tracer.events_of("fence_done") == []

    def test_event_limit_caps_events(self):
        from repro.analysis.events import ProtoEvent

        tracer = Tracer(event_limit=2)
        for i in range(5):
            tracer.emit(ProtoEvent(kind="issue", time=float(i), actor="p0", data={}))
        assert len(tracer.events) == 2

    def test_dump_jsonl(self, tmp_path):
        import json

        from repro.analysis.events import ProtoEvent

        tracer = Tracer()
        tracer.emit(
            ProtoEvent(kind="issue", time=1.5, actor="p0", data={"op": "put"})
        )
        path = tmp_path / "trace.jsonl"
        n = tracer.dump_jsonl(str(path), header={"run": 1})
        assert n == 1
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0] == {"run": 1}
        assert lines[1]["kind"] == "issue" and lines[1]["op"] == "put"
