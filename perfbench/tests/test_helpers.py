"""Tests of the benchmark's own helpers (run: python -m pytest perfbench/tests)."""

import json

import pytest

from hostspeed import REFERENCE_S, HostSpeed
from inputs import FLEET_BIN_COUNTS, arrival_times, fleet_histograms
from layers import PER_LAYER
from run import END_TO_END
from stats import median, percentile, summarize, tail_percentile
from tracer import Tracer
from wl_serve_open_loop import Window, max_rate


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    t = Tracer(clock)
    t.begin("outer")  # 0
    clock.now = 1.0
    t.begin("mid")  # 1
    clock.now = 2.0
    t.begin("leaf")  # 2
    clock.now = 4.0
    t.end()  # leaf: 2 s
    clock.now = 5.0
    t.end()  # mid: 4 s, 2 of them in leaf
    t.begin("leaf")  # 5
    clock.now = 5.5
    t.end()  # leaf: 0.5 s
    clock.now = 7.0
    t.end()  # outer: 7 s, children mid (4) + leaf (0.5)
    m = t.layer_metrics(wall_s=10.0)
    assert m["outer.self_s"] == pytest.approx(2.5)
    assert m["mid.self_s"] == pytest.approx(2.0)
    assert m["leaf.self_s"] == pytest.approx(2.5)
    assert m["leaf.calls"] == 2 and m["outer.calls"] == 1
    # other = wall - sum of self times; self times never double count.
    assert m["other.self_s"] == pytest.approx(10.0 - 7.0)


def test_unclosed_span_is_an_error():
    t = Tracer(FakeClock())
    t.begin("open")
    with pytest.raises(RuntimeError):
        t.layer_metrics(1.0)


class Target:
    def method(self, x):
        return x + 1

    @staticmethod
    def static(x):
        return x * 2

    @classmethod
    def build(cls, x):
        return (cls, x)


def test_wrap_counts_calls_and_restores_every_kind():
    t = Tracer()
    seen = []
    originals = dict(Target.__dict__)
    t.wrap(Target, "method", "m", lambda tr, result, args, kwargs: seen.append(result))
    t.wrap(Target, "static", "s")
    t.wrap(Target, "build", "b")
    assert Target().method(1) == 2 and Target.static(3) == 6 and Target.build(4) == (Target, 4)
    assert seen == [2]
    assert t.calls == {"m": 1, "s": 1, "b": 1}
    t.restore()
    for name in ("method", "static", "build"):
        assert Target.__dict__[name] is originals[name]


def test_host_speed_scales_by_the_mean_kernel_time_around_the_unit():
    clock = FakeClock()
    kernel_seconds = iter([3, 2, 5, 6])  # best of each pair: 2, then 5

    def kernel():
        clock.now += next(kernel_seconds) * REFERENCE_S

    speed = HostSpeed(kernel, clock, repeats=2)

    def unit():
        clock.now += 7.0
        return "done"

    result, wall, corrected = speed.timed(unit)
    assert result == "done" and wall == pytest.approx(7.0)
    # Kernel at 2x and 5x its reference time: the host ran at 1/3.5 speed.
    assert corrected == pytest.approx(7.0 / 3.5)


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([3.0], 99) == 3.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5


@pytest.mark.parametrize(
    "n, q",
    [(1000, 99.0), (999, 98.0), (500, 98.0), (499, 95.0), (200, 95.0), (100, 90.0), (40, 75.0), (20, 50.0), (19, None)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, q):
    assert tail_percentile(n) == q
    if q is not None:
        beyond = sum(1 for v in range(n) if v >= percentile(list(range(n)), q) + 1)
        assert beyond >= 10


def test_summarize_reports_count_median_and_tail():
    s = summarize([float(v) for v in range(1000)])
    assert s["n"] == 1000 and s["tail_q"] == 99.0 and s["tail"] == 989.0 and s["p50"] == 499.5


def test_serve_schedule_is_seeded():
    from repro.serve.loadgen import generate_mix

    a = arrival_times(7, 400.0, 2.0)
    assert a == arrival_times(7, 400.0, 2.0)
    assert a != arrival_times(8, 400.0, 2.0)
    assert all(0.0 <= x < 2.0 for x in a) and a == sorted(a)
    assert 650 < len(a) < 950  # Poisson count around rate * duration
    assert generate_mix(len(a), seed=7) == generate_mix(len(a), seed=7)


def test_fleet_histograms_are_seeded_and_shaped():
    h = fleet_histograms(3, cycles=2)
    assert h == fleet_histograms(3, cycles=2)
    other = fleet_histograms(4, cycles=2)
    assert h != other
    # The seed moves job counts, never the bins (so difficulty holds).
    assert [[b[:2] for b in x] for x in h] == [[b[:2] for b in x] for x in other]
    assert [len(x) for x in h] == list(FLEET_BIN_COUNTS) * 2
    for hist in h:
        assert len({(a, n) for a, n, _ in hist}) == len(hist)
        assert all(198 <= jobs <= 2020 and jobs == int(jobs) for _, _, jobs in hist)


def _window(rate, latency_s, status=200):
    w = Window(rate=rate, queries=[{}] * 100)
    w.latency = [latency_s] * 100
    w.send_delay = [0.0] * 100
    w.status = [status] * 100
    return w


def test_max_rate_stops_at_first_failing_rung_and_interpolates_the_knee():
    named = {
        "heavy": _window(400.0, 0.004),
        "ladder 450": _window(450.0, 0.010),
        "ladder 500": _window(500.0, 0.090),
    }
    # p99 10 ms at 450, 90 ms at 500: 50 ms is reached halfway.
    assert max_rate(named) == (450.0, pytest.approx(475.0))
    named["ladder 500"] = _window(500.0, 0.010, status=500)
    assert max_rate(named) == (450.0, 450.0)  # failed on status: no knee
    named["ladder 450"] = _window(450.0, 0.004, status=500)
    assert max_rate(named) == (400.0, 400.0)
    named["heavy"] = _window(400.0, 0.090)
    assert max_rate(named) == (0.0, 0.0)


def test_peak_throughput_counts_the_busiest_bin():
    w = Window(rate=1000.0, queries=[{}] * 6, duration=0.3)
    w.status = [200, 200, 200, 200, 500, 200]
    w.done = [0.01, 0.12, 0.15, 0.19, 0.16, 0.31]  # bins: 1, 3 (+1 failed), 0; last is late
    assert w.peak_throughput == pytest.approx(30.0)


def test_benchmark_json_matches_the_code():
    from pathlib import Path

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (u, _) in PER_LAYER.items()}
    assert [w["name"] for w in spec["workloads"]] == ["reproduce", "serve_open_loop", "procure", "lint_project"]
