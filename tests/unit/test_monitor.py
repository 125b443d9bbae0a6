"""HealthMonitor sampling behaviour and its gauge table."""

import json
from types import SimpleNamespace

import pytest

from repro.obs import (GAUGES, HealthMonitor, TraceEvent, format_health,
                       sanitize_metric_name)
from repro.sim.stats import (MetricNameError, StatsRegistry,
                             validate_metric_name)
from repro.system import (FaultConfig, TraceConfig, WatchdogConfig,
                          build_system, scaled_config)
from repro.workloads import MICROBENCHMARKS


# ---------------------------------------------------------------------------
# gauge table
# ---------------------------------------------------------------------------
def test_name_grammar_enforced():
    for family, (help_text, unit) in GAUGES.items():
        assert validate_metric_name(family) == family
        assert sanitize_metric_name(family) == \
            "repro_" + family.replace(".", "_")
        assert help_text and unit
    for bad in ("Upper.case", "1starts.with.digit", "trailing.",
                "sp ace", "dash-es.allowed", ""):
        with pytest.raises(MetricNameError):
            validate_metric_name(bad)


def test_gauge_keeps_last_value_and_peak_per_series():
    monitor = HealthMonitor(SimpleNamespace(network=None, homes=list),
                            interval=10)
    llc0 = (("home", "llc0"),)
    monitor._set("home.queue_depth", llc0, 7)
    monitor._set("home.queue_depth", llc0, 3)
    monitor._set("home.queue_depth", (("home", "llc1"),), 0)
    assert monitor.levels == {("home.queue_depth", llc0): 3,
                              ("home.queue_depth", (("home", "llc1"),)): 0}
    # peaks keep positive high-water marks only
    assert monitor.peaks == {("home.queue_depth", llc0): 7}
    samples = monitor.gauge_samples()
    assert [(s["labels"], s["value"], s["high_water"])
            for s in samples] == [({"home": "llc0"}, 3.0, 7.0),
                                  ({"home": "llc1"}, 0.0, 0.0)]
    assert monitor.health_summary()["peaks"] == \
        {"home.queue_depth{home=llc0}": 7}


# ---------------------------------------------------------------------------
# health monitor
# ---------------------------------------------------------------------------
def _monitored_system(**overrides):
    config = scaled_config(
        "SDD", 2, 2, watchdog=WatchdogConfig(stall_cycles=200_000),
        trace=TraceConfig(monitor_interval=1000), **overrides)
    system = build_system(config)
    workload = MICROBENCHMARKS["ReuseS"](num_cpus=2, num_gpus=2,
                                         warps_per_cu=1)
    system.load_workload(workload)
    return system


def test_monitor_samples_on_interval_boundaries():
    system = _monitored_system()
    system.run(max_events=30_000_000)
    monitor = system.monitor
    assert monitor.scrapes == len(monitor.samples)
    assert monitor.scrapes > 1
    stamps = [row["ts"] for row in monitor.samples]
    assert stamps == sorted(stamps)
    # one scrape per interval window at most
    assert len({ts // 1000 for ts in stamps[:-1]}) == len(stamps) - 1


def test_monitor_rows_cover_every_surface():
    system = _monitored_system(llc_shards=2)
    system.run(max_events=30_000_000)
    row = system.monitor.samples[-1]
    home_names = {home.name for home in system.llcs}
    if system.gpu_l2 is not None:
        home_names.add(system.gpu_l2.name)
    assert set(row["homes"]) == home_names
    assert len(system.llcs) == 2
    l1_names = {l1.name for l1 in system.cpu_l1s + system.gpu_l1s}
    assert set(row["mshr"]) == l1_names and len(l1_names) == 4
    assert row["engine"]["events"] == system.engine.events_executed
    for entry in row["mshr"].values():
        assert entry["capacity"] >= entry["high_water"] >= 1
    # the final (end-of-run) scrape carries the final stats counters
    assert row["counters"] == system.stats.counters()


def test_mshr_high_water_tracks_peak_occupancy():
    system = _monitored_system()
    system.run(max_events=30_000_000)
    for l1 in system.cpu_l1s + system.gpu_l1s:
        assert l1.mshrs.high_water >= 1
        assert l1.mshrs.high_water <= l1.mshrs.capacity
        assert len(l1.mshrs) == 0      # drained at quiescence


def test_finalize_is_idempotent():
    system = _monitored_system()
    system.run(max_events=30_000_000)
    scrapes = system.monitor.scrapes
    system.monitor.finalize(system.engine.now)
    assert system.monitor.scrapes == scrapes


def test_on_sample_callbacks_fire_per_scrape():
    system = _monitored_system()
    rows = []
    system.monitor.on_sample.append(rows.append)
    system.run(max_events=30_000_000)
    assert len(rows) == system.monitor.scrapes


def test_monitor_gauge_high_water_is_whole_run_peak():
    system = _monitored_system()
    system.run(max_events=30_000_000)
    monitor = system.monitor
    peak = max(value for (family, _), value in monitor.peaks.items()
               if family == "mshr.high_water")
    direct = max(l1.mshrs.high_water
                 for l1 in system.cpu_l1s + system.gpu_l1s)
    assert peak == direct
    # a series' peak is the largest level any scrape set it to
    for key, value in monitor.levels.items():
        assert monitor.peaks.get(key, 0.0) >= value


def test_every_gauge_family_is_exported_on_a_lossy_sharded_run():
    """The gauge table against the heaviest scrape surface: two shards
    across two sockets on a lossy fabric with the reliable transport
    armed, so every family (transport included) is set."""
    faults = FaultConfig(seed=0, drop_prob=0.02, dup_prob=0.02,
                         reorder_prob=0.05, reorder_window=64)
    system = _monitored_system(llc_shards=2, topology="multi_socket",
                               num_sockets=2, faults=faults)
    system.run(max_events=30_000_000)
    samples = system.monitor.gauge_samples()
    for family, (help_text, unit) in GAUGES.items():
        mine = [sample for sample in samples if sample["name"] == family]
        assert mine, f"{family} never scraped"
        assert all(sample["help"] == help_text
                   and sample["unit"] == unit for sample in mine)
    assert {sample["name"] for sample in samples} == set(GAUGES)
    keys = [(sample["name"], sorted(sample["labels"].items()))
            for sample in samples]
    assert keys == sorted(keys)


def test_snapshot_json_round_trip_exact():
    system = _monitored_system()
    system.run(max_events=30_000_000)
    snapshot = system.monitor.snapshot()
    assert snapshot["registry"]["metrics"] == \
        system.monitor.gauge_samples()
    assert json.loads(json.dumps(snapshot)) == snapshot


def test_health_summary_and_format():
    system = _monitored_system()
    system.run(max_events=30_000_000)
    summary = system.monitor.health_summary()
    assert summary["scrapes"] == system.monitor.scrapes
    assert summary["peaks"]
    assert "critical_path" in summary
    assert json.loads(json.dumps(summary)) == summary
    text = format_health(system.monitor)
    assert "== health @ cycle" in text
    assert "engine:" in text


def test_monitor_ignores_events_before_interval():
    class _Engine:
        events_executed = 10
        def pending(self):
            return 0
        def pending_non_idle(self):
            return 0

    class _Network:
        _in_flight = {}
        _links = {}

    class _System:
        engine = _Engine()
        network = _Network()
        stats = StatsRegistry()
        cpu_l1s = ()
        gpu_l1s = ()
        spans = None

        def homes(self):
            return []

    monitor = HealthMonitor(_System(), interval=100)
    monitor(TraceEvent(5, "net.send", "a"))
    assert monitor.scrapes == 0
    monitor(TraceEvent(100, "net.send", "a"))
    assert monitor.scrapes == 1
    monitor(TraceEvent(150, "net.send", "a"))
    assert monitor.scrapes == 1
    monitor(TraceEvent(205, "net.send", "a"))
    assert monitor.scrapes == 2
    monitor.finalize(300)
    assert monitor.scrapes == 3
