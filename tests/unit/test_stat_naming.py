"""Dotted stat-name scheme: per-home canonical names (no flat
``llc.*``/``l2.*`` aggregates), read-side totals across homes, and
build-time collision detection."""

import pytest

from repro.sim.stats import (MetricNameError, StatsRegistry,
                             validate_metric_name)
from repro.system import (CONFIG_ORDER, WatchdogConfig, build_system,
                          scaled_config)
from repro.workloads import MICROBENCHMARKS


# ---------------------------------------------------------------------------
# grammar + scoping
# ---------------------------------------------------------------------------
def test_grammar_accepts_canonical_names():
    for name in ("llc.hits", "home.llc0.fills", "transport.retransmits",
                 "a", "a1.b_2.c"):
        assert validate_metric_name(name) == name


def test_grammar_rejects_violations():
    for bad in ("Llc.hits", "1a.b", "a..b", "a.", ".a", "a-b", "a b",
                ""):
        with pytest.raises(MetricNameError):
            validate_metric_name(bad)


def test_scope_total_sums_canonical_names_across_homes():
    registry = StatsRegistry()
    registry.scoped("home.llc0").incr("fills", 3)
    registry.scoped("home.llc1").incr("fills", 4)
    registry.scoped("home.gpu_l2").incr_group("requests", "ReqV", 2)
    registry.scoped("home.l3").incr_group("requests", "GetS", 5)
    registry.incr("home.fills", 100)          # no scope segment
    registry.incr("tu.fills", 100)            # not under home
    counters = registry.counters()
    assert counters["home.llc0.fills"] == 3
    assert counters["home.llc1.fills"] == 4
    assert registry.scope_total("fills") == 7
    # a grouped metric contributes its group total
    assert registry.scope_total("requests") == 7
    assert registry.scope_total("missing") == 0
    # the total is a read over names, so a rebuilt registry agrees
    rebuilt = StatsRegistry.from_snapshot(registry.snapshot())
    assert rebuilt.scope_total("fills") == 7
    assert rebuilt.scope_total("requests") == 7


def test_duplicate_scope_prefix_raises_at_build_time():
    registry = StatsRegistry()
    registry.scoped("home.llc0")
    with pytest.raises(MetricNameError):
        registry.scoped("home.llc0")


def test_scope_prefix_grammar_enforced():
    registry = StatsRegistry()
    with pytest.raises(MetricNameError):
        registry.scoped("Home.LLC0")


# ---------------------------------------------------------------------------
# end-to-end: every configuration and a sharded run
# ---------------------------------------------------------------------------
def _run(config_name, **overrides):
    config = scaled_config(
        config_name, 2, 2, watchdog=WatchdogConfig(stall_cycles=200_000),
        **overrides)
    system = build_system(config)
    system.load_workload(MICROBENCHMARKS["ReuseS"](
        num_cpus=2, num_gpus=2, warps_per_cu=1))
    system.run(max_events=30_000_000)
    return system


@pytest.mark.parametrize(
    "config_name, overrides",
    [(name, {}) for name in CONFIG_ORDER] + [("SDD", {"llc_shards": 2})],
    ids=list(CONFIG_ORDER) + ["SDD-2shards"])
def test_no_legacy_llc_or_l2_names_are_emitted(config_name, overrides):
    system = _run(config_name, **overrides)
    counters = system.stats.counters()
    names = list(counters) + list(system.stats.groups())
    legacy = [name for name in names if name.startswith(("llc.", "l2."))]
    assert not legacy, legacy
    # every home writes its own canonical namespace
    homes = list(system.llcs) + ([system.gpu_l2] if system.gpu_l2
                                 else [])
    for home in homes:
        assert system.stats.group_total(f"home.{home.name}.requests") > 0
    assert system.stats.scope_total("requests") == sum(
        system.stats.group_total(f"home.{home.name}.requests")
        for home in homes)
    # every emitted name satisfies the registry grammar
    for name in names:
        validate_metric_name(name)
