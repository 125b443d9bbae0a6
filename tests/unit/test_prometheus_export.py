"""Prometheus text-exposition exporter vs the validating parser, JSON
snapshot round-trips, and the empty-trace validator pin."""

import json

import pytest

from repro.obs import (parse_prometheus_text, prometheus_text,
                       sanitize_metric_name, stats_samples,
                       validate_chrome_trace)
from repro.obs.prometheus import escape_label_value
from repro.sim.stats import StatsRegistry
from repro.system import TraceConfig, build_system, scaled_config
from repro.workloads import MICROBENCHMARKS


def _gauge(name, value, high_water=None, labels=None, help="",
           unit=""):
    """A gauge sample in the shape HealthMonitor.gauge_samples emits."""
    return {"name": name, "kind": "gauge", "help": help, "unit": unit,
            "labels": dict(labels or {}), "value": float(value),
            "high_water": float(value if high_water is None
                                else high_water)}


# ---------------------------------------------------------------------------
# name + escaping
# ---------------------------------------------------------------------------
def test_sanitize_metric_name():
    assert sanitize_metric_name("home.queue_depth") == \
        "repro_home_queue_depth"
    assert sanitize_metric_name("a.b.c") == "repro_a_b_c"
    with pytest.raises(ValueError):
        sanitize_metric_name("bad name")


def test_label_value_escaping_round_trips_through_parser():
    nasty = {
        "plain": "llc0",
        "quote": 'say "hi"',
        "backslash": "a\\b",
        "newline": "two\nlines",
        "brace": "a}b{c",          # embedded } must not end the body
        "mixed": 'x\\"y\nz}',
    }
    text = prometheus_text(
        [_gauge("esc.check", 1, labels={"case": key, "payload": value})
         for key, value in nasty.items()])
    parsed = parse_prometheus_text(text)
    recovered = {labels["case"]: labels["payload"]
                 for name, labels, _ in parsed
                 if name == "repro_esc_check"}
    assert recovered == nasty


def test_escape_label_value_is_exposition_compliant():
    assert escape_label_value('a"b') == 'a\\"b'
    assert escape_label_value("a\\b") == "a\\\\b"
    assert escape_label_value("a\nb") == "a\\nb"


# ---------------------------------------------------------------------------
# exposition rendering
# ---------------------------------------------------------------------------
def test_exposition_families_and_series():
    counter = {"name": "req.count", "kind": "counter",
               "help": "requests", "unit": "requests"}
    text = prometheus_text([
        dict(counter, labels={"shard": "llc0"}, value=3.0),
        dict(counter, labels={"shard": "llc1"}, value=4.0),
        _gauge("queue.depth", 2, high_water=9, help="depth"),
    ])

    assert text.count("# TYPE repro_req_count counter") == 1
    assert "# HELP repro_req_count requests [requests]" in text
    assert 'repro_req_count{shard="llc0"} 3' in text
    assert 'repro_req_count{shard="llc1"} 4' in text
    # gauges also expose their high-water series
    assert "# TYPE repro_queue_depth gauge" in text
    assert "repro_queue_depth 2" in text
    assert "repro_queue_depth_high_water 9" in text
    assert parse_prometheus_text(text)


def test_stats_samples_flatten_groups_into_label_dimension():
    stats = StatsRegistry()
    stats.incr("l1.hits", 5)
    stats.incr_group("dir.state", "M", 2)
    stats.incr_group("dir.state", "S", 7)
    text = prometheus_text(stats_samples(stats))
    parsed = dict(((name, tuple(sorted(labels.items()))), value)
                  for name, labels, value in parse_prometheus_text(text))
    assert parsed[("repro_l1_hits", ())] == 5.0
    assert parsed[("repro_dir_state", (("key", "M"),))] == 2.0
    assert parsed[("repro_dir_state", (("key", "S"),))] == 7.0


# ---------------------------------------------------------------------------
# parser strictness
# ---------------------------------------------------------------------------
def test_parser_rejects_malformed_input():
    for bad in (
        "1bad_name 3\n",                          # name grammar
        'metric{key="unterminated} 3\n',          # unbalanced quote
        'metric{key="x",key="y"} 3\n',            # duplicate label
        'metric{key="a\\qb"} 3\n',                # bad escape
        "metric notanumber\n",                    # bad value
        "# TYPE m counter\n# TYPE m gauge\nm 1\n",  # re-declared TYPE
        "# TYPE m frobnicator\nm 1\n",            # unknown kind
    ):
        with pytest.raises(ValueError):
            parse_prometheus_text(bad)


def test_parser_accepts_comments_blanks_and_infinities():
    parsed = parse_prometheus_text(
        "# HELP m help text\n"
        "# TYPE m gauge\n"
        "\n"
        "m +Inf\n"
        "m2 -Inf\n"
        "m3 2.5\n")
    assert parsed[0][2] == float("inf")
    assert parsed[1][2] == float("-inf")
    assert parsed[2] == ("m3", {}, 2.5)


# ---------------------------------------------------------------------------
# JSON snapshot round-trip
# ---------------------------------------------------------------------------
def test_registry_snapshot_survives_json_round_trip():
    config = scaled_config("SDD", 2, 2,
                           trace=TraceConfig(monitor_interval=1000))
    system = build_system(config)
    system.load_workload(MICROBENCHMARKS["ReuseS"](
        num_cpus=2, num_gpus=2, warps_per_cu=1))
    system.run(max_events=30_000_000)
    samples = (system.monitor.gauge_samples()
               + stats_samples(system.stats))
    rehydrated = json.loads(json.dumps(samples))
    assert rehydrated == samples
    # rendering the rehydrated samples reproduces the exposition
    text = prometheus_text(rehydrated)
    assert text == prometheus_text(samples)
    names = {name for name, _, _ in parse_prometheus_text(text)}
    assert {"repro_home_queue_depth", "repro_mshr_high_water",
            "repro_link_in_flight"} <= names


# ---------------------------------------------------------------------------
# chrome-trace validator pin
# ---------------------------------------------------------------------------
def test_validate_chrome_trace_accepts_empty_trace():
    assert validate_chrome_trace({"traceEvents": []}) == []
