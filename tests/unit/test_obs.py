"""Unit tests for the observability layer (``repro.obs``): recorder
ring semantics, filter parsing, hop classification, request-lifecycle
stitching in the span collector, Chrome-trace export/validation,
monitor epochs, and timelines."""

import json
from types import SimpleNamespace

import pytest

from repro.coherence.addr import FULL_LINE_MASK
from repro.coherence.messages import Message, MsgKind
from repro.network.noc import LatencyModel, Network
from repro.obs import (SPAN_STAGES, HealthMonitor, SpanCollector,
                       TraceFilter, TraceRecorder, chrome_trace_events,
                       format_timeline, hop_class, load_chrome_trace,
                       validate_chrome_trace, write_chrome_trace)
from repro.obs.export import counter_events
from repro.sim.engine import Engine
from repro.sim.stats import StatsRegistry


class FakeEngine:
    def __init__(self):
        self.now = 0
        self.tracer = None


def make_recorder(capacity=16, filter=None):
    return TraceRecorder(FakeEngine(), capacity=capacity, filter=filter)


# ---------------------------------------------------------------------------
# recorder ring
# ---------------------------------------------------------------------------
def test_ring_is_bounded_and_counts_everything():
    recorder = make_recorder(capacity=8)
    for i in range(20):
        recorder.engine.now = i
        recorder.record("l1.state", "cpu0.l1", line=i * 64)
    assert recorder.seen == 20
    assert recorder.kept == 20          # filterless: every event kept...
    assert len(recorder) == 8           # ...but the ring holds only 8
    assert [e.ts for e in recorder.events()] == list(range(12, 20))


def test_sinks_see_filtered_out_events():
    filt = TraceFilter.parse(["dev=gpu0.l1"])
    recorder = make_recorder(filter=filt)
    seen_by_sink = []
    recorder.sinks.append(seen_by_sink.append)
    recorder.record("l1.state", "cpu0.l1")
    recorder.record("l1.state", "gpu0.l1")
    assert len(seen_by_sink) == 2       # sinks: everything
    assert len(recorder) == 1           # ring: only the match
    assert recorder.events()[0].src == "gpu0.l1"


def test_tail_picks_events_for_implicated_lines():
    recorder = make_recorder(capacity=64)
    for i in range(10):
        recorder.engine.now = i
        recorder.record("home.busy", "llc", line=(i % 2) * 64)
    tail = recorder.tail(3, lines={64})
    assert [e.ts for e in tail] == [5, 7, 9]
    assert all(e.line == 64 for e in tail)
    assert [e.ts for e in recorder.tail(2)] == [8, 9]


# ---------------------------------------------------------------------------
# filters
# ---------------------------------------------------------------------------
def test_filter_parse_and_match():
    filt = TraceFilter.parse(["addr=0x1044/dev=cpu0.l1", "class=ReqV"])
    assert filt.lines == frozenset({0x1040})       # line-aligned
    recorder = make_recorder(filter=filt)
    kept = recorder.record("net.send", "cpu0.l1", line=0x1040, cls="ReqV")
    assert filt.matches(kept)
    # wrong line
    assert not filt.matches(
        recorder.record("net.send", "cpu0.l1", line=0x2000, cls="ReqV"))
    # event without a line is dropped when addr= is constrained
    assert not filt.matches(recorder.record("net.send", "cpu0.l1",
                                            cls="ReqV"))
    # dst counts as a device match
    assert filt.matches(recorder.record("net.send", "llc",
                                        dst="cpu0.l1", line=0x1040,
                                        cls="ReqV"))


def test_filter_parse_rejects_bad_specs():
    with pytest.raises(ValueError):
        TraceFilter.parse(["addr"])
    with pytest.raises(ValueError):
        TraceFilter.parse(["color=red"])
    assert TraceFilter.parse([]) is None
    assert TraceFilter.parse(["", " / "]) is None


# ---------------------------------------------------------------------------
# hop classification
# ---------------------------------------------------------------------------
def _msg(kind, src, dst, requestor=None):
    return Message(kind, 0x1000, FULL_LINE_MASK, src=src, dst=dst,
                   requestor=requestor)


def test_hop_classification():
    homes = {"llc", "gpu_l2", "l3"}
    # device request and plain home response: direct
    assert hop_class(_msg(MsgKind.REQ_V, "cpu0.l1", "llc"),
                     homes) == "direct"
    assert hop_class(_msg(MsgKind.RSP_V, "llc", "cpu0.l1"),
                     homes) == "direct"
    # home <-> home: the hierarchical level crossing
    assert hop_class(_msg(MsgKind.GET_S, "gpu_l2", "l3"),
                     homes) == "level"
    assert hop_class(_msg(MsgKind.DATA_E, "l3", "gpu_l2"),
                     homes) == "level"
    # home forwarding on behalf of a requestor: indirection
    assert hop_class(_msg(MsgKind.REQ_V, "llc", "cpu0.l1",
                          requestor="gpu0.l1"), homes) == "fwd"
    assert hop_class(_msg(MsgKind.FWD_GET_S, "l3", "cpu1.l1",
                          requestor="cpu0.l1"), homes) == "fwd"
    # a forward between two home nodes is still the level crossing
    # (both hop classes count as indirection)
    assert hop_class(_msg(MsgKind.FWD_GET_S, "l3", "gpu_l2",
                          requestor="cpu0.l1"), homes) == "level"
    # probes and their acks
    assert hop_class(_msg(MsgKind.INV, "llc", "cpu0.l1"),
                     homes) == "probe"
    assert hop_class(_msg(MsgKind.MESI_INV, "l3", "cpu1.l1"),
                     homes) == "probe"
    assert hop_class(_msg(MsgKind.ACK, "cpu0.l1", "llc"),
                     homes) == "probe"
    assert hop_class(_msg(MsgKind.RSP_RVK_O, "cpu0.l1", "llc"),
                     homes) == "probe"
    # owner answering a forward directly to the requestor
    assert hop_class(_msg(MsgKind.RSP_V, "cpu0.l1", "gpu0.l1"),
                     homes) == "fwd_rsp"
    assert hop_class(_msg(MsgKind.DATA_M, "cpu0.l1", "cpu1.l1"),
                     homes) == "fwd_rsp"


# ---------------------------------------------------------------------------
# request-lifecycle stitching (span collector)
# ---------------------------------------------------------------------------
def test_profiler_stitches_one_transaction():
    recorder = make_recorder()
    spans = SpanCollector()
    recorder.sinks.append(spans)
    engine = recorder.engine

    engine.now = 100
    recorder.record("l1.issue", "cpu0.l1", line=0x40, req_id=9,
                    info="load")
    engine.now = 102                                  # 2 cycles of issue
    recorder.record("net.send", "cpu0.l1", dst="llc", line=0x40,
                    req_id=9, cls="ReqS", dur=10, hop="direct")
    engine.now = 112
    recorder.record("home.busy", "llc", line=0x40, req_id=9, dur=12)
    engine.now = 124
    recorder.record("net.send", "llc", dst="cpu1.l1", line=0x40,
                    req_id=9, cls="ReqS", dur=8, hop="fwd")
    engine.now = 132
    recorder.record("net.send", "cpu1.l1", dst="cpu0.l1", line=0x40,
                    req_id=9, cls="ReqS", dur=9, hop="fwd_rsp")
    engine.now = 145
    recorder.record("l1.complete", "cpu0.l1", line=0x40, req_id=9,
                    dur=45, info="load")

    assert spans.completed == 1
    assert not spans._open
    device = spans.by_origin["cpu0.l1"]
    assert device["count"] == 1
    assert device["total"] == 45
    assert device["issue"] == 2
    assert device["queue"] == 12
    # the direct, forwarded and owner-response hops are all flight:
    # 10 + 8 + 9, back to back, no overlap
    assert device["flight"] == 27
    # the exact partition leaves the 4 uncovered cycles in "other"
    assert device["other"] == 4
    assert sum(device[stage] for stage in SPAN_STAGES) == 45
    assert spans.indirection_cycles() == 8
    assert spans.by_class["ReqS"] == {"direct": 10, "fwd": 8,
                                      "fwd_rsp": 9}
    assert spans.latency.count("txn.load") == 1
    assert spans.latency.mean("txn.load") == 45


def test_profiler_attributes_blocked_time():
    recorder = make_recorder()
    spans = SpanCollector()
    recorder.sinks.append(spans)
    engine = recorder.engine

    recorder.record("l1.issue", "gpu0.l1", line=0x80, req_id=3,
                    info="store")
    engine.now = 20
    recorder.record("home.defer", "llc", line=0x80, req_id=3)
    engine.now = 50
    recorder.record("home.replay", "llc", line=0x80, req_id=3)
    engine.now = 60
    recorder.record("l1.complete", "gpu0.l1", line=0x80, req_id=3,
                    info="store")
    # the defer->replay window is queue time at the home
    assert spans.by_origin["gpu0.l1"]["queue"] == 30
    report = spans.format_report("test")
    assert "gpu0.l1" in report and "txn.store" in report


def test_report_shows_flight_table_before_any_completion():
    recorder = make_recorder()
    spans = SpanCollector()
    recorder.sinks.append(spans)
    recorder.record("l1.issue", "cpu0.l1", line=0x40, req_id=9,
                    info="load")
    recorder.engine.now = 4
    recorder.record("net.send", "llc", dst="cpu1.l1", line=0x40,
                    req_id=9, cls="ReqS", dur=8, hop="fwd")
    # a run cut before the first l1.complete still reports its sends
    assert spans.completed == 0
    report = spans.format_report("cut")
    assert "ReqS" in report and "fwd=8" in report
    assert "indirection cycles: 8" in report
    assert "(exact partition)" not in report


def test_profiler_snapshot_is_json_safe():
    spans = SpanCollector()
    recorder = make_recorder()
    recorder.sinks.append(spans)
    recorder.record("l1.issue", "cpu0.l1", req_id=1, info="load")
    recorder.engine.now = 7
    recorder.record("l1.complete", "cpu0.l1", req_id=1, info="load")
    snap = json.loads(json.dumps(spans.snapshot()))
    assert snap["completed"] == 1
    assert snap["latency"]["txn.load"]["count"] == 1


# ---------------------------------------------------------------------------
# Chrome export
# ---------------------------------------------------------------------------
def test_chrome_export_round_trip(tmp_path):
    recorder = make_recorder()
    recorder.engine.now = 5
    recorder.record("net.send", "cpu0.l1", dst="llc", line=0x40,
                    req_id=1, cls="ReqV", dur=10, hop="direct",
                    info="ReqV")
    recorder.engine.now = 15
    recorder.record("net.deliver", "cpu0.l1", dst="llc", line=0x40,
                    req_id=1, cls="ReqV")
    path = tmp_path / "trace.json"
    payload = write_chrome_trace(str(path), [
        {"name": "SDD", "events": recorder.events(),
         "samples": [{"ts": 10, "counters": {"home.llc.hits": 3.0}}]},
    ])
    assert validate_chrome_trace(payload) == []
    loaded = load_chrome_trace(str(path))
    assert loaded == payload
    events = loaded["traceEvents"]
    # process metadata first, then thread metadata, spans, instants,
    # and the counter track
    assert events[0] == {"ph": "M", "pid": 0, "name": "process_name",
                         "args": {"name": "SDD"}}
    spans = [e for e in events if e["ph"] == "X"]
    assert spans[0]["dur"] == 10 and spans[0]["ts"] == 5
    assert spans[0]["args"]["hop"] == "direct"
    instants = [e for e in events if e["ph"] == "i"]
    assert instants and instants[0]["s"] == "t"
    counters = [e for e in events if e["ph"] == "C"]
    assert counters == [{"ph": "C", "pid": 0, "name": "home.llc.hits",
                         "ts": 10, "args": {"value": 3.0}}]


def test_chrome_events_share_tid_per_component():
    recorder = make_recorder()
    for src in ("cpu0.l1", "llc", "cpu0.l1"):
        recorder.record("l1.state", src)
    events = chrome_trace_events(recorder.events(), pid=2)
    data = [e for e in events if e["ph"] != "M"]
    assert data[0]["tid"] == data[2]["tid"]      # both cpu0.l1
    assert data[0]["tid"] != data[1]["tid"]
    assert all(e["pid"] == 2 for e in events)


def test_validator_flags_backwards_timestamps_and_missing_dur():
    payload = {"traceEvents": [
        {"ph": "X", "pid": 0, "tid": 0, "ts": 10, "name": "a"},
        {"ph": "i", "pid": 0, "tid": 0, "ts": 5, "name": "b", "s": "t"},
    ]}
    problems = validate_chrome_trace(payload)
    assert any("without dur" in p for p in problems)
    assert any("ts 5 < 10" in p for p in problems)
    assert validate_chrome_trace({}) == ["missing traceEvents list"]


# ---------------------------------------------------------------------------
# monitor epochs
# ---------------------------------------------------------------------------
def test_metrics_sample_on_epoch_boundaries():
    stats = StatsRegistry()
    engine = Engine()
    system = SimpleNamespace(
        engine=engine, stats=stats, homes=list,
        network=Network(engine, stats, LatencyModel()))
    monitor = HealthMonitor(system, interval=100)
    recorder = make_recorder()
    recorder.sinks.append(monitor)
    clock = recorder.engine

    stats.incr("x")
    clock.now = 50
    recorder.record("l1.state", "cpu0.l1")   # before first boundary
    assert list(monitor.samples) == []
    clock.now = 130
    recorder.record("l1.state", "cpu0.l1")   # crosses t=100
    stats.incr("x")
    clock.now = 140
    recorder.record("l1.state", "cpu0.l1")   # same epoch: no sample
    clock.now = 460
    recorder.record("l1.state", "cpu0.l1")   # skips empty epochs
    monitor.finalize(500)
    monitor.finalize(500)                     # idempotent
    rows = list(monitor.samples)
    assert [row["ts"] for row in rows] == [130, 460, 500]
    # each row snapshots the stats counters at its scrape
    assert [row["counters"]["x"] for row in rows] == [1.0, 2.0, 2.0]
    assert {name for row in rows for name in row["counters"]} == {"x"}
    snap = json.loads(json.dumps(monitor.snapshot()))
    assert snap["interval"] == 100 and len(snap["samples"]) == 3
    # the rows render as one Chrome counter track per counter
    tracks = [e for e in counter_events(rows) if e["name"] == "x"]
    assert [(e["ts"], e["args"]["value"]) for e in tracks] == \
        [(130, 1.0), (460, 2.0), (500, 2.0)]


# ---------------------------------------------------------------------------
# timelines
# ---------------------------------------------------------------------------
def test_format_timeline_filters_and_limits():
    recorder = make_recorder(capacity=64)
    for i in range(6):
        recorder.engine.now = i
        recorder.record("home.busy", "llc",
                        line=64 * (i % 2), info=f"op{i}")
    text = format_timeline(recorder.events(), line=0x47)
    assert "op1" in text and "op0" not in text    # 0x47 -> line 0x40
    text = format_timeline(recorder.events(), device="llc", limit=2)
    assert "(4 earlier events omitted)" in text
    assert "op5" in text and "op0" not in text
    assert "no matching events" in \
        format_timeline(recorder.events(), device="nosuch")
