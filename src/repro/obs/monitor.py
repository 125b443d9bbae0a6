"""Live contention health monitor.

:class:`HealthMonitor` is the one epoch sampler: a trace-recorder
*sink* that scrapes the live simulation on an engine-cycle interval
with **zero perturbation**.  It never schedules engine events — it
samples the first time a trace event's timestamp crosses each
interval boundary, so sample timestamps are event timestamps (at most
one per interval, empty intervals skipped) — and every read is a
passive attribute/dict read (engine counters, home deferral queues
and bank backlogs, MSHR occupancy, per-link in-flight depth,
transport retransmit backlog and RTO state, and a snapshot of the
stats registry's counters, which the Chrome exporter renders as
counter tracks).  Simulations are bit-identical with monitoring on or
off, pinned by ``tests/property/test_monitor_determinism.py``.

Each scrape also sets the :data:`GAUGES` families: plain last-value
and whole-run peak dicts keyed by ``(family, sorted label tuple)``,
which the health summary and the Prometheus exporter read.  Counters
live only in :class:`~repro.sim.stats.StatsRegistry`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from .trace import TraceEvent

#: gauge family -> (help, unit); family names follow the registry
#: grammar of :mod:`repro.sim.stats`
GAUGES: Dict[str, Tuple[str, str]] = {
    "engine.events_per_cycle": (
        "executed events per cycle over the last scrape interval",
        "events/cycle"),
    "engine.pending": ("events in the scheduler queue", "events"),
    "engine.pending_nonidle": ("non-idle (real work) events pending",
                               "events"),
    "home.queue_depth": ("deferred + in-transaction requests held at "
                         "the home", "requests"),
    "home.bank_backlog": ("cycles until the busiest bank frees",
                          "cycles"),
    "mshr.occupancy": ("allocated MSHR entries", "entries"),
    "mshr.high_water": ("peak simultaneous MSHR entries", "entries"),
    "link.in_flight": ("undelivered messages on the link", "messages"),
    "link.backlog": ("cycles until the link is free", "cycles"),
    "transport.unacked": ("messages awaiting transport ack",
                          "messages"),
    "transport.rto_max": ("largest live retransmit timeout", "cycles"),
    "transport.oldest_unacked_age": (
        "age of the oldest unacked message", "cycles"),
    "transport.reorder_buffered": (
        "arrivals held for in-order delivery", "messages"),
}

#: a gauge series: (family, sorted ((label, value), ...) tuple)
GaugeKey = Tuple[str, Tuple[Tuple[str, str], ...]]

#: bound on retained per-scrape rows (the gauges keep whole-run
#: peaks, so dropping old rows loses no peak information;
#: Chrome counter tracks start at the oldest retained row)
MAX_SAMPLES = 4096


class HealthMonitor:
    """Scrape the live system every ``interval`` engine cycles.

    A recorder sink (event-driven sampling, never schedules); every
    scrape reads only passive state.  Keeps structured per-scrape rows
    (bounded ring; each carries a stats-counter snapshot), sets the
    :data:`GAUGES` series in ``levels`` (last value) and ``peaks``
    (whole-run high-water mark, positive values only), and invokes
    ``on_sample`` callbacks — the CLI's periodic ``repro top``-style
    console view hangs off those.
    """

    def __init__(self, system, interval: int, top_k: int = 8):
        self.system = system
        self.interval = max(1, int(interval))
        self.top_k = max(1, int(top_k))
        self.samples = deque(maxlen=MAX_SAMPLES)
        self.scrapes = 0
        self.on_sample: List[Callable[[dict], None]] = []
        self.levels: Dict[GaugeKey, float] = {}
        self.peaks: Dict[GaugeKey, float] = {}
        self._next_due = self.interval
        self._last_events = 0
        self._last_ts = 0
        self._homes = system.homes()
        self._l1s = [l1 for l1 in
                     list(getattr(system, "cpu_l1s", []))
                     + list(getattr(system, "gpu_l1s", []))
                     if getattr(l1, "mshrs", None) is not None]
        self._transport = hasattr(system.network, "_send_channels")

    # -- sink protocol -----------------------------------------------------
    def __call__(self, event: TraceEvent) -> None:
        if event.ts >= self._next_due:
            self.sample_at(event.ts)

    def _set(self, family: str, labels: Tuple, value: float) -> None:
        key = (family, labels)
        self.levels[key] = value
        if value > self.peaks.get(key, 0.0):
            self.peaks[key] = value

    def sample_at(self, ts: int) -> None:
        system = self.system
        engine = system.engine
        gauge = self._set
        events = engine.events_executed
        window = ts - self._last_ts
        rate = ((events - self._last_events) / window) if window > 0 \
            else 0.0
        self._last_events, self._last_ts = events, ts
        pending = engine.pending()
        nonidle = engine.pending_non_idle()
        gauge("engine.events_per_cycle", (), rate)
        gauge("engine.pending", (), pending)
        gauge("engine.pending_nonidle", (), nonidle)

        homes: Dict[str, Dict[str, float]] = {}
        for home in self._homes:
            deferred = sum(len(q) for q in home._deferred.values())
            txns = len(home._txns)
            backlog = max(home._bank_free) - ts if home._bank_free else 0
            if backlog < 0:
                backlog = 0
            labels = (("home", home.name),)
            gauge("home.queue_depth", labels, deferred + txns)
            gauge("home.bank_backlog", labels, backlog)
            homes[home.name] = {"deferred": deferred, "txns": txns,
                                "bank_backlog": backlog}

        mshr: Dict[str, Dict[str, float]] = {}
        for l1 in self._l1s:
            occupancy = len(l1.mshrs)
            labels = (("cache", l1.name),)
            gauge("mshr.occupancy", labels, occupancy)
            gauge("mshr.high_water", labels, l1.mshrs.high_water)
            mshr[l1.name] = {"occupancy": occupancy,
                             "capacity": l1.mshrs.capacity,
                             "high_water": l1.mshrs.high_water}

        network = system.network
        depth: Dict[Tuple[str, str], int] = {}
        oldest: Dict[Tuple[str, str], int] = {}
        for _, msg, sent in network._in_flight.values():
            key = (msg.src, msg.dst)
            depth[key] = depth.get(key, 0) + 1
            if key not in oldest or sent < oldest[key]:
                oldest[key] = sent
        links: List[Dict[str, object]] = []
        for (src, dst), link in sorted(network._links.items()):
            in_flight = depth.get((src, dst), 0)
            backlog = link.free - ts
            if backlog < 0:
                backlog = 0
            labels = (("dst", dst), ("src", src))
            gauge("link.in_flight", labels, in_flight)
            gauge("link.backlog", labels, backlog)
            if in_flight or backlog:
                links.append({
                    "src": src, "dst": dst, "in_flight": in_flight,
                    "backlog": backlog,
                    "oldest_age": (ts - oldest[(src, dst)]
                                   if (src, dst) in oldest else 0)})

        transport = None
        if self._transport:
            unacked = 0
            rto_max = 0
            oldest_age = 0
            for channel in network._send_channels.values():
                unacked += len(channel.unacked)
                if channel.unacked:
                    if channel.rto > rto_max:
                        rto_max = channel.rto
                    _, first_sent = next(iter(channel.unacked.values()))
                    if ts - first_sent > oldest_age:
                        oldest_age = ts - first_sent
            buffered = sum(len(channel.buffer) for channel in
                           network._recv_channels.values())
            transport = {"unacked": unacked, "rto_max": rto_max,
                         "oldest_unacked_age": oldest_age,
                         "reorder_buffered": buffered}
            for name, value in transport.items():
                gauge(f"transport.{name}", (), value)

        row = {
            "ts": ts,
            "engine": {"events": events,
                       "events_per_cycle": round(rate, 4),
                       "pending": pending, "pending_nonidle": nonidle},
            "homes": homes,
            "mshr": mshr,
            "links": links,
            "counters": system.stats.counters(),
        }
        if transport is not None:
            row["transport"] = transport
        self.samples.append(row)
        self.scrapes += 1
        self._next_due = (ts // self.interval + 1) * self.interval
        for callback in self.on_sample:
            callback(row)

    def finalize(self, now: int) -> None:
        """Record the end-of-run state (idempotent per timestamp)."""
        if not self.samples or self.samples[-1]["ts"] < now:
            self.sample_at(now)

    # -- summaries ---------------------------------------------------------
    def last_sample(self) -> Optional[dict]:
        return self.samples[-1] if self.samples else None

    def health_summary(self) -> Dict[str, object]:
        """Last scrape + whole-run peaks, for diagnostic dumps and the
        JSON health artifact."""
        peaks = {}
        for (family, labels), peak in sorted(self.peaks.items()):
            label = "".join(f"{{{k}={v}}}" for k, v in labels)
            peaks[f"{family}{label}"] = peak
        summary: Dict[str, object] = {
            "interval": self.interval,
            "scrapes": self.scrapes,
            "peaks": peaks,
        }
        last = self.last_sample()
        if last is not None:
            summary["last"] = last
        spans = getattr(self.system, "spans", None)
        if spans is not None and spans.completed:
            summary["critical_path"] = {
                "stage_totals": dict(spans.stage_totals),
                # lists, not tuples, so the summary JSON-round-trips
                "top_lines": [list(kv) for kv in
                              spans.top_lines(self.top_k)],
                "top_shards": [list(kv) for kv in
                               spans.top_shards(self.top_k)],
                "top_links": [list(kv) for kv in
                              spans.top_links(self.top_k)],
            }
        return summary

    def gauge_samples(self) -> List[Dict[str, object]]:
        """One JSON-safe sample per gauge series, sorted by (family,
        labels): the Prometheus exporter's input."""
        samples = []
        for key in sorted(self.levels):
            family, labels = key
            help_text, unit = GAUGES[family]
            samples.append({"name": family, "kind": "gauge",
                            "help": help_text, "unit": unit,
                            "labels": dict(labels),
                            "value": float(self.levels[key]),
                            "high_water": float(
                                self.peaks.get(key, 0.0))})
        return samples

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe copy: gauge samples + retained scrape rows."""
        return {
            "interval": self.interval,
            "scrapes": self.scrapes,
            "registry": {"metrics": self.gauge_samples()},
            "samples": [dict(row) for row in self.samples],
        }


def format_health(monitor: HealthMonitor, top_k: int = 0) -> str:
    """``repro top``-style console health view from the last scrape."""
    row = monitor.last_sample()
    if row is None:
        return "== health ==\n  (no scrape yet)"
    k = top_k or monitor.top_k
    engine = row["engine"]
    lines = [f"== health @ cycle {row['ts']:,} "
             f"(scrape #{monitor.scrapes}, every "
             f"{monitor.interval:,} cycles) ==",
             f"  engine: {engine['events_per_cycle']:.2f} events/cycle, "
             f"{engine['pending']:,} pending "
             f"({engine['pending_nonidle']:,} non-idle)"]
    hot_homes = sorted(row["homes"].items(),
                       key=lambda kv: -(kv[1]["deferred"] + kv[1]["txns"]
                                        + kv[1]["bank_backlog"]))[:k]
    for name, home in hot_homes:
        lines.append(f"  home {name:<8} queue={home['deferred']}+"
                     f"{home['txns']} bank_backlog="
                     f"{home['bank_backlog']}")
    hot_mshrs = sorted(row["mshr"].items(),
                       key=lambda kv: -kv[1]["occupancy"])[:k]
    for name, entry in hot_mshrs:
        if entry["occupancy"] or entry["high_water"]:
            lines.append(
                f"  mshr {name:<10} {entry['occupancy']}/"
                f"{entry['capacity']} (peak {entry['high_water']})")
    hot_links = sorted(row["links"],
                       key=lambda l: -(l["in_flight"]
                                       + l["backlog"]))[:k]
    for link in hot_links:
        lines.append(f"  link {link['src']}->{link['dst']}: "
                     f"in_flight={link['in_flight']} "
                     f"backlog={link['backlog']} "
                     f"oldest_age={link['oldest_age']}")
    transport = row.get("transport")
    if transport is not None:
        lines.append(
            f"  transport: unacked={transport['unacked']} "
            f"rto_max={transport['rto_max']} "
            f"oldest_age={transport['oldest_unacked_age']} "
            f"buffered={transport['reorder_buffered']}")
    spans = getattr(monitor.system, "spans", None)
    if spans is not None and spans.completed:
        top = spans.top_shards(k)
        if top:
            detail = "  ".join(f"{name}={cycles:,.0f}"
                               for name, cycles in top)
            lines.append(f"  hot shards (critical-path queue cycles): "
                         f"{detail}")
        top = spans.top_links(k)
        if top:
            detail = "  ".join(f"{name}={cycles:,.0f}"
                               for name, cycles in top)
            lines.append(f"  hot links (critical-path flight cycles): "
                         f"{detail}")
    return "\n".join(lines)
