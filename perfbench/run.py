"""Repository benchmark: end-to-end and per-layer metrics of the simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig2_micro --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, both modes

``--trace 0`` measures end-to-end metrics with no instrumentation: it
runs the workload's cells round after round for ``--seconds`` and
reports, per phase, the sum over cells of each cell's median.
``--trace 1`` runs one untraced round, then one round under the layer
tracer (``tracing.py``), and reports the per-layer metrics.  Either way
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md
for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import json
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("fig2_micro", "fig3_apps", "fabric_axes", "verify_litmus")
#: the figure-2 bench sweep's pinned event count lives here (read only)
KERNEL_BASELINE = ROOT / "results" / "BENCH_kernel.json"
SPAN_DIR = ROOT / ".perfbench"
#: allowed gap between summed self times and the traced wall time
ACCOUNTING_TOLERANCE = 0.01

#: declares every metric's name and unit (and end-to-end bounds)
DECLARED = ROOT / "BENCHMARK.json"
#: end-to-end metrics measured in simulated units; the rest are host
SIMULATED = ("sim_cycles", "net_bytes", "verify_exhausted")


def import_simulator():
    """Import the checkout's own ``repro`` package, or exit non-zero."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the simulator from "
                 f"{ROOT / 'src'}: {exc}")
    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from this checkout")


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# running cells
# ---------------------------------------------------------------------------
def run_rounds(cells, seconds: Optional[float]) -> Tuple[List[list], int]:
    """Run the cells in order, round after round, until ``seconds`` have
    passed (at least one full round); ``None`` runs exactly one round."""
    clock = time.perf_counter
    samples: List[list] = [[] for _ in cells]
    deadline = clock() + (seconds or 0.0)
    rounds = 0
    while True:
        for index, cell in enumerate(cells):
            if rounds and clock() >= deadline:
                return samples, rounds
            gc.collect()
            samples[index].append(cell.run(clock))
        rounds += 1
        if seconds is None or clock() >= deadline:
            return samples, rounds


def check_repeats(cells, samples, problems: List[str]) -> None:
    """Simulated outcomes must repeat exactly across rounds, traced or
    not (the traced round is the last one in ``--trace 1``)."""
    for cell, runs in zip(cells, samples):
        if any(run.outcome() != runs[0].outcome() for run in runs[1:]):
            problems.append(f"{cell.name}: simulated outcome differs "
                            f"between rounds (traced or untraced)")


def failures_of(samples) -> List[str]:
    return [f"{run.name}: {failure}"
            for runs in samples for run in runs for failure in run.failures]


def end_to_end(samples) -> Dict[str, float]:
    firsts = [runs[0] for runs in samples]
    run_s = sum(median([r.run_s for r in runs]) for runs in samples)
    ops = sum(run.ops for run in firsts)
    return {
        "wall_s": sum(median([r.wall_s for r in runs]) for runs in samples),
        "setup_s": sum(median([r.setup_s for r in runs])
                       for runs in samples),
        "sim_kops_per_s": ops / run_s / 1000 if run_s else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        "sim_cycles": sum(run.cycles for run in firsts),
        "net_bytes": sum(run.net_bytes for run in firsts),
        "verify_exhausted": sum(run.exhausted for run in firsts),
    }


def pinned_events(workload: str, seed: int, events: int,
                  problems: List[str]) -> None:
    """At the default seed, fig2_micro is the kernel bench's figure-2
    sweep, whose executed-event count is pinned."""
    from cells import DEFAULT_SEED
    if workload != "fig2_micro" or seed != DEFAULT_SEED:
        return
    with open(KERNEL_BASELINE) as handle:
        pinned = json.load(handle)["cases"]["figure2_sweep"]["events"]
    if events != pinned:
        problems.append(f"fig2_micro executed {events} events; "
                        f"{KERNEL_BASELINE.name} pins {pinned}")


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------
def _sum_counters(results, pattern: str) -> float:
    regex = re.compile(pattern)
    return sum(value for run in results
               for name, value in run.counters.items() if regex.fullmatch(name))


def per_layer(tracer, traced, untraced_wall: float,
              traced_wall: float) -> Dict[str, float]:
    """Per-layer metrics: host self times and calls from the tracer,
    simulated counts from the traced cells' counters."""
    self_s, calls = tracer.self_s, tracer.calls
    total = lambda pattern: _sum_counters(traced, pattern)  # noqa: E731
    events = sum(run.events for run in traced)
    run_s = tracer.engine_run_s
    ops = total(r"(cpu|gpu)\.ops")
    spins = total(r"(cpu|gpu)\.spin_iterations")
    retries = total(r"(cpu|gpu)\.issue_retries")
    hits, misses = total(r"l1\.hits"), total(r"l1\.load_misses")
    messages = total(r"network\.messages")
    lost = total(r"faults\.(dropped|link_down_dropped)")
    schedules = sum(run.schedules for run in traced)
    explore_s = sum(run.run_s for run in traced if run.schedules)
    times = tracer.schedule_s
    p99 = statistics.quantiles(times, n=100)[98] if len(times) > 1 \
        else median(times)
    metrics = {
        "sim.run_s": run_s,
        "sim.self_s": self_s["sim"],
        "sim.events": events,
        "sim.events_per_s": events / run_s if run_s else 0.0,
        "sim.self_ns_per_event": self_s["sim"] / events * 1e9
        if events else 0.0,
        "devices.calls": calls["devices"],
        "devices.self_s": self_s["devices"],
        "devices.ops": ops,
        "devices.spin_iterations": spins,
        "devices.issue_retries": retries,
        "devices.useful_op_ratio": ops / (ops + spins + retries)
        if ops else 0.0,
        "mem.cache.calls": calls["mem.cache"],
        "mem.cache.self_s": self_s["mem.cache"],
        "mem.mshr.calls": calls["mem.mshr"],
        "mem.mshr.self_s": self_s["mem.mshr"],
        "mem.dram.calls": calls["mem.dram"],
        "mem.dram.self_s": self_s["mem.dram"],
        "protocols.calls": calls["protocols"],
        "protocols.self_s": self_s["protocols"],
        "protocols.l1_hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        "protocols.stalls": total(r"l1\.\w*stalls"),
        "core.home.calls": calls["core.home"],
        "core.home.self_s": self_s["core.home"],
        "core.home.forwards": total(r"home\.llc\d*\.forwards"),
        "core.home.deferred": total(r"home\.llc\d*\.deferred"),
        "core.tu.calls": calls["core.tu"],
        "core.tu.self_s": self_s["core.tu"],
        "core.policy.calls": calls["core.policy"],
        "core.policy.self_s": self_s["core.policy"],
        "network.sends": calls["network.send"],
        "network.self_s": self_s["network"] + self_s["network.send"],
        "network.messages": messages,
        "network.latency_cycles_per_msg":
            total(r"network\.latency_cycles") / messages if messages else 0.0,
        "network.retransmits": total(r"transport\.retransmits"),
        "network.acks": total(r"transport\.acks"),
        "network.dup_dropped": total(r"transport\.dup_dropped"),
        "network.delivered_ratio":
            (messages - lost + total(r"faults\.duplicated")) / messages
            if messages else 0.0,
        "faults.calls": calls["faults"],
        "faults.self_s": self_s["faults"],
        "faults.injected": total(
            r"faults\.(dropped|duplicated|reordered|forced_nacks|"
            r"jitter_delayed|burst_delayed|link_down_dropped)"),
        "workloads.gen_s": self_s["workloads"],
        "workloads.ops": sum(run.ops for run in traced),
        "consistency.ref_s": self_s["consistency"],
        "system.build_s": self_s["system.build"],
        "system.validate_s": self_s["system.validate"],
        "verify.schedules": schedules,
        "verify.deliveries_per_schedule":
            sum(run.deliveries for run in traced) / schedules
            if schedules else 0.0,
        "verify.sched_per_s": schedules / explore_s if explore_s else 0.0,
        "verify.schedule_p50_ms": median(times) * 1000,
        "verify.schedule_p99_ms": p99 * 1000,
        "verify.schedule_samples": len(times),
        "verify.build_s": self_s["verify.build"],
        "verify.check_s": self_s["verify.check"],
        "verify.explore_self_s": self_s["verify.explore"],
        "other.self_s": self_s["other"],
        "trace.wall_s": traced_wall,
        "trace.accounted_ratio": sum(self_s.values()) / traced_wall
        if traced_wall else 0.0,
        "trace.overhead": traced_wall / untraced_wall
        if untraced_wall else 0.0,
    }
    return metrics


def traced_round(cells):
    """One round under the layer tracer; returns (tracer, results,
    traced wall seconds measured outside the spans)."""
    from tracing import LayerTracer
    clock = time.perf_counter
    tracer = LayerTracer()
    tracer.install()
    results, wall = [], 0.0
    try:
        for cell in cells:
            gc.collect()
            start = clock()
            with tracer.root():
                results.append(cell.run(clock, tracer.span))
            wall += clock() - start
    finally:
        tracer.uninstall()
    return tracer, results, wall


def write_spans(workload: str, tracer) -> Path:
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"spans-{workload}.json"
    with open(path, "w") as handle:
        json.dump({"fields": ["id", "parent", "layer", "start", "end"],
                   "spans": tracer.spans}, handle)
    return path


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------
def run_workload(args) -> int:
    import_simulator()
    from cells import cells_for
    cells = cells_for(args.workload, args.seed)
    problems: List[str] = []
    if args.trace:
        untraced, _ = run_rounds(cells, None)
        tracer, traced, traced_wall = traced_round(cells)
        samples = [runs + [run] for runs, run in zip(untraced, traced)]
        untraced_wall = sum(runs[0].wall_s for runs in untraced)
        metrics = per_layer(tracer, traced, untraced_wall, traced_wall)
        check_repeats(cells, samples, problems)
        gap = abs(metrics["trace.accounted_ratio"] - 1.0)
        if gap > ACCOUNTING_TOLERANCE:
            problems.append(f"layer self times miss the traced wall time "
                            f"by {gap:.2%}")
        print(f"spans sample: {write_spans(args.workload, tracer)}")
        rounds = 1
    else:
        samples, rounds = run_rounds(cells, args.seconds)
        check_repeats(cells, samples, problems)
        metrics = end_to_end(samples)
    with open(DECLARED) as handle:
        declared = json.load(handle)["per_layer" if args.trace
                                     else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(units) != set(metrics):
        problems.append(f"metrics differ from {DECLARED.name}: "
                        f"{sorted(set(units) ^ set(metrics))}")
    events = sum(runs[0].events for runs in samples)
    pinned_events(args.workload, args.seed, events, problems)
    failures = failures_of(samples)
    attempted = sum(run.attempted for runs in samples for run in runs)

    print(f"workload {args.workload}: seed {args.seed}, {len(cells)} cells, "
          f"{rounds} round(s){' + 1 traced' if args.trace else ''}; "
          f"caches start empty, telemetry off")
    for name, value in metrics.items():
        kind = ("" if args.trace
                else "simulated" if name in SIMULATED else "host")
        print(f"  {name:<32} {value:>16.6g} {units.get(name, '?'):<8} "
              f"{kind}")
    print(f"  fail_rate {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted} attempted)")
    for line in failures + problems:
        print(f"  FAIL {line}")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units.get(name, "?")}
                    for name, value in metrics.items()},
    }))
    return 0


# ---------------------------------------------------------------------------
# every workload, each in its own process
# ---------------------------------------------------------------------------
def run_all(args) -> int:
    combined: Dict[str, dict] = {}
    correct, attempted, failed = True, 0, 0
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            child = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, check=False)
            lines = child.stdout.strip().splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            if child.returncode != 0 or not lines:
                sys.stderr.write(child.stderr)
                sys.exit(f"perfbench: {workload} --trace {trace} failed")
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                combined[f"{workload}.{name}"] = metric
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed offset; 0 = generator defaults")
    parser.add_argument("--seconds", type=int, default=25,
                        help="how long --trace 0 measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
