"""The benchmark's four workloads, as lists of cells, and how one cell runs.

A cell is one (workload generator, system configuration) simulation, or
one (litmus scenario, configuration) verification pair.  Every cell
builds its inputs from scratch, so caches start empty, and no telemetry
is configured (``SystemConfig.trace`` stays None).  Cells reach the
simulator only through its public API: the ``repro.workloads``
generators, ``Workload.reference``, ``build_system``,
``System.load_workload`` / ``run`` / ``read_coherent``, and
``DfsExplorer``.
"""

from __future__ import annotations

import inspect
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.system import (CONFIG_ORDER, FaultConfig, build_system,
                          scaled_config)
from repro.verify import CORPUS, DfsExplorer, LitmusScenario
from repro.workloads import APPLICATIONS, MICROBENCHMARKS

#: seed offset 0 hands every generator its own default seed
DEFAULT_SEED = 0
#: fault seed at offset 0 (the kernel bench's churn cases use 7 too)
FAULT_SEED = 7
MAX_EVENTS = 60_000_000
#: DFS schedule cap per (scenario, config) pair
VERIFY_CAP = 40
VERIFY_CONFIGS = ("SMG", "SDD")


def no_span(layer: str, opaque: bool = False):
    """The untraced stand-in for ``LayerTracer.span``."""
    return nullcontext()


@dataclass
class CellResult:
    """What one cell did: host phase times, simulated totals, outcome."""

    name: str
    gen_s: float = 0.0
    ref_s: float = 0.0
    build_s: float = 0.0
    run_s: float = 0.0
    validate_s: float = 0.0
    ops: int = 0
    events: int = 0
    cycles: int = 0
    net_bytes: float = 0.0
    #: simulation cells: ran to quiescence and validated; verify
    #: pairs: schedule space explored below the cap
    exhausted: int = 0
    attempted: int = 1
    failures: List[str] = field(default_factory=list)
    #: simulated counters (summed over schedules for verify pairs)
    counters: Dict[str, float] = field(default_factory=dict)
    schedules: int = 0
    deliveries: int = 0

    @property
    def setup_s(self) -> float:
        return self.gen_s + self.ref_s + self.build_s

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.run_s + self.validate_s

    def outcome(self) -> tuple:
        """Everything simulated: must repeat exactly across passes."""
        return (self.ops, self.events, self.cycles, self.net_bytes,
                self.exhausted, self.schedules, self.deliveries,
                tuple(sorted(self.counters.items())), tuple(self.failures))


def _seeded(generator: Callable, seed: int, **scale):
    """Call a generator with its default seed shifted by ``seed``."""
    default = inspect.signature(generator).parameters["seed"].default
    return generator(seed=default + seed, **scale)


@dataclass(frozen=True)
class SimCell:
    workload: str
    config: str
    cpus: int
    gpus: int
    warps: int
    seed: int
    label: str = ""
    overrides: tuple = ()

    @property
    def name(self) -> str:
        return f"{self.workload}/{self.config}{self.label}"

    def generate(self):
        generator = (MICROBENCHMARKS.get(self.workload)
                     or APPLICATIONS[self.workload])
        return _seeded(generator, self.seed, num_cpus=self.cpus,
                       num_gpus=self.gpus, warps_per_cu=self.warps)

    def system_config(self):
        return scaled_config(self.config, self.cpus, self.gpus,
                             **dict(self.overrides))

    def run(self, clock, span=no_span) -> CellResult:
        result = CellResult(self.name)
        try:
            t0 = clock()
            with span("workloads", opaque=True):
                workload = self.generate()
            t1 = clock()
            with span("consistency", opaque=True):
                reference = workload.reference()
            t2 = clock()
            with span("system.build", opaque=True):
                system = build_system(self.system_config())
                system.load_workload(workload)
            t3 = clock()
            run = system.run(max_events=MAX_EVENTS)
            t4 = clock()
            with span("system.validate", opaque=True):
                wrong = [addr for addr, value in reference.memory.items()
                         if system.read_coherent(addr) != value]
            t5 = clock()
        except Exception as exc:  # a failed cell is reported, not fatal
            traceback.print_exc()
            result.failures.append(f"{type(exc).__name__}: {exc}")
            return result
        result.gen_s, result.ref_s, result.build_s = t1 - t0, t2 - t1, t3 - t2
        result.run_s, result.validate_s = t4 - t3, t5 - t4
        result.ops = workload.total_ops()
        result.events = system.engine.events_executed
        result.cycles = run.cycles
        result.net_bytes = run.network_bytes
        result.counters = dict(system.stats.counters())
        if wrong:
            result.failures.append(
                f"memory mismatch at {len(wrong)} of "
                f"{len(reference.memory)} words (first 0x{wrong[0]:x})")
        else:
            result.exhausted = 1
        return result


class ScheduleTally:
    """DfsExplorer coverage hook that sums each explored schedule's
    simulated totals (events, cycles, network counters)."""

    def __init__(self):
        self.events = 0
        self.cycles = 0
        self.counters: Dict[str, float] = {}
        self._system = None

    def attach(self, system) -> None:
        self.close()
        self._system = system

    def close(self) -> None:
        system, self._system = self._system, None
        if system is None:
            return
        self.events += system.engine.events_executed
        self.cycles += system.engine.now
        for name, value in system.stats.counters().items():
            self.counters[name] = self.counters.get(name, 0) + value


@dataclass(frozen=True)
class VerifyCell:
    scenario: LitmusScenario
    config: str

    @property
    def name(self) -> str:
        return f"{self.scenario.name}/{self.config}"

    def run(self, clock, span=no_span) -> CellResult:
        result = CellResult(self.name)
        entry = self.scenario
        tally = ScheduleTally()
        try:
            t0 = clock()
            with span("workloads", opaque=True):
                # a fresh scenario object: its spec and reference caches
                # start empty, so every pass pays the same set-up
                scenario = LitmusScenario(entry.name, entry.build,
                                          entry.doc, entry.races,
                                          entry.tags)
                ops_per_schedule = sum(len(t) for t in scenario.traces())
            t1 = clock()
            with span("consistency", opaque=True):
                scenario.reference()
            t2 = clock()
            with span("verify.explore"):
                explored = DfsExplorer(max_schedules=VERIFY_CAP).explore(
                    scenario, self.config, coverage=tally)
            t3 = clock()
        except Exception as exc:  # a failed pair is reported, not fatal
            traceback.print_exc()
            result.failures.append(f"{type(exc).__name__}: {exc}")
            return result
        finally:
            tally.close()
        result.gen_s, result.ref_s, result.run_s = t1 - t0, t2 - t1, t3 - t2
        result.schedules = result.attempted = explored.schedules
        result.deliveries = explored.deliveries
        result.ops = ops_per_schedule * explored.schedules
        result.events = tally.events
        result.cycles = tally.cycles
        result.counters = tally.counters
        result.net_bytes = tally.counters.get("network.bytes", 0.0)
        result.exhausted = int(explored.complete and explored.ok)
        for failure in explored.failures:
            result.failures.append(
                f"{failure.kind} on schedule {failure.choices}: "
                f"{failure.message}")
        return result


def cells_for(workload: str, seed: int) -> List[object]:
    """The cells of one workload at benchmark seed ``seed``."""
    if workload == "fig2_micro":
        return [SimCell(w, c, 2, 2, 2, seed)
                for w in ("Indirection", "ReuseO", "ReuseS")
                for c in CONFIG_ORDER]
    if workload == "fig3_apps":
        return [SimCell(a, c, 4, 4, 2, seed)
                for a in ("BC", "PR", "HSTI", "TRNS", "RSCT", "TQH")
                for c in CONFIG_ORDER]
    if workload == "fabric_axes":
        fault_seed = FAULT_SEED + seed
        cells: List[object] = []
        for config in ("SMG", "SDD", "HMG"):
            cells.append(SimCell(
                "ReuseS", config, 4, 4, 2, seed, "+stress",
                (("faults", FaultConfig.stress(fault_seed)),)))
            cells.append(SimCell(
                "ReuseS", config, 4, 4, 2, seed, "+unreliable",
                (("faults", FaultConfig.unreliable_stress(fault_seed)),)))
        for config in ("SDD", "SDG"):
            cells.append(SimCell(
                "ProducerConsumer", config, 4, 4, 2, seed,
                "+adaptive+pred",
                (("request_policy", "adaptive"), ("owner_pred", True))))
        cells.append(SimCell(
            "Indirection", "SDD", 4, 4, 2, seed, "+4shard-mesh",
            (("llc_shards", 4), ("topology", "mesh"))))
        cells.append(SimCell(
            "Indirection", "SMG", 4, 4, 2, seed, "+2shard-multisocket",
            (("llc_shards", 2), ("topology", "multi_socket"))))
        return cells
    if workload == "verify_litmus":
        # the litmus corpus is fixed: the seed does not apply to it
        return [VerifyCell(scenario, config)
                for scenario in CORPUS for config in VERIFY_CONFIGS]
    raise ValueError(f"unknown workload {workload!r}")
