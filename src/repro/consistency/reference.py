"""Sequential reference executor with DRF race detection.

Spandex assumes SC-for-DRF (paper §III-E): conflicting data accesses in
different threads must be separated by a happens-before chain of
synchronization accesses.  This module executes a set of traces
cooperatively (no timing), producing

* the expected final memory image — the simulator's DRAM must match it
  for deterministic workloads, giving an end-to-end correctness oracle;
* a happens-before data-race check — certifying that generated
  workloads actually are DRF, so the protocols' relaxed behaviours
  (stale Valid copies, non-atomic visibility windows) are legal.

Full vector clocks are kept only per thread and per sync variable
(joined in place).  The last writer and the readers of a data word are
recorded as epochs ``(tid, tick)`` taken right after the accessing
thread's own tick, so "happens before clock C" is the single compare
``tick <= C[tid]`` (the FastTrack observation, Flanagan & Freund,
PLDI 2009).  That is exact here, not an approximation: clocks only
grow, so the epoch test holds precisely when the full snapshot would
have been ``<= C``.

Synchronization edges recognized:

* ``Op.rmw(..., release=True)`` publishes the thread's clock to the
  sync variable; ``acquire=True`` joins the variable's clock.
* a successful ``Op.spin_load`` joins the variable's clock (acquire);
* a plain store executed after a release fence is a release-store.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence, Set, Tuple

from ..workloads.trace import OpKind, Trace


class DataRace(Exception):
    """Two conflicting accesses without a happens-before ordering."""


class VectorClock:
    __slots__ = ("ticks",)

    def __init__(self, nthreads: int):
        self.ticks = [0] * nthreads

    def copy(self) -> "VectorClock":
        vc = VectorClock(len(self.ticks))
        vc.ticks = list(self.ticks)
        return vc

    def join(self, other: "VectorClock") -> None:
        """Join ``other`` into this clock in place (``ticks`` keeps its
        identity, so callers may hold on to the list)."""
        self.ticks[:] = map(max, self.ticks, other.ticks)

    def happens_before(self, other: "VectorClock") -> bool:
        return all(a <= b for a, b in zip(self.ticks, other.ticks))


class _Thread:
    __slots__ = ("tid", "trace", "pc", "clock", "release_pending")

    def __init__(self, tid: int, trace: Trace, nthreads: int):
        self.tid = tid
        self.trace = trace
        self.pc = 0
        self.clock = VectorClock(nthreads)
        self.release_pending = False

    @property
    def done(self) -> bool:
        return self.pc >= len(self.trace)


class ReferenceResult:
    def __init__(self, memory: Dict[int, int], sync_addrs: Set[int],
                 races: List[str]):
        #: word address -> final value (absent words are 0)
        self.memory = memory
        self.sync_addrs = sync_addrs
        self.races = races

    def value(self, addr: int) -> int:
        return self.memory.get(addr, 0)


class ReferenceExecutor:
    """Cooperatively execute traces; detect races; compute final memory."""

    def __init__(self, traces: Sequence[Trace],
                 max_steps: int = 50_000_000):
        self.traces = list(traces)
        self.max_steps = max_steps

    def run(self) -> ReferenceResult:
        nthreads = len(self.traces)
        threads = [_Thread(tid, trace, nthreads)
                   for tid, trace in enumerate(self.traces)]
        memory: Dict[int, int] = {}
        sync_clock: Dict[int, VectorClock] = defaultdict(
            lambda: VectorClock(nthreads))
        #: data word -> epoch ``(tid, tick)`` of its last plain write
        last_writer: Dict[int, Tuple[int, int]] = {}
        #: data word -> epochs of its plain reads since that write
        readers: Dict[int, List[Tuple[int, int]]] = {}
        sync_addrs: Set[int] = set()
        races: List[str] = []
        max_steps = self.max_steps
        load, store, rmw, spin_load, release_fence = (
            OpKind.LOAD, OpKind.STORE, OpKind.RMW, OpKind.SPIN_LOAD,
            OpKind.RELEASE)
        neutral = (OpKind.COMPUTE, OpKind.ACQUIRE)

        steps = 0
        while True:
            progressed = False
            for thread in threads:
                tid = thread.tid
                trace = thread.trace
                end = len(trace)
                pc = thread.pc
                clock = thread.clock
                ticks = clock.ticks
                while pc < end:
                    steps += 1
                    if steps > max_steps:
                        raise RuntimeError(
                            "reference execution exceeded step budget "
                            "(deadlocked synchronization?)")
                    op = trace[pc]
                    kind = op.kind
                    if kind is load:
                        tick = ticks[tid] + 1
                        ticks[tid] = tick
                        epoch = (tid, tick)
                        for addr in op.addrs:
                            if addr in sync_addrs:
                                continue
                            writer = last_writer.get(addr)
                            if writer is not None and writer[0] != tid \
                                    and writer[1] > ticks[writer[0]]:
                                races.append(f"W-R race on 0x{addr:x}: "
                                             f"t{writer[0]} vs t{tid}")
                            reads = readers.get(addr)
                            if reads is None:
                                readers[addr] = [epoch]
                            else:
                                reads.append(epoch)
                    elif kind is store:
                        tick = ticks[tid] + 1
                        ticks[tid] = tick
                        value = op.value
                        if thread.release_pending:
                            # release-store: publish to the sync variable
                            for addr in op.addrs:
                                sync_addrs.add(addr)
                                sync_clock[addr].join(clock)
                                memory[addr] = value
                            thread.release_pending = False
                        else:
                            epoch = (tid, tick)
                            for addr in op.addrs:
                                memory[addr] = value
                                if addr in sync_addrs:
                                    continue
                                writer = last_writer.get(addr)
                                if writer is not None and writer[0] != tid \
                                        and writer[1] > ticks[writer[0]]:
                                    races.append(f"W-W race on 0x{addr:x}: "
                                                 f"t{writer[0]} vs t{tid}")
                                reads = readers.get(addr)
                                if reads:
                                    for reader, read_tick in reads:
                                        if reader != tid and \
                                                read_tick > ticks[reader]:
                                            races.append(
                                                f"R-W race on 0x{addr:x}: "
                                                f"t{reader} vs t{tid}")
                                    reads.clear()
                                last_writer[addr] = epoch
                    elif kind is rmw:
                        ticks[tid] += 1
                        addr = op.addrs[0]
                        sync_addrs.add(addr)
                        published = sync_clock[addr]
                        if op.acquire:
                            clock.join(published)
                        memory[addr] = op.atomic.apply(memory.get(addr, 0))
                        if op.release or not op.acquire:
                            # plain atomics still order within the sync var
                            published.join(clock)
                    elif kind is spin_load:
                        addr = op.addrs[0]
                        sync_addrs.add(addr)
                        if not op.spin_until(memory.get(addr, 0)):
                            break           # yield until someone writes
                        clock.join(sync_clock[addr])
                    elif kind is release_fence:
                        thread.release_pending = True
                    elif kind not in neutral:
                        raise AssertionError(f"unhandled {kind}")
                    pc += 1
                    progressed = True
                thread.pc = pc
            if all(t.done for t in threads):
                break
            if not progressed:
                stuck = [t.tid for t in threads if not t.done]
                raise RuntimeError(
                    f"reference execution deadlocked; threads {stuck} "
                    "are spinning on conditions that can never be met")
        return ReferenceResult(memory, sync_addrs, races)


def assert_drf(traces: Sequence[Trace]) -> ReferenceResult:
    """Run the reference executor and raise :class:`DataRace` if any
    conflicting unsynchronized accesses were observed."""
    result = ReferenceExecutor(traces).run()
    if result.races:
        preview = "; ".join(result.races[:5])
        raise DataRace(f"{len(result.races)} race(s): {preview}")
    return result
