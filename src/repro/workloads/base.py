"""Workload container and shared generator utilities.

A :class:`Workload` bundles per-CPU-core traces, per-CU warp traces, an
initial memory image, and Table VII-style metadata.  Generators build
synchronization from the same primitives the paper's applications use —
atomics and flag spins — so sync cost flows through the protocols.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..coherence.messages import atomic_add
from ..consistency.reference import ReferenceResult, assert_drf
from .trace import AddressSpace, Op, Trace


@dataclass
class WorkloadMeta:
    """Table VII row: communication pattern and execution parameters."""

    suite: str = "synthetic"
    partitioning: str = "data"        # 'data' | 'task'
    synchronization: str = "coarse-grain"
    sharing: str = "flat"             # 'flat' | 'hierarchical'
    locality: str = "moderate"
    parameters: Dict[str, object] = field(default_factory=dict)


class Workload:
    """Traces plus memory image for one benchmark instance."""

    def __init__(self, name: str, cpu_traces: Sequence[Trace],
                 gpu_traces: Sequence[Sequence[Trace]],
                 initial_memory: Optional[Dict[int, int]] = None,
                 meta: Optional[WorkloadMeta] = None):
        self.name = name
        self.cpu_traces = [list(t) for t in cpu_traces]
        self.gpu_traces = [[list(w) for w in cu] for cu in gpu_traces]
        self.initial_memory = dict(initial_memory or {})
        self.meta = meta or WorkloadMeta()

    def all_threads(self) -> List[Trace]:
        threads = list(self.cpu_traces)
        for cu in self.gpu_traces:
            threads.extend(cu)
        return threads

    def total_ops(self) -> int:
        return sum(len(t) for t in self.all_threads())

    def reference(self) -> ReferenceResult:
        """DRF-check the workload and return the expected final memory.

        The reference executor runs the traces from all-zero memory (it
        does not see ``initial_memory``).  Its final image is then
        merged over ``initial_memory``: words the traces write take the
        executed value, words they never write keep their initial one.
        Raises :class:`~repro.consistency.reference.DataRace` if the
        traces are not DRF.
        """
        result = assert_drf(self.all_threads())
        merged = dict(self.initial_memory)
        merged.update(result.memory)
        result.memory = merged
        return result


class BarrierFactory:
    """Allocates one-shot sense-free barriers (atomic arrive + spin)."""

    def __init__(self, space: AddressSpace):
        self.space = space

    def make(self, participants: int):
        """Returns (addr, arrive_then_wait ops) for each participant."""
        addr = self.space.alloc_words(1, align=64)

        def ops() -> List[Op]:
            return [Op.rmw(addr, atomic_add(1), release=True),
                    Op.spin_ge(addr, participants)]
        return addr, ops


def strided_line_addrs(base: int, nlines: int, words_per_line: int = 1,
                       rng: Optional[random.Random] = None) -> List[int]:
    """One (or a few) word address(es) per line — low spatial locality."""
    addrs: List[int] = []
    for i in range(nlines):
        line = base + i * 64
        if words_per_line >= 16:
            addrs.extend(line + 4 * w for w in range(16))
        else:
            offsets = (rng.sample(range(16), words_per_line)
                       if rng else range(words_per_line))
            addrs.extend(line + 4 * w for w in offsets)
    return addrs


def dense_addrs(base: int, nwords: int) -> List[int]:
    """Contiguous word addresses — high spatial locality."""
    return [base + 4 * i for i in range(nwords)]


def chunk(lst: List[int], size: int) -> List[List[int]]:
    return [lst[i:i + size] for i in range(0, len(lst), size)]
