"""Litmus-scale Table V systems for schedule exploration.

A :class:`VerifySystem` *is* a :class:`repro.system.builder.System`,
built by the one builder from :func:`litmus_config`: two CPU and two
GPU L1s with tiny caches, so a litmus scenario's interleaving space
stays tractable.  Whatever the builder wires (shard maps, TU retry
settings, request policies, topology) is therefore what the explorer
checks.  The network class is injectable: the explorer substitutes
:class:`repro.verify.explorer.ControlledNetwork` to take over delivery
ordering.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional

from ..network.noc import Network
from ..system.builder import System
from ..system.config import (KB, SystemConfig, TraceConfig,
                             WatchdogConfig, scaled_config)

#: thread roles exposed to litmus scenarios, in trace order
THREAD_NAMES = ("c0", "c1", "g0", "g1")


@lru_cache(maxsize=None)
def litmus_config(config_name: str, trace: bool = False,
                  **axes) -> SystemConfig:
    """``config_name`` at litmus scale; ``axes`` override any field.

    Memoized: the explorer builds a fresh system per schedule but the
    configuration only once per (scenario, config) pair.
    """
    params = dict(
        l1_size=8 * KB, l1_assoc=8,
        llc_size=64 * KB, l3_size=64 * KB, gpu_l2_size=32 * KB,
        llc_access_latency=3, l3_access_latency=3,
        gpu_l2_access_latency=2, dram_latency=20, net_default=5,
        # a Nack escalates at once: no retry/backoff timers to explore
        tu_nack_retry_limit=0, tu_backoff_jitter=0,
        # the quiescence check would fire while messages wait in the
        # explorer's controlled queues
        watchdog=WatchdogConfig(enabled=False),
        trace=TraceConfig(capacity=65_536) if trace else None)
    params.update(axes)
    return scaled_config(config_name, 2, 2, **params)


class VerifySystem(System):
    """One Table V configuration at litmus scale (2 CPUs + 2 GPUs)."""

    def __init__(self, config_name: str, network_cls=Network, **axes):
        super().__init__(litmus_config(config_name, **axes), network_cls)
        l1s = self.cpu_l1s + self.gpu_l1s
        for l1 in l1s:
            # a one-cycle write-coalescing window keeps the few-op
            # litmus schedules short
            l1.coalesce_delay = 1
        #: litmus thread role -> L1 controller
        self.l1s: Dict[str, object] = dict(zip(THREAD_NAMES, l1s))
        #: attached by the explorer: {"scenario":…, "config":…, …} so
        #: diagnostics identify the failing schedule (see repro.faults)
        self.verify_context: Optional[Dict[str, object]] = None
