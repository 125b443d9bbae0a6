"""Pinned explorer outcomes: how the litmus-scale systems explore.

For one plain, one cross-shard, one request-policy and one unreliable
scenario on all six configurations, a bounded DFS must visit exactly
the pinned number of schedules and deliveries, report the same
exhaustion verdict, and end its schedules at the same simulated
cycles.  Any change to how the explored system is built (component
wiring, latencies, retry settings, network substitution) moves at
least one of these numbers.
"""

import pytest

from repro.system.config import CONFIG_ORDER
from repro.verify import DfsExplorer, scenario_by_name

pytestmark = pytest.mark.tier1

MAX_SCHEDULES = 16


class CycleTally:
    """Explorer coverage hook: sums ``engine.now`` over schedules."""

    def __init__(self):
        self.cycles = 0
        self._system = None

    def attach(self, system) -> None:
        self.close()
        self._system = system

    def close(self) -> None:
        system, self._system = self._system, None
        if system is not None:
            self.cycles += system.engine.now


#: (scenario, config) -> (schedules, deliveries, complete, sum of cycles)
PINNED = {
    ("reqv-departed-owner", "HMG"): (16, 672, False, 4989),
    ("reqv-departed-owner", "HMD"): (16, 726, False, 5042),
    ("reqv-departed-owner", "SMG"): (16, 624, False, 5298),
    ("reqv-departed-owner", "SMD"): (16, 672, False, 5437),
    ("reqv-departed-owner", "SDG"): (16, 672, False, 5495),
    ("reqv-departed-owner", "SDD"): (16, 650, False, 5493),
    ("xshard-mp-handoff", "HMG"): (16, 352, False, 1582),
    ("xshard-mp-handoff", "HMD"): (16, 352, False, 1582),
    ("xshard-mp-handoff", "SMG"): (16, 246, False, 1133),
    ("xshard-mp-handoff", "SMD"): (16, 246, False, 1133),
    ("xshard-mp-handoff", "SDG"): (16, 224, False, 1040),
    ("xshard-mp-handoff", "SDD"): (16, 246, False, 1165),
    ("pred-mispredict-eviction", "HMG"): (16, 1728, False, 8062),
    ("pred-mispredict-eviction", "HMD"): (16, 1792, False, 8014),
    ("pred-mispredict-eviction", "SMG"): (16, 1341, False, 7667),
    ("pred-mispredict-eviction", "SMD"): (16, 1341, False, 7667),
    ("pred-mispredict-eviction", "SDG"): (16, 1632, False, 7936),
    ("pred-mispredict-eviction", "SDD"): (16, 1376, False, 7603),
    ("unreliable-mp-handoff", "HMG"): (16, 365, False, 1712),
    ("unreliable-mp-handoff", "HMD"): (16, 365, False, 1712),
    ("unreliable-mp-handoff", "SMG"): (16, 237, False, 1472),
    ("unreliable-mp-handoff", "SMD"): (16, 237, False, 1472),
    ("unreliable-mp-handoff", "SDG"): (16, 269, False, 1568),
    ("unreliable-mp-handoff", "SDD"): (16, 237, False, 1504),
}


@pytest.mark.parametrize("config_name", CONFIG_ORDER)
@pytest.mark.parametrize("scenario_name", sorted({s for s, _ in PINNED}))
def test_explorer_outcome_is_pinned(scenario_name, config_name):
    tally = CycleTally()
    result = DfsExplorer(max_schedules=MAX_SCHEDULES).explore(
        scenario_by_name(scenario_name), config_name, coverage=tally)
    tally.close()
    assert result.ok, result.failures
    assert (result.schedules, result.deliveries, result.complete,
            tally.cycles) == PINNED[scenario_name, config_name]
