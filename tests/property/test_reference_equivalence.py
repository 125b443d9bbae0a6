"""The epoch-based DRF oracle is exactly the vector-clock oracle.

``ReferenceExecutor`` records the last writer and the readers of each
data word as epochs ``(tid, tick)`` and tests happens-before with one
compare (FastTrack).  Every epoch is taken right after the thread's own
tick, and clocks only grow, so ``tick <= C[tid]`` holds exactly when
the full snapshot is ``<= C``.  This suite pins that claim against a
compact full-vector-clock oracle kept below: on random traces, on every
workload generator and on every litmus scenario, the race list (order
and duplicates included), the final memory and the sync addresses must
be equal — and where one executor raises, the other raises the same.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.coherence.messages import atomic_add, atomic_max
from repro.consistency.reference import ReferenceExecutor
from repro.verify.litmus import CORPUS
from repro.workloads import APPLICATIONS, MICROBENCHMARKS
from repro.workloads.trace import Op, OpKind

DATA = (0x100, 0x104)
FLAGS = (0x200, 0x204)
SMALL = dict(num_cpus=2, num_gpus=2, warps_per_cu=1)


def vector_clock_oracle(traces, max_steps=50_000_000):
    """Full-vector-clock DRF reference: snapshots every access's clock."""
    n = len(traces)
    clocks = [[0] * n for _ in range(n)]
    pcs = [0] * n
    pending = [False] * n
    memory, sync_clock, last_writer, readers = {}, {}, {}, {}
    sync_addrs, races = set(), []

    def hb(a, b):
        return all(x <= y for x, y in zip(a, b))

    def join(into, other):
        into[:] = [max(x, y) for x, y in zip(into, other)]

    def sync(addr):
        return sync_clock.setdefault(addr, [0] * n)

    def access(tid, addr, write):
        if addr in sync_addrs:
            return
        clock = clocks[tid]
        writer = last_writer.get(addr)
        if writer is not None and writer[0] != tid and \
                not hb(writer[1], clock):
            tag = "W-W" if write else "W-R"
            races.append(f"{tag} race on 0x{addr:x}: t{writer[0]} vs t{tid}")
        if not write:
            readers.setdefault(addr, []).append((tid, list(clock)))
            return
        for reader, snapshot in readers.get(addr, []):
            if reader != tid and not hb(snapshot, clock):
                races.append(f"R-W race on 0x{addr:x}: t{reader} vs t{tid}")
        last_writer[addr] = (tid, list(clock))
        readers[addr] = []

    def step(tid):
        op = traces[tid][pcs[tid]]
        clock = clocks[tid]
        if op.kind in (OpKind.LOAD, OpKind.STORE, OpKind.RMW):
            clock[tid] += 1
        if op.kind is OpKind.RELEASE:
            pending[tid] = True
        elif op.kind is OpKind.LOAD:
            for addr in op.addrs:
                access(tid, addr, write=False)
        elif op.kind is OpKind.STORE:
            for addr in op.addrs:
                if pending[tid]:
                    sync_addrs.add(addr)
                    join(sync(addr), clock)
                else:
                    access(tid, addr, write=True)
                memory[addr] = op.value
            pending[tid] = False
        elif op.kind is OpKind.RMW:
            addr = op.addrs[0]
            sync_addrs.add(addr)
            if op.acquire:
                join(clock, sync(addr))
            memory[addr] = op.atomic.apply(memory.get(addr, 0))
            if op.release or not op.acquire:
                join(sync(addr), clock)
        elif op.kind is OpKind.SPIN_LOAD:
            addr = op.addrs[0]
            sync_addrs.add(addr)
            if not op.spin_until(memory.get(addr, 0)):
                return False
            join(clock, sync(addr))
        pcs[tid] += 1
        return True

    steps = 0
    while True:
        progressed = False
        for tid in range(n):
            while pcs[tid] < len(traces[tid]):
                steps += 1
                if steps > max_steps:
                    raise RuntimeError(
                        "reference execution exceeded step budget "
                        "(deadlocked synchronization?)")
                if not step(tid):
                    break
                progressed = True
        if all(pcs[tid] >= len(traces[tid]) for tid in range(n)):
            return races, memory, sync_addrs
        if not progressed:
            stuck = [tid for tid in range(n) if pcs[tid] < len(traces[tid])]
            raise RuntimeError(
                f"reference execution deadlocked; threads {stuck} "
                "are spinning on conditions that can never be met")


def outcome(run):
    try:
        return run()
    except RuntimeError as exc:
        return ("raised", str(exc))


def assert_equivalent(traces, max_steps=50_000_000):
    def epoch():
        result = ReferenceExecutor(traces, max_steps=max_steps).run()
        return result.races, result.memory, result.sync_addrs

    expected = outcome(lambda: vector_clock_oracle(traces, max_steps))
    assert outcome(epoch) == expected
    return expected


# -- random traces ---------------------------------------------------------
# Few words and mostly-disjoint roles keep synchronization dense: data
# lanes sometimes hit a flag and RMWs sometimes hit a data word, so the
# "already a sync address" paths are reached too.
LANES = st.lists(st.sampled_from(DATA + DATA + FLAGS), min_size=1,
                 max_size=3)
RMW_ADDR = st.sampled_from(FLAGS + FLAGS + DATA[:1])
VALUE = st.integers(0, 3)
ATOMIC = st.one_of(st.builds(atomic_add, st.integers(1, 2)),
                   st.builds(atomic_max, VALUE))

DATA_OPS = st.one_of(
    st.builds(lambda lanes: [Op.load(lanes)], LANES),
    st.builds(lambda lanes, v: [Op.store(lanes, v)], LANES, VALUE),
)
SYNC_OPS = st.one_of(
    # release fence followed by a release-store of a flag
    st.builds(lambda flag, v: [Op.release_fence(), Op.store(flag, v)],
              st.sampled_from(FLAGS), VALUE),
    st.builds(lambda addr, atomic, acq, rel: [
        Op.rmw(addr, atomic, acquire=acq, release=rel)],
        RMW_ADDR, ATOMIC, st.booleans(), st.booleans()),
    st.builds(lambda flag, threshold: [Op.spin_ge(flag, threshold)],
              st.sampled_from(FLAGS), st.integers(0, 1)),
)
OP_GROUPS = st.one_of(
    DATA_OPS,
    SYNC_OPS,
    # publish / consume pairs make happens-before edges matter often
    st.builds(list.__add__, DATA_OPS, SYNC_OPS),
    st.builds(list.__add__, SYNC_OPS, DATA_OPS),
    # a lone fence: the next store (maybe after RMWs) publishes
    st.builds(lambda: [Op.release_fence()]),
    st.builds(lambda cycles: [Op.compute(cycles)], st.integers(1, 5)),
    st.builds(lambda: [Op.acquire_fence()]),
)
THREAD = st.lists(OP_GROUPS, max_size=10).map(
    lambda groups: [op for group in groups for op in group])
TRACES = st.lists(THREAD, min_size=2, max_size=4)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(TRACES)
def test_random_traces_match_vector_clock_oracle(traces):
    assert_equivalent(traces)


@settings(max_examples=100, deadline=None)
@given(TRACES, st.integers(1, 12))
def test_step_budget_matches_vector_clock_oracle(traces, max_steps):
    assert_equivalent(traces, max_steps=max_steps)


def test_oracles_agree_on_known_race_order_and_deadlock():
    # t0 runs to completion first, then t1, then t2: each race is
    # reported once per conflicting record, readers in program order
    t0 = [Op.store(DATA[0], 1), Op.load(DATA[1])]
    t1 = [Op.store(DATA[1], 2), Op.load(DATA[0]), Op.load(DATA[0])]
    t2 = [Op.store(DATA[0], 3)]
    races, _, _ = assert_equivalent([t0, t1, t2])
    assert races == ["R-W race on 0x104: t0 vs t1",
                     "W-R race on 0x100: t0 vs t1",
                     "W-R race on 0x100: t0 vs t1",
                     "W-W race on 0x100: t0 vs t2",
                     "R-W race on 0x100: t1 vs t2",
                     "R-W race on 0x100: t1 vs t2"]
    assert assert_equivalent([[Op.spin_ge(FLAGS[0], 1)], []])[0] == "raised"


# -- generators and litmus scenarios ---------------------------------------
@pytest.mark.parametrize("name", sorted(MICROBENCHMARKS))
def test_microbenchmarks_match_vector_clock_oracle(name):
    workload = MICROBENCHMARKS[name](**SMALL)
    races, _, _ = assert_equivalent(workload.all_threads())
    assert races == []


@pytest.mark.parametrize("name", sorted(APPLICATIONS))
def test_applications_match_vector_clock_oracle(name):
    workload = APPLICATIONS[name](**SMALL)
    races, _, _ = assert_equivalent(workload.all_threads())
    assert races == []


@pytest.mark.parametrize("scenario", CORPUS, ids=lambda s: s.name)
def test_litmus_corpus_matches_vector_clock_oracle(scenario):
    assert_equivalent(scenario.traces())
