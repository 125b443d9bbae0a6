"""Unit tests for the DRF reference executor and race detector."""

import pytest

from repro.coherence.messages import atomic_add, atomic_max
from repro.consistency.reference import (DataRace, ReferenceExecutor,
                                         VectorClock, assert_drf)
from repro.workloads.trace import Op


def test_vector_clock_ordering():
    a, b = VectorClock(2), VectorClock(2)
    a.ticks = [1, 0]
    b.ticks = [1, 1]
    assert a.happens_before(b)
    assert not b.happens_before(a)


def test_vector_clock_join():
    a, b = VectorClock(2), VectorClock(2)
    a.ticks = [3, 0]
    b.ticks = [1, 2]
    a.join(b)
    assert a.ticks == [3, 2]


def test_vector_clock_join_is_in_place():
    # the executor caches each thread's ``ticks`` list across joins
    a, b = VectorClock(3), VectorClock(3)
    a.ticks[:] = [1, 0, 4]
    b.ticks[:] = [2, 3, 0]
    ticks = a.ticks
    a.join(b)
    assert a.ticks is ticks and ticks == [2, 3, 4]
    assert b.ticks == [2, 3, 0]


def test_sequential_thread_final_memory():
    trace = [Op.store(0x100, 1), Op.store(0x100, 2), Op.load(0x100)]
    result = ReferenceExecutor([trace]).run()
    assert result.value(0x100) == 2
    assert not result.races


def test_unsynchronized_write_write_race_detected():
    t0 = [Op.store(0x100, 1)]
    t1 = [Op.store(0x100, 2)]
    result = ReferenceExecutor([t0, t1]).run()
    assert result.races
    with pytest.raises(DataRace):
        assert_drf([t0, t1])


def test_unsynchronized_read_write_race_detected():
    t0 = [Op.store(0x100, 1)]
    t1 = [Op.load(0x100)]
    result = ReferenceExecutor([t0, t1]).run()
    assert result.races


def test_flag_synchronization_is_race_free():
    flag = 0x200
    t0 = [Op.store(0x100, 1), Op.rmw(flag, atomic_add(1), release=True)]
    t1 = [Op.spin_ge(flag, 1), Op.load(0x100)]
    result = assert_drf([t0, t1])
    assert result.value(0x100) == 1
    assert flag in result.sync_addrs


def test_release_fence_store_publication():
    flag = 0x200
    t0 = [Op.store(0x100, 7), Op.release_fence(), Op.store(flag, 1)]
    t1 = [Op.spin_ge(flag, 1), Op.load(0x100)]
    result = assert_drf([t0, t1])
    assert result.value(0x100) == 7


def test_atomics_are_never_races():
    counter = 0x300
    threads = [[Op.rmw(counter, atomic_add(1)) for _ in range(4)]
               for _ in range(3)]
    result = assert_drf(threads)
    assert result.value(counter) == 12


def test_plain_atomic_publishes_to_sync_variable():
    # an RMW with neither acquire nor release still joins the thread's
    # clock into the variable, so a later acquirer is ordered after it
    flag = 0x200
    t0 = [Op.store(0x100, 1), Op.rmw(flag, atomic_add(1))]
    t1 = [Op.spin_ge(flag, 1), Op.load(0x100)]
    assert not ReferenceExecutor([t0, t1]).run().races


def test_atomic_max_applies():
    cell = 0x400
    threads = [[Op.rmw(cell, atomic_max(5))], [Op.rmw(cell, atomic_max(9))]]
    result = assert_drf(threads)
    assert result.value(cell) == 9


def test_barrier_orders_phases():
    barrier = 0x500
    threads = []
    for tid in range(3):
        threads.append([
            Op.store(0x600 + 4 * tid, tid + 1),
            Op.rmw(barrier, atomic_add(1), release=True),
            Op.spin_ge(barrier, 3),
            Op.load(0x600 + 4 * ((tid + 1) % 3)),
        ])
    result = assert_drf(threads)
    for tid in range(3):
        assert result.value(0x600 + 4 * tid) == tid + 1


def test_deadlock_detection():
    t0 = [Op.spin_ge(0x100, 1)]      # nobody ever writes the flag
    with pytest.raises(RuntimeError, match="deadlock"):
        ReferenceExecutor([t0]).run()


def test_step_budget_exhaustion_raises():
    # Every op is one step: a 3-op trace cannot finish within 2 steps.
    trace = [Op.store(0x100, 1), Op.load(0x100), Op.compute(1)]
    with pytest.raises(RuntimeError, match="exceeded step budget"):
        ReferenceExecutor([trace], max_steps=2).run()
    assert ReferenceExecutor([trace], max_steps=3).run().value(0x100) == 1


def test_failed_spins_count_against_the_step_budget():
    # A spin waiting on a later thread burns a step per failed attempt:
    # failed spin, compute, rmw, then the spin succeeds on step 4.
    flag = 0x200
    t0 = [Op.spin_ge(flag, 1)]
    t1 = [Op.compute(1), Op.rmw(flag, atomic_add(1), release=True)]
    assert ReferenceExecutor([t0, t1], max_steps=4).run().value(flag) == 1
    with pytest.raises(RuntimeError, match="exceeded step budget"):
        ReferenceExecutor([t0, t1], max_steps=3).run()


def test_transitive_happens_before():
    f1, f2 = 0x200, 0x204
    t0 = [Op.store(0x100, 5), Op.rmw(f1, atomic_add(1), release=True)]
    t1 = [Op.spin_ge(f1, 1), Op.rmw(f2, atomic_add(1), release=True)]
    t2 = [Op.spin_ge(f2, 1), Op.load(0x100)]
    result = assert_drf([t0, t1, t2])
    assert not result.races


def test_compute_and_acquire_ops_are_neutral():
    trace = [Op.compute(100), Op.acquire_fence(), Op.store(0x100, 1)]
    result = ReferenceExecutor([trace]).run()
    assert result.value(0x100) == 1


# -- edge cases: spin deadlock, release-window scope, clock asymmetry --------
def test_spin_on_never_released_sync_var_deadlocks():
    # The flag is written, but never past the spin threshold: the
    # executor must report the deadlock instead of spinning forever,
    # even though the writer thread itself completes.
    flag = 0x200
    t0 = [Op.store(0x100, 1), Op.release_fence(), Op.store(flag, 1)]
    t1 = [Op.spin_ge(flag, 2), Op.load(0x100)]
    with pytest.raises(RuntimeError, match="deadlock"):
        ReferenceExecutor([t0, t1]).run()


def test_release_fence_covers_only_next_store():
    # A release fence publishes through the NEXT plain store only; a
    # later store to a second flag is a plain write, so consuming that
    # second flag does not order the data access.
    data, flag_a, flag_b = 0x100, 0x200, 0x204
    t0 = [Op.store(data, 7), Op.release_fence(),
          Op.store(flag_a, 1), Op.store(flag_b, 1)]
    t1 = [Op.spin_ge(flag_b, 1), Op.load(data)]
    result = ReferenceExecutor([t0, t1]).run()
    assert any("0x100" in race for race in result.races)


def test_release_fence_publication_via_first_store():
    # ... whereas consuming the fenced store itself is properly ordered.
    data, flag_a = 0x100, 0x200
    t0 = [Op.store(data, 7), Op.release_fence(), Op.store(flag_a, 1)]
    t1 = [Op.spin_ge(flag_a, 1), Op.load(data)]
    result = ReferenceExecutor([t0, t1]).run()
    assert not result.races
    assert result.value(data) == 7


def test_happens_before_is_asymmetric_for_concurrent_clocks():
    a, b = VectorClock(2), VectorClock(2)
    a.ticks = [1, 0]
    b.ticks = [0, 1]
    # concurrent: neither orders the other — asymmetry must hold both
    # ways, not collapse to "not hb means hb the other way"
    assert not a.happens_before(b)
    assert not b.happens_before(a)
    # reflexivity: every clock happens-before itself (<= not <)
    assert a.happens_before(a)


def test_spin_join_sees_only_released_history():
    # A spin that succeeds on a value published WITHOUT a release does
    # not acquire the writer's history: the data access behind it races.
    data, flag = 0x100, 0x200
    t0 = [Op.store(data, 3), Op.store(flag, 1)]     # no release fence
    t1 = [Op.spin_ge(flag, 1), Op.load(data)]
    result = ReferenceExecutor([t0, t1]).run()
    assert any("0x100" in race for race in result.races)

