"""Sweep subsystem: process-pool fan-out and cache reuse.

Not a paper artifact — this benchmarks the experiment harness itself:
a cold parallel sweep must agree cell-for-cell with a serial one, and a
warm rerun over the same cache must simulate nothing.  The printed
summary shows the per-cell wall times and the observed speedup.
"""

from repro.analysis.sweep import ResultCache, grid_specs, run_sweep
from repro.system import scaled_config

GRID = grid_specs(["Indirection", "ReuseO", "ReuseS"],
                  [scaled_config("HMG", 2, 2), scaled_config("SDD", 2, 2)],
                  dict(warps_per_cu=1))


def run_cold_and_warm(cache_dir):
    cache = ResultCache(cache_dir / "sweep")
    serial = run_sweep(GRID, jobs=1, cache=None)
    cold = run_sweep(GRID, jobs=2, cache=cache)
    warm = run_sweep(GRID, jobs=2, cache=cache)
    return serial, cold, warm


def test_parallel_sweep_speedup_and_cache(benchmark, tmp_path):
    serial, cold, warm = benchmark.pedantic(
        run_cold_and_warm, args=(tmp_path,), rounds=1, iterations=1)

    print("\nSweep harness: serial vs 2-job pool vs warm cache")
    print(cold.format_summary())
    print(f"serial wall: {serial.wall_time:.2f}s  "
          f"2-job wall: {cold.wall_time:.2f}s  "
          f"warm wall: {warm.wall_time:.2f}s")

    # parallel execution must not change a single result
    for a, b in zip(serial.cells, cold.cells):
        assert (a.workload, a.config) == (b.workload, b.config)
        assert a.cycles == b.cycles
        assert a.network_bytes == b.network_bytes
        assert a.payload["traffic"] == b.payload["traffic"]

    # the warm rerun is pure cache
    assert cold.simulated == len(GRID)
    assert warm.simulated == 0
    assert warm.cache_hits == len(GRID)
    for a, b in zip(cold.cells, warm.cells):
        assert a.cycles == b.cycles
