"""Microbenchmarks of the engine core.

Not a paper artifact: these track the engine module
(``repro.sim._engine``).  Three workloads bracket the engine:

* ``core_kernel_storm`` -- nothing but the run loop and the pooled-sleep
  machinery (one self-rescheduling timer, 100 000 firings): the purest
  measure of per-event dispatch cost;
* ``core_mm1`` -- the baseline arrival/service cycle end to end (the
  same run as ``bench_kernel.py::test_mm1_queue_cycle``): kernel plus
  sources, nodes, coordinator, and metrics;
* ``core_preemptive_storm`` -- the preemption machinery
  (``bench_preemptive.run_storm``): cancellable timers, urgent pokes,
  re-dispatch.

Results are merged into ``BENCH_core.json`` under ``python/`` keys (the
prefix predates the removal of the compiled kernel and is kept so the
file's history stays comparable).  The ``recorded`` section of that
file holds the interleaved A/B numbers against the pre-split kernel
(see PERFORMANCE.md for the methodology).
"""

from __future__ import annotations

from repro.sim.core import Environment

from _util import record_core_bench
from bench_preemptive import run_storm as run_preemptive_storm


def run_kernel_storm(count: int = 100_000) -> float:
    """One self-rescheduling pooled timer, fired ``count`` times."""
    env = Environment()
    left = [count]

    def tick(_event) -> None:
        left[0] -= 1
        if left[0]:
            env._sleep(1.0, tick)

    env._sleep(1.0, tick)
    env.run()
    return env.now


def run_mm1() -> int:
    """The baseline arrival/service cycle (cf. bench_kernel.py)."""
    from repro.system.config import baseline_config
    from repro.system.simulation import simulate

    result = simulate(
        baseline_config(sim_time=1_000.0, warmup_time=100.0, seed=3)
    )
    return result.local.completed


def test_core_kernel_storm(benchmark):
    final_time = benchmark(run_kernel_storm)
    record_core_bench("core_kernel_storm", benchmark)
    assert final_time == 100_000.0


def test_core_mm1(benchmark):
    completed = benchmark(run_mm1)
    record_core_bench("core_mm1", benchmark)
    assert completed > 500


def test_core_preemptive_storm(benchmark):
    preemptions = benchmark(run_preemptive_storm)
    record_core_bench("core_preemptive_storm", benchmark)
    assert preemptions == 10_000 - 1

