"""Shared helpers for the benchmark harness.

Every bench regenerates one artifact of the paper (table or figure),
asserts its qualitative shape, and archives the rendered output under
``benchmarks/results/`` so EXPERIMENTS.md can quote it.
"""

from __future__ import annotations

import json
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"

#: Machine-readable kernel-performance record at the repo root, so future
#: PRs can diff the perf trajectory (see PERFORMANCE.md).
BENCH_KERNEL_JSON = Path(__file__).parent.parent / "BENCH_kernel.json"

#: Machine-readable record of the global-task coordination benchmarks
#: (``bench_manager.py``); same contract as ``BENCH_kernel.json``.
BENCH_MANAGER_JSON = Path(__file__).parent.parent / "BENCH_manager.json"

#: Machine-readable record of per-scenario runtimes
#: (``bench_scenarios.py``); same contract as ``BENCH_kernel.json``.
BENCH_SCENARIOS_JSON = Path(__file__).parent.parent / "BENCH_scenarios.json"

#: Machine-readable record of the preemptive-node ablation benchmarks
#: (``bench_preemptive.py``); same contract as ``BENCH_kernel.json``.
BENCH_PREEMPTIVE_JSON = Path(__file__).parent.parent / "BENCH_preemptive.json"

#: Machine-readable record of the engine-core benchmarks
#: (``bench_core.py``): microbenchmarks are keyed ``python/<name>``,
#: the engine kernel's name, as they have been since the first record.
BENCH_CORE_JSON = Path(__file__).parent.parent / "BENCH_core.json"

#: Machine-readable record of the observability benchmarks
#: (``bench_obs.py``): sketch/window microbenchmarks plus the recorded
#: A/B of the instrumented metrics path against the pre-observability
#: tree; same contract as ``BENCH_kernel.json``.
BENCH_OBS_JSON = Path(__file__).parent.parent / "BENCH_obs.json"

#: Machine-readable record of the fleet-scale benchmarks
#: (``bench_fleet.py``): per-event event-loop cost at node counts from
#: 10 to 100,000 for the least-outstanding and zipf placements, written
#: directly (no pytest-benchmark fixture) so the scaling cells land even
#: under ``--benchmark-disable``.
BENCH_FLEET_JSON = Path(__file__).parent.parent / "BENCH_fleet.json"


def save_artifact(name: str, text: str) -> Path:
    """Write a rendered table/chart to ``benchmarks/results/<name>.txt``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    return path


def record_bench(json_path: Path, name: str, benchmark) -> Path | None:
    """Record one microbenchmark's stats into a repo-root JSON file.

    Called after each ``benchmark(...)`` run; merges
    ``{name: {ops_per_second, mean_seconds, ...}}`` under the file's
    ``microbenchmarks`` key so that the performance trajectory is
    machine-readable across PRs.  A no-op when the benchmark fixture
    collected no stats (e.g. ``--benchmark-disable``).
    """
    try:
        stats = benchmark.stats.stats
        entry = {
            "ops_per_second": stats.ops,
            "mean_seconds": stats.mean,
            "median_seconds": stats.median,
            "min_seconds": stats.min,
            "rounds": stats.rounds,
        }
    except (AttributeError, TypeError):
        return None
    data: dict = {}
    if json_path.exists():
        try:
            data = json.loads(json_path.read_text())
        except ValueError:
            data = {}
    data.setdefault("microbenchmarks", {})[name] = entry
    json_path.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n"
    )
    return json_path


def record_kernel_bench(name: str, benchmark) -> Path | None:
    """Record one kernel microbenchmark into ``BENCH_kernel.json``."""
    return record_bench(BENCH_KERNEL_JSON, name, benchmark)


def record_manager_bench(name: str, benchmark) -> Path | None:
    """Record one coordinator microbenchmark into ``BENCH_manager.json``."""
    return record_bench(BENCH_MANAGER_JSON, name, benchmark)


def record_scenario_bench(name: str, benchmark) -> Path | None:
    """Record one scenario runtime into ``BENCH_scenarios.json``."""
    return record_bench(BENCH_SCENARIOS_JSON, name, benchmark)


def record_preemptive_bench(name: str, benchmark) -> Path | None:
    """Record one preemptive-node microbenchmark into
    ``BENCH_preemptive.json``."""
    return record_bench(BENCH_PREEMPTIVE_JSON, name, benchmark)


def record_core_bench(name: str, benchmark) -> Path | None:
    """Record one engine-core microbenchmark into ``BENCH_core.json``,
    keyed by the engine kernel's name."""
    from repro.sim.core import KERNEL

    return record_bench(BENCH_CORE_JSON, f"{KERNEL}/{name}", benchmark)


def record_obs_bench(name: str, benchmark) -> Path | None:
    """Record one observability microbenchmark into ``BENCH_obs.json``."""
    return record_bench(BENCH_OBS_JSON, name, benchmark)


def series_end(figure, strategy: str, metric: str = "global") -> float:
    """Miss ratio of ``strategy`` at the last (highest) x value."""
    return figure.sweep.series(strategy, metric)[-1]
