"""The benchmark's workloads: one seeded simulation config each, plus the
model invariants every run's result must satisfy.

Imported by the worker process only, where ``src/`` is on the path; the
``repro`` imports stay inside the functions so that ``run.py`` can read
:data:`NAMES` without the package.

Why these four (each stresses a different set of layers; README.md
maps which layer metric should move which end-to-end metric on which
workload):

* ``table1`` -- the paper's Table 1 model, strategy EQF.  About 92% of
  tasks are local, so per-task node, metrics and sketch work dominates
  while the global coordinator idles.
* ``global-trees`` -- the same model with ``frac_local`` 0.2 and
  serial-parallel trees (4 stages x width 2) under EQF-DIV1 with
  least-outstanding placement: the task factory, placement, strategy
  and process manager do several times the work per task.
* ``churn-observed`` -- the ``detector-preemptive`` library scenario
  with JSONL metric emission: the only workload with faults, the
  failure detector, retries/misroutes, preemptive nodes, windowed
  metrics and emission.  Heartbeats make engine dispatch dominate.
* ``fleet-100k`` -- ``fleet-uniform`` at 100,000 nodes with
  least-outstanding placement over a short horizon: node construction
  and the final snapshot outweigh the event loop, so per-node cost
  shows here and nowhere else.
"""

from __future__ import annotations

import math
import os

#: The seed whose result digests are pinned in ``pins.json``.
DEFAULT_SEED = 1

NAMES = ("table1", "global-trees", "churn-observed", "fleet-100k")

#: Records emitted per ``every_events`` on ``churn-observed`` (about 60
#: interval records over the measured phase).
EMIT_EVERY_EVENTS = 5_000

#: Allowed relative distance of a fault-free run's mean utilization from
#: the configured load.  The 6-node runs sit within 3% across seeds; the
#: fleet's short measured window starts while its 4-stage chains are
#: still filling, which reads a few percent low.
UTILIZATION_TOLERANCE = {"table1": 0.10, "global-trees": 0.10,
                         "fleet-100k": 0.25}

#: Further end states per run whose snapshot is timed like the final
#: one, each ``SNAPSHOT_STEP`` time units past the last, so ``snapshot_s``
#: is the median over the final snapshot and these.  On the 6-node
#: workloads a snapshot's cost is set by how full the quantile sketches'
#: pending blocks happen to be (it varies 3x from seed to seed), and the
#: 10-25 final snapshots of one invocation alone are too few: over the
#: same five invocations per workload, their median spread 0.12
#: (table1), 0.14 (global-trees) and 0.23 (churn-observed), against
#: 0.05, 0.11 and 0.13 with these.  The fleet's 0.5 s snapshot is set by
#: its node count and needs none.
EXTRA_SNAPSHOTS = {"table1": 16, "global-trees": 16, "churn-observed": 16,
                   "fleet-100k": 0}
SNAPSHOT_STEP = 100.0


#: Simulated horizon of ``fleet-100k``.  The build's 100,000 nodes leave
#: the collector one full (generation 2) collection of about 0.25 s due
#: shortly after ``Simulation(config)`` returns.  At a horizon of 50 it
#: fell at the loop's very end, inside the loop in some runs and inside
#: the final snapshot in others, so a run's loop time was 0.45 s or
#: 0.9 s by chance and ``tasks_per_s`` spread 0.17-0.31 between
#: invocations.  From 100 on it lands in the loop in every run (about a
#: third of the way in at 150), and the loop (1.1-1.7 s) stays shorter
#: than setup plus the final snapshot (1.4-2.0 s).
FLEET_SIM_TIME = 150.0


def build_config(name: str, seed: int):
    """The :class:`~repro.system.config.SystemConfig` of workload ``name``."""
    from repro import baseline_config

    if name == "table1":
        return baseline_config(strategy="EQF", seed=seed)
    if name == "global-trees":
        return baseline_config(
            strategy="EQF-DIV1",
            frac_local=0.2,
            task_structure="serial-parallel",
            stages=4,
            stage_width=2,
            placement="least-outstanding",
            seed=seed,
        )
    # Imported only here: the scenarios package pulls in the statistics
    # stack (numpy, scipy), which is part of what a scenario user's
    # process holds but not of a plain-config run's.
    from repro.scenarios import get_scenario

    if name == "churn-observed":
        return get_scenario("detector-preemptive").to_config(seed=seed)
    if name == "fleet-100k":
        return get_scenario("fleet-uniform").to_config(
            node_count=100_000,
            placement="least-outstanding",
            sim_time=FLEET_SIM_TIME,
            warmup_time=2.0,
            seed=seed,
        )
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")


def emission_policy(name: str, path: str):
    """The run's ``EmissionPolicy`` (``None`` when the workload emits
    nothing)."""
    if name != "churn-observed":
        return None
    from repro.system.emission import EmissionPolicy

    return EmissionPolicy(path=path, every_events=EMIT_EVERY_EVENTS)


def aggregate_nodes(config) -> bool:
    """The canonical record form: per-node detail up to the emitter's
    threshold, the bounded node summary above it (as the metric emitter
    itself decides)."""
    from repro.system.metrics import PER_NODE_DETAIL_THRESHOLD

    return config.node_count > PER_NODE_DETAIL_THRESHOLD


def check_result(name: str, config, result) -> list:
    """Model invariants of one run's :class:`RunResult`; returns the
    violations found (empty when the run is correct)."""
    errors = []
    total_completed = 0
    for cls, stats in result.per_class.items():
        finished = stats.completed + stats.aborted
        total_completed += stats.completed
        ratio = stats.miss_ratio
        if finished == 0:
            if not math.isnan(ratio):
                errors.append(f"{cls}: no traffic but miss ratio {ratio}")
        elif not 0.0 <= ratio <= 1.0:
            errors.append(f"{cls}: miss ratio {ratio} outside [0, 1]")
    if total_completed <= 0:
        errors.append("no task completed")
    if config.frac_local > 0 and result.local.completed <= 0:
        errors.append("local traffic configured but none completed")
    if config.frac_local < 1 and result.global_.completed <= 0:
        errors.append("global traffic configured but none completed")
    tolerance = UTILIZATION_TOLERANCE.get(name)
    if tolerance is not None:
        utilization = result.mean_utilization
        if not abs(utilization - config.load) <= tolerance * config.load:
            errors.append(
                f"mean utilization {utilization:.4f} not within "
                f"{tolerance:.0%} of load {config.load}"
            )
    else:
        utilization = result.mean_utilization
        if not 0.0 < utilization < 1.0:
            errors.append(f"mean utilization {utilization} outside (0, 1)")
    return errors


def check_emission(path: str, record: str) -> list:
    """The emitted series' final record must equal the returned result
    (``record`` is the run's canonical JSON)."""
    import json

    if not os.path.exists(path):
        return ["emission file missing"]
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if len(lines) < 3:
        return [f"emission wrote {len(lines)} records, expected >= 3"]
    final = json.loads(lines[-1])
    if final.get("type") != "final":
        return ["emission's last record is not the final record"]
    if json.dumps(final["cumulative"], sort_keys=True) != record:
        return ["emission's final record differs from the returned result"]
    return []
