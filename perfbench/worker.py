"""Measuring process: runs one workload and prints its raw samples.

Started by ``run.py`` as a fresh interpreter with the tree under test's
``src/`` on ``PYTHONPATH``, so peak memory is that of a process that runs
only this workload, and an A/B run can point the same code at another
tree.  One discarded warm-up run comes first (the first run in a process
is markedly slower).  Garbage is collected before each timed build and
GC stays enabled, as users run it.

Usage (normally through run.py)::

    PYTHONPATH=src python3 perfbench/worker.py --workload table1 \\
        --seed 1 --seconds 10 --trace 0 --tmp .perfbench

Standard output is one JSON object with every run's samples and output
digest; checking and aggregation happen in run.py.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import sys
import traceback
from time import perf_counter

import layers
import workloads

#: Fewest timed runs per invocation when ``--seconds`` is positive.
#: ``--seconds 0`` makes the warm-up run only, which is all that
#: ``run.py --repin`` needs.
MIN_RUNS = 3


def run_seeds(seed: int):
    """The seeds of one invocation's runs, all made from ``seed``.

    ``seed`` itself comes twice -- the warm-up, then the first timed run,
    which must repeat it exactly -- and every later run gets a seed of
    its own.  Medians over many seeded instances of the workload, not
    one, keep an instance's accidents out of them: its event count, and
    how full the quantile sketches' pending blocks are when the final
    snapshot folds them (which alone moves ``snapshot_s`` 3x on the
    6-node workloads).
    """
    yield seed
    yield seed
    rng = random.Random(seed)
    while True:
        yield rng.randrange(1, 2**31)


def _one_run(name: str, seed: int, emit_path: str, targets=None) -> dict:
    """Build and run one simulation; ``targets`` (span targets) traces it.

    Returns the run's timings, counts and output digest, or its error.
    A workload that emits writes its series to ``emit_path``, which each
    run overwrites.
    """
    from repro import Simulation
    from repro.system.work import UNIT_POOL

    config = workloads.build_config(name, seed)
    emit = workloads.emission_policy(name, emit_path)
    sample: dict = {"seed": seed, "traced": targets is not None,
                    "errors": []}
    # The pool is process-wide and its high-water mark never falls, so it
    # is lowered to the units already in use; its rise is this run's peak.
    pool_in_use, pool_high_water = UNIT_POOL.in_use, UNIT_POOL.high_water
    UNIT_POOL.high_water = pool_in_use
    probe = layers.Probe(targets or ())
    try:
        gc.collect()
        t0 = perf_counter()
        sim = Simulation(config)
        t1 = perf_counter()
        at_run = probe.totals()
        result = sim.run(emit=emit)
        t2 = perf_counter()
        after = probe.totals()
        sample["unit_pool_high_water"] = UNIT_POOL.high_water - pool_in_use
    except Exception:
        sample["errors"].append(traceback.format_exc())
        return sample
    finally:
        UNIT_POOL.high_water = max(pool_high_water, UNIT_POOL.high_water)
        probe.remove()

    # The event loop ends where the final snapshot starts; what follows
    # it (the final emitted record, on churn-observed) is in run_s only.
    resets = probe.calls["metrics.reset"]
    snap_start, snap_end = probe.calls["metrics.snapshot"][-1]
    reset_s = sum(end - start for start, end in resets)
    loop_s = (snap_start - t1) - reset_s
    loop_start = resets[-1][1] if resets else t1
    tasks = sum(s.completed + s.aborted for s in result.per_class.values())
    sample.update(
        setup_s=t1 - t0,
        run_s=t2 - t0,
        loop_s=loop_s,
        reset_s=reset_s,
        tasks_per_s=tasks / (snap_start - loop_start),
        events=sim.env._seq_peek(),
        retries=result.retries,
        misroutes=result.misroutes,
        snapshots_s=[snap_end - snap_start],
    )
    if targets is not None:
        sample["spans"] = after
        sample["engine_self_s"] = loop_s - sum(
            after[key][1] - at_run[key][1] for key in layers.SPAN_KEYS
        )
    try:
        _check(name, config, sim, result, emit, sample)
    except Exception:
        sample["errors"].append(traceback.format_exc())
    return sample


def _check(name: str, config, sim, result, emit, sample: dict) -> None:
    """Digest and check one run's output, then time its extra snapshots
    (``workloads.EXTRA_SNAPSHOTS``)."""
    record = json.dumps(
        result.to_dict(aggregate_nodes=workloads.aggregate_nodes(config)),
        sort_keys=True,
    )
    sample["digest"] = hashlib.sha256(record.encode()).hexdigest()
    sample["errors"] += workloads.check_result(name, config, result)
    if emit is not None:
        sample["emission_bytes"] = os.path.getsize(emit.path)
        sample["errors"] += workloads.check_emission(emit.path, record)
    for _ in range(workloads.EXTRA_SNAPSHOTS[name]):
        sim.env.run(until=sim.env.now + workloads.SNAPSHOT_STEP)
        start = perf_counter()
        sim.metrics.snapshot(sim.env.now)
        sample["snapshots_s"].append(perf_counter() - start)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args(argv)
    os.makedirs(args.tmp, exist_ok=True)
    emit_path = os.path.join(args.tmp, f"emit-{os.getpid()}.jsonl")
    name, seed = args.workload, args.seed

    targets = None
    if args.trace:
        classes = layers.package_classes()
        targets = layers.span_targets(classes)
        layers.check_coverage(classes, targets)

    seeds = run_seeds(seed)
    warmup = _one_run(name, next(seeds), emit_path)
    timed = []
    started = perf_counter()
    while args.seconds > 0 and (len(timed) < MIN_RUNS or
                                perf_counter() - started < args.seconds):
        run_seed = next(seeds)
        if targets is None:
            timed.append(_one_run(name, run_seed, emit_path))
        else:
            # A traced and an untraced run of the same seed, alternating
            # which goes first, so the overhead ratio sees the same
            # machine and the two results can be compared.
            traced_first = len(timed) % 4 == 2
            for traced in (traced_first, not traced_first):
                timed.append(_one_run(name, run_seed, emit_path,
                                      targets if traced else None))
    if os.path.exists(emit_path):
        os.remove(emit_path)

    from repro.sim.core import KERNEL

    out = {
        "meta": {
            "host": platform.node(),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "kernel": KERNEL,
            "workload": name,
            "seed": seed,
        },
        "warmup": warmup,
        "runs": timed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
