"""The simulator's benchmark: host cost of whole seeded runs, end to end
and split by layer.

One operation is one whole run of a seeded workload: ``Simulation(config)``
plus ``run()`` (warm-up, reset, measured phase, final snapshot).  Each
invocation measures one workload in a fresh worker process
(``worker.py``) for ``--seconds``, checks every run's output, and prints
as its last line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer ones, taken
from traced runs interleaved with untraced ones (``layers.py``).

A run fails if it raises, breaks a model invariant (``workloads.py``),
differs from the digest pinned in ``pins.json`` (at the default seed)
or from the process's other runs of the same seed -- traced runs
included, since tracing must not change a result.

Usage, from the repository root::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 2 --seconds 10 --trace 1
    python3 perfbench/run.py --workload table1 --against HEAD~1

``--against REF`` is the A/B mode: it checks REF out in a temporary git
worktree, runs this same benchmark code on that tree's ``src/`` and on
this one's in :data:`PAIRS` interleaved pairs (alternating which side
goes first), and reports each side's median and quartiles and the share
of pairs this tree won.  Both sides must load the same engine kernel
(``meta.kernel``): a compiled ``_engine_c`` built in one tree only is
git-ignored, so the other tree would run pure Python.  ``--repin``
rewrites ``pins.json`` from checked default-seed results.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
#: Scratch space for emitted series and A/B worktrees (git-ignored).
TMP = ROOT / ".perfbench"
#: Wall-clock limit of one invocation on one workload.
LIMIT_S = 170.0
#: Interleaved pairs of one A/B comparison: the fewest a gain claim may
#: rest on.
PAIRS = 10
#: The worker's ``meta`` entries that describe the machine and the
#: engine, which both sides of an A/B report.
HOST_KEYS = ("host", "cpu_count", "python", "kernel")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (no result is printed)."""


def _git(*args: str) -> str:
    done = subprocess.run(
        ["git", "-C", str(ROOT), *args], capture_output=True, text=True
    )
    if done.returncode != 0:
        raise BenchError(f"git {' '.join(args)}: {done.stderr.strip()}")
    return done.stdout.strip()


def _commit() -> str:
    try:
        return _git("rev-parse", "HEAD")
    except (BenchError, OSError):
        return "unknown"


def run_worker(src: Path, name: str, seed: int, seconds: float,
               trace: int) -> dict:
    """One worker process; returns its samples."""
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"no package at {src / 'repro'}; run from a "
                         f"checkout of the repository")
    env = dict(os.environ, PYTHONPATH=str(src))
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace), "--tmp", str(TMP)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=LIMIT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: worker exceeded {LIMIT_S:.0f} s") from None
    if done.returncode != 0:
        raise BenchError(f"{name}: worker exited {done.returncode}")
    return json.loads(done.stdout)


def failures(name: str, seed: int, data: dict, pins: dict) -> list:
    """(run index, reason) for every failed run; the warm-up is run 0.

    Runs of one seed must agree digest for digest (traced runs too, since
    tracing must not change a result), and at the default seed with the
    digest pinned in ``pins.json``.
    """
    references = {}
    if seed == workloads.DEFAULT_SEED and name in pins:
        references[seed] = pins[name]
    found = []
    for index, sample in enumerate([data["warmup"]] + data["runs"]):
        for error in sample["errors"]:
            found.append((index, error.strip().splitlines()[-1]))
        digest = sample.get("digest")
        if digest is None:
            continue
        reference = references.setdefault(sample["seed"], digest)
        if digest != reference:
            kind = "traced " if sample["traced"] else ""
            found.append((index, f"{kind}result digest {digest[:12]} of "
                                 f"seed {sample['seed']} != reference "
                                 f"{str(reference)[:12]}"))
    return found


def _timed(data: dict) -> list:
    return [s for s in data["runs"] if "run_s" in s and not s["traced"]]


def samples(data: dict) -> dict:
    """Every end-to-end sample of the untraced runs, by metric (peak
    memory is one per process)."""
    runs = _timed(data)
    return {
        "run_s": [s["run_s"] for s in runs],
        "setup_s": [s["setup_s"] for s in runs],
        "tasks_per_s": [s["tasks_per_s"] for s in runs],
        "snapshot_s": [t for s in runs for t in s["snapshots_s"]],
        "peak_rss_mb": [data["peak_rss_mb"]],
    }


def end_to_end(data: dict) -> dict:
    """Medians of the untraced runs."""
    return {key: statistics.median(values)
            for key, values in samples(data).items()}


def tail(values: list, lower_is_better: bool):
    """The percentile deepest into the worse tail that still has at
    least ten samples beyond it, as (label, value); ``None`` when that
    is no further out than the median."""
    depth = int(100 * (1 - 10 / len(values)))
    if depth <= 50:
        return None
    cuts = statistics.quantiles(values, n=100)
    if lower_is_better:
        return f"p{depth}", cuts[depth - 1]
    return f"p{100 - depth}", cuts[99 - depth]


def per_layer(data: dict) -> dict:
    """Per-layer metrics of the traced runs (medians of times; counts are
    deterministic and read from the first traced run)."""
    med = statistics.median
    traced = [s for s in data["runs"] if "run_s" in s and s["traced"]]
    untraced = _timed(data)
    if not traced:
        raise BenchError("no traced run completed")
    first = traced[0]
    values = {
        "engine.events": first["events"],
        "engine.self_s": med(s["engine_self_s"] for s in traced),
        "engine.us_per_event":
            med(s["loop_s"] / s["events"] for s in untraced) * 1e6,
        "manager.retries": first["retries"],
        "manager.misroutes": first["misroutes"],
        "metrics.reset_s": med(s["reset_s"] for s in traced),
        "emission.bytes": first.get("emission_bytes", 0),
        "unit_pool.high_water": first["unit_pool_high_water"],
        "trace.overhead_ratio":
            med(s["run_s"] for s in traced) / med(s["run_s"] for s in untraced),
    }
    for key in layers.SPAN_KEYS:
        self_s = med(s["spans"][key][1] for s in traced)
        if key == "build.nodes":
            values["build.nodes.calls"] = first["spans"][key][0]
            values["build.nodes_s"] = self_s
            values["build.other_s"] = med(
                s["setup_s"] - s["spans"][key][1] for s in traced)
        else:
            values[f"{key}.calls"] = first["spans"][key][0]
            values[f"{key}.self_s"] = self_s
    submits = values["node.submit.calls"]
    values["unit_pool.reuse_ratio"] = (
        1.0 - values["unit_pool.high_water"] / submits if submits else 0.0)
    return values


def layer_table(data: dict, values: dict) -> list:
    """The per-layer self-time table: each layer's calls, self seconds
    and share of the median traced run."""
    traced = [s for s in data["runs"] if "run_s" in s and s["traced"]]
    run_s = statistics.median(s["run_s"] for s in traced)
    rows = [("build.nodes", values["build.nodes.calls"],
             values["build.nodes_s"]),
            ("build.other", None, values["build.other_s"]),
            ("engine (loop self)", values["engine.events"],
             values["engine.self_s"])]
    rows += [(key, values[f"{key}.calls"], values[f"{key}.self_s"])
             for key in layers.SPAN_KEYS if key != "build.nodes"]
    rows += [("metrics.reset", None, values["metrics.reset_s"]),
             ("metrics.snapshot (final)", None,
              statistics.median(s["snapshots_s"][0] for s in traced))]
    lines = [f"{'layer':<28}{'calls':>10}{'self s':>11}{'share':>8}"]
    for label, calls, seconds in rows:
        count = "-" if calls is None else str(calls)
        lines.append(f"{label:<28}{count:>10}{seconds:>11.4f}"
                     f"{seconds / run_s:>8.1%}")
    lines.append(f"median traced run {run_s:.3f} s, "
                 f"{values['trace.overhead_ratio']:.2f}x the untraced run")
    return lines


def _metrics(spec: list, values: dict) -> dict:
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not computed: {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec}


def measure(bench: dict, name: str, seed: int, seconds: float, trace: int,
            pins: dict) -> dict:
    """One workload: run the worker, check its runs, print the report;
    returns the result object."""
    data = run_worker(ROOT / "src", name, seed, seconds, trace)
    meta = dict(data["meta"], commit=_commit())
    print(json.dumps({"meta": meta}))
    failed = failures(name, seed, data, pins)
    for index, reason in failed:
        print(f"{name}: run {index} failed: {reason}", file=sys.stderr)
    if not _timed(data):
        raise BenchError(f"{name}: no run completed")
    if trace:
        spec, values = bench["per_layer"], per_layer(data)
        for line in layer_table(data, values):
            print(line)
    else:
        spec, values = bench["end_to_end"], end_to_end(data)
    metrics = _metrics(spec, values)
    spread = {} if trace else samples(data)
    for m in spec:
        line = (f"{name:<16}{m['name']:<28}{values[m['name']]:>16.6g} "
                f"{m['unit']}")
        if m["name"] in spread:
            runs = spread[m["name"]]
            worse = tail(runs, m["better"] == "lower")
            if worse is not None:
                line += f"  (median; {worse[0]} {worse[1]:.6g})"
            line += f"  n={len(runs)}"
        print(line)
    attempted = 1 + len(data["runs"])
    bad = len({index for index, _ in failed})
    return {"correct": bad == 0, "attempted": attempted, "failed": bad,
            "metrics": metrics}


def _quartiles(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3}


def against(bench: dict, names: list, ref: str, seed: int, seconds: float,
            pins: dict) -> dict:
    """Interleaved A/B of this tree against ``ref`` (see module doc)."""
    sha = _git("rev-parse", "--verify", f"{ref}^{{commit}}")
    tree = TMP / f"ab-{sha[:12]}"
    TMP.mkdir(exist_ok=True)
    _git("worktree", "add", "--detach", str(tree), sha)
    srcs = {"base": tree / "src", "head": ROOT / "src"}
    metas: dict = {}
    report = {"against": sha, "commit": _commit(), "pairs": PAIRS,
              "seed": seed, "meta": metas, "workloads": {}}
    try:
        for name in names:
            medians = {"base": [], "head": []}
            failed = {"base": 0, "head": 0}
            for i in range(PAIRS):
                for side in (("base", "head") if i % 2 == 0
                             else ("head", "base")):
                    data = run_worker(srcs[side], name, seed, seconds, 0)
                    meta = {key: data["meta"][key] for key in HOST_KEYS}
                    if side not in metas:
                        metas[side] = meta
                        print(json.dumps({"meta": {side: meta}}))
                    kernels = {m["kernel"] for m in metas.values()}
                    if kernels != {meta["kernel"]}:
                        raise BenchError(
                            f"base and head load different engine kernels "
                            f"({', '.join(sorted(kernels | {meta['kernel']}))}"
                            f"); build the same one in both trees or set "
                            f"REPRO_KERNEL")
                    failed[side] += len({index for index, _ in
                                         failures(name, seed, data, pins)})
                    if not _timed(data):
                        raise BenchError(f"{name}: no {side} run completed")
                    medians[side].append(end_to_end(data))
            rows = {}
            for metric in bench["end_to_end"]:
                key, lower = metric["name"], metric["better"] == "lower"
                base = [m[key] for m in medians["base"]]
                head = [m[key] for m in medians["head"]]
                wins = sum((h < b) if lower else (h > b)
                           for b, h in zip(base, head) if h != b)
                rows[key] = {"unit": metric["unit"],
                             "base": _quartiles(base),
                             "head": _quartiles(head),
                             "head_wins": wins / PAIRS}
                print(f"{name:<16}{key:<14}base {rows[key]['base']['median']:.6g}"
                      f" head {rows[key]['head']['median']:.6g} {metric['unit']}"
                      f"  head won {wins}/{PAIRS}")
            print(f"{name:<16}failed runs: base {failed['base']}, "
                  f"head {failed['head']}")
            report["workloads"][name] = {"metrics": rows, "failed": failed}
    finally:
        _git("worktree", "remove", "--force", str(tree))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--against", metavar="GIT_REF")
    parser.add_argument("--repin", action="store_true")
    args = parser.parse_args(argv)
    names = list(workloads.NAMES) if args.workload == "all" else [args.workload]
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        pins = json.loads(PINS.read_text())
        seconds = (bench["run_seconds"] if args.seconds is None
                   else args.seconds)
        if args.repin:
            # --seconds 0: the worker makes the warm-up run only.
            for name in names:
                data = run_worker(ROOT / "src", name,
                                  workloads.DEFAULT_SEED, 0, 0)
                failed = failures(name, workloads.DEFAULT_SEED, data, {})
                if failed:
                    raise BenchError(
                        f"{name}: not repinned, its run failed: "
                        + "; ".join(reason for _, reason in failed))
                pins[name] = data["warmup"]["digest"]
            PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
            print(json.dumps(pins))
            return 0
        if args.against:
            result = against(bench, names, args.against, args.seed,
                             seconds, pins)
        else:
            results = [measure(bench, name, args.seed, seconds, args.trace,
                               pins) for name in names]
            if len(results) == 1:
                result = results[0]
            else:
                result = {
                    "correct": all(r["correct"] for r in results),
                    "attempted": sum(r["attempted"] for r in results),
                    "failed": sum(r["failed"] for r in results),
                    "metrics": {f"{name}/{metric}": entry
                                for name, r in zip(names, results)
                                for metric, entry in r["metrics"].items()},
                }
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
