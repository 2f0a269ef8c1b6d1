"""Incremental metric emission: a JSONL time series of a live run.

ROADMAP item 5's billion-event horizons make "wait for the final
``RunResult``" useless as an observability story: a run that takes hours
must be watchable (and post-mortem-able) *while it runs*.  This module
emits a JSONL time series of interval records from inside the sliced run
loop (:meth:`repro.system.simulation.Simulation.run` with ``emit=``):
each record carries the cumulative :class:`~repro.system.metrics.RunResult`
so far plus the time-decayed :class:`~repro.system.metrics.WindowedSignals`
snapshot ("what is the system doing now").

Determinism: emission is *observation only*.  Interval records are cut
at slice boundaries of the run loop -- the same seq-free mechanism the
horizon sentinel and checkpoint triggers use -- and writing a record
reads metric state without mutating it, draws no random numbers, and
consumes no event sequence numbers.  Emission on/off is therefore
invisible to the golden determinism gate (pinned in
``tests/system/test_golden_determinism.py``).

File format (one JSON object per line, torn tail tolerated):

1. a ``header`` record (magic, version, engine kernel, seed, config);
2. ``interval`` records at each trigger firing during the measured
   phase: ``now``, kernel ``events`` so far, ``cumulative`` (the
   ``RunResult.to_dict()`` of a mid-run snapshot), ``window``;
3. one ``final`` record whose ``cumulative`` equals the returned
   ``RunResult.to_dict()`` exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..checkpoint import CheckpointError, JsonlAppender, read_jsonl
from ..sim.core import KERNEL
from .metrics import (
    DEFAULT_WINDOW_TAU,
    PER_NODE_DETAIL_THRESHOLD,
    RunResult,
)

#: First record's magic field in every metrics series file.
METRICS_MAGIC = "repro-metrics"
METRICS_VERSION = 1


@dataclass(frozen=True)
class EmissionPolicy:
    """When and where a run emits interval metric records.

    Shares the trigger attributes (``every_events``/``every_seconds``)
    with :class:`~repro.checkpoint.CheckpointPolicy`, so the same
    slice-boundary :class:`~repro.checkpoint._Trigger` bookkeeping
    drives both.  At least one trigger must be set.  ``tau`` is the
    decay window (sim-time units) for the windowed signals attached for
    the run.
    """

    path: str
    every_events: int = 0
    every_seconds: float = 0.0
    tau: float = DEFAULT_WINDOW_TAU

    def __post_init__(self) -> None:
        if self.every_events < 0:
            raise ValueError(
                f"every_events must be >= 0, got {self.every_events}"
            )
        if self.every_seconds < 0:
            raise ValueError(
                f"every_seconds must be >= 0, got {self.every_seconds}"
            )
        if self.every_events == 0 and self.every_seconds == 0:
            raise ValueError(
                "emission policy needs at least one trigger: set "
                "every_events and/or every_seconds"
            )
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")


class MetricsEmitter:
    """Writes the JSONL series for one run (see module docstring).

    Constructed by the run loop; not part of the simulation object
    graph, so checkpoints never capture it -- a restored run passes a
    fresh ``emit=`` policy and the series continues in a new file.
    """

    def __init__(self, policy: EmissionPolicy, simulation: Any) -> None:
        self.policy = policy
        self.simulation = simulation
        self.intervals = 0
        #: Fleet-size runs aggregate per-node detail into the bounded
        #: ``node_summary`` form, so interval records stay O(1) in the
        #: node count; below the threshold every record keeps the exact
        #: historical per-node lists (pinned byte-identical by CI).
        self._aggregate_nodes = (
            simulation.config.node_count > PER_NODE_DETAIL_THRESHOLD
        )
        self._appender = JsonlAppender(policy.path)
        self._window = simulation.metrics.enable_windows(
            tau=policy.tau, now=simulation.env.now
        )
        self._appender.write(
            {
                "type": "header",
                "magic": METRICS_MAGIC,
                "version": METRICS_VERSION,
                "kernel": KERNEL,
                "seed": simulation.config.seed,
                "config": simulation.config.describe(),
            }
        )

    def _record(self, kind: str, cumulative: Dict[str, Any]) -> None:
        simulation = self.simulation
        now = simulation.env.now
        self._appender.write(
            {
                "type": kind,
                "interval": self.intervals,
                "now": now,
                "events": simulation.env._seq_peek(),
                "cumulative": cumulative,
                "window": self._window.snapshot(now),
            }
        )

    def emit_interval(self) -> None:
        """Write one mid-run interval record (cumulative-so-far view)."""
        simulation = self.simulation
        self.intervals += 1
        snapshot = simulation.metrics.snapshot(simulation.env.now)
        self._record(
            "interval", snapshot.to_dict(aggregate_nodes=self._aggregate_nodes)
        )

    def emit_final(self, result: RunResult) -> None:
        """Write the closing record; its ``cumulative`` is exactly
        ``result.to_dict()`` of the run's returned :class:`RunResult`
        (aggregated-nodes form above the per-node detail threshold)."""
        self._record(
            "final", result.to_dict(aggregate_nodes=self._aggregate_nodes)
        )
        self._appender.close()


def read_metrics_series(
    path: Any, on_torn: Optional[Callable[[str], None]] = None
) -> List[Dict[str, Any]]:
    """Load an emitted series, validating the header record.

    Tolerates a torn trailing line (the writer crashed mid-record),
    reporting it through ``on_torn`` when given; an invalid or missing
    header raises :class:`CheckpointError`.
    """
    records = read_jsonl(path, on_torn=on_torn)
    if not records or records[0].get("magic") != METRICS_MAGIC:
        raise CheckpointError(f"{path}: not a repro metrics series")
    version = records[0].get("version")
    if version != METRICS_VERSION:
        raise CheckpointError(
            f"{path}: metrics series version {version} is not supported "
            f"(this build reads version {METRICS_VERSION})"
        )
    return records


def _fmt(value: Optional[float]) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "-"
    return f"{value:.4f}"


def render_series_tail(
    records: List[Dict[str, Any]], last: int = 10
) -> str:
    """Render the last ``last`` interval/final records as an aligned table."""
    rows = [r for r in records if r.get("type") in ("interval", "final")]
    rows = rows[-last:] if last > 0 else rows
    header = [
        "now", "events", "MD_local", "MD_global",
        "p99_resp", "win_miss_l", "win_miss_g",
    ]
    table = [header]
    for record in rows:
        cumulative = record.get("cumulative", {})
        result = RunResult.from_dict(cumulative) if cumulative else None
        window = record.get("window") or {}
        per_class = window.get("per_class", {})
        table.append(
            [
                f"{record.get('now', 0.0):.1f}",
                str(record.get("events", "-")),
                _fmt(result.md_local) if result else "-",
                _fmt(result.md_global) if result else "-",
                _fmt(result.global_.p99_response) if result else "-",
                _fmt(per_class.get("local", {}).get("miss_rate")),
                _fmt(per_class.get("global", {}).get("miss_rate")),
            ]
        )
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        for row in table
    )


def summarize_series(records: List[Dict[str, Any]]) -> str:
    """One-paragraph summary of an emitted series (for ``metrics summarize``)."""
    header = records[0]
    intervals = [r for r in records if r.get("type") == "interval"]
    finals = [r for r in records if r.get("type") == "final"]
    lines = [
        f"series: seed={header.get('seed')} kernel={header.get('kernel')}",
        f"config: {header.get('config')}",
        f"records: {len(intervals)} interval(s), {len(finals)} final",
    ]
    closing = finals[-1] if finals else (intervals[-1] if intervals else None)
    if closing is not None:
        result = RunResult.from_dict(closing["cumulative"])
        status = "final" if closing["type"] == "final" else "latest (run incomplete)"
        lines.append(
            f"{status}: now={closing['now']:.1f} events={closing['events']} "
            f"MD_local={_fmt(result.md_local)} MD_global={_fmt(result.md_global)} "
            f"p99_response(global)={_fmt(result.global_.p99_response)} "
            f"p99_lateness(global)={_fmt(result.global_.p99_lateness)}"
        )
    return "\n".join(lines)
