"""Unit tests for metrics collection (repro.system.metrics)."""

from __future__ import annotations

import json
import math
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.task import TaskClass
from repro.core.timing import TimingRecord
from repro.system.metrics import (
    ClassStats,
    MetricsCollector,
    NodeStats,
    NodeTable,
    RunResult,
)
from repro.system.work import WorkUnit


def finished_unit(env, task_class=TaskClass.LOCAL, ar=0.0, ex=1.0, dl=5.0,
                  started=1.0, completed=2.0, aborted=False):
    timing = TimingRecord(ar=ar, ex=ex, dl=dl)
    timing.started_at = started
    timing.completed_at = None if aborted else completed
    timing.aborted = aborted
    return WorkUnit(env=env, name="u", task_class=task_class,
                    node_index=0, timing=timing)


class TestClassStats:
    def test_miss_ratio(self):
        stats = ClassStats(completed=8, missed=2, aborted=2,
                           mean_response=1.0, mean_lateness=0.0, mean_waiting=0.0)
        assert stats.miss_ratio == 0.2  # 2 / (8 + 2)

    def test_miss_ratio_empty_is_nan(self):
        stats = ClassStats(completed=0, missed=0, aborted=0,
                           mean_response=math.nan, mean_lateness=math.nan,
                           mean_waiting=math.nan)
        assert math.isnan(stats.miss_ratio)


class TestUnitRecording:
    def test_met_deadline(self, env):
        collector = MetricsCollector(node_count=1)
        collector.record_unit_completion(finished_unit(env, completed=2.0, dl=5.0))
        stats = collector.snapshot(10.0).local
        assert stats.completed == 1
        assert stats.missed == 0
        assert stats.mean_response == pytest.approx(2.0)
        assert stats.mean_lateness == pytest.approx(-3.0)
        assert stats.mean_waiting == pytest.approx(1.0)

    def test_missed_deadline(self, env):
        collector = MetricsCollector(node_count=1)
        collector.record_unit_completion(finished_unit(env, completed=9.0, dl=5.0))
        stats = collector.snapshot(10.0).local
        assert stats.missed == 1

    def test_aborted_unit(self, env):
        collector = MetricsCollector(node_count=1)
        collector.record_unit_completion(finished_unit(env, aborted=True))
        stats = collector.snapshot(10.0).local
        assert stats.aborted == 1
        assert stats.missed == 1
        assert stats.completed == 0

    def test_global_units_ignored(self, env):
        collector = MetricsCollector(node_count=1)
        collector.record_unit_completion(
            finished_unit(env, task_class=TaskClass.GLOBAL)
        )
        snapshot = collector.snapshot(10.0)
        assert snapshot.local.completed == 0
        assert snapshot.global_.completed == 0


class TestGlobalRecording:
    def test_met(self):
        collector = MetricsCollector(node_count=1)
        collector.record_global_completion(
            timing_missed=False, aborted=False, response_time=4.0, lateness=-1.0
        )
        stats = collector.snapshot(10.0).global_
        assert stats.completed == 1
        assert stats.missed == 0
        assert stats.mean_response == pytest.approx(4.0)

    def test_missed(self):
        collector = MetricsCollector(node_count=1)
        collector.record_global_completion(
            timing_missed=True, aborted=False, response_time=9.0, lateness=2.0
        )
        stats = collector.snapshot(10.0).global_
        assert stats.missed == 1
        assert stats.miss_ratio == 1.0

    def test_aborted(self):
        collector = MetricsCollector(node_count=1)
        collector.record_global_completion(
            timing_missed=True, aborted=True, response_time=0.0, lateness=0.0
        )
        stats = collector.snapshot(10.0).global_
        assert stats.aborted == 1
        assert stats.missed == 1
        assert stats.completed == 0


class TestWarmupReset:
    def test_reset_discards_counts(self, env):
        collector = MetricsCollector(node_count=2)
        collector.record_unit_completion(finished_unit(env))
        collector.node_busy[0].update(1, now=0.0)
        collector.reset(now=100.0)
        snapshot = collector.snapshot(200.0)
        assert snapshot.local.completed == 0
        assert snapshot.warmup == 100.0
        # Busy signal keeps its current value but restarts integration.
        assert snapshot.per_node[0].utilization == pytest.approx(1.0)

    def test_dispatch_counters_reset(self, env):
        collector = MetricsCollector(node_count=1)
        collector.count_dispatch(0)
        collector.reset(now=10.0)
        assert collector.snapshot(20.0).per_node[0].dispatched == 0


class TestRunResult:
    def test_md_properties(self, env):
        collector = MetricsCollector(node_count=1)
        collector.record_unit_completion(finished_unit(env, completed=9.0, dl=5.0))
        collector.record_global_completion(
            timing_missed=False, aborted=False, response_time=1.0, lateness=-1.0
        )
        result = collector.snapshot(10.0)
        assert result.md_local == 1.0
        assert result.md_global == 0.0
        assert result.sim_time == 10.0

    def test_mean_utilization_averages_nodes(self, env):
        collector = MetricsCollector(node_count=2)
        collector.node_busy[0].update(1, now=0.0)   # busy whole window
        # node 1 stays idle
        result = collector.snapshot(10.0)
        assert result.mean_utilization == pytest.approx(0.5)


class TestStreamingPercentiles:
    """ClassStats p50/p95/p99 from the inline P² sketches."""

    def test_percentiles_track_completions(self, env):
        collector = MetricsCollector(node_count=1)
        for i in range(1, 101):
            collector.record_unit_completion(
                finished_unit(env, ar=0.0, completed=float(i), dl=50.0),
                now=float(i),
            )
        stats = collector.snapshot(200.0).local
        # Responses are exactly 1..100: small-n P² stays close to exact.
        assert abs(stats.p50_response - 50.0) <= 5.0
        assert abs(stats.p95_response - 95.0) <= 5.0
        assert stats.p50_response <= stats.p95_response <= stats.p99_response
        # Lateness is response - 50 shifted.
        assert abs(stats.p50_lateness - 0.0) <= 5.0

    def test_empty_percentiles_are_nan_and_snapshots_compare_equal(self):
        collector = MetricsCollector(node_count=1)
        a = collector.snapshot(1.0)
        b = collector.snapshot(1.0)
        assert math.isnan(a.local.p99_response)
        # The nan singleton keeps dataclass equality working.
        assert a == b

    def test_warmup_reset_clears_sketches(self, env):
        collector = MetricsCollector(node_count=1)
        collector.record_unit_completion(finished_unit(env), now=2.0)
        collector.reset(5.0)
        assert math.isnan(collector.snapshot(10.0).local.p50_response)


class TestFromDictTolerance:
    """Journals written before a field existed must stay loadable."""

    #: A faithful result record from the PR-7-era journal format (before
    #: the percentile fields landed): ClassStats had through "failed",
    #: NodeStats through "downtime", RunResult through "retries".
    PR7_RECORD = {
        "sim_time": 2500.0,
        "warmup": 250.0,
        "per_class": {
            "local": {
                "completed": 5136, "missed": 1204, "aborted": 0,
                "mean_response": 1.783879225470131,
                "mean_lateness": -0.581420252394006,
                "mean_waiting": 0.7793337698086901,
                "failed": 0,
            },
            "global": {
                "completed": 402, "missed": 163, "aborted": 0,
                "mean_response": 8.579486447843847,
                "mean_lateness": -0.9237181639001631,
                "mean_waiting": float("nan"),
                "failed": 0,
            },
        },
        "per_node": [
            {
                "index": 0, "utilization": 0.5153333521237488,
                "mean_queue_length": 0.4392931486126085,
                "dispatched": 1155, "preemptions": 0, "crashes": 0,
                "lost": 0, "downtime": 0.0,
            },
        ],
        "retries": 0,
    }

    def test_pr7_era_record_loads_with_nan_percentiles(self):
        from repro.system.metrics import RunResult

        result = RunResult.from_dict(self.PR7_RECORD)
        assert result.local.completed == 5136
        assert result.local.failed == 0
        assert math.isnan(result.local.p99_response)
        assert math.isnan(result.global_.p50_lateness)

    def test_pre_retries_record_loads(self):
        from repro.system.metrics import RunResult

        record = {k: v for k, v in self.PR7_RECORD.items() if k != "retries"}
        assert RunResult.from_dict(record).retries == 0

    def test_pre_fault_node_record_loads(self):
        from repro.system.metrics import NodeStats

        stats = NodeStats.from_dict({
            "index": 1, "utilization": 0.5,
            "mean_queue_length": 0.25, "dispatched": 10,
        })
        assert stats.preemptions == 0
        assert stats.crashes == 0
        assert stats.lost == 0
        assert stats.downtime == 0.0

    def test_pre_failed_class_record_loads(self):
        stats = ClassStats.from_dict({
            "completed": 5, "missed": 1, "aborted": 0,
            "mean_response": 1.0, "mean_lateness": -0.5,
            "mean_waiting": 0.25,
        })
        assert stats.failed == 0
        assert math.isnan(stats.p95_response)

    def test_unknown_future_keys_ignored(self):
        stats = ClassStats.from_dict({
            "completed": 5, "missed": 1, "aborted": 0,
            "mean_response": 1.0, "mean_lateness": -0.5,
            "mean_waiting": 0.25, "some_future_field": 123,
        })
        assert stats.completed == 5

    def test_round_trip_still_exact(self, env):
        from repro.system.metrics import RunResult

        collector = MetricsCollector(node_count=2)
        collector.record_unit_completion(finished_unit(env), now=2.0)
        result = collector.snapshot(10.0)
        assert RunResult.from_dict(result.to_dict()) == result


def _stats(index, utilization=0.5, downtime=0.0, **counters):
    return NodeStats(
        index=index, utilization=utilization, mean_queue_length=0.25,
        dispatched=counters.get("dispatched", index),
        preemptions=counters.get("preemptions", 0),
        crashes=counters.get("crashes", 0),
        lost=counters.get("lost", 0),
        downtime=downtime,
        suspicions=counters.get("suspicions", 0),
    )


class TestNodeTable:
    """RunResult.per_node is a columnar, immutable Sequence[NodeStats]."""

    STATS = [_stats(0, 0.1), _stats(1, 0.2, 0.5), _stats(2, math.nan)]

    @pytest.fixture
    def table(self):
        return NodeTable.from_stats(self.STATS)

    def test_indexing_builds_node_stats(self, table):
        assert len(table) == 3
        assert table[0] == self.STATS[0]
        assert table[1].downtime == 0.5
        assert table[-1] == self.STATS[-1]
        assert table[-3] == self.STATS[0]
        with pytest.raises(IndexError):
            table[3]
        with pytest.raises(IndexError):
            table[-4]

    def test_slicing_returns_a_list(self, table):
        assert table[1:] == self.STATS[1:]
        assert type(table[1:]) is list
        assert table[::-1] == self.STATS[::-1]
        assert table[5:] == []

    def test_iteration_and_sequence_mixins(self, table):
        assert list(table) == self.STATS
        assert list(reversed(table)) == self.STATS[::-1]
        assert self.STATS[1] in table
        assert table.index(self.STATS[2]) == 2

    def test_equality_with_tables_and_lists(self, table):
        assert table == NodeTable.from_stats(self.STATS)
        assert table == self.STATS
        assert self.STATS == table
        assert table == tuple(self.STATS)
        assert table != self.STATS[:2]
        assert table != [_stats(0, 0.1), _stats(1, 0.2, 0.5), _stats(2, 0.3)]
        assert table != "not a table"

    def test_is_immutable_and_unhashable(self, table):
        with pytest.raises(AttributeError):
            table.extra = 1
        with pytest.raises(TypeError):
            table[0] = self.STATS[0]
        with pytest.raises(TypeError):
            hash(table)
        assert table.column("utilization")[:2] == (0.1, 0.2)
        assert isinstance(table.column("dispatched"), tuple)

    def test_columns_must_line_up(self):
        with pytest.raises(TypeError, match="columns"):
            NodeTable((0,), (0.5,))
        with pytest.raises(ValueError, match="length"):
            NodeTable((0, 1), *[(0,)] * 8)

    def test_node_stats_are_slotted(self):
        assert not hasattr(self.STATS[0], "__dict__")

    def test_run_result_converts_lists(self):
        result = RunResult(
            sim_time=1.0, warmup=0.0, per_class={}, per_node=self.STATS
        )
        assert isinstance(result.per_node, NodeTable)
        assert result.per_node == self.STATS
        empty = RunResult(sim_time=1.0, warmup=0.0, per_class={}, per_node=[])
        assert isinstance(empty.per_node, NodeTable)
        assert len(empty.per_node) == 0
        assert not empty.per_node
        assert math.isnan(empty.mean_utilization)

    def test_snapshot_is_a_table(self, env):
        collector = MetricsCollector(node_count=3)
        collector.node_busy[1].update(1, now=0.0)
        collector.node_dispatched[2] += 4
        per_node = collector.snapshot(10.0).per_node
        assert isinstance(per_node, NodeTable)
        assert [n.index for n in per_node] == [0, 1, 2]
        assert per_node[1].utilization == 1.0
        assert per_node[2].dispatched == 4
        # The counters were copied: later increments do not show.
        collector.node_dispatched[2] += 1
        assert per_node[2].dispatched == 4

    @pytest.mark.parametrize("aggregate_nodes", [False, True])
    def test_dict_round_trip(self, env, aggregate_nodes):
        collector = MetricsCollector(node_count=4)
        collector.node_busy[0].update(1, now=0.0)
        collector.record_unit_completion(finished_unit(env), now=2.0)
        result = collector.snapshot(10.0)
        record = json.loads(json.dumps(result.to_dict(aggregate_nodes)))
        loaded = RunResult.from_dict(record)
        assert isinstance(loaded.per_node, NodeTable)
        assert loaded.to_dict(aggregate_nodes) == record
        if aggregate_nodes:
            assert len(loaded.per_node) == 0
            assert loaded.node_summary == RunResult._summarize_nodes(
                result.per_node
            )
            assert loaded.mean_utilization == result.mean_utilization
        else:
            assert loaded.per_node == result.per_node
            assert loaded.node_summary is None

    def test_pickles(self, table):
        loaded = pickle.loads(pickle.dumps(table))
        assert isinstance(loaded, NodeTable)
        # repr, not ==: the unpickled nan is a new object, and nan
        # fields compare equal only by identity (as NodeStats lists do).
        assert repr(loaded) == repr(table)


def _old_aggregates(per_node):
    """The per-object generator sums the columnar code replaced."""
    count = len(per_node)
    total = 0.0
    for n in per_node:
        uptime = 1.0 - n.downtime
        total += n.utilization / uptime if uptime > 0.0 else 0.0
    summary = {"count": 0}
    if count:
        util_sum = 0.0
        util_min = math.inf
        util_max = -math.inf
        active_sum = 0.0
        queue_sum = 0.0
        downtime_sum = 0.0
        dispatched = preemptions = crashes = lost = suspicions = 0
        for n in per_node:
            util = n.utilization
            util_sum += util
            if util < util_min:
                util_min = util
            if util > util_max:
                util_max = util
            uptime = 1.0 - n.downtime
            active_sum += util / uptime if uptime > 0.0 else 0.0
            queue_sum += n.mean_queue_length
            downtime_sum += n.downtime
            dispatched += n.dispatched
            preemptions += n.preemptions
            crashes += n.crashes
            lost += n.lost
            suspicions += n.suspicions
        summary = {
            "count": count,
            "utilization_mean": util_sum / count,
            "utilization_min": util_min,
            "utilization_max": util_max,
            "active_utilization_mean": active_sum / count,
            "queue_length_mean": queue_sum / count,
            "downtime_mean": downtime_sum / count,
            "dispatched": dispatched,
            "preemptions": preemptions,
            "crashes": crashes,
            "lost": lost,
            "suspicions": suspicions,
        }
    return {
        "mean_utilization": (
            sum(n.utilization for n in per_node) / count if count
            else math.nan
        ),
        "mean_active_utilization": total / count if count else math.nan,
        "mean_availability": (
            1.0 - sum(n.downtime for n in per_node) / count if count
            else math.nan
        ),
        "total_preemptions": sum(n.preemptions for n in per_node),
        "total_crashes": sum(n.crashes for n in per_node),
        "total_lost": sum(n.lost for n in per_node),
        "total_suspicions": sum(n.suspicions for n in per_node),
        "summary": summary,
    }


_signal = st.one_of(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.just(math.nan),
    st.floats(allow_nan=True, allow_infinity=True),
)
_counter = st.integers(min_value=0, max_value=10**12)
_node_stats = st.lists(
    st.builds(
        NodeStats,
        index=st.integers(0, 10**6),
        utilization=_signal,
        mean_queue_length=_signal,
        dispatched=_counter,
        preemptions=_counter,
        crashes=_counter,
        lost=_counter,
        downtime=st.one_of(st.floats(0.0, 1.0), st.just(math.nan)),
        suspicions=_counter,
    ),
    max_size=40,
)


@given(_node_stats)
def test_columnar_aggregates_are_bit_identical(stats):
    result = RunResult(sim_time=1.0, warmup=0.0, per_class={}, per_node=stats)
    new = {
        name: getattr(result, name)
        for name in (
            "mean_utilization", "mean_active_utilization",
            "mean_availability", "total_preemptions", "total_crashes",
            "total_lost", "total_suspicions",
        )
    }
    new["summary"] = RunResult._summarize_nodes(result.per_node)
    # repr tells every double apart (signed zeros and infinities too).
    assert repr(new) == repr(_old_aggregates(stats))
