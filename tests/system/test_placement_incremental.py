"""Property tests of the incremental least-outstanding placement state.

``LeastOutstandingPlacement`` replaces the O(n) per-decision rescan with
sorted member lists maintained from the node outstanding hooks.  These
tests drive random interleavings of submit / time-advance / crash /
recover against real nodes (both the non-preemptive and preemptive
kinds, under every crash-semantics variant; on 8 nodes and on a
300-node fleet) and assert two invariants after every step:

* *count consistency*: the incrementally maintained outstanding counts
  equal a from-scratch recompute over the nodes (queue length + one if
  serving) and the fleet signal arrays;
* *decision equivalence*: ``pick_one``/``pick_distinct`` return exactly
  what the historical argmin-rescan implementation returns when run
  against a cloned tie-break stream, consuming exactly the same draws
  (stream states must match afterwards -- the draw trajectory is what
  the golden determinism gate pins).

Decision equivalence is also checked under a detector's
``SuspicionView``, whose trust flips move no count, both with random
flips and over every decision of a whole ``paranoid-detector`` run.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.task import TaskClass
from repro.core.timing import fast_timing
from repro.sim.core import Environment
from repro.sim.rng import StreamFactory
from repro.system.detector import SuspicionView
from repro.system.faults import LiveSet
from repro.system.metrics import MetricsCollector
from repro.system.node import Node
from repro.system.placement import LeastOutstandingPlacement
from repro.system.preemptive import PreemptiveNode
from repro.system.schedulers import EarliestDeadlineFirst
from repro.system.work import WorkUnit

NODE_COUNT = 8
#: Large enough that the idle-node (count-0) selection bisects over the
#: busy nodes in several steps.
WIDE_NODE_COUNT = 300


def _ops(node_count, extra=()):
    """One step of the interleaving.  Time advances are coarse fixed
    deltas: the point is event-order diversity, not float torture."""
    node = st.integers(0, node_count - 1)
    return st.one_of(
        st.tuples(st.just("submit"), node),
        st.tuples(st.just("advance"), st.sampled_from([0.1, 0.7, 1.9, 4.0])),
        st.tuples(st.just("crash"), node),
        st.tuples(st.just("recover"), node),
        st.tuples(st.just("pick_one"), st.just(0)),
        st.tuples(st.just("pick_distinct"), st.integers(1, min(node_count, 24))),
        *(st.tuples(st.just(op), node) for op in extra),
    )


ops = _ops(NODE_COUNT)


def _reference_pick(placement, outstanding, excluded, rng):
    """The historical argmin-rescan decision (pre-refactor code)."""

    def argmins(values, skip):
        best = None
        ties = []
        for i, v in enumerate(values):
            if i in skip:
                continue
            if best is None or v < best:
                best = v
                ties = [i]
            elif v == best:
                ties.append(i)
        return ties

    live = placement.live
    if live is not None and live.live_count > 0:
        down_excluded = set(excluded) | {
            i for i in range(len(placement.nodes)) if i not in live
        }
        ties = argmins(outstanding, down_excluded)
        if not ties:
            ties = argmins(outstanding, excluded)
    else:
        ties = argmins(outstanding, excluded)
    if len(ties) == 1:
        return ties[0]
    return ties[rng.randrange(len(ties))]


def _clone(stream) -> random.Random:
    clone = random.Random()
    clone.setstate(stream.getstate())
    return clone


def _unit(env, node_index, now):
    timing = fast_timing(ar=now, ex=1.5, pex=1.5, dl=now + 50.0)
    return WorkUnit(env, None, TaskClass.LOCAL, node_index, timing)


def _check_counts(placement, metrics):
    recomputed = placement._outstanding()
    assert placement._counts == recomputed
    fleet = metrics.fleet
    for i in range(len(recomputed)):
        assert recomputed[i] == int(
            fleet.queue_value[i] + fleet.busy_value[i]
        )


def _build(node_cls, node_count, seed, lose_in_flight=False,
           drop_queued=False):
    env = Environment()
    metrics = MetricsCollector(node_count)
    policy = EarliestDeadlineFirst()
    nodes = [
        node_cls(env=env, index=i, policy=policy, metrics=metrics)
        for i in range(node_count)
    ]
    for node in nodes:
        node.configure_fault_semantics(lose_in_flight, drop_queued)
    placement = LeastOutstandingPlacement(nodes, StreamFactory(seed=seed))
    return env, metrics, nodes, placement


def _check_decision(placement, op, arg):
    """Run one decision against the argmin-rescan reference on a cloned
    tie-break stream: same picks, same draws."""
    outstanding = placement._outstanding()
    clone = _clone(placement._stream)
    if op == "pick_one":
        expected = _reference_pick(placement, outstanding, set(), clone)
        assert placement.pick_one() == expected
    else:
        expected = []
        excluded: set = set()
        for _ in range(arg):
            pick = _reference_pick(placement, outstanding, excluded, clone)
            excluded.add(pick)
            expected.append(pick)
        assert placement.pick_distinct(arg) == expected
    assert placement._stream.getstate() == clone.getstate()


def _drive(node_cls, node_count, lose_in_flight, drop_queued, steps):
    """Replay ``steps`` against nodes watched by a ``LiveSet`` (the fault
    injector's oracle view), checking counts after every step and every
    decision against the rescan, then drain."""
    env, metrics, nodes, placement = _build(
        node_cls, node_count, 17, lose_in_flight, drop_queued
    )
    live = LiveSet(node_count)
    placement.attach_live_set(live)

    for op, arg in steps:
        if op == "submit":
            nodes[arg].submit_nowait(_unit(env, arg, env.now))
        elif op == "burst":
            # Busy nodes spread over the whole index range.
            for index in range(arg % 7, node_count, 7):
                nodes[index].submit_nowait(_unit(env, index, env.now))
        elif op == "advance":
            env.run(until=env.now + arg)
        elif op == "crash":
            # Mirror the fault injector's order: the live set flips
            # before the node callback runs.
            if arg in live:
                live.mark_down(arg)
                nodes[arg].crash()
        elif op == "recover":
            if arg not in live:
                live.mark_up(arg)
                nodes[arg].recover()
        else:
            _check_decision(placement, op, arg)
        _check_counts(placement, metrics)

    # Drain everything still in flight: the incremental state must stay
    # consistent through the tail of completions too.
    for i in range(node_count):
        if i not in live:
            live.mark_up(i)
            nodes[i].recover()
            _check_counts(placement, metrics)
    env.run(until=env.now + 1_000.0)
    _check_counts(placement, metrics)
    assert placement._counts == [0] * node_count
    assert placement._active == [] and placement._members == {}


@pytest.mark.parametrize("node_cls", [Node, PreemptiveNode])
@pytest.mark.parametrize(
    "lose_in_flight,drop_queued",
    [(False, False), (True, False), (True, True)],
)
@settings(max_examples=40, deadline=None)
@given(steps=st.lists(ops, min_size=1, max_size=40))
def test_incremental_counts_and_decisions_match_rescan(
    node_cls, lose_in_flight, drop_queued, steps
):
    _drive(node_cls, NODE_COUNT, lose_in_flight, drop_queued, steps)


@settings(max_examples=20, deadline=None)
@given(steps=st.lists(ops, min_size=1, max_size=30))
def test_incremental_counts_without_live_set(steps):
    """Fault-oblivious configs (live never attached) stay consistent."""
    env, metrics, nodes, placement = _build(Node, NODE_COUNT, 23)
    for op, arg in steps:
        if op == "submit":
            nodes[arg].submit_nowait(_unit(env, arg, env.now))
        elif op == "advance":
            env.run(until=env.now + arg)
        elif op in ("pick_one", "pick_distinct"):
            _check_decision(placement, op, arg)
        # crash/recover ops are no-ops in the fault-oblivious variant
        _check_counts(placement, metrics)


@pytest.mark.parametrize("node_cls", [Node, PreemptiveNode])
@settings(max_examples=30, deadline=None)
@given(
    steps=st.lists(
        _ops(WIDE_NODE_COUNT, extra=("burst",)), min_size=1, max_size=40
    )
)
def test_incremental_counts_and_decisions_match_rescan_wide(
    node_cls, steps
):
    """The same replay on a wide fleet: idle picks bisect over many busy
    nodes, fans exclude idle nodes, and crashes leave idle nodes down."""
    _drive(node_cls, WIDE_NODE_COUNT, True, False, steps)


@settings(max_examples=100, deadline=None)
@given(
    loads=st.lists(
        st.integers(0, 3), min_size=NODE_COUNT, max_size=NODE_COUNT
    ),
    down=st.sets(st.integers(0, NODE_COUNT - 1)),
    fan=st.integers(1, NODE_COUNT),
)
def test_decisions_on_any_queue_state_match_rescan(loads, down, fan):
    """Arbitrary queue lengths and down sets, including fleets with no
    idle node: fans that skip several members of one busy count.  The
    policy is built over the already-busy nodes."""
    env, metrics, nodes, _ = _build(Node, NODE_COUNT, 31)
    for index, units in enumerate(loads):
        for _ in range(units):
            nodes[index].submit_nowait(_unit(env, index, env.now))
    live = LiveSet(NODE_COUNT)
    for index in down:
        live.mark_down(index)
    placement = LeastOutstandingPlacement(nodes, StreamFactory(seed=31))
    placement.attach_live_set(live)
    _check_counts(placement, metrics)
    _check_decision(placement, "pick_distinct", fan)
    _check_decision(placement, "pick_one", 0)
    env.run(until=2.0)
    _check_counts(placement, metrics)
    _check_decision(placement, "pick_one", 0)


@pytest.mark.parametrize("node_cls", [Node, PreemptiveNode])
@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(
        _ops(NODE_COUNT, extra=("suspect", "trust")), min_size=1,
        max_size=40,
    )
)
def test_decisions_follow_suspicion_view_flips(node_cls, steps):
    """A detector's view flips trust without moving any count (and nodes
    crash without the view knowing): every decision must still avoid
    exactly the nodes suspected at that moment."""
    env, metrics, nodes, placement = _build(node_cls, NODE_COUNT, 29)
    view = SuspicionView(NODE_COUNT)
    placement.attach_live_set(view)
    for op, arg in steps:
        if op == "submit":
            nodes[arg].submit_nowait(_unit(env, arg, env.now))
        elif op == "advance":
            env.run(until=env.now + arg)
        elif op == "crash":
            if nodes[arg].up:
                nodes[arg].crash()
        elif op == "recover":
            if not nodes[arg].up:
                nodes[arg].recover()
        elif op == "suspect":
            view.mark_suspected(arg)
        elif op == "trust":
            view.mark_trusted(arg)
        else:
            _check_decision(placement, op, arg)
        _check_counts(placement, metrics)


def test_every_paranoid_detector_decision_matches_rescan(monkeypatch):
    """End to end: a falsely suspicious detector over a lossy channel
    flips trust all run long; every placement decision of the run must
    equal the rescan reference against the view as it stands."""
    from repro.scenarios import get_scenario
    from repro.system.simulation import Simulation

    pick_one = LeastOutstandingPlacement.pick_one
    pick_distinct = LeastOutstandingPlacement.pick_distinct
    decisions = []
    mismatches = []

    def check(placement, count, pick, one=False):
        outstanding = placement._outstanding()
        clone = _clone(placement._stream)
        expected = []
        for _ in range(count):
            expected.append(
                _reference_pick(placement, outstanding, set(expected), clone)
            )
        live = placement.live
        decisions.append(live.live_count < live.node_count)
        got = pick()
        if ([got] if one else got) != expected or (
            placement._stream.getstate() != clone.getstate()
        ):
            mismatches.append((placement.nodes[0].env.now, got, expected))
        return got

    def checked_one(self):
        return check(self, 1, lambda: pick_one(self), one=True)

    def checked_distinct(self, count):
        return check(self, count, lambda: pick_distinct(self, count))

    monkeypatch.setattr(LeastOutstandingPlacement, "pick_one", checked_one)
    monkeypatch.setattr(
        LeastOutstandingPlacement, "pick_distinct", checked_distinct
    )
    config = get_scenario("paranoid-detector").to_config(
        placement="least-outstanding", sim_time=3000.0, seed=5
    )
    Simulation(config).run()
    assert len(decisions) > 1000
    assert any(decisions), "the view never suspected a node at a decision"
    assert mismatches == []
