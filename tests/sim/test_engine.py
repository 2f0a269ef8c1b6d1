"""Engine contract tests for :mod:`repro.sim._engine`.

The first half pins the event-ordering contract of the engine module
itself; the second half pins :meth:`Environment.step` as the faithful
reference implementation of the inlined run loop: a manually stepped,
traced simulation must match ``run()`` event for event and metric for
metric.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.sim import _engine as engine
from repro.sim.errors import EventLifecycleError, SimulationError


class TestEventOrdering:
    def test_time_order(self):
        env = engine.Environment()
        order = []
        for delay in (5.0, 1.0, 3.0, 2.0, 4.0):
            env.timeout(delay, value=delay).callbacks.append(
                lambda e: order.append(e.value)
            )
        env.run()
        assert order == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_fifo_among_simultaneous(self):
        env = engine.Environment()
        order = []
        for tag in "abcde":
            env.timeout(1.0, value=tag).callbacks.append(
                lambda e: order.append(e.value)
            )
        env.run()
        assert order == list("abcde")

    def test_urgent_calls_run_before_normal_events_at_same_time(self):
        """An urgent ``_schedule_call`` issued while dispatching an event
        must run before every already-scheduled normal event at the same
        timestamp -- the deque bypass must be order-equivalent to the old
        ``(time, URGENT, seq)`` heap entries."""
        env = engine.Environment()
        order = []
        first = env.timeout(1.0)
        env.timeout(1.0, value="normal-later").callbacks.append(
            lambda e: order.append(e.value)
        )

        def schedule_urgent(_event):
            env._schedule_call(lambda e: order.append("urgent"))

        first.callbacks.append(schedule_urgent)
        env.run()
        assert order == ["urgent", "normal-later"]

    def test_urgent_calls_are_fifo(self):
        env = engine.Environment()
        order = []
        env._schedule_call(lambda e: order.append(1))
        env._schedule_call(lambda e: order.append(2))
        env._schedule_call(lambda e: order.append(3))
        env.run()
        assert order == [1, 2, 3]

    def test_normal_schedule_call_keeps_heap_fifo(self):
        """NORMAL-priority calls interleave with other normal events by
        schedule order (they consume sequence keys)."""
        env = engine.Environment()
        order = []
        env.timeout(0.0, value="t1").callbacks.append(
            lambda e: order.append(e.value)
        )
        env._schedule_call(
            lambda e: order.append("call"), priority=engine.NORMAL
        )
        env.timeout(0.0, value="t2").callbacks.append(
            lambda e: order.append(e.value)
        )
        env.run()
        assert order == ["t1", "call", "t2"]

    def test_run_until_horizon(self):
        env = engine.Environment()
        fired = []
        env.timeout(20.0).callbacks.append(lambda e: fired.append(env.now))
        env.run(until=10.0)
        assert fired == []
        assert env.now == 10.0
        env.run(until=30.0)
        assert fired == [20.0]
        assert env.now == 30.0

    def test_event_at_horizon_instant_runs(self):
        env = engine.Environment()
        fired = []
        env.timeout(10.0).callbacks.append(lambda e: fired.append(env.now))
        env.run(until=10.0)
        assert fired == [10.0]

    def test_run_until_event(self):
        env = engine.Environment()
        event = env.timeout(4.0, value="done")
        assert env.run(until=event) == "done"
        assert env.now == 4.0

    def test_user_stop_inside_timed_run_withdraws_horizon(self):
        """A StopSimulation raised by user code during ``run(until=t)``
        must not leave the horizon sentinel behind: a later run past
        ``t`` keeps going."""
        from repro.sim.errors import StopSimulation

        env = engine.Environment()

        def stopper(_event):
            raise StopSimulation("early")

        env.timeout(1.0).callbacks.append(stopper)
        fired = []
        env.timeout(5.0).callbacks.append(lambda e: fired.append(env.now))
        assert env.run(until=10.0) == "early"
        env.run(until=20.0)
        assert fired == [5.0]
        assert env.now == 20.0

    def test_sleep_pooling_and_cancel(self):
        env = engine.Environment()
        fired = []
        sleep = env._sleep(2.0, lambda e: fired.append(env.now))
        env.run(until=3.0)
        assert fired == [2.0]
        assert sleep in env._sleep_pool
        with pytest.raises(EventLifecycleError):
            sleep.cancel()
        again = env._sleep(1.0, lambda e: fired.append(env.now))
        assert again is sleep
        again.cancel()
        env.run(until=5.0)
        assert fired == [2.0]
        assert sleep in env._sleep_pool

    def test_peek_and_step(self):
        env = engine.Environment()
        assert env.peek() == float("inf")
        env.timeout(9.0)
        env.timeout(2.0)
        assert env.peek() == 2.0
        env.step()
        assert env.now == 2.0
        env._schedule_call(lambda e: None)
        assert env.peek() == env.now  # urgent call is due immediately
        env.step()
        env.step()
        assert env.now == 9.0
        with pytest.raises(SimulationError):
            env.step()

    def test_run_until_pooled_sleep_is_rejected(self):
        """A pooled sleep is recycled at expiry, so waiting on one is
        always a bug -- the kernel fails loudly instead of returning
        instantly (pending sleeps carry no callback list)."""
        env = engine.Environment()
        sleep = env._sleep(5.0, lambda e: None)
        with pytest.raises(SimulationError, match="pooled kernel sleep"):
            env.run(until=sleep)

    def test_condition_over_pooled_sleep_is_rejected(self):
        env = engine.Environment()
        sleep = env._sleep(5.0, lambda e: None)
        with pytest.raises(SimulationError, match="pooled kernel sleep"):
            env.all_of([sleep, env.timeout(1.0)])

    def test_process_yielding_pooled_sleep_fails_loudly(self):
        from repro.sim.errors import ProcessError

        env = engine.Environment()
        failures = []

        def sleeper(env):
            try:
                yield env._sleep(5.0, lambda e: None)
            except ProcessError as exc:
                failures.append(exc)

        env.process(sleeper(env))
        env.run()
        assert len(failures) == 1
        assert "pooled kernel sleep" in str(failures[0])

    def test_failed_event_crashes_unless_defused(self):
        env = engine.Environment()
        env.event().fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            env.run()
        env2 = engine.Environment()
        env2.event().fail(RuntimeError("ok")).defuse()
        env2.run()


@pytest.mark.parametrize("value", ["compiled", "no-such-kernel"])
def test_stale_kernel_variable_does_not_break_import(value):
    """``REPRO_KERNEL`` once chose between this engine and a compiled
    twin (``compiled`` raised ImportError without a build, an unknown
    value raised SimulationError); a value left in a user's shell or CI
    config must now be ignored."""
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, REPRO_KERNEL=value)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH", "")) if p
    )
    output = subprocess.run(
        [sys.executable, "-c",
         "import repro, repro.sim.core; print(repro.sim.core.KERNEL)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert output.strip() == "python"


def test_core_reexports_the_engine_objects():
    """``repro.sim.core`` and the ``repro.sim`` package hand out the
    engine's own classes, not wrappers or copies."""
    import repro.sim
    from repro.sim import core

    for name in ("Environment", "Event", "Timeout", "NORMAL", "URGENT"):
        assert getattr(core, name) is getattr(engine, name)
    for name in ("Environment", "Event", "Timeout"):
        assert getattr(repro.sim, name) is getattr(engine, name)
    assert core.KERNEL == "python"


class TestStepMatchesRunLoop:
    """``Environment.step()`` is the reference implementation of one run
    loop iteration; a stepped, traced simulation must reproduce the
    inlined loop event for event (same trace) and bit for bit (same
    RunResult)."""

    CONFIGS = [
        dict(seed=42),
        dict(seed=13, preemptive=True, strategy="EQF"),
    ]

    @pytest.mark.parametrize("overrides", CONFIGS)
    def test_stepped_equals_run(self, overrides):
        from repro.system.config import baseline_config
        from repro.system.simulation import Simulation

        config = baseline_config(
            sim_time=600.0, warmup_time=60.0, trace=True, **overrides
        )

        reference = Simulation(config)
        reference_result = reference.run()

        stepped = Simulation(config)
        env = stepped.env
        for horizon, at_end in (
            (config.warmup_time, stepped.metrics.reset),
            (config.sim_time, None),
        ):
            while env.peek() <= horizon:
                env.step()
            if env.now < horizon:
                env._now = horizon  # run(until=t) advances the clock too
            if at_end is not None:
                at_end(env.now)
        stepped_result = stepped.metrics.snapshot(env.now)

        def key(event):
            # Everything but unit_name: the lazy display name embeds the
            # process-global unit id, which keeps counting across the two
            # back-to-back simulations (the ordering-relevant identity --
            # time, kind, node, class, deadline -- is all here).
            return (
                event.time, event.kind, event.node_index,
                event.task_class, event.deadline,
            )

        assert (
            [key(e) for e in stepped.trace_log.events]
            == [key(e) for e in reference.trace_log.events]
        )
        assert stepped_result == reference_result