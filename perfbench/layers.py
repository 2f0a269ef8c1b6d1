"""Per-layer attribution: class-level span wrappers on each layer's public
entry points, and the coverage guard.

A span records calls and *self* time: its duration minus the time of
traced spans nested inside it.  Wrappers go on the classes, not on
instances, and must be installed before ``Simulation(config)``: the
sources, nodes and the process manager bind these methods once at
construction.  They make no random draws and consume no event sequence
numbers, so a traced run's result is bit-identical to an untraced one.

Two timers (not spans) always run, traced or not: the metrics
collector's ``reset`` and ``snapshot``.  They split ``run()`` into the
event loop, the warm-up reset and the final snapshot at a cost of two
calls per run (a few more with emission, whose interval snapshots stay
inside ``emission.interval``'s self time).
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from time import perf_counter

#: Spans: (metric prefix, module, root class, method names).  Every class
#: in the package that is a subclass of the root and defines one of the
#: methods itself is wrapped.  A call re-entering the same span through
#: ``super()`` is folded into the outer call.
SPANS = (
    ("node.submit", "repro.system.node", "Node", ("submit_nowait",)),
    ("workload.build", "repro.system.workload", "GlobalTaskFactory",
     ("build",)),
    ("placement.pick", "repro.system.placement", "PlacementPolicy",
     ("pick_one", "pick_distinct")),
    ("manager.submit", "repro.system.process_manager", "ProcessManager",
     ("submit_nowait",)),
    ("strategy.deadline", "repro.core.strategies.combined",
     "DeadlineAssigner", ("serial_deadline", "parallel_deadline")),
    ("metrics.record", "repro.system.metrics", "MetricsCollector",
     ("record_unit_completion", "record_global_completion")),
    ("sketch.observe", "repro.sim.sketch", "QuantileSketch", ("observe",)),
    ("faults.transition", "repro.system.node", "Node", ("crash", "recover")),
    ("detector.mark", "repro.system.detector", "SuspicionView",
     ("mark_suspected", "mark_trusted")),
    ("live.indices", "repro.system.faults", "LiveSet", ("live_indices",)),
    ("live.indices", "repro.system.detector", "SuspicionView",
     ("live_indices",)),
    ("emission.interval", "repro.system.emission", "MetricsEmitter",
     ("emit_interval",)),
    ("build.nodes", "repro.system.node", "Node", ("__init__",)),
)

SPAN_KEYS = tuple(dict.fromkeys(key for key, _, _, _ in SPANS))

#: Classes that define a traced method name but are not that layer's
#: entry point, with the reason.  Any other unwrapped definition fails
#: the coverage guard, so a refactor cannot silently move time into
#: ``engine.self_s``.
EXEMPT = {
    "repro.sim.monitor.MeanTally.observe":
        "running-mean tally updated inside metrics.record",
    "repro.sim.monitor.Tally.observe":
        "Welford tally of the monitor toolkit; its time lands in its caller",
    "repro.sim.monitor.DecayedMean.observe":
        "windowed signal updated inside metrics.record and emission",
}

#: Timers: (name, module, class, method).
TIMERS = (
    ("metrics.reset", "repro.system.metrics", "MetricsCollector", "reset"),
    ("metrics.snapshot", "repro.system.metrics", "MetricsCollector",
     "snapshot"),
)


class CoverageError(RuntimeError):
    """A traced method name is defined by a class no span wraps, or a
    wrapped attribute was not restored."""


class _Stat:
    __slots__ = ("calls", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0


def package_classes() -> list:
    """Every class defined in a module of the ``repro`` package."""
    import repro

    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]
    classes = []
    for module in modules:
        for value in vars(module).values():
            if inspect.isclass(value) and value.__module__ == module.__name__:
                classes.append(value)
    return classes


def _resolve(module: str, name: str):
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError) as exc:
        raise CoverageError(
            f"span root {module}.{name} is gone ({exc}); move the span "
            f"to the layer's new entry point"
        ) from None


def span_targets(classes: list) -> list:
    """(key, class, method) for every method the spans wrap."""
    targets = []
    for key, module, root_name, methods in SPANS:
        root = _resolve(module, root_name)
        for cls in classes:
            if not issubclass(cls, root):
                continue
            for method in methods:
                if method in cls.__dict__:
                    targets.append((key, cls, method))
    return targets


def check_coverage(classes: list, targets: list) -> None:
    """Fail loudly if a package class defines a traced method name that
    no span wraps and :data:`EXEMPT` does not excuse."""
    wrapped = {(cls, method) for _, cls, method in targets}
    names = {m for _, _, _, methods in SPANS for m in methods} - {"__init__"}
    missing = []
    for cls in classes:
        for method in sorted(names & set(cls.__dict__)):
            qualified = f"{cls.__module__}.{cls.__qualname__}.{method}"
            if (cls, method) not in wrapped and qualified not in EXEMPT:
                missing.append(qualified)
    if missing:
        raise CoverageError(
            "unwrapped definitions of traced methods (add a span or an "
            "EXEMPT entry with its reason): " + ", ".join(missing)
        )


class Probe:
    """Installs the timers, and the span wrappers of ``targets``, as
    class attributes; :meth:`remove` restores and verifies every one."""

    def __init__(self, targets: list = ()) -> None:
        self.stats = {key: _Stat() for key in SPAN_KEYS}
        #: Per timer, the (start, end) of every call.
        self.calls = {name: [] for name, _, _, _ in TIMERS}
        self._frames: list = []
        self._saved: list = []
        for name, module, cls_name, method in TIMERS:
            cls = _resolve(module, cls_name)
            self._patch(cls, method, self._timer(
                getattr(cls, method), self.calls[name]))
        for key, cls, method in targets:
            self._patch(cls, method, self._span(
                cls.__dict__[method], self.stats[key]))

    def _patch(self, cls, method: str, wrapper) -> None:
        self._saved.append((cls, method, cls.__dict__.get(method)))
        setattr(cls, method, wrapper)

    @staticmethod
    def _timer(fn, calls: list):
        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                calls.append((start, perf_counter()))
        return timed

    def _span(self, fn, stat: _Stat):
        frames = self._frames

        def span(*args, **kwargs):
            if frames and frames[-1][0] is stat:
                return fn(*args, **kwargs)
            frame = [stat, 0.0]
            frames.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                frames.pop()
                stat.calls += 1
                stat.self_s += elapsed - frame[1]
                if frames:
                    frames[-1][1] += elapsed
        return span

    def totals(self) -> dict:
        """Current (calls, self seconds) of every span key."""
        return {key: (s.calls, s.self_s) for key, s in self.stats.items()}

    def remove(self) -> None:
        """Restore every patched attribute, then check that it is back."""
        saved, self._saved = self._saved, []
        for cls, method, original in reversed(saved):
            if original is None:
                delattr(cls, method)
            else:
                setattr(cls, method, original)
        for cls, method, original in saved:
            if cls.__dict__.get(method) is not original:
                raise CoverageError(
                    f"{cls.__qualname__}.{method} not restored after the "
                    f"traced run"
                )
