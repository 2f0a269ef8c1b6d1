"""Discrete-event simulation kernel (the paper's DeNet substitute).

Public surface:

* :class:`Environment`, :class:`Event`, :class:`Timeout`, :class:`Process`,
  :class:`AllOf`, :class:`AnyOf` -- the event/process machinery;
* :class:`StreamFactory` -- reproducible named random streams;
* the distribution classes in :mod:`repro.sim.distributions`;
* :class:`MeanTally`, :class:`Tally`, :class:`TimeWeighted` -- monitors;
* the exception hierarchy in :mod:`repro.sim.errors`.
"""

from .core import AllOf, AnyOf, Condition, ConditionValue, Environment, Event, Timeout
from .distributions import (
    Choice,
    Deterministic,
    DiscreteUniform,
    Distribution,
    Erlang,
    Exponential,
    LognormalErrorFactor,
    Uniform,
    UniformErrorFactor,
    exponential_interarrival,
)
from .errors import (
    EventLifecycleError,
    Interrupt,
    ProcessError,
    SimulationError,
    StopSimulation,
)
from .monitor import MeanTally, Tally, TimeWeighted
from .process import Process
from .rng import StreamFactory

__all__ = [
    "AllOf",
    "AnyOf",
    "Choice",
    "Condition",
    "ConditionValue",
    "Deterministic",
    "DiscreteUniform",
    "Distribution",
    "Environment",
    "Erlang",
    "Event",
    "EventLifecycleError",
    "Exponential",
    "Interrupt",
    "LognormalErrorFactor",
    "MeanTally",
    "Process",
    "ProcessError",
    "SimulationError",
    "StopSimulation",
    "StreamFactory",
    "Tally",
    "TimeWeighted",
    "Timeout",
    "Uniform",
    "UniformErrorFactor",
    "exponential_interarrival",
]
