"""Discrete-event simulation kernel.

A small, fully tested DES kernel in the SimPy style, for driving code in
virtual time so a schedule of timeouts and waits replays exactly and runs
in no wall time:

* :class:`~repro.sim.core.Simulator` — event loop over a heap of timestamped
  events, generator-coroutine processes, ``timeout``/``wait`` primitives.
* :mod:`~repro.sim.resources` — bounded :class:`Store` (a queue with an
  HWM) and counted :class:`Resource` (threads, NIC streams).
* :mod:`~repro.sim.rng` — named, independently seeded RNG streams so
  simulated components draw reproducible randomness without global state.
"""

from repro.sim.core import Event, Interrupt, Process, Simulator
from repro.sim.resources import Resource, Store
from repro.sim.rng import RngStreams

__all__ = [
    "Event",
    "Interrupt",
    "Process",
    "Simulator",
    "Resource",
    "Store",
    "RngStreams",
]
