"""A small discrete-event simulation kernel.

The paper evaluates sFlow with "event-driven simulation methodology"; the
reproduction hint suggests simpy, which is not available offline, so this
package implements the subset we need from scratch (see DESIGN.md,
"Substitutions"):

* :class:`~repro.sim.engine.Environment` -- the event loop: virtual clock,
  event scheduling, ``run(until=...)``.
* :class:`~repro.sim.engine.Event` / :class:`~repro.sim.engine.Timeout` --
  one-shot triggerable events.
* :class:`~repro.sim.engine.Process` -- generator-based coroutines that
  ``yield`` events to wait on them (the simpy programming model); the
  session drivers (timers, watchdogs, supervised sends) are processes.
* :class:`~repro.sim.channels.Mailbox` -- a FIFO message queue with blocking
  receive, the primitive under every simulated protocol endpoint.  An
  endpoint is not a process: :meth:`~repro.sim.channels.Mailbox.serve`
  calls its handler once per envelope, in the slot a process looping on
  ``get()`` would have resumed in, so the two order events identically and
  an idle endpoint costs no event at all.
* :class:`~repro.sim.channels.MessageNetwork` -- point-to-point delivery with
  per-message latency and counters (messages, bytes, hops), which carries
  the ``sfederate`` traffic of the distributed sFlow algorithm.
"""

from repro.sim.engine import AnyOf, AllOf, Environment, Event, Interrupt, Process, Timeout
from repro.sim.channels import Mailbox, MessageNetwork, Envelope

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Envelope",
    "Event",
    "Interrupt",
    "Mailbox",
    "MessageNetwork",
    "Process",
    "Timeout",
]
