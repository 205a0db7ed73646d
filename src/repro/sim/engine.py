"""Discrete-event simulation kernel (generator-process model).

The design follows the classic simpy architecture:

* an :class:`Environment` owns a virtual clock and a priority queue of
  scheduled events;
* an :class:`Event` is a one-shot object that moves from *pending* to
  *triggered* to *processed*; callbacks attached to it run when the clock
  reaches its scheduled time;
* a :class:`Process` wraps a Python generator.  The generator ``yield``\\ s
  events; the process suspends until the yielded event fires, then resumes
  with the event's value.  A process is itself an event (it triggers when
  the generator returns), so processes can wait on each other;
* :class:`Timeout` is an event scheduled ``delay`` time units in the future;
* :class:`AnyOf` / :class:`AllOf` are composite events over several others.

Determinism: events scheduled for the same instant fire in scheduling order
(a monotone sequence number breaks ties), so simulations are exactly
reproducible -- a property the tests assert.
"""

from __future__ import annotations

import heapq
import itertools
import traceback
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional

from repro.errors import SimulationError
from repro.obs import metrics as obs_metrics
from repro.obs.trace import SimClock, tracer as obs_tracer

#: Handler exceptions (process steps and served mailbox handlers) converted
#: into event failures, labelled by exception class.  Counting them keeps
#: "a handler died" observable even when every waiter handles the failure
#: silently.
_M_HANDLER_ERRORS = obs_metrics.registry().counter(
    "engine.handler_error",
    "process-step exceptions converted into event failures",
)

#: Generators driving a :class:`Process` yield events and receive their values.
ProcessGenerator = Generator["Event", Any, Any]


def handler_failed(event: "Event", exc: Exception, name: str) -> None:
    """Fail ``event`` with ``exc``, an exception a DES handler raised.

    The one accounting path of both kinds of handler -- a :class:`Process`
    step (which fails the process itself) and a served mailbox handler
    (which fails a fresh event, see :meth:`repro.sim.channels.Mailbox.serve`).
    The exception object keeps its ``__traceback__``, so whoever waits on
    ``event`` re-raises with the original frames, and a failed event nobody
    waits for raises out of :meth:`Environment.step` at the same instant;
    the counter + trace event make the failure visible even if a waiter
    swallows it.
    """
    _M_HANDLER_ERRORS.inc(kind=type(exc).__name__)
    trace = obs_tracer()
    if trace.enabled:
        trace.event(  # span-less by design (ORPHAN_EVENTS in tests/test_source_rules.py)
            "engine.handler_error",
            clock=SimClock(event.env),
            process=name,
            kind=type(exc).__name__,
            message=str(exc),
            traceback="".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            ),
        )
    event.fail(exc)


class Event:
    """A one-shot occurrence that callbacks and processes can wait on.

    Life cycle: *pending* -> ``succeed``/``fail`` (triggered, enqueued on the
    environment) -> *processed* (callbacks ran at the trigger time).
    Triggering twice is an error; waiting on a processed event resumes the
    waiter immediately at the current simulation time.
    """

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._scheduled = False

    # -- state --------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """Whether ``succeed``/``fail`` was called."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """Whether the callbacks have already run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        if self._ok is None:
            raise SimulationError("event has no value before it is triggered")
        return self._value

    # -- triggering -----------------------------------------------------------

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger successfully; callbacks run after ``delay`` time units."""
        self._trigger(True, value, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger as failed; waiting processes see ``exception`` raised."""
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        self._trigger(False, exception, delay)
        return self

    def _trigger(self, ok: bool, value: Any, delay: float) -> None:
        if self._ok is not None:
            raise SimulationError("event already triggered")
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._ok = ok
        self._value = value
        self.env._schedule(self, delay)
        self._scheduled = True

    # -- waiting ---------------------------------------------------------------

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` once the event fires.

        Adding a callback to an already-processed event schedules it to run
        immediately (at the current simulation time), preserving the
        invariant that callbacks never run synchronously inside the caller.
        """
        if self.callbacks is None:
            immediate = Event(self.env)
            immediate.callbacks.append(lambda _e: callback(self))
            immediate.succeed()
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "pending"
        if self.processed:
            state = "processed"
        elif self.triggered:
            state = "triggered"
        return f"<{type(self).__name__} {state} at t={self.env.now:g}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        super().__init__(env)
        self.delay = delay
        self.succeed(value, delay=delay)


class Interrupt(Exception):
    """Raised inside a process that another process interrupted."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """A generator-driven simulated activity.

    The wrapped generator yields :class:`Event` objects.  Each yield
    suspends the process until that event triggers; the event's value is
    sent back into the generator (or its exception thrown, for failed
    events).  When the generator returns, the process event succeeds with
    the returned value.
    """

    def __init__(self, env: "Environment", generator: ProcessGenerator) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"Process needs a generator, got {type(generator).__name__}"
            )
        super().__init__(env)
        self._generator = generator
        # Kick off at the current instant, but asynchronously.
        bootstrap = Event(env)
        self._waiting_on: Optional[Event] = bootstrap
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed()

    @property
    def is_alive(self) -> bool:
        return self._ok is None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise SimulationError("cannot interrupt a finished process")
        poke = Event(self.env)
        poke.callbacks.append(lambda _e: self._throw_now(Interrupt(cause)))
        poke.succeed()

    def _throw_now(self, exc: BaseException) -> None:
        if not self.is_alive:
            return  # finished in the meantime; interrupt becomes a no-op
        self._waiting_on = None
        self._step(lambda: self._generator.throw(exc))

    def _resume(self, event: Event) -> None:
        if not self.is_alive:
            return
        if event is not self._waiting_on:
            return  # stale wake-up from an event we no longer wait on
        self._waiting_on = None
        if event.ok:
            self._step(lambda: self._generator.send(event.value))
        else:
            self._step(lambda: self._generator.throw(event.value))

    def _step(self, advance: Callable[[], Any]) -> None:
        try:
            target = advance()
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt:
            raise SimulationError(
                "process let an Interrupt escape; handle it or re-raise as "
                "a normal exception"
            )
        except Exception as exc:  # handler_failed counts it (SILENT_EXCEPTS)
            handler_failed(self, exc, getattr(self._generator, "__name__", "process"))
            return
        if not isinstance(target, Event):
            self.fail(
                SimulationError(
                    f"process yielded {target!r}; processes must yield events"
                )
            )
            return
        if target.env is not self.env:
            self.fail(SimulationError("process yielded an event from another environment"))
            return
        self._waiting_on = target
        target.add_callback(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        name = getattr(self._generator, "__name__", "process")
        return f"<Process {name} alive={self.is_alive}>"


class _Condition(Event):
    """Base for AnyOf/AllOf composite events."""

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._pending = 0
        for event in self._events:
            if event.env is not env:
                raise SimulationError("cannot combine events from different environments")
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            self._pending += 1
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError

    def _collect(self) -> Dict[int, Any]:
        # ``processed`` (not ``triggered``): a Timeout is triggered the
        # moment it is created, but it has only *happened* once its
        # callbacks ran at its scheduled instant.
        return {
            i: e.value
            for i, e in enumerate(self._events)
            if e.processed and e.ok
        }


class AnyOf(_Condition):
    """Triggers when the first of its child events does."""

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
        else:
            self.succeed(self._collect())


class AllOf(_Condition):
    """Triggers when all child events have; value maps index -> child value."""

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._collect())


class Environment:
    """The event loop: virtual clock + deterministic priority queue."""

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = initial_time
        self._queue: List[Any] = []
        self._counter = itertools.count()

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    # -- factories ------------------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator) -> Process:
        return Process(self, generator)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling -------------------------------------------------------------

    def _schedule(self, event: Event, delay: float) -> None:
        heapq.heappush(self._queue, (self._now + delay, next(self._counter), event))

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf when the queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        if not self._queue:
            raise SimulationError("no scheduled events to step through")
        time, _, event = heapq.heappop(self._queue)
        if time < self._now:
            raise SimulationError(f"time went backwards: {time} < {self._now}")
        self._now = time
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks or ():
            callback(event)
        if not event.ok and not callbacks:
            # A failed event nobody waited for would silently vanish.
            raise event.value

    def run(self, until: Optional[Any] = None) -> Any:
        """Run the simulation.

        Args:
            until: ``None`` -> run until no events remain; a number -> run
                until the clock reaches it; an :class:`Event` -> run until it
                triggers, returning its value (or raising its exception).
        """
        if isinstance(until, Event):
            stop = until
            while not stop.processed:
                if not self._queue:
                    raise SimulationError(
                        "simulation ran out of events before the awaited event fired"
                    )
                self.step()
            if not stop.ok:
                raise stop.value
            return stop.value
        if until is not None:
            deadline = float(until)
            if deadline < self._now:
                raise SimulationError(f"until={deadline} lies in the past")
            while self._queue and self._queue[0][0] <= deadline:
                self.step()
            self._now = max(self._now, deadline)
            return None
        while self._queue:
            self.step()
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Environment(now={self._now:g}, pending={len(self._queue)})"
