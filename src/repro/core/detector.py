"""Adaptive failure detection for gray failures (sim-time only).

Crash-stop failures (PR 1) are detected by *retry exhaustion*: a fixed
number of unacknowledged retransmissions declares the peer dead.  That
binary rule is exactly wrong for **gray** failures -- lossy, reordering
channels and straggler nodes make a healthy peer look silent for a while,
and a flat retry count either false-suspects the slow or waits forever on
the dead.  This module provides the three adaptive pieces the sFlow
runtime composes instead:

* :class:`PhiAccrualDetector` -- a phi-accrual-style failure detector
  (Hayashibara et al.): every peer's message inter-arrival times feed a
  sliding sample window, and suspicion is a *continuous* level
  ``phi = -log10(P(silence this long | history))`` rather than a boolean.
  A straggler with honest-but-slow heartbeats keeps phi low; a dead peer's
  phi grows without bound, crossing any threshold in time proportional to
  its own observed cadence.
* :class:`RetryPolicy` -- a bounded retry budget with exponential backoff
  and seeded jitter.  Every retry loop in the runtime draws its delays
  from one of these (``sflow-check`` rule SFL009 flags unbounded
  ``while True`` retry loops), so retry storms cannot synchronise and no
  sender retries forever.
* :class:`CircuitBreaker` -- per-peer quarantine.  Repeated send failures
  open the breaker: further traffic to the peer fails *fast* (no retry
  budget burned) until a sim-time cool-off expires, after which a single
  half-open probe decides between closing the circuit and re-opening it.

Everything is driven by explicit ``now`` arguments (the DES clock); no
component reads wall time or ambient randomness, so runs replay
bit-identically from a seed.
"""

from __future__ import annotations

import enum
import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Hashable, Iterator, List, Optional, Tuple

from repro.obs import metrics as obs_metrics

Peer = Hashable

#: Detection metrics (process-wide, resolved once at import).
_REGISTRY = obs_metrics.registry()
_M_HEARTBEATS = _REGISTRY.counter(
    "detector.heartbeats", "inter-arrival samples recorded"
)
_M_SUSPICIONS = _REGISTRY.counter(
    "detector.suspicions", "peers crossing the phi threshold"
)
_M_RECOVERIES = _REGISTRY.counter(
    "detector.recoveries", "suspected peers heard from again"
)
_H_PHI = _REGISTRY.histogram(
    "detector.phi", "phi level at suspicion time"
)
_M_BREAKER = _REGISTRY.counter(
    "detector.breaker.transitions", "circuit-breaker state transitions"
)
_M_RETRY_DELAYS = _REGISTRY.counter(
    "detector.retry.delays", "backoff delays drawn from jittered retry policies"
)


# ---------------------------------------------------------------------------
# phi-accrual failure detection
# ---------------------------------------------------------------------------


@dataclass
class DetectorConfig:
    """Tunables of the phi-accrual detector.

    Attributes:
        threshold: suspicion level at which a peer is declared suspect.
            phi = 1 means "1 in 10 healthy silences last this long";
            phi = 8 (the Cassandra default) means 1 in 10^8.
        window: sliding window of inter-arrival samples kept per peer.
        min_samples: below this many samples the detector stays silent
            (bootstrap) and falls back to ``bootstrap_interval``.
        bootstrap_interval: assumed mean inter-arrival before enough
            samples exist.
        min_stddev: floor on the sample standard deviation -- a perfectly
            regular heartbeat would otherwise make phi explode on the
            first microsecond of jitter.
    """

    threshold: float = 8.0
    window: int = 64
    min_samples: int = 3
    bootstrap_interval: float = 30.0
    min_stddev: float = 0.5

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ValueError("threshold must be > 0")
        if self.window < 2:
            raise ValueError("window must be >= 2")
        if self.min_samples < 2:
            raise ValueError("min_samples must be >= 2")
        if self.bootstrap_interval <= 0:
            raise ValueError("bootstrap_interval must be > 0")
        if self.min_stddev <= 0:
            raise ValueError("min_stddev must be > 0")


class _PeerHistory:
    """Sliding inter-arrival window plus the last-arrival timestamp."""

    __slots__ = ("last_arrival", "intervals")

    def __init__(self, now: float) -> None:
        self.last_arrival = now
        self.intervals: Deque[float] = deque()

    def record(self, now: float, window: int) -> None:
        interval = now - self.last_arrival
        self.last_arrival = now
        self.intervals.append(interval)
        while len(self.intervals) > window:
            self.intervals.popleft()


class PhiAccrualDetector:
    """Continuous, per-peer suspicion over message inter-arrival times.

    Feed every message arrival through :meth:`heartbeat`; query
    :meth:`phi` / :meth:`suspect` with the current sim time.  The detector
    also tracks which peers it has *reported* suspect, so callers get
    clean edge-triggered ``suspect -> recovered`` transitions from
    :meth:`poll`.
    """

    def __init__(self, config: Optional[DetectorConfig] = None) -> None:
        self.config = config or DetectorConfig()
        self._history: Dict[Peer, _PeerHistory] = {}
        self._suspected: Dict[Peer, float] = {}

    # -- feeding ---------------------------------------------------------------

    def heartbeat(self, peer: Peer, now: float) -> None:
        """Record a message arrival from ``peer`` at sim time ``now``."""
        history = self._history.get(peer)
        if history is None:
            self._history[peer] = _PeerHistory(now)
        else:
            history.record(now, self.config.window)
        _M_HEARTBEATS.inc()
        if peer in self._suspected:
            del self._suspected[peer]
            _M_RECOVERIES.inc()

    def forget(self, peer: Peer) -> None:
        """Drop all state about ``peer`` (e.g. it left the overlay)."""
        self._history.pop(peer, None)
        self._suspected.pop(peer, None)

    # -- querying --------------------------------------------------------------

    def _mean_stddev(self, history: _PeerHistory) -> Tuple[float, float]:
        samples = history.intervals
        if len(samples) < self.config.min_samples:
            return self.config.bootstrap_interval, max(
                self.config.min_stddev, self.config.bootstrap_interval / 4.0
            )
        mean = sum(samples) / len(samples)
        variance = sum((s - mean) ** 2 for s in samples) / len(samples)
        return mean, max(self.config.min_stddev, math.sqrt(variance))

    def phi(self, peer: Peer, now: float) -> float:
        """Current suspicion level of ``peer`` (0.0 for unknown peers).

        Uses the exponential-tail approximation of the phi-accrual paper:
        the probability that a healthy peer stays silent ``t`` after its
        last arrival decays like ``exp(-t / mean_interval)`` (scaled by
        the observed jitter), so ``phi = t / (mean + stddev) * log10(e)``
        -- monotone in silence, adaptive to the peer's own cadence.
        """
        history = self._history.get(peer)
        if history is None:
            return 0.0
        silence = now - history.last_arrival
        if silence <= 0:
            return 0.0
        mean, stddev = self._mean_stddev(history)
        return silence / (mean + stddev) * math.log10(math.e)

    def suspect(self, peer: Peer, now: float) -> bool:
        """Whether ``peer``'s phi currently exceeds the threshold."""
        return self.phi(peer, now) >= self.config.threshold

    def poll(self, now: float) -> List[Tuple[Peer, float]]:
        """Edge-triggered sweep: peers *newly* crossing the threshold.

        Returns ``(peer, phi)`` pairs for peers that crossed since the
        last poll; peers already reported stay quiet until a heartbeat
        clears them.  Sorted by ``repr`` for deterministic iteration.
        """
        newly: List[Tuple[Peer, float]] = []
        for peer in sorted(self._history, key=repr):
            if peer in self._suspected:
                continue
            level = self.phi(peer, now)
            if level >= self.config.threshold:
                self._suspected[peer] = now
                _M_SUSPICIONS.inc()
                _H_PHI.observe(level)
                newly.append((peer, level))
        return newly

    def suspected_peers(self) -> Tuple[Peer, ...]:
        return tuple(sorted(self._suspected, key=repr))


class _NullDetector(PhiAccrualDetector):
    """The disabled detector: it hears nothing, so it never suspects."""

    def heartbeat(self, peer: Peer, now: float) -> None:
        pass


# ---------------------------------------------------------------------------
# bounded retries with backoff + jitter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """A bounded retry budget with exponential backoff and seeded jitter.

    ``delay(attempt, rng)`` is the wait *before* retry ``attempt`` (the
    first transmission is attempt 0 and waits ``base`` for its answer):
    ``base * multiplier**attempt``, capped at ``cap``, plus a uniform
    jitter drawn from the caller's seeded RNG so concurrent retry loops
    decorrelate instead of stampeding in lock-step.
    """

    max_attempts: int = 4
    base: float = 10.0
    multiplier: float = 2.0
    cap: float = 120.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base <= 0:
            raise ValueError("base must be > 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.cap < self.base:
            raise ValueError("cap must be >= base")
        if not (0.0 <= self.jitter < 1.0):
            raise ValueError("jitter must be in [0, 1)")

    def delay(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        if attempt < 0:
            raise ValueError("attempt must be >= 0")
        nominal = min(self.cap, self.base * (self.multiplier ** attempt))
        if self.jitter == 0.0:
            return nominal  # a fixed schedule: no draw, nothing counted
        _M_RETRY_DELAYS.inc()
        if rng is None:
            return nominal
        return nominal * (1.0 + rng.uniform(-self.jitter, self.jitter))

    def delays(self, rng: Optional[random.Random] = None) -> Iterator[float]:
        """The full (bounded) delay sequence -- ``max_attempts`` entries."""
        for attempt in range(self.max_attempts):
            yield self.delay(attempt, rng)


# ---------------------------------------------------------------------------
# circuit breaker (quarantine instead of retrying forever)
# ---------------------------------------------------------------------------


class BreakerState(enum.Enum):
    """Classic three-state circuit."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass
class BreakerConfig:
    """Circuit-breaker policy.

    Attributes:
        failure_threshold: consecutive failures that open the circuit.
        reset_timeout: sim time an open circuit stays closed to traffic
            before allowing one half-open probe.
        half_open_probes: probes allowed through a half-open circuit.
    """

    failure_threshold: int = 2
    reset_timeout: float = 60.0
    half_open_probes: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.reset_timeout <= 0:
            raise ValueError("reset_timeout must be > 0")
        if self.half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")


@dataclass
class _Circuit:
    state: BreakerState = BreakerState.CLOSED
    consecutive_failures: int = 0
    opened_at: float = 0.0
    half_open_inflight: int = 0


class CircuitBreaker:
    """Per-peer circuits: fail fast on known-bad peers, probe politely.

    The caller asks :meth:`allows` before an expensive send and reports
    the result with :meth:`record_success` / :meth:`record_failure`.  A
    peer whose circuit is OPEN is *quarantined*: sends are refused without
    burning a retry budget until ``reset_timeout`` sim time has passed,
    then a limited number of half-open probes decide its fate.
    """

    def __init__(self, config: Optional[BreakerConfig] = None) -> None:
        self.config = config or BreakerConfig()
        self._circuits: Dict[Peer, _Circuit] = {}

    def _circuit(self, peer: Peer) -> _Circuit:
        circuit = self._circuits.get(peer)
        if circuit is None:
            circuit = _Circuit()
            self._circuits[peer] = circuit
        return circuit

    def state(self, peer: Peer, now: float) -> BreakerState:
        """Current state, promoting OPEN to HALF_OPEN after the cool-off."""
        circuit = self._circuits.get(peer)
        if circuit is None:
            return BreakerState.CLOSED
        if (
            circuit.state is BreakerState.OPEN
            and now - circuit.opened_at >= self.config.reset_timeout
        ):
            circuit.state = BreakerState.HALF_OPEN
            circuit.half_open_inflight = 0
            _M_BREAKER.inc(transition="half_open")
        return circuit.state

    def allows(self, peer: Peer, now: float) -> bool:
        """Whether a send to ``peer`` may proceed right now."""
        state = self.state(peer, now)
        if state is BreakerState.CLOSED:
            return True
        if state is BreakerState.OPEN:
            return False
        circuit = self._circuit(peer)
        if circuit.half_open_inflight >= self.config.half_open_probes:
            return False
        circuit.half_open_inflight += 1
        return True

    def record_success(self, peer: Peer, now: float) -> None:
        circuit = self._circuits.get(peer)
        if circuit is None:
            return
        if circuit.state is not BreakerState.CLOSED:
            _M_BREAKER.inc(transition="close")
        circuit.state = BreakerState.CLOSED
        circuit.consecutive_failures = 0
        circuit.half_open_inflight = 0

    def record_failure(self, peer: Peer, now: float) -> bool:
        """Report a failed send; returns True when the circuit (re-)opens."""
        circuit = self._circuit(peer)
        circuit.consecutive_failures += 1
        if circuit.state is BreakerState.HALF_OPEN:
            circuit.state = BreakerState.OPEN
            circuit.opened_at = now
            _M_BREAKER.inc(transition="reopen")
            return True
        if (
            circuit.state is BreakerState.CLOSED
            and circuit.consecutive_failures >= self.config.failure_threshold
        ):
            circuit.state = BreakerState.OPEN
            circuit.opened_at = now
            _M_BREAKER.inc(transition="open")
            return True
        return False

    def quarantined(self, now: float) -> Tuple[Peer, ...]:
        """Peers whose circuit refuses traffic right now (sorted)."""
        return tuple(
            sorted(
                (
                    peer
                    for peer in self._circuits
                    if self.state(peer, now) is BreakerState.OPEN
                ),
                key=repr,
            )
        )


class _NullBreaker(CircuitBreaker):
    """The disabled breaker: failures are not counted, so no circuit ever
    opens and every send is allowed."""

    def record_failure(self, peer: Peer, now: float) -> bool:
        return False
