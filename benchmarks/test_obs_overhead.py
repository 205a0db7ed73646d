"""Overhead budget of the observability layer's disabled fast path.

The tracing instrumentation lives inline in hot protocol paths (per-node
activation, the recovery log, every supervised send, the transport's
causal msg_id stamping), so the contract of :mod:`repro.obs.trace` -- *no
sink attached means no measurable work* -- is load-bearing.  This harness
holds it to numbers:

* **micro**: a ``NULL_SPAN`` event call must cost within a small multiple
  of a no-op function call (it is one attribute lookup + early return);
* **macro**: a full federation with tracing disabled must run within noise
  of the same federation before instrumentation existed -- approximated by
  comparing against itself with a recorder attached, which must not be
  *faster* than the disabled run;
* **transport**: with no trace span attached, ``MessageNetwork.send``
  must not pay for causal stamping (one attribute load + bool test; no
  msg_id allocation, no event dict).

Every test also appends its numbers to
``benchmarks/results/BENCH_obs.json`` (via the shared
``conftest.write_bench_record`` helper), so the overhead trajectory is
trackable across PRs.

Run: pytest benchmarks/test_obs_overhead.py -s
"""

from __future__ import annotations

import io
import time

from repro.core.sflow import SFlowAlgorithm, SFlowConfig
from repro.obs import recording
from repro.obs.trace import NULL_SPAN, SimClock, tracer
from repro.services.workloads import ScenarioConfig, generate_scenario
from repro.sim.engine import Environment
from repro.sim.channels import MessageNetwork

BENCH_FILE = "BENCH_obs.json"


def _noop() -> None:
    return None


def _time(fn, n: int) -> float:
    started = time.perf_counter()
    for _ in range(n):
        fn()
    return time.perf_counter() - started


def test_null_span_is_within_noise_of_a_noop(bench_record):
    """Disabled-path event emission costs like a plain function call."""
    assert not tracer().enabled
    n = 200_000
    # Warm-up, then best-of-5 to shed scheduler noise.
    _time(_noop, n)

    def disabled_event() -> None:
        NULL_SPAN.event("x")

    noop = min(_time(_noop, n) for _ in range(5))
    nulled = min(_time(disabled_event, n) for _ in range(5))
    per_call_ns = (nulled / n) * 1e9
    print(
        f"\n  no-op: {noop / n * 1e9:.1f} ns/call, "
        f"NULL_SPAN.event: {per_call_ns:.1f} ns/call"
    )
    bench_record(
        BENCH_FILE,
        "null_span_micro",
        {
            "calls": n,
            "noop_ns_per_call": noop / n * 1e9,
            "null_span_event_ns_per_call": per_call_ns,
        },
    )
    # A generous ceiling (method dispatch + kwargs packing); the point is
    # to fail if someone adds clock reads or dict building to the off path.
    assert nulled < max(noop * 20, n * 500e-9)


def test_disabled_tracing_adds_no_measurable_federation_overhead(bench_record):
    """Macro check: recording on vs. off on the same federation runs."""
    scenario = generate_scenario(
        ScenarioConfig(network_size=30, n_services=6, seed=11)
    )
    config = SFlowConfig()

    def federate() -> None:
        SFlowAlgorithm(config).federate(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )

    federate()  # warm caches (route oracle, imports)
    rounds = 5
    assert not tracer().enabled
    disabled = min(_time(federate, 1) for _ in range(rounds))
    sink = io.StringIO()
    with recording(sink):
        assert tracer().enabled
        enabled = min(_time(federate, 1) for _ in range(rounds))
    print(
        f"\n  federation: disabled {disabled * 1e3:.2f} ms, "
        f"recording {enabled * 1e3:.2f} ms"
    )
    bench_record(
        BENCH_FILE,
        "federation_macro",
        {
            "disabled_ms": disabled * 1e3,
            "recording_ms": enabled * 1e3,
        },
    )
    # The disabled run must not be slower than actually recording JSONL --
    # i.e. the off switch really is the fast path (3x guards CI jitter on
    # a measurement that should favour `disabled` by construction).
    assert disabled < enabled * 3


def test_disabled_channel_stamping_costs_nothing(bench_record):
    """The transport's causal stamping inherits the off-switch contract.

    With no trace span attached, every send skips msg_id allocation and
    event emission entirely (``Envelope.mid`` stays 0); that path must
    not be slower than the same sends with a live recorder span attached,
    which pays for two event dicts per message.
    """
    n = 2_000

    def send_batch(span) -> float:
        env = Environment()
        network = MessageNetwork(env)
        network.register("a")
        network.register("b")
        if span is not None:
            network.set_trace_span(span)
        started = time.perf_counter()
        for _ in range(n):
            network.send("a", "b", payload=None)
        elapsed = time.perf_counter() - started
        # Stamping contract: msg_ids only exist while a span is attached.
        envelope = network.send("a", "b", payload=None)
        assert (envelope.mid > 0) == (span is not None)
        return elapsed

    assert not tracer().enabled
    send_batch(None)  # warm-up
    rounds = 5
    disabled = min(send_batch(None) for _ in range(rounds))
    sink = io.StringIO()
    with recording(sink):
        session = tracer().session(
            "bench.channel", clock=SimClock(Environment())
        )
        enabled = min(send_batch(session) for _ in range(rounds))
        session.end()
    print(
        f"\n  {n} sends: unstamped {disabled * 1e3:.2f} ms, "
        f"stamped {enabled * 1e3:.2f} ms"
    )
    bench_record(
        BENCH_FILE,
        "channel_stamping_micro",
        {
            "sends": n,
            "unstamped_ms": disabled * 1e3,
            "stamped_ms": enabled * 1e3,
        },
    )
    assert disabled < enabled * 3
