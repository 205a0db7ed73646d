# sflow: module=repro.sim.fixture_suppressed
"""Seeded fixture: suppression hygiene (SFL000) and justified waivers."""

from repro.obs import tracer


def waived() -> None:
    # A justified waiver: suppressed, and no SFL000.
    tracer().event("x")  # sflow: noqa[SFL012] -- fixture demonstrating a justified waiver


def bare_waiver() -> None:
    return tracer().event("x")  # sflow: noqa[SFL012]


def unknown_code() -> None:
    pass  # sflow: noqa[SFL999] -- no such rule
