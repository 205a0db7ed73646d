# sflow: module=repro.core.codec
"""Seeded fixture (half 1 of the SFL015 served-handler pair): a raising
decoder two calls deep.

Nothing here is a DES handler; the hazard only exists once a callable
served on a mailbox in the companion fixture reaches this raise with no
intervening ``try``.
"""


def check_header(payload: dict) -> dict:
    if "kind" not in payload:
        raise ValueError("envelope payload has no kind")
    return payload


def decode(payload: dict) -> dict:
    return check_header(payload)
