# sflow: module=repro.core.relay
"""Seeded fixture (half 2 of the SFL015 served-handler pair): mailbox
callbacks, registered with ``<mailbox>.serve(handler)`` instead of
spawned with ``env.process(...)``.

``Relay.receive`` has no ``raise`` of its own, so every per-file rule is
clean; the whole-program pass treats the ``serve`` argument as a DES
handler, follows ``receive -> decode -> check_header`` into the companion
fixture and flags it (SFL015).  ``Sink.receive`` -- same name, other
class -- shows the sanctioned shape: the risky call sits under a ``try``.
"""

from repro.core.codec import decode


class Relay:
    def __init__(self, network, me):
        self.seen = []
        network.register(me).serve(self.receive)

    def receive(self, envelope):  # SFL015: decode() can raise, nothing catches it
        self.seen.append(decode(envelope.payload))


class Sink:
    def __init__(self, network, me):
        self.dropped = 0
        network.register(me).serve(self.receive)

    def receive(self, envelope):  # clean: the risky call is shielded
        try:
            decode(envelope.payload)
        except ValueError:
            self.dropped += 1
