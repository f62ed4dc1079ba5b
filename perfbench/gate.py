"""Correctness gate, applied to every packet outside the timed spans.

A packet fails when its walk raised, when it did not end in exactly one
terminal trace event, when its outcome (delivered or dropped, where and
why) differs from the workload's expectation, when a delivered inner
packet is not bit-identical to the expected bytes, or when any node's
(f, d, e) ledger moved by other than the expected amounts.
"""

from __future__ import annotations

from srv6sfc import wire
from srv6sfc.sim import Delivered, Dropped, InjectResult
from srv6sfc.trace import EventKind

# Bound now, before any span recorder rebinds the module attribute, so
# checking never shows up in the traced layers.
_serialize = wire.serialize_packet

_TERMINAL = (EventKind.DELIVERED, EventKind.DROPPED)


class Gate:
    """Checks packets of one workload against one network, in order."""

    def __init__(self, workload, network):
        self.workload = workload
        self.network = network
        self.failures: list[str] = []
        self._counts = self._snapshot()

    def _snapshot(self) -> list[tuple[int, int, int]]:
        ledgers = self.network.ledgers
        return [ledgers[node].counts() for node in self.workload.node_ids]

    def check(self, index: int, result: InjectResult | None, error: Exception | None) -> bool:
        """True when packet ``index`` of the workload ended as expected."""
        problem = self._problem(index, result, error)
        if problem is None:
            return True
        if len(self.failures) < 10:
            self.failures.append(f"packet {index}: {problem}")
        return False

    def _problem(self, index, result, error) -> str | None:
        before, after = self._counts, self._snapshot()
        self._counts = after
        if error is not None:
            return f"raised {type(error).__name__}: {error}"
        expect = self.workload.expects[index]
        terminals = [event for event in result.trace.events if event.kind in _TERMINAL]
        if len(terminals) != 1 or result.trace.events[-1] is not terminals[0]:
            return f"{len(terminals)} terminal events"
        outcome = result.outcome
        if expect.delivered:
            if not isinstance(outcome, Delivered) or terminals[0].kind is not EventKind.DELIVERED:
                return f"expected delivery at {expect.node}, got {outcome}"
            if outcome.node_id != expect.node:
                return f"delivered at {outcome.node_id}, expected {expect.node}"
            if _serialize(outcome.packet) != self.workload.expected_bytes[index]:
                return "delivered packet differs from the packet sent"
        else:
            if not isinstance(outcome, Dropped) or terminals[0].kind is not EventKind.DROPPED:
                return f"expected drop at {expect.node}, got {outcome}"
            if (outcome.node_id, outcome.reason) != (expect.node, expect.reason):
                return (
                    f"dropped at {outcome.node_id} ({outcome.reason}), "
                    f"expected {expect.node} ({expect.reason})"
                )
        for node, old, new, want in zip(self.workload.node_ids, before, after, expect.ledger):
            delta = (new[0] - old[0], new[1] - old[1], new[2] - old[2])
            if delta != want:
                return f"ledger of {node} moved by {delta}, expected {want}"
        return None
