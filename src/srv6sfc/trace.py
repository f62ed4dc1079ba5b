"""Per-packet event traces and their JSON-lines export.

Rendering an address is the costly part of a trace: ``str(IPv6Address)``
runs a pure-Python hextet compression. A trace therefore renders each
address detail through an address-text memo, a dict from the address's
integer to its text. The integer is read from the ``_ip`` slot, since
``hash`` and ``int`` of an ``IPv6Address`` are Python-level calls; a
scoped address is keyed by ``(integer, scope id)``, so ``fe80::1%eth0``
and ``fe80::1`` keep their own texts. Every ``Network`` owns one memo,
empty until the first kept event fills it, and ``sim.inject`` hands it
to each trace it creates; a standalone ``Trace()`` gets a private one.
Any other detail that is not a string is rendered by ``str`` each time,
not stored. The memo is bounded by the config, not by traffic. For
packets that enter without an SRH of their own, every address the
simulator puts in an event is either a registered SID (the active
segment, a VNF, a re-encapsulation target) or an address of the node
that delivers the packet, because ``Delivered`` fires only when the
destination is one of that node's local addresses. A packet that brings
its own SRH can name any address as its next segment, so a trace stores
a new text only while the memo holds fewer entries than the network
declares addresses; past that it renders without storing.
Drop reasons and other details that are already strings are kept as
they are.

Each exported line is one JSON object with the keys ``uid``, ``node``,
``event`` and ``detail`` in that order, compact separators and
ASCII-only escaping; ``null`` stands for an absent uid or detail. This
is exactly what ``json.dumps(..., separators=(",", ":"))`` prints for
that dict; ``to_jsonl`` builds the line directly with the same C escaper.

Each ``EventKind`` member is also bound as a module constant of the same
name (``DROPPED is EventKind.DROPPED``), and the walk and ``Trace.add``
read those. On CPython 3.11 ``EnumType`` defines ``__getattr__``, so a
read of ``EventKind.DROPPED`` through the class is a slow attribute
lookup (about 100 ns), where a module global costs a few; the walk
makes dozens of such reads per packet. Set-up and CLI code still write
``EventKind.X``.
"""

from __future__ import annotations

import sys
from enum import Enum
from ipaddress import IPv6Address
from json.encoder import encode_basestring_ascii as _json_string
from typing import NamedTuple

from srv6sfc import errors


class EventKind(Enum):
    CLASSIFIED = "Classified"
    ENCAPSULATED = "Encapsulated"
    SEGMENT_ADVANCED = "SegmentAdvanced"
    VNF_DELIVERED = "VnfDelivered"
    VNF_RETURNED = "VnfReturned"
    DECAPSULATED = "Decapsulated"
    RE_ENCAPSULATED = "ReEncapsulated"
    FORWARDED = "Forwarded"
    DROPPED = "Dropped"
    DELIVERED = "Delivered"


# The members as module constants, for the packet path (see the module docstring).
(
    CLASSIFIED, ENCAPSULATED, SEGMENT_ADVANCED, VNF_DELIVERED, VNF_RETURNED,
    DECAPSULATED, RE_ENCAPSULATED, FORWARDED, DROPPED, DELIVERED,
) = EventKind


class TraceEvent(NamedTuple):
    node: str
    kind: EventKind
    detail: str | None = None


class Trace:
    """Ordered event log for one packet walk.

    Delivered and Dropped are terminal: recording anything after one of
    them is a simulator bug and raises. With ``terminal_only`` set, only
    the terminal event is kept (cheap mode for large runs).
    ``address_text`` is the memo that renders address details; traces
    of one network share it. A text is stored in it only while it holds
    fewer than ``address_limit`` entries.
    """

    def __init__(
        self,
        uid: int | None = None,
        terminal_only: bool = False,
        address_text: dict[int | tuple[int, str], str] | None = None,
        address_limit: int = sys.maxsize,
    ):
        self.uid = uid
        self.terminal_only = terminal_only
        self.events: list[TraceEvent] = []
        self._closed = False
        self._address_text = {} if address_text is None else address_text
        self._address_limit = address_limit

    def add(self, node: str, kind: EventKind, detail: object = None) -> None:
        """Record one event. ``detail`` (e.g. an address) is rendered
        only when the event is kept."""
        if self._closed:
            raise errors.InvariantViolation(f"trace for uid={self.uid} already terminated")
        # Identity tests against the module constants: hashing the Enum for
        # a set probe, or reading the members through the class, costs more.
        if kind is DROPPED or kind is DELIVERED:
            self._closed = True
        elif self.terminal_only:
            return
        if type(detail) is IPv6Address:
            key = detail._ip if detail._scope_id is None else (detail._ip, detail._scope_id)
            memo = self._address_text
            text = memo.get(key)
            if text is None:
                text = str(detail)
                if len(memo) < self._address_limit:
                    memo[key] = text
            detail = text
        elif detail is not None and not isinstance(detail, str):
            detail = str(detail)
        self.events.append(tuple.__new__(TraceEvent, (node, kind, detail)))

    def to_jsonl(self) -> str:
        """One JSON object per event: uid, node, event, detail."""
        head = '{"uid":' + ("null" if self.uid is None else str(self.uid)) + ',"node":'
        # Event names are plain ASCII words and need no escaping; ``_value_``
        # is a plain attribute, where ``.value`` goes through a descriptor.
        return "\n".join(
            f'{head}{_json_string(node)},"event":"{kind._value_}",'
            f'"detail":{"null" if detail is None else _json_string(detail)}}}'
            for node, kind, detail in self.events
        )

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)
