"""Per-packet event traces and their JSON-lines export.

The walks of a flow record the same events, uid apart, so a trace
renders each distinct event once per network, through the event memo
``sim.inject`` hands it (a standalone ``Trace()`` gets its own). The
memo maps ``(node, kind._value_, detail key)`` to the shared
``TraceEvent`` and its JSON line after the uid. An address is keyed by
its ``_ip`` integer, with its scope id when it has one; a string or
``None`` by itself. Other details, a ``TrafficText`` among them, are
rendered by ``str`` each time, not stored. A pair is stored only while
the memo holds fewer than the network's ``event_limit`` entries, so the
addresses a packet's own SRH brings cannot outgrow a bound the config
sets (see ``sim.Network``).

An SR-aware step records three events that depend only on its node, the
segment it advances to and its SID: SegmentAdvanced, VnfDelivered and
VnfReturned. ``Trace.step`` records them as one group, the three pairs
flattened, from the network's group memo (``sim.Network.group_memo``),
keyed by ``(node, segment key, SID key)`` with each address keyed as
above. A group holds the event memo's own pairs and is stored only when
the event memo holds all three, and only while the group memo holds
fewer than ``event_limit`` groups. ``add`` and ``step`` render through
one renderer, and ``step`` never calls ``add``.

Each exported line is one JSON object with the keys ``uid``, ``node``,
``event`` and ``detail`` in that order, compact separators and
ASCII-only escaping; ``null`` stands for an absent uid or detail. This
is exactly what ``json.dumps(..., separators=(",", ":"))`` prints for
that dict; each line is the trace's uid head followed by an event's
tail, built once with the same C escaper. A trace keeps one list, the
flattened ``(event, tail)`` pairs it recorded: recording an event is one
``extend`` by its pair (a step's group, one ``extend`` by its six
items), ``events`` is the slice of the events, built when it is read,
and ``to_jsonl`` is one join of the slice of the tails.
Appending the pair itself would make the export pick each tail out of
its pair, which costs more than the append saves.

The packet path keeps the four idioms of ``wire``'s module docstring.
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


# The members as module constants, for the packet path (see ``wire``'s module docstring).
(
    CLASSIFIED, ENCAPSULATED, SEGMENT_ADVANCED, VNF_DELIVERED, VNF_RETURNED,
    DECAPSULATED, RE_ENCAPSULATED, FORWARDED, DROPPED, DELIVERED,
) = EventKind


class TraceEvent(NamedTuple):
    node: str
    kind: EventKind
    detail: str | None = None


class TrafficText(str):
    """A detail text that comes from traffic (``no route to <dst>``):
    ``Trace.add`` renders it as a plain ``str`` and never stores it."""


class Trace:
    """Ordered event log for one packet walk.

    Delivered and Dropped are terminal: recording anything after one of
    them is a simulator bug and raises. With ``terminal_only`` set, only
    the terminal event is kept (cheap mode for large runs). ``memo`` is
    the event memo and ``groups`` the group memo, each shared by the
    traces of one network, and each stores only while it holds fewer
    than ``limit`` entries.
    """

    def __init__(
        self,
        uid: int | None = None,
        terminal_only: bool = False,
        memo: dict[tuple, tuple[TraceEvent, str]] | None = None,
        limit: int = sys.maxsize,
        groups: dict[tuple, tuple] | None = None,
    ):
        self.uid = uid
        self.terminal_only = terminal_only
        self._log: list[TraceEvent | str] = []  # each event, then its tail
        self._closed = False
        self._memo = {} if memo is None else memo
        self._limit = limit
        self._groups = {} if groups is None else groups

    def add(self, node: str, kind: EventKind, detail: object = None) -> None:
        """Record one event. ``detail`` (e.g. an address) is rendered
        only when the event is kept, once per memo."""
        if self._closed:
            raise errors.InvariantViolation(f"trace for uid={self.uid} already terminated")
        # Identity tests against the module constants (``wire``'s Enum idiom).
        if kind is DROPPED or kind is DELIVERED:
            self._closed = True
        elif self.terminal_only:
            return
        if type(detail) is IPv6Address:
            address = detail._ip if detail._scope_id is None else (detail._ip, detail._scope_id)
            key = (node, kind._value_, address)
        elif detail is None or type(detail) is str:
            key = (node, kind._value_, detail)
        else:
            key = None
        pair = self._memo.get(key)
        if pair is None:
            pair = self._pair(key, node, kind, detail)
        self._log.extend(pair)

    def step(self, node: str, dst: IPv6Address, sid: IPv6Address) -> None:
        """Record an SR-aware step at ``node``: SegmentAdvanced to ``dst``,
        then VnfDelivered and VnfReturned of ``sid``, as one group."""
        if self._closed:
            raise errors.InvariantViolation(f"trace for uid={self.uid} already terminated")
        if self.terminal_only:
            return
        key = (
            node,
            dst._ip if dst._scope_id is None else (dst._ip, dst._scope_id),
            sid._ip if sid._scope_id is None else (sid._ip, sid._scope_id),
        )
        group = self._groups.get(key)
        if group is None:
            group = self._group(key, node, dst, sid)
        self._log.extend(group)

    def _pair(self, key: tuple | None, node: str, kind: EventKind, detail: object) -> tuple:
        """The event and its tail, rendered; stored under ``key`` while the
        memo has room. The one renderer of ``add`` and ``step``."""
        text = detail if detail is None or type(detail) is str else str(detail)
        pair = (
            tuple.__new__(TraceEvent, (node, kind, text)),
            # ``_value_`` is a plain attribute, where ``.value`` goes
            # through a descriptor; event names need no escaping.
            f'{_json_string(node)},"event":"{kind._value_}",'
            f'"detail":{"null" if text is None else _json_string(text)}}}',
        )
        if key is not None and len(self._memo) < self._limit:
            self._memo[key] = pair
        return pair

    def _group(self, key: tuple, node: str, dst: IPv6Address, sid: IPv6Address) -> tuple:
        """A step's three pairs, flattened, from the event memo or the
        renderer; stored under ``key`` only when the memo holds all three,
        and while the group memo has room."""
        memo = self._memo
        _, dst_key, sid_key = key
        group: tuple = ()
        stored = True
        for kind, detail, detail_key in (
            (SEGMENT_ADVANCED, dst, dst_key), (VNF_DELIVERED, sid, sid_key), (VNF_RETURNED, sid, sid_key),
        ):
            event_key = (node, kind._value_, detail_key)
            pair = memo.get(event_key)
            if pair is None:
                pair = self._pair(event_key, node, kind, detail)
                stored = stored and event_key in memo
            group += pair
        if stored and len(self._groups) < self._limit:
            self._groups[key] = group
        return group

    @property
    def events(self) -> list[TraceEvent]:
        """The recorded events, in order (a new list on each read)."""
        return self._log[0::2]

    def to_jsonl(self) -> str:
        """One JSON object per event: uid, node, event, detail."""
        head = '{"uid":' + ("null" if self.uid is None else str(self.uid)) + ',"node":'
        return head + ("\n" + head).join(self._log[1::2]) if self._log else ""

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self._log) // 2
