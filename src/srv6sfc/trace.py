"""Per-packet event traces and their JSON-lines export."""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

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


@dataclass(frozen=True)
class TraceEvent:
    node: str
    kind: EventKind
    detail: str | None = None


class Trace:
    """Ordered event log for one packet walk.

    Delivered and Dropped are terminal: recording anything after one of
    them is a simulator bug and raises. With ``terminal_only`` set, only
    the terminal event is kept (cheap mode for large runs).
    """

    def __init__(self, uid: int | None = None, terminal_only: bool = False):
        self.uid = uid
        self.terminal_only = terminal_only
        self.events: list[TraceEvent] = []
        self._closed = False

    def add(self, node: str, kind: EventKind, detail: object = None) -> None:
        """Record one event. ``detail`` (e.g. an address) is stringified
        only when the event is kept."""
        if self._closed:
            raise errors.InvariantViolation(f"trace for uid={self.uid} already terminated")
        # Identity tests: hashing the Enum for a set probe costs more.
        if kind is EventKind.DROPPED or kind is EventKind.DELIVERED:
            self._closed = True
        elif self.terminal_only:
            return
        self.events.append(TraceEvent(node, kind, None if detail is None else str(detail)))

    @property
    def terminated(self) -> bool:
        return self._closed

    def to_jsonl(self) -> str:
        """One JSON object per event: uid, node, event, detail."""
        lines = []
        for event in self.events:
            lines.append(
                json.dumps(
                    {
                        "uid": self.uid,
                        "node": event.node,
                        "event": event.kind.value,
                        "detail": event.detail,
                    },
                    separators=(",", ":"),
                )
            )
        return "\n".join(lines)

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)
