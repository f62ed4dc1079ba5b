"""Per-node packet pipeline and cost accounting.

The connector intercepts packets addressed to a locally hosted VNF SID
and runs the per-SID pipeline:

* SR-aware SID: advance the segment header, hand the still-encapsulated
  packet to the VNF, apply its verdict (optionally a permission-checked
  segment-list edit), and either loop to the next local VNF or forward.
* SR-unaware SID: advance, strip the outer header + SRH once, shuttle
  the plain inner packet through consecutive local unaware VNFs (two
  connector legs per VNF), then rebuild the encapsulation statelessly
  from the univocal mapping and forward.

Cost accounting counts one ``f`` per networking-stack traversal, ``d``
per decapsulation and ``e`` per re-encapsulation. For one node hosting a
whole chain of n pass-through VNFs this yields exactly (n+2)f for the
aware kind and d+(2n+1)f+e for the unaware kind; a node that only
forwards costs f.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from ipaddress import IPv6Address, IPv6Network
from typing import Callable

from srv6sfc import errors, wire
from srv6sfc.chain import ChainRegistry, Sid, SidKind, VnfChain, next_after
from srv6sfc.trace import EventKind
from srv6sfc.wire import Ipv6Header, Packet, SegmentRoutingHeader

EmitFn = Callable[[EventKind, object], None]

# VNF invocations per connector pass before declaring a steering loop
# (a chain-editing VNF re-inserting itself would otherwise spin forever).
MAX_PIPELINE_STEPS = 1024


def _no_emit(kind: EventKind, detail: object = None) -> None:
    return None


# Actions and edits -----------------------------------------------------

class ActionKind(Enum):
    FORWARD = "forward"
    MODIFIED = "modified"
    DROP = "drop"
    EDIT_CHAIN = "edit-chain"


@dataclass(frozen=True)
class SegmentListEdit:
    """A change to the not-yet-traversed part of the segment list."""

    class Kind(Enum):
        INSERT_AFTER_CURRENT = "insert-after-current"
        INSERT_AT = "insert-at"
        REPLACE = "replace"

    kind: "SegmentListEdit.Kind"
    sids: tuple[IPv6Address, ...]
    position: int | None = None

    @classmethod
    def insert_after_current(cls, sids) -> "SegmentListEdit":
        return cls(cls.Kind.INSERT_AFTER_CURRENT, tuple(sids))

    @classmethod
    def insert_at(cls, position: int, sids) -> "SegmentListEdit":
        return cls(cls.Kind.INSERT_AT, tuple(sids), position)

    @classmethod
    def replace(cls, sids) -> "SegmentListEdit":
        return cls(cls.Kind.REPLACE, tuple(sids))


@dataclass(frozen=True)
class VnfAction:
    """A VNF's verdict on one packet. Drop carries no packet; EditChain is
    only legal from SR-aware VNFs."""

    kind: ActionKind
    packet: Packet | None = None
    edit: SegmentListEdit | None = None

    def __post_init__(self):
        if self.kind is ActionKind.DROP and self.packet is not None:
            raise errors.InvariantViolation("Drop carries no packet")
        if self.kind is not ActionKind.DROP and self.packet is None:
            raise errors.InvariantViolation(f"{self.kind.value} requires a packet")
        if self.kind is ActionKind.EDIT_CHAIN and self.edit is None:
            raise errors.InvariantViolation("EditChain requires an edit")

    @classmethod
    def forward(cls, packet: Packet) -> "VnfAction":
        return cls(ActionKind.FORWARD, packet)

    @classmethod
    def modified(cls, packet: Packet) -> "VnfAction":
        return cls(ActionKind.MODIFIED, packet)

    @classmethod
    def drop(cls) -> "VnfAction":
        return cls(ActionKind.DROP)

    @classmethod
    def edit_chain(cls, packet: Packet, edit: SegmentListEdit) -> "VnfAction":
        return cls(ActionKind.EDIT_CHAIN, packet, edit)


class VnfPermission(Enum):
    INSERT_NEXT_ONLY = "insert-next-only"
    INSERT_ANYWHERE = "insert-anywhere"
    FULL_REWRITE = "full-rewrite"


_PERMITTED_EDITS = {
    VnfPermission.INSERT_NEXT_ONLY: {SegmentListEdit.Kind.INSERT_AFTER_CURRENT},
    VnfPermission.INSERT_ANYWHERE: {
        SegmentListEdit.Kind.INSERT_AFTER_CURRENT,
        SegmentListEdit.Kind.INSERT_AT,
    },
    VnfPermission.FULL_REWRITE: {
        SegmentListEdit.Kind.INSERT_AFTER_CURRENT,
        SegmentListEdit.Kind.INSERT_AT,
        SegmentListEdit.Kind.REPLACE,
    },
}


@dataclass
class Vnf:
    """A hosted function: its SID, edit permission, and process behavior."""

    sid: Sid
    behavior: Callable[[Packet], VnfAction]
    permission: VnfPermission = VnfPermission.INSERT_NEXT_ONLY


# Stock behaviors --------------------------------------------------------

class PassThroughRouter:
    """Receives and resends unchanged; the minimal routing function."""

    def __call__(self, packet: Packet) -> VnfAction:
        return VnfAction.forward(packet)


class PrefixFilter:
    """Drops packets whose destination falls inside a prefix."""

    def __init__(self, network: IPv6Network):
        self.network = network

    def __call__(self, packet: Packet) -> VnfAction:
        if packet.header.dst in self.network:
            return VnfAction.drop()
        return VnfAction.forward(packet)


class PayloadStamper:
    """Overwrites the first payload byte. Meant for plain packets; the
    payload length never changes."""

    def __init__(self, stamp: int):
        if not 0 <= stamp <= 0xFF:
            raise errors.InvariantViolation(f"stamp byte out of range: {stamp}")
        self.stamp = stamp

    def __call__(self, packet: Packet) -> VnfAction:
        if not packet.payload:
            return VnfAction.forward(packet)
        stamped = bytes([self.stamp]) + packet.payload[1:]
        return VnfAction.modified(replace(packet, payload=stamped))


class ChainEditor:
    """Emits a configured segment-list edit; SR-aware VNFs only."""

    def __init__(self, edit: SegmentListEdit):
        self.edit = edit

    def __call__(self, packet: Packet) -> VnfAction:
        return VnfAction.edit_chain(packet, self.edit)


# Cost accounting --------------------------------------------------------

@dataclass(frozen=True)
class UnitCosts:
    """Cost units per operation; only the ratios matter."""

    f: float = 1.0
    d: float = 0.5
    e: float = 0.5


@dataclass
class PacketCost:
    f: int = 0
    d: int = 0
    e: int = 0

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.f, self.d, self.e)


class CostLedger:
    """Counts f/d/e operations, per packet and in aggregate."""

    def __init__(self, units: UnitCosts = UnitCosts()):
        self.units = units
        self.f_count = 0
        self.d_count = 0
        self.e_count = 0
        self.per_packet: dict[int | None, PacketCost] = {}

    def add(self, uid: int | None, f: int = 0, d: int = 0, e: int = 0) -> None:
        if f < 0 or d < 0 or e < 0:
            raise errors.InvariantViolation("cost counters are non-negative")
        record = self.per_packet.get(uid)
        if record is None:
            record = self.per_packet[uid] = PacketCost()
        record.f += f
        record.d += d
        record.e += e
        self.f_count += f
        self.d_count += d
        self.e_count += e

    def packet_counts(self, uid: int | None) -> tuple[int, int, int]:
        record = self.per_packet.get(uid)
        return record.as_tuple() if record else (0, 0, 0)

    def packet_cost(self, uid: int | None) -> float:
        f, d, e = self.packet_counts(uid)
        return f * self.units.f + d * self.units.d + e * self.units.e

    def total_cost(self) -> float:
        return (
            self.f_count * self.units.f
            + self.d_count * self.units.d
            + self.e_count * self.units.e
        )

    def counts(self) -> tuple[int, int, int]:
        return (self.f_count, self.d_count, self.e_count)

    def merge(self, other: "CostLedger") -> None:
        """Fold another ledger in; aggregates stay the per-packet sums."""
        for uid, record in other.per_packet.items():
            self.add(uid, record.f, record.d, record.e)

    def aggregates_consistent(self) -> bool:
        sums = [0, 0, 0]
        for record in self.per_packet.values():
            sums[0] += record.f
            sums[1] += record.d
            sums[2] += record.e
        return tuple(sums) == self.counts()


def predicted_cost(n: int, kind: SidKind, units: UnitCosts = UnitCosts()) -> float:
    """Modelled node cost for a packet crossing n VNFs of one kind.

    n == 0 is a plain router: one forwarding operation.
    """
    if n < 0:
        raise errors.InvariantViolation(f"VNF count must be >= 0, got {n}")
    if n == 0:
        return units.f
    if kind is SidKind.SR_AWARE:
        return (n + 2) * units.f
    if kind is SidKind.SR_UNAWARE:
        return units.d + (2 * n + 1) * units.f + units.e
    raise errors.InvariantViolation(f"no cost model for kind {kind}")


# Encapsulation ----------------------------------------------------------

def encapsulate(inner: Packet, chain: VnfChain) -> Packet:
    """Wrap ``inner`` for the chain: outer src is the chain's ingress
    source, dst its first segment, the SRH carries the whole path.
    Raises :class:`errors.OversizedPacket` when the result would not fit
    the 16-bit payload length."""
    if not chain.segments:
        raise errors.EmptyChain(f"chain {chain.chain_id!r} has no segments")
    inner_bytes = wire.serialize_packet(inner)
    srh = SegmentRoutingHeader.from_path(chain.segments)
    payload_length = srh.byte_length + len(inner_bytes)
    if payload_length > wire.MAX_PAYLOAD_LEN:
        raise errors.OversizedPacket(
            f"encapsulated payload of {payload_length} B exceeds {wire.MAX_PAYLOAD_LEN} B"
        )
    header = Ipv6Header(
        version=6,
        traffic_class=0,
        flow_label=0,
        payload_length=payload_length,
        next_header=wire.NEXT_HEADER_ROUTING,
        hop_limit=wire.DEFAULT_HOP_LIMIT,
        src=chain.ingress_source,
        dst=chain.segments[0],
    )
    return Packet(header=header, srh=srh, payload=inner_bytes, uid=inner.uid)


def decapsulate(outer: Packet) -> Packet:
    """Remove one encapsulation layer, returning the parsed inner packet."""
    if outer.effective_next_header != wire.NEXT_HEADER_IPV6:
        raise errors.NotEncapsulated(
            f"payload protocol is {outer.effective_next_header}, not IPv6-in-IPv6"
        )
    inner = wire.parse_packet(outer.payload)
    return replace(inner, uid=outer.uid)


def advance_segment(packet: Packet) -> Packet:
    """Step to the next segment: decrement segments_left, retarget dst."""
    srh = packet.srh
    if srh is None:
        raise errors.NoSrh("cannot advance a packet without an SRH")
    if srh.segments_left == 0:
        raise errors.AlreadyAtLastSegment("segments_left is already 0")
    segments_left = srh.segments_left - 1
    new_srh = replace(srh, segments_left=segments_left)
    new_header = replace(packet.header, dst=srh.segment_list[segments_left])
    return replace(packet, header=new_header, srh=new_srh)


def apply_edit(
    packet: Packet,
    edit: SegmentListEdit,
    permission: VnfPermission,
    registry: ChainRegistry | None = None,
) -> Packet:
    """Apply a permission-checked segment-list edit.

    Only the remaining (untraversed) part of the list may change; the
    already-walked suffix is preserved, and segments_left, last_entry,
    lengths and the destination address are all recomputed.
    """
    srh = packet.srh
    if srh is None:
        raise errors.NoSrh("segment-list edit on a packet without an SRH")
    if edit.kind not in _PERMITTED_EDITS[permission]:
        raise errors.EditPermissionDenied(
            f"{edit.kind.value} not allowed at permission {permission.value}"
        )
    if registry is not None:
        for address in edit.sids:
            if address not in registry.sid_table:
                raise errors.UnknownSidInEdit(f"edit references unregistered SID {address}")

    # Remaining path in forward order: active segment first.
    remaining = tuple(srh.segment_list[i] for i in range(srh.segments_left, -1, -1))
    if edit.kind is SegmentListEdit.Kind.INSERT_AFTER_CURRENT:
        new_remaining = edit.sids + remaining
    elif edit.kind is SegmentListEdit.Kind.INSERT_AT:
        position = edit.position if edit.position is not None else 0
        if not 0 <= position <= len(remaining) - 1:
            raise errors.PositionOutOfRange(
                f"position {position} outside remaining segments [0, {len(remaining) - 1}]"
            )
        new_remaining = remaining[:position] + edit.sids + remaining[position:]
    else:  # REPLACE
        if not edit.sids:
            raise errors.InvalidEdit("replacement segment list must not be empty")
        new_remaining = edit.sids

    walked = srh.segment_list[srh.segments_left + 1 :]
    segment_list = tuple(reversed(new_remaining)) + walked
    segments_left = len(new_remaining) - 1
    new_srh = replace(
        srh,
        segment_list=segment_list,
        segments_left=segments_left,
        last_entry=len(segment_list) - 1,
        hdr_ext_len=2 * len(segment_list),
    )
    new_header = replace(
        packet.header,
        dst=new_remaining[0],
        payload_length=new_srh.byte_length + len(packet.payload),
    )
    return replace(packet, header=new_header, srh=new_srh)


def reencap_unaware(registry: ChainRegistry, returned: Packet, from_sid: Sid) -> Packet:
    """Rebuild the outer header + SRH for a packet coming back from an
    SR-unaware VNF interface, statelessly from the univocal mapping.

    Works regardless of how the VNF modified the inner packet: nothing
    from the original encapsulation needs to be remembered.
    """
    chain_id = registry.mapped_chain(from_sid.address, from_sid.interface)
    if chain_id is None:
        raise errors.UnivocalMappingMissing(
            f"no chain mapped for SR-unaware interface "
            f"({from_sid.address}, {from_sid.interface.value})"
        )
    chain = registry.chain(chain_id)
    successor = next_after(chain, from_sid.address)
    inner_bytes = wire.serialize_packet(returned)
    n = len(chain.segments)
    index = chain.segments.index(from_sid.address)
    srh = SegmentRoutingHeader.from_path(chain.segments, segments_left=n - 2 - index)
    header = Ipv6Header(
        version=6,
        traffic_class=0,
        flow_label=0,
        payload_length=srh.byte_length + len(inner_bytes),
        next_header=wire.NEXT_HEADER_ROUTING,
        hop_limit=wire.DEFAULT_HOP_LIMIT,
        src=chain.ingress_source,
        dst=successor,
    )
    return Packet(header=header, srh=srh, payload=inner_bytes, uid=returned.uid)


def egress_process(packet: Packet) -> Packet:
    """At the final segment: strip the encapsulation for plain forwarding."""
    if packet.srh is not None and packet.srh.segments_left != 0:
        raise errors.NotLastSegment(
            f"segments_left is {packet.srh.segments_left}, packet is misrouted"
        )
    return decapsulate(packet)


# The SR/VNF connector ----------------------------------------------------

@dataclass
class NfvNodeState:
    """Everything the connector needs about its node: hosted VNFs by SID
    address, the shared registry, the node's ledger, and an optional
    next-hop resolver used to name egress ports."""

    node_id: str
    vnfs: dict[IPv6Address, Vnf]
    registry: ChainRegistry
    ledger: CostLedger
    route: Callable[[IPv6Address], str | None] | None = None


@dataclass
class ConnectorResult:
    """Connector outcome: packets to emit with their egress ports, or a
    drop. Intra-node VNF-to-VNF hand-offs never show up here."""

    outputs: list[tuple[Packet, str | None]] = field(default_factory=list)
    dropped: bool = False
    drop_reason: str | None = None


def connector_process(state: NfvNodeState, packet: Packet, emit: EmitFn = _no_emit) -> ConnectorResult:
    """Run the per-SID pipeline for a packet addressed to a local VNF SID,
    looping while the next active segment is also hosted here."""
    if packet.srh is None:
        raise errors.NoSrh("connector requires an SR-encapsulated packet")
    vnf = state.vnfs.get(packet.header.dst)
    if vnf is None:
        raise errors.UnknownSid(f"{packet.header.dst} is not hosted on {state.node_id!r}")

    ledger = state.ledger
    uid = packet.uid
    current = packet           # encapsulated form
    plain: Packet | None = None  # decapsulated inner while among unaware VNFs
    plain_from: Sid | None = None
    steps = 0

    while True:
        steps += 1
        if steps > MAX_PIPELINE_STEPS:
            raise errors.PipelineLoop(
                f"{steps - 1} VNF invocations on {state.node_id!r} without leaving the node"
            )
        sid = vnf.sid
        if sid.kind is SidKind.SR_AWARE:
            if plain is not None:
                # Mixed chain: restore the encapsulation before an aware VNF.
                current = reencap_unaware(state.registry, plain, plain_from)
                ledger.add(uid, e=1)
                emit(EventKind.RE_ENCAPSULATED, current.header.dst)
                plain = None
                plain_from = None
            current = advance_segment(current)
            emit(EventKind.SEGMENT_ADVANCED, current.header.dst)
            ledger.add(uid, f=1)
            emit(EventKind.VNF_DELIVERED, sid.address)
            action = vnf.behavior(current)
            emit(EventKind.VNF_RETURNED, sid.address)
            if action.kind is ActionKind.DROP:
                emit(EventKind.DROPPED, f"vnf {sid.address}")
                return ConnectorResult(dropped=True, drop_reason=f"vnf {sid.address}")
            if action.kind is ActionKind.EDIT_CHAIN:
                current = apply_edit(action.packet, action.edit, vnf.permission, state.registry)
            else:
                current = action.packet
            if current.srh is None:
                raise errors.NoSrh(f"SR-aware VNF {sid.address} must preserve the SRH")
        else:
            if sid.kind is not SidKind.SR_UNAWARE:
                raise errors.UnknownSid(f"{sid.address} is an egress endpoint, not a VNF")
            if plain is None:
                current = advance_segment(current)
                emit(EventKind.SEGMENT_ADVANCED, current.header.dst)
                plain = decapsulate(current)
                ledger.add(uid, d=1)
                emit(EventKind.DECAPSULATED, None)
            ledger.add(uid, f=1)
            emit(EventKind.VNF_DELIVERED, sid.address)
            action = vnf.behavior(plain)
            if action.kind is ActionKind.EDIT_CHAIN:
                raise errors.InvalidEdit(
                    f"SR-unaware VNF {sid.address} sees no SRH and cannot edit it"
                )
            emit(EventKind.VNF_RETURNED, sid.address)
            if action.kind is ActionKind.DROP:
                emit(EventKind.DROPPED, f"vnf {sid.address}")
                return ConnectorResult(dropped=True, drop_reason=f"vnf {sid.address}")
            plain = action.packet
            ledger.add(uid, f=1)  # return leg to the connector
            plain_from = sid

        if plain is not None:
            successor = next_after(
                state.registry.chain(
                    _mapped_chain_or_raise(state.registry, plain_from)
                ),
                plain_from.address,
            )
            next_vnf = state.vnfs.get(successor)
            if next_vnf is not None and next_vnf.sid.kind is SidKind.SR_UNAWARE:
                vnf = next_vnf  # plain hand-off, no strip/rebuild in between
                continue
            current = reencap_unaware(state.registry, plain, plain_from)
            ledger.add(uid, e=1)
            emit(EventKind.RE_ENCAPSULATED, current.header.dst)
            plain = None
            plain_from = None
            next_vnf = state.vnfs.get(current.header.dst)
            if next_vnf is not None:
                vnf = next_vnf  # mixed chain: aware VNF next door
                continue
            ledger.add(uid, f=1)  # forward to next hop
            port = state.route(current.header.dst) if state.route else None
            return ConnectorResult(outputs=[(current, port)])
        else:
            next_vnf = state.vnfs.get(current.header.dst)
            if next_vnf is not None:
                vnf = next_vnf  # direct resend toward the next local VNF
                continue
            ledger.add(uid, f=2)  # back to the connector, then to next hop
            port = state.route(current.header.dst) if state.route else None
            return ConnectorResult(outputs=[(current, port)])


def _mapped_chain_or_raise(registry: ChainRegistry, sid: Sid) -> str:
    chain_id = registry.mapped_chain(sid.address, sid.interface)
    if chain_id is None:
        raise errors.UnivocalMappingMissing(
            f"no chain mapped for SR-unaware interface ({sid.address}, {sid.interface.value})"
        )
    return chain_id
