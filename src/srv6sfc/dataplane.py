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

What depends only on (chain, SID position) is compiled when a chain is
registered, not per packet (``VnfChain.ladder``, ``ChainRegistry.returns``
and ``ChainRegistry.rungs``), and what depends only on the node when the
network is built (``NodeState``). The per-packet rewrites (advance,
decapsulate, edit, re-encapsulate) are pure packet rewrites, and the
walk that calls them keeps its own state; ``chain_problems`` replays
them on each chain once, at load. Any rewrite whose outer payload would
pass 65,535 B raises :class:`errors.OversizedPacket`; the connector
turns that into a drop at the node.

Cost accounting counts one ``f`` per networking-stack traversal, ``d``
per decapsulation and ``e`` per re-encapsulation (``node_cost``). In one
connector pass an SR-aware VNF costs f; each maximal run of SR-unaware
VNFs costs d and e plus 2f per VNF; leaving the node costs 2f after an
aware VNF and f after an unaware run; a VNF that drops the packet ends
the count after its delivery leg. So n pass-through VNFs of one kind
cost (n+2)f (aware) or d+(2n+1)f+e (unaware), and a node that only
forwards costs f. Each pass returns its counts on ``ConnectorResult``;
``CostLedger`` keeps per-node aggregates only.

The connector records into the walk's ``Trace``: each SR-aware step
with one ``Trace.step`` (its three events as one memoized group, see
``srv6sfc.trace``), everything else through one bound ``add`` per pass.
The stock verdict builders skip ``VnfAction.__init__`` (see
``VnfAction``).

The packet path keeps the four idioms of ``wire``'s module docstring.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from ipaddress import IPv6Address, IPv6Network
from typing import Callable, Iterable, Sequence

from srv6sfc import errors, wire
from srv6sfc.chain import (
    EGRESS_ENDPOINT,
    SR_AWARE,
    SR_UNAWARE,
    ChainRegistry,
    PrefixTable,
    Sid,
    SidKind,
    Step,
    UnawareReturn,
    VnfChain,
    address_key,
)
from srv6sfc.trace import (
    DECAPSULATED,
    DROPPED,
    RE_ENCAPSULATED,
    SEGMENT_ADVANCED,
    VNF_DELIVERED,
    VNF_RETURNED,
    Trace,
    TrafficText,
)
from srv6sfc.wire import SEGMENT_LEN, SRH_FIXED_LEN, Ipv6Header, Packet, SegmentRoutingHeader, value_type

_packet = Packet._build

# VNF invocations per connector pass before declaring a steering loop
# (a chain-editing VNF re-inserting itself would otherwise spin forever).
MAX_PIPELINE_STEPS = 1024


# Actions and edits -----------------------------------------------------

class ActionKind(Enum):
    FORWARD = "forward"
    MODIFIED = "modified"
    DROP = "drop"
    EDIT_CHAIN = "edit-chain"


# The members as module constants, for the packet path (see ``wire``'s module docstring).
FORWARD, MODIFIED, DROP, EDIT_CHAIN = ActionKind


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
        return cls(INSERT_AFTER_CURRENT, tuple(sids))

    @classmethod
    def insert_at(cls, position: int, sids) -> "SegmentListEdit":
        return cls(INSERT_AT, tuple(sids), position)

    @classmethod
    def replace(cls, sids) -> "SegmentListEdit":
        return cls(REPLACE, tuple(sids))


INSERT_AFTER_CURRENT, INSERT_AT, REPLACE = SegmentListEdit.Kind


_NO_EDIT = "EditChain requires an edit"


@value_type
class VnfAction:
    """A VNF's verdict on one packet. Drop carries no packet; EditChain is
    only legal from SR-aware VNFs. ``__init__`` checks a verdict built by
    ``VnfAction(...)``; the stock builders ``forward``, ``modified`` and
    ``edit_chain`` call ``_build``, each keeping only the checks its own
    arguments can fail, and ``drop`` returns one shared verdict."""

    kind: ActionKind
    packet: Packet | None = None
    edit: SegmentListEdit | None = None

    def __init__(self, kind, packet=None, edit=None):
        if kind is DROP and packet is not None:
            raise errors.InvariantViolation("Drop carries no packet")
        if kind is not DROP and packet is None:
            raise errors.InvariantViolation(f"{kind.value} requires a packet")
        if kind is EDIT_CHAIN and edit is None:
            raise errors.InvariantViolation(_NO_EDIT)

    @classmethod
    def forward(cls, packet: Packet) -> "VnfAction":
        if packet is None:
            raise errors.InvariantViolation(f"{FORWARD.value} requires a packet")
        return _action(FORWARD, packet, None)

    @classmethod
    def modified(cls, packet: Packet) -> "VnfAction":
        if packet is None:
            raise errors.InvariantViolation(f"{MODIFIED.value} requires a packet")
        return _action(MODIFIED, packet, None)

    @classmethod
    def drop(cls) -> "VnfAction":
        return _DROP_VERDICT

    @classmethod
    def edit_chain(cls, packet: Packet, edit: SegmentListEdit) -> "VnfAction":
        if packet is None:
            raise errors.InvariantViolation(f"{EDIT_CHAIN.value} requires a packet")
        if edit is None:
            raise errors.InvariantViolation(_NO_EDIT)
        return _action(EDIT_CHAIN, packet, edit)


_action = VnfAction._build
_DROP_VERDICT = VnfAction(DROP)  # a value, so every drop can share one


class VnfPermission(Enum):
    INSERT_NEXT_ONLY = "insert-next-only"
    INSERT_ANYWHERE = "insert-anywhere"
    FULL_REWRITE = "full-rewrite"


# Tuples: ``in`` finds a member by identity, without hashing it.
PERMITTED_EDITS = {
    VnfPermission.INSERT_NEXT_ONLY: (INSERT_AFTER_CURRENT,),
    VnfPermission.INSERT_ANYWHERE: (INSERT_AFTER_CURRENT, INSERT_AT),
    VnfPermission.FULL_REWRITE: (INSERT_AFTER_CURRENT, INSERT_AT, REPLACE),
}
# The same, keyed by each permission's value: a string's hash is cached
# and computed in C, an Enum member's is a Python call.
_PERMITTED_BY_VALUE = {permission._value_: kinds for permission, kinds in PERMITTED_EDITS.items()}


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
        return _action(FORWARD, packet, None)


class PrefixFilter:
    """Drops packets whose destination falls inside a prefix. Decides on
    the integers of the prefix and its mask, compiled at construction, so
    ``network`` is read-only."""

    __slots__ = ("_network", "_prefix", "_mask")

    def __init__(self, network: IPv6Network):
        self._network = network
        self._prefix = network.network_address._ip
        self._mask = network.netmask._ip

    @property
    def network(self) -> IPv6Network:
        return self._network

    def __call__(self, packet: Packet) -> VnfAction:
        if packet.header.dst._ip & self._mask == self._prefix:
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

    def cost(self, counts: tuple[int, int, int]) -> float:
        """Cost units of (f, d, e) operation counts."""
        f, d, e = counts
        return f * self.f + d * self.d + e * self.e


class CostLedger:
    """A node's aggregate f/d/e counts, added to by the connector and the
    walk as each charge is made. Per-packet counts are not kept: each
    connector pass and each walk returns its own."""

    def __init__(self):
        self.f_count = 0
        self.d_count = 0
        self.e_count = 0

    def counts(self) -> tuple[int, int, int]:
        return (self.f_count, self.d_count, self.e_count)


def node_cost(kinds: Sequence[SidKind], drop_at: int | None = None) -> tuple[int, int, int]:
    """(f, d, e) of one connector pass over the local VNFs a packet visits,
    in order, by the law in the module docstring; ``drop_at`` is the index
    of the VNF that drops it. No VNFs is a plain forward, (1, 0, 0)."""
    if not kinds:
        return (1, 0, 0)
    f = d = e = 0
    plain = False
    for index, kind in enumerate(kinds):
        if kind is SidKind.SR_AWARE:
            if plain:
                e += 1
                plain = False
            f += 1
        elif kind is SidKind.SR_UNAWARE:
            if not plain:
                d += 1
                plain = True
            f += 1
            if index != drop_at:
                f += 1  # return leg
        else:
            raise errors.InvariantViolation(f"no cost model for kind {kind}")
        if index == drop_at:
            return (f, d, e)
    return (f + 1, d, e + 1) if plain else (f + 2, d, e)


def predicted_cost(n: int, kind: SidKind, units: UnitCosts = UnitCosts()) -> float:
    """Modelled node cost for a packet crossing n VNFs of one kind.

    n == 0 is a plain router: one forwarding operation.
    """
    if n < 0:
        raise errors.InvariantViolation(f"VNF count must be >= 0, got {n}")
    return units.cost(node_cost((kind,) * n))


# Encapsulation ----------------------------------------------------------

def _payload_length(srh: SegmentRoutingHeader, payload: bytes, what: str) -> int:
    """Outer payload length; :class:`errors.OversizedPacket` past 16 bits."""
    # ``wire``'s SRH length rule, on the segment list.
    payload_length = SRH_FIXED_LEN + SEGMENT_LEN * len(srh.segment_list) + len(payload)
    if payload_length > wire.MAX_PAYLOAD_LEN:
        raise errors.OversizedPacket(
            f"{what} payload of {payload_length} B exceeds {wire.MAX_PAYLOAD_LEN} B"
        )
    return payload_length


def _outer_packet(
    srh: SegmentRoutingHeader, payload: bytes, src: IPv6Address, dst: IPv6Address, what: str,
) -> Packet:
    """A fresh SR-encapsulated packet: default hop limit, zero traffic
    class and flow label."""
    header = tuple.__new__(Ipv6Header, (
        6, 0, 0, _payload_length(srh, payload, what), wire.NEXT_HEADER_ROUTING,
        wire.DEFAULT_HOP_LIMIT, src, dst,
    ))
    return _packet(header, srh, payload)


def encapsulate(inner: Packet, chain: VnfChain) -> Packet:
    """Wrap ``inner`` for the chain: outer src is the chain's ingress
    source, dst its first segment, the SRH (``chain.srh``) carries the
    whole path. Raises :class:`errors.OversizedPacket` when the result
    would not fit the 16-bit payload length."""
    return _outer_packet(
        chain.srh, wire.serialize_packet(inner), chain.ingress_source, chain.segments[0],
        "encapsulated",
    )


def decapsulate(outer: Packet) -> Packet:
    """Remove one encapsulation layer, returning the parsed inner packet."""
    srh = outer.srh  # the payload protocol, by ``wire``'s field rule
    next_header = outer.header.next_header if srh is None else srh.next_header
    if next_header != wire.NEXT_HEADER_IPV6:
        raise errors.NotEncapsulated(f"payload protocol is {next_header}, not IPv6-in-IPv6")
    return wire.parse_packet(outer.payload)


def advance_segment(
    packet: Packet, rungs: dict[int, Step] | None = None, hop_limit: int | None = None,
) -> Packet:
    """Step to the next segment: decrement segments_left, retarget dst.

    When the SRH is a registered rung (``rungs`` is ``ChainRegistry.rungs``)
    the packet takes the rung below, and only its IPv6 header is new; any
    other SRH is rebuilt with the decremented field. The new header
    carries ``hop_limit`` when one is given, else the packet's own."""
    srh = packet.srh
    step = None if rungs is None else rungs.get(id(srh))
    if step is not None and step[0] is srh:
        _, srh, dst = step
    else:
        if srh is None:
            raise errors.NoSrh("cannot advance a packet without an SRH")
        next_header, hdr_ext_len, routing_type, segments_left, last_entry, flags, tag, segments = srh
        if segments_left == 0:
            raise errors.AlreadyAtLastSegment("segments_left is already 0")
        segments_left -= 1
        dst = segments[segments_left]
        srh = tuple.__new__(SegmentRoutingHeader, (
            next_header, hdr_ext_len, routing_type, segments_left, last_entry, flags, tag, segments,
        ))
    version, traffic_class, flow_label, payload_length, outer_next, carried, src, _ = packet.header
    header = tuple.__new__(Ipv6Header, (
        version, traffic_class, flow_label, payload_length, outer_next,
        carried if hop_limit is None else hop_limit, src, dst,
    ))
    return _packet(header, srh, packet.payload)


def apply_edit(
    packet: Packet,
    edit: SegmentListEdit,
    permission: VnfPermission,
    registry: ChainRegistry | None = None,
) -> Packet:
    """Apply a permission-checked segment-list edit.

    Only the remaining (untraversed) part of the list may change; the
    already-walked suffix is preserved, and segments_left, last_entry,
    lengths and the destination address are all recomputed. Raises
    :class:`errors.OversizedPacket` when the longer SRH would pass 127
    segments or push the outer payload past 65,535 B.
    """
    srh = packet.srh
    if srh is None:
        raise errors.NoSrh("segment-list edit on a packet without an SRH")
    kind = edit.kind
    if kind not in _PERMITTED_BY_VALUE[permission._value_]:
        raise errors.EditPermissionDenied(
            f"{kind.value} not allowed at permission {permission.value}"
        )
    if registry is not None:
        keys = registry.sid_keys
        for address in edit.sids:
            if address_key(address) not in keys:
                raise errors.UnknownSidInEdit(f"edit references unregistered SID {address}")

    next_header, _, routing_type, segments_left, _, flags, tag, segments = srh
    # Remaining path in forward order: active segment first.
    remaining = segments[segments_left::-1]
    if kind is INSERT_AFTER_CURRENT:
        new_remaining = edit.sids + remaining
    elif kind is INSERT_AT:
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

    segment_list = tuple(reversed(new_remaining)) + segments[segments_left + 1 :]
    n = len(segment_list)
    if n > wire.MAX_SEGMENTS:
        raise errors.OversizedPacket(f"edited SRH of {n} segments exceeds {wire.MAX_SEGMENTS}")
    srh = tuple.__new__(SegmentRoutingHeader, (
        next_header, 2 * n, routing_type, len(new_remaining) - 1, n - 1, flags, tag, segment_list,
    ))
    version, traffic_class, flow_label, _, outer_next, hop_limit, src, _ = packet.header
    header = tuple.__new__(Ipv6Header, (
        version, traffic_class, flow_label, _payload_length(srh, packet.payload, "edited"),
        outer_next, hop_limit, src, new_remaining[0],
    ))
    return _packet(header, srh, packet.payload)


def reencap_unaware(back: UnawareReturn, returned: Packet) -> Packet:
    """Rebuild the outer header + SRH for a packet coming back from an
    SR-unaware VNF interface, statelessly from the univocal mapping.

    Works regardless of how the VNF modified the inner packet: nothing
    from the original encapsulation needs to be remembered. ``back`` is
    the interface's compiled return path (``ChainRegistry.unaware_return``):
    its chain, successor and SRH.
    """
    chain, successor, srh = back
    return _outer_packet(
        srh, wire.serialize_packet(returned), chain.ingress_source, successor, "re-encapsulated"
    )


def egress_process(packet: Packet) -> Packet:
    """At the final segment: strip the encapsulation for plain forwarding."""
    if packet.srh is not None and packet.srh.segments_left != 0:
        raise errors.NotLastSegment(
            f"segments_left is {packet.srh.segments_left}, packet is misrouted"
        )
    return decapsulate(packet)


# The SR/VNF connector ----------------------------------------------------

@dataclass
class NodeState:
    """One node compiled for the walk and the connector: hosted VNFs and
    ``local`` (the node's addresses and hosted SIDs) by the address's
    integer (``IPv6Address._ip``), ``returns``, the compiled return path
    (``ChainRegistry.unaware_return``) of each hosted SR-unaware VNF the
    registry maps, by the same key, the main routing table ``fib``, the
    ingress ``classifier`` (prefix to ``VnfChain``), the shared registry,
    the node's ledger and each hosted VNF's drop reason (``vnf <sid>``),
    by the same key."""

    node_id: str
    vnfs: dict[int, Vnf]
    returns: dict[int, UnawareReturn]
    registry: ChainRegistry
    ledger: CostLedger
    local: frozenset[int]
    fib: PrefixTable
    classifier: PrefixTable
    vnf_drops: dict[int, str]


@value_type
class ConnectorResult:
    """Connector outcome: the packet that leaves the connector, or
    ``None`` and the reason it was dropped, and the pass's (f, d, e).
    Intra-node VNF-to-VNF hand-offs never show up here; where the packet
    goes next is the walk's routing decision, not the connector's."""

    packet: Packet | None
    drop_reason: str | None = None
    cost: tuple[int, int, int] = (0, 0, 0)


_result = ConnectorResult._build


def connector_process(
    state: NodeState, packet: Packet, trace: Trace, vnf: Vnf, hop: int,
) -> ConnectorResult:
    """Run the per-SID pipeline for a packet addressed to a local VNF SID,
    looping while the next active segment is also hosted here, and record
    each step in ``trace``. ``vnf`` is the hosted VNF the packet's
    destination names, found by the walk, which has checked that the
    packet carries an SRH. ``hop`` is the walk's hop limit for the packet.

    The pass counts its f/d/e operations, returns them on the result and
    charges ``state.ledger`` once on the way out, also when a step raises.
    An SR-aware step is recorded by one ``trace.step`` after the VNF's
    behaviour returns, so a behaviour that raises leaves its step
    unrecorded. The pass's first SR-aware advance writes ``hop`` into the
    header it builds; later advances keep the hop limit of the packet
    they are handed. An SR-unaware VNF reached from the encapsulated
    packet reports the advance (``SEGMENT_ADVANCED`` with the next
    segment) and decapsulates the packet as it arrived, so ``hop`` is
    never used there: an SR-aware VNF after the re-encapsulation sees the
    new outer header's default hop limit.
    """
    add = trace.add
    node_id = state.node_id
    rungs = state.registry.rungs
    vnfs = state.vnfs

    current = packet           # encapsulated form
    plain: Packet | None = None  # decapsulated inner while among unaware VNFs
    steps = 0
    f = d = e = 0

    try:
        while True:
            steps += 1
            if steps > MAX_PIPELINE_STEPS:
                raise errors.PipelineLoop(
                    f"{steps - 1} VNF invocations on {state.node_id!r} without leaving the node"
                )
            sid = vnf.sid
            if sid.kind is SR_AWARE:
                # Only an unaware VNF is handed the plain packet, so here it is None.
                current = advance_segment(current, rungs, hop)
                hop = None  # later advances keep the hop limit they are handed
                f += 1
                action = vnf.behavior(current)
                trace.step(node_id, current.header.dst, sid.address)
                kind = action.kind
                if kind is DROP:
                    return _dropped(add, node_id, state.vnf_drops[sid.address._ip], (f, d, e))
                if kind is EDIT_CHAIN:
                    try:
                        current = apply_edit(action.packet, action.edit, vnf.permission, state.registry)
                    except errors.OversizedPacket as exc:
                        return _dropped(add, node_id, TrafficText(exc), (f, d, e))
                else:
                    current = action.packet
                if current.srh is None:
                    raise errors.NoSrh(f"SR-aware VNF {sid.address} must preserve the SRH")
                next_vnf = vnfs.get(current.header.dst._ip)
                if next_vnf is not None:
                    vnf = next_vnf  # direct resend toward the next local VNF
                    continue
                f += 2  # back to the connector, then to next hop
            else:
                if sid.kind is not SR_UNAWARE:
                    raise errors.UnknownSid(f"{sid.address} is an egress endpoint, not a VNF")
                if plain is None:
                    # Advance, then strip: the advanced outer packet would be
                    # thrown away at once, so only its new destination is read.
                    _, _, _, segments_left, _, _, _, segments = current.srh
                    if segments_left == 0:
                        raise errors.AlreadyAtLastSegment("segments_left is already 0")
                    add(node_id, SEGMENT_ADVANCED, segments[segments_left - 1])
                    plain = decapsulate(current)
                    hop = None  # a re-encapsulated packet starts at the default
                    d += 1
                    add(node_id, DECAPSULATED, None)
                f += 1
                add(node_id, VNF_DELIVERED, sid.address)
                action = vnf.behavior(plain)
                if action.kind is EDIT_CHAIN:
                    raise errors.InvalidEdit(
                        f"SR-unaware VNF {sid.address} sees no SRH and cannot edit it"
                    )
                add(node_id, VNF_RETURNED, sid.address)
                if action.kind is DROP:
                    return _dropped(add, node_id, state.vnf_drops[sid.address._ip], (f, d, e))
                plain = action.packet
                f += 1  # return leg to the connector
                back = state.returns.get(sid.address._ip)
                if back is None:  # unmapped: the registry raises UnivocalMappingMissing
                    back = state.registry.unaware_return(sid)
                next_vnf = vnfs.get(back.successor._ip)
                if next_vnf is not None and next_vnf.sid.kind is SR_UNAWARE:
                    vnf = next_vnf  # plain hand-off, no strip/rebuild in between
                    continue
                try:
                    current = reencap_unaware(back, plain)
                except errors.OversizedPacket as exc:
                    return _dropped(add, node_id, TrafficText(exc), (f, d, e))
                e += 1
                add(node_id, RE_ENCAPSULATED, current.header.dst)
                plain = None
                next_vnf = vnfs.get(current.header.dst._ip)
                if next_vnf is not None:
                    vnf = next_vnf  # mixed chain: aware VNF next door
                    continue
                f += 1  # forward to next hop
            return _result(current, None, (f, d, e))
    finally:
        ledger = state.ledger
        ledger.f_count += f
        ledger.d_count += d
        ledger.e_count += e


def _dropped(add, node_id: str, reason: str, cost: tuple[int, int, int]) -> ConnectorResult:
    add(node_id, DROPPED, reason)
    return _result(None, reason, cost)


_PROBE = Packet(Ipv6Header(  # a bare IPv6 header, with no next header
    6, 0, 0, 0, wire.NEXT_HEADER_NONE, wire.DEFAULT_HOP_LIMIT, IPv6Address(0), IPv6Address(0),
), None, b"")


def chain_problems(registry: ChainRegistry, vnfs: Iterable[Vnf]) -> list[str]:
    """The chains of ``registry`` whose header-only probe fails the
    connector's rewrites, each by its first ``SfcError`` and the SID that
    raised it. Only chain editors among ``vnfs`` touch the probe, any other
    VNF passes it on; the SIDs' kinds are the registry's."""
    editors = {vnf.sid.address: vnf for vnf in vnfs if isinstance(vnf.behavior, ChainEditor)}
    problems = []
    for chain in registry.chains.values():
        packet = encapsulate(_PROBE, chain)  # a bare header and 127 segments fit
        try:
            for _ in range(MAX_PIPELINE_STEPS):
                at = packet.header.dst
                sid = registry.sid(at)
                if sid.kind is EGRESS_ENDPOINT:
                    egress_process(packet)
                    break
                packet = advance_segment(packet, registry.rungs)
                editor = editors.get(at)
                if sid.kind is SR_UNAWARE:
                    if editor is not None:
                        raise errors.InvalidEdit(f"SR-unaware VNF {at} sees no SRH and cannot edit it")
                    packet = reencap_unaware(registry.unaware_return(sid), _PROBE)
                elif editor is not None:
                    packet = apply_edit(packet, editor.behavior.edit, editor.permission, registry)
            else:
                raise errors.PipelineLoop(f"{MAX_PIPELINE_STEPS} SID visits without reaching the egress")
        except errors.SfcError as exc:
            problems.append(f"chain {chain.chain_id!r} at {at}: {type(exc).__name__}: {exc}")
    return problems
