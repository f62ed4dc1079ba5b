"""Deterministic topology and packet-walking engine.

A network is a set of nodes joined by links, with static routing tables
and one shared chain registry. It compiles each node once into a
``dataplane.NodeState`` (routing and classifier tables, local addresses,
hosted VNFs, ledger), and a walk carries the record of the node it is
at. Packets are walked one at a time; there is no event-time
interleaving, so identical inputs always produce identical traces and
ledgers. Rates and capacity enter only via the benchmark's analytic
model.

Each walk returns the (f, d, e) it cost every node that charged it, in
first-charge order (``InjectResult.costs``); the per-node ledgers keep
aggregates only, so memory does not grow with the number of packets
walked.

A walk makes no Python call that does no work. It builds one outcome
(``Delivered`` or ``Dropped``) and one ``InjectResult``. ``inject``
reads the ingress's ``NodeState`` and the walk counter itself, and the
walk hands the connector its trace and the VNF it found and adds each
connector pass's cost to ``costs`` in place.

The packet path keeps the four idioms of ``wire``'s module docstring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from ipaddress import IPv6Address, IPv6Network

from srv6sfc import errors
from srv6sfc.chain import ChainRegistry, ClassifierRule, PrefixTable, Sid, SidKind
from srv6sfc.dataplane import (
    CostLedger,
    NodeState,
    UnitCosts,
    Vnf,
    connector_process,
    egress_process,
    encapsulate,
)
from srv6sfc.trace import (
    CLASSIFIED,
    DECAPSULATED,
    DELIVERED,
    DROPPED,
    ENCAPSULATED,
    FORWARDED,
    Trace,
    TrafficText,
)
from srv6sfc.wire import NEXT_HEADER_IPV6, Ipv6Header, Packet, clear_slot, udp_packet, value_type

# Visits to individual nodes before a walk is declared stuck. The hop
# limit normally fires first; each decapsulation restarts it from the
# inner header, so a packet nested in enough IPv6-in-IPv6 layers spends
# this budget instead.
MAX_NODE_VISITS = 4096


class NodeRole(Enum):
    INGRESS_EDGE = "ingress-edge"
    EGRESS_EDGE = "egress-edge"
    NFV_NODE = "nfv-node"
    PLAIN_ROUTER = "router"


@dataclass
class Node:
    """One router. The role is descriptive; behavior follows from what
    the node carries (rules classify, hosted VNFs intercept, addresses
    terminate)."""

    node_id: str
    role: NodeRole
    addresses: tuple[IPv6Address, ...]
    hosted_vnfs: tuple[Vnf, ...] = ()
    rules: tuple[ClassifierRule, ...] = ()
    routing_table: tuple[tuple[IPv6Network, str], ...] = ()

    def __post_init__(self):
        self.addresses = tuple(self.addresses)
        self.hosted_vnfs = tuple(self.hosted_vnfs)
        self.rules = tuple(self.rules)
        self.routing_table = tuple(self.routing_table)


class Network:
    """Validated topology plus per-node ledgers. Immutable during a run
    apart from the ledgers and the walk counter (``_next_uid``, which
    ``inject`` advances).

    Each node is compiled once, at construction, into the ``NodeState``
    the walk carries (``states``): its routes and classifier rules as
    prefix tables (the classifier maps a rule's prefix to the registered
    ``VnfChain``, so a rule naming no registered chain raises
    ``UnknownChain`` here), its local addresses and hosted VNFs keyed by
    the address's integer, the return path (``UnawareReturn``) of each hosted
    SR-unaware VNF that the registry maps, under the same key, and its
    ledger (also in ``ledgers``). A Node's ``routing_table``, ``rules``
    and ``addresses`` must not change afterwards, nor the registry's
    chains. Each hosted VNF's ``vnf <sid>`` drop reason is rendered here,
    into ``NodeState.vnf_drops``. ``event_memo`` and ``group_memo`` (see
    ``srv6sfc.trace``) and ``unrouted`` (``no route to <dst>`` by
    destination key, texts the memo never stores) fill as packets are
    walked, to at most ``event_limit`` entries each: per node, one per
    address, neighbour and fixed detail (Decapsulated and the hop-limit
    and visit-budget drops), two per classifier rule, four per hosted VNF
    and, where VNFs are hosted, two per SID. That holds every event of
    packets with no SRH of their own; the segments such an SRH brings
    take what room is left. The group memo holds one SR-aware step per
    (node, segment, SID) whose three events the event memo holds, and it
    stops at the same bound.
    """

    def __init__(
        self,
        nodes: dict[str, Node],
        links: set[frozenset[str]],
        registry: ChainRegistry,
        units: UnitCosts = UnitCosts(),
    ):
        self.nodes = nodes
        self.links = links
        self.registry = registry
        self.units = units
        self.ledgers: dict[str, CostLedger] = {}
        self.states: dict[str, NodeState] = {}
        self._next_uid = 0
        self.event_memo: dict[tuple, tuple] = {}
        self.group_memo: dict[tuple, tuple] = {}
        self.unrouted: dict[int | tuple[int, str], str] = {}
        self.event_limit = 2 * len(links)  # Forwarded, once per neighbour
        mapped = registry.returns
        for node in nodes.values():
            vnfs = {int(vnf.sid.address): vnf for vnf in node.hosted_vnfs}
            returns = {}
            for key, vnf in vnfs.items():
                sid = vnf.sid
                if sid.kind is SidKind.SR_UNAWARE:
                    back = mapped.get((sid.address, sid.interface))
                    if back is not None:
                        returns[key] = back
            ledger = self.ledgers[node.node_id] = CostLedger()
            self.states[node.node_id] = NodeState(
                node.node_id, vnfs, returns, registry, ledger,
                local=frozenset(map(int, node.addresses)).union(vnfs),
                fib=PrefixTable(node.routing_table),
                classifier=PrefixTable(
                    (rule.network, registry.chain(rule.chain_id)) for rule in node.rules
                ),
                vnf_drops={key: f"vnf {vnf.sid.address}" for key, vnf in vnfs.items()},
            )
            self.event_limit += len(node.addresses) + 2 * len(node.rules) + 3 + (
                4 * len(vnfs) + 2 * len(registry.sid_table) if vnfs else 0
            )

    def node(self, node_id: str) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise errors.UnknownNodeRef(f"no node {node_id!r}") from None

    def nfv_node_ids(self) -> tuple[str, ...]:
        return tuple(
            node_id for node_id, node in self.nodes.items() if node.role is NodeRole.NFV_NODE
        )


def topology_problems(
    nodes: list[Node], links: list[tuple[str, str]], sid_table: dict[IPv6Address, Sid]
) -> list[errors.SfcError]:
    """Every topology fault, in check order, each as the error
    ``build_network`` raises for it. Reads only node ids, roles, links,
    routes, rules and each hosted VNF's SID."""
    problems: list[errors.SfcError] = []
    add = problems.append
    if not nodes:
        add(errors.InvalidTopology("a network needs at least one node"))
    by_id: dict[str, Node] = {}
    for node in nodes:
        if node.node_id in by_id:
            add(errors.InvalidTopology(f"duplicate node id {node.node_id!r}"))
        by_id.setdefault(node.node_id, node)

    link_set: set[frozenset[str]] = set()
    for a, b in links:
        for end in (a, b):
            if end not in by_id:
                add(errors.UnknownNodeRef(f"link ({a}, {b}) references unknown node {end!r}"))
        if a == b:
            add(errors.InvalidTopology(f"self-link on {a!r}"))
        link_set.add(frozenset((a, b)))

    for node_id, node in by_id.items():
        for prefix, via in node.routing_table:
            if via not in by_id:
                add(errors.UnknownNodeRef(f"{node_id!r} routes {prefix} via unknown node {via!r}"))
            elif frozenset((node_id, via)) not in link_set:
                add(errors.UnreachableNextHop(
                    f"{node_id!r} routes {prefix} via {via!r}, which is not a linked neighbor"
                ))
        for vnf in node.hosted_vnfs:
            sid = vnf.sid
            if sid.host_node != node_id:
                add(errors.InvalidTopology(
                    f"VNF {sid.address} declares host {sid.host_node!r} but lives on {node_id!r}"
                ))
            if sid.address not in sid_table:
                add(errors.UnknownSid(f"hosted VNF SID {sid.address} not in the registry"))
        if node.hosted_vnfs and node.role is not NodeRole.NFV_NODE:
            add(errors.InvalidTopology(f"{node_id!r} hosts VNFs but is {node.role.value}"))
        if node.rules and node.role not in (NodeRole.INGRESS_EDGE, NodeRole.EGRESS_EDGE):
            add(errors.InvalidTopology(
                f"{node_id!r} carries classifier rules but is {node.role.value}"
            ))
    return problems


def build_network(
    nodes: list[Node],
    links: list[tuple[str, str]],
    registry: ChainRegistry,
    units: UnitCosts = UnitCosts(),
) -> Network:
    """Assemble and validate a network; the first of its
    ``topology_problems`` raises."""
    problems = topology_problems(nodes, links, registry.sid_table)
    if problems:
        raise problems[0]
    by_id = {node.node_id: node for node in nodes}
    return Network(by_id, {frozenset(pair) for pair in links}, registry, units)


# Walk outcomes ----------------------------------------------------------

@value_type
class Delivered:
    packet: Packet
    node_id: str


@value_type
class Dropped:
    node_id: str
    reason: str


@value_type
class InjectResult:
    """A walk's outcome, its trace, and the (f, d, e) it cost each node
    that charged it."""

    outcome: Delivered | Dropped
    trace: Trace
    costs: dict[str, tuple[int, int, int]]

    @property
    def delivered(self) -> bool:
        return isinstance(self.outcome, Delivered)


_packet, _delivered, _dropped = Packet._build, Delivered._build, Dropped._build
_inject_result = InjectResult._build


def _with_hop_limit(packet: Packet, hop_limit: int) -> Packet:
    """``packet`` carrying ``hop_limit``; the same object if it already does."""
    version, traffic_class, flow_label, payload_length, next_header, carried, src, dst = packet.header
    if carried == hop_limit:
        return packet
    header = tuple.__new__(Ipv6Header, (
        version, traffic_class, flow_label, payload_length, next_header, hop_limit, src, dst,
    ))
    return _packet(header, packet.srh, packet.payload)


def inject(
    network: Network,
    ingress: str,
    inner: Packet,
    *,
    terminal_only: bool = False,
) -> InjectResult:
    """Walk one packet from the ingress node to a terminal event.

    Classification and encapsulation happen at the ingress when a rule
    matches; otherwise the packet travels as plain IPv6. Every injected
    packet ends in exactly one Delivered or Dropped. The walk's number is
    ``result.trace.uid``; the packet itself carries none. Every charge
    lands in its node's ledger as it is made, so the ledgers hold all of
    a walk's charges also when it raises.
    """
    try:
        state = network.states[ingress]
    except KeyError:
        network.node(ingress)  # raises UnknownNodeRef
        raise
    uid = network._next_uid
    network._next_uid = uid + 1
    trace = Trace(uid, terminal_only, network.event_memo, network.event_limit, network.group_memo)
    costs: dict[str, tuple[int, int, int]] = {}
    outcome = _walk(network, state, inner, trace, costs)
    clear_slot()
    return _inject_result(outcome, trace, costs)


def _add_cost(costs: dict[str, tuple[int, int, int]], node_id: str, cost: tuple[int, int, int]) -> None:
    prior = costs.get(node_id)
    costs[node_id] = cost if prior is None else (
        prior[0] + cost[0], prior[1] + cost[1], prior[2] + cost[2]
    )


def classify_at_ingress(state: NodeState, packet: Packet, trace: Trace) -> Packet | Dropped:
    """A walk's first step: a packet one of the node's classifier rules
    matches is encapsulated for that rule's chain, or dropped at the node
    when the result would not fit; any other packet is returned as is."""
    chain = state.classifier.lookup(packet.header.dst)
    if chain is None:
        return packet
    trace.add(state.node_id, CLASSIFIED, chain.chain_id)
    try:
        packet = encapsulate(packet, chain)
    except errors.OversizedPacket as exc:
        reason = TrafficText(exc)
        trace.add(state.node_id, DROPPED, reason)
        return _dropped(state.node_id, reason)
    trace.add(state.node_id, ENCAPSULATED, packet.header.dst)
    return packet


def _walk(
    network: Network,
    state: NodeState,
    packet: Packet,
    trace: Trace,
    costs: dict[str, tuple[int, int, int]],
) -> Delivered | Dropped:
    """``inject``'s walk, carrying the current node's ``NodeState``: fills
    ``costs`` with the connector passes and plain forwards of each node.
    A plain hop decrements ``hop`` only. The connector gets ``hop`` with
    the packet, and its first SR-aware advance writes it into the header
    it builds; a packet gets it back before delivery. An SR-unaware pass
    and egress decapsulation drop the outer header, hop limit and all,
    unread, so the packet goes to them as it arrived; and ``hop``
    restarts from each packet they hand back.

    Every routing decision is the walk's, by one rule: a local
    destination is handled at the node, anything else goes where the
    node's FIB says. The packet a connector hands back follows it too, as
    in Linux, where the local table comes before the main one."""
    packet = classify_at_ingress(state, packet, trace)
    if type(packet) is Dropped:
        return packet

    states = network.states
    hop = packet.header.hop_limit
    visits = 0
    while True:
        node_id = state.node_id
        visits += 1
        if visits > MAX_NODE_VISITS:
            trace.add(node_id, DROPPED, "node visit budget exceeded")
            return _dropped(node_id, "node visit budget exceeded")

        header = packet.header
        dst = header.dst
        key = dst._ip
        srh = packet.srh
        vnf = None if srh is None else state.vnfs.get(key)
        if vnf is not None:
            result = connector_process(state, packet, trace, vnf, hop)
            cost = result.cost
            prior = costs.get(node_id)
            costs[node_id] = cost if prior is None else (
                prior[0] + cost[0], prior[1] + cost[1], prior[2] + cost[2]
            )
            packet = result.packet
            if packet is None:
                return _dropped(node_id, result.drop_reason)
            hop = packet.header.hop_limit
            if packet.header.dst._ip in state.local:
                continue
            next_hop = state.fib.lookup(packet.header.dst)
        elif key in state.local:
            # The payload protocol (``wire``'s field rule) is IPv6-in-IPv6.
            if (header.next_header if srh is None else srh.next_header) == NEXT_HEADER_IPV6:
                packet = egress_process(packet)
                hop = packet.header.hop_limit
                trace.add(node_id, DECAPSULATED, None)
                continue
            trace.add(node_id, DELIVERED, dst)
            return _delivered(_with_hop_limit(packet, hop), node_id)
        else:
            next_hop = state.fib.lookup(dst)
            if next_hop is not None:  # plain router cost, charged as it is made
                state.ledger.f_count += 1
                prior = costs.get(node_id)
                costs[node_id] = (1, 0, 0) if prior is None else (prior[0] + 1, prior[1], prior[2])

        if next_hop is None:
            dst = packet.header.dst
            key = dst._ip if dst._scope_id is None else (dst._ip, dst._scope_id)
            reason = network.unrouted.get(key) or TrafficText(f"no route to {dst}")
            if len(network.unrouted) < network.event_limit:
                network.unrouted[key] = reason
            trace.add(node_id, DROPPED, reason)
            return _dropped(node_id, reason)
        if hop <= 1:
            trace.add(node_id, DROPPED, "hop limit exceeded")
            return _dropped(node_id, "hop limit exceeded")
        hop -= 1
        trace.add(node_id, FORWARDED, next_hop)
        state = states[next_hop]


# Flows -------------------------------------------------------------------

@dataclass(frozen=True)
class FlowSpec:
    ingress: str
    src: IPv6Address
    dst: IPv6Address
    count: int = 1
    payload_size: int = 1024
    src_port: int = 40000
    dst_port: int = 5201


@dataclass
class FlowSummary:
    delivered: int = 0
    dropped: int = 0
    drop_reasons: dict[str, int] = field(default_factory=dict)
    # Per-node (f, d, e) this flow's walks returned (``InjectResult.costs``).
    ledger_deltas: dict[str, tuple[int, int, int]] = field(default_factory=dict)
    delivered_packets: list[Packet] = field(default_factory=list)

    @property
    def total(self) -> int:
        return self.delivered + self.dropped

    def add(self, result: InjectResult) -> None:
        """Count one walk: its outcome, its drop reason, its per-node costs."""
        for node_id, cost in result.costs.items():
            _add_cost(self.ledger_deltas, node_id, cost)
        if result.delivered:
            self.delivered += 1
        else:
            self.dropped += 1
            reason = result.outcome.reason
            self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + 1


def flow_payload(uid: int, size: int) -> bytes:
    """Deterministic per-packet payload so bit-exactness is meaningful."""
    if size <= 0:
        return b""
    word = uid.to_bytes(8, "big")
    return (word * ((size + 7) // 8))[:size]


def flow_packet(flow: FlowSpec, index: int) -> Packet:
    """Packet ``index`` of the flow."""
    return udp_packet(
        flow.src,
        flow.dst,
        flow_payload(index, flow.payload_size),
        src_port=flow.src_port,
        dst_port=flow.dst_port,
    )


def run_flow(network: Network, flow: FlowSpec, *, keep_delivered: bool = False) -> FlowSummary:
    """Inject ``flow.count`` packets and summarize outcomes and costs."""
    if flow.count < 1:
        raise ValueError(f"flow count must be >= 1, got {flow.count}")
    summary = FlowSummary()
    for i in range(flow.count):
        result = inject(network, flow.ingress, flow_packet(flow, i), terminal_only=True)
        summary.add(result)
        if keep_delivered and result.delivered:
            summary.delivered_packets.append(result.outcome.packet)
    return summary
