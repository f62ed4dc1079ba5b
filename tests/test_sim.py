"""Topology walks: trace order, conservation, determinism, loop guards."""

from __future__ import annotations

import copy
import dataclasses
import gc
import json
import pickle
import sys
import tracemalloc
from dataclasses import replace
from enum import EnumType
from ipaddress import IPv6Address, IPv6Network

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ER1,
    ER2,
    SINK,
    SRC,
    chain8_config,
    chain_testbed,
    count_codec_work,
    guard_walks,
    router_line,
)
from srv6sfc import errors, wire
from srv6sfc.chain import (
    ChainRegistry,
    ClassifierRule,
    Sid,
    SidKind,
    VnfChain,
    classify,
    longest_prefix_match,
)
from srv6sfc.config import load_config, parse_config_text, read_address
from srv6sfc.dataplane import (
    ActionKind,
    PassThroughRouter,
    PayloadStamper,
    PrefixFilter,
    SegmentListEdit,
    Vnf,
    VnfAction,
    encapsulate,
    node_cost,
)
from srv6sfc.sim import (
    Delivered,
    Dropped,
    FlowSpec,
    InjectResult,
    Network,
    Node,
    NodeRole,
    build_network,
    flow_packet,
    flow_payload,
    inject,
    run_flow,
    topology_problems,
)
from srv6sfc.trace import FORWARDED, EventKind, Trace
from srv6sfc.wire import serialize_packet, udp_packet

EXPECTED_TESTBED_TRACE = [
    ("er1", EventKind.CLASSIFIED),
    ("er1", EventKind.ENCAPSULATED),
    ("er1", EventKind.FORWARDED),
    ("nfv", EventKind.SEGMENT_ADVANCED),
    ("nfv", EventKind.DECAPSULATED),
    ("nfv", EventKind.VNF_DELIVERED),
    ("nfv", EventKind.VNF_RETURNED),
    ("nfv", EventKind.RE_ENCAPSULATED),
    ("nfv", EventKind.FORWARDED),
    ("er2", EventKind.DECAPSULATED),
    ("er2", EventKind.DELIVERED),
]


def inner_packet(payload=b"payload!"):
    return udp_packet(SRC, SINK, payload)


# Construction ------------------------------------------------------------------

def test_build_testbed_shape():
    network, _ = chain_testbed()
    assert len(network.nodes) == 3
    assert len(network.links) == 2
    assert network.nfv_node_ids() == ("nfv",)


def test_build_rejects_unlinked_next_hop():
    registry = ChainRegistry()
    nodes = [
        Node("a", NodeRole.PLAIN_ROUTER, (IPv6Address("::1"),),
             routing_table=((IPv6Network("::/0"), "b"),)),
        Node("b", NodeRole.PLAIN_ROUTER, (IPv6Address("::2"),)),
    ]
    with pytest.raises(errors.UnreachableNextHop):
        build_network(nodes, [], registry)


def test_build_rejects_unknown_link_node():
    registry = ChainRegistry()
    nodes = [Node("a", NodeRole.PLAIN_ROUTER, (IPv6Address("::1"),))]
    with pytest.raises(errors.UnknownNodeRef):
        build_network(nodes, [("a", "ghost")], registry)


def test_build_rejects_empty_network():
    with pytest.raises(errors.InvalidTopology):
        build_network([], [], ChainRegistry())


def test_build_rejects_misplaced_vnf():
    network, _ = chain_testbed()
    vnf = network.nodes["nfv"].hosted_vnfs[0]
    nodes = [Node("elsewhere", NodeRole.NFV_NODE, (IPv6Address("::1"),), hosted_vnfs=(vnf,))]
    with pytest.raises(errors.InvalidTopology):
        build_network(nodes, [], network.registry)


def test_build_rejects_a_rule_for_an_unregistered_chain():
    # The classifier is compiled to chains, so the rule fails the build,
    # not the first packet it matches.
    network, _ = chain_testbed()
    er1 = replace(network.nodes["er1"], rules=(ClassifierRule(IPv6Network("DDDD::/64"), "gone"),))
    with pytest.raises(errors.UnknownChain, match="^no chain 'gone'$"):
        Network({**network.nodes, "er1": er1}, network.links, network.registry)


def test_topology_problems_reports_every_fault():
    network, _ = chain_testbed()
    vnf = network.nodes["nfv"].hosted_vnfs[0]
    nodes = [
        Node("a", NodeRole.PLAIN_ROUTER, (IPv6Address("::1"),), hosted_vnfs=(vnf,),
             routing_table=((IPv6Network("::/0"), "b"),)),
        Node("a", NodeRole.PLAIN_ROUTER, (IPv6Address("::2"),)),
        Node("b", NodeRole.NFV_NODE, (IPv6Address("::3"),),
             rules=(ClassifierRule(IPv6Network("::/0"), "c1"),)),
    ]
    links = [("a", "a"), ("b", "ghost")]
    problems = topology_problems(nodes, links, {})
    assert [(type(p), str(p)) for p in problems] == [
        (errors.InvalidTopology, "duplicate node id 'a'"),
        (errors.InvalidTopology, "self-link on 'a'"),
        (errors.UnknownNodeRef, "link (b, ghost) references unknown node 'ghost'"),
        (errors.UnreachableNextHop, "'a' routes ::/0 via 'b', which is not a linked neighbor"),
        (errors.InvalidTopology, "VNF bbbb::2 declares host 'nfv' but lives on 'a'"),
        (errors.UnknownSid, "hosted VNF SID bbbb::2 not in the registry"),
        (errors.InvalidTopology, "'a' hosts VNFs but is router"),
        (errors.InvalidTopology, "'b' carries classifier rules but is nfv-node"),
    ]
    with pytest.raises(errors.InvalidTopology, match="^duplicate node id 'a'$"):
        build_network(nodes, links, ChainRegistry())
    assert [str(p) for p in topology_problems([], [("x", "y")], {})] == [
        "a network needs at least one node",
        "link (x, y) references unknown node 'x'",
        "link (x, y) references unknown node 'y'",
    ]


def test_built_tables_agree_with_reference_lookups(testbed_config_path):
    network = load_config(testbed_config_path).build_network()
    for node_id, node in network.nodes.items():
        prefixes = [n for n, _ in node.routing_table] + [r.network for r in node.rules]
        probes = [IPv6Address("::"), IPv6Address("FFFF::1")]
        for prefix in prefixes:  # first, last and just past each prefix
            probes += [prefix.network_address, prefix.broadcast_address,
                       prefix.broadcast_address + 1]
        state = network.states[node_id]
        for address in probes:
            assert state.fib[address._ip] == longest_prefix_match(node.routing_table, address)
            chain = state.classifier[address._ip]
            assert (chain and chain.chain_id) == classify(node.rules, address)
            assert chain is None or chain is network.registry.chain(chain.chain_id)


# Walks --------------------------------------------------------------------------

def test_testbed_trace_order():
    network, _ = chain_testbed()
    result = inject(network, "er1", inner_packet())
    assert isinstance(result.outcome, Delivered)
    assert result.outcome.node_id == "er2"
    assert [(e.node, e.kind) for e in result.trace] == EXPECTED_TESTBED_TRACE


def test_inject_stamps_uid_on_both_paths():
    network, _ = chain_testbed()
    chained = inject(network, "er1", udp_packet(SRC, SINK, b"x"))
    plain = inject(network, "er1", udp_packet(SRC, IPv6Address("CCCC::1"), b"x"))
    assert (chained.trace.uid, plain.trace.uid) == (0, 1)


def test_walk_calls_the_hosted_vnf_objects(testbed_config_path):
    # Tools that wrap a built network's VNF behaviors (the benchmark
    # counts VNF calls this way) rely on the walk's compiled node state
    # holding the very ``Vnf`` objects of ``Node.hosted_vnfs``.
    network = load_config(testbed_config_path).build_network()
    vnf = network.nodes["nfv"].hosted_vnfs[0]
    behavior, calls = vnf.behavior, []

    def counted(packet):
        calls.append(packet)
        return behavior(packet)

    vnf.behavior = counted
    assert inject(network, "er1", udp_packet(SRC, SINK, b"x")).delivered
    assert len(calls) == 1


@pytest.mark.parametrize("default_route", [False, True], ids=["no-default", "default-via-er2"])
def test_connector_output_for_a_local_address_stays_at_the_node(default_route):
    # The chain ends at BBBB::1, an address of nfv itself. The walk routes
    # what the connector hands back like any packet, local addresses
    # first, so a default route on nfv cannot send it away.
    local_egress = IPv6Address("BBBB::1")
    network, _ = chain_testbed(
        1, SidKind.SR_AWARE, extra_sids=(Sid(local_egress, SidKind.EGRESS_ENDPOINT, "nfv"),)
    )
    chain = VnfChain("local", (IPv6Address("BBBB::2"), local_egress), ER1)
    network.registry.register_chain(chain)
    if default_route:
        nodes = dict(network.nodes)
        nodes["nfv"] = replace(
            nodes["nfv"], routing_table=nodes["nfv"].routing_table + ((IPv6Network("::/0"), "er2"),)
        )
        network = build_network(list(nodes.values()), [("er1", "nfv"), ("nfv", "er2")], network.registry)
    result = inject(network, "er1", encapsulate(udp_packet(SRC, SINK, b"x"), chain))
    assert result.outcome == Delivered(udp_packet(SRC, SINK, b"x", hop_limit=63), "er2")
    assert [(e.node, e.kind) for e in result.trace] == [
        ("er1", EventKind.FORWARDED),
        ("nfv", EventKind.SEGMENT_ADVANCED),
        ("nfv", EventKind.VNF_DELIVERED),
        ("nfv", EventKind.VNF_RETURNED),
        ("nfv", EventKind.DECAPSULATED),
        ("nfv", EventKind.FORWARDED),
        ("er2", EventKind.DELIVERED),
    ]
    assert result.costs == {"nfv": (4, 0, 0), "er1": (1, 0, 0)}


def test_unmatched_packet_forwarded_plain():
    network, _ = chain_testbed()
    stray = udp_packet(SRC, IPv6Address("CCCC::1"), b"x")  # no rule for CCCC::/64
    result = inject(network, "er1", stray)
    assert isinstance(result.outcome, Delivered)
    assert result.outcome.node_id == "nfv"
    kinds = {e.kind for e in result.trace}
    assert EventKind.ENCAPSULATED not in kinds
    assert EventKind.CLASSIFIED not in kinds


def test_filter_drop_terminates_walk():
    network, _ = chain_testbed(1, behaviors=[PrefixFilter(IPv6Network("DDDD::/64"))])
    result = inject(network, "er1", inner_packet())
    assert isinstance(result.outcome, Dropped)
    assert result.outcome.node_id == "nfv"
    assert result.trace.events[-1].kind is EventKind.DROPPED


def test_oversized_packet_dropped_at_ingress():
    network, _ = chain_testbed()
    # 40 B SRH + 40 B inner header + 8 B UDP + 65447 B fill the 16-bit payload length.
    fits = inner_packet(b"x" * 65447)
    result = inject(network, "er1", fits)
    assert isinstance(result.outcome, Delivered)
    assert serialize_packet(result.outcome.packet) == serialize_packet(fits)

    before = {node_id: ledger.counts() for node_id, ledger in network.ledgers.items()}
    result = inject(network, "er1", inner_packet(b"x" * 65448))
    assert result.outcome == Dropped("er1", "encapsulated payload of 65536 B exceeds 65535 B")
    assert [(e.node, e.kind, e.detail) for e in result.trace] == [
        ("er1", EventKind.CLASSIFIED, "c1"),
        ("er1", EventKind.DROPPED, result.outcome.reason),
    ]
    assert {node_id: ledger.counts() for node_id, ledger in network.ledgers.items()} == before


def test_no_route_drops_with_reason():
    registry = ChainRegistry()
    nodes = [
        Node("a", NodeRole.PLAIN_ROUTER, (IPv6Address("::1"),)),
    ]
    network = build_network(nodes, [], registry)
    result = inject(network, "a", udp_packet(SRC, IPv6Address("9999::9"), b""))
    assert isinstance(result.outcome, Dropped)
    assert "no route" in result.outcome.reason


def test_routing_loop_hits_hop_limit():
    registry = ChainRegistry()
    nodes = [
        Node("a", NodeRole.PLAIN_ROUTER, (IPv6Address("::1"),),
             routing_table=((IPv6Network("9999::/64"), "b"),)),
        Node("b", NodeRole.PLAIN_ROUTER, (IPv6Address("::2"),),
             routing_table=((IPv6Network("9999::/64"), "a"),)),
    ]
    network = build_network(nodes, [("a", "b")], registry)
    result = inject(network, "a", udp_packet(SRC, IPv6Address("9999::9"), b""))
    assert isinstance(result.outcome, Dropped)
    assert result.outcome.reason == "hop limit exceeded"
    forwards = sum(1 for e in result.trace if e.kind is EventKind.FORWARDED)
    assert forwards == 63  # hop limit 64, dropped before the would-be 64th


def test_determinism_identical_traces_and_ledgers():
    runs = []
    for _ in range(2):
        network, _ = chain_testbed(3)
        result = inject(network, "er1", inner_packet())
        runs.append(
            (
                [(e.node, e.kind, e.detail) for e in result.trace],
                {n: led.counts() for n, led in network.ledgers.items()},
                serialize_packet(result.outcome.packet),
            )
        )
    assert runs[0] == runs[1]


def test_chain_order_fidelity():
    network, chain = chain_testbed(3)
    result = inject(network, "er1", inner_packet())
    delivered_to = [
        e.detail for e in result.trace if e.kind is EventKind.VNF_DELIVERED
    ]
    assert delivered_to == [str(a) for a in chain.segments[:-1]]


def test_intra_node_handoffs_do_not_emit_forwards():
    network, _ = chain_testbed(4)
    result = inject(network, "er1", inner_packet())
    forwards = [e for e in result.trace if e.kind is EventKind.FORWARDED]
    assert len(forwards) == 2  # er1 -> nfv, nfv -> er2 only


def test_payload_integrity_through_modifying_vnf():
    # A stamping VNF changes the first payload byte; re-encapsulation
    # still carries the modified packet end to end.
    network, _ = chain_testbed(1, behaviors=[PayloadStamper(0xAB)])
    inner = inner_packet(b"payload!")
    result = inject(network, "er1", inner)
    assert isinstance(result.outcome, Delivered)
    final = result.outcome.packet
    assert final.payload[0] == 0xAB
    assert final.payload[1:] == inner.payload[1:]


def test_trace_jsonl_shape():
    network, _ = chain_testbed()
    result = inject(network, "er1", inner_packet())
    lines = result.trace.to_jsonl().splitlines()
    assert len(lines) == len(EXPECTED_TESTBED_TRACE)
    first = json.loads(lines[0])
    assert first == {"uid": 0, "node": "er1", "event": "Classified", "detail": "c1"}


def test_terminal_only_trace_keeps_outcome_event():
    network, _ = chain_testbed()
    result = inject(network, "er1", inner_packet(), terminal_only=True)
    assert [e.kind for e in result.trace] == [EventKind.DELIVERED]


# Flows ---------------------------------------------------------------------------

def test_run_flow_conservation_all_delivered():
    network, _ = chain_testbed()
    summary = run_flow(network, FlowSpec("er1", SRC, SINK, count=1000, payload_size=64))
    assert summary.delivered == 1000
    assert summary.dropped == 0
    assert summary.total == 1000
    # d + 3f + e per packet at the NFV node.
    assert summary.ledger_deltas["nfv"] == (3000, 1000, 1000)


def test_run_flow_filter_drops_all():
    network, _ = chain_testbed(1, behaviors=[PrefixFilter(IPv6Network("DDDD::/64"))])
    summary = run_flow(network, FlowSpec("er1", SRC, SINK, count=100))
    assert summary.dropped == 100
    assert summary.delivered == 0


def test_run_flow_mixed_outcomes_conserve():
    # Filter matches only the steered destination; a second flow to an
    # unfiltered address rides the same chain config untouched.
    network, _ = chain_testbed(
        1, behaviors=[PrefixFilter(IPv6Network("DDDD::2/128"))]
    )
    steered = run_flow(network, FlowSpec("er1", SRC, SINK, count=50))
    plain = run_flow(network, FlowSpec("er1", SRC, IPv6Address("CCCC::1"), count=50))
    assert steered.dropped == 50
    assert plain.delivered == 50
    assert steered.total + plain.total == 100


def test_run_flow_payload_bit_identical():
    network, _ = chain_testbed()
    flow = FlowSpec("er1", SRC, SINK, count=20, payload_size=128)
    summary = run_flow(network, flow, keep_delivered=True)
    for index, packet in enumerate(summary.delivered_packets):
        expected = udp_packet(SRC, SINK, flow_payload(index, 128))
        assert serialize_packet(packet) == serialize_packet(expected)


def test_run_flow_rejects_zero_count():
    network, _ = chain_testbed()
    with pytest.raises(ValueError):
        run_flow(network, FlowSpec("er1", SRC, SINK, count=0))


def test_inject_unknown_ingress():
    network, _ = chain_testbed()
    with pytest.raises(errors.UnknownNodeRef, match="^no node 'ghost'$"):
        inject(network, "ghost", inner_packet())
    # The refused walk takes no number.
    assert inject(network, "er1", inner_packet()).trace.uid == 0


def test_misrouted_egress_raises_not_last_segment():
    # A chain whose first hop is the egress address with one segment
    # still pending: build by hand-encapsulating with segments_left=1
    # and destination already at the egress.
    from dataclasses import replace as dc_replace
    from srv6sfc.dataplane import encapsulate

    network, chain = chain_testbed()
    outer = encapsulate(inner_packet(), chain)
    misrouted = dc_replace(outer, header=outer.header._replace(dst=ER2))
    with pytest.raises(errors.NotLastSegment):
        inject(network, "er2", misrouted)


# Hop limit: carried by the walk, written back where the packet is seen ---------

@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(st.integers(2, 8), st.lists(st.integers(1, 12), min_size=1, max_size=4))
def test_hop_limit_runs_out_where_it_predicts(routers, hop_limits):
    network = router_line(routers)
    plain_hops = routers - 1
    for hop_limit in hop_limits:  # one network: nothing carries over between walks
        payload = bytes([hop_limit]) * 8
        result = inject(network, "r0", udp_packet(SRC, SINK, payload, hop_limit=hop_limit))
        forwards = [event.node for event in result.trace if event.kind is EventKind.FORWARDED]
        if hop_limit <= plain_hops:
            # Leaving r{i} needs more than one hop left; r{hop_limit-1} has exactly one.
            assert result.outcome == Dropped(f"r{hop_limit - 1}", "hop limit exceeded")
            assert forwards == [f"r{i}" for i in range(hop_limit - 1)]
        else:
            expected = udp_packet(SRC, SINK, payload, hop_limit=hop_limit - plain_hops)
            assert result.outcome == Delivered(expected, f"r{plain_hops}")
            assert serialize_packet(result.outcome.packet) == serialize_packet(expected)
            assert forwards == [f"r{i}" for i in range(plain_hops)]


def test_reencapsulated_outer_header_restarts_at_default_hop_limit():
    """er1 -> r1 -> nfv1 (aware A1, unaware U) -> nfv2 (aware A2) -> er2.
    A1 sees the outer header two hops after encapsulation; U's rebuilt
    outer header starts again at 64, so A2, one hop on, sees 63."""
    a1, u, a2 = IPv6Address("BBBB::2"), IPv6Address("BBBB::3"), IPv6Address("FFFF::2")
    registry = ChainRegistry()
    for address, kind, host in (
        (a1, SidKind.SR_AWARE, "nfv1"), (u, SidKind.SR_UNAWARE, "nfv1"),
        (a2, SidKind.SR_AWARE, "nfv2"), (ER2, SidKind.EGRESS_ENDPOINT, "er2"),
    ):
        registry.add_sid(Sid(address, kind, host))
    registry.register_chain(VnfChain("c1", (a1, u, a2, ER2), ER1))
    seen = []

    def record(packet):
        seen.append((packet.header.dst, packet.header.hop_limit))
        return VnfAction.forward(packet)

    def routes(*pairs):
        return tuple((IPv6Network(prefix), via) for prefix, via in pairs)

    onward = ("BBBB::/64", "FFFF::/64", "CCCC::/64")
    nodes = [
        Node("er1", NodeRole.INGRESS_EDGE, (ER1, SRC),
             rules=(ClassifierRule(IPv6Network("DDDD::/64"), "c1"),),
             routing_table=routes(*((prefix, "r1") for prefix in onward))),
        Node("r1", NodeRole.PLAIN_ROUTER, (),
             routing_table=routes(*((prefix, "nfv1") for prefix in onward))),
        Node("nfv1", NodeRole.NFV_NODE, (),
             hosted_vnfs=(Vnf(registry.sid(a1), record), Vnf(registry.sid(u), PassThroughRouter())),
             routing_table=routes(("FFFF::/64", "nfv2"), ("CCCC::/64", "nfv2"))),
        Node("nfv2", NodeRole.NFV_NODE, (), hosted_vnfs=(Vnf(registry.sid(a2), record),),
             routing_table=routes(("CCCC::/64", "er2"))),
        Node("er2", NodeRole.EGRESS_EDGE, (ER2, SINK)),
    ]
    links = [("er1", "r1"), ("r1", "nfv1"), ("nfv1", "nfv2"), ("nfv2", "er2")]
    network = build_network(nodes, links, registry)
    inner = udp_packet(SRC, SINK, b"payload!", hop_limit=9)
    result = inject(network, "er1", inner)
    # A1 is entered after the segment advance, so its dst is already U.
    assert seen == [(u, 62), (ER2, 63)]
    # The inner header is never decremented while it is tunnelled.
    assert result.outcome == Delivered(inner, "er2")


@pytest.mark.parametrize(
    "kinds,expected",
    [
        # The strip drops the walk's hop limit with the outer header, and
        # the re-encapsulated packet the aware VNF gets starts again at 64.
        ((SidKind.SR_UNAWARE, SidKind.SR_AWARE), [64]),
        # The walk's hop limit goes to the pass's first aware advance only;
        # the next one keeps what the first VNF handed back.
        ((SidKind.SR_AWARE, SidKind.SR_AWARE), [63, 7]),
    ],
)
def test_an_aware_vnf_sees_the_hop_limit_of_the_packet_it_is_handed(kinds, expected):
    """er1 -> nfv -> er2, both VNFs on nfv: the walk reaches nfv with one
    hop spent. Each aware VNF records the hop limit it sees and hands
    the packet back with a hop limit of 7."""
    seen = []

    def record(packet):
        seen.append(packet.header.hop_limit)
        return VnfAction.forward(replace(packet, header=packet.header._replace(hop_limit=7)))

    behaviors = [record if kind is SidKind.SR_AWARE else PassThroughRouter() for kind in kinds]
    network, _ = chain_testbed(len(kinds), kinds, behaviors=behaviors)
    result = inject(network, "er1", udp_packet(SRC, SINK, b"payload!"))
    assert result.delivered
    assert seen == expected


# Walk costs: the cost law on random mixed chains, bounded memory ---------------

TERMINAL = (EventKind.DELIVERED, EventKind.DROPPED)


@st.composite
def mixed_chains(draw):
    """1-8 VNF kinds in chain order, and where a prefix filter sits (if
    anywhere) and whether it drops what it sees."""
    kinds = draw(
        st.lists(st.sampled_from((SidKind.SR_AWARE, SidKind.SR_UNAWARE)), min_size=1, max_size=8)
    )
    filter_at = draw(st.none() | st.integers(0, len(kinds) - 1))
    drops = filter_at is not None and draw(st.booleans())
    return tuple(kinds), filter_at, drops


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(mixed_chains(), st.lists(st.integers(0, 300), min_size=1, max_size=3))
def test_walk_costs_follow_the_cost_law(chain, payload_sizes):
    kinds, filter_at, drops = chain
    behaviors = [PassThroughRouter() for _ in kinds]
    if filter_at is not None:
        behaviors[filter_at] = PrefixFilter(IPv6Network("::/0" if drops else "FFFF::/16"))
    network, _ = chain_testbed(len(kinds), kinds, behaviors=behaviors)
    drop_at = filter_at if drops else None
    steered = {"er1": (1, 0, 0), "nfv": node_cost(kinds, drop_at)}
    plain = {"er1": (1, 0, 0)}  # routed to the NFV node's own address
    results = []
    for size in payload_sizes:
        for dst, expected in ((SINK, steered), (IPv6Address("CCCC::1"), plain)):
            result = inject(network, "er1", udp_packet(SRC, dst, bytes(size)))
            terminals = [event for event in result.trace if event.kind in TERMINAL]
            assert len(terminals) == 1 and result.trace.events[-1] is terminals[0]
            assert result.delivered is (dst != SINK or drop_at is None)
            assert result.costs == expected
            results.append(result)
    for node_id, ledger in network.ledgers.items():
        per_packet = [result.costs.get(node_id, (0, 0, 0)) for result in results]
        assert ledger.counts() == tuple(map(sum, zip(*per_packet)))


def test_long_runs_retain_no_memory_per_packet(testbed_config_path):
    network = load_config(testbed_config_path).build_network()
    flow = FlowSpec("er1", SRC, SINK, payload_size=64)

    def walk(count: int) -> int:
        """Bytes still allocated after walking ``count`` more packets."""
        for index in range(count):
            inject(network, "er1", flow_packet(flow, index), terminal_only=True)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    walk(100)  # first-use allocations: memos, interned small objects
    tracemalloc.start()
    try:
        start = walk(0)
        after_1k = walk(1_000) - start
        after_11k = walk(10_000) - start
    finally:
        tracemalloc.stop()
    # Flat: ten times the packets leave no more behind. Per-packet records
    # would keep hundreds of bytes each, megabytes over these 10k packets.
    assert after_11k - after_1k < 16 * 1024, (after_1k, after_11k)


# The packet path's call guard is ``tests/test_census.py``. Each test below
# checks what its table does not, as the test's first line says. -------------

def test_ip_slot_is_the_address_integer():
    # Beside the census: it checks a value, ``a._ip == int(a)``, not a call.
    # An ``ipaddress`` that renamed the slot fails here, for addresses from
    # every source the walk sees.
    parsed = wire.parse_packet(serialize_packet(udp_packet(SRC, SINK, b"slot")))
    chain = VnfChain("c", (IPv6Address("BBBB::2"), ER2), ER1)
    sources = [
        read_address("BBBB::2"), read_address("fe80::1%eth0"),
        parsed.header.src, parsed.header.dst,
        udp_packet(SRC, SINK).header.dst,
        *chain.srh.segment_list,
    ]
    for address in sources:
        assert type(address._ip) is int and address._ip == int(address)
        assert address._ip.to_bytes(16, "big") == address.packed


def test_walks_make_the_pinned_trace_calls(testbed_config_path, monkeypatch):
    # Beside the census: it mirrors perfbench's trace pins. Per packet, as
    # perfbench's traced run counts them: ``Trace.add`` calls
    # (``trace.Trace.add.calls_per_pkt``), the events kept
    # (``trace.kept_ratio``) and the Forwarded adds (``sim.hops_per_pkt``);
    # and the SR-aware steps, each recorded by one ``Trace.step``.
    cases = {
        "testbed": (load_config(testbed_config_path).build_network(), 64, True),
        "chain8": (parse_config_text(chain8_config()).build_network(), 1024, False),
    }
    add, step = Trace.add, Trace.step
    counts: dict[str, int] = {}

    def counted(self, node, kind, detail=None):
        counts["add"] += 1
        counts["forwarded"] += kind is FORWARDED
        return add(self, node, kind, detail)

    def counted_step(self, node, dst, sid):
        counts["step"] += 1
        return step(self, node, dst, sid)

    monkeypatch.setattr(Trace, "add", counted)
    monkeypatch.setattr(Trace, "step", counted_step)
    seen = {}
    for name, (network, size, terminal_only) in cases.items():
        counts.update(add=0, step=0, forwarded=0, kept=0)
        for index in range(4):
            packet = udp_packet(SRC, SINK, bytes([index]) * size, src_port=1024 + index)
            result = inject(network, "er1", packet, terminal_only=terminal_only)
            assert result.delivered
            counts["kept"] += len(result.trace.events)
        seen[name] = {key: count / 4 for key, count in counts.items()}
    assert seen == {
        "testbed": {"add": 11, "step": 0, "forwarded": 2, "kept": 1},
        "chain8": {"add": 6, "step": 8, "forwarded": 2, "kept": 30},
    }


def test_walks_read_no_enum_member_through_its_class(testbed_config_path, monkeypatch):
    # Beside the census: reading ``EventKind.DROPPED`` through its class
    # makes no profile event. The walk reads the module constants instead.
    walks = guard_walks(testbed_config_path).values()
    for walk in walks:
        walk()  # warm-up
    reads: dict[str, int] = {}
    class_attribute = type.__getattribute__

    def counted_read(cls, name):
        if name in class_attribute(cls, "_member_map_"):
            key = f"{class_attribute(cls, '__qualname__')}.{name}"
            reads[key] = reads.get(key, 0) + 1
        return class_attribute(cls, name)

    monkeypatch.setattr(EnumType, "__getattribute__", counted_read)
    for walk in walks:
        walk()
    walked = dict(reads)
    SidKind.SR_AWARE  # the counter does see a read
    monkeypatch.undo()
    assert walked == {}
    assert reads == {"SidKind.SR_AWARE": 1}


def test_a_walk_leaves_the_callers_packet_as_it_was(testbed_config_path, monkeypatch):
    # Beside the census: it checks values and retained memory, not calls.
    # No memo across walks: the caller's packet gains no image, so the
    # same packet injected again is serialized again, and the codec's
    # slot is empty once a walk has returned.
    network = load_config(testbed_config_path).build_network()
    packet = udp_packet(SRC, SINK, b"x" * 1024)
    first = inject(network, "er1", packet)
    assert packet.image is None and first.delivered
    validated = []
    validate = wire.validate_packet
    monkeypatch.setattr(wire, "validate_packet", lambda p: validated.append(p) or validate(p))
    second = inject(network, "er1", packet)
    assert len(validated) == 1
    assert packet.image is None
    assert second.outcome == first.outcome and second.outcome.packet is not first.outcome.packet
    delivered = second.outcome.packet
    work = count_codec_work(monkeypatch)
    assert wire.parse_packet(delivered.image) == delivered and work["parse"] == 1
    assert serialize_packet(delivered) == serialize_packet(packet)
    # A walk whose result is dropped leaves nothing behind; the slot's
    # twin alone would be over 1 KiB.
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        inject(network, "er1", packet)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 512, retained


# Walk results are values -------------------------------------------------------

def test_walk_results_are_values():
    packet = inner_packet()
    delivered = Delivered(packet, "er2")
    dropped = Dropped("nfv", "vnf bbbb::2")
    values = [
        delivered, dropped,
        VnfAction.forward(packet), VnfAction.modified(packet), VnfAction.drop(),
        VnfAction.edit_chain(packet, SegmentListEdit.insert_after_current((ER2,))),
    ]
    for value in values:
        names = [f.name for f in dataclasses.fields(value)]
        # A name that is not a field is refused too.
        for name in (*names, "mark"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, None)
        for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(clone) is type(value) and clone == value
            assert hash(clone) == hash(value) and repr(clone) == repr(value)
        twin = type(value)(*(getattr(value, name) for name in names))
        assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)
    assert repr(dropped) == "Dropped(node_id='nfv', reason='vnf bbbb::2')"
    assert Dropped("nfv", "other") != dropped and Delivered(packet, "er1") != delivered
    assert VnfAction.forward(packet) != VnfAction.modified(packet)

    network, _ = chain_testbed()
    result = inject(network, "er1", packet)
    for name in ("outcome", "trace", "costs", "mark"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(result, name, None)
    twin = InjectResult(result.outcome, result.trace, result.costs)
    clone = copy.copy(result)
    for same in (twin, clone):
        assert type(same) is InjectResult and same == result and repr(same) == repr(result)
    # A ``Trace`` compares by identity, so a deep copy has equal fields but
    # another trace; ``costs`` is a dict, so a result does not hash.
    for deep in (copy.deepcopy(result), pickle.loads(pickle.dumps(result))):
        assert type(deep) is InjectResult and deep.delivered
        assert deep.outcome == result.outcome and deep.costs == result.costs
        assert deep.trace.events == result.trace.events and deep.trace.uid == result.trace.uid
    with pytest.raises(TypeError):
        hash(result)


@pytest.mark.parametrize("enum", [EventKind, SidKind, ActionKind, SegmentListEdit.Kind])
def test_kind_constants_are_the_members_of_their_name(enum):
    # Each module binds its Enum's members as constants of the same name.
    module = sys.modules[enum.__module__]
    for member in enum:
        assert getattr(module, member.name) is member
