"""Dataplane pipeline: encap/decap, segment advance, connector costs,
segment-list edit permissions."""

from __future__ import annotations

import random
from dataclasses import replace
from ipaddress import IPv6Address, IPv6Network

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ER1, ER2, SINK, SRC, chain_testbed, router_line
from srv6sfc import dataplane, errors, wire
from srv6sfc.chain import ChainRegistry, Sid, SidKind, VnfChain, VnfInterface
from srv6sfc.dataplane import (
    ActionKind,
    ChainEditor,
    CostLedger,
    PassThroughRouter,
    PayloadStamper,
    PrefixFilter,
    SegmentListEdit,
    UnitCosts,
    Vnf,
    VnfAction,
    VnfPermission,
    advance_segment,
    apply_edit,
    connector_process,
    decapsulate,
    egress_process,
    encapsulate,
    node_cost,
    predicted_cost,
    reencap_unaware,
)
from srv6sfc.sim import Dropped, Network, inject
from srv6sfc.trace import EventKind, Trace
from srv6sfc.wire import Ipv6Header, SegmentRoutingHeader, udp_packet

BBBB2 = IPv6Address("BBBB::2")
CCCC2 = IPv6Address("CCCC::2")


def steering_chain() -> VnfChain:
    return VnfChain("c1", (BBBB2, CCCC2), ER1)


def inner_packet(payload=b"payload!") -> wire.Packet:
    return udp_packet(SRC, SINK, payload)


# Encapsulation ---------------------------------------------------------------

def test_encapsulate_testbed_layout():
    outer = encapsulate(inner_packet(), steering_chain())
    assert outer.header.src == ER1
    assert outer.header.dst == BBBB2
    assert outer.header.next_header == 43
    assert outer.srh.segment_list == (CCCC2, BBBB2)
    assert outer.srh.segments_left == 1
    assert outer.srh.last_entry == 1
    assert outer.payload == wire.serialize_packet(inner_packet())


def test_encapsulate_single_segment_chain():
    outer = encapsulate(inner_packet(), VnfChain("c", (CCCC2,), ER1))
    assert outer.header.dst == CCCC2
    assert outer.srh.segments_left == 0


def test_encapsulate_refuses_outer_payload_past_16_bits():
    # Outer payload = 40 B SRH (two segments) + 40 B inner header + 8 B UDP + data.
    outer = encapsulate(inner_packet(b"x" * 65447), steering_chain())
    assert outer.header.payload_length == wire.MAX_PAYLOAD_LEN
    assert len(wire.serialize_packet(outer)) == 40 + wire.MAX_PAYLOAD_LEN
    with pytest.raises(errors.OversizedPacket, match="65536 B exceeds 65535 B"):
        encapsulate(inner_packet(b"x" * 65448), steering_chain())


def test_decapsulate_restores_inner():
    inner = inner_packet()
    assert decapsulate(encapsulate(inner, steering_chain())) == inner


def test_decapsulate_requires_encapsulation():
    with pytest.raises(errors.NotEncapsulated):
        decapsulate(inner_packet())


def test_decapsulate_removes_one_layer_only():
    inner = inner_packet()
    middle = encapsulate(inner, VnfChain("a", (BBBB2, CCCC2), ER1))
    outer = encapsulate(middle, VnfChain("b", (CCCC2,), ER1))
    assert decapsulate(outer) == middle
    assert decapsulate(decapsulate(outer)) == inner


@given(st.binary(max_size=64), st.integers(1, 4))
def test_decap_encap_roundtrip_property(payload, n_segments):
    segments = tuple(IPv6Address(f"BBBB::{i + 2:x}") for i in range(n_segments))
    inner = udp_packet(SRC, SINK, payload)
    assert decapsulate(encapsulate(inner, VnfChain("c", segments, ER1))) == inner


# Segment advance --------------------------------------------------------------

def test_advance_segment_testbed():
    outer = encapsulate(inner_packet(), steering_chain())
    stepped = advance_segment(outer)
    assert stepped.srh.segments_left == 0
    assert stepped.header.dst == CCCC2
    assert stepped.payload == outer.payload


def test_advance_at_last_segment_rejected():
    outer = encapsulate(inner_packet(), VnfChain("c", (CCCC2,), ER1))
    with pytest.raises(errors.AlreadyAtLastSegment):
        advance_segment(outer)


def test_advance_requires_srh():
    with pytest.raises(errors.NoSrh):
        advance_segment(inner_packet())


# The SRH ladder ------------------------------------------------------------------

VNF_KINDS = st.lists(st.sampled_from([SidKind.SR_AWARE, SidKind.SR_UNAWARE]), min_size=1, max_size=6)


def same_packet(one, other):
    """Equal field for field, header and SRH tuples included, and byte for byte."""
    assert (one.header, one.srh, one.payload) == (other.header, other.srh, other.payload)
    assert tuple(one.header) == tuple(other.header) and tuple(one.srh) == tuple(other.srh)
    assert wire.serialize_packet(one) == wire.serialize_packet(other)


@settings(derandomize=True, max_examples=60)
@given(VNF_KINDS, st.binary(max_size=24))
def test_a_rung_advances_like_a_rebuild(kinds, payload):
    # A chain of aware, unaware or mixed VNFs; its last segment is er2.
    network, chain = chain_testbed(len(kinds), tuple(kinds))
    registry = network.registry
    ladder, n = chain.ladder, len(chain.segments)
    assert [rung.segments_left for rung in ladder] == list(range(n))
    assert all(rung._replace(segments_left=n - 1) == chain.srh for rung in ladder)

    packet = encapsulate(inner_packet(payload), chain)
    assert packet.srh is chain.srh is ladder[-1]
    for left in range(n - 1, 0, -1):
        stepped = advance_segment(packet, registry.rungs)
        assert stepped.srh is ladder[left - 1]
        rebuilt = advance_segment(packet)
        assert rebuilt.srh is not ladder[left - 1]
        same_packet(stepped, rebuilt)
        # An equal SRH that is not the rung takes the rebuild: one built by
        # hand, a parsed one, and an equal chain's that is not registered.
        twins = [
            replace(packet, srh=SegmentRoutingHeader(*packet.srh)),
            wire.parse_packet(wire.serialize_packet(packet)),
        ]
        if left == n - 1:
            twins.append(encapsulate(inner_packet(payload), replace(chain)))
        for twin in twins:
            assert twin.srh == packet.srh and twin.srh is not packet.srh
            twin_stepped = advance_segment(twin, registry.rungs)
            assert twin_stepped.srh is not ladder[left - 1]
            same_packet(twin_stepped, stepped)
        packet = stepped

    assert packet.srh is ladder[0]
    with pytest.raises(errors.AlreadyAtLastSegment, match="segments_left is already 0"):
        advance_segment(packet, registry.rungs)

    # Each SR-unaware SID's return path steers with the chain's own rung.
    for index, kind in enumerate(kinds):
        if kind is SidKind.SR_UNAWARE:
            back = registry.unaware_return(registry.sid(chain.segments[index]))
            assert back.srh is ladder[n - 2 - index]

    clone = registry.copy()
    registry.unregister_chain(chain.chain_id)
    assert registry.rungs == {} and len(clone.rungs) == n - 1


# Direct construction keeps every field -----------------------------------------

ADDRESSES = st.integers(0, 2**128 - 1).map(IPv6Address)


@st.composite
def srh_packets(draw):
    """Encapsulated packets with random header fields and a random SRH
    that can still advance."""
    segment_list = tuple(draw(st.lists(ADDRESSES, min_size=2, max_size=6)))
    n = len(segment_list)
    srh = SegmentRoutingHeader(
        draw(st.integers(0, 255)), 2 * n, 4, draw(st.integers(1, n - 1)), n - 1,
        draw(st.integers(0, 255)), draw(st.integers(0, 0xFFFF)), segment_list,
    )
    payload = draw(st.binary(max_size=32))
    header = Ipv6Header(
        6, draw(st.integers(0, 255)), draw(st.integers(0, 0xFFFFF)),
        wire.SRH_FIXED_LEN + wire.SEGMENT_LEN * n + len(payload), 43, draw(st.integers(0, 255)),
        draw(ADDRESSES), draw(ADDRESSES),
    )
    return wire.Packet(header, srh, payload)


@settings(derandomize=True, max_examples=200)
@given(srh_packets())
def test_direct_rewrites_match_replace_reference(packet):
    srh = packet.srh
    left = srh.segments_left - 1
    reference = replace(
        packet,
        header=packet.header._replace(dst=srh.segment_list[left]),
        srh=srh._replace(segments_left=left),
    )
    stepped = advance_segment(packet)
    assert stepped == reference

    # One plain hop through ``inject``; an IPv6-in-IPv6 payload would be
    # decapsulated at r1, so such packets cross as UDP.
    if srh.next_header == wire.NEXT_HEADER_IPV6:
        packet = replace(packet, srh=srh._replace(next_header=wire.NEXT_HEADER_UDP))
    outcome = inject(router_line(2, packet.header.dst), "r0", packet).outcome
    if packet.header.hop_limit <= 1:
        assert outcome == Dropped("r0", "hop limit exceeded")
    else:
        hopped = packet.header._replace(hop_limit=packet.header.hop_limit - 1)
        reference = replace(packet, header=hopped)
        assert outcome.packet == reference


@settings(derandomize=True, max_examples=100)
@given(srh_packets(), st.sampled_from([0, 17, 41, 43, 59, 255]), st.booleans())
def test_inline_wire_rules_answer_like_the_properties(packet, next_header, with_srh):
    # ``decapsulate`` and ``_payload_length`` apply ``wire.Packet``'s
    # payload-protocol and SRH-length rules: the protocol is the SRH's
    # next header, or the IPv6 header's when there is no SRH.
    srh = packet.srh._replace(next_header=next_header)
    inner = inner_packet()
    packet = replace(packet, srh=srh, payload=wire.serialize_packet(inner))
    if not with_srh:
        packet = replace(packet, header=packet.header._replace(next_header=next_header), srh=None)
    expected = wire.SRH_FIXED_LEN + wire.SEGMENT_LEN * len(srh.segment_list) + len(packet.payload)
    assert dataplane._payload_length(srh, packet.payload, "outer") == expected
    if next_header == wire.NEXT_HEADER_IPV6:
        assert decapsulate(packet) == inner
    else:
        with pytest.raises(errors.NotEncapsulated) as info:
            decapsulate(packet)
        assert str(info.value) == f"payload protocol is {next_header}, not IPv6-in-IPv6"


# Connector cost accounting ------------------------------------------------------

def connect(state, packet, trace=None, costs=None):
    """``connector_process`` as the walk calls it: with a trace, the
    hosted VNF the packet's destination names, the packet's hop limit and
    a ``costs`` dict, which the pass adds its (f, d, e) to."""
    vnf = state.vnfs[int(packet.header.dst)]
    trace = Trace() if trace is None else trace
    costs = {} if costs is None else costs
    return connector_process(state, packet, trace, vnf, packet.header.hop_limit, costs)


def run_connector(network, packet):
    """One connector pass at nfv: its state, what it returns and its cost."""
    state, costs = network.states["nfv"], {}
    return state, connect(state, packet, costs=costs), costs["nfv"]


@pytest.mark.parametrize(
    "kind,expected",
    [
        (SidKind.SR_UNAWARE, (3, 1, 1)),  # d + 3f + e
        (SidKind.SR_AWARE, (3, 0, 0)),    # 3f
    ],
)
def test_single_vnf_costs(kind, expected):
    network, chain = chain_testbed(1, kind)
    state, packet, cost = run_connector(network, encapsulate(inner_packet(), chain))
    assert packet.header.dst == CCCC2
    assert cost == expected
    assert state.ledger.counts() == expected
    # Where the packet goes next is the walk's decision: on to er2.
    trace = inject(network, "er1", inner_packet()).trace
    assert [e.detail for e in trace if e.node == "nfv" and e.kind is EventKind.FORWARDED] == ["er2"]


@pytest.mark.parametrize("kind", [SidKind.SR_AWARE, SidKind.SR_UNAWARE])
@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_counters_match_cost_formula(kind, n):
    network, chain = chain_testbed(n, kind)
    state, packet, cost = run_connector(network, encapsulate(inner_packet(), chain))
    assert type(packet) is wire.Packet
    f, d, e = cost
    if kind is SidKind.SR_AWARE:
        assert (f, d, e) == (n + 2, 0, 0)
    else:
        assert (f, d, e) == (2 * n + 1, 1, 1)
    assert cost == node_cost([kind] * n)
    assert state.ledger.counts() == cost
    units = UnitCosts()
    assert units.cost(cost) == predicted_cost(n, kind, units)


def test_aware_passthrough_is_noninterfering():
    # The emitted bytes differ from the arriving packet only by the
    # segment advance; the VNF hand-offs leave no other mark.
    network, chain = chain_testbed(1, SidKind.SR_AWARE)
    outer = encapsulate(inner_packet(), chain)
    _, packet, _ = run_connector(network, outer)
    assert wire.serialize_packet(packet) == wire.serialize_packet(advance_segment(outer))


def test_drop_short_circuits_reencapsulation():
    network, chain = chain_testbed(
        1, SidKind.SR_UNAWARE, behaviors=[PrefixFilter(IPv6Network("DDDD::/64"))]
    )
    trace = Trace()
    state, costs = network.states["nfv"], {}
    outcome = connect(state, encapsulate(inner_packet(), chain), trace, costs)
    assert outcome == Dropped("nfv", "vnf bbbb::2")
    # The walk, not the connector, records the drop.
    assert all(event.kind is not EventKind.DROPPED for event in trace.events)
    assert state.ledger.e_count == 0
    assert costs == {"nfv": state.ledger.counts()} == {"nfv": (1, 1, 0)}


def test_unaware_vnf_cannot_edit_chain():
    edit = SegmentListEdit.insert_after_current((BBBB2,))
    network, chain = chain_testbed(
        1,
        SidKind.SR_UNAWARE,
        behaviors=[lambda p: VnfAction.edit_chain(p, edit)],
    )
    outer = encapsulate(inner_packet(), chain)
    costs = {}
    with pytest.raises(errors.InvalidEdit):
        connect(network.states["nfv"], outer, costs=costs)
    # The work done before the raise is charged: decapsulation and delivery.
    assert network.ledgers["nfv"].counts() == (1, 1, 0)
    assert costs == {"nfv": (1, 1, 0)}
    with pytest.raises(errors.InvalidEdit):
        inject(network, "er1", inner_packet())
    assert network.ledgers["er1"].counts() == (1, 0, 0)
    assert network.ledgers["nfv"].counts() == (2, 2, 0)


def test_ledger_aggregates_are_the_summed_packet_costs():
    assert CostLedger().counts() == (0, 0, 0)
    network, _ = chain_testbed(2, SidKind.SR_UNAWARE)
    results = [inject(network, "er1", inner_packet()) for _ in range(3)]
    for node_id, node_ledger in network.ledgers.items():
        per_packet = [result.costs.get(node_id, (0, 0, 0)) for result in results]
        assert node_ledger.counts() == tuple(map(sum, zip(*per_packet)))
    assert [result.costs for result in results] == [{"er1": (1, 0, 0), "nfv": (5, 1, 1)}] * 3


# Stateless re-encapsulation -------------------------------------------------------

def make_registry_with_chain() -> tuple[ChainRegistry, Sid]:
    registry = ChainRegistry()
    vnf_sid = Sid(BBBB2, SidKind.SR_UNAWARE, "nfv")
    registry.add_sid(vnf_sid)
    registry.add_sid(Sid(CCCC2, SidKind.EGRESS_ENDPOINT, "er2"))
    registry.register_chain(steering_chain())
    return registry, vnf_sid


def test_reencap_targets_successor():
    registry, vnf_sid = make_registry_with_chain()
    outer = reencap_unaware(registry.unaware_return(vnf_sid), inner_packet())
    assert outer.header.dst == CCCC2
    assert outer.srh.segments_left == 0
    assert outer.header.src == ER1
    assert decapsulate(outer) == inner_packet()


def test_reencap_unmapped_interface_rejected():
    registry, _ = make_registry_with_chain()
    stranger = Sid(IPv6Address("BBBB::9"), SidKind.SR_UNAWARE, "nfv")
    registry.add_sid(stranger)
    with pytest.raises(errors.UnivocalMappingMissing):
        reencap_unaware(registry.unaware_return(stranger), inner_packet())


def test_connector_refuses_a_hosted_unaware_vnf_without_a_mapping():
    # BBBB::9 is hosted, but no registered chain maps its interface.
    stray = Sid(IPv6Address("BBBB::9"), SidKind.SR_UNAWARE, "nfv")
    network, _ = chain_testbed(1, SidKind.SR_UNAWARE, extra_sids=(stray,))
    nodes = dict(network.nodes)
    hosted = (*nodes["nfv"].hosted_vnfs, Vnf(stray, PassThroughRouter()))
    nodes["nfv"] = replace(nodes["nfv"], hosted_vnfs=hosted)
    network = Network(nodes, network.links, network.registry)
    state = network.states["nfv"]
    assert int(stray.address) in state.vnfs and int(stray.address) not in state.returns
    packet = encapsulate(inner_packet(), VnfChain("own", (stray.address, CCCC2), ER1))
    with pytest.raises(errors.UnivocalMappingMissing) as caught:
        connect(state, packet)
    assert str(caught.value) == "no chain mapped for SR-unaware interface (bbbb::9, single)"


# What the SR-unaware proxy's pass keeps ---------------------------------------------

def connector_pass(network, packet):
    """One connector pass at nfv: the bytes it hands back, its cost, its events."""
    trace, costs = Trace(), {}
    packet = connect(network.states["nfv"], packet, trace, costs)
    assert all(event.node == "nfv" for event in trace.events)
    events = [(event.kind, event.detail) for event in trace.events]
    return wire.serialize_packet(packet), costs["nfv"], events


def with_outer_hop_limit(packet, hop_limit):
    return replace(packet, header=packet.header._replace(hop_limit=hop_limit))


def test_unaware_pass_does_not_depend_on_the_arriving_hop_limit():
    # The proxy strips the outer header; the re-encapsulated packet starts
    # from the default hop limit whatever the arriving one was.
    network, chain = chain_testbed(1, SidKind.SR_UNAWARE)
    outer = encapsulate(inner_packet(), chain)
    passes = [connector_pass(network, with_outer_hop_limit(outer, hop)) for hop in (1, 2, 64)]
    assert passes[0] == passes[1] == passes[2]
    assert passes[0] == (
        wire.serialize_packet(advance_segment(outer)),
        (3, 1, 1),
        [
            (EventKind.SEGMENT_ADVANCED, "cccc::2"),
            (EventKind.DECAPSULATED, None),
            (EventKind.VNF_DELIVERED, "bbbb::2"),
            (EventKind.VNF_RETURNED, "bbbb::2"),
            (EventKind.RE_ENCAPSULATED, "cccc::2"),
        ],
    )


def test_aware_then_unaware_pass_on_one_node():
    # The SR-aware VNF sees the hop limit the packet arrived with; the
    # SR-unaware one after it gets the plain inner packet.
    seen = []

    def recording(packet):
        seen.append((packet.srh is not None, packet.header.hop_limit))
        return VnfAction.forward(packet)

    network, chain = chain_testbed(
        2, (SidKind.SR_AWARE, SidKind.SR_UNAWARE), behaviors=[recording, recording]
    )
    outer = with_outer_hop_limit(encapsulate(inner_packet(), chain), 7)
    packet, cost, events = connector_pass(network, outer)
    assert seen == [(True, 7), (False, inner_packet().header.hop_limit)]
    assert cost == node_cost([SidKind.SR_AWARE, SidKind.SR_UNAWARE]) == (4, 1, 1)
    assert events == [
        (EventKind.SEGMENT_ADVANCED, "bbbb::3"),
        (EventKind.VNF_DELIVERED, "bbbb::2"),
        (EventKind.VNF_RETURNED, "bbbb::2"),
        (EventKind.SEGMENT_ADVANCED, "cccc::2"),
        (EventKind.DECAPSULATED, None),
        (EventKind.VNF_DELIVERED, "bbbb::3"),
        (EventKind.VNF_RETURNED, "bbbb::3"),
        (EventKind.RE_ENCAPSULATED, "cccc::2"),
    ]
    assert packet == wire.serialize_packet(advance_segment(advance_segment(
        encapsulate(inner_packet(), chain)
    )))


def test_unaware_sid_at_the_last_segment_is_refused():
    network, _ = chain_testbed(1, SidKind.SR_UNAWARE)
    state = network.states["nfv"]
    trace = Trace()
    packet = encapsulate(inner_packet(), VnfChain("last", (BBBB2,), ER1))
    assert packet.srh.segments_left == 0
    with pytest.raises(errors.AlreadyAtLastSegment) as caught:
        connect(state, packet, trace)
    assert str(caught.value) == "segments_left is already 0"
    assert trace.events == []
    assert state.ledger.counts() == (0, 0, 0)


def test_reencap_refuses_outer_payload_past_16_bits():
    # Outer payload = 40 B SRH + 40 B inner header + 8 B UDP + data.
    registry, vnf_sid = make_registry_with_chain()
    outer = reencap_unaware(registry.unaware_return(vnf_sid), inner_packet(b"x" * 65447))
    assert outer.header.payload_length == wire.MAX_PAYLOAD_LEN
    with pytest.raises(errors.OversizedPacket, match="re-encapsulated payload of 65536 B exceeds"):
        reencap_unaware(registry.unaware_return(vnf_sid), inner_packet(b"x" * 65448))


def test_reencap_carries_modified_inner():
    registry, vnf_sid = make_registry_with_chain()
    stamped = PayloadStamper(0xAB)(inner_packet()).packet
    outer = reencap_unaware(registry.unaware_return(vnf_sid), stamped)
    assert decapsulate(outer).payload[0] == 0xAB


# Egress ---------------------------------------------------------------------------

def test_egress_strips_encapsulation():
    outer = advance_segment(encapsulate(inner_packet(), steering_chain()))
    assert egress_process(outer) == inner_packet()


def test_egress_rejects_pending_segments():
    outer = encapsulate(inner_packet(), steering_chain())  # segments_left == 1
    with pytest.raises(errors.NotLastSegment):
        egress_process(outer)


# Segment-list edits -----------------------------------------------------------------

V_X = IPv6Address("BBBB::10")
V_Z = IPv6Address("BBBB::11")


def editable_packet(payload=b"payload!") -> wire.Packet:
    # Remaining after advance: <V_X, ER2>; current VNF already walked.
    chain = VnfChain("edit", (BBBB2, V_X, CCCC2), ER1)
    return advance_segment(encapsulate(inner_packet(payload), chain))


def remaining_path(packet) -> tuple[IPv6Address, ...]:
    srh = packet.srh
    return tuple(srh.segment_list[i] for i in range(srh.segments_left, -1, -1))


def test_insert_after_current():
    edited = apply_edit(
        editable_packet(),
        SegmentListEdit.insert_after_current((V_Z,)),
        VnfPermission.INSERT_NEXT_ONLY,
    )
    assert remaining_path(edited) == (V_Z, V_X, CCCC2)
    assert edited.header.dst == V_Z
    wire.validate_packet(edited)
    assert wire.parse_packet(wire.serialize_packet(edited)) == edited


def test_edit_refuses_outer_payload_past_16_bits():
    # editable_packet's outer payload is 56 B of SRH + 48 B of inner packet
    # + data; one more segment adds 16 B.
    insert = SegmentListEdit.insert_after_current((V_Z,))
    fits = apply_edit(editable_packet(b"x" * 65415), insert, VnfPermission.INSERT_NEXT_ONLY)
    assert fits.header.payload_length == wire.MAX_PAYLOAD_LEN
    too_big = editable_packet(b"x" * 65416)
    assert too_big.header.payload_length == 65520
    with pytest.raises(errors.OversizedPacket, match="edited payload of 65536 B exceeds 65535 B"):
        apply_edit(too_big, insert, VnfPermission.INSERT_NEXT_ONLY)


def test_insert_at_denied_at_lowest_permission():
    with pytest.raises(errors.EditPermissionDenied):
        apply_edit(
            editable_packet(),
            SegmentListEdit.insert_at(1, (V_Z,)),
            VnfPermission.INSERT_NEXT_ONLY,
        )


def test_insert_at_positions():
    edited = apply_edit(
        editable_packet(),
        SegmentListEdit.insert_at(1, (V_Z,)),
        VnfPermission.INSERT_ANYWHERE,
    )
    assert remaining_path(edited) == (V_X, V_Z, CCCC2)
    with pytest.raises(errors.PositionOutOfRange):
        apply_edit(
            editable_packet(),
            SegmentListEdit.insert_at(2, (V_Z,)),  # would land after the egress
            VnfPermission.INSERT_ANYWHERE,
        )


def test_replace_to_egress_only():
    edited = apply_edit(
        editable_packet(),
        SegmentListEdit.replace((CCCC2,)),
        VnfPermission.FULL_REWRITE,
    )
    assert remaining_path(edited) == (CCCC2,)
    assert edited.header.dst == CCCC2
    # Walked prefix is preserved in the list.
    assert BBBB2 in edited.srh.segment_list


def test_replace_denied_below_full_rewrite():
    with pytest.raises(errors.EditPermissionDenied):
        apply_edit(
            editable_packet(),
            SegmentListEdit.replace((CCCC2,)),
            VnfPermission.INSERT_ANYWHERE,
        )


def test_empty_replace_rejected():
    with pytest.raises(errors.InvalidEdit):
        apply_edit(
            editable_packet(), SegmentListEdit.replace(()), VnfPermission.FULL_REWRITE
        )


def test_edit_unknown_sid_rejected_with_registry():
    registry, _ = make_registry_with_chain()
    with pytest.raises(errors.UnknownSidInEdit):
        apply_edit(
            editable_packet(),
            SegmentListEdit.insert_after_current((IPv6Address("9999::9"),)),
            VnfPermission.INSERT_NEXT_ONLY,
            registry,
        )


def test_edit_refusals_keep_their_texts():
    # ``apply_edit`` finds permissions by value and SIDs by integer (and
    # scope id), hashing neither; what it refuses, and how it says so, is
    # what the Enum and IPv6Address keys gave.
    insert_at = SegmentListEdit.insert_at(1, (V_Z,))
    with pytest.raises(errors.EditPermissionDenied) as denied:
        apply_edit(editable_packet(), insert_at, VnfPermission.INSERT_NEXT_ONLY)
    assert str(denied.value) == "insert-at not allowed at permission insert-next-only"
    with pytest.raises(errors.EditPermissionDenied) as denied:
        apply_edit(editable_packet(), SegmentListEdit.replace((CCCC2,)), VnfPermission.INSERT_ANYWHERE)
    assert str(denied.value) == "replace not allowed at permission insert-anywhere"

    registry, _ = make_registry_with_chain()
    plain, scoped = IPv6Address("fe80::1"), IPv6Address("fe80::2%eth0")
    registry.add_sid(Sid(plain, SidKind.SR_AWARE, "nfv"))
    registry.add_sid(Sid(scoped, SidKind.SR_AWARE, "nfv"))
    for known in (plain, scoped, IPv6Address("fe80::2%eth0"), IPv6Address(int(plain))):
        edit = SegmentListEdit.insert_after_current((known,))
        for table in (registry, registry.copy()):
            edited = apply_edit(editable_packet(), edit, VnfPermission.INSERT_NEXT_ONLY, table)
            assert edited.header.dst == known
    for unknown in ("9999::9", "fe80::1%eth0", "fe80::2", "fe80::2%eth1"):
        edit = SegmentListEdit.insert_after_current((BBBB2, IPv6Address(unknown)))
        with pytest.raises(errors.UnknownSidInEdit) as refused:
            apply_edit(editable_packet(), edit, VnfPermission.INSERT_NEXT_ONLY, registry)
        assert str(refused.value) == f"edit references unregistered SID {unknown}"
        assert (IPv6Address(unknown) in registry.sid_table) is False


EDIT_STRATEGY = st.one_of(
    st.builds(
        SegmentListEdit.insert_after_current,
        st.lists(st.sampled_from((V_Z, V_X)), max_size=2).map(tuple),
    ),
    st.builds(
        SegmentListEdit.insert_at,
        st.integers(-1, 4),
        st.lists(st.sampled_from((V_Z,)), max_size=2).map(tuple),
    ),
    st.builds(
        SegmentListEdit.replace,
        st.lists(st.sampled_from((V_Z, V_X, CCCC2)), max_size=3, unique=True).map(tuple),
    ),
)

PERMISSION_ORDER = (
    VnfPermission.INSERT_NEXT_ONLY,
    VnfPermission.INSERT_ANYWHERE,
    VnfPermission.FULL_REWRITE,
)


@given(EDIT_STRATEGY)
def test_permission_monotonicity(edit):
    # Anything a weaker level accepts, every stronger level accepts with
    # the identical result.
    results = []
    for permission in PERMISSION_ORDER:
        try:
            results.append(apply_edit(editable_packet(), edit, permission))
        except errors.EditPermissionDenied:
            results.append("denied")
        except errors.DataplaneError:
            results.append("invalid")
    for weaker, stronger in zip(results, results[1:]):
        if weaker not in ("denied", "invalid"):
            assert stronger == weaker
        if weaker == "invalid":
            assert stronger == "invalid"


@given(EDIT_STRATEGY)
def test_accepted_edits_preserve_srh_invariants(edit):
    try:
        edited = apply_edit(editable_packet(), edit, VnfPermission.FULL_REWRITE)
    except errors.DataplaneError:
        return
    wire.validate_packet(edited)
    srh = edited.srh
    assert srh.segments_left <= srh.last_entry
    assert srh.hdr_ext_len == 2 * len(srh.segment_list)
    assert wire.parse_packet(wire.serialize_packet(edited)) == edited


class Grower:
    """Returns the plain packet one payload byte longer."""

    def __call__(self, packet):
        return VnfAction.modified(udp_packet(SRC, SINK, packet.payload[8:] + b"!"))


@pytest.mark.parametrize(
    "kind, behavior, reason, ledger",
    [
        (SidKind.SR_UNAWARE, Grower(), "re-encapsulated payload of 65536 B exceeds 65535 B", (2, 1, 0)),
        (
            SidKind.SR_AWARE,
            ChainEditor(SegmentListEdit.insert_after_current((ER2,))),
            "edited payload of 65551 B exceeds 65535 B",
            (1, 0, 0),
        ),
    ],
    ids=["reencap", "edit"],
)
def test_growth_past_16_bits_drops_at_node(kind, behavior, reason, ledger):
    # 65447 B of data fill the ingress encapsulation exactly (40 B SRH).
    network, _ = chain_testbed(1, kind, behaviors=[behavior])
    result = inject(network, "er1", inner_packet(b"x" * 65447))
    assert result.outcome == Dropped("nfv", reason)
    last = result.trace.events[-1]
    assert (last.node, last.kind.value, last.detail) == ("nfv", "Dropped", reason)
    assert network.ledgers["nfv"].counts() == ledger
    # The text names the packet's size, so the event memo never stores it.
    assert type(last.detail) is str
    assert all(event.detail != reason for event, _ in network.event_memo.values())


def test_self_inserting_editor_drops_past_127_segments():
    # Each pass of the editor adds one segment to the 2 of the chain; the
    # 126th edit would make 128, which hdr_ext_len's one byte cannot carry.
    network, _ = chain_testbed(
        1,
        SidKind.SR_AWARE,
        behaviors=[ChainEditor(SegmentListEdit.insert_after_current((BBBB2,)))],
    )
    reason = "edited SRH of 128 segments exceeds 127"
    result = inject(network, "er1", inner_packet())
    assert result.outcome == Dropped("nfv", reason)
    assert network.ledgers["nfv"].counts() == (126, 0, 0)


def test_editor_reinserting_unaware_vnf_trips_loop_budget():
    # Re-encapsulation rebuilds the chain's 3-segment SRH, so this loop
    # never grows the list: only the step budget ends it.
    network, chain = chain_testbed(
        2,
        (SidKind.SR_UNAWARE, SidKind.SR_AWARE),
        behaviors=[
            PassThroughRouter(),
            ChainEditor(SegmentListEdit.insert_after_current((BBBB2,))),
        ],
    )
    outer = encapsulate(inner_packet(), chain)
    with pytest.raises(errors.PipelineLoop, match="1024 VNF invocations on 'nfv'"):
        run_connector(network, outer)


def test_chain_editor_inserts_detour_end_to_end():
    # An SR-aware editor inserts another local aware VNF as next segment.
    detour = IPv6Address("BBBB::3")
    network, chain = chain_testbed(
        2,
        SidKind.SR_AWARE,
        behaviors=[
            ChainEditor(SegmentListEdit.insert_after_current((detour,))),
            PassThroughRouter(),
        ],
    )
    # Chain is <BBBB::2, BBBB::3, ER2>; the editor at BBBB::2 re-inserts
    # BBBB::3... which is already next. Use a chain skipping BBBB::3.
    registry = network.registry
    short = VnfChain("short", (IPv6Address("BBBB::2"), CCCC2), ER1)
    registry.register_chain(short)
    state, out_packet, cost = run_connector(network, encapsulate(inner_packet(), short))
    # The detour VNF ran: delivered once by editor insert, so two aware
    # deliveries happened on this node.
    assert cost == state.ledger.counts() == (4, 0, 0)  # (n=2)+2
    assert out_packet.header.dst == CCCC2
    assert BBBB2 in out_packet.srh.segment_list and detour in out_packet.srh.segment_list


# Predicted cost ---------------------------------------------------------------------

def test_predicted_cost_values():
    units = UnitCosts(f=1.0, d=0.5, e=0.5)
    assert predicted_cost(1, SidKind.SR_AWARE, units) == 3.0
    assert predicted_cost(1, SidKind.SR_UNAWARE, units) == 0.5 + 3.0 + 0.5
    assert predicted_cost(3, SidKind.SR_AWARE, UnitCosts(f=1.0)) == 5.0
    assert predicted_cost(0, SidKind.SR_AWARE, units) == 1.0
    assert predicted_cost(0, SidKind.SR_UNAWARE, units) == 1.0


def test_predicted_cost_rejects_negative():
    with pytest.raises(errors.InvariantViolation):
        predicted_cost(-1, SidKind.SR_AWARE)


# Verdict checks --------------------------------------------------------------

def test_verdict_checks_keep_their_texts():
    # The stock builders skip ``__init__`` but keep the checks their own
    # arguments can fail, with the constructor's texts.
    packet = inner_packet()
    edit = SegmentListEdit.insert_after_current((ER2,))
    for build, message in (
        (lambda: VnfAction(ActionKind.DROP, packet), "Drop carries no packet"),
        (lambda: VnfAction(ActionKind.FORWARD), "forward requires a packet"),
        (lambda: VnfAction(ActionKind.EDIT_CHAIN, packet), "EditChain requires an edit"),
        (lambda: VnfAction.forward(None), "forward requires a packet"),
        (lambda: VnfAction.modified(None), "modified requires a packet"),
        (lambda: VnfAction.edit_chain(None, edit), "edit-chain requires a packet"),
        (lambda: VnfAction.edit_chain(packet, None), "EditChain requires an edit"),
    ):
        with pytest.raises(errors.InvariantViolation) as info:
            build()
        assert str(info.value) == message
    for built, checked in (
        (VnfAction.forward(packet), VnfAction(ActionKind.FORWARD, packet)),
        (VnfAction.modified(packet), VnfAction(ActionKind.MODIFIED, packet)),
        (VnfAction.drop(), VnfAction(ActionKind.DROP)),
        (VnfAction.edit_chain(packet, edit), VnfAction(ActionKind.EDIT_CHAIN, packet, edit)),
    ):
        assert type(built) is VnfAction and built == checked and hash(built) == hash(checked)


@pytest.mark.parametrize("prefix", [
    "::/0", "DDDD::/64", "DDDD::2/128", "DDDD::8/125", "8000::/1", "FFFF:FFFF::/32",
])
def test_prefix_filter_decides_like_network_membership(prefix):
    network = IPv6Network(prefix)
    vnf = PrefixFilter(network)
    assert vnf.network is network
    # The filter decides on integers compiled from ``network``, so it is read-only.
    with pytest.raises(AttributeError):
        vnf.network = IPv6Network("::/0")
    assert vnf.network is network
    for dst in ("::", "DDDD::", "DDDD::2", "DDDD::9", "DDDD::10", "DDDD:0:0:1::2", "FFFF:FFFF::1",
                "FFFF:FFFF:FFFF:FFFF:FFFF:FFFF:FFFF:FFFF", "7FFF::1", "8000::"):
        packet = udp_packet(SRC, IPv6Address(dst), b"x")
        action = vnf(packet)
        if IPv6Address(dst) in network:
            assert action == VnfAction.drop()
        else:
            assert action.kind is ActionKind.FORWARD and action.packet is packet
