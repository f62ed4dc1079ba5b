"""Wire codec: golden layout, round trips, fuzz safety."""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random
from ipaddress import IPv6Address

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codec_reference import reference_parse, reference_serialize
from conftest import (
    SINK,
    SRC,
    TESTBED_GOLDEN,
    chain_testbed,
    count_codec_work,
    random_junk,
    random_valid_packet,
)
from srv6sfc import errors, wire
from srv6sfc.dataplane import (
    ActionKind,
    ConnectorResult,
    PassThroughRouter,
    PayloadStamper,
    SegmentListEdit,
    VnfAction,
    advance_segment,
)
from srv6sfc.sim import Delivered, Dropped, InjectResult, inject
from srv6sfc.trace import EventKind, Trace
from srv6sfc.wire import (
    Ipv6Header,
    Packet,
    SEGMENT_LEN,
    SRH_FIXED_LEN,
    SegmentRoutingHeader,
    active_segment,
    decode_udp,
    encode_udp,
    hexdump,
    udp_packet,
)

BBBB2 = IPv6Address("BBBB::2")
CCCC2 = IPv6Address("CCCC::2")


def minimal_header_bytes(next_header=59, payload=b"") -> bytes:
    head = bytes([0x60, 0, 0, 0]) + len(payload).to_bytes(2, "big")
    head += bytes([next_header, 64])
    head += IPv6Address("::1").packed + IPv6Address("::2").packed
    return head + payload


# Parsing ---------------------------------------------------------------

def test_parse_minimal_header_no_srh(codec):
    packet = codec.parse_packet(minimal_header_bytes())
    assert packet.srh is None
    assert packet.payload == b""
    assert packet.header.next_header == 59


def test_parse_accepts_buffer_types(codec):
    for view in (bytearray(TESTBED_GOLDEN), memoryview(TESTBED_GOLDEN)):
        assert codec.parse_packet(view) == codec.parse_packet(TESTBED_GOLDEN)


def test_parse_testbed_golden_fields(codec):
    packet = codec.parse_packet(TESTBED_GOLDEN)
    assert packet.header.src == IPv6Address("AAAA::2")
    assert packet.header.dst == BBBB2
    assert packet.srh.hdr_ext_len == 4
    assert packet.srh.last_entry == 1
    assert packet.srh.segments_left == 1
    assert packet.srh.segment_list == (CCCC2, BBBB2)
    assert active_segment(packet.srh) == BBBB2
    inner = codec.parse_packet(packet.payload)
    assert inner.header.src == IPv6Address("EEEE::2")
    assert inner.header.dst == IPv6Address("DDDD::2")
    assert inner.payload.endswith(b"payload!")


def test_parse_rejects_non_srh_routing_type(codec):
    data = bytearray(TESTBED_GOLDEN)
    data[42] = 0  # routing_type byte
    with pytest.raises(errors.BadRoutingType):
        codec.parse_packet(bytes(data))


def test_parse_rejects_bad_version(codec):
    data = bytearray(minimal_header_bytes())
    data[0] = 0x40
    with pytest.raises(errors.BadVersion):
        codec.parse_packet(bytes(data))


def test_parse_rejects_short_input(codec):
    with pytest.raises(errors.TruncatedPacket):
        codec.parse_packet(b"\x60" + b"\x00" * 20)


def test_parse_rejects_underdeclared_input(codec):
    # Declares 16 payload bytes but carries 8.
    data = minimal_header_bytes(payload=b"x" * 8)
    data = data[:4] + (16).to_bytes(2, "big") + data[6:]
    with pytest.raises(errors.TruncatedPacket):
        codec.parse_packet(data)


def test_parse_rejects_trailing_bytes(codec):
    with pytest.raises(errors.TrailingBytes):
        codec.parse_packet(minimal_header_bytes() + b"junk")


@pytest.mark.parametrize("hdr_ext_len", [0, 3, 5])
def test_parse_rejects_odd_or_zero_hdr_ext_len(codec, hdr_ext_len):
    data = bytearray(TESTBED_GOLDEN)
    data[41] = hdr_ext_len
    with pytest.raises((errors.MalformedSrh, errors.TruncatedPacket)):
        codec.parse_packet(bytes(data))


def test_parse_rejects_inconsistent_last_entry(codec):
    data = bytearray(TESTBED_GOLDEN)
    data[44] = 3  # last_entry; hdr_ext_len 4 implies 1
    with pytest.raises(errors.MalformedSrh):
        codec.parse_packet(bytes(data))


def test_parse_rejects_segments_left_past_last_entry(codec):
    data = bytearray(TESTBED_GOLDEN)
    data[43] = 2  # segments_left > last_entry == 1
    with pytest.raises(errors.MalformedSrh):
        codec.parse_packet(bytes(data))


def test_parse_rejects_srh_overrunning_payload(codec):
    # Fixed header declaring an 8-byte payload that claims a 2-segment SRH.
    srh_stub = bytes([41, 4, 4, 0, 1, 0, 0, 0])
    data = minimal_header_bytes(next_header=43, payload=srh_stub)
    with pytest.raises(errors.TruncatedPacket):
        codec.parse_packet(data)


# Serialization ----------------------------------------------------------

def test_serialize_no_srh_length(codec):
    packet = udp_packet(IPv6Address("::1"), IPv6Address("::2"), b"")
    data = codec.serialize_packet(packet)
    assert len(data) == 48
    assert data[4:6] == (8).to_bytes(2, "big")


def test_serialize_two_segment_srh_region_is_40_bytes(codec):
    srh = SegmentRoutingHeader.from_path((BBBB2, CCCC2))
    assert SRH_FIXED_LEN + SEGMENT_LEN * len(srh.segment_list) == 40 == 8 * (1 + srh.hdr_ext_len)
    header = Ipv6Header(6, 0, 0, 40, 43, 64, IPv6Address("::1"), IPv6Address("::2"))
    data = codec.serialize_packet(Packet(header, srh, b""))
    assert len(data) == 40 + 40


def test_serialize_golden_testbed_bytes(codec):
    inner = udp_packet(
        IPv6Address("EEEE::2"), IPv6Address("DDDD::2"), b"payload!",
        src_port=40000, dst_port=5201,
    )
    inner_bytes = codec.serialize_packet(inner)
    srh = SegmentRoutingHeader.from_path((BBBB2, CCCC2))
    outer = Packet(
        header=Ipv6Header(
            6, 0, 0, 40 + len(inner_bytes), 43, 64,
            IPv6Address("AAAA::2"), BBBB2,
        ),
        srh=srh,
        payload=inner_bytes,
    )
    assert codec.serialize_packet(outer) == TESTBED_GOLDEN


@pytest.mark.parametrize(
    "mutate",
    [
        lambda p: Packet(p.header, type(p.srh)(**{**_srh_kwargs(p.srh), "segments_left": 5}), p.payload),
        lambda p: Packet(p.header, type(p.srh)(**{**_srh_kwargs(p.srh), "hdr_ext_len": 6}), p.payload),
        lambda p: Packet(p.header, type(p.srh)(**{**_srh_kwargs(p.srh), "routing_type": 0}), p.payload),
        lambda p: Packet(p.header, None, p.payload),  # nh stays 43 with no SRH
    ],
)
def test_serialize_rejects_invariant_violations(codec, mutate):
    packet = codec.parse_packet(TESTBED_GOLDEN)
    with pytest.raises(errors.InvariantViolation):
        codec.serialize_packet(mutate(packet))


def _srh_kwargs(srh):
    return {
        "next_header": srh.next_header,
        "hdr_ext_len": srh.hdr_ext_len,
        "routing_type": srh.routing_type,
        "segments_left": srh.segments_left,
        "last_entry": srh.last_entry,
        "flags": srh.flags,
        "tag": srh.tag,
        "segment_list": srh.segment_list,
    }


def test_serialize_rejects_wrong_payload_length(codec):
    packet = udp_packet(IPv6Address("::1"), IPv6Address("::2"), b"abc")
    broken = Packet(
        header=Ipv6Header(6, 0, 0, 999, 17, 64, packet.header.src, packet.header.dst),
        srh=None,
        payload=packet.payload,
    )
    with pytest.raises(errors.InvariantViolation):
        codec.serialize_packet(broken)


# Active segment ----------------------------------------------------------

def test_active_segment_examples():
    srh = SegmentRoutingHeader.from_path((BBBB2, CCCC2))  # stored reversed
    assert srh.segment_list == (CCCC2, BBBB2)
    assert active_segment(srh) == BBBB2

    single = SegmentRoutingHeader.from_path((BBBB2,))
    assert active_segment(single) == BBBB2

    last = SegmentRoutingHeader.from_path((BBBB2, CCCC2), segments_left=0)
    assert active_segment(last) == CCCC2


def test_active_segment_rejects_out_of_range():
    srh = SegmentRoutingHeader(41, 2, 4, 3, 0, 0, 0, (BBBB2,))
    with pytest.raises(errors.InvariantViolation):
        active_segment(srh)


# Round trips --------------------------------------------------------------

def test_roundtrip_seeded_random_packets(codec):
    rng = random.Random(1234)
    for _ in range(1000):
        packet = random_valid_packet(rng)
        data = codec.serialize_packet(packet)
        reparsed = codec.parse_packet(data)
        assert reparsed == packet
        assert codec.serialize_packet(reparsed) == data


# Immutability: a chain's SRH is shared by every packet it steers, and VNF
# behaviours are user code, so nothing may be changed in place --------------

def test_headers_and_packets_are_immutable():
    srh = SegmentRoutingHeader.from_path((BBBB2, CCCC2))
    header = Ipv6Header(6, 0, 0, 40, 43, 64, CCCC2, BBBB2)
    packet = Packet(header, srh, b"")
    packet_fields = [f.name for f in dataclasses.fields(Packet)]
    action = VnfAction.edit_chain(packet, SegmentListEdit.insert_after_current((CCCC2,)))
    udp, _ = decode_udp(encode_udp(1, 2, b"x"))
    for value, names in (
        (header, Ipv6Header._fields),
        (srh, SegmentRoutingHeader._fields),
        (packet, packet_fields),
        (action, ("kind", "packet", "edit")),
        (udp, ("src_port", "dst_port", "length", "checksum")),
    ):
        # A name that is not a field (a VNF marking the packet) is refused too.
        for name in (*names, "mark"):
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
        # A behaviour may copy what it is handed; a copy is an equal value.
        for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(clone) is type(value) and clone == value
    assert action.kind is ActionKind.EDIT_CHAIN and action.packet is packet
    assert packet.header is header and packet.srh is srh and packet.payload == b""

    twin = Packet(header, srh, b"")
    assert twin == packet and hash(twin) == hash(packet)
    assert Packet(header, srh, b"x") != packet
    stamped = dataclasses.replace(packet, payload=b"x")
    assert type(stamped) is Packet and stamped.payload == b"x"
    assert stamped.header is header


def _hand_built(hop_limit=64, flow_label=0, hdr_ext_len=4, segments=2) -> Packet:
    """A packet whose headers skip every constructor check, as the hot
    paths build them."""
    segment_list = (CCCC2,) * (segments - 1) + (BBBB2,)
    srh = tuple.__new__(
        SegmentRoutingHeader, (41, hdr_ext_len, 4, 1, segments - 1, 0, 0, segment_list)
    )
    payload_length = 8 + 16 * segments
    header = tuple.__new__(
        Ipv6Header, (6, 0, flow_label, payload_length, 43, hop_limit, CCCC2, BBBB2)
    )
    return Packet(header, srh, b"")


@pytest.mark.parametrize(
    "broken, message",
    [
        (_hand_built(hop_limit=256), "hop_limit out of range: 256"),
        (_hand_built(flow_label=2**20), "flow_label out of range: 1048576"),
        (_hand_built(hdr_ext_len=6), "hdr_ext_len 6 != 2 \\* 2 segments"),
        # Every field would pass its own check, but hdr_ext_len 256 has no byte.
        (_hand_built(hdr_ext_len=256, segments=128), "128 segments exceed the SRH maximum of 127"),
    ],
)
def test_serialize_validates_hand_built_headers(codec, broken, message):
    assert len(codec.serialize_packet(_hand_built())) == 80
    with pytest.raises(errors.InvariantViolation, match=message):
        codec.serialize_packet(broken)


addresses = st.binary(min_size=16, max_size=16).map(IPv6Address)


@st.composite
def srh_strategy(draw):
    segments = draw(st.lists(addresses, min_size=1, max_size=6))
    return SegmentRoutingHeader(
        next_header=draw(st.sampled_from((17, 41, 59))),
        hdr_ext_len=2 * len(segments),
        routing_type=4,
        segments_left=draw(st.integers(0, len(segments) - 1)),
        last_entry=len(segments) - 1,
        flags=draw(st.integers(0, 255)),
        tag=draw(st.integers(0, 0xFFFF)),
        segment_list=tuple(segments),
    )


@st.composite
def packet_strategy(draw):
    srh = draw(st.none() | srh_strategy())
    payload = draw(st.binary(max_size=96))
    header = Ipv6Header(
        version=6,
        traffic_class=draw(st.integers(0, 255)),
        flow_label=draw(st.integers(0, 0xFFFFF)),
        payload_length=(8 + 16 * len(srh.segment_list) if srh else 0) + len(payload),
        next_header=43 if srh else draw(st.integers(0, 255).filter(lambda v: v != 43)),
        hop_limit=draw(st.integers(0, 255)),
        src=draw(addresses),
        dst=draw(addresses),
    )
    return Packet(header=header, srh=srh, payload=payload)


@given(packet_strategy())
def test_roundtrip_property(packet):
    data = wire.serialize_packet(packet)
    assert wire.parse_packet(data) == packet
    assert wire.serialize_packet(wire.parse_packet(data)) == data


@given(packet_strategy())
def test_srh_length_law(packet):
    data = wire.serialize_packet(packet)
    if packet.srh is not None:
        n = len(packet.srh.segment_list)
        srh_length = SRH_FIXED_LEN + SEGMENT_LEN * n
        assert srh_length == 8 + 16 * n == 8 * (1 + packet.srh.hdr_ext_len)
        assert len(data) == 40 + srh_length + len(packet.payload)


@given(st.binary(max_size=200))
@settings(max_examples=300)
def test_parse_never_faults_on_arbitrary_bytes(data):
    try:
        wire.parse_packet(data)
    except errors.WireError:
        pass


def test_parse_junk_structured_errors_only(codec):
    rng = random.Random(99)
    for _ in range(5000):
        data = random_junk(rng, wire.serialize_packet)
        try:
            codec.parse_packet(data)
        except errors.WireError:
            pass


# Oracle: the struct codec against the byte-at-a-time reference ----------------
# A round trip alone passes a field swapped the same way in both directions.

def _edge(low: int, high: int):
    """Any value in [low, high], the two ends drawn often."""
    return st.sampled_from((low, high)) | st.integers(low, high)


@st.composite
def oracle_packet(draw):
    srh = None
    if draw(st.booleans()):
        count = draw(_edge(1, wire.MAX_SEGMENTS))
        srh = SegmentRoutingHeader(
            next_header=draw(_edge(0, 255)),
            hdr_ext_len=2 * count,
            routing_type=4,
            segments_left=draw(_edge(0, count - 1)),
            last_entry=count - 1,
            flags=draw(_edge(0, 255)),
            tag=draw(_edge(0, 0xFFFF)),
            segment_list=tuple(draw(st.lists(addresses, min_size=count, max_size=count))),
        )
    payload = draw(st.binary(max_size=64))
    header = Ipv6Header(
        version=6,
        traffic_class=draw(_edge(0, 0xFF)),
        flow_label=draw(_edge(0, 0xFFFFF)),
        payload_length=(8 + 16 * len(srh.segment_list) if srh else 0) + len(payload),
        next_header=43 if srh else draw(_edge(0, 255).filter(lambda v: v != 43)),
        hop_limit=draw(_edge(0, 255)),
        src=draw(addresses),
        dst=draw(addresses),
    )
    return Packet(header, srh, payload)


def _outcome(parse, data):
    try:
        return parse(data)
    except errors.WireError as exc:
        return type(exc), str(exc)


@given(oracle_packet())
@settings(max_examples=300, deadline=None)
def test_codec_matches_reference_on_valid_packets(packet):
    data = wire.serialize_packet(packet)
    assert data == reference_serialize(packet)
    parsed = wire.parse_packet(data)
    assert parsed == reference_parse(data) == packet
    assert type(parsed.header) is Ipv6Header and type(parsed.srh) is type(packet.srh)


@given(oracle_packet(), st.data())
@settings(max_examples=300, deadline=None)
def test_codec_matches_reference_on_damaged_bytes(packet, data):
    raw = bytearray(reference_serialize(packet))
    how = data.draw(st.sampled_from(("truncate", "corrupt", "extend")))
    if how == "truncate":
        del raw[data.draw(st.integers(0, len(raw) - 1)) :]
    elif how == "corrupt":
        for _ in range(data.draw(st.integers(1, 4))):
            # Mostly the two fixed headers, where every field lives.
            raw[data.draw(st.integers(0, min(len(raw), 48) - 1))] = data.draw(_edge(0, 255))
    else:
        raw += data.draw(st.binary(min_size=1, max_size=16))
    damaged = bytes(raw)
    # Right after a valid parse, whose packet the codec's slot then holds.
    assert wire.parse_packet(wire.serialize_packet(packet)) == packet
    assert _outcome(wire.parse_packet, damaged) == _outcome(reference_parse, damaged)


# Work not done twice: the carried wire image and interned addresses ------------

@given(oracle_packet())
@settings(max_examples=200, deadline=None)
def test_a_parsed_packet_serializes_to_the_bytes_it_came_from(packet):
    data = wire.serialize_packet(packet)
    for source in (data, bytearray(data), memoryview(data)):
        parsed = wire.parse_packet(source)
        assert type(parsed.image) is bytes and parsed.image == data
        assert wire.serialize_packet(parsed) is parsed.image  # not packed again
        wire.validate_packet(parsed)
        # The field-equal twin has no image and packs the same bytes.
        twin = Packet(parsed.header, parsed.srh, parsed.payload)
        assert twin.image is None and twin == parsed and hash(twin) == hash(parsed)
        assert wire.serialize_packet(twin) == data


def test_copies_and_rewrites_of_a_parsed_packet_carry_no_image():
    parsed = wire.parse_packet(TESTBED_GOLDEN)
    assert parsed.image is TESTBED_GOLDEN
    assert "image" not in repr(parsed) and parsed.__reduce__()[1] == (
        parsed.header, parsed.srh, parsed.payload
    )
    for clone in (
        dataclasses.replace(parsed),
        copy.copy(parsed),
        copy.deepcopy(parsed),
        pickle.loads(pickle.dumps(parsed)),
    ):
        assert clone.image is None and clone == parsed
        assert wire.serialize_packet(clone) == TESTBED_GOLDEN
    # A packet built from a parsed one is packed from its own fields.
    inner = bytearray(parsed.payload)
    inner[-1] ^= 0xFF
    edited = dataclasses.replace(parsed, payload=bytes(inner))
    assert wire.serialize_packet(edited) == TESTBED_GOLDEN[:-1] + bytes([TESTBED_GOLDEN[-1] ^ 0xFF])
    advanced = advance_segment(parsed)
    assert advanced.image is None
    assert wire.serialize_packet(advanced) == reference_serialize(advanced)
    with pytest.raises(AttributeError):
        parsed.image = b""


def test_a_vnf_that_modifies_the_packet_is_reencoded():
    handed = []

    def recording(behavior):
        def vnf(packet):
            action = behavior(packet)
            handed.append((packet, action.packet))
            return action
        return vnf

    inner = udp_packet(SRC, SINK, b"payload!")
    sent = wire.serialize_packet(inner)
    for behavior, first in ((PassThroughRouter(), sent[40]), (PayloadStamper(0xAB), 0xAB)):
        handed.clear()
        network, _ = chain_testbed(1, behaviors=[recording(behavior)])
        result = inject(network, "er1", inner)
        assert type(result.outcome) is Delivered
        delivered = wire.serialize_packet(result.outcome.packet)
        assert delivered == sent[:40] + bytes([first]) + sent[41:]
        [(given_packet, returned)] = handed
        assert given_packet.image is not None  # the decapsulated inner, as parsed
        # Pass-through hands its parsed packet back; the stamp is a new one.
        assert (returned is given_packet) is (first == sent[40])
        assert (returned.image is None) is (first == 0xAB)


def test_equal_parses_share_their_address_objects(monkeypatch):
    monkeypatch.setattr(wire, "_addresses", wire._Interned())
    # A fresh copy each: the bytes object last parsed would be the codec's
    # slot, whose packet may predate the new table.
    first = wire.parse_packet(bytes(bytearray(TESTBED_GOLDEN)))
    second = wire.parse_packet(bytes(bytearray(TESTBED_GOLDEN)))
    assert first.image is not second.image
    assert first.header.src is second.header.src and first.header.dst is second.header.dst
    assert all(a is b for a, b in zip(first.srh.segment_list, second.srh.segment_list))
    # The active segment and the destination are one object within a parse, too.
    assert first.header.dst is first.srh.segment_list[first.srh.segments_left]
    inner = wire.parse_packet(first.payload)
    assert inner.header.src is wire.parse_packet(second.payload).header.src


# The codec's slot: the bytes object of its last call, and that call's packet ---

scoped = addresses.map(lambda address: IPv6Address(f"{address}%eth0"))


@st.composite
def slot_packet(draw):
    """A valid packet of any shape the twin rule tells apart: with or
    without an SRH, scoped or plain addresses, an empty or non-empty
    payload, as ``bytes`` or not."""
    srh = draw(st.none() | srh_strategy())
    payload = draw(st.sampled_from((bytes, bytearray)))(draw(st.binary(max_size=32)))
    header = Ipv6Header(
        6, draw(st.integers(0, 255)), draw(st.integers(0, 0xFFFFF)),
        (8 + 16 * len(srh.segment_list) if srh else 0) + len(payload),
        43 if srh else draw(st.sampled_from((17, 41, 59))), draw(st.integers(0, 255)),
        draw(addresses | scoped), draw(addresses | scoped),
    )
    return Packet(header, srh, payload)


@given(slot_packet())
@settings(max_examples=300, deadline=None)
def test_bytes_a_serialize_made_parse_like_a_copy_of_them(packet):
    data = wire.serialize_packet(packet)
    got = wire.parse_packet(data)
    fresh = wire.parse_packet(bytes(bytearray(data)))
    assert got.image is data and fresh.image == data
    assert got == fresh and hash(got) == hash(fresh) and got.srh == fresh.srh
    for mine, theirs in ((got.header, fresh.header), (got.srh or (), fresh.srh or ())):
        assert type(mine) is type(theirs)
        assert [(type(a), a) for a in mine] == [(type(b), b) for b in theirs]
    assert type(got.payload) is bytes and got.payload == fresh.payload
    # Only a packet without an SRH, with plain addresses and a ``bytes``
    # payload has a twin, and it carries the caller's address objects.
    header = packet.header
    twin = (
        packet.srh is None and type(packet.payload) is bytes
        and header.src.scope_id is None and header.dst.scope_id is None
    )
    assert (got.header.src is header.src and got.header.dst is header.dst) is twin
    assert packet.image is None and wire.serialize_packet(got) is data


def test_only_the_very_bytes_object_is_answered_from_the_slot(monkeypatch):
    data = wire.serialize_packet(udp_packet(SRC, SINK, b"slot"))
    work = count_codec_work(monkeypatch)
    twin = wire.parse_packet(data)
    assert work == {"parse": 0, "serialize": 0} and twin.image is data
    assert wire.parse_packet(data) is twin
    # Equal bytes in another object, or in another type, are parsed.
    copies = (bytes(bytearray(data)), bytearray(data), memoryview(data), type("B", (bytes,), {})(data))
    for count, equal in enumerate(copies, 1):
        parsed = wire.parse_packet(equal)
        assert work["parse"] == count
        assert parsed == twin and parsed is not twin and parsed.image == data
    # The slot moved to the last parse: the twin's bytes are parsed again.
    assert wire.parse_packet(data) is not twin and work["parse"] == len(copies) + 1


# Value types: one builder, one construction path ----------------------------------

@st.composite
def value_fields(draw, cls):
    """Fields for a value of ``cls``, each drawn or built from drawn parts."""
    packet = draw(packet_strategy())
    text, other = draw(st.text(max_size=12)), draw(st.text(max_size=12))
    cost = draw(st.tuples(*[st.integers(0, 99)] * 3))
    if cls is Packet:
        return packet.header, packet.srh, packet.payload
    if cls is VnfAction:
        kind = draw(st.sampled_from(ActionKind))
        edit = SegmentListEdit.insert_after_current((BBBB2,)) if kind is ActionKind.EDIT_CHAIN else None
        return kind, None if kind is ActionKind.DROP else packet, edit
    if cls is ConnectorResult:
        return draw(st.sampled_from([(packet, None, cost), (None, text, cost)]))
    if cls is Delivered:
        return packet, text
    if cls is Dropped:
        return text, other
    outcome = draw(st.sampled_from([Delivered(packet, text), Dropped(text, other)]))
    trace = Trace(cost[0])
    trace.add(text, EventKind.DROPPED, other)
    return outcome, trace, {text: cost}


def comparable(value):
    """Type and fields of a value, a ``Trace`` (which compares by identity)
    as its uid and events."""
    return type(value), tuple(
        (field.uid, field.events) if isinstance(field, Trace) else field
        for field in (getattr(value, f.name) for f in dataclasses.fields(value))
    )


def hash_or_refusal(value):
    try:
        return hash(value)
    except TypeError as refusal:
        return str(refusal)


def assert_same_value(one, other, *, traces_shared=True):
    assert comparable(one) == comparable(other)
    if traces_shared:
        assert one == other and repr(one) == repr(other)
        assert hash_or_refusal(one) == hash_or_refusal(other)


VALUE_TYPES = [Packet, VnfAction, ConnectorResult, Delivered, Dropped, InjectResult]


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_builder_and_constructor_make_the_same_value(cls, data):
    fields = data.draw(value_fields(cls))
    built, constructed = cls._build(*fields), cls(*fields)
    assert dataclasses.is_dataclass(cls) and type(built) is cls
    names = [f.name for f in dataclasses.fields(built)]
    assert names == [f.name for f in dataclasses.fields(constructed)]
    for value in (built, constructed):
        # Each field reads back the very object stored, not a class default.
        assert all(getattr(value, name) is field for name, field in zip(names, fields))
        for name in (*names, "mark"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, None)
    assert_same_value(built, constructed)
    assert_same_value(dataclasses.replace(built), constructed)
    changed = cls(*fields[:-1], fields[0])
    assert_same_value(dataclasses.replace(built, **{names[-1]: fields[0]}), changed)
    assert_same_value(type(built)(*fields), constructed)
    for copy_of, deep in (
        (copy.copy, False),
        (copy.deepcopy, True),
        (lambda value: pickle.loads(pickle.dumps(value)), True),
    ):
        for value in (built, constructed):
            assert_same_value(copy_of(value), constructed, traces_shared=not (deep and cls is InjectResult))


def test_a_packet_image_is_no_field():
    packet = udp_packet(SRC, SINK, b"image")
    data = wire.serialize_packet(packet)
    imaged = Packet._build(*(getattr(packet, f.name) for f in dataclasses.fields(Packet)), image=data)
    assert imaged.image is data and packet.image is None
    assert_same_value(imaged, packet)
    assert wire.serialize_packet(imaged) is data
    for clone in (
        dataclasses.replace(imaged), copy.copy(imaged), copy.deepcopy(imaged),
        pickle.loads(pickle.dumps(imaged)), Packet(imaged.header, imaged.srh, imaged.payload),
    ):
        assert clone.image is None
        assert_same_value(clone, imaged)


def test_value_defaults_live_in_the_signatures():
    # A default left on the class would hide the slot: every read of
    # ``cost`` would return (0, 0, 0).
    packet = udp_packet(SRC, SINK)
    for result in (ConnectorResult(packet), ConnectorResult._build(packet)):
        assert (result.packet, result.drop_reason, result.cost) == (packet, None, (0, 0, 0))
    for result in (ConnectorResult(None, "gone", (1, 2, 3)), ConnectorResult._build(None, "gone", (1, 2, 3))):
        assert (result.drop_reason, result.cost) == ("gone", (1, 2, 3))
    assert [f.default for f in dataclasses.fields(ConnectorResult)][1:] == [None, (0, 0, 0)]
    assert VnfAction(ActionKind.DROP) == VnfAction.drop() and VnfAction._build(ActionKind.DROP).packet is None
    with pytest.raises(TypeError, match="cannot be subclassed"):
        type("Marked", (Packet,), {})
    with pytest.raises(TypeError, match="plain defaults only"):
        @wire.value_type
        class Listed:
            items: list = dataclasses.field(default_factory=list)


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
def test_generated_functions_carry_the_type_name(cls):
    # Profiles and tracebacks name them ``<Type>._build``; the function
    # name does not depend on the interpreter's code-object fields.
    for name in ("_build", "__new__", "__reduce__", "__init_subclass__"):
        function = cls.__dict__[name]
        function = getattr(function, "__func__", function)
        assert function.__qualname__ == f"{cls.__qualname__}.{name}"
        assert getattr(function.__code__, "co_qualname", function.__qualname__) == function.__qualname__


# UDP carrier ------------------------------------------------------------------

def test_udp_roundtrip():
    data = encode_udp(40000, 5201, b"payload!")
    header, body = decode_udp(data)
    assert (header.src_port, header.dst_port, header.length) == (40000, 5201, 16)
    assert body == b"payload!"


def test_udp_rejects_truncation():
    with pytest.raises(errors.TruncatedPacket):
        decode_udp(b"\x00" * 7)
    with pytest.raises(errors.TruncatedPacket):
        decode_udp(encode_udp(1, 2, b"abc")[:-1])


# Hexdump -----------------------------------------------------------------------

def test_hexdump_layout():
    dump = hexdump(TESTBED_GOLDEN)
    first = dump.splitlines()[0]
    assert first.startswith("00000000  60 00 00 00 00 60 2b 40")
    assert first.endswith("|`....`+@........|")
    assert len(dump.splitlines()) == 9  # 136 bytes -> 8 full lines + 1 partial
