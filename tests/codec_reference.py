"""Reference codec for the tests: the byte-at-a-time parser and serializer
that ``srv6sfc.wire`` replaced with ``struct``. Every field is read or
written by its own shift and mask, straight from the RFC 8200 and
RFC 8754 layouts, so a field that the fast codec swaps the same way in
both directions still shows up as a difference against these bytes.

``reference_serialize`` expects a valid packet (the tests validate
first); ``reference_parse`` raises the same ``WireError`` classes with
the same messages as the library.
"""

from __future__ import annotations

from ipaddress import IPv6Address

from srv6sfc import errors
from srv6sfc.wire import (
    IPV6_HEADER_LEN,
    NEXT_HEADER_ROUTING,
    SEGMENT_LEN,
    SRH_FIXED_LEN,
    SRH_ROUTING_TYPE,
    Ipv6Header,
    Packet,
    SegmentRoutingHeader,
)


def reference_parse(data: bytes) -> Packet:
    b = bytes(data)
    n = len(b)
    if n < IPV6_HEADER_LEN:
        raise errors.TruncatedPacket(f"need 40 bytes for the fixed header, got {n}")

    version = b[0] >> 4
    if version != 6:
        raise errors.BadVersion(f"version nibble is {version}, not 6")
    traffic_class = ((b[0] & 0x0F) << 4) | (b[1] >> 4)
    flow_label = ((b[1] & 0x0F) << 16) | (b[2] << 8) | b[3]
    payload_length = (b[4] << 8) | b[5]
    next_header = b[6]
    hop_limit = b[7]

    total = IPV6_HEADER_LEN + payload_length
    if n < total:
        raise errors.TruncatedPacket(
            f"payload_length declares {payload_length} bytes, only {n - IPV6_HEADER_LEN} present"
        )
    if n > total:
        raise errors.TrailingBytes(f"{n - total} bytes beyond the declared packet")

    header = Ipv6Header(
        6, traffic_class, flow_label, payload_length, next_header, hop_limit,
        IPv6Address(b[8:24]), IPv6Address(b[24:40]),
    )

    srh = None
    offset = IPV6_HEADER_LEN
    if next_header == NEXT_HEADER_ROUTING:
        if payload_length < SRH_FIXED_LEN:
            raise errors.TruncatedPacket("routing header overruns the declared payload")
        routing_type = b[offset + 2]
        if routing_type != SRH_ROUTING_TYPE:
            raise errors.BadRoutingType(f"routing_type {routing_type}, expected {SRH_ROUTING_TYPE}")
        hdr_ext_len = b[offset + 1]
        if hdr_ext_len == 0 or hdr_ext_len % 2 != 0:
            raise errors.MalformedSrh(f"hdr_ext_len {hdr_ext_len} is not a positive even value")
        seg_count = hdr_ext_len // 2
        srh_len = SRH_FIXED_LEN + 8 * hdr_ext_len
        if payload_length < srh_len:
            raise errors.TruncatedPacket(
                f"SRH needs {srh_len} bytes, payload declares {payload_length}"
            )
        segments_left = b[offset + 3]
        last_entry = b[offset + 4]
        if last_entry != seg_count - 1:
            raise errors.MalformedSrh(
                f"last_entry {last_entry} inconsistent with hdr_ext_len {hdr_ext_len}"
            )
        if segments_left > last_entry:
            raise errors.MalformedSrh(
                f"segments_left {segments_left} exceeds last_entry {last_entry}"
            )
        seg_base = offset + SRH_FIXED_LEN
        segment_list = tuple(
            IPv6Address(b[seg_base + i * SEGMENT_LEN : seg_base + (i + 1) * SEGMENT_LEN])
            for i in range(seg_count)
        )
        srh = SegmentRoutingHeader(
            b[offset], hdr_ext_len, routing_type, segments_left, last_entry,
            b[offset + 5], (b[offset + 6] << 8) | b[offset + 7], segment_list,
        )
        offset += srh_len

    return Packet(header=header, srh=srh, payload=b[offset:total])


def reference_serialize(packet: Packet) -> bytes:
    h = packet.header
    out = bytearray(IPV6_HEADER_LEN + h.payload_length)
    out[0] = 0x60 | (h.traffic_class >> 4)
    out[1] = ((h.traffic_class & 0x0F) << 4) | (h.flow_label >> 16)
    out[2] = (h.flow_label >> 8) & 0xFF
    out[3] = h.flow_label & 0xFF
    out[4] = h.payload_length >> 8
    out[5] = h.payload_length & 0xFF
    out[6] = h.next_header
    out[7] = h.hop_limit
    out[8:24] = h.src.packed
    out[24:40] = h.dst.packed

    offset = IPV6_HEADER_LEN
    srh = packet.srh
    if srh is not None:
        out[offset] = srh.next_header
        out[offset + 1] = srh.hdr_ext_len
        out[offset + 2] = srh.routing_type
        out[offset + 3] = srh.segments_left
        out[offset + 4] = srh.last_entry
        out[offset + 5] = srh.flags
        out[offset + 6] = srh.tag >> 8
        out[offset + 7] = srh.tag & 0xFF
        offset += SRH_FIXED_LEN
        for segment in srh.segment_list:
            out[offset : offset + SEGMENT_LEN] = segment.packed
            offset += SEGMENT_LEN

    out[offset:] = packet.payload
    return bytes(out)
