"""Packet wire model and codec.

The codec is ``_codec_py``. Callers go through ``wire.parse_packet``
and ``wire.serialize_packet``, so a tracer that rebinds them sees every call.
"""

from __future__ import annotations

from srv6sfc.wire._codec_py import parse_packet, serialize_packet
from srv6sfc.wire.model import (
    DEFAULT_HOP_LIMIT,
    IPV6_HEADER_LEN,
    MAX_PAYLOAD_LEN,
    NEXT_HEADER_IPV6,
    NEXT_HEADER_NONE,
    NEXT_HEADER_ROUTING,
    NEXT_HEADER_UDP,
    SEGMENT_LEN,
    SRH_FIXED_LEN,
    SRH_ROUTING_TYPE,
    UDP_HEADER_LEN,
    Ipv6Header,
    Packet,
    SegmentRoutingHeader,
    UdpHeader,
    active_segment,
    decode_udp,
    encode_udp,
    udp_packet,
    validate_packet,
)

__all__ = [
    "DEFAULT_HOP_LIMIT",
    "IPV6_HEADER_LEN",
    "MAX_PAYLOAD_LEN",
    "NEXT_HEADER_IPV6",
    "NEXT_HEADER_NONE",
    "NEXT_HEADER_ROUTING",
    "NEXT_HEADER_UDP",
    "SEGMENT_LEN",
    "SRH_FIXED_LEN",
    "SRH_ROUTING_TYPE",
    "UDP_HEADER_LEN",
    "Ipv6Header",
    "Packet",
    "SegmentRoutingHeader",
    "UdpHeader",
    "active_backend",
    "active_segment",
    "decode_udp",
    "encode_udp",
    "hexdump",
    "parse_packet",
    "serialize_packet",
    "udp_packet",
    "validate_packet",
]


def active_backend() -> str:
    """Name of the codec, for run metadata; there is only one."""
    return "python"


def hexdump(data: bytes) -> str:
    """Classic dump: offset, 16 hex bytes in two groups, ASCII gutter."""
    lines = []
    for base in range(0, len(data), 16):
        chunk = data[base : base + 16]
        left = " ".join(f"{byte:02x}" for byte in chunk[:8])
        right = " ".join(f"{byte:02x}" for byte in chunk[8:])
        gutter = "".join(chr(byte) if 0x20 <= byte < 0x7F else "." for byte in chunk)
        lines.append(f"{base:08x}  {left:<23}  {right:<23}  |{gutter}|")
    return "\n".join(lines)
