"""Packet wire model and codec: the IPv6 fixed header, the segment
routing extension header (routing type 4) and a minimal UDP carrier.

All multi-byte fields are big-endian. The segment list is stored in
reverse path order: ``segment_list[0]`` is the final segment and
``segments_left`` indexes the active entry, counting down as the packet
progresses. Chains written in forward path order are reversed on entry
(see :meth:`SegmentRoutingHeader.from_path`).

The codec is ``struct`` over two layouts. ``_FIXED`` (``!IHBB``) is one
32-bit word of version (4 bits), traffic class (8) and flow label (20),
then payload length, next header and hop limit; the two addresses follow.
``_SRH_FIXED`` (``!BBBBBBH``) is the SRH's first 8 bytes, in field order;
the segments follow, ``segment_list[0]`` first, then the payload.

The codec checks every length before the corresponding bytes are
touched, so arbitrary input can never cause an out-of-range read:
malformed bytes raise a :class:`srv6sfc.errors.WireError` subclass,
nothing else. Serializing validates first, so ``struct`` never sees an
out-of-range field. Callers go through ``wire.parse_packet`` and
``wire.serialize_packet``, so a tracer that rebinds them sees every call.

Neither direction does work twice. Parsed addresses come from an intern
table keyed by their 16 bytes, first come first stored up to
``ADDRESS_INTERN_LIMIT`` entries, so equal parsed ones are one object. A
parsed packet keeps its bytes as ``image``, which ``serialize_packet``
returns (a rewrite, ``dataclasses.replace`` or a copy has none). One
slot holds the last parse's packet, or the twin of the last serialize of
a packet without an image: its validated header with the bytes it
returns as image, equal to their parse but for the caller's addresses
(an SRH, a scoped address or a non-``bytes`` payload gets no twin).
``parse_packet`` of the slot's image, that very object, never an equal
one, returns the slot's packet; ``clear_slot`` empties it. These tests
sit inside the calls, so a tracer counts them all.

Packet-path idioms. The walk (``sim``), the connector and rewrites
(``dataplane``), the prefix tables (``chain``), the trace and this codec
keep four rules, stated here once:

* Enum members are read from module constants. Each Enum's module binds
  its members beside it under their own names (``trace.DROPPED`` is
  ``EventKind.DROPPED``; likewise ``chain.SR_AWARE``, ``dataplane.DROP``
  and ``dataplane.REPLACE``), and the packet path reads those: on CPython
  3.11 ``EnumType`` defines ``__getattr__``, so a read through the class
  is a slow lookup, about 100 ns against a few for a module global, and
  a walk would make dozens. Set-up and CLI code still write
  ``EventKind.X``. Nor is a member hashed per packet (``Enum.__hash__``
  is a Python function): members are compared by identity, and a table
  keyed by kind uses its value string.
* Addresses are keyed by their ``_ip`` integer. ``int()``, ``hash()``
  and ``packed`` of an ``IPv6Address``, and ``IPv6Network.__contains__``,
  are Python-level calls; the ``_ip`` slot holds what ``int()`` returns.
  So every per-packet probe reads the slot: the node's VNF, local-address
  and return tables, the prefix tables, ``PrefixFilter``, the trace's
  event memo and ``chain.address_key``. This codec packs an address as
  ``_ip.to_bytes(16, "big")``.
* Values are built by plain slot stores. The values the packet path
  builds (``Packet``, ``dataplane.VnfAction`` and ``ConnectorResult``,
  ``sim.Delivered``, ``Dropped`` and ``InjectResult``) are frozen
  dataclasses made by :func:`value_type`, whose fields are slots of a
  private base class. Each type's ``_build(*fields)`` makes a draft, an
  instance of a private sibling class of the same layout that is not
  frozen, stores each field into it, and sets its ``__class__`` to the
  type. A store through the slot descriptor's ``__set__``, or the frozen
  class's ``object.__setattr__``, costs about six times a plain one.
  ``__new__`` calls ``_build``, so ``replace``, ``copy``, ``pickle``
  (through ``__reduce__``) and ``type(v)(*fields)`` build the same way,
  and the packet path calls ``_build`` directly. A class may define
  ``__init__`` for checks only, which ``_build`` never enters.
* Fields are read, not derived through properties. An SRH is
  ``SRH_FIXED_LEN + SEGMENT_LEN * n`` bytes for ``n`` segments, and a
  packet's payload protocol is its SRH's ``next_header``, or the IPv6
  header's when it has no SRH; the packet path applies both rules to
  fields it has already read. The rewrites unpack the header and SRH
  tuples into named fields and build new ones with ``tuple.__new__``,
  every field in order.
"""

from __future__ import annotations

import struct
from dataclasses import Field, dataclass
from ipaddress import IPv6Address
from typing import NamedTuple

from srv6sfc import errors

NEXT_HEADER_UDP = 17
NEXT_HEADER_IPV6 = 41      # IPv6-in-IPv6: payload is a full inner packet
NEXT_HEADER_ROUTING = 43   # routing extension header follows
NEXT_HEADER_NONE = 59      # no payload at all

SRH_ROUTING_TYPE = 4
IPV6_HEADER_LEN = 40
SRH_FIXED_LEN = 8
SEGMENT_LEN = 16
UDP_HEADER_LEN = 8
DEFAULT_HOP_LIMIT = 64
MAX_PAYLOAD_LEN = 0xFFFF
MAX_SEGMENTS = 127         # hdr_ext_len = 2n must fit its 8 bits
ADDRESS_INTERN_LIMIT = 4096
_FIXED = struct.Struct("!IHBB")
_SRH_FIXED = struct.Struct("!BBBBBBH")
_UDP = struct.Struct("!HHHH")


def active_backend() -> str:
    """Name of the codec, for run metadata; there is only one."""
    return "python"


# Model ------------------------------------------------------------------

def value_type(cls=None, /, *, extra: tuple[str, ...] = ()):
    """Make ``cls``, a class of annotated fields, a frozen dataclass built
    by plain slot stores (see the module docstring). ``extra`` names slots
    that are not fields; ``_build`` takes each as a keyword, default
    ``None``. A field default goes into the signatures, not the class,
    where it would hide the slot. A value type cannot be subclassed."""
    if cls is None:
        return lambda cls: value_type(cls, extra=extra)
    names = tuple(cls.__annotations__)
    namespace = {key: value for key, value in cls.__dict__.items() if key not in ("__dict__", "__weakref__")}
    defaults = {name: namespace[name] for name in names if name in namespace}
    if any(isinstance(default, Field) for default in defaults.values()):
        raise TypeError(f"{cls.__qualname__}: a value type takes plain defaults only")
    params = ", ".join(f"{name}=_d_{name}" if name in defaults else name for name in names)
    stores = "".join(f"    _draft.{name} = {name}\n" for name in (*names, *extra))
    source = (
        f"def _build({params}{''.join(f', {name}=None' for name in extra)}):\n"
        f"    _draft = _Draft()\n{stores}    _draft.__class__ = _Public\n    return _draft\n"
        f"def __new__(cls, {params}):\n    return _build({', '.join(names)})\n"
        f"def __reduce__(self):\n    return _Public, ({''.join(f'self.{name}, ' for name in names)})\n"
        f"def __init_subclass__(cls, **kwargs):\n"
        f"    raise TypeError('value type {cls.__qualname__} cannot be subclassed')\n"
    )
    scope = {"__name__": cls.__module__, **{f"_d_{name}": value for name, value in defaults.items()}}
    exec(source, scope)
    for name in ("_build", "__new__", "__reduce__", "__init_subclass__"):
        function = namespace[name] = scope[name]
        function.__qualname__ = f"{cls.__qualname__}.{name}"
        if hasattr(function.__code__, "co_qualname"):  # Python 3.11+
            function.__code__ = function.__code__.replace(co_qualname=function.__qualname__)
    namespace.update(__slots__=(), __qualname__=cls.__qualname__, _build=staticmethod(scope["_build"]))
    slots = type(f"_{cls.__name__}Slots", (), {"__slots__": names + extra, "__module__": cls.__module__})
    scope["_Draft"] = type(f"_{cls.__name__}Draft", (slots,), {"__slots__": (), "__module__": cls.__module__})
    public = scope["_Public"] = dataclass(frozen=True, init=False)(type(cls.__name__, (slots,), namespace))
    for name in defaults:
        delattr(public, name)
    return public


class Ipv6Header(NamedTuple):
    """Fixed 40-byte IPv6 header.

     0 1 2 3 4 5 6 7 0 1 2 3 4 5 6 7 0 1 2 3 4 5 6 7 0 1 2 3 4 5 6 7
    +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
    |Version| Traffic Class |           Flow Label                  |
    +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
    |         Payload Length        |  Next Header  |   Hop Limit   |
    +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
    |                         Source Address        (16 octets)     |
    +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
    |                      Destination Address      (16 octets)     |
    +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+

    ``payload_length`` counts everything after these 40 bytes, including
    any extension header. Immutable; edit with ``_replace``.
    """

    version: int
    traffic_class: int
    flow_label: int
    payload_length: int
    next_header: int
    hop_limit: int
    src: IPv6Address
    dst: IPv6Address


class SegmentRoutingHeader(NamedTuple):
    """Routing extension header of type 4 carrying the segment list.

     0 1 2 3 4 5 6 7 0 1 2 3 4 5 6 7 0 1 2 3 4 5 6 7 0 1 2 3 4 5 6 7
    +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
    | Next Header   |  Hdr Ext Len  | Routing Type=4| Segments Left |
    +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
    |  Last Entry   |     Flags     |              Tag              |
    +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
    |            Segment List[0]  (final segment, 16 octets)        |
    +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
    |            ...                                                 |
    +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+

    ``hdr_ext_len`` is in 8-octet units excluding the first 8 octets, so
    it equals ``2 * len(segment_list)``. TLVs are not supported; the
    length law is exact. ``flags`` and ``tag`` are carried opaquely.
    Immutable, so one instance can be shared by every packet of a chain.
    """

    next_header: int
    hdr_ext_len: int
    routing_type: int
    segments_left: int
    last_entry: int
    flags: int
    tag: int
    segment_list: tuple[IPv6Address, ...]

    @classmethod
    def from_path(
        cls,
        path: tuple[IPv6Address, ...] | list[IPv6Address],
        *,
        segments_left: int | None = None,
    ) -> "SegmentRoutingHeader":
        """Build an SRH over inner IPv6, flags and tag 0, from segments in forward path order.

        ``segments_left`` defaults to pointing at the first path segment.
        """
        segs = tuple(reversed(tuple(path)))
        n = len(segs)
        if n == 0:
            raise errors.InvariantViolation("segment list must not be empty")
        if segments_left is None:
            segments_left = n - 1
        return cls(NEXT_HEADER_IPV6, 2 * n, SRH_ROUTING_TYPE, segments_left, n - 1, 0, 0, segs)


@value_type(extra=("image",))
class Packet:
    """One IPv6 packet: header, optional SRH, opaque payload bytes.

    When the payload protocol (see the module docstring) is IPv6-in-IPv6
    the payload is a full serialized inner packet. A plain value:
    equality and hash compare the three fields, and assigning any
    attribute raises ``dataclasses.FrozenInstanceError``. Edit with
    ``dataclasses.replace``. ``image``, a slot but not a field, holds the
    bytes of a parsed packet or a twin; ``_build`` takes it as a keyword.
    """

    header: Ipv6Header
    srh: SegmentRoutingHeader | None
    payload: bytes


_packet = Packet._build


class _Interned(dict):
    def __missing__(self, packed: bytes) -> IPv6Address:
        address = IPv6Address(packed)
        if len(self) < ADDRESS_INTERN_LIMIT:
            self[packed] = address
        return address


_addresses = _Interned()
# The slot (see the module docstring): one object, read and replaced in one
# step each, so no thread pairs one call's bytes with another call's packet.
_last = _EMPTY = _packet(None, None, b"")  # its image, None, is no bytes object


def clear_slot() -> None:
    """Empty the slot; ``sim.inject`` does so as each walk ends."""
    global _last
    _last = _EMPTY


def active_segment(srh: SegmentRoutingHeader) -> IPv6Address:
    """The segment the packet is currently travelling toward."""
    if not 0 <= srh.segments_left < len(srh.segment_list):
        raise errors.InvariantViolation(
            f"segments_left {srh.segments_left} outside segment list of "
            f"length {len(srh.segment_list)}"
        )
    return srh.segment_list[srh.segments_left]


def validate_packet(packet: Packet) -> None:
    """Check every serializability invariant; raise InvariantViolation.

    Serialization calls this first so that a malformed in-memory packet
    is reported as a construction bug rather than emitted as bad bytes.
    """
    version, traffic_class, flow_label, payload_length, next_header, hop_limit, _, _ = packet.header
    if version != 6:
        raise errors.InvariantViolation(f"version must be 6, got {version}")
    if not 0 <= traffic_class <= 0xFF:
        raise errors.InvariantViolation(f"traffic_class out of range: {traffic_class}")
    if not 0 <= flow_label <= 0xFFFFF:
        raise errors.InvariantViolation(f"flow_label out of range: {flow_label}")
    if not 0 <= next_header <= 0xFF:
        raise errors.InvariantViolation(f"next_header out of range: {next_header}")
    if not 0 <= hop_limit <= 0xFF:
        raise errors.InvariantViolation(f"hop_limit out of range: {hop_limit}")

    srh = packet.srh
    srh_len = 0
    if srh is not None:
        if next_header != NEXT_HEADER_ROUTING:
            raise errors.InvariantViolation("SRH present but header.next_header != routing (43)")
        srh_next, hdr_ext_len, routing_type, segments_left, last_entry, flags, tag, segments = srh
        n = len(segments)
        if n == 0:
            raise errors.InvariantViolation("segment list must not be empty")
        if n > MAX_SEGMENTS:
            raise errors.InvariantViolation(f"{n} segments exceed the SRH maximum of {MAX_SEGMENTS}")
        if routing_type != SRH_ROUTING_TYPE:
            raise errors.InvariantViolation(
                f"routing_type must be {SRH_ROUTING_TYPE}, got {routing_type}"
            )
        if last_entry != n - 1:
            raise errors.InvariantViolation(f"last_entry {last_entry} != {n - 1} for {n} segments")
        if not 0 <= segments_left <= last_entry:
            raise errors.InvariantViolation(
                f"segments_left {segments_left} exceeds last_entry {last_entry}"
            )
        if hdr_ext_len != 2 * n:
            raise errors.InvariantViolation(f"hdr_ext_len {hdr_ext_len} != 2 * {n} segments")
        if not 0 <= srh_next <= 0xFF:
            raise errors.InvariantViolation(f"SRH next_header out of range: {srh_next}")
        if not 0 <= flags <= 0xFF:
            raise errors.InvariantViolation(f"SRH flags out of range: {flags}")
        if not 0 <= tag <= 0xFFFF:
            raise errors.InvariantViolation(f"SRH tag out of range: {tag}")
        srh_len = SRH_FIXED_LEN + SEGMENT_LEN * n
    elif next_header == NEXT_HEADER_ROUTING:
        raise errors.InvariantViolation("header.next_header is routing (43) but no SRH attached")

    expected = srh_len + len(packet.payload)
    if payload_length != expected:
        raise errors.InvariantViolation(
            f"payload_length {payload_length} != SRH {srh_len} + payload {len(packet.payload)}"
        )
    if expected > MAX_PAYLOAD_LEN:
        raise errors.InvariantViolation(f"payload too long for 16-bit length: {expected}")


# Codec ------------------------------------------------------------------

def parse_packet(data: bytes | bytearray | memoryview) -> Packet:
    """Parse one packet, bit-exactly; re-serializing returns the input."""
    global _last
    b = bytes(data)
    if b is (last := _last).image:
        return last
    n = len(b)
    if n < IPV6_HEADER_LEN:
        raise errors.TruncatedPacket(f"need 40 bytes for the fixed header, got {n}")

    word, payload_length, next_header, hop_limit = _FIXED.unpack_from(b)
    version = word >> 28
    if version != 6:
        raise errors.BadVersion(f"version nibble is {version}, not 6")

    total = IPV6_HEADER_LEN + payload_length
    if n < total:
        raise errors.TruncatedPacket(
            f"payload_length declares {payload_length} bytes, only {n - IPV6_HEADER_LEN} present"
        )
    if n > total:
        raise errors.TrailingBytes(f"{n - total} bytes beyond the declared packet")

    header = tuple.__new__(Ipv6Header, (
        6, (word >> 20) & 0xFF, word & 0xFFFFF, payload_length, next_header, hop_limit,
        _addresses[b[8:24]], _addresses[b[24:40]],
    ))

    if next_header != NEXT_HEADER_ROUTING:
        _last = packet = _packet(header, None, b[IPV6_HEADER_LEN:], b)
        return packet
    if payload_length < SRH_FIXED_LEN:
        raise errors.TruncatedPacket("routing header overruns the declared payload")
    srh_next, hdr_ext_len, routing_type, segments_left, last_entry, flags, tag = (
        _SRH_FIXED.unpack_from(b, IPV6_HEADER_LEN)
    )
    if routing_type != SRH_ROUTING_TYPE:
        raise errors.BadRoutingType(f"routing_type {routing_type}, expected {SRH_ROUTING_TYPE}")
    if hdr_ext_len == 0 or hdr_ext_len % 2 != 0:
        raise errors.MalformedSrh(f"hdr_ext_len {hdr_ext_len} is not a positive even value")
    srh_len = SRH_FIXED_LEN + 8 * hdr_ext_len
    if payload_length < srh_len:
        raise errors.TruncatedPacket(f"SRH needs {srh_len} bytes, payload declares {payload_length}")
    if last_entry != hdr_ext_len // 2 - 1:
        raise errors.MalformedSrh(
            f"last_entry {last_entry} inconsistent with hdr_ext_len {hdr_ext_len}"
        )
    if segments_left > last_entry:
        raise errors.MalformedSrh(f"segments_left {segments_left} exceeds last_entry {last_entry}")
    start = IPV6_HEADER_LEN + SRH_FIXED_LEN
    end = IPV6_HEADER_LEN + srh_len
    srh = tuple.__new__(SegmentRoutingHeader, (
        srh_next, hdr_ext_len, routing_type, segments_left, last_entry, flags, tag,
        tuple(_addresses[b[i : i + SEGMENT_LEN]] for i in range(start, end, SEGMENT_LEN)),
    ))
    _last = packet = _packet(header, srh, b[end:], b)
    return packet


def serialize_packet(packet: Packet) -> bytes:
    """Emit network byte order; the exact inverse of :func:`parse_packet`."""
    global _last
    if packet.image is not None:
        return packet.image
    validate_packet(packet)
    _, traffic_class, flow_label, payload_length, next_header, hop_limit, src, dst = header = packet.header
    word = 0x60000000 | traffic_class << 20 | flow_label
    fixed = _FIXED.pack(word, payload_length, next_header, hop_limit)
    src_bytes, dst_bytes = src._ip.to_bytes(16, "big"), dst._ip.to_bytes(16, "big")
    srh, payload = packet.srh, packet.payload
    if srh is not None:
        return b"".join((
            fixed, src_bytes, dst_bytes, _SRH_FIXED.pack(*srh[:7]),
            *[segment._ip.to_bytes(16, "big") for segment in srh[7]], payload,
        ))
    image = b"".join((fixed, src_bytes, dst_bytes, payload))
    if (type(header) is Ipv6Header and type(payload) is bytes and type(src) is IPv6Address
            and type(dst) is IPv6Address and src._scope_id is None and dst._scope_id is None):
        _last = _packet(header, None, payload, image)
    return image


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


# UDP carrier ----------------------------------------------------------

class UdpHeader(NamedTuple):
    """8-byte UDP header. The checksum is carried opaquely, never computed."""

    src_port: int
    dst_port: int
    length: int
    checksum: int = 0


def encode_udp(src_port: int, dst_port: int, data: bytes) -> bytes:
    """Datagram bytes for ``data`` with the length field filled in and checksum 0."""
    length = UDP_HEADER_LEN + len(data)
    if length > MAX_PAYLOAD_LEN:
        raise errors.InvariantViolation(f"UDP datagram too long: {length}")
    for name, value in (("src_port", src_port), ("dst_port", dst_port)):
        if not 0 <= value <= 0xFFFF:
            raise errors.InvariantViolation(f"UDP {name} out of range: {value}")
    return _UDP.pack(src_port, dst_port, length, 0) + data


def decode_udp(data: bytes) -> tuple[UdpHeader, bytes]:
    if len(data) < UDP_HEADER_LEN:
        raise errors.TruncatedPacket(f"UDP needs 8 bytes, got {len(data)}")
    header = UdpHeader._make(_UDP.unpack_from(data))
    if header.length != len(data):
        raise errors.TruncatedPacket(
            f"UDP length field {header.length} != {len(data)} bytes present"
        )
    return header, data[UDP_HEADER_LEN:]


def udp_packet(
    src: IPv6Address,
    dst: IPv6Address,
    payload: bytes = b"",
    *,
    src_port: int = 40000,
    dst_port: int = 5201,
    hop_limit: int = DEFAULT_HOP_LIMIT,
) -> Packet:
    """Convenience builder for a plain IPv6+UDP packet with correct lengths."""
    datagram = encode_udp(src_port, dst_port, payload)
    header = Ipv6Header(6, 0, 0, len(datagram), NEXT_HEADER_UDP, hop_limit, src, dst)
    return _packet(header, None, datagram)
