"""Exception hierarchy shared across the package.

Everything raised on purpose derives from :class:`SfcError`, so callers
can catch one base for "structured failure" versus a genuine bug.
"""


class SfcError(Exception):
    """Base class for all errors raised by this package."""


# wire ----------------------------------------------------------------

class WireError(SfcError):
    """Malformed bytes or an unserializable packet."""


class TruncatedPacket(WireError):
    """Input shorter than the lengths declared inside it."""


class TrailingBytes(WireError):
    """Input longer than the declared packet; round-trips require exact length."""


class BadVersion(WireError):
    """IP version nibble is not 6."""


class BadRoutingType(WireError):
    """Routing extension header present but not segment-routing (type 4)."""


class MalformedSrh(WireError):
    """SRH length fields are odd, zero, or inconsistent with each other."""


class InvariantViolation(WireError):
    """A value object violates its own invariants; construction bug upstream."""


# chain ---------------------------------------------------------------

class ChainError(SfcError):
    """Chain or registry contract violation."""


class UnknownSid(ChainError):
    """SID address not present in the registry."""


class DuplicateSidAddress(ChainError):
    """Two different SID records claim the same address."""


class DuplicateSidInChain(ChainError):
    """The same SID address appears twice in one chain."""


class UnivocalMappingViolation(ChainError):
    """An SR-unaware SID interface would belong to more than one chain."""


class InterfaceMismatch(ChainError):
    """Chain direction disagrees with a traversed SID's egress interface."""


class InvalidChain(ChainError):
    """Chain shape is wrong (e.g. final segment is not an egress endpoint)."""


class UnknownChain(ChainError):
    """Chain id not present in the registry."""


class SidNotInChain(ChainError):
    """Address not found among the chain's segments."""


class SidIsLast(ChainError):
    """Address is the final segment; it has no successor."""


# dataplane -----------------------------------------------------------

class DataplaneError(SfcError):
    """Packet pipeline contract violation."""


class OversizedPacket(DataplaneError):
    """Encapsulated packet too long for the 16-bit IPv6 payload length."""


class NotEncapsulated(DataplaneError):
    """Packet does not carry an inner IPv6 packet."""


class NoSrh(DataplaneError):
    """Operation requires a segment routing header."""


class AlreadyAtLastSegment(DataplaneError):
    """segments_left is zero; nothing to advance to."""


class EditPermissionDenied(DataplaneError):
    """Segment-list edit exceeds the VNF's permission level."""


class PositionOutOfRange(DataplaneError):
    """Insertion position outside the remaining segments."""


class UnknownSidInEdit(DataplaneError):
    """Edit references a SID absent from the registry."""


class InvalidEdit(DataplaneError):
    """Edit is structurally impossible (empty replacement, editor has no SRH view,
    payload stamper handed the encapsulated packet)."""


class UnivocalMappingMissing(DataplaneError):
    """Return traffic from a VNF interface that no chain maps; configuration bug."""


class NotLastSegment(DataplaneError):
    """Egress processing on a packet with segments still pending; misrouted."""


class PipelineLoop(DataplaneError):
    """Connector revisited local VNFs past its budget; a VNF is steering
    the packet in circles."""


# sim -----------------------------------------------------------------

class SimError(SfcError):
    """Topology construction or walk failure."""


class UnknownNodeRef(SimError):
    """Reference to a node id that does not exist."""


class UnreachableNextHop(SimError):
    """Routing entry points at a node that is not a linked neighbor."""


class InvalidTopology(SimError):
    """Network-level invariant broken (empty node set, misplaced VNF, ...)."""


# bench ---------------------------------------------------------------

class BenchError(SfcError):
    """Benchmark harness failure."""


class EmptySweep(BenchError):
    """No rate points to work with."""


class InsufficientPoints(BenchError):
    """Regression needs at least two distinct rates."""


class DegenerateX(BenchError):
    """All rates equal; slope is undefined."""


# config / cli --------------------------------------------------------

class ConfigError(SfcError):
    """Scenario configuration problem."""


class ParseError(ConfigError):
    """File unreadable or syntactically broken beyond recovery."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


class ValidationError(ConfigError):
    """All semantic errors found in a config, collected (not just the first)."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
