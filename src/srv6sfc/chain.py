"""Service chains, the SID registry, and ingress classification.

A chain is an ordered list of SID addresses ending in an egress
endpoint. SR-unaware SIDs are subject to the univocal-mapping rule:
each of their egress interfaces may feed at most one chain, because
return traffic from such a VNF carries no segment header and the
connector must be able to re-associate it statelessly. Interfaces are
tracked per SID, so one VNF instance can serve an eastbound and a
westbound chain through different interfaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from ipaddress import IPv6Address, IPv6Network
from typing import Generic, Iterable, NamedTuple, TypeVar

from srv6sfc import errors
from srv6sfc.wire import MAX_SEGMENTS, SegmentRoutingHeader

T = TypeVar("T")


class SidKind(Enum):
    SR_AWARE = "sr-aware"
    SR_UNAWARE = "sr-unaware"
    EGRESS_ENDPOINT = "egress"


# The members as module constants, for the packet path (see ``wire``'s module docstring).
SR_AWARE, SR_UNAWARE, EGRESS_ENDPOINT = SidKind


class VnfInterface(Enum):
    SINGLE = "single"
    WEST = "west"
    EAST = "east"


class ChainDirection(Enum):
    UNIDIRECTIONAL = "uni"
    EASTBOUND = "east"
    WESTBOUND = "west"


# Which egress interface a chain of a given direction traverses.
DIRECTION_INTERFACE = {
    ChainDirection.UNIDIRECTIONAL: VnfInterface.SINGLE,
    ChainDirection.EASTBOUND: VnfInterface.EAST,
    ChainDirection.WESTBOUND: VnfInterface.WEST,
}


@dataclass(frozen=True)
class Sid:
    """One segment endpoint: a VNF instance interface or an egress router.

    ``interface`` names the VNF interface this SID's traffic exits from;
    plain unidirectional VNFs use SINGLE.
    """

    address: IPv6Address
    kind: SidKind
    host_node: str
    interface: VnfInterface = VnfInterface.SINGLE


@dataclass(frozen=True)
class VnfChain:
    """Ordered SID addresses a packet must traverse; last one is the egress.

    ``ingress_source`` becomes the outer source address at encapsulation.
    ``ladder`` is the chain's SRH at every step, built once here:
    ``ladder[k]`` is the SRH with ``segments_left`` = k, and the rungs
    differ in nothing else. ``srh``, the top rung (whole path, first
    segment active), is the encapsulation SRH, shared by every packet the
    chain encapsulates; the registry steers SR-unaware return traffic
    with lower rungs and steps an SR-aware advance down the ladder.
    """

    chain_id: str
    segments: tuple[IPv6Address, ...]
    ingress_source: IPv6Address
    direction: ChainDirection = ChainDirection.UNIDIRECTIONAL
    srh: SegmentRoutingHeader = field(init=False, repr=False, compare=False)
    ladder: tuple[SegmentRoutingHeader, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise errors.InvalidChain(f"chain {self.chain_id!r} has no segments")
        if len(self.segments) > MAX_SEGMENTS:
            raise errors.InvalidChain(f"chain {self.chain_id!r} has more than {MAX_SEGMENTS} segments")
        seen = set()
        for address in self.segments:
            if address in seen:
                raise errors.DuplicateSidInChain(
                    f"chain {self.chain_id!r} lists {address} twice"
                )
            seen.add(address)
        top = SegmentRoutingHeader.from_path(self.segments)
        ladder = tuple(top._replace(segments_left=k) for k in range(len(self.segments) - 1))
        object.__setattr__(self, "srh", top)
        object.__setattr__(self, "ladder", (*ladder, top))

    @property
    def egress(self) -> IPv6Address:
        return self.segments[-1]


@dataclass(frozen=True)
class ClassifierRule:
    """Destination-prefix match installing a chain; longest prefix wins,
    then earliest-installed."""

    network: IPv6Network
    chain_id: str


def longest_prefix_match(entries: Iterable[tuple[IPv6Network, T]], address: IPv6Address) -> T | None:
    """Generic LPM over (prefix, value) pairs; earliest entry wins ties."""
    best: T | None = None
    best_len = -1
    for network, value in entries:
        if address in network and network.prefixlen > best_len:
            best = value
            best_len = network.prefixlen
    return best


_ALL_ONES = (1 << 128) - 1
_MISSING = object()


class PrefixTable(Generic[T]):
    """Longest-prefix match compiled once from (prefix, value) pairs.

    One dict per prefix length, keyed by the integer network address and
    probed longest length first, so a lookup costs one masked dict probe
    per distinct length instead of a scan of every entry. The earliest
    entry wins a tie, as in ``longest_prefix_match``, which stays the
    reference. Later changes to the source entries are not seen.
    """

    __slots__ = ("_buckets",)

    def __init__(self, entries: Iterable[tuple[IPv6Network, T]]):
        by_length: dict[int, dict[int, T]] = {}
        for network, value in entries:
            bucket = by_length.setdefault(network.prefixlen, {})
            bucket.setdefault(int(network.network_address), value)
        self._buckets = tuple(
            (_ALL_ONES ^ (_ALL_ONES >> length), by_length[length])
            for length in sorted(by_length, reverse=True)
        )

    def lookup(self, address: IPv6Address) -> T | None:
        key = address._ip
        for mask, bucket in self._buckets:
            value = bucket.get(key & mask, _MISSING)
            if value is not _MISSING:
                return value
        return None


def classify(rules: Iterable[ClassifierRule], dst: IPv6Address) -> str | None:
    """Chain id for a destination, or None to proceed as plain IPv6."""
    return longest_prefix_match(((r.network, r.chain_id) for r in rules), dst)


def next_after(chain: VnfChain, sid: IPv6Address) -> IPv6Address:
    """The successor segment of ``sid`` within the chain."""
    try:
        index = chain.segments.index(sid)
    except ValueError:
        raise errors.SidNotInChain(f"{sid} not in chain {chain.chain_id!r}") from None
    if index == len(chain.segments) - 1:
        raise errors.SidIsLast(f"{sid} is the final segment of chain {chain.chain_id!r}")
    return chain.segments[index + 1]


def address_key(address: IPv6Address) -> int | tuple[int, str]:
    """An address as a key that hashes in C: its ``_ip`` integer, paired
    with its scope id when it has one."""
    return address._ip if address._scope_id is None else (address._ip, address._scope_id)


# A registered rung's entry in ``ChainRegistry.rungs``: the rung, the
# rung below it and the segment that one makes active.
Step = tuple[SegmentRoutingHeader, SegmentRoutingHeader, IPv6Address]


class UnawareReturn(NamedTuple):
    """Where traffic leaving an SR-unaware interface goes next: its
    mapped chain, the successor segment, and the SRH that steers there
    (``segments_left`` = n-2-index for the SID at ``index``), a rung of
    the chain's ladder."""

    chain: VnfChain
    successor: IPv6Address
    srh: SegmentRoutingHeader


class ChainRegistry:
    """SIDs, chains, and the (address, interface) -> chain bookkeeping.

    Built at startup, read-only during a simulation run. Registration is
    atomic: a chain that fails validation leaves the registry untouched.

    Registration also compiles the static facts of the SR-unaware return
    path (the End.AS proxy's rebuild): ``returns`` maps each mapped
    (address, interface) to its :class:`UnawareReturn`, so the connector
    re-encapsulates with one dict probe. It is the one table of the
    univocal mapping: an entry's chain is the chain its key feeds.

    ``rungs`` maps the ``id`` of each registered chain's rungs above
    ``segments_left`` 0 to a :data:`Step`: the rung itself, the rung
    below and that rung's active segment, so ``dataplane.advance_segment``
    steps a rung's packet down the ladder with one dict probe. The entry
    holds the rung, which keeps its ``id`` from being reused, and a lookup
    compares the rung by ``is``.

    ``sid_keys`` holds the ``address_key`` of every registered SID, so a
    per-packet check hashes an integer, not an ``IPv6Address``. Add SIDs
    through ``add_sid``, which keeps both tables.
    """

    def __init__(self):
        self.chains: dict[str, VnfChain] = {}
        self.sid_table: dict[IPv6Address, Sid] = {}
        self.sid_keys: set[int | tuple[int, str]] = set()
        self.returns: dict[tuple[IPv6Address, VnfInterface], UnawareReturn] = {}
        self.rungs: dict[int, Step] = {}

    def copy(self) -> ChainRegistry:
        """An independent registry with the same contents. The entries
        (SIDs, chains, return paths, rungs) are immutable, so copying the
        tables is enough."""
        clone = ChainRegistry()
        clone.chains = dict(self.chains)
        clone.sid_table = dict(self.sid_table)
        clone.sid_keys = set(self.sid_keys)
        clone.returns = dict(self.returns)
        clone.rungs = dict(self.rungs)
        return clone

    def add_sid(self, sid: Sid) -> None:
        existing = self.sid_table.get(sid.address)
        if existing is not None and existing != sid:
            raise errors.DuplicateSidAddress(f"{sid.address} already registered as {existing}")
        self.sid_table[sid.address] = sid
        self.sid_keys.add(address_key(sid.address))

    def sid(self, address: IPv6Address) -> Sid:
        try:
            return self.sid_table[address]
        except KeyError:
            raise errors.UnknownSid(f"no SID registered at {address}") from None

    def chain(self, chain_id: str) -> VnfChain:
        try:
            return self.chains[chain_id]
        except KeyError:
            raise errors.UnknownChain(f"no chain {chain_id!r}") from None

    def mapped_chain(self, address: IPv6Address, interface: VnfInterface) -> str | None:
        entry = self.returns.get((address, interface))
        return None if entry is None else entry.chain.chain_id

    def unaware_return(self, sid: Sid) -> UnawareReturn:
        """The compiled return path of an SR-unaware SID's interface."""
        entry = self.returns.get((sid.address, sid.interface))
        if entry is None:
            raise errors.UnivocalMappingMissing(
                f"no chain mapped for SR-unaware interface ({sid.address}, {sid.interface.value})"
            )
        return entry

    def _validate_chain(self, chain: VnfChain) -> list[tuple[IPv6Address, VnfInterface]]:
        """All univocal-mapping keys the chain would claim; raises on any
        contract violation without mutating the registry."""
        required = DIRECTION_INTERFACE[chain.direction]
        keys: list[tuple[IPv6Address, VnfInterface]] = []
        for address in chain.segments:
            sid = self.sid(address)
            if sid.kind is SidKind.EGRESS_ENDPOINT:
                continue
            if sid.interface is not required:
                raise errors.InterfaceMismatch(
                    f"chain {chain.chain_id!r} ({chain.direction.value}) traverses "
                    f"{address} whose interface is {sid.interface.value}, "
                    f"needs {required.value}"
                )
            if sid.kind is SidKind.SR_UNAWARE:
                keys.append((address, sid.interface))
        last = self.sid(chain.segments[-1])
        if last.kind is not SidKind.EGRESS_ENDPOINT:
            raise errors.InvalidChain(
                f"chain {chain.chain_id!r} must end at an egress endpoint, "
                f"got {last.kind.value} at {last.address}"
            )
        for key in keys:
            entry = self.returns.get(key)
            if entry is not None and entry.chain.chain_id != chain.chain_id:
                raise errors.UnivocalMappingViolation(
                    f"SR-unaware interface ({key[0]}, {key[1].value}) already "
                    f"feeds chain {entry.chain.chain_id!r}; cannot also feed {chain.chain_id!r}"
                )
        return keys

    def register_chain(self, chain: VnfChain) -> None:
        """Add or replace a chain. Re-registering the identical chain is a
        no-op; a changed chain under the same id releases its old mappings
        first."""
        previous = self.chains.get(chain.chain_id)
        if previous == chain:
            return
        if previous is not None:
            self.unregister_chain(chain.chain_id)
            try:
                keys = self._validate_chain(chain)
            except errors.ChainError:
                self._commit(previous, self._validate_chain(previous))
                raise
        else:
            keys = self._validate_chain(chain)
        self._commit(chain, keys)

    def _commit(self, chain: VnfChain, keys: list[tuple[IPv6Address, VnfInterface]]) -> None:
        self.chains[chain.chain_id] = chain
        segments, ladder = chain.segments, chain.ladder
        n = len(segments)
        for key in keys:
            index = segments.index(key[0])
            self.returns[key] = UnawareReturn(chain, segments[index + 1], ladder[n - 2 - index])
        for k in range(1, n):
            self.rungs[id(ladder[k])] = (ladder[k], ladder[k - 1], segments[n - k])

    def unregister_chain(self, chain_id: str) -> None:
        chain = self.chain(chain_id)  # UnknownChain when absent
        del self.chains[chain_id]
        for key, entry in list(self.returns.items()):
            if entry.chain.chain_id == chain_id:
                del self.returns[key]
        for rung in chain.ladder[1:]:
            del self.rungs[id(rung)]

    def register_bidirectional(self, east: VnfChain, west: VnfChain) -> None:
        """Register an eastbound/westbound pair atomically.

        Interfaces keep the directions apart, so one VNF instance may
        appear in both chains through its E and W interface SIDs.
        """
        if east.direction is not ChainDirection.EASTBOUND:
            raise errors.InterfaceMismatch(
                f"chain {east.chain_id!r} is {east.direction.value}, expected eastbound"
            )
        if west.direction is not ChainDirection.WESTBOUND:
            raise errors.InterfaceMismatch(
                f"chain {west.chain_id!r} is {west.direction.value}, expected westbound"
            )
        # register_chain releases a re-registered chain's old mappings; west
        # is validated against the state east produces. A failure restores
        # the registry as it was, including any earlier version of east.
        saved = (dict(self.chains), dict(self.returns), dict(self.rungs))
        try:
            self.register_chain(east)
            self.register_chain(west)
        except errors.ChainError:
            self.chains, self.returns, self.rungs = saved
            raise
