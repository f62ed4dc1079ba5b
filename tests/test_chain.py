"""Chain registry: univocal mapping, bidirectional pairs, classification."""

from __future__ import annotations

from ipaddress import IPv6Address, IPv6Network

import pytest
from hypothesis import given
from hypothesis import strategies as st

from srv6sfc import errors
from srv6sfc.chain import (
    ROUTE_CACHE_LIMIT,
    ChainDirection,
    ChainRegistry,
    ClassifierRule,
    PrefixTable,
    Sid,
    SidKind,
    VnfChain,
    VnfInterface,
    classify,
    longest_prefix_match,
    next_after,
)
from srv6sfc.config import load_config
from srv6sfc.sim import inject
from srv6sfc.wire import SegmentRoutingHeader, udp_packet

ER = IPv6Address("CCCC::2")
SRC = IPv6Address("AAAA::2")


def addr(label: int) -> IPv6Address:
    return IPv6Address(f"BBBB::{label:x}")


def make_registry(unaware=(), aware=(), egress=(ER,), interfaces=None) -> ChainRegistry:
    interfaces = interfaces or {}
    registry = ChainRegistry()
    for address in unaware:
        registry.add_sid(
            Sid(address, SidKind.SR_UNAWARE, "nfv", interfaces.get(address, VnfInterface.SINGLE))
        )
    for address in aware:
        registry.add_sid(
            Sid(address, SidKind.SR_AWARE, "nfv", interfaces.get(address, VnfInterface.SINGLE))
        )
    for address in egress:
        registry.add_sid(Sid(address, SidKind.EGRESS_ENDPOINT, "er2"))
    return registry


def chain(chain_id: str, *segments, direction=ChainDirection.UNIDIRECTIONAL) -> VnfChain:
    return VnfChain(chain_id, tuple(segments) + (ER,), SRC, direction)


# Registration ----------------------------------------------------------------

def test_shared_unaware_sid_rejected():
    # Two flows crossing one shared SR-unaware instance cannot both be
    # re-associated on return.
    v_a, v_i, v_x, v_b, v_y = (addr(n) for n in range(0xA, 0xF))
    registry = make_registry(unaware=(v_a, v_i, v_x, v_b, v_y))
    registry.register_chain(chain("f1", v_a, v_i, v_x))
    with pytest.raises(errors.UnivocalMappingViolation):
        registry.register_chain(chain("f2", v_b, v_i, v_y))


def test_duplicated_instances_accepted():
    # Same function, two instances (two SIDs): both chains register.
    v_a, v_i1, v_i2, v_x, v_b, v_y = (addr(n) for n in range(1, 7))
    registry = make_registry(unaware=(v_a, v_i1, v_i2, v_x, v_b, v_y))
    registry.register_chain(chain("f1", v_a, v_i1, v_x))
    registry.register_chain(chain("f2", v_b, v_i2, v_y))
    assert set(registry.chains) == {"f1", "f2"}


def test_shared_aware_sid_allowed():
    # SR-aware VNFs keep the SRH, so return traffic self-identifies.
    v_i = addr(1)
    registry = make_registry(aware=(v_i,))
    registry.register_chain(chain("f1", v_i))
    registry.register_chain(chain("f2", v_i))
    assert set(registry.chains) == {"f1", "f2"}


def test_reregister_identical_chain_is_idempotent():
    v = addr(1)
    registry = make_registry(unaware=(v,))
    registry.register_chain(chain("c", v))
    registry.register_chain(chain("c", v))
    assert registry.mapped_chain(v, VnfInterface.SINGLE) == "c"


def test_reregister_changed_chain_releases_old_mapping():
    v1, v2 = addr(1), addr(2)
    registry = make_registry(unaware=(v1, v2))
    registry.register_chain(chain("c", v1))
    registry.register_chain(chain("c", v2))
    assert registry.mapped_chain(v1, VnfInterface.SINGLE) is None
    assert registry.mapped_chain(v2, VnfInterface.SINGLE) == "c"


def test_unregister_restores_prior_mapping():
    v1, v2 = addr(1), addr(2)
    registry = make_registry(unaware=(v1, v2))
    registry.register_chain(chain("keep", v1))
    before = dict(registry.returns)
    registry.register_chain(chain("gone", v2))
    registry.unregister_chain("gone")
    assert registry.returns == before


def test_register_unknown_sid():
    registry = make_registry()
    with pytest.raises(errors.UnknownSid):
        registry.register_chain(chain("c", addr(9)))


def test_duplicate_sid_in_chain_rejected():
    v = addr(1)
    with pytest.raises(errors.DuplicateSidInChain):
        VnfChain("c", (v, v, ER), SRC)


def test_chain_must_end_at_egress():
    v = addr(1)
    registry = make_registry(unaware=(v,))
    with pytest.raises(errors.InvalidChain):
        registry.register_chain(VnfChain("c", (ER, v), SRC))


def test_empty_chain_rejected():
    with pytest.raises(errors.InvalidChain):
        VnfChain("c", (), SRC)


# Bidirectional ----------------------------------------------------------------

ER_WEST = IPv6Address("AAAA::99")


def bidi_registry():
    # VNF1 and VNF2 each expose an east and a west interface SID.
    table = {
        "v1e": (addr(0x1E), VnfInterface.EAST),
        "v1w": (addr(0x1F), VnfInterface.WEST),
        "v2e": (addr(0x2E), VnfInterface.EAST),
        "v2w": (addr(0x2F), VnfInterface.WEST),
    }
    registry = make_registry(
        unaware=tuple(a for a, _ in table.values()),
        egress=(ER, ER_WEST),
        interfaces={a: iface for a, iface in table.values()},
    )
    return registry, {k: a for k, (a, _) in table.items()}


def test_bidirectional_pair_accepted():
    registry, sids = bidi_registry()
    east = VnfChain("east", (sids["v1e"], sids["v2e"], ER), SRC, ChainDirection.EASTBOUND)
    west = VnfChain("west", (sids["v2w"], sids["v1w"], ER_WEST), ER, ChainDirection.WESTBOUND)
    registry.register_bidirectional(east, west)
    assert registry.mapped_chain(sids["v1e"], VnfInterface.EAST) == "east"
    assert registry.mapped_chain(sids["v1w"], VnfInterface.WEST) == "west"


def test_second_eastbound_chain_reusing_interface_rejected():
    registry, sids = bidi_registry()
    east = VnfChain("east", (sids["v1e"], ER), SRC, ChainDirection.EASTBOUND)
    registry.register_chain(east)
    with pytest.raises(errors.UnivocalMappingViolation):
        registry.register_chain(
            VnfChain("east2", (sids["v1e"], sids["v2e"], ER), SRC, ChainDirection.EASTBOUND)
        )


def test_east_chain_with_west_interface_rejected():
    registry, sids = bidi_registry()
    with pytest.raises(errors.InterfaceMismatch):
        registry.register_chain(
            VnfChain("bad", (sids["v1w"], ER), SRC, ChainDirection.EASTBOUND)
        )


def test_bidirectional_requires_matching_directions():
    registry, sids = bidi_registry()
    east = VnfChain("east", (sids["v1e"], ER), SRC, ChainDirection.EASTBOUND)
    not_west = VnfChain("w", (sids["v1w"], ER_WEST), ER, ChainDirection.UNIDIRECTIONAL)
    with pytest.raises(errors.InterfaceMismatch):
        registry.register_bidirectional(east, not_west)
    # Failed pair left nothing behind.
    assert not registry.chains


def test_bidirectional_reregistration_rolls_back_whole():
    registry, sids = bidi_registry()
    v3e = addr(0x3E)
    registry.add_sid(Sid(v3e, SidKind.SR_UNAWARE, "nfv", VnfInterface.EAST))
    east = VnfChain("east", (sids["v1e"], sids["v2e"], ER), SRC, ChainDirection.EASTBOUND)
    west = VnfChain("west", (sids["v2w"], ER_WEST), ER, ChainDirection.WESTBOUND)
    registry.register_bidirectional(east, west)
    registry.register_chain(VnfChain("other", (sids["v1w"], ER_WEST), ER, ChainDirection.WESTBOUND))
    before = (dict(registry.chains), dict(registry.returns))
    with pytest.raises(errors.UnivocalMappingViolation):
        registry.register_bidirectional(
            VnfChain("east", (v3e, ER), SRC, ChainDirection.EASTBOUND),
            VnfChain("west", (sids["v1w"], ER_WEST), ER, ChainDirection.WESTBOUND),
        )
    assert (registry.chains, registry.returns) == before


def test_bidirectional_rollback_on_west_conflict():
    registry, sids = bidi_registry()
    registry.register_chain(
        VnfChain("prior", (sids["v2w"], ER_WEST), ER, ChainDirection.WESTBOUND)
    )
    east = VnfChain("east", (sids["v1e"], ER), SRC, ChainDirection.EASTBOUND)
    west = VnfChain("west", (sids["v2w"], sids["v1w"], ER_WEST), ER, ChainDirection.WESTBOUND)
    with pytest.raises(errors.UnivocalMappingViolation):
        registry.register_bidirectional(east, west)
    assert set(registry.chains) == {"prior"}


# Compiled return paths --------------------------------------------------------------

def assert_returns_match_reference(registry: ChainRegistry) -> None:
    """Each compiled entry equals mapped_chain -> next_after -> from_path,
    and ``returns`` holds exactly the SR-unaware interfaces the registered
    chains traverse."""
    expected = {
        (address, registry.sid_table[address].interface): c.chain_id
        for c in registry.chains.values()
        for address in c.segments
        if registry.sid_table[address].kind is SidKind.SR_UNAWARE
    }
    assert registry.returns.keys() == expected.keys()
    for (address, interface), entry in registry.returns.items():
        assert registry.mapped_chain(address, interface) == expected[address, interface]
        mapped = registry.chain(expected[address, interface])
        n = len(mapped.segments)
        index = mapped.segments.index(address)
        srh = SegmentRoutingHeader.from_path(mapped.segments, segments_left=n - 2 - index)
        assert entry == (mapped, next_after(mapped, address), srh)
        assert entry.chain is mapped


def test_compiled_returns_follow_every_registry_change():
    registry, sids = bidi_registry()
    v1, v2, v3, aware, v3e = addr(1), addr(2), addr(3), addr(4), addr(0x3E)
    for address in (v1, v2, v3):
        registry.add_sid(Sid(address, SidKind.SR_UNAWARE, "nfv"))
    registry.add_sid(Sid(aware, SidKind.SR_AWARE, "nfv"))
    registry.add_sid(Sid(v3e, SidKind.SR_UNAWARE, "nfv", VnfInterface.EAST))
    east = VnfChain("east", (sids["v1e"], sids["v2e"], ER), SRC, ChainDirection.EASTBOUND)
    west = VnfChain("west", (sids["v2w"], sids["v1w"], ER_WEST), ER, ChainDirection.WESTBOUND)
    steps = [
        (lambda: registry.register_chain(chain("c1", v1, aware, v2)), None),
        (lambda: registry.register_chain(chain("c2", v3)), None),
        # Changed re-registration: same keys, new positions.
        (lambda: registry.register_chain(chain("c1", aware, v2, v1)), None),
        # Conflicts with c2 on v3: c1 rolls back to its previous form.
        (lambda: registry.register_chain(chain("c1", v3, v1)), errors.UnivocalMappingViolation),
        (lambda: registry.register_bidirectional(east, west), None),
        # west2 conflicts with "west" on v2w: east2 is rolled back too.
        (
            lambda: registry.register_bidirectional(
                VnfChain("east2", (v3e, ER), SRC, ChainDirection.EASTBOUND),
                VnfChain("west2", (sids["v2w"], ER_WEST), ER, ChainDirection.WESTBOUND),
            ),
            errors.UnivocalMappingViolation,
        ),
        (lambda: registry.unregister_chain("c2"), None),
        # Re-registering the pair with changed chains releases their old keys.
        (
            lambda: registry.register_bidirectional(
                VnfChain("east", (v3e, ER), SRC, ChainDirection.EASTBOUND),
                VnfChain("west", (sids["v2w"], sids["v1w"], ER_WEST), ER, ChainDirection.WESTBOUND),
            ),
            None,
        ),
        (lambda: registry.unregister_chain("east"), None),
    ]
    for step, raises in steps:
        if raises is None:
            step()
        else:
            with pytest.raises(raises):
                step()
        assert_returns_match_reference(registry)
    assert registry.chains["c1"] == chain("c1", aware, v2, v1)
    assert set(registry.returns) == {
        (v2, VnfInterface.SINGLE),
        (v1, VnfInterface.SINGLE),
        (sids["v2w"], VnfInterface.WEST),
        (sids["v1w"], VnfInterface.WEST),
    }


def test_unaware_return_of_unmapped_interface_rejected():
    registry = make_registry(unaware=(addr(1),))
    with pytest.raises(errors.UnivocalMappingMissing, match=r"\(bbbb::1, single\)"):
        registry.unaware_return(registry.sid(addr(1)))


def test_chain_carries_its_encapsulation_srh():
    c = chain("c", addr(1), addr(2))
    assert c.srh == SegmentRoutingHeader.from_path(c.segments)
    assert c == VnfChain("c", c.segments, SRC) and "srh" not in repr(c)


# Classification -----------------------------------------------------------------

def test_classify_prefix_match():
    rules = [ClassifierRule(IPv6Network("DDDD::/64"), "c1")]
    assert classify(rules, IPv6Address("DDDD::2")) == "c1"


def test_classify_no_match():
    rules = [ClassifierRule(IPv6Network("DDDD::/64"), "c1")]
    assert classify(rules, IPv6Address("FFFF::1")) is None


def test_classify_longest_prefix_wins():
    rules = [
        ClassifierRule(IPv6Network("DDDD::/64"), "c1"),
        ClassifierRule(IPv6Network("DDDD::2/128"), "c2"),
    ]
    assert classify(rules, IPv6Address("DDDD::2")) == "c2"
    assert classify(rules, IPv6Address("DDDD::3")) == "c1"


def test_classify_tie_breaks_to_earliest():
    rules = [
        ClassifierRule(IPv6Network("DDDD::/64"), "first"),
        ClassifierRule(IPv6Network("DDDD::/64"), "second"),
    ]
    assert classify(rules, IPv6Address("DDDD::2")) == "first"


@given(st.binary(min_size=16, max_size=16).map(IPv6Address), st.data())
def test_classify_removing_nonmatching_rule_is_noop(dst, data):
    prefixes = data.draw(
        st.lists(
            st.tuples(
                st.binary(min_size=16, max_size=16).map(IPv6Address),
                st.integers(0, 128),
            ),
            max_size=6,
        )
    )
    rules = [
        ClassifierRule(IPv6Network((a, p), strict=False), f"c{i}")
        for i, (a, p) in enumerate(prefixes)
    ]
    result = classify(rules, dst)
    for index, rule in enumerate(rules):
        if dst not in rule.network:
            remaining = rules[:index] + rules[index + 1 :]
            assert classify(remaining, dst) == result


# PrefixTable -----------------------------------------------------------------------

ANCHORS = [IPv6Address("2001:db8::"), IPv6Address("2001:db8:0:1::5"), IPv6Address("fe80::1")]
addresses = st.one_of(
    st.sampled_from(ANCHORS), st.integers(0, (1 << 128) - 1).map(IPv6Address)
)
prefixes = st.builds(
    lambda address, length: IPv6Network((address, length), strict=False),
    addresses,
    st.one_of(st.sampled_from([0, 128]), st.integers(0, 128)),
)


@st.composite
def prefix_tables(draw):
    """Random (prefix, value) tables, possibly empty, with /0, /128 and
    anchor-derived nested prefixes; some prefixes repeat with a new value."""
    entries = draw(st.lists(st.tuples(prefixes, st.integers(0, 9)), max_size=12))
    if entries:
        for network, value in draw(st.lists(st.sampled_from(entries), max_size=3)):
            entries.append((network, value + 10))
    return entries


@given(prefix_tables(), st.data())
def test_prefix_table_matches_reference(entries, data):
    table = PrefixTable(entries)
    probes = data.draw(st.lists(addresses, max_size=4))
    for network, _ in entries:  # each prefix's first, last and one inner address
        host_bits = data.draw(st.integers(0, (1 << 128) - 1)) & int(network.hostmask)
        probes += [
            network.network_address,
            network.broadcast_address,
            IPv6Address(int(network.network_address) | host_bits),
        ]
    for address in probes:
        assert table[address._ip] == longest_prefix_match(entries, address)


def test_prefix_table_fixed_cases():
    default, host = IPv6Network("::/0"), IPv6Network("2001:db8::5/128")
    net = IPv6Network("2001:db8::/32")
    assert PrefixTable([])[IPv6Address("::1")._ip] is None
    table = PrefixTable([(net, "first"), (host, "host"), (net, "second")])
    assert table[IPv6Address("2001:db8::5")._ip] == "host"
    assert table[IPv6Address("2001:db8::6")._ip] == "first"
    assert table[IPv6Address("fe80::1")._ip] is None
    with_default = PrefixTable([(net, "net"), (default, "default")])
    assert with_default[IPv6Address("fe80::1")._ip] == "default"
    assert with_default[IPv6Address("2001:db8::6")._ip] == "net"


@given(prefix_tables(), st.booleans(), st.lists(addresses, max_size=6))
def test_prefix_table_caches_each_answer_exactly(entries, default, probes):
    """Each answer, first made by ``__missing__`` and then read from the
    cache, is the reference's, with a /0 default or without."""
    if default:
        entries = entries + [(IPv6Network("::/0"), "default")]
    table = PrefixTable(entries)
    for address in probes + [network.network_address for network, _ in entries]:
        expected = longest_prefix_match(entries, address)
        for _ in range(2):
            assert table[address._ip] == expected
    assert len(table) == len({address._ip for address in probes} | {
        int(network.network_address) for network, _ in entries
    })


def bound_destinations(base: str) -> list[IPv6Address]:
    """Twice as many distinct destinations as a route cache holds, cycling
    through ``base``'s /64, the rest of its /32 and the next /32."""
    base_ip = IPv6Address(base)._ip
    return [
        IPv6Address(base_ip + (i % 3 << 64 if i % 3 < 2 else 1 << 96) + i)
        for i in range(2 * ROUTE_CACHE_LIMIT)
    ]


def test_prefix_table_cache_is_cleared_at_its_bound():
    entries = [(IPv6Network("2001:db8::/32"), "net"), (IPv6Network("2001:db8::/64"), "subnet"),
               (IPv6Network("::/0"), "default")]
    table = PrefixTable(entries)
    destinations = bound_destinations("2001:db8::")
    sizes = []
    for address in destinations + destinations[:ROUTE_CACHE_LIMIT]:
        assert table[address._ip] == longest_prefix_match(entries, address)
        sizes.append(len(table))
    assert {table[a._ip] for a in destinations} == {"net", "subnet", "default"}
    # Filled, then cleared before the next new destination, twice.
    assert max(sizes) == ROUTE_CACHE_LIMIT and sizes.count(1) == 3


class UncachedTable(dict):
    """The reference lookup behind the walk's subscript, storing nothing."""

    def __init__(self, entries):
        self.entries = list(entries)

    def __missing__(self, key: int):
        return longest_prefix_match(self.entries, IPv6Address(key))


def test_walks_past_the_cache_bound_end_as_uncached_lookups(testbed_config_path):
    """Walks to twice as many destinations as a route cache holds, steered
    and plain, end exactly as walks that make every lookup afresh."""
    cached, uncached = (load_config(testbed_config_path).build_network() for _ in range(2))
    for node_id, node in uncached.nodes.items():
        state = uncached.states[node_id]
        state.fib = UncachedTable(node.routing_table)
        state.classifier = UncachedTable(
            (rule.network, uncached.registry.chain(rule.chain_id)) for rule in node.rules
        )
    tables = [t for state in cached.states.values() for t in (state.fib, state.classifier)]
    delivered = [IPv6Address("DDDD::2"), IPv6Address("CCCC::2")]
    kinds, sizes = set(), set()
    for address in bound_destinations("DDDD::") + bound_destinations("CCCC::") + delivered:
        packet = udp_packet(SRC, address, b"x" * 64)
        ends = [inject(network, "er1", packet, terminal_only=True).outcome
                for network in (cached, uncached)]
        assert ends[0] == ends[1]
        sizes.update(map(len, tables))
        kinds.add((type(ends[0]).__name__, ends[0].node_id))
    assert max(sizes) == ROUTE_CACHE_LIMIT
    assert kinds == {("Dropped", "er1"), ("Dropped", "er2"), ("Delivered", "er2")}


# next_after ------------------------------------------------------------------------

def test_next_after_cases():
    b, c = IPv6Address("BBBB::2"), IPv6Address("CCCC::2")
    registry = make_registry(unaware=(b,), egress=(c,))
    test_chain = VnfChain("c1", (b, c), SRC)
    assert next_after(test_chain, b) == c
    with pytest.raises(errors.SidIsLast):
        next_after(test_chain, c)
    with pytest.raises(errors.SidNotInChain):
        next_after(test_chain, addr(0x99))


# Property: univocal mapping against a brute-force oracle ---------------------------

@given(st.data())
def test_univocal_mapping_matches_brute_force(data):
    pool = [addr(n) for n in range(1, 7)]
    kinds = {
        address: data.draw(
            st.sampled_from((SidKind.SR_UNAWARE, SidKind.SR_AWARE)), label=str(address)
        )
        for address in pool
    }
    registry = ChainRegistry()
    for address in pool:
        registry.add_sid(Sid(address, kinds[address], "nfv"))
    registry.add_sid(Sid(ER, SidKind.EGRESS_ENDPOINT, "er2"))

    chain_count = data.draw(st.integers(1, 4))
    chains = []
    for index in range(chain_count):
        members = data.draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True),
            label=f"chain{index}",
        )
        chains.append(VnfChain(f"c{index}", tuple(members) + (ER,), SRC))

    # Oracle: the set is acceptable iff no SR-unaware SID appears in two
    # different chains.
    claims: dict[IPv6Address, set[str]] = {}
    for c in chains:
        for address in c.segments[:-1]:
            if kinds[address] is SidKind.SR_UNAWARE:
                claims.setdefault(address, set()).add(c.chain_id)
    expect_conflict = any(len(owners) > 1 for owners in claims.values())

    conflicted = False
    try:
        for c in chains:
            registry.register_chain(c)
    except errors.UnivocalMappingViolation:
        conflicted = True
    assert conflicted == expect_conflict
    assert_returns_match_reference(registry)
