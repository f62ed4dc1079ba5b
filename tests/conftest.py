"""Shared fixtures: the codec, packet generators, testbed builders."""

from __future__ import annotations

import random
from ipaddress import IPv6Address, IPv6Network
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import settings

from srv6sfc.chain import ChainRegistry, ClassifierRule, Sid, SidKind, VnfChain
from srv6sfc.config import load_config, parse_config_text
from srv6sfc.dataplane import PassThroughRouter, UnitCosts, Vnf, VnfPermission
from srv6sfc.sim import MAX_NODE_VISITS, Network, Node, NodeRole, build_network, inject
from srv6sfc import wire
from srv6sfc.wire import Ipv6Header, Packet, SegmentRoutingHeader

# Property tests draw the same examples on every run and keep no example
# database, so a Tier-1 result depends only on the code under test.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture(params=[pytest.param(wire, id="python")])
def codec(request):
    """The codec module under test. The single ``python`` param keeps the
    wire tests' ids (``test_...[python]``) stable."""
    return request.param


# Hand-derived testbed packet: outer AAAA::2 -> BBBB::2 with SRH
# [CCCC::2, BBBB::2] (segments_left=1), inner EEEE::2 -> DDDD::2 UDP
# 40000 -> 5201 carrying b"payload!". Computed from the field layouts,
# not from the serializer.
TESTBED_GOLDEN_HEX = (
    "60000000" "0060" "2b" "40"
    "aaaa" + "00" * 13 + "02"
    "bbbb" + "00" * 13 + "02"
    "29" "04" "04" "01" "01" "00" "0000"
    "cccc" + "00" * 13 + "02"
    "bbbb" + "00" * 13 + "02"
    "60000000" "0010" "11" "40"
    "eeee" + "00" * 13 + "02"
    "dddd" + "00" * 13 + "02"
    "9c40" "1451" "0010" "0000"
    "7061796c6f616421"
)
TESTBED_GOLDEN = bytes.fromhex(TESTBED_GOLDEN_HEX)


def random_valid_packet(rng: random.Random) -> Packet:
    """A structurally valid packet: random addresses, optional SRH of up
    to five segments, random short payload."""
    payload = rng.randbytes(rng.randrange(0, 64))
    if rng.random() < 0.6:
        count = rng.randint(1, 5)
        srh = SegmentRoutingHeader(
            next_header=rng.choice((17, 41, 59)),
            hdr_ext_len=2 * count,
            routing_type=4,
            segments_left=rng.randrange(count),
            last_entry=count - 1,
            flags=rng.randrange(256),
            tag=rng.randrange(65536),
            segment_list=tuple(IPv6Address(rng.randbytes(16)) for _ in range(count)),
        )
        next_header = 43
        srh_len = wire.SRH_FIXED_LEN + wire.SEGMENT_LEN * count
    else:
        srh = None
        next_header = rng.choice((17, 41, 59))
        srh_len = 0
    header = Ipv6Header(
        version=6,
        traffic_class=rng.randrange(256),
        flow_label=rng.randrange(1 << 20),
        payload_length=srh_len + len(payload),
        next_header=next_header,
        hop_limit=rng.randrange(256),
        src=IPv6Address(rng.randbytes(16)),
        dst=IPv6Address(rng.randbytes(16)),
    )
    return Packet(header=header, srh=srh, payload=payload)


def count_codec_work(monkeypatch) -> dict[str, int]:
    """Counts the codec's real work from now on: a parse that reads a
    fixed header (``wire._FIXED.unpack_from``) and a serialize that packs
    one (``wire._FIXED.pack``). A parse the codec's slot answers, and a
    serialize that returns a packet's image, count nothing."""
    fixed = wire._FIXED
    counts = {"parse": 0, "serialize": 0}

    class Counted:
        def unpack_from(self, *args):
            counts["parse"] += 1
            return fixed.unpack_from(*args)

        def pack(self, *args):
            counts["serialize"] += 1
            return fixed.pack(*args)

    monkeypatch.setattr(wire, "_FIXED", Counted())
    return counts


def random_junk(rng: random.Random, serialize) -> bytes:
    """Arbitrary bytes: raw noise or a mutated/truncated valid packet."""
    roll = rng.random()
    if roll < 0.5:
        return rng.randbytes(rng.randrange(0, 120))
    data = bytearray(serialize(random_valid_packet(rng)))
    if roll < 0.7 and data:
        for _ in range(rng.randint(1, 4)):
            data[rng.randrange(len(data))] = rng.randrange(256)
    elif roll < 0.85:
        del data[rng.randrange(len(data) + 1) :]
    else:
        data.extend(rng.randbytes(rng.randrange(1, 16)))
    return bytes(data)


# Programmatic single-NFV-node testbed --------------------------------------

ER1 = IPv6Address("AAAA::2")
SRC = IPv6Address("EEEE::2")
ER2 = IPv6Address("CCCC::2")
SINK = IPv6Address("DDDD::2")


def chain_testbed(
    n_vnfs: int = 1,
    kind: SidKind | tuple[SidKind, ...] = SidKind.SR_UNAWARE,
    behaviors=None,
    permission: VnfPermission = VnfPermission.INSERT_NEXT_ONLY,
    units: UnitCosts = UnitCosts(),
    extra_sids: tuple[Sid, ...] = (),
) -> tuple[Network, VnfChain]:
    """er1 -- nfv -- er2 with ``n_vnfs`` VNFs on the middle node and a
    chain through all of them; mirrors the bundled config. ``kind`` is
    one kind for every VNF or one kind per VNF, in chain order."""
    vnf_addresses = [IPv6Address(f"BBBB::{i + 2:x}") for i in range(n_vnfs)]
    kinds = (kind,) * n_vnfs if isinstance(kind, SidKind) else kind
    registry = ChainRegistry()
    for address, vnf_kind in zip(vnf_addresses, kinds, strict=True):
        registry.add_sid(Sid(address=address, kind=vnf_kind, host_node="nfv"))
    registry.add_sid(Sid(address=ER2, kind=SidKind.EGRESS_ENDPOINT, host_node="er2"))
    for sid in extra_sids:
        registry.add_sid(sid)
    chain = VnfChain(
        chain_id="c1",
        segments=tuple(vnf_addresses) + (ER2,),
        ingress_source=ER1,
    )
    registry.register_chain(chain)

    if behaviors is None:
        behaviors = [PassThroughRouter() for _ in range(n_vnfs)]
    vnfs = tuple(
        Vnf(sid=registry.sid(address), behavior=behavior, permission=permission)
        for address, behavior in zip(vnf_addresses, behaviors)
    )

    nodes = [
        Node(
            node_id="er1",
            role=NodeRole.INGRESS_EDGE,
            addresses=(ER1, SRC),
            rules=(ClassifierRule(IPv6Network("DDDD::/64"), "c1"),),
            routing_table=(
                (IPv6Network("BBBB::/64"), "nfv"),
                (IPv6Network("CCCC::/64"), "nfv"),
                (IPv6Network("DDDD::/64"), "nfv"),
            ),
        ),
        Node(
            node_id="nfv",
            role=NodeRole.NFV_NODE,
            addresses=(IPv6Address("AAAA::1"), IPv6Address("BBBB::1"), IPv6Address("CCCC::1")),
            hosted_vnfs=vnfs,
            routing_table=(
                (IPv6Network("AAAA::/64"), "er1"),
                (IPv6Network("EEEE::/64"), "er1"),
                (IPv6Network("CCCC::/64"), "er2"),
                (IPv6Network("DDDD::/64"), "er2"),
            ),
        ),
        Node(
            node_id="er2",
            role=NodeRole.EGRESS_EDGE,
            addresses=(ER2, SINK),
            routing_table=(
                (IPv6Network("AAAA::/64"), "nfv"),
                (IPv6Network("EEEE::/64"), "nfv"),
            ),
        ),
    ]
    network = build_network(nodes, [("er1", "nfv"), ("nfv", "er2")], registry, units)
    return network, chain


def router_line(routers: int, owner: IPv6Address = SINK) -> Network:
    """r0 -> r1 -> ... a line of plain routers; the last one owns ``owner``
    and every other routes everything one step on."""
    last = routers - 1
    nodes = [
        Node(
            f"r{i}", NodeRole.PLAIN_ROUTER, (owner,) if i == last else (),
            routing_table=((IPv6Network("::/0"), f"r{i + 1}"),) if i < last else (),
        )
        for i in range(routers)
    ]
    links = [(f"r{i}", f"r{i + 1}") for i in range(last)]
    return build_network(nodes, links, ChainRegistry())


def chain8_config() -> str:
    """The testbed with eight SR-aware pass-through VNFs on the NFV node."""
    sids = [f"BBBB::{i + 2:x}" for i in range(8)]
    return aware_testbed_config("c8", {sid: "passthrough" for sid in sids}, sids)


def editor_config() -> str:
    """The testbed with an SR-aware chain editor on the NFV node: the
    chain names only the editor, which inserts a pass-through VNF after
    itself on every packet."""
    behaviors = {"BBBB::2": "chain-editor:insert-after:BBBB::3", "BBBB::3": "passthrough"}
    return aware_testbed_config("ce", behaviors, ["BBBB::2"])


def aware_testbed_config(chain_id: str, behaviors: dict[str, str], chain: list[str]) -> str:
    """The testbed's nodes, links and routes with SR-aware VNFs of the
    given behaviors on the NFV node, and chain ``chain_id`` through
    ``chain`` to the egress ``CCCC::2`` for traffic to ``DDDD::/64``."""
    return "\n".join(
        [
            "[nodes]",
            "er1 ingress-edge addrs=AAAA::2,EEEE::2",
            "nfv nfv-node addrs=AAAA::1,BBBB::1,CCCC::1",
            "er2 egress-edge addrs=CCCC::2,DDDD::2",
            "[links]",
            "er1 nfv",
            "nfv er2",
            "[sids]",
            *(f"{sid} kind=sr-aware node=nfv" for sid in behaviors),
            "CCCC::2 kind=egress node=er2",
            "[vnfs]",
            *(f"{sid} behavior={spec} permission=insert-next-only" for sid, spec in behaviors.items()),
            "[chains]",
            f"{chain_id} segs={','.join(chain)},CCCC::2 src=AAAA::2 direction=uni",
            "[rules]",
            f"er1 DDDD::/64 chain={chain_id}",
            "[routes]",
            "er1 BBBB::/64 via nfv",
            "er1 CCCC::/64 via nfv",
            "er1 DDDD::/64 via nfv",
            "nfv AAAA::/64 via er1",
            "nfv EEEE::/64 via er1",
            "nfv CCCC::/64 via er2",
            "nfv DDDD::/64 via er2",
            "er2 AAAA::/64 via nfv",
            "er2 EEEE::/64 via nfv",
        ]
    ) + "\n"


def nested_packet(layers: int) -> Packet:
    """A UDP packet inside ``layers`` plain IPv6-in-IPv6 headers whose
    destinations alternate, from the outside in, between the testbed's
    egress ``CCCC::2`` and its source ``EEEE::2``: injected at ``er1``,
    each layer is two forwards and a decapsulation, three node visits."""
    packet = wire.udp_packet(SRC, SINK, b"x")
    for index in reversed(range(layers)):
        payload = wire.serialize_packet(packet)
        header = Ipv6Header(
            6, 0, 0, len(payload), wire.NEXT_HEADER_IPV6, wire.DEFAULT_HOP_LIMIT,
            SRC, ER2 if index % 2 == 0 else SRC,
        )
        packet = Packet(header=header, srh=None, payload=payload)
    return packet


def guard_walks(testbed_config_path) -> dict[tuple[str, bool], Callable[[], None]]:
    """The walks of the call census and the Enum guard, by network and
    terminal-only flag: each injects every packet at ``er1`` and exports
    its trace. The networks are the testbed, chain8, the chain-editor
    config and the testbed with a prefix filter for ``DDDD::3/128`` in
    place of its pass-through VNF; the packets are chained (the filter
    passes DDDD::2 and drops DDDD::3), delivered at the ingress and
    unroutable, small and large. Three more reach the walk's other drops:
    a hop limit of 1 toward the routed ``CCCC::2`` (dropped at ``er1``),
    a chained payload of 65,500 B (too large to encapsulate at ``er1``)
    and a packet nested deep enough to spend ``sim.MAX_NODE_VISITS``."""
    testbed = Path(testbed_config_path).read_text(encoding="utf-8")
    filtering = testbed.replace("behavior=passthrough", "behavior=prefix-filter:DDDD::3/128")
    assert filtering != testbed
    networks = {
        "testbed": load_config(testbed_config_path).build_network(),
        "chain8": parse_config_text(chain8_config()).build_network(),
        "editor": parse_config_text(editor_config()).build_network(),
        "filter": parse_config_text(filtering).build_network(),
    }
    packets = [
        wire.udp_packet(SRC, IPv6Address(dst), b"x" * size)
        for dst in ("DDDD::2", "DDDD::3", "EEEE::2", "9999::1") for size in (64, 1024)
    ]
    packets += [
        wire.udp_packet(SRC, ER2, b"x" * 64, hop_limit=1),
        wire.udp_packet(SRC, SINK, b"x" * 65500),
        nested_packet(MAX_NODE_VISITS // 3 + 1),
    ]

    def walker(network: Network, terminal_only: bool) -> Callable[[], None]:
        def walk() -> None:
            for packet in packets:
                inject(network, "er1", packet, terminal_only=terminal_only).trace.to_jsonl()
        return walk

    return {
        (name, terminal_only): walker(network, terminal_only)
        for name, network in networks.items() for terminal_only in (False, True)
    }


@pytest.fixture
def testbed_config_path():
    from importlib.resources import files

    return str(files("srv6sfc") / "configs" / "testbed.cfg")
