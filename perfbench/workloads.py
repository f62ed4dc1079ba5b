"""The benchmark's workloads: config text, packets and expected outcomes.

Every workload is built from a seed. The program under test receives
only the config text (as a file) and the packets; the expected outcome
of every packet is derived here from the workload's own description,
with ``ipaddress`` containment standing in for the program's lookups,
so the correctness gate does not trust the code it checks.

Why each workload exists:

testbed-unaware-64B
    The bundled three-node testbed with its SR-unaware VNF at the
    smallest packet. Per-packet cost dominates: two parses, two
    serializes and a stateless re-encapsulation per packet over 3-4
    entry routing tables, with 10 of 11 trace events discarded. The
    codec, the registry facts and lazy tracing act here.
chain8-aware-fulltrace
    Eight SR-aware pass-through VNFs on the NFV node, 1024-byte payload,
    full trace exported as JSON lines. The connector loop and trace
    export dominate; the codec runs once each way per packet.
mesh-mixed-manyflows
    A seeded line of six nodes with routing tables of a few hundred
    prefixes, dozens of mixed chains, mostly unclassified traffic to
    thousands of destinations, a prefix filter that drops a known share
    and a segment-list editor. Longest-prefix lookups and classification
    dominate; it is the only workload with plain forwarding, drops,
    ``apply_edit`` and a large config.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from ipaddress import IPv6Address, IPv6Network
from pathlib import Path

from srv6sfc import wire
from srv6sfc.wire import Packet, udp_packet

from checkout import SRC

TESTBED_PATH = SRC / "srv6sfc" / "configs" / "testbed.cfg"

AWARE = "sr-aware"
UNAWARE = "sr-unaware"


@dataclass(frozen=True)
class Expect:
    """Expected outcome of one packet: where it ends and what every
    node's (f, d, e) ledger gains from it, in ``Workload.node_ids`` order."""

    delivered: bool
    node: str
    reason: str | None
    ledger: tuple[tuple[int, int, int], ...]


@dataclass
class Workload:
    name: str
    seed: int
    config_text: str
    # The bundled file when the workload uses it as is; generated
    # configs are written out by the caller.
    bundled_path: Path | None
    ingress: str
    node_ids: tuple[str, ...]
    terminal_only: bool
    export: bool
    packets: list[Packet]
    expects: list[Expect]
    # Wire bytes the delivered inner packet must have; None for drops.
    expected_bytes: list[bytes | None]
    shape: dict | None = None
    # (src, dst, payload bytes) of one `srv6sfc run` call in the traced run.
    cli_flow: tuple[str, str, int] | None = None
    # Whether the traced run sweeps the config's [bench] scenarios.
    sweeps: bool = False


def node_cost(kinds: list[str], drop_at: int | None = None) -> tuple[int, int, int]:
    """(f, d, e) a node charges for the local VNFs a packet visits in order.

    This is the README cost model generalised to mixed runs: an SR-aware
    VNF costs one f; each maximal run of SR-unaware VNFs costs one d and
    one e plus two f per VNF; leaving the node costs 2f after an aware
    VNF and f after an unaware run. A VNF that drops ends the count after
    its delivery leg. For n VNFs of one kind this is (n+2)f or
    d+(2n+1)f+e.
    """
    f = d = e = 0
    plain = False
    for index, kind in enumerate(kinds):
        if kind == AWARE:
            if plain:
                e += 1
                plain = False
            f += 1
        else:
            if not plain:
                d += 1
                plain = True
            f += 1
            if index != drop_at:
                f += 1  # return leg
        if index == drop_at:
            return f, d, e
    if plain:
        return f + 1, d, e + 1
    return f + 2, d, e


# testbed-unaware-64B -------------------------------------------------------

def testbed(seed: int, packet_count: int = 2048) -> Workload:
    rng = random.Random(f"testbed:{seed}")
    src, dst = IPv6Address("EEEE::2"), IPv6Address("DDDD::2")
    node_ids = ("er1", "nfv", "er2")
    expect = Expect(True, "er2", None, ((1, 0, 0), node_cost([UNAWARE]), (0, 0, 0)))
    packets = [
        udp_packet(src, dst, rng.randbytes(64), src_port=rng.randrange(1024, 65536))
        for _ in range(packet_count)
    ]
    return Workload(
        name="testbed-unaware-64B",
        seed=seed,
        config_text=TESTBED_PATH.read_text(encoding="utf-8"),
        bundled_path=TESTBED_PATH,
        ingress="er1",
        node_ids=node_ids,
        terminal_only=True,
        export=False,
        packets=packets,
        expects=[expect] * packet_count,
        expected_bytes=[wire.serialize_packet(p) for p in packets],
        sweeps=True,
    )


# chain8-aware-fulltrace ------------------------------------------------------

CHAIN8_VNFS = 8


def chain8_config() -> str:
    sids = [f"BBBB::{i + 2:x}" for i in range(CHAIN8_VNFS)]
    lines = [
        "# Testbed shape with eight SR-aware pass-through VNFs on the NFV node.",
        "[nodes]",
        "er1 ingress-edge addrs=AAAA::2,EEEE::2",
        "nfv nfv-node addrs=AAAA::1,BBBB::1,CCCC::1",
        "er2 egress-edge addrs=CCCC::2,DDDD::2",
        "[links]",
        "er1 nfv",
        "nfv er2",
        "[sids]",
        *(f"{sid} kind=sr-aware node=nfv" for sid in sids),
        "CCCC::2 kind=egress node=er2",
        "[vnfs]",
        *(f"{sid} behavior=passthrough permission=insert-next-only" for sid in sids),
        "[chains]",
        f"c8 segs={','.join(sids)},CCCC::2 src=AAAA::2 direction=uni",
        "[rules]",
        "er1 DDDD::/64 chain=c8",
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
    return "\n".join(lines) + "\n"


def chain8(seed: int, packet_count: int = 1024) -> Workload:
    rng = random.Random(f"chain8:{seed}")
    src, dst = IPv6Address("EEEE::2"), IPv6Address("DDDD::2")
    expect = Expect(
        True, "er2", None, ((1, 0, 0), node_cost([AWARE] * CHAIN8_VNFS), (0, 0, 0))
    )
    packets = [
        udp_packet(src, dst, rng.randbytes(1024), src_port=rng.randrange(1024, 65536))
        for _ in range(packet_count)
    ]
    return Workload(
        name="chain8-aware-fulltrace",
        seed=seed,
        config_text=chain8_config(),
        bundled_path=None,
        ingress="er1",
        node_ids=("er1", "nfv", "er2"),
        terminal_only=False,
        export=True,
        packets=packets,
        expects=[expect] * packet_count,
        expected_bytes=[wire.serialize_packet(p) for p in packets],
        cli_flow=(str(src), str(dst), 1024),
    )


# mesh-mixed-manyflows ----------------------------------------------------------

MESH_LINE = ("in", "r1", "nfv1", "r2", "nfv2", "out")
MESH_ROLES = ("ingress-edge", "router", "nfv-node", "router", "nfv-node", "egress-edge")
MESH_DEST_PREFIXES = 256       # 2001:db8:1000::/48 .. 2001:db8:10ff::/48
MESH_HOSTS_PER_PREFIX = 16
MESH_SOURCE_PREFIXES = 64      # 2001:db8:2000::/48 .. routed back toward "in"
MESH_NARROW_CHAINS = 46        # /48 rules outside both wide chains (one more sits inside)
MESH_PACKETS = 4096
MESH_PAYLOAD = 256
EGRESS_SID = IPv6Address("2001:db8:105::e")
INSERTED_SID = IPv6Address("2001:db8:104:ffff::1")
FILTER_RULE = IPv6Network("2001:db8:1000::/44")
FILTER_DROPS = IPv6Network("2001:db8:1000::/46")   # a quarter of the filter chain's prefixes
EDITOR_RULE = IPv6Network("2001:db8:1010::/44")

# Bands the generated shape must stay within on any seed, so a claim can
# be re-checked on a seed that was not used while making it.
MESH_BANDS = {
    "share_classified": (0.27, 0.34),
    "share_dropped": (0.010, 0.022),
    "distinct_destinations": (2450, 2750),
    "max_routes_per_node": (250, 400),
}


def _node_address(position: int) -> IPv6Address:
    return IPv6Address(f"2001:db8:{0x100 + position:x}::1")


def _infra_prefix(position: int) -> IPv6Network:
    return IPv6Network(f"2001:db8:{0x100 + position:x}::/48")


def _dest_prefix(index: int) -> IPv6Network:
    return IPv6Network(f"2001:db8:{0x1000 + index:x}::/48")


@dataclass(frozen=True)
class _Vnf:
    address: IPv6Address
    kind: str
    node: str
    behavior: str


@dataclass(frozen=True)
class _Chain:
    chain_id: str
    rule: IPv6Network
    vnfs: tuple[_Vnf, ...]


def _mesh_routes() -> list[tuple[str, IPv6Network, str]]:
    routes = []
    for position, node in enumerate(MESH_LINE):
        if position + 1 < len(MESH_LINE):
            ahead = MESH_LINE[position + 1]
            routes += [(node, _dest_prefix(i), ahead) for i in range(MESH_DEST_PREFIXES)]
            routes += [(node, _infra_prefix(p), ahead) for p in range(position + 1, len(MESH_LINE))]
        if position > 0:
            behind = MESH_LINE[position - 1]
            # A covering route the /48s above must win over by length.
            routes.append((node, IPv6Network("2001:db8::/32"), behind))
            routes += [(node, _infra_prefix(p), behind) for p in range(position)]
            routes += [
                (node, IPv6Network(f"2001:db8:{0x2000 + i:x}::/48"), behind)
                for i in range(MESH_SOURCE_PREFIXES)
            ]
    return routes


# Fixed VNF kinds per chain, (nfv1, nfv2): the seed places chains and
# draws traffic, but does not change what a chain costs, so the latency
# distribution keeps its shape from seed to seed.
NARROW_PATTERNS = (
    ((AWARE,), ()),
    ((UNAWARE,), (AWARE,)),
    ((AWARE, UNAWARE), (UNAWARE,)),
    ((UNAWARE, UNAWARE), (AWARE, AWARE)),
    ((AWARE, AWARE), (UNAWARE, UNAWARE)),
    ((UNAWARE, AWARE), (AWARE, UNAWARE)),
)


def _mesh_chains(rng: random.Random) -> tuple[list[_Chain], _Vnf]:
    def vnf(node: str, chain_no: int, slot: int, kind: str, behavior="passthrough"):
        hextet = 0x102 if node == "nfv1" else 0x104
        address = IPv6Address(f"2001:db8:{hextet:x}:{chain_no + 1:x}::{slot + 1:x}")
        return _Vnf(address, kind, node, behavior)

    inserted = _Vnf(INSERTED_SID, AWARE, "nfv2", "passthrough")
    chains = [
        _Chain(
            "filter",
            FILTER_RULE,
            (
                vnf("nfv1", 0, 0, UNAWARE, f"prefix-filter:{FILTER_DROPS}"),
                vnf("nfv1", 0, 1, AWARE),
                vnf("nfv2", 0, 0, UNAWARE),
            ),
        ),
        _Chain(
            "editor",
            EDITOR_RULE,
            (
                vnf("nfv1", 1, 0, UNAWARE),
                vnf("nfv1", 1, 1, AWARE, f"chain-editor:insert-after:{INSERTED_SID}"),
                vnf("nfv2", 1, 0, UNAWARE),
            ),
        ),
    ]
    # One narrow chain sits inside the filter chain's /44, so the
    # classifier must pick it by prefix length; the rest lie outside
    # both wide rules.
    narrow = [0x0F] + rng.sample(range(0x20, MESH_DEST_PREFIXES), MESH_NARROW_CHAINS)
    for number, prefix_index in enumerate(narrow, start=2):
        first, second = NARROW_PATTERNS[number % len(NARROW_PATTERNS)]
        vnfs = [vnf("nfv1", number, slot, kind) for slot, kind in enumerate(first)]
        vnfs += [vnf("nfv2", number, slot, kind) for slot, kind in enumerate(second)]
        chains.append(_Chain(f"c{number}", _dest_prefix(prefix_index), tuple(vnfs)))
    return chains, inserted


def _mesh_config(chains, inserted, routes, destinations) -> str:
    addrs = {node: [_node_address(p)] for p, node in enumerate(MESH_LINE)}
    addrs["out"] += [EGRESS_SID, *destinations]
    vnfs = [v for chain in chains for v in chain.vnfs] + [inserted]
    lines = ["# Generated mesh-mixed-manyflows scenario.", "[nodes]"]
    lines += [
        f"{node} {role} addrs={','.join(map(str, addrs[node]))}"
        for node, role in zip(MESH_LINE, MESH_ROLES)
    ]
    lines.append("[links]")
    lines += [f"{a} {b}" for a, b in zip(MESH_LINE, MESH_LINE[1:])]
    lines.append("[sids]")
    lines += [f"{v.address} kind={v.kind} node={v.node}" for v in vnfs]
    lines.append(f"{EGRESS_SID} kind=egress node=out")
    lines.append("[vnfs]")
    lines += [f"{v.address} behavior={v.behavior} permission=insert-next-only" for v in vnfs]
    lines.append("[chains]")
    source = _node_address(0)
    lines += [
        f"{c.chain_id} segs={','.join(str(v.address) for v in c.vnfs)},{EGRESS_SID} "
        f"src={source} direction=uni"
        for c in chains
    ]
    lines.append("[rules]")
    lines += [f"in {c.rule} chain={c.chain_id}" for c in chains]
    lines.append("[routes]")
    lines += [f"{node} {prefix} via {via}" for node, prefix, via in routes]
    return "\n".join(lines) + "\n"


def _classify(chains: list[_Chain], dst: IPv6Address) -> _Chain | None:
    matches = [c for c in chains if dst in c.rule]
    return max(matches, key=lambda c: c.rule.prefixlen, default=None)


def _mesh_expect(chain: _Chain | None, inserted: _Vnf, dst: IPv6Address) -> Expect:
    """Outcome and per-node costs of one packet, from the chain it should take."""
    costs = {node: (0, 0, 0) for node in MESH_LINE}
    if chain is None:
        for node in MESH_LINE[:-1]:
            costs[node] = (1, 0, 0)
        return Expect(True, "out", None, tuple(costs.values()))
    path = []
    for v in chain.vnfs:
        path.append(v)
        if v.behavior.startswith("chain-editor:insert-after:"):
            path.append(inserted)
    drop_node = drop_index = None
    per_node: dict[str, list[_Vnf]] = {}
    for v in path:
        per_node.setdefault(v.node, []).append(v)
        if v.behavior.startswith("prefix-filter:") and dst in FILTER_DROPS:
            drop_node, drop_index = v.node, len(per_node[v.node]) - 1
            break
    for node in MESH_LINE[:-1]:
        if node in per_node:
            drop_at = drop_index if node == drop_node else None
            costs[node] = node_cost([v.kind for v in per_node[node]], drop_at)
        else:
            costs[node] = (1, 0, 0)
        if node == drop_node:
            return Expect(
                False, node, f"vnf {per_node[node][drop_index].address}", tuple(costs.values())
            )
    return Expect(True, "out", None, tuple(costs.values()))


def mesh(seed: int) -> Workload:
    rng = random.Random(f"mesh:{seed}")
    chains, inserted = _mesh_chains(rng)
    routes = _mesh_routes()
    destinations = [
        IPv6Address(
            f"2001:db8:{0x1000 + i:x}:{rng.getrandbits(16):x}::{rng.getrandbits(16) | 1:x}"
        )
        for i in range(MESH_DEST_PREFIXES)
        for _ in range(MESH_HOSTS_PER_PREFIX)
    ]
    if len(set(destinations)) != len(destinations):
        raise ValueError("destination addresses collide; change the generator")
    sources = [
        IPv6Address(f"2001:db8:{0x2000 + rng.randrange(MESH_SOURCE_PREFIXES):x}::{i + 1:x}")
        for i in range(64)
    ]
    plain_hops = len(MESH_LINE) - 1

    packets, expects, expected_bytes = [], [], []
    cache: dict[IPv6Address, Expect] = {}
    classified = 0
    for _ in range(MESH_PACKETS):
        src, dst = rng.choice(sources), rng.choice(destinations)
        payload = rng.randbytes(MESH_PAYLOAD)
        sport, dport = rng.randrange(1024, 65536), rng.randrange(1, 1024)
        packet = udp_packet(src, dst, payload, src_port=sport, dst_port=dport)
        chain = _classify(chains, dst)
        classified += chain is not None
        expect = cache.get(dst)
        if expect is None:
            expect = cache[dst] = _mesh_expect(chain, inserted, dst)
        if not expect.delivered:
            delivered = None
        elif chain is None:
            delivered = wire.serialize_packet(
                udp_packet(
                    src, dst, payload, src_port=sport, dst_port=dport,
                    hop_limit=packet.header.hop_limit - plain_hops,
                )
            )
        else:
            delivered = wire.serialize_packet(packet)
        packets.append(packet)
        expects.append(expect)
        expected_bytes.append(delivered)

    routes_per_node = {node: sum(1 for r in routes if r[0] == node) for node in MESH_LINE}
    vnfs = [v for c in chains for v in c.vnfs] + [inserted]
    shape = {
        "packets": MESH_PACKETS,
        "chains": len(chains),
        "vnfs_sr_aware": sum(v.kind == AWARE for v in vnfs),
        "vnfs_sr_unaware": sum(v.kind == UNAWARE for v in vnfs),
        "share_classified": classified / MESH_PACKETS,
        "share_dropped": sum(not e.delivered for e in expects) / MESH_PACKETS,
        "distinct_destinations": len({p.header.dst for p in packets}),
        "routes_per_node": routes_per_node,
        "max_routes_per_node": max(routes_per_node.values()),
    }
    return Workload(
        name="mesh-mixed-manyflows",
        seed=seed,
        config_text=_mesh_config(chains, inserted, routes, destinations),
        bundled_path=None,
        ingress="in",
        node_ids=MESH_LINE,
        terminal_only=True,
        export=False,
        packets=packets,
        expects=expects,
        expected_bytes=expected_bytes,
        shape=shape,
    )


def shape_problems(shape: dict | None) -> list[str]:
    """Shape values outside MESH_BANDS; empty when in band or no shape."""
    if shape is None:
        return []
    return [
        f"{key}={shape[key]} outside [{low}, {high}]"
        for key, (low, high) in MESH_BANDS.items()
        if not low <= shape[key] <= high
    ]


BUILDERS = {
    "testbed-unaware-64B": testbed,
    "chain8-aware-fulltrace": chain8,
    "mesh-mixed-manyflows": mesh,
}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)
