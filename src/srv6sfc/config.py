"""Scenario configuration: a line-oriented, sectioned text format.

Loading reports every problem, not just the first: this module checks
references between sections, duplicates, ambiguous rules and routes,
behavior specs and the bench flow, ``sim.topology_problems`` the
topology, the ``ChainRegistry`` the chains and ``dataplane.chain_problems``
a walk of each chain, so a config that loads always builds.

    [nodes]    <id> <role> addrs=<addr,...>
    [links]    <id> <id>
    [sids]     <addr> kind=<sr-aware|sr-unaware|egress> node=<id> [iface=<single|west|east>]
    [vnfs]     <addr> behavior=<spec> [permission=<level>]
               <spec>: passthrough | prefix-filter:<prefix> | payload-stamp:<byte>
                       | chain-editor:<edit>
               <edit>: insert-after:<sid+sid> | insert-at:<pos>:<sid+sid> | replace:<sid+sid>
    [chains]   <id> segs=<addr,...> src=<addr> [direction=<uni|east|west>]
    [rules]    <node> <prefix> chain=<id>
    [routes]   <node> <prefix> via <node>
    [bench]    flow src=<addr> dst=<addr> ingress=<id>
               model <aware|unaware|default> capacity=<num> [k0=<num>]
               rates <rate,...> | runs <int> | noise <num> | seed <int> | payload <bytes>
               units [f=<num>] [d=<num>] [e=<num>]

A line holds the tokens its usage names, then only ``key=value`` tokens
of keys it names, each at most once; a bracketed key is optional.
Anything else is ``line N: expected: <usage>``, ``unknown field
'<key>'``, ``duplicate field '<key>'`` or ``missing '<key>' field``.
``[bench]`` needs one or more rates, each positive and finite, at least
one run, a ``payload`` in 0..65527, and ``noise`` and unit costs finite
and not negative. A ``[rules]``, ``[routes]`` or ``[bench]`` line (a
``model`` per scenario) may repeat only with an equal value. A chain
editor sits on an SR-aware SID, makes an edit its ``permission`` allows,
names only declared SIDs, inserts at no position below 0 and replaces
with a non-empty list.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field, replace as dc_replace
from functools import partial
from ipaddress import IPv6Address, IPv6Network
from pathlib import Path
from socket import AF_INET6, inet_pton

from srv6sfc import errors
from srv6sfc.bench import SCENARIOS, CapacityModel
from srv6sfc.chain import (
    ChainDirection,
    ChainRegistry,
    ClassifierRule,
    Sid,
    SidKind,
    VnfChain,
    VnfInterface,
)
from srv6sfc.dataplane import (
    PERMITTED_EDITS,
    ChainEditor,
    PassThroughRouter,
    PayloadStamper,
    PrefixFilter,
    SegmentListEdit,
    UnitCosts,
    Vnf,
    VnfPermission,
    chain_problems,
)
from srv6sfc.sim import FlowSpec, Network, Node, NodeRole, topology_problems
from srv6sfc.wire import MAX_PAYLOAD_LEN, UDP_HEADER_LEN

SECTION_ORDER = ("nodes", "links", "sids", "vnfs", "chains", "rules", "routes", "bench")


@dataclass(frozen=True)
class NodeDecl:
    node_id: str
    role: NodeRole
    addresses: tuple[IPv6Address, ...]


@dataclass(frozen=True)
class VnfDecl:
    address: IPv6Address
    behavior_spec: str
    permission: VnfPermission = VnfPermission.INSERT_NEXT_ONLY


@dataclass(frozen=True)
class RuleDecl:
    node_id: str
    network: IPv6Network
    chain_id: str


@dataclass(frozen=True)
class RouteDecl:
    node_id: str
    network: IPv6Network
    via: str


@dataclass(frozen=True)
class BenchSection:
    flow_src: IPv6Address | None = None
    flow_dst: IPv6Address | None = None
    flow_ingress: str | None = None
    models: tuple[tuple[str, CapacityModel], ...] = ()
    rates: tuple[float, ...] = (1000.0, 3000.0, 6000.0, 9000.0, 12000.0, 13000.0)
    runs: int = 30
    noise: float = 1.0
    seed: int = 42
    payload: int = 1024
    units: UnitCosts = UnitCosts()

    def model_for(self, scenario: str) -> CapacityModel | None:
        table = dict(self.models)
        return table.get(scenario, table.get("default"))


@dataclass(frozen=True)
class ScenarioConfig:
    nodes: tuple[NodeDecl, ...]
    links: tuple[tuple[str, str], ...]
    sids: tuple[Sid, ...]
    vnfs: tuple[VnfDecl, ...]
    chains: tuple[VnfChain, ...]
    rules: tuple[RuleDecl, ...]
    routes: tuple[RouteDecl, ...]
    bench: BenchSection = BenchSection()
    # What validation built, set by ``_semantic_problems``. Neither is handed
    # out: builds copy them, and ``dataclasses.replace`` resets both.
    _registry: ChainRegistry | None = field(
        default=None, init=False, compare=False, repr=False
    )
    _checked_nodes: tuple[Node, ...] = field(default=(), init=False, compare=False, repr=False)

    def build_network(self, kind_override: SidKind | None = None) -> Network:
        """The checked nodes, with their own registry and ``Vnf`` objects,
        validated first if need be; with ``kind_override``, non-egress SIDs
        take that kind, and a chain that kind breaks is a ``ValidationError``."""
        if self._registry is None:
            problems = _semantic_problems(self)
            if problems:
                raise errors.ValidationError(problems)
        if kind_override is None:
            registry = self._registry.copy()
        else:
            sids = [sid if sid.kind is SidKind.EGRESS_ENDPOINT else dc_replace(sid, kind=kind_override)
                    for sid in self.sids]
            registry, problems = _new_registry(sids, self.chains, self._checked_nodes)
            if problems:
                raise errors.ValidationError(
                    [f"VNF SIDs as {kind_override.value}: {problem}" for problem in problems]
                )
        nodes = {}
        for node in self._checked_nodes:
            vnfs = [Vnf(registry.sid(v.sid.address), v.behavior, v.permission) for v in node.hosted_vnfs]
            nodes[node.node_id] = dc_replace(node, hosted_vnfs=vnfs)
        return Network(nodes, {frozenset(pair) for pair in self.links}, registry, self.bench.units)

    def flow(self) -> FlowSpec:
        bench = self.bench
        if bench.flow_src is None or bench.flow_dst is None or bench.flow_ingress is None:
            raise errors.ValidationError(
                ["bench flow is not configured (flow src=... dst=... ingress=...)"]
            )
        return FlowSpec(
            ingress=bench.flow_ingress,
            src=bench.flow_src,
            dst=bench.flow_dst,
            payload_size=bench.payload,
        )


def _new_registry(sids, chains, nodes) -> tuple[ChainRegistry | None, list[str]]:
    """The one way a registry is built, ``sids`` then ``chains``, with the
    problems of walking each past the VNFs ``nodes`` host, or None and its refusal."""
    registry = ChainRegistry()
    try:
        for sid in sids:
            registry.add_sid(sid)
        for chain in chains:
            registry.register_chain(chain)
    except errors.SfcError as exc:
        return None, [f"{type(exc).__name__}: {exc}"]
    return registry, chain_problems(registry, (vnf for node in nodes for vnf in node.hosted_vnfs))


# Behavior factory ---------------------------------------------------------

def _parse_sid_list(text: str, sid_table: dict[IPv6Address, Sid]) -> tuple[IPv6Address, ...]:
    addresses = (IPv6Address(part) for part in text.split("+") if part)
    return tuple(sid_table[a].address if a in sid_table else a for a in addresses)


def behavior_from_spec(spec: str, sid_table: dict[IPv6Address, Sid] | None = None):
    """Instantiate a VNF behavior from its config spelling. A chain
    editor's SIDs found in ``sid_table`` are the table's own address
    objects, so the walk matches them by identity."""
    sid_table = {} if sid_table is None else sid_table
    kind, _, rest = spec.partition(":")
    if kind == "passthrough":
        return PassThroughRouter()
    if kind == "prefix-filter":
        return PrefixFilter(read_network(rest))
    if kind == "payload-stamp":
        return PayloadStamper(int(rest, 0))
    if kind == "chain-editor":
        edit_kind, _, args = rest.partition(":")
        if edit_kind == "insert-after":
            return ChainEditor(SegmentListEdit.insert_after_current(_parse_sid_list(args, sid_table)))
        if edit_kind == "insert-at":
            position, _, sids = args.partition(":")
            return ChainEditor(SegmentListEdit.insert_at(int(position), _parse_sid_list(sids, sid_table)))
        if edit_kind == "replace":
            return ChainEditor(SegmentListEdit.replace(_parse_sid_list(args, sid_table)))
        raise errors.ValidationError([f"unknown chain-editor edit {edit_kind!r}"])
    raise errors.ValidationError([f"unknown behavior {spec!r}"])


def _edit_problems(vnf: VnfDecl, sid: Sid, edit: SegmentListEdit, sid_table) -> list[str]:
    """The faults a chain editor's declaration shows on its own, also where
    no chain reaches it: each would fail the connector on the first packet."""
    problems = []
    if sid.kind is SidKind.SR_UNAWARE:
        problems.append("an SR-unaware VNF sees no SRH and cannot edit it")
    if edit.kind not in PERMITTED_EDITS[vnf.permission]:
        problems.append(f"{edit.kind.value} not allowed at permission {vnf.permission.value}")
    problems.extend(f"edit references undeclared SID {a}" for a in edit.sids if a not in sid_table)
    if edit.kind is SegmentListEdit.Kind.REPLACE and not edit.sids:
        problems.append("replacement segment list must not be empty")
    if edit.position is not None and edit.position < 0:
        problems.append(f"insert position must be >= 0, got {edit.position}")
    return [f"VNF {vnf.address}: {problem}" for problem in problems]


# Parsing -------------------------------------------------------------------

# Each line's usage as the module docstring spells it, the names of its
# positional tokens and its keys with their defaults (None: required).
# A ``[bench]`` line is keyed by its keyword, its first positional token.
_LINES: dict[str, tuple[str, tuple[str, ...], dict[str, str | None]]] = {
    "nodes": ("<id> <role> addrs=<addr,...>", ("id", "role"), {"addrs": None}),
    "links": ("<id> <id>", ("a", "b"), {}),
    "sids": ("<addr> kind=<sr-aware|sr-unaware|egress> node=<id> [iface=<single|west|east>]",
             ("addr",), {"kind": None, "node": None, "iface": "single"}),
    "vnfs": ("<addr> behavior=<spec> [permission=<level>]",
             ("addr",), {"behavior": None, "permission": "insert-next-only"}),
    "chains": ("<id> segs=<addr,...> src=<addr> [direction=<uni|east|west>]",
               ("id",), {"segs": None, "src": None, "direction": "uni"}),
    "rules": ("<node> <prefix> chain=<id>", ("node", "prefix"), {"chain": None}),
    "routes": ("<node> <prefix> via <node>", ("node", "prefix", "via", "next"), {}),
    "bench flow": ("flow src=<addr> dst=<addr> ingress=<id>",
                   ("_",), {"src": None, "dst": None, "ingress": None}),
    "bench model": ("model <aware|unaware|default> capacity=<num> [k0=<num>]",
                    ("_", "scenario"), {"capacity": None, "k0": "0"}),
    "bench rates": ("rates <rate,...>", ("_", "value"), {}),
    "bench runs": ("runs <int>", ("_", "value"), {}),
    "bench noise": ("noise <num>", ("_", "value"), {}),
    "bench seed": ("seed <int>", ("_", "value"), {}),
    "bench payload": ("payload <bytes>", ("_", "value"), {}),
    "bench units": ("units [f=<num>] [d=<num>] [e=<num>]",
                    ("_",), {"f": "1.0", "d": "0.5", "e": "0.5"}),
}


class _Shape(Exception):
    """A line whose tokens do not have the shape of its usage."""


def _fields(
    tokens: list[str], positional: tuple[str, ...], keys: dict[str, str | None]
) -> dict[str, str]:
    """A line's fields by name: the ``positional`` tokens first, then
    ``key=value`` tokens with keys of ``keys``; an absent key takes its
    default, and one whose default is None is missing."""
    if len(tokens) < len(positional):
        raise _Shape
    fields = dict(zip(positional, tokens))
    for token in tokens[len(positional):]:
        key, sep, value = token.partition("=")
        if not sep:
            raise _Shape
        if key not in keys:
            raise ValueError(f"unknown field {key!r}")
        if key in fields:
            raise ValueError(f"duplicate field {key!r}")
        fields[key] = value
    for key, default in keys.items():
        if fields.setdefault(key, default) is None:
            raise ValueError(f"missing {key!r} field")
    return fields


def _once(table: dict, key: str, value: object, what: str | None = None) -> None:
    """Store a ``[bench]`` value; an equal repeat is fine, another is refused."""
    if table.setdefault(key, value) != value:
        raise ValueError(f"duplicate bench {what or key} declaration")


# Value readers, shared with the command line's options: a refused value
# is a ``ValueError`` whose text the file and the option both report.

def read_integer(name: str, text: str, low: int, high: float = math.inf) -> int:
    value = int(text)
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if value > high:
        raise ValueError(f"{name} must be <= {high}, got {value}")
    return value


def read_finite(name: str, text: str, low: float = -math.inf) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value:g}")
    if value < low:
        raise ValueError(f"{name} must be >= {low:g}, got {value:g}")
    return value


def read_rates(text: str) -> tuple[float, ...]:
    """A comma-separated rate list: at least one rate, each positive and finite."""
    rates = tuple(float(r) for r in text.split(",") if r)
    if not rates:
        raise ValueError("rate list is empty")
    for rate in rates:
        if not 0 < rate < math.inf:
            raise ValueError(f"rate must be positive and finite, got {rate:g}")
    return rates


# The reader of each one-value ``[bench]`` keyword.
BENCH_READERS = {
    "rates": read_rates,
    "runs": partial(read_integer, "runs", low=1),
    "noise": partial(read_finite, "noise", low=0),
    "seed": int,
    "payload": partial(read_integer, "payload", low=0, high=MAX_PAYLOAD_LEN - UDP_HEADER_LEN),
}


def read_address(text: str) -> IPv6Address:
    """The address ``text`` spells, as ``IPv6Address(text)`` reads it."""
    try:
        packed = inet_pton(AF_INET6, text)
    except (OSError, ValueError):
        # Scoped addresses, and the exact error for a bad token.
        return IPv6Address(text)
    return IPv6Address(int.from_bytes(packed, "big"))


def read_network(text: str) -> IPv6Network:
    """The prefix ``text`` spells, as ``IPv6Network(text, strict=False)``
    reads it: an address ``inet_pton`` takes and a plain length up to 128
    build it from integers, anything else goes through ``ipaddress``."""
    address, _, length = text.partition("/")
    if length.isascii() and length.isdigit() and len(length) <= 3 and int(length) <= 128:
        try:
            packed = inet_pton(AF_INET6, address)
        except (OSError, ValueError):
            pass
        else:
            return IPv6Network((int.from_bytes(packed, "big"), int(length)), strict=False)
    # Scoped or odd prefixes, and the exact error for a bad token.
    return IPv6Network(text, strict=False)


class _Collector:
    """Accumulates declarations (by section) and problems while scanning the file."""

    def __init__(self):
        self.problems: list[str] = []
        self.decls: dict[str, list] = {name: [] for name in SECTION_ORDER if name != "bench"}
        self.bench_kwargs: dict = {}
        self.bench_models: dict[str, CapacityModel] = {}
        self._addresses: dict[str, IPv6Address] = {}
        self._networks: dict[str, IPv6Network] = {}

    def problem(self, line_no: int, message: str) -> None:
        self.problems.append(f"line {line_no}: {message}")

    def address(self, text: str) -> IPv6Address:
        """The one ``IPv6Address`` for ``text`` in this file."""
        address = self._addresses.get(text)
        if address is None:
            address = self._addresses[text] = read_address(text)
        return address

    def network(self, text: str) -> IPv6Network:
        """The one ``IPv6Network`` for the prefix ``text`` in this file."""
        network = self._networks.get(text)
        if network is None:
            network = self._networks[text] = read_network(text)
        return network


def _parse_line(collector: _Collector, section: str, line_no: int, line: str) -> None:
    tokens = line.split()
    kind = section
    if section == "bench":
        keyword, *_ = tokens
        kind = f"bench {keyword}"
    address, bench = collector.address, collector.bench_kwargs
    try:
        if kind not in _LINES:
            raise ValueError(f"unknown bench keyword {keyword!r}")
        usage, positional, keys = _LINES[kind]
        f = _fields(tokens, positional, keys)
        decl = None
        if kind == "nodes":
            decl = NodeDecl(
                f["id"], NodeRole(f["role"]), tuple(address(a) for a in f["addrs"].split(",") if a)
            )
        elif kind == "links":
            decl = (f["a"], f["b"])
        elif kind == "sids":
            decl = Sid(address(f["addr"]), SidKind(f["kind"]), f["node"], VnfInterface(f["iface"]))
        elif kind == "vnfs":
            decl = VnfDecl(address(f["addr"]), f["behavior"], VnfPermission(f["permission"]))
        elif kind == "chains":
            decl = VnfChain(
                f["id"], tuple(address(a) for a in f["segs"].split(",") if a),
                address(f["src"]), ChainDirection(f["direction"]),
            )
        elif kind == "rules":
            decl = RuleDecl(f["node"], collector.network(f["prefix"]), f["chain"])
        elif kind == "routes":
            if f["via"] != "via":
                raise _Shape
            decl = RouteDecl(f["node"], collector.network(f["prefix"]), f["next"])
        elif kind == "bench flow":
            _once(bench, "flow", (address(f["src"]), address(f["dst"]), f["ingress"]))
        elif kind == "bench model":
            scenario = f["scenario"]
            if scenario not in SCENARIOS and scenario != "default":
                raise ValueError(f"model scenario must be aware/unaware/default, got {scenario!r}")
            model = CapacityModel(read_finite("capacity", f["capacity"]), read_finite("k0", f["k0"]))
            _once(collector.bench_models, scenario, model, f"model {scenario!r}")
        elif keyword in BENCH_READERS:
            _once(bench, keyword, BENCH_READERS[keyword](f["value"]))
        elif kind == "bench units":
            _once(bench, "units", UnitCosts(*(read_finite(f"units {k}", f[k], 0) for k in "fde")))
        if decl is not None:
            collector.decls[section].append(decl)
    except _Shape:
        collector.problem(line_no, f"expected: {usage}")
    except (ValueError, errors.SfcError) as exc:
        collector.problem(line_no, str(exc) or type(exc).__name__)


def parse_config_text(text: str) -> ScenarioConfig:
    """Parse and cross-validate; raises ValidationError with every
    problem found, or ParseError when the document has no structure."""
    collector = _Collector()
    section: str | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in SECTION_ORDER:
                collector.problem(line_no, f"unknown section [{section}]")
            continue
        if section is None:
            raise errors.ParseError(f"declaration before any section: {line!r}", line_no)
        if section in SECTION_ORDER:  # an unknown section's lines are skipped
            _parse_line(collector, section, line_no, line)

    bench = collector.bench_kwargs
    flow_src, flow_dst, flow_ingress = bench.pop("flow", (None, None, None))
    config = ScenarioConfig(
        **{name: tuple(decls) for name, decls in collector.decls.items()},
        bench=BenchSection(
            flow_src, flow_dst, flow_ingress, tuple(collector.bench_models.items()), **bench
        ),
    )
    problems = collector.problems + _semantic_problems(config)
    if problems:
        raise errors.ValidationError(problems)
    return config


def _semantic_problems(config: ScenarioConfig) -> list[str]:
    problems: list[str] = []
    node_ids = {decl.node_id for decl in config.nodes}

    sid_table: dict[IPv6Address, Sid] = {}
    for sid in config.sids:
        if sid.address in sid_table:
            problems.append(f"duplicate SID declaration for {sid.address}")
        sid_table[sid.address] = sid
        if sid.host_node not in node_ids:
            problems.append(f"SID {sid.address} hosted on unknown node {sid.host_node!r}")

    # Each node's VNFs, rules and routes; those on undeclared nodes are left out.
    hosted: defaultdict[str, list[Vnf]] = defaultdict(list)
    vnf_addresses = set()
    for vnf in config.vnfs:
        sid = sid_table.get(vnf.address)
        if vnf.address in vnf_addresses:
            problems.append(f"duplicate VNF declaration for {vnf.address}")
        elif sid is None:
            problems.append(f"VNF declared for unknown SID {vnf.address}")
        elif sid.kind is SidKind.EGRESS_ENDPOINT:
            problems.append(f"VNF declared for egress SID {vnf.address}")
        vnf_addresses.add(vnf.address)
        try:
            behavior = behavior_from_spec(vnf.behavior_spec, sid_table)
        except (errors.SfcError, ValueError) as exc:
            problems.append(f"VNF {vnf.address}: bad behavior spec {vnf.behavior_spec!r} ({exc})")
            continue
        if sid is not None and sid.kind is not SidKind.EGRESS_ENDPOINT:
            if isinstance(behavior, ChainEditor):
                problems.extend(_edit_problems(vnf, sid, behavior.edit, sid_table))
            hosted[sid.host_node].append(Vnf(sid, behavior, vnf.permission))

    chain_ids = set()
    for chain in config.chains:
        if chain.chain_id in chain_ids:
            problems.append(f"duplicate chain id {chain.chain_id!r}")
        chain_ids.add(chain.chain_id)
        for address in chain.segments:
            if address not in sid_table:
                problems.append(f"chain {chain.chain_id!r} references undeclared SID {address}")

    # On a node, a prefix has one chain and one next hop; exact repeats are fine.
    rules: defaultdict[str, dict[IPv6Network, str]] = defaultdict(dict)
    for rule in config.rules:
        if rule.node_id not in node_ids:
            problems.append(f"rule on unknown node {rule.node_id!r}")
        if rule.chain_id not in chain_ids:
            problems.append(f"rule for unknown chain {rule.chain_id!r}")
        if rules[rule.node_id].setdefault(rule.network, rule.chain_id) != rule.chain_id:
            problems.append(f"duplicate rule declaration for {rule.network} on {rule.node_id!r}")

    routes: defaultdict[str, dict[IPv6Network, str]] = defaultdict(dict)
    for route in config.routes:
        if route.node_id not in node_ids:
            problems.append(f"route on unknown node {route.node_id!r}")
        if routes[route.node_id].setdefault(route.network, route.via) != route.via:
            problems.append(f"duplicate route declaration for {route.network} on {route.node_id!r}")

    if config.bench.flow_ingress is not None and config.bench.flow_ingress not in node_ids:
        problems.append(f"bench flow ingress {config.bench.flow_ingress!r} is not a node")

    nodes = [
        Node(decl.node_id, decl.role, decl.addresses, hosted[decl.node_id],
             [ClassifierRule(*rule) for rule in rules[decl.node_id].items()],
             routes[decl.node_id].items())
        for decl in config.nodes
    ]
    problems.extend(str(p) for p in topology_problems(nodes, list(config.links), sid_table))

    if not problems:
        # Registry-level rules (egress-last, interface match, univocal
        # mapping) and the chain walk only make sense once the references resolve.
        registry, problems = _new_registry(config.sids, config.chains, nodes)
        if not problems:
            object.__setattr__(config, "_registry", registry)
            object.__setattr__(config, "_checked_nodes", tuple(nodes))
    return problems


def read_config_text(path: str | Path) -> str:
    """The config file's text, with its line breaks as written."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise errors.ParseError(f"cannot read config {path}: {reason}") from exc


def load_config(path: str | Path) -> ScenarioConfig:
    return parse_config_text(read_config_text(path))


# Route installation ----------------------------------------------------------

def _insert_line(lines: list[str], section: str, line: str) -> None:
    """Put ``line`` after the last declaration under the last ``[section]``
    header of ``lines``; without one, after a new header at the end."""
    at = current = None
    for index, raw in enumerate(lines, start=1):
        content = raw.split("#", 1)[0].strip()
        if content.startswith("[") and content.endswith("]"):
            current = content[1:-1].strip()
        if content and current == section:
            at = index
    if at is None:
        lines += ["\n", f"[{section}]\n"]
        at = len(lines)
    lines.insert(at, line + "\n")


def route_add(
    text: str,
    prefix_text: str,
    via_text: str,
    segment_texts: list[str],
    *,
    node_id: str | None = None,
    chain_id: str | None = None,
) -> str:
    """Install a classifier rule, its chain, and a route in one step,
    mirroring `route add PREFIX via NEXTHOP encap seg SID,...`, as an edit
    of the config ``text``: each declaration the config lacks becomes one
    line at the end of its section, and the rest of ``text`` is kept as
    written.

    Re-adding an installed route returns ``text`` unchanged. Every
    refusal, a bad prefix or address included, is a ``ValidationError``.
    """
    config = parse_config_text(text)
    try:
        prefix = read_network(prefix_text)
    except ValueError as exc:
        raise errors.ValidationError([f"bad prefix {prefix_text!r}: {exc}"]) from exc
    try:
        via = read_address(via_text)
        segments = tuple(map(read_address, segment_texts))
    except ValueError as exc:
        raise errors.ValidationError([f"bad address: {exc}"]) from exc

    if node_id is None:
        node_id = next((d.node_id for d in config.nodes if d.role is NodeRole.INGRESS_EDGE), None)
        if node_id is None:
            raise errors.ValidationError(["no ingress-edge node to install the route on"])
    node = next((d for d in config.nodes if d.node_id == node_id), None)
    if node is None:
        raise errors.ValidationError([f"unknown node {node_id!r}"])
    if not node.addresses:
        raise errors.ValidationError([f"node {node_id!r} has no addresses for ingress source"])

    via_node = next((d for d in config.nodes if via in d.addresses), None)
    if via_node is None:
        raise errors.ValidationError([f"via address {via} is not owned by any node"])

    ingress_source = node.addresses[0]
    if chain_id is None:
        # Reuse a chain that already encodes this path; the kernel
        # command would be a no-op for an already-installed route.
        chain_id = next(
            (c.chain_id for c in config.chains if c.segments == segments
             and c.ingress_source == ingress_source and c.direction is ChainDirection.UNIDIRECTIONAL),
            f"rt-{prefix.network_address.compressed}-{prefix.prefixlen}",
        )
    try:
        chain = VnfChain(chain_id, segments, ingress_source, ChainDirection.UNIDIRECTIONAL)
    except errors.ChainError as exc:
        raise errors.ValidationError([str(exc)]) from exc
    declarations = (
        ("chains", chain, config.chains,
         f"{chain_id} segs={','.join(map(str, segments))} src={ingress_source}"),
        ("rules", RuleDecl(node_id, prefix, chain_id), config.rules,
         f"{node_id} {prefix} chain={chain_id}"),
        ("routes", RouteDecl(node_id, prefix, via_node.node_id), config.routes,
         f"{node_id} {prefix} via {via_node.node_id}"),
    )
    missing = [(section, line) for section, decl, declared, line in declarations if decl not in declared]
    if not missing:
        return text

    lines = (text if text.endswith("\n") else text + "\n").splitlines(keepends=True)
    for section, line in missing:
        _insert_line(lines, section, line)
    edited = "".join(lines)
    parse_config_text(edited)
    return edited
