"""Trace export: the hand-built JSON lines against ``json.dumps``, golden
``srv6sfc run`` output, and the bound on the event memo."""

from __future__ import annotations

import hashlib
import json
import random
import sys
from importlib.resources import files
from ipaddress import IPv6Address
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain8_config
from srv6sfc import cli, errors
from srv6sfc.chain import SidKind, VnfChain
from srv6sfc.config import load_config, parse_config_text
from srv6sfc.dataplane import encapsulate
from srv6sfc.sim import flow_packet, inject
from srv6sfc.trace import EventKind, Trace, TraceEvent, TrafficText
from srv6sfc.wire import udp_packet

TERMINAL = (EventKind.DROPPED, EventKind.DELIVERED)
NON_TERMINAL = tuple(kind for kind in EventKind if kind not in TERMINAL)


def reference_jsonl(uid, terminal_only: bool, calls) -> str:
    """The export as one ``json.dumps`` per kept event, for the
    ``Trace.add`` calls ``calls``: the oracle for ``Trace.to_jsonl``."""
    lines = []
    for node, kind, detail in calls:
        if terminal_only and kind not in TERMINAL:
            continue
        lines.append(
            json.dumps(
                {
                    "uid": uid,
                    "node": node,
                    "event": kind.value,
                    "detail": None if detail is None else str(detail),
                },
                separators=(",", ":"),
            )
        )
    return "\n".join(lines)


def memo_key(node: str, kind: EventKind, detail):
    """The event memo's key for a kept event, or None when the memo does
    not store its detail: an address by its integer, paired with its
    scope id when it has one; a string or None as itself."""
    if isinstance(detail, IPv6Address):
        detail = int(detail) if detail.scope_id is None else (int(detail), detail.scope_id)
    elif detail is not None and type(detail) is not str:
        return None
    return (node, kind.value, detail)


def assert_memo_renders_like_json_dumps(memo) -> None:
    """Every stored pair is its key's event and that event's line after
    the uid, as ``json.dumps`` prints it."""
    head = '{"uid":null,"node":'
    for (node, value, _), (event, tail) in memo.items():
        assert type(event) is TraceEvent
        assert (event.node, event.kind.value) == (node, value)
        assert head + tail == reference_jsonl(None, False, [event])


# Characters the escaper treats specially, mixed with any code point,
# lone surrogates included.
_TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\/\x00\x08\x0c\x1f\x7f\x80\xe9\u2028\ufeff\U0001f600\ud800\udfff'),
        st.characters(exclude_categories=()),
    ),
    max_size=10,
)
# A small pool as well, so that traces sharing a memo hit it.
_ADDRESSES = st.one_of(
    st.sampled_from([
        IPv6Address("BBBB::2"), IPv6Address("::"), IPv6Address("2001:db8::1:0:0:1"),
        IPv6Address("fe80::1"), IPv6Address("fe80::1%eth0"), IPv6Address("fe80::1%2"),
    ]),
    st.integers(0, 2**128 - 1).map(IPv6Address),
)
# An integer detail equal to an address's integer must keep its own text.
# A ``TrafficText`` is rendered like its text and never stored.
_DETAILS = st.one_of(
    st.none(), _TEXT, _ADDRESSES, st.sampled_from([0, 0xFE80 << 112 | 1]), _TEXT.map(TrafficText),
)
_UIDS = st.one_of(st.none(), st.just(0), st.integers(0, 2**64), st.integers(10**30, 10**40))
_CALLS = st.tuples(
    st.lists(st.tuples(_TEXT, st.sampled_from(NON_TERMINAL), _DETAILS), max_size=6),
    st.one_of(st.none(), st.tuples(_TEXT, st.sampled_from(TERMINAL), _DETAILS)),
)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(st.lists(st.tuples(_UIDS, st.booleans(), _CALLS), min_size=1, max_size=4))
def test_to_jsonl_matches_json_dumps(walks):
    memo: dict[object, tuple] = {}
    keys = set()
    for uid, terminal_only, (calls, terminal) in walks:
        calls = calls + [terminal] if terminal is not None else calls
        trace = Trace(uid, terminal_only, memo)
        for node, kind, detail in calls:
            trace.add(node, kind, detail)
            if not terminal_only or kind in TERMINAL:
                keys.add(memo_key(node, kind, detail))
        assert trace.to_jsonl() == reference_jsonl(uid, terminal_only, calls)
        assert all(event.detail is None or type(event.detail) is str for event in trace.events)
    # Every kept event with an address, string or None detail is stored,
    # under its key, and nothing else.
    keys.discard(None)
    assert set(memo) == keys
    assert_memo_renders_like_json_dumps(memo)


def test_address_memo_keeps_scoped_and_unscoped_texts_apart():
    scoped, plain = IPv6Address("fe80::1%eth0"), IPv6Address("fe80::1")
    for order in ((scoped, plain), (plain, scoped)):
        memo: dict[object, tuple] = {}
        for address in order * 2:
            trace = Trace(None, False, memo)
            trace.add("nfv", EventKind.DELIVERED, address)
            assert trace.events[0].detail == str(address)
        assert memo == {
            ("nfv", "Delivered", plain._ip): (
                ("nfv", EventKind.DELIVERED, "fe80::1"),
                '"nfv","event":"Delivered","detail":"fe80::1"}',
            ),
            ("nfv", "Delivered", (scoped._ip, "eth0")): (
                ("nfv", EventKind.DELIVERED, "fe80::1%eth0"),
                '"nfv","event":"Delivered","detail":"fe80::1%eth0"}',
            ),
        }


def test_standalone_trace_renders_addresses():
    trace = Trace()
    trace.add("er1", EventKind.ENCAPSULATED, IPv6Address("BBBB:0:0::2"))
    trace.add("er2", EventKind.DELIVERED, IPv6Address("DDDD::2"))
    assert trace.to_jsonl() == (
        '{"uid":null,"node":"er1","event":"Encapsulated","detail":"bbbb::2"}\n'
        '{"uid":null,"node":"er2","event":"Delivered","detail":"dddd::2"}'
    )
    assert [event.detail for event in trace] == ["bbbb::2", "dddd::2"]


def test_step_records_what_its_three_adds_record():
    node, dst, sid = "nfv", IPv6Address("fe80::1%eth0"), IPv6Address("BBBB::2")
    added, stepped, terminal = Trace(7), Trace(7), Trace(7, terminal_only=True)
    for kind, detail in (
        (EventKind.SEGMENT_ADVANCED, dst), (EventKind.VNF_DELIVERED, sid), (EventKind.VNF_RETURNED, sid),
    ):
        added.add(node, kind, detail)
    stepped.step(node, dst, sid)
    terminal.step(node, dst, sid)
    assert stepped.events == added.events and stepped.to_jsonl() == added.to_jsonl()
    assert len(terminal) == 0
    for trace in (stepped, terminal):
        trace.add("er2", EventKind.DELIVERED, None)
        with pytest.raises(errors.InvariantViolation):
            trace.step(node, dst, sid)


# Golden `run` output ---------------------------------------------------------

# SHA-256 of the stdout of `srv6sfc run CONFIG --src EEEE::2 --dst DDDD::2
# --trace full --count 2`, captured while each line was still built by one
# `json.dumps` call per event, as `reference_jsonl` does.
GOLDEN_RUN_SHA256 = {
    "testbed": "82acf09403c7b6f4d569c9078cfe06d864e7459544516a4d166cc2ce73bdb5bb",
    "chain8": "f576667b58da0c69a34e4d263cd76371b70d3aa81561e9d3f4a9a0790020703e",
}


def golden_run_stdout(name: str, directory, capsys) -> tuple[int, str]:
    if name == "testbed":
        path = str(files("srv6sfc") / "configs" / "testbed.cfg")
    else:
        path = str(directory / "chain8.cfg")
        (directory / "chain8.cfg").write_text(chain8_config())
    code = cli.main(
        ["run", path, "--src", "EEEE::2", "--dst", "DDDD::2", "--trace", "full", "--count", "2"]
    )
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(GOLDEN_RUN_SHA256))
def test_run_full_trace_is_golden(name, tmp_path, capsys):
    code, out = golden_run_stdout(name, tmp_path, capsys)
    assert code == cli.EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_RUN_SHA256[name]


# Memo bound ----------------------------------------------------------------

# Aware and unaware VNFs, an editor inserting a SID, a filter that drops
# and destinations with no route, on the testbed's three nodes.
MIXED_CONFIG = """\
[nodes]
er1 ingress-edge addrs=AAAA::2,EEEE::2
nfv nfv-node addrs=AAAA::1,BBBB::1,CCCC::1
er2 egress-edge addrs=CCCC::2,DDDD::2
[links]
er1 nfv
nfv er2
[sids]
BBBB::2 kind=sr-aware node=nfv
BBBB::3 kind=sr-unaware node=nfv
BBBB::4 kind=sr-unaware node=nfv
BBBB::5 kind=sr-aware node=nfv
BBBB::6 kind=sr-aware node=nfv
CCCC::2 kind=egress node=er2
[vnfs]
BBBB::2 behavior=chain-editor:insert-after:BBBB::6 permission=insert-next-only
BBBB::3 behavior=passthrough permission=insert-next-only
BBBB::4 behavior=prefix-filter:DDDD::8/125 permission=insert-next-only
BBBB::5 behavior=passthrough permission=insert-next-only
BBBB::6 behavior=passthrough permission=insert-next-only
[chains]
c1 segs=BBBB::2,BBBB::3,BBBB::4,CCCC::2 src=AAAA::2 direction=uni
c2 segs=BBBB::5,CCCC::2 src=AAAA::2 direction=uni
[rules]
er1 DDDD::/64 chain=c1
er1 FFFF::/64 chain=c2
[routes]
er1 BBBB::/64 via nfv
er1 CCCC::/64 via nfv
er1 DDDD::/64 via nfv
er1 FFFF::/64 via nfv
nfv AAAA::/64 via er1
nfv EEEE::/64 via er1
nfv CCCC::/64 via er2
nfv DDDD::/64 via er2
nfv FFFF::/64 via er2
er2 AAAA::/64 via nfv
er2 EEEE::/64 via nfv
"""


def is_unrouted_drop(event) -> bool:
    return event.kind is EventKind.DROPPED and event.detail.startswith("no route to ")


def test_address_memo_is_bounded_by_the_config():
    network = parse_config_text(MIXED_CONFIG).build_network()
    # Two per link; per node its addresses, three fixed details and two
    # per classifier rule; on nfv four per hosted VNF and two per SID.
    assert network.event_limit == 2 * 2 + (2 + 3 + 2 * 2) + (3 + 3 + 4 * 5 + 2 * 6) + (2 + 3)
    destinations = [
        IPv6Address(f"{prefix}::{host:x}")
        for prefix in ("DDDD", "FFFF", "CCCC", "BBBB", "AAAA", "EEEE", "9999")
        for host in range(1, 40)
    ]
    delivered, reasons, recorded, unrouted = 0, set(), set(), set()
    for terminal_only in (False, True):
        for ingress in network.nodes:
            for dst in destinations:
                packet = udp_packet(IPv6Address("EEEE::2"), dst, b"memo")
                result = inject(network, ingress, packet, terminal_only=terminal_only)
                if result.delivered:
                    delivered += 1
                else:
                    reasons.add(result.outcome.reason)
                for event in result.trace.events:
                    (unrouted if is_unrouted_drop(event) else recorded).add(event)
                assert len(network.event_memo) <= network.event_limit
    assert delivered
    assert any(reason.startswith("vnf ") for reason in reasons)
    # The bound holds every event this traffic records but its drops for
    # lack of a route, whose texts come from the traffic; the memo holds
    # none of those.
    assert len(recorded) <= network.event_limit
    assert len(unrouted) > network.event_limit
    assert {event for event, _ in network.event_memo.values()} <= recorded
    assert_memo_renders_like_json_dumps(network.event_memo)


def test_unrouted_traffic_leaves_the_memo_to_the_config():
    # Drops for lack of a route name the traffic's destination; were they
    # stored, twice the bound of them first would leave the routed flow's
    # events to be rendered again on every packet.
    network = load_config(str(files("srv6sfc") / "configs" / "testbed.cfg")).build_network()
    source = IPv6Address("EEEE::2")
    for index in range(2 * network.event_limit):
        dst = IPv6Address(0x9999 << 112 | index)
        for terminal_only in (False, True):
            result = inject(network, "er1", udp_packet(source, dst, b"memo"), terminal_only=terminal_only)
            assert result.outcome.reason == f"no route to {dst}"
            assert result.trace.events[-1] == ("er1", EventKind.DROPPED, f"no route to {dst}")
            assert type(result.trace.events[-1].detail) is str
    # Each of these walks records only its drop.
    assert network.event_memo == {}
    routed = udp_packet(source, IPv6Address("DDDD::2"), b"memo")
    for rerun in (False, True):
        for terminal_only in (False, True):
            events = inject(network, "er1", routed, terminal_only=terminal_only).trace.events
            if rerun:
                stored = {id(event) for event, _ in network.event_memo.values()}
                assert events and all(id(event) in stored for event in events)


def test_oversized_traffic_leaves_the_memo_to_the_config():
    # An oversized drop names the packet's size; were those texts stored,
    # twice the bound of distinct sizes first would leave the routed
    # flow's events to be rendered again on every packet.
    network = load_config(str(files("srv6sfc") / "configs" / "testbed.cfg")).build_network()
    source, sink = IPv6Address("EEEE::2"), IPv6Address("DDDD::2")
    for index in range(2 * network.event_limit):
        # The 40 B SRH, 40 B inner header and 8 B UDP header come on top.
        packet = udp_packet(source, sink, b"x" * (65448 + index))
        reason = f"encapsulated payload of {65536 + index} B exceeds 65535 B"
        for terminal_only in (False, True):
            result = inject(network, "er1", packet, terminal_only=terminal_only)
            assert result.outcome.reason == reason
            assert result.trace.events[-1] == ("er1", EventKind.DROPPED, reason)
            assert type(result.trace.events[-1].detail) is str
    assert [event for event, _ in network.event_memo.values()] == [("er1", EventKind.CLASSIFIED, "c1")]
    routed = udp_packet(source, sink, b"memo")
    for rerun in (False, True):
        for terminal_only in (False, True):
            events = inject(network, "er1", routed, terminal_only=terminal_only).trace.events
            if rerun:
                stored = {id(event) for event, _ in network.event_memo.values()}
                assert events and all(id(event) in stored for event in events)


def own_srh_packet(segment: IPv6Address):
    """A packet that arrives at nfv encapsulated, with ``segment`` as the
    segment after the testbed's VNF."""
    own = VnfChain("own", (IPv6Address("BBBB::2"), segment), IPv6Address("AAAA::2"))
    return encapsulate(udp_packet(IPv6Address("EEEE::2"), IPv6Address("DDDD::2"), b"memo"), own)


def test_address_memo_is_bounded_when_packets_bring_their_own_srh():
    # A packet that arrives encapsulated names any address as its next
    # segment, and SegmentAdvanced renders it. With the testbed's VNF made
    # SR-aware, the step's group is keyed by that segment too.
    config = load_config(str(files("srv6sfc") / "configs" / "testbed.cfg"))
    for kind in (None, SidKind.SR_AWARE):
        network, unbounded = config.build_network(kind), config.build_network(kind)
        unbounded.event_limit = sys.maxsize  # the memos without their bound
        assert network.event_limit == 2 * 2 + (2 + 3 + 2) + (3 + 3 + 4 + 2 * 2) + (2 + 3)
        rng = random.Random(13)
        for _ in range(500):
            segment = IPv6Address(rng.getrandbits(128))
            packet = own_srh_packet(segment)
            result = inject(network, "nfv", packet)
            free = inject(unbounded, "nfv", packet)
            # The SR-aware VNF sends the packet on to its own segment, which
            # nfv does not route; the unaware proxy re-encapsulates for c1.
            assert result.delivered is (kind is None)
            assert result.outcome == free.outcome
            assert ("nfv", EventKind.SEGMENT_ADVANCED, str(segment)) in result.trace.events
            assert result.trace.to_jsonl() == free.trace.to_jsonl()
            assert len(network.event_memo) <= network.event_limit
            assert len(network.group_memo) <= network.event_limit
        assert len(unbounded.event_memo) > 500
        assert len(unbounded.group_memo) == (500 if kind is SidKind.SR_AWARE else 0)


def test_memo_at_its_bound_exports_like_an_unbounded_one():
    config = load_config(str(files("srv6sfc") / "configs" / "testbed.cfg"))
    for kind in (None, SidKind.SR_AWARE):
        full, unbounded = config.build_network(kind), config.build_network(kind)
        full.event_limit, unbounded.event_limit = 0, sys.maxsize
        rng = random.Random(29)
        walks = [("nfv", own_srh_packet(IPv6Address(rng.getrandbits(128)))) for _ in range(20)]
        walks += [
            ("er1", udp_packet(IPv6Address("EEEE::2"), IPv6Address(0x9999 << 112 | rng.getrandbits(64)), b"memo"))
            for _ in range(20)
        ]
        walks.append(("er1", udp_packet(IPv6Address("EEEE::2"), IPv6Address("DDDD::2"), b"memo")))
        for terminal_only in (False, True):
            for ingress, packet in walks * 2:
                bounded = inject(full, ingress, packet, terminal_only=terminal_only)
                free = inject(unbounded, ingress, packet, terminal_only=terminal_only)
                assert bounded.outcome == free.outcome
                assert bounded.trace.events == free.trace.events
                assert bounded.trace.to_jsonl() == free.trace.to_jsonl()
        assert full.event_memo == {} and full.group_memo == {}
        # The delivered flow and the own-SRH packets make one step each.
        assert len(unbounded.group_memo) == (21 if kind is SidKind.SR_AWARE else 0)


# Each chain VNF as (kind, behavior spec); an editor inserts the SR-aware
# pass-through BBBB::ff after itself, and a filter drops DDDD::8/125.
_CHAIN_VNFS = st.sampled_from([
    ("sr-aware", "passthrough"),
    ("sr-unaware", "passthrough"),
    ("sr-aware", "prefix-filter:DDDD::8/125"),
    ("sr-unaware", "prefix-filter:DDDD::8/125"),
    ("sr-aware", "chain-editor:insert-after:BBBB::ff"),
])


def mixed_chain_config(vnfs: list[tuple[str, str]]) -> str:
    """The testbed's nodes, links and routes with chain c1 through the
    given VNFs (BBBB::2 on) on nfv, plus the editors' target BBBB::ff."""
    sids = [f"BBBB::{index + 2:x}" for index in range(len(vnfs))]
    declared = [*zip(sids, vnfs), ("BBBB::ff", ("sr-aware", "passthrough"))]
    return "\n".join([
        "[nodes]",
        "er1 ingress-edge addrs=AAAA::2,EEEE::2",
        "nfv nfv-node addrs=AAAA::1,BBBB::1,CCCC::1",
        "er2 egress-edge addrs=CCCC::2,DDDD::2",
        "[links]", "er1 nfv", "nfv er2",
        "[sids]",
        *(f"{sid} kind={kind} node=nfv" for sid, (kind, _) in declared),
        "CCCC::2 kind=egress node=er2",
        "[vnfs]",
        *(f"{sid} behavior={spec} permission=insert-next-only" for sid, (_, spec) in declared),
        "[chains]",
        f"c1 segs={','.join(sids)},CCCC::2 src=AAAA::2 direction=uni",
        "[rules]", "er1 DDDD::/64 chain=c1",
        "[routes]",
        "er1 BBBB::/64 via nfv", "er1 CCCC::/64 via nfv", "er1 DDDD::/64 via nfv",
        "nfv AAAA::/64 via er1", "nfv EEEE::/64 via er1",
        "nfv CCCC::/64 via er2", "nfv DDDD::/64 via er2",
        "er2 AAAA::/64 via nfv", "er2 EEEE::/64 via nfv",
    ]) + "\n"


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.lists(_CHAIN_VNFS, min_size=1, max_size=5), st.none() | st.integers(0, 16))
def test_grouped_steps_export_like_json_dumps_within_the_bound(vnfs, limit):
    # Every full trace of walks over mixed chains exports what json.dumps
    # prints for its events, and those events are the ones a network that
    # stores nothing renders. Both memos stay within the bound, also when
    # it is set low enough that only some groups fit.
    config = parse_config_text(mixed_chain_config(vnfs))
    network, bare = config.build_network(), config.build_network()
    if limit is not None:
        network.event_limit = limit
    bare.event_limit = 0
    source = IPv6Address("EEEE::2")
    destinations = ("DDDD::2", "DDDD::9", "EEEE::2", "9999::1")
    for _ in range(2):
        for dst in destinations:
            packet = udp_packet(source, IPv6Address(dst), b"group")
            trace = inject(network, "er1", packet).trace
            expected = inject(bare, "er1", packet).trace
            assert trace.events == expected.events
            assert trace.to_jsonl() == expected.to_jsonl() == reference_jsonl(trace.uid, False, trace.events)
            assert len(network.event_memo) <= network.event_limit
            assert len(network.group_memo) <= network.event_limit
    assert bare.event_memo == {} and bare.group_memo == {}
    for group in network.group_memo.values():
        stored = {id(pair[0]) for pair in network.event_memo.values()}
        assert len(group) == 6 and all(id(event) in stored for event in group[0::2])


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_memo_holds_every_event_of_the_bundled_and_benchmark_configs(monkeypatch):
    # After a warm-up pass, no event of these walks is rendered again:
    # each is the memo's own, shared object.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads  # the benchmark's generators, read only

    cases = []
    for path in sorted((files("srv6sfc") / "configs").iterdir()):
        config = load_config(str(path))
        flow = config.flow()
        packets = [flow_packet(flow, index) for index in range(4)]
        for kind in (SidKind.SR_AWARE, SidKind.SR_UNAWARE):
            cases.append((config.build_network(kind), flow.ingress, packets))
    for name in sorted(workloads.BUILDERS):
        workload = workloads.build(name, 1)
        network = parse_config_text(workload.config_text).build_network()
        cases.append((network, workload.ingress, workload.packets))
    for network, ingress, packets in cases:
        for rerun in (False, True):
            for terminal_only in (False, True):
                for packet in packets:
                    events = inject(network, ingress, packet, terminal_only=terminal_only).trace.events
                    if rerun:
                        stored = {id(event) for event, _ in network.event_memo.values()}
                        assert all(id(event) in stored for event in events)
        assert len(network.event_memo) <= network.event_limit
