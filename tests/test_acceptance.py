"""Acceptance suite: one test per exit criterion, strictest tolerances.

Each criterion prints a PASS line when it holds (visible with -s or in
captured output); a pytest failure marks the criterion red.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import replace
from ipaddress import IPv6Address, IPv6Network

import pytest

from conftest import (
    ER1,
    SINK,
    SRC,
    TESTBED_GOLDEN,
    chain_testbed,
    random_junk,
    random_valid_packet,
)
from srv6sfc import cli, errors
from srv6sfc.bench import (
    REGION_NO_LOSS,
    REGION_SATURATION,
    SCENARIO_AWARE,
    SCENARIO_UNAWARE,
    CapacityModel,
    run_sweep,
)
from srv6sfc.chain import (
    ChainDirection,
    ChainRegistry,
    Sid,
    SidKind,
    VnfChain,
    VnfInterface,
)
from srv6sfc.config import load_config
from srv6sfc.dataplane import (
    PrefixFilter,
    SegmentListEdit,
    UnitCosts,
    VnfPermission,
    advance_segment,
    apply_edit,
    encapsulate,
    predicted_cost,
)
from srv6sfc.sim import Delivered, FlowSpec, flow_packet, flow_payload, inject, run_flow
from srv6sfc.trace import EventKind
from srv6sfc.wire import parse_packet, serialize_packet, udp_packet


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {text}")


EXPECTED_TRACE = [
    ("er1", EventKind.CLASSIFIED),
    ("er1", EventKind.ENCAPSULATED),
    ("er1", EventKind.FORWARDED),
    ("nfv", EventKind.SEGMENT_ADVANCED),
    ("nfv", EventKind.DECAPSULATED),
    ("nfv", EventKind.VNF_DELIVERED),
    ("nfv", EventKind.VNF_RETURNED),
    ("nfv", EventKind.RE_ENCAPSULATED),
    ("nfv", EventKind.FORWARDED),
    ("er2", EventKind.DECAPSULATED),
    ("er2", EventKind.DELIVERED),
]


def test_criterion_1_testbed_replica(testbed_config_path):
    config = load_config(testbed_config_path)
    network = config.build_network()
    started = time.perf_counter()

    first = inject(network, "er1", udp_packet(SRC, SINK, flow_payload(0, 1024)))
    assert isinstance(first.outcome, Delivered)
    assert [(e.node, e.kind) for e in first.trace] == EXPECTED_TRACE

    count = 10_000
    flow = FlowSpec("er1", SRC, SINK, count=count, payload_size=1024)
    summary = run_flow(network, flow, keep_delivered=True)
    assert summary.delivered == count
    assert summary.dropped == 0
    for index, packet in enumerate(summary.delivered_packets):
        expected = udp_packet(SRC, SINK, flow_payload(index, 1024))
        assert serialize_packet(packet) == serialize_packet(expected)

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(1, f"10000/10000 delivered bit-identical in {elapsed:.2f}s, trace order exact")


@pytest.mark.parametrize("kind", [SidKind.SR_AWARE, SidKind.SR_UNAWARE])
@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_criterion_2_cost_model_equalities(n, kind):
    units = UnitCosts(f=1.0, d=0.5, e=0.5)
    network, _ = chain_testbed(n, kind, units=units)
    packets = 3
    flow = FlowSpec("er1", SRC, SINK, count=packets, payload_size=64)
    results = [
        inject(network, "er1", flow_packet(flow, i), terminal_only=True) for i in range(packets)
    ]
    assert sum(result.delivered for result in results) == packets

    ledger = network.ledgers["nfv"]
    expected = (n + 2, 0, 0) if kind is SidKind.SR_AWARE else (2 * n + 1, 1, 1)
    for result in results:
        assert result.costs["nfv"] == expected, f"uid {result.trace.uid}"
        assert units.cost(result.costs["nfv"]) == predicted_cost(n, kind, units)
    assert ledger.counts() == tuple(packets * v for v in expected)
    if n == 1:
        f = units.f
        aware_cost = 3 * f
        unaware_cost = units.d + 3 * f + units.e
        expected_cost = aware_cost if kind is SidKind.SR_AWARE else unaware_cost
        assert units.cost(results[0].costs["nfv"]) == expected_cost
    report(2, f"n={n} {kind.value}: counters == {'(n+2)f' if kind is SidKind.SR_AWARE else 'd+(2n+1)f+e'}")


TABLE_TARGETS = {
    SCENARIO_AWARE: (SidKind.SR_AWARE, 3.0, 6.64, 8.9),
    SCENARIO_UNAWARE: (SidKind.SR_UNAWARE, 4.0, 6.78, 12.5),
}


def test_criterion_3_regression_recovery():
    rates = [1000.0, 3000.0, 6000.0, 9000.0]
    for scenario, (kind, cost, m_target, k_target) in TABLE_TARGETS.items():
        model = CapacityModel.from_regression_target(m_target, k_target, cost)
        network, _ = chain_testbed(1, kind)
        flow = FlowSpec("er1", SRC, SINK, payload_size=1024)

        noiseless = run_sweep(
            network, flow, model, scenario=scenario, rates=rates, runs=1, noise_pct=0.0
        )
        fit = noiseless.regression
        assert abs(fit.m - m_target) / m_target < 1e-9
        assert abs(fit.k - k_target) / k_target < 1e-9

        noisy = run_sweep(
            network, flow, model, scenario=scenario, rates=rates,
            runs=30, noise_pct=1.0, seed=42,
        )
        fit = noisy.regression
        assert abs(fit.m - m_target) / m_target < 0.02
        assert abs(fit.k - k_target) / k_target < 0.02
    report(3, "both utilization lines recovered: noiseless <1e-9 rel, 1% noise x30 runs <2% rel")


def test_criterion_4_region_structure():
    rates = [r * 1000.0 for r in (1, 3, 6, 9, 12, 13)]
    scenarios = {
        SCENARIO_AWARE: (SidKind.SR_AWARE, CapacityModel(36_000, 8.9), 3.0),
        SCENARIO_UNAWARE: (SidKind.SR_UNAWARE, CapacityModel(48_000, 12.5), 4.0),
    }
    for scenario, (kind, model, cost) in scenarios.items():
        knee = model.knee_rate(cost)
        assert 9_000 < knee <= 12_000
        network, _ = chain_testbed(1, kind)
        flow = FlowSpec("er1", SRC, SINK, payload_size=1024)
        sweep = run_sweep(
            network, flow, model, scenario=scenario, rates=rates, runs=1, noise_pct=0.0
        )
        assert sweep.regions == [REGION_NO_LOSS] * 4 + [REGION_SATURATION] * 2
        for point, region in zip(sweep.points, sweep.regions):
            if region == REGION_NO_LOSS:
                assert point.success_ratio == 1.0
            else:
                assert point.utilization_pct == 100.0
                assert point.success_ratio < 0.999
    report(4, "knee in (9,12] kpps: {1,3,6,9} no-loss at S=100%, {12,13} saturated at U=100%")


def test_criterion_5_wire_golden_and_fuzz():
    inner = udp_packet(SRC, SINK, b"payload!", src_port=40000, dst_port=5201)
    chain = VnfChain("c1", (IPv6Address("BBBB::2"), IPv6Address("CCCC::2")), ER1)
    outer = encapsulate(inner, chain)
    assert serialize_packet(outer) == TESTBED_GOLDEN
    assert parse_packet(TESTBED_GOLDEN) == outer

    rng = random.Random(31337)
    for _ in range(10_000):
        packet = random_valid_packet(rng)
        data = serialize_packet(packet)
        assert parse_packet(data) == packet
        assert serialize_packet(parse_packet(data)) == data

    rng = random.Random(424242)
    for _ in range(100_000):
        blob = random_junk(rng, serialize_packet)
        try:
            parse_packet(blob)
        except errors.WireError:
            pass
    report(5, "golden layout exact; 10k round-trips and 100k junk parses clean")


def test_criterion_6_property_suite_fixed_cases(testbed_config_path, tmp_path, capsys):
    # Univocal mapping: shared SR-unaware instance rejected, duplicated
    # instances accepted.
    er = IPv6Address("CCCC::2")
    registry = ChainRegistry()
    for label in ("a", "i", "x", "b", "y", "i1", "i2"):
        registry.add_sid(Sid(IPv6Address(f"BBBB::{ord(label[0]):x}{len(label)}"), SidKind.SR_UNAWARE, "nfv"))
    registry.add_sid(Sid(er, SidKind.EGRESS_ENDPOINT, "er2"))
    sid = lambda label: IPv6Address(f"BBBB::{ord(label[0]):x}{len(label)}")
    registry.register_chain(VnfChain("f1", (sid("a"), sid("i"), sid("x"), er), ER1))
    with pytest.raises(errors.UnivocalMappingViolation):
        registry.register_chain(VnfChain("f2", (sid("b"), sid("i"), sid("y"), er), ER1))
    registry.register_chain(VnfChain("f2", (sid("b"), sid("i2"), sid("y"), er), ER1))

    # Bidirectional W/E registration: one instance, two interfaces.
    bidi = ChainRegistry()
    v1e, v1w = IPv6Address("BBBB::1E"), IPv6Address("BBBB::1F")
    er_west = IPv6Address("AAAA::99")
    bidi.add_sid(Sid(v1e, SidKind.SR_UNAWARE, "nfv", VnfInterface.EAST))
    bidi.add_sid(Sid(v1w, SidKind.SR_UNAWARE, "nfv", VnfInterface.WEST))
    bidi.add_sid(Sid(er, SidKind.EGRESS_ENDPOINT, "er2"))
    bidi.add_sid(Sid(er_west, SidKind.EGRESS_ENDPOINT, "er1"))
    bidi.register_bidirectional(
        VnfChain("east", (v1e, er), ER1, ChainDirection.EASTBOUND),
        VnfChain("west", (v1w, er_west), er, ChainDirection.WESTBOUND),
    )
    assert bidi.mapped_chain(v1e, VnfInterface.EAST) == "east"
    assert bidi.mapped_chain(v1w, VnfInterface.WEST) == "west"

    # Segment-list edit permission lattice, cases 1-3.
    v_x, v_z = IPv6Address("BBBB::10"), IPv6Address("BBBB::11")
    editable = advance_segment(
        encapsulate(udp_packet(SRC, SINK, b"x"), VnfChain("e", (sid("a"), v_x, er), ER1))
    )
    case1 = SegmentListEdit.insert_after_current((v_z,))
    case2 = SegmentListEdit.insert_at(1, (v_z,))
    case3 = SegmentListEdit.replace((er,))
    apply_edit(editable, case1, VnfPermission.INSERT_NEXT_ONLY)
    with pytest.raises(errors.EditPermissionDenied):
        apply_edit(editable, case2, VnfPermission.INSERT_NEXT_ONLY)
    apply_edit(editable, case2, VnfPermission.INSERT_ANYWHERE)
    with pytest.raises(errors.EditPermissionDenied):
        apply_edit(editable, case3, VnfPermission.INSERT_ANYWHERE)
    rewritten = apply_edit(editable, case3, VnfPermission.FULL_REWRITE)
    assert rewritten.header.dst == er

    # Drop conservation: every packet ends exactly once, drops skip
    # re-encapsulation entirely.
    network, _ = chain_testbed(1, behaviors=[PrefixFilter(IPv6Network("DDDD::/64"))])
    summary = run_flow(network, FlowSpec("er1", SRC, SINK, count=200))
    assert summary.dropped == 200 and summary.delivered == 0
    assert network.ledgers["nfv"].e_count == 0
    passing = run_flow(network, FlowSpec("er1", SRC, IPv6Address("CCCC::1"), count=200))
    assert passing.delivered == 200
    assert summary.total + passing.total == 400

    # Determinism under a fixed seed: byte-identical CSVs.
    blobs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert cli.main(["bench", testbed_config_path, "--seed", "7", "--out", str(out)]) == 0
        blobs.append(((out / "points.csv").read_bytes(), (out / "regression.csv").read_bytes()))
    capsys.readouterr()
    assert blobs[0] == blobs[1]
    report(6, "univocal mapping, W/E pair, edit lattice, drop conservation, seeded CSV determinism")
