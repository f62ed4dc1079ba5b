"""Capacity model, region labels, regression, sweep reproducibility."""

from __future__ import annotations

import pytest

from conftest import SINK, SRC, chain_testbed
from srv6sfc import errors
from srv6sfc.bench import (
    REGION_NO_LOSS,
    REGION_SATURATION,
    REGION_TRANSITION,
    SCENARIO_AWARE,
    SCENARIO_UNAWARE,
    CapacityModel,
    RatePoint,
    classify_regions,
    evaluate_point,
    fit_linear,
    format_regression_table,
    measure_per_packet_cost,
    points_csv,
    regression_csv,
    run_sweep,
)
from srv6sfc.chain import SidKind
from srv6sfc.sim import FlowSpec

FLOW = FlowSpec("er1", SRC, SINK, payload_size=256)


def line_points(m_per_kpps: float, k: float, rates_kpps) -> list[RatePoint]:
    """Noiseless points generated straight from U = m*R + k; independent
    of the capacity model implementation."""
    return [
        RatePoint(rate_pps=r * 1000.0, success_ratio=1.0,
                  utilization_pct=m_per_kpps * r + k, runs=1)
        for r in rates_kpps
    ]


# evaluate_point ----------------------------------------------------------------

def test_point_at_the_knee():
    model = CapacityModel(capacity=36_000, baseline_overhead_k0=0.0)
    point = evaluate_point(model, 3.0, 12_000)
    assert point.utilization_pct == 100.0
    assert point.success_ratio == 1.0


def test_point_at_half_capacity():
    model = CapacityModel(capacity=36_000)
    point = evaluate_point(model, 3.0, 6_000)
    assert point.utilization_pct == 50.0
    assert point.success_ratio == 1.0


def test_point_past_saturation():
    model = CapacityModel(capacity=36_000)
    point = evaluate_point(model, 3.0, 24_000)
    assert point.success_ratio == 0.5
    assert point.utilization_pct == 100.0


def test_success_is_one_minus_loss():
    model = CapacityModel(capacity=30_000)
    point = evaluate_point(model, 3.0, 20_000)
    loss = 1.0 - point.success_ratio
    assert point.success_ratio == 1.0 - loss


def test_point_rejects_bad_inputs():
    model = CapacityModel(capacity=1000)
    with pytest.raises(errors.BenchError):
        evaluate_point(model, 1.0, 0)
    with pytest.raises(errors.BenchError):
        evaluate_point(model, 1.0, 100, runs=0)
    # A negative jitter used to switch the noise off silently.
    with pytest.raises(errors.BenchError):
        evaluate_point(model, 1.0, 100, noise_pct=-5.0)
    with pytest.raises(errors.BenchError):
        CapacityModel(capacity=0)
    with pytest.raises(errors.BenchError):
        CapacityModel(capacity=10, baseline_overhead_k0=100)
    # NaN compares false to everything, so it must fail the range checks.
    with pytest.raises(errors.BenchError):
        evaluate_point(model, 1.0, float("nan"))
    with pytest.raises(errors.BenchError):
        CapacityModel(capacity=float("nan"))


def test_noise_is_seeded_and_bounded():
    import random

    model = CapacityModel(capacity=36_000)
    a = evaluate_point(model, 3.0, 6_000, noise_pct=1.0, runs=30, rng=random.Random(7))
    b = evaluate_point(model, 3.0, 6_000, noise_pct=1.0, runs=30, rng=random.Random(7))
    assert a == b
    assert 0.0 <= a.utilization_pct <= 100.0
    assert a.utilization_ci > 0.0


# classify_regions -----------------------------------------------------------------

def test_region_labels_knee_between_9_and_12_kpps():
    model = CapacityModel(capacity=33_000)  # knee at 11 kpps for cost 3
    points = [evaluate_point(model, 3.0, r * 1000.0) for r in (1, 3, 6, 9, 12, 13)]
    labels = classify_regions(points)
    assert labels == [REGION_NO_LOSS] * 4 + [REGION_SATURATION] * 2


def test_all_points_below_capacity_are_no_loss():
    model = CapacityModel(capacity=1_000_000)
    points = [evaluate_point(model, 3.0, r) for r in (1000.0, 2000.0)]
    assert classify_regions(points) == [REGION_NO_LOSS, REGION_NO_LOSS]


def test_exact_thresholds_land_in_transition():
    point = RatePoint(rate_pps=1.0, success_ratio=0.999, utilization_pct=99.0, runs=1)
    assert classify_regions([point]) == [REGION_TRANSITION]


def test_empty_sweep_rejected():
    with pytest.raises(errors.EmptySweep):
        classify_regions([])


def test_unsorted_points_rejected():
    points = [
        RatePoint(2000.0, 1.0, 10.0, 1),
        RatePoint(1000.0, 1.0, 5.0, 1),
    ]
    with pytest.raises(errors.BenchError):
        classify_regions(points)


# fit_linear -------------------------------------------------------------------------

def test_fit_recovers_first_target_line():
    fit = fit_linear(line_points(6.64, 8.9, (1, 3, 6, 9)))
    assert abs(fit.m - 6.64) / 6.64 < 1e-9
    assert abs(fit.k - 8.9) / 8.9 < 1e-9
    assert fit.r_squared > 1 - 1e-12


def test_fit_recovers_second_target_line():
    fit = fit_linear(line_points(6.78, 12.5, (1, 3, 6, 9)))
    assert abs(fit.m - 6.78) / 6.78 < 1e-9
    assert abs(fit.k - 12.5) / 12.5 < 1e-9


def test_fit_two_points_exact():
    points = [
        RatePoint(1000.0, 1.0, 10.0, 1),
        RatePoint(2000.0, 1.0, 12.0, 1),
    ]
    fit = fit_linear(points)
    assert fit.m == pytest.approx(2.0)
    assert fit.k == pytest.approx(8.0)


def test_fit_rejects_single_point():
    with pytest.raises(errors.InsufficientPoints):
        fit_linear(line_points(1.0, 0.0, (5,)))


def test_fit_rejects_degenerate_rates():
    points = [RatePoint(1000.0, 1.0, 10.0, 1), RatePoint(1000.0, 1.0, 12.0, 1)]
    with pytest.raises(errors.DegenerateX):
        fit_linear(points)


# measured per-packet cost -------------------------------------------------------------

def test_measured_costs_match_model():
    aware, _ = chain_testbed(1, SidKind.SR_AWARE)
    unaware, _ = chain_testbed(1, SidKind.SR_UNAWARE)
    assert measure_per_packet_cost(aware, FLOW) == 3.0
    assert measure_per_packet_cost(unaware, FLOW) == 4.0


def test_probe_drop_is_an_error():
    from ipaddress import IPv6Network
    from srv6sfc.dataplane import PrefixFilter

    network, _ = chain_testbed(1, behaviors=[PrefixFilter(IPv6Network("DDDD::/64"))])
    with pytest.raises(errors.BenchError):
        measure_per_packet_cost(network, FLOW)


# run_sweep -----------------------------------------------------------------------------

def sweep(kind: SidKind, model: CapacityModel, **kwargs):
    network, _ = chain_testbed(1, kind)
    label = SCENARIO_AWARE if kind is SidKind.SR_AWARE else SCENARIO_UNAWARE
    return run_sweep(network, FLOW, model, scenario=label, **kwargs)


def test_sweep_unaware_baseline_exceeds_aware():
    rates = [1000.0, 3000.0, 6000.0, 9000.0]
    aware = sweep(
        SidKind.SR_AWARE, CapacityModel.from_regression_target(6.64, 8.9, 3.0), rates=rates
    )
    unaware = sweep(
        SidKind.SR_UNAWARE, CapacityModel.from_regression_target(6.78, 12.5, 4.0), rates=rates
    )
    assert unaware.regression.k > aware.regression.k
    assert unaware.regression.m > aware.regression.m
    # The unaware utilization line dominates pointwise in the no-loss region.
    for p_aware, p_unaware in zip(aware.points, unaware.points):
        assert p_unaware.utilization_pct > p_aware.utilization_pct


def test_sweep_same_model_unaware_line_dominates():
    # With one shared capacity model the unaware scenario's higher
    # per-packet cost (d + e > 0) lifts its utilization at every
    # no-loss rate.
    rates = [1000.0, 3000.0, 6000.0, 9000.0]
    model = CapacityModel(capacity=100_000, baseline_overhead_k0=5.0)
    aware = sweep(SidKind.SR_AWARE, model, rates=rates)
    unaware = sweep(SidKind.SR_UNAWARE, model, rates=rates)
    for p_aware, p_unaware in zip(aware.points, unaware.points):
        assert p_unaware.utilization_pct > p_aware.utilization_pct
    assert unaware.regression.m > aware.regression.m


def test_sweep_two_seeds_agree_within_confidence():
    rates = [1000.0, 3000.0, 6000.0, 9000.0]
    model = CapacityModel.from_regression_target(6.64, 8.9, 3.0)
    first = sweep(SidKind.SR_AWARE, model, rates=rates, runs=30, noise_pct=1.0, seed=1)
    second = sweep(SidKind.SR_AWARE, model, rates=rates, runs=30, noise_pct=1.0, seed=2)
    for a, b in zip(first.points, second.points):
        margin = a.utilization_ci + b.utilization_ci
        assert abs(a.utilization_pct - b.utilization_pct) <= margin


def test_sweep_empty_rates_rejected():
    with pytest.raises(errors.EmptySweep):
        sweep(SidKind.SR_AWARE, CapacityModel(10_000), rates=[])


def test_sweep_knee_consistency():
    model = CapacityModel(capacity=33_000)
    report = sweep(SidKind.SR_AWARE, model, rates=[r * 1000.0 for r in (1, 3, 6, 9, 12, 13)])
    _, saturation_start = report.boundaries()
    assert saturation_start is not None
    assert saturation_start >= model.knee_rate(3.0)


def test_sweep_reports_regression_refusal():
    report = sweep(SidKind.SR_AWARE, CapacityModel(33_000), rates=[5000.0])
    assert report.regression is None
    assert "InsufficientPoints" in report.regression_error


# CSV emission ----------------------------------------------------------------------------

def test_csv_outputs_are_deterministic():
    rates = [1000.0, 3000.0, 6000.0]
    model = CapacityModel.from_regression_target(6.64, 8.9, 3.0)
    kwargs = dict(rates=rates, runs=5, noise_pct=1.0, seed=42)
    first = [sweep(SidKind.SR_AWARE, model, **kwargs)]
    second = [sweep(SidKind.SR_AWARE, model, **kwargs)]
    assert points_csv(first) == points_csv(second)
    assert regression_csv(first) == regression_csv(second)


def test_points_csv_shape():
    report = sweep(SidKind.SR_AWARE, CapacityModel(33_000), rates=[1000.0, 12000.0])
    text = points_csv([report])
    lines = text.splitlines()
    assert lines[0] == "scenario,rate_pps,success_ratio,success_ci,utilization_pct,utilization_ci,region"
    assert lines[1].startswith("SR kernel,1000,1.000000,")
    assert lines[1].endswith(",no-loss")
    assert len(lines) == 3


def test_regression_csv_shape():
    report = sweep(
        SidKind.SR_AWARE,
        CapacityModel.from_regression_target(6.64, 8.9, 3.0),
        rates=[1000.0, 3000.0, 6000.0, 9000.0],
    )
    text = regression_csv([report])
    lines = text.splitlines()
    assert lines[0] == "scenario,m,k,r_squared,n_points"
    assert lines[1].startswith("SR kernel,6.64,")
    assert lines[1].endswith(",4")


def test_regression_table_layout():
    rates = [1000.0, 3000.0, 6000.0, 9000.0]
    reports = [
        sweep(SidKind.SR_AWARE, CapacityModel.from_regression_target(6.64, 8.9, 3.0), rates=rates),
        sweep(SidKind.SR_UNAWARE, CapacityModel.from_regression_target(6.78, 12.5, 4.0), rates=rates),
    ]
    table = format_regression_table(reports)
    lines = table.splitlines()
    assert "SR kernel" in lines[0] and "SR kernel + hook" in lines[0]
    assert lines[1].startswith("k [CPU %]")
    assert "8.9" in lines[1] and "12.5" in lines[1]
    assert lines[2].startswith("m [CPU %/kpps]")
    assert "6.64" in lines[2] and "6.78" in lines[2]
