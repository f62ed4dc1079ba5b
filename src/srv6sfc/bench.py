"""Rate sweeps over a synthetic capacity model.

Real CPU percentages depend on the host, so the harness replaces the
hardware with a declared model: a node processes ``capacity`` cost
units per second and idles at ``baseline_overhead_k0`` percent. Offered
load D = per_packet_cost * rate gives

    utilization U(R) = min(100, k0 + 100 * D / capacity)
    success     S(R) = min(1, capacity * (100 - k0) / 100 / D)

The per-packet cost is not assumed: it is measured by driving probe
packets through the simulated node and reading the costs they return. Sweeps
report success ratio and utilization per rate, label the no-loss,
transition and saturation regions, and fit U(R) = m * R + k over the
no-loss points by ordinary least squares (m in percent per kpps).
"""

from __future__ import annotations

import csv
import io
import math
import random
import statistics
from dataclasses import dataclass

from srv6sfc import errors
from srv6sfc.chain import SidKind
from srv6sfc.sim import FlowSpec, FlowSummary, Network, flow_packet, inject

SCENARIO_AWARE = "SR kernel"
SCENARIO_UNAWARE = "SR kernel + hook"
# Each scenario's name in configs and on the command line: its report
# label and the kind its VNF SIDs take.
SCENARIOS = {
    "aware": (SCENARIO_AWARE, SidKind.SR_AWARE),
    "unaware": (SCENARIO_UNAWARE, SidKind.SR_UNAWARE),
}

REGION_NO_LOSS = "no-loss"
REGION_TRANSITION = "transition"
REGION_SATURATION = "saturation"

# Packets of the flow driven through the chain to measure its cost.
COST_PROBES = 4

# Region boundaries: success ratio and utilization percentage.
S_THRESHOLD = 0.999
U_THRESHOLD = 99.0

POINTS_CSV_HEADER = (
    "scenario",
    "rate_pps",
    "success_ratio",
    "success_ci",
    "utilization_pct",
    "utilization_ci",
    "region",
)
REGRESSION_CSV_HEADER = ("scenario", "m", "k", "r_squared", "n_points")


@dataclass(frozen=True)
class CapacityModel:
    """Synthetic node capacity: cost units per second plus a fixed
    baseline utilization percentage at zero traffic."""

    capacity: float
    baseline_overhead_k0: float = 0.0

    def __post_init__(self):
        if not self.capacity > 0:  # NaN fails too
            raise errors.BenchError(f"capacity must be positive, got {self.capacity}")
        if not 0 <= self.baseline_overhead_k0 < 100:
            raise errors.BenchError(
                f"baseline overhead must be in [0, 100), got {self.baseline_overhead_k0}"
            )

    @classmethod
    def from_regression_target(
        cls, m_pct_per_kpps: float, k_pct: float, per_packet_cost: float
    ) -> "CapacityModel":
        """Model whose no-loss utilization line is exactly U = m*R + k
        (R in kpps) for the given per-packet cost."""
        if m_pct_per_kpps <= 0 or per_packet_cost <= 0:
            raise errors.BenchError("slope target and per-packet cost must be positive")
        return cls(capacity=100_000.0 * per_packet_cost / m_pct_per_kpps,
                   baseline_overhead_k0=k_pct)

    def available(self) -> float:
        """Cost units per second left after the baseline overhead."""
        return self.capacity * (100.0 - self.baseline_overhead_k0) / 100.0

    def knee_rate(self, per_packet_cost: float) -> float:
        """Rate (pps) at which losses begin."""
        return self.available() / per_packet_cost


@dataclass(frozen=True)
class RatePoint:
    """Measured operating point at one offered rate. ``success_ratio``
    is 1 minus the loss ratio by definition; the confidence intervals
    are normal-approximation half-widths across runs."""

    rate_pps: float
    success_ratio: float
    utilization_pct: float
    runs: int
    success_ci: float = 0.0
    utilization_ci: float = 0.0


@dataclass(frozen=True)
class RegressionResult:
    """U(R) = m*R + k over no-loss points; m in percent per kpps."""

    m: float
    k: float
    r_squared: float
    points_used: tuple[RatePoint, ...]


@dataclass
class SweepReport:
    scenario: str
    points: list[RatePoint]
    regions: list[str]
    regression: RegressionResult | None
    regression_error: str | None = None

    def boundaries(self) -> tuple[float | None, float | None]:
        """(highest no-loss rate, lowest saturation rate), None if absent."""
        no_loss = [p.rate_pps for p, r in zip(self.points, self.regions) if r == REGION_NO_LOSS]
        saturated = [
            p.rate_pps for p, r in zip(self.points, self.regions) if r == REGION_SATURATION
        ]
        return (max(no_loss) if no_loss else None, min(saturated) if saturated else None)


def evaluate_point(
    model: CapacityModel,
    per_packet_cost: float,
    rate_pps: float,
    *,
    noise_pct: float = 0.0,
    runs: int = 1,
    rng: random.Random | None = None,
) -> RatePoint:
    """One operating point: analytic S and U, with optional seeded
    multiplicative Gaussian jitter on U averaged over ``runs``.

    The config's readers already refuse a bad rate, ``runs`` or noise;
    these checks are kept for library callers, for whom ``runs=0`` would
    otherwise end in ``statistics.StatisticsError``, not an ``SfcError``."""
    if not rate_pps > 0:  # NaN fails too
        raise errors.BenchError(f"rate must be positive, got {rate_pps}")
    if runs < 1:
        raise errors.BenchError(f"runs must be >= 1, got {runs}")
    if not noise_pct >= 0:
        raise errors.BenchError(f"noise must be >= 0, got {noise_pct}")
    demand = per_packet_cost * rate_pps
    available = model.available()
    success = 1.0 if demand <= available else available / demand
    true_u = min(100.0, model.baseline_overhead_k0 + 100.0 * demand / model.capacity)

    if noise_pct > 0.0:
        if rng is None:
            rng = random.Random(0)
        samples = [
            min(100.0, max(0.0, true_u * (1.0 + rng.gauss(0.0, noise_pct / 100.0))))
            for _ in range(runs)
        ]
    else:
        samples = [true_u] * runs

    u_mean = statistics.fmean(samples)
    u_ci = (
        1.96 * statistics.stdev(samples) / math.sqrt(runs)
        if runs > 1 and noise_pct > 0.0
        else 0.0
    )
    return RatePoint(
        rate_pps=rate_pps,
        success_ratio=success,
        utilization_pct=u_mean,
        runs=runs,
        success_ci=0.0,
        utilization_ci=u_ci,
    )


def classify_regions(points: list[RatePoint]) -> list[str]:
    """Label each point: no-loss while success holds and utilization has
    headroom, saturation once success is gone and utilization is pinned,
    transition between."""
    if not points:
        raise errors.EmptySweep("no rate points to classify")
    rates = [p.rate_pps for p in points]
    if rates != sorted(rates):
        raise errors.BenchError("rate points must be sorted by rate")
    labels = []
    for point in points:
        if point.success_ratio >= S_THRESHOLD and point.utilization_pct < U_THRESHOLD:
            labels.append(REGION_NO_LOSS)
        elif point.success_ratio < S_THRESHOLD and point.utilization_pct >= U_THRESHOLD:
            labels.append(REGION_SATURATION)
        else:
            labels.append(REGION_TRANSITION)
    return labels


def fit_linear(points: list[RatePoint]) -> RegressionResult:
    """Ordinary least squares of utilization on rate in kpps."""
    if len(points) < 2:
        raise errors.InsufficientPoints(
            f"regression needs at least 2 points, got {len(points)}"
        )
    xs = [p.rate_pps / 1000.0 for p in points]
    ys = [p.utilization_pct for p in points]
    if len(set(xs)) < 2:
        raise errors.DegenerateX("all points share one rate; slope is undefined")
    x_mean = statistics.fmean(xs)
    y_mean = statistics.fmean(ys)
    sxx = sum((x - x_mean) ** 2 for x in xs)
    sxy = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    m = sxy / sxx
    k = y_mean - m * x_mean
    ss_tot = sum((y - y_mean) ** 2 for y in ys)
    ss_res = sum((y - (m * x + k)) ** 2 for x, y in zip(xs, ys))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RegressionResult(m=m, k=k, r_squared=r_squared, points_used=tuple(points))


def measure_per_packet_cost(network: Network, flow: FlowSpec) -> float:
    """Exact per-packet cost in cost units, read from the NFV-node costs
    that ``COST_PROBES`` packets driven through the chain return."""
    nfv_nodes = network.nfv_node_ids()
    summary = FlowSummary()
    distinct: set[tuple[int, int, int]] = set()
    for i in range(COST_PROBES):
        result = inject(network, flow.ingress, flow_packet(flow, i), terminal_only=True)
        summary.add(result)
        crossed = [result.costs[node_id] for node_id in nfv_nodes if node_id in result.costs]
        if result.delivered and crossed:
            distinct.add(tuple(map(sum, zip(*crossed))))
    if summary.dropped:
        raise errors.BenchError(
            f"cost probe dropped {summary.dropped}/{COST_PROBES} packets: {summary.drop_reasons}"
        )
    if not distinct:
        raise errors.BenchError("probe flow never crossed an NFV node")
    if len(distinct) != 1:
        raise errors.BenchError(f"per-packet cost is not uniform: {sorted(distinct)}")
    return network.units.cost(distinct.pop())


def run_sweep(
    network: Network,
    flow: FlowSpec,
    model: CapacityModel,
    *,
    scenario: str,
    rates: list[float],
    runs: int = 1,
    noise_pct: float = 0.0,
    seed: int = 0,
) -> SweepReport:
    """Measure the per-packet cost, evaluate every rate, label regions,
    and fit the no-loss line. Reproducible for a given seed: each rate
    owns an independently derived generator, so evaluation order does
    not matter. An empty ``rates`` is ``classify_regions``'s ``EmptySweep``."""
    per_packet_cost = measure_per_packet_cost(network, flow)
    points = []
    for rate in sorted(rates):
        rng = random.Random(f"{seed}:{scenario}:{rate!r}")
        points.append(
            evaluate_point(
                model,
                per_packet_cost,
                rate,
                noise_pct=noise_pct,
                runs=runs,
                rng=rng,
            )
        )
    regions = classify_regions(points)
    no_loss = [p for p, r in zip(points, regions) if r == REGION_NO_LOSS]
    regression = None
    regression_error = None
    try:
        regression = fit_linear(no_loss)
    except (errors.InsufficientPoints, errors.DegenerateX) as exc:
        regression_error = f"{type(exc).__name__}: {exc}"
    return SweepReport(
        scenario=scenario,
        points=points,
        regions=regions,
        regression=regression,
        regression_error=regression_error,
    )


# Report emission ----------------------------------------------------------

def points_csv(reports: list[SweepReport]) -> str:
    """One row per (scenario, rate); column set and formatting are stable
    so outputs can be golden-file tested byte for byte."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(POINTS_CSV_HEADER)
    for report in reports:
        for point, region in zip(report.points, report.regions):
            writer.writerow(
                (
                    report.scenario,
                    f"{point.rate_pps:g}",
                    f"{point.success_ratio:.6f}",
                    f"{point.success_ci:.6f}",
                    f"{point.utilization_pct:.6f}",
                    f"{point.utilization_ci:.6f}",
                    region,
                )
            )
    return buffer.getvalue()


def regression_csv(reports: list[SweepReport]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(REGRESSION_CSV_HEADER)
    for report in reports:
        if report.regression is None:
            continue
        fit = report.regression
        writer.writerow(
            (
                report.scenario,
                f"{fit.m:.9g}",
                f"{fit.k:.9g}",
                f"{fit.r_squared:.9g}",
                len(fit.points_used),
            )
        )
    return buffer.getvalue()


def format_regression_table(reports: list[SweepReport]) -> str:
    """Fixed-overhead / slope summary, one column per scenario."""
    label_width = 16
    columns = [r.scenario for r in reports]
    widths = [max(len(c), 12) for c in columns]

    def row(label: str, values: list[str]) -> str:
        cells = "".join(f"{v:>{w + 2}}" for v, w in zip(values, widths))
        return f"{label:<{label_width}}{cells}"

    lines = [row("", columns)]
    for label, attr in (("k [CPU %]", "k"), ("m [CPU %/kpps]", "m"), ("r^2", "r_squared")):
        values = []
        for report in reports:
            if report.regression is None:
                values.append("n/a")
            else:
                values.append(f"{getattr(report.regression, attr):.4g}")
        lines.append(row(label, values))
    return "\n".join(lines)
