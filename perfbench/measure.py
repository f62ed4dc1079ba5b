"""Measurement passes: set-up, the closed packet loop and the traced run.

Load model: one caller, one thread, closed loop. Each ``inject`` starts
after the previous one returned, which is how ``run_flow`` and
``srv6sfc run`` drive the simulator. A packet's time is its ``inject``
call plus ``Trace.to_jsonl`` where the workload exports its trace. The
correctness gate runs between packets, outside those spans.

Packet and set-up times are CPU time of the thread running the simulator
(``time.thread_time_ns``). On a shared host the thread is preempted for
milliseconds several times a second; in wall time those stalls land on
about 1% of millisecond-long packets and decide the 99th percentile. The
wall time of the packet spans is kept too, to report the CPU share.

CPU time still follows the host's speed, which other tenants change by up
to twice within seconds. The packet metrics therefore take, for each kind
of packet, a low quantile of its times over the whole run (see
``quiet_times``): the cost of the walk on a host that was not slowed.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns, thread_time_ns

from srv6sfc import bench as sbench
from srv6sfc import cli as scli
from srv6sfc import config as sconfig
from srv6sfc import sim, wire
from srv6sfc.chain import SidKind

from checkout import OUT_DIR, git_head
from gate import Gate
from spans import TARGETS, Recorder

WARMUP_SECONDS = 1.0
# Quantile of the packet times of one kind of packet that stands for its
# cost on an undisturbed host; see quiet_times.
QUIET_QUANTILE = 0.01
SETUP_REPEATS_BEFORE = 5
MEMORY_PACKETS = 1000
CLI_PACKETS = 256
CALIBRATION_LOOPS = 1_000_000
# Phase whose spans feed a layer's traced metrics; the packet path is "loop".
HOME_PHASE = {"config": "setup", "bench": "sweep"}


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop; a slowed host shows here."""
    start = perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - start


def metadata(seed: int) -> dict:
    return {
        "git_head": git_head(),
        "python": platform.python_version(),
        "codec_backend": wire.active_backend(),
        "cpu_count": os.cpu_count(),
        "seed": seed,
    }


def config_path(workload, run_dir: Path) -> Path:
    """The file ``load_config`` reads: the bundled one or the generated text."""
    if workload.bundled_path is not None:
        return workload.bundled_path
    path = run_dir / f"{workload.name}.cfg"
    path.write_text(workload.config_text, encoding="utf-8")
    return path


def load_network(path: Path):
    """Config text to a ready Network: the span ``setup_s`` times."""
    return sconfig.load_config(path).build_network()


def time_setup(path: Path) -> int:
    """CPU nanoseconds of one set-up."""
    start = thread_time_ns()
    load_network(path)
    return thread_time_ns() - start


@dataclass
class Walk:
    """What a run of the packet loop saw."""

    # CPU nanoseconds per packet, in walk order.
    samples: array = field(default_factory=lambda: array("q"))
    wall_ns: int = 0
    failed: int = 0
    kept_events: int = 0
    jsonl_bytes: int = 0

    @property
    def packets(self) -> int:
        return len(self.samples)

    def pkts_per_s(self) -> float:
        return self.packets / (sum(self.samples) / 1e9)


def walk(workload, network, gate: Gate, *, count=None, seconds=None) -> Walk:
    """Walk packets of the workload in list order from the first, cycling,
    until ``count`` packets or ``seconds`` of wall time (at least one)."""
    inject = sim.inject
    packets, ingress = workload.packets, workload.ingress
    terminal_only, export = workload.terminal_only, workload.export
    size = len(packets)
    deadline = perf_counter() + seconds if seconds is not None else float("inf")
    out = Walk()
    samples = out.samples
    index = 0
    while (count is None or index < count) and (index == 0 or perf_counter() < deadline):
        k = index % size
        error = result = None
        line = ""
        began_wall = perf_counter_ns()
        began = thread_time_ns()
        try:
            result = inject(network, ingress, packets[k], terminal_only=terminal_only)
            if export:
                line = result.trace.to_jsonl()
        except Exception as exc:  # counted as a failed packet, the run goes on
            error = exc
        samples.append(thread_time_ns() - began)
        out.wall_ns += perf_counter_ns() - began_wall
        if not gate.check(k, result, error):
            out.failed += 1
        elif result is not None:
            out.kept_events += len(result.trace.events)
            out.jsonl_bytes += len(line)
        index += 1
    return out


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, -(-len(sorted_values) * q // 1))
    return sorted_values[int(rank) - 1]


def quiet_times(kinds: list, passes: list[array]) -> list[int]:
    """Per packet of the list, the QUIET_QUANTILE of the CPU times of
    every walk, on every pass, of a packet of its kind.

    Packets of one kind (same outcome, same VNFs, same hops) do the same
    work. The host's speed changes by up to twice within seconds as other
    tenants come and go, so a mean or median over a run follows how long
    the host was slowed; a low quantile over thousands of walks of equal
    work is the cost of the walk on a host that was not, and repeats from
    run to run.
    """
    by_kind: dict = {}
    for samples in passes:
        for kind, ns in zip(kinds, samples):
            by_kind.setdefault(kind, []).append(ns)
    quiet = {kind: percentile(sorted(times), QUIET_QUANTILE) for kind, times in by_kind.items()}
    return [quiet[kind] for kind in kinds]


def memory_probe(workload, path: Path) -> dict:
    """Peak RSS and retained bytes from a fresh process (see memprobe.py)."""
    here = Path(__file__).resolve().parent
    proc = subprocess.run(
        [
            sys.executable, str(here / "memprobe.py"),
            "--workload", workload.name, "--seed", str(workload.seed),
            "--config", str(path), "--packets", str(MEMORY_PACKETS),
        ],
        capture_output=True, text=True, timeout=150, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"memory probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    problems: list[str]
    notes: dict


def end_to_end(workload, path: Path, seconds: float) -> Result:
    """The untraced run: every end-to-end metric of one workload."""
    memory = memory_probe(workload, path)
    setups = [time_setup(path) for _ in range(SETUP_REPEATS_BEFORE)]

    network = load_network(path)
    gate = Gate(workload, network)
    warmup = walk(workload, network, gate, seconds=WARMUP_SECONDS)
    # Whole passes over the packet list until the time is up; one more
    # set-up after each pass, so set-up is sampled across the whole run.
    size = len(workload.packets)
    passes: list[array] = []
    wall_ns, failed = 0, warmup.failed
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        one = walk(workload, network, gate, count=size)
        passes.append(one.samples)
        wall_ns += one.wall_ns
        failed += one.failed
        setups.append(time_setup(path))

    quiet = quiet_times(workload.expects, passes)
    ordered = sorted(quiet)
    attempted = warmup.packets + size * len(passes)
    metrics = {
        "pkts_per_s": (size / (sum(quiet) / 1e9), "1/s"),
        "pkt_us_p50": (percentile(ordered, 0.50) / 1e3, "us"),
        "pkt_us_p99": (percentile(ordered, 0.99) / 1e3, "us"),
        "setup_s": (statistics.median(setups) / 1e9, "s"),
        "retained_bytes_per_pkt": (memory["retained_bytes_per_pkt"], "B"),
        "peak_rss_mib": (memory["peak_rss_mib"], "MiB"),
    }
    all_samples = sum(sum(one) for one in passes)
    notes = {
        "latency_samples": size * len(passes),
        "passes": len(passes),
        "packet_kinds": len(set(workload.expects)),
        "mean_pkts_per_s": size * len(passes) / (all_samples / 1e9),
        "packet_cpu_share": all_samples / wall_ns,
        "setup_repeats": len(setups),
        "memory_packets": memory["packets"],
        "error_rate": failed / attempted,
    }
    return Result(metrics, attempted, failed, gate.failures, notes)


class _Sink:
    """Discards what the CLI prints."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


def _count_vnf_calls(network, counter: list[int]) -> None:
    for node in network.nodes.values():
        for vnf in node.hosted_vnfs:
            def counted(packet, behavior=vnf.behavior):
                counter[0] += 1
                return behavior(packet)

            vnf.behavior = counted


def _sweep(path: Path) -> list[str]:
    """One `srv6sfc bench`-style sweep per scenario of the [bench] section."""
    config = sconfig.load_config(path)
    problems = []
    for name, label, kind in (
        ("aware", sbench.SCENARIO_AWARE, SidKind.SR_AWARE),
        ("unaware", sbench.SCENARIO_UNAWARE, SidKind.SR_UNAWARE),
    ):
        bench = config.bench
        report = sbench.run_sweep(
            config.build_network(kind_override=kind),
            config.flow(),
            bench.model_for(name),
            scenario=label,
            rates=list(bench.rates),
            runs=bench.runs,
            noise_pct=bench.noise,
            seed=bench.seed,
        )
        if report.regression is None:
            problems.append(f"sweep {name}: {report.regression_error}")
    return problems


def traced(workload, path: Path, seconds: float, dump_to: Path) -> Result:
    """The traced run: per-layer counts and self times, and the tracing
    overhead against an untraced loop over the same packets."""
    network = load_network(path)
    gate = Gate(workload, network)
    warmup = walk(workload, network, gate, seconds=WARMUP_SECONDS)
    untraced = walk(workload, network, gate, seconds=seconds / 2)
    attempted = warmup.packets + untraced.packets
    failed = warmup.failed + untraced.failed
    problems = list(gate.failures)

    recorder = Recorder()
    per_pass = len(workload.packets)
    passes = 0
    loop = Walk()
    vnf_calls = [0]
    wire_bytes = hops = ledger_records = cli_packets = 0
    deadline = perf_counter() + seconds / 2
    with recorder.installed():
        while passes == 0 or perf_counter() < deadline:
            recorder.set_phase("setup")
            network = load_network(path)
            _count_vnf_calls(network, vnf_calls)
            gate = Gate(workload, network)
            recorder.set_phase("loop")
            bytes_before, hops_before = recorder.wire_bytes, recorder.hops
            one = walk(workload, network, gate, count=per_pass)
            wire_bytes += recorder.wire_bytes - bytes_before
            hops += recorder.hops - hops_before
            loop.samples.extend(one.samples)
            loop.failed += one.failed
            loop.kept_events += one.kept_events
            loop.jsonl_bytes += one.jsonl_bytes
            problems += gate.failures
            ledger_records += sum(
                len(getattr(ledger, "per_packet", ())) for ledger in network.ledgers.values()
            )
            if workload.sweeps:
                recorder.set_phase("sweep")
                sweep_problems = _sweep(path)
                attempted += 1
                failed += bool(sweep_problems)
                problems += sweep_problems
            if workload.cli_flow is not None:
                recorder.set_phase("cli")
                src, dst, payload = workload.cli_flow
                argv = [
                    "run", str(path), "--src", src, "--dst", dst,
                    "--ingress", workload.ingress, "--count", str(CLI_PACKETS),
                    "--payload-bytes", str(payload),
                ]
                with contextlib.redirect_stdout(_Sink()), recorder.span("cli.run"):
                    code = scli.main(argv)
                cli_packets += CLI_PACKETS
                attempted += 1
                if code != 0:
                    failed += 1
                    problems.append(f"srv6sfc run exited {code}")
            passes += 1
    attempted += loop.packets
    failed += loop.failed

    totals = recorder.totals()
    packets = loop.packets
    metrics: dict[str, tuple[float, str]] = {}
    for name, _, _ in TARGETS:
        calls, self_ns = totals.get((HOME_PHASE.get(name.split(".")[0], "loop"), name), (0, 0))
        metrics[f"{name}.calls_per_pkt"] = (calls / packets, "count")
        metrics[f"{name}.self_us_per_pkt"] = (self_ns / 1e3 / packets, "us")
    add_calls = totals.get(("loop", "trace.Trace.add"), (0, 0))[0]
    cli_self = totals.get(("cli", "cli.run"), (0, 0))[1]
    metrics.update(
        {
            "wire.bytes_per_pkt": (wire_bytes / packets, "B"),
            "dataplane.vnf_calls_per_pkt": (vnf_calls[0] / packets, "count"),
            "dataplane.ledger_records": (ledger_records / passes, "count"),
            "trace.kept_ratio": (loop.kept_events / add_calls if add_calls else 0.0, "ratio"),
            "trace.jsonl_bytes_per_pkt": (loop.jsonl_bytes / packets, "B"),
            "sim.hops_per_pkt": (hops / packets, "count"),
            "cli.run.self_us_per_pkt": (cli_self / 1e3 / cli_packets if cli_packets else 0.0, "us"),
            "recorder.untraced_pkts_per_s": (untraced.pkts_per_s(), "1/s"),
            "recorder.traced_pkts_per_s": (loop.pkts_per_s(), "1/s"),
            "recorder.overhead_ratio": (untraced.pkts_per_s() / loop.pkts_per_s() - 1.0, "ratio"),
        }
    )
    notes = {
        "traced_passes": passes,
        "packets_per_pass": per_pass,
        "error_rate": failed / attempted,
    }
    recorder.dump(dump_to)
    notes["spans_file"] = str(dump_to.relative_to(OUT_DIR.parent))
    return Result(metrics, attempted, failed, problems[:10], notes)
