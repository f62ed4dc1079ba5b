"""Command surface: validate, route add, run, bench, trace.

Exit codes, one per error path:

    0  success
    1  run finished but packets were dropped (trace: the packet is
       too big to encapsulate)
    2  command-line usage error (argparse)
    3  config parse error (missing, unreadable, non-UTF-8 or unstructured file)
    4  config or route validation error
    5  pipeline contract error while running (misconfiguration)
    6  output I/O error
    7  bench failed: no regression (fewer than two no-loss rates), or a
       cost probe that was dropped or not uniform

Normal output goes to stdout; structured error objects go to stderr as
single-line JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from srv6sfc import errors
from srv6sfc.bench import (
    SCENARIOS,
    CapacityModel,
    format_regression_table,
    points_csv,
    regression_csv,
    run_sweep,
)
from srv6sfc.config import BENCH_READERS, ScenarioConfig, load_config, read_config_text, route_add
from srv6sfc.config import read_address, read_finite, read_integer
from srv6sfc.sim import (
    Dropped, FlowSpec, FlowSummary, NodeRole, classify_at_ingress, flow_packet, inject,
)
from srv6sfc.trace import Trace
from srv6sfc.wire import hexdump, serialize_packet

EXIT_OK = 0
EXIT_DROPPED = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_VALIDATION = 4
EXIT_CONTRACT = 5
EXIT_IO = 6
EXIT_BENCH = 7


def _error(kind: str, detail) -> None:
    print(json.dumps({"error": kind, "detail": detail}), file=sys.stderr)


def _usage(read, *args, **bounds):
    """argparse type: ``read(*args, text, **bounds)``, whose ``ValueError``
    is a usage error with the reader's own text."""

    def parse(text: str):
        try:
            return read(*args, text, **bounds)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


_address = _usage(read_address)
_port = _usage(read_integer, "port", low=0, high=0xFFFF)
_payload_bytes = _usage(BENCH_READERS["payload"])


def _capacity_model(args) -> CapacityModel | None:
    """The ``--capacity``/``--k0`` model; a bad one, or ``--k0`` alone, is a usage error."""
    if args.capacity is None and args.k0 is not None:
        args.parser.error("argument --k0: not allowed without argument --capacity")
    try:
        return None if args.capacity is None else CapacityModel(args.capacity, args.k0 or 0.0)
    except errors.BenchError as exc:
        args.parser.error(f"argument {'--k0' if args.capacity > 0 else '--capacity'}: {exc}")


def _default_ingress(config: ScenarioConfig) -> str:
    if config.bench.flow_ingress is not None:
        return config.bench.flow_ingress
    for node in config.nodes:
        if node.role is NodeRole.INGRESS_EDGE:
            return node.node_id
    return config.nodes[0].node_id


def _flow(args, ingress: str, count: int) -> FlowSpec:
    """The flow that ``run`` and ``trace`` send, from their shared options."""
    return FlowSpec(
        ingress, args.src, args.dst, count, args.payload_bytes, args.sport, args.dport
    )


def cmd_validate(args) -> int:
    config = load_config(args.config)
    print(
        f"config OK: {len(config.nodes)} nodes, {len(config.links)} links, "
        f"{len(config.sids)} sids, {len(config.chains)} chains, "
        f"{len(config.rules)} rules"
    )
    return EXIT_OK


def cmd_route(args) -> int:
    tokens = list(args.tokens)
    shape = "route add PREFIX via NEXTHOP encap seg SID[,SID...]"
    if len(tokens) != 7 or (tokens[0], tokens[2], tokens[4], tokens[5]) != ("add", "via", "encap", "seg"):
        _error("UsageError", f"expected: {shape}")
        return EXIT_USAGE
    text = route_add(
        read_config_text(args.config),
        tokens[1],
        tokens[3],
        [s for s in tokens[6].split(",") if s],
        node_id=args.node,
        chain_id=args.chain_id,
    )
    if args.in_place:
        Path(args.config).write_bytes(text.encode("utf-8"))
        print(f"updated {args.config}")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_run(args) -> int:
    config = load_config(args.config)
    network = config.build_network()
    ingress = args.ingress or _default_ingress(config)
    terminal_only = args.trace == "terminal"
    flow = _flow(args, ingress, args.count)

    summary = FlowSummary()
    for i in range(args.count):
        result = inject(network, ingress, flow_packet(flow, i), terminal_only=terminal_only)
        jsonl = result.trace.to_jsonl()
        if jsonl:
            print(jsonl)
        summary.add(result)
    print(json.dumps({"summary": {
        "count": args.count,
        "delivered": summary.delivered,
        "dropped": summary.dropped,
        "status": "ok" if summary.dropped == 0 else "dropped",
        "drop_reasons": dict(sorted(summary.drop_reasons.items())),
        "ledgers": {
            node_id: {"f": f, "d": d, "e": e, "cost_units": network.units.cost((f, d, e))}
            for node_id, (f, d, e) in sorted(summary.ledger_deltas.items())
        },
    }}))
    return EXIT_OK if summary.dropped == 0 else EXIT_DROPPED


def cmd_bench(args) -> int:
    override = _capacity_model(args)
    config = load_config(args.config)
    bench = config.bench
    names = list(SCENARIOS) if args.scenario == "both" else [args.scenario]
    rates = args.rates if args.rates is not None else bench.rates
    runs = args.runs if args.runs is not None else bench.runs
    noise = args.noise if args.noise is not None else bench.noise
    seed = args.seed if args.seed is not None else bench.seed

    # Every scenario is built and checked before any sweep runs.
    sweeps = []
    for name in names:
        label, kind = SCENARIOS[name]
        model = override or bench.model_for(name)
        if model is None:
            raise errors.ValidationError([f"no capacity model for scenario {name!r}"])
        network = config.build_network(kind_override=kind)
        flow = config.flow()
        sweeps.append((label, network, flow, model))
    reports = [
        run_sweep(
            network, flow, model, scenario=label, rates=rates, runs=runs, noise_pct=noise, seed=seed
        )
        for label, network, flow, model in sweeps
    ]

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "points.csv").write_text(points_csv(reports), encoding="utf-8")
    (out_dir / "regression.csv").write_text(regression_csv(reports), encoding="utf-8")
    print(format_regression_table(reports))
    print(f"wrote {out_dir / 'points.csv'} and {out_dir / 'regression.csv'}", file=sys.stderr)

    refused = [r for r in reports if r.regression is None]
    for report in refused:
        _error(
            "InsufficientPoints",
            f"{report.scenario}: regression refused ({report.regression_error}); "
            f"need at least 2 distinct no-loss rates",
        )
    return EXIT_BENCH if refused else EXIT_OK


def cmd_trace(args) -> int:
    config = load_config(args.config)
    network = config.build_network()
    ingress = network.node(args.ingress or _default_ingress(config)).node_id
    inner = flow_packet(_flow(args, ingress, 1), 0)
    # A drop is reported as `run` reports it: the Dropped event at the ingress.
    trace = Trace(0, terminal_only=True)
    packet = classify_at_ingress(network.states[ingress], inner, trace)
    if isinstance(packet, Dropped):
        print(trace.to_jsonl())
        return EXIT_DROPPED
    print(hexdump(serialize_packet(packet)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srv6sfc",
        description="SRv6 service-chaining simulator and benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="load and cross-check a scenario config")
    p.add_argument("config")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "route", help="route add PREFIX via NEXTHOP encap seg SID[,SID...]"
    )
    p.add_argument("tokens", nargs="+")
    p.add_argument("--config", required=True)
    p.add_argument("--node", help="node to install on (default: first ingress edge)")
    p.add_argument("--chain-id", help="chain id (default: derived from the prefix)")
    p.add_argument("--in-place", action="store_true", help="write the edited config back to its file")
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("run", help="inject packets and print trace + ledger summary")
    p.add_argument("config")
    p.add_argument("--src", type=_address, required=True)
    p.add_argument("--dst", type=_address, required=True)
    p.add_argument("--ingress")
    p.add_argument("--count", type=_usage(read_integer, "count", low=1), default=1)
    p.add_argument("--payload-bytes", type=_payload_bytes, default=1024)
    p.add_argument("--sport", type=_port, default=40000)
    p.add_argument("--dport", type=_port, default=5201)
    p.add_argument("--trace", choices=("full", "terminal"), default="full")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="rate sweep, region labels, regression CSVs")
    p.add_argument("config")
    p.add_argument("--scenario", choices=(*SCENARIOS, "both"), default="both")
    p.add_argument("--rates", type=_usage(BENCH_READERS["rates"]),
                   help="comma-separated pps list (default from config)")
    p.add_argument("--runs", type=_usage(BENCH_READERS["runs"]))
    p.add_argument("--seed", type=int)
    p.add_argument("--noise", type=_usage(BENCH_READERS["noise"]), help="percent jitter on utilization")
    p.add_argument("--capacity", type=_usage(read_finite, "capacity"),
                   help="override capacity model")
    p.add_argument("--k0", type=_usage(read_finite, "k0"), help="baseline overhead for --capacity")
    p.add_argument("--out", default="bench-out")
    p.set_defaults(func=cmd_bench, parser=p)

    p = sub.add_parser("trace", help="hex-dump the packet as encapsulated at ingress")
    p.add_argument("config")
    p.add_argument("--src", type=_address, required=True)
    p.add_argument("--dst", type=_address, required=True)
    p.add_argument("--ingress")
    p.add_argument("--payload-bytes", type=_payload_bytes, default=8)
    p.add_argument("--sport", type=_port, default=40000)
    p.add_argument("--dport", type=_port, default=5201)
    p.set_defaults(func=cmd_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except errors.ParseError as exc:
        _error("ParseError", str(exc))
        return EXIT_PARSE
    except errors.ValidationError as exc:
        _error("ValidationError", exc.problems)
        return EXIT_VALIDATION
    except errors.BenchError as exc:
        _error(type(exc).__name__, str(exc))
        return EXIT_BENCH
    except errors.SfcError as exc:
        _error(type(exc).__name__, str(exc))
        return EXIT_CONTRACT
    except OSError as exc:
        _error("IOError", str(exc))
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
