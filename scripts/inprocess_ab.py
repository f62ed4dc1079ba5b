"""Time two checkouts against each other in one process, interleaved.

    python3 scripts/inprocess_ab.py --parent DIR --change DIR \\
        [--workload NAME ...] [--seed N] [--rounds N] [--packets N]

Whole processes run at different speeds on a shared host, so two
``perfbench/run.py`` processes can differ by more than a small change
does. This script loads the ``src/srv6sfc`` of both checkouts into one
interpreter and times them side by side. The workloads come from the
``perfbench/workloads.py`` of the checkout this script sits in (read
only). Their packets are serialized once, then parsed by each tree's own
codec and rebuilt by its ``Packet`` constructor, so that each tree walks
values of its own types, without a parsed image, as the benchmark's
packets are. Each tree builds its network from the workload's config
text.

A pass walks every packet once, the way the benchmark does: ``inject``
in the workload's trace mode, plus ``Trace.to_jsonl`` where it exports,
each packet timed by ``thread_time_ns``. After a warm-up pass per tree,
each round runs three passes per tree, alternating between the trees,
and keeps each tree's fastest. A round's ratio is the parent's best time
over the change's, so a ratio above 1 means the change is faster. The
whole is run in both load orders (parent imported first, then change
first), each with fresh imports, because the order of imports moves the
timings a little. For each workload and order the script prints the
median ratio and the rounds the change won.

A best pass is a mean over its packets. The benchmark's packet metrics
are not: for each kind of packet (``Workload.expects``) it takes the 1%
quantile of that kind's times over the whole run, then the median and
99th percentile of those per-packet figures (``pkt_us_p50``,
``pkt_us_p99``) and the packets per second of their sum. A second line
per workload and order gives the same three figures, computed the same
way from every timed pass of each tree, as change/parent speed ratios:
above 1 means the change is faster (for p50 and p99, the parent's time
over the change's).

Standard library only; it writes no file (no bytecode either).
"""

from __future__ import annotations

import argparse
import importlib
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter, thread_time_ns

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("srv6sfc.sim", "srv6sfc.config", "srv6sfc.wire")
SIDES = ("parent", "change")
# The benchmark's quantile of one kind of packet's times (``QUIET_QUANTILE``).
QUIET_QUANTILE = 0.01


def purge() -> None:
    """Forget every loaded ``srv6sfc`` module; loaded ones keep working
    through the references their callers hold."""
    for name in [name for name in sys.modules if name == "srv6sfc" or name.startswith("srv6sfc.")]:
        del sys.modules[name]


def load(checkout: Path) -> dict:
    """Fresh imports of one checkout's ``sim``, ``config`` and ``wire``."""
    purge()
    src = str(checkout.resolve() / "src")
    sys.path.insert(0, src)
    try:
        modules = {name.rpartition(".")[2]: importlib.import_module(name) for name in MODULES}
    finally:
        sys.path.remove(src)
        purge()
    return modules


def load_workloads(names: list[str] | None, seed: int, packets: int | None) -> list[tuple]:
    """``(workload, packet images)`` per name (every workload when None),
    built with this checkout."""
    saved = list(sys.path)
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import checkout

        checkout.require_src()  # this checkout's src, first on the path
        import workloads

        built = []
        for name in names or workloads.BUILDERS:
            workload = workloads.build(name, seed)
            chosen = workload.packets if packets is None else workload.packets[:packets]
            serialize = sys.modules["srv6sfc.wire"].serialize_packet
            built.append((workload, [serialize(packet) for packet in chosen]))
        return built
    finally:
        sys.path[:] = saved
        for name in ("checkout", "workloads"):
            sys.modules.pop(name, None)
        purge()


def walker(modules: dict, workload, images: list[bytes]):
    """One timed pass over the packets, as this tree walks them: its time
    and each packet's CPU nanoseconds."""
    wire = modules["wire"]
    network = modules["config"].parse_config_text(workload.config_text).build_network()
    packets = []
    for image in images:
        parsed = wire.parse_packet(image)
        packets.append(wire.Packet(header=parsed.header, srh=parsed.srh, payload=parsed.payload))
    wire.clear_slot()
    inject = modules["sim"].inject
    ingress, terminal_only, export = workload.ingress, workload.terminal_only, workload.export

    def walk() -> tuple[float, array]:
        samples = array("q")
        start = perf_counter()
        for packet in packets:
            began = thread_time_ns()
            result = inject(network, ingress, packet, terminal_only=terminal_only)
            if export:
                result.trace.to_jsonl()
            samples.append(thread_time_ns() - began)
        return perf_counter() - start, samples

    return walk


def nearest_rank(ordered, q: float):
    """Nearest-rank quantile of an ascending sequence, as the benchmark's."""
    return ordered[max(1, int(-(-len(ordered) * q // 1))) - 1]


def quantile_metrics(kinds: list, passes: list[array]) -> tuple[float, int, int]:
    """Packets/s, p50 and p99 (ns) as the benchmark computes them: each
    packet stands for the ``QUIET_QUANTILE`` of its kind's times."""
    by_kind: dict = {}
    for samples in passes:
        for kind, ns in zip(kinds, samples):
            by_kind.setdefault(kind, []).append(ns)
    quiet = {kind: nearest_rank(sorted(times), QUIET_QUANTILE) for kind, times in by_kind.items()}
    ordered = sorted(quiet[kind] for kind in kinds)
    return len(ordered) / (sum(ordered) / 1e9), nearest_rank(ordered, 0.50), nearest_rank(ordered, 0.99)


def compare(
    trees: dict[str, Path], order: tuple[str, str], workload, images, rounds: int
) -> tuple[list[float], dict[str, list[array]]]:
    """Per round, the parent's best time over the change's; and per tree,
    the packet times of every timed pass."""
    loaded = {side: load(trees[side]) for side in order}
    walks = {side: walker(loaded[side], workload, images) for side in order}
    for side in order:
        walks[side]()  # warm-up: fills the memos
    ratios = []
    passes: dict[str, list[array]] = {side: [] for side in order}
    for _ in range(rounds):
        best = dict.fromkeys(order, float("inf"))
        for _ in range(3):
            for side in order:
                seconds, samples = walks[side]()
                best[side] = min(best[side], seconds)
                passes[side].append(samples)
        ratios.append(best["parent"] / best["change"])
    return ratios, passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", help="a perfbench workload name")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--packets", type=int, help="walk only the first N packets")
    args = parser.parse_args(argv)
    if args.rounds < 1 or (args.packets is not None and args.packets < 1):
        parser.error("--rounds and --packets must be at least 1")
    sys.dont_write_bytecode = True
    trees = {"parent": args.parent, "change": args.change}
    for side, tree in trees.items():
        if not (tree / "src" / "srv6sfc" / "__init__.py").is_file():
            parser.error(f"--{side} {tree} holds no src/srv6sfc")
    for workload, images in load_workloads(args.workload, args.seed, args.packets):
        for order in (SIDES, SIDES[::-1]):
            ratios, passes = compare(trees, order, workload, images, args.rounds)
            wins = sum(ratio > 1 for ratio in ratios)
            print(
                f"{workload.name} {order[0]} first: median change/parent "
                f"{statistics.median(ratios):.3f}x, change won {wins} of {len(ratios)} rounds"
            )
            kinds = workload.expects[:len(images)]
            parent, change = (quantile_metrics(kinds, passes[side]) for side in SIDES)
            print(
                f"{workload.name} {order[0]} first: per-kind quantiles over "
                f"{len(passes['change'])} passes, change/parent pkts_per_s "
                f"{change[0] / parent[0]:.3f}x, p50 {parent[1] / change[1]:.3f}x, "
                f"p99 {parent[2] / change[2]:.3f}x"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
