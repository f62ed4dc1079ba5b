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
in the workload's trace mode, plus ``Trace.to_jsonl`` where it exports.
After a warm-up pass per tree, each round runs three passes per tree,
alternating between the trees, and keeps each tree's fastest. A round's
ratio is the parent's best time over the change's, so a ratio above 1
means the change is faster. The whole is run in both load orders (parent
imported first, then change first), each with fresh imports, because the
order of imports moves the timings a little. For each workload and order
the script prints the median ratio and the rounds the change won.

Standard library only; it writes no file (no bytecode either).
"""

from __future__ import annotations

import argparse
import importlib
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("srv6sfc.sim", "srv6sfc.config", "srv6sfc.wire")
SIDES = ("parent", "change")


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
    """One timed pass over the packets, as this tree walks them."""
    wire = modules["wire"]
    network = modules["config"].parse_config_text(workload.config_text).build_network()
    packets = []
    for image in images:
        parsed = wire.parse_packet(image)
        packets.append(wire.Packet(header=parsed.header, srh=parsed.srh, payload=parsed.payload))
    wire.clear_slot()
    inject = modules["sim"].inject
    ingress, terminal_only, export = workload.ingress, workload.terminal_only, workload.export

    def walk() -> float:
        start = perf_counter()
        for packet in packets:
            result = inject(network, ingress, packet, terminal_only=terminal_only)
            if export:
                result.trace.to_jsonl()
        return perf_counter() - start

    return walk


def compare(trees: dict[str, Path], order: tuple[str, str], workload, images, rounds: int) -> list[float]:
    """Per round, the parent's best time over the change's."""
    loaded = {side: load(trees[side]) for side in order}
    walks = {side: walker(loaded[side], workload, images) for side in order}
    for side in order:
        walks[side]()  # warm-up: fills the memos
    ratios = []
    for _ in range(rounds):
        best = dict.fromkeys(order, float("inf"))
        for _ in range(3):
            for side in order:
                best[side] = min(best[side], walks[side]())
        ratios.append(best["parent"] / best["change"])
    return ratios


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
            ratios = compare(trees, order, workload, images, args.rounds)
            wins = sum(ratio > 1 for ratio in ratios)
            print(
                f"{workload.name} {order[0]} first: median change/parent "
                f"{statistics.median(ratios):.3f}x, change won {wins} of {len(ratios)} rounds"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
