"""Print the calls each benchmark workload makes per packet, by function.

    python3 scripts/call_census.py [--seed N] [--workload NAME ...] > census.txt

For each perfbench workload (``perfbench/workloads.py``, imported read
only), the script builds the workload's network from its config text,
walks its packet list once as a warm-up, then once more under
``sys.setprofile``, the way the benchmark walks it: ``inject`` in the
workload's trace mode, plus ``Trace.to_jsonl`` where it exports. Every
Python-level call and every call into C is counted by ``(module,
qualified name)`` and printed as calls per packet, largest first, with
the totals in each workload's heading. C calls are marked ``[C]``; the
profiler reports builtin functions and methods there, not calls of a
type such as ``bytes(data)``.

The census is exact: the same checkout and seed print the same table on
every run. Everything runs in-process against the ``src/`` of the
checkout this script sits in and writes nothing, so two checkouts are
compared with ``diff`` of their outputs.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402  (perfbench's generators)
from srv6sfc import sim  # noqa: E402
from srv6sfc.config import parse_config_text  # noqa: E402


def walk(workload, network) -> None:
    """One pass over the packet list, as the benchmark's packet loop makes it."""
    inject = sim.inject
    for packet in workload.packets:
        result = inject(network, workload.ingress, packet, terminal_only=workload.terminal_only)
        if workload.export:
            result.trace.to_jsonl()


def census(workload) -> Counter:
    """Calls of one profiled pass, after a warm-up pass, by (kind, module, name)."""
    network = parse_config_text(workload.config_text).build_network()
    walk(workload, network)
    calls: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls["py", frame.f_globals.get("__name__"), frame.f_code.co_qualname] += 1
        elif event == "c_call":
            module = arg.__module__ or type(arg.__self__).__module__
            calls["C", module, arg.__qualname__] += 1

    sys.setprofile(profile)
    try:
        walk(workload, network)
    finally:
        sys.setprofile(None)
    # The profiler's own switch and this script's loop are not the program.
    calls.pop(("C", "sys", "setprofile"), None)
    calls.pop(("py", __name__, "walk"), None)
    return calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=sorted(workloads.BUILDERS))
    args = parser.parse_args(argv)
    for name in args.workload or list(workloads.BUILDERS):
        workload = workloads.build(name, args.seed)
        calls = census(workload)
        packets = len(workload.packets)
        python = sum(count for (kind, _, _), count in calls.items() if kind == "py")
        print(
            f"# {name} seed {args.seed}: {packets} packets, per packet {python / packets:.2f} "
            f"Python calls, {sum(calls.values()) / packets:.2f} with C calls"
        )
        for (kind, module, qualname), count in sorted(
            calls.items(), key=lambda item: (-item[1], item[0][1] or "", item[0][2])
        ):
            mark = " [C]" if kind == "C" else ""
            print(f"{count / packets:10.4f}  {module}  {qualname}{mark}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
