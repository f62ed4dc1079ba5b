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
import gc
import sys
from collections import Counter
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

from srv6sfc import sim  # noqa: E402
from srv6sfc.config import parse_config_text  # noqa: E402


def count_calls(walk: Callable[[], None]) -> Counter:
    """Calls one ``walk()`` makes, by ``(module, qualified name)``; a call
    into C is named with a ``" [C]"`` suffix. ``tests/test_census.py``
    counts with it too."""
    calls: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_globals.get("__name__"), frame.f_code.co_qualname] += 1
        elif event == "c_call":
            module = arg.__module__ or type(arg.__self__).__module__
            calls[module, f"{arg.__qualname__} [C]"] += 1

    # No collection runs while counting: a collector callback (a test
    # runner's, say) would be counted with the walk.
    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        walk()
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    # The profiler's own switch and the walk's own frame are not the program.
    del calls["sys", "setprofile [C]"], calls[walk.__module__, walk.__qualname__]
    return calls


def census(workload) -> Counter:
    """Calls of one profiled pass, after a warm-up pass, as the
    benchmark's packet loop makes it."""
    network = parse_config_text(workload.config_text).build_network()
    inject = sim.inject

    def walk() -> None:
        for packet in workload.packets:
            result = inject(network, workload.ingress, packet, terminal_only=workload.terminal_only)
            if workload.export:
                result.trace.to_jsonl()

    walk()
    return count_calls(walk)


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads  # perfbench's generators

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=sorted(workloads.BUILDERS))
    args = parser.parse_args(argv)
    for name in args.workload or list(workloads.BUILDERS):
        workload = workloads.build(name, args.seed)
        calls = census(workload)
        packets = len(workload.packets)
        python = sum(count for (_, name), count in calls.items() if not name.endswith(" [C]"))
        print(
            f"# {name} seed {args.seed}: {packets} packets, per packet {python / packets:.2f} "
            f"Python calls, {sum(calls.values()) / packets:.2f} with C calls"
        )
        for (module, name), count in sorted(
            calls.items(), key=lambda item: (-item[1], item[0][0] or "", item[0][1])
        ):
            print(f"{count / packets:10.4f}  {module}  {name}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
