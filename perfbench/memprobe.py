"""Memory of one workload, measured in a process of its own.

Runs set-up and a fixed number of packets, then reports the process's
peak resident memory; then walks the same number of packets again under
``tracemalloc`` and reports the memory they left allocated, per packet.
A fixed packet count keeps both figures independent of host speed.

    python3 perfbench/memprobe.py --workload NAME --seed N --config PATH --packets N
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import tracemalloc

from checkout import require_src


def _walk(workload, network, count: int) -> None:
    from srv6sfc import sim

    packets = workload.packets
    for index in range(count):
        result = sim.inject(
            network, workload.ingress, packets[index % len(packets)],
            terminal_only=workload.terminal_only,
        )
        if workload.export:
            result.trace.to_jsonl()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--packets", type=int, required=True)
    args = parser.parse_args()
    require_src()

    import measure
    import workloads

    workload = workloads.build(args.workload, args.seed)
    network = measure.load_network(args.config)
    _walk(workload, network, args.packets)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    gc.collect()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    _walk(workload, network, args.packets)
    gc.collect()
    retained = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    print(
        json.dumps(
            {
                "packets": args.packets,
                "peak_rss_mib": peak_rss_mib,
                "retained_bytes_per_pkt": retained / args.packets,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
