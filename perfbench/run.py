"""The srv6sfc benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with nothing traced;
``--trace 1`` records spans around each layer and reports the per-layer
metrics. Both check every packet with the correctness gate. Human-readable
lines come first; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every check passed. Metric names, units and bounds live in
BENCHMARK.json; METRICS.md explains them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from checkout import BENCHMARK_JSON, OUT_DIR, MissingProgram, require_src


def parse_args(argv):
    parser = argparse.ArgumentParser(description="srv6sfc benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        require_src()
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import measure
    import workloads

    if args.workload not in workloads.BUILDERS:
        known = ", ".join(workloads.BUILDERS)
        print(f"perfbench: unknown workload {args.workload!r}; one of {known}", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    workload = workloads.build(args.workload, args.seed)
    run_dir = OUT_DIR / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        path = measure.config_path(workload, run_dir)
        calibration_before = measure.calibrate()
        if args.trace:
            dump = OUT_DIR / "spans" / f"{workload.name}-seed{args.seed}.csv.gz"
            result = measure.traced(workload, path, args.seconds, dump)
        else:
            result = measure.end_to_end(workload, path, args.seconds)
        calibration_after = measure.calibrate()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    problems = result.problems + workloads.shape_problems(workload.shape)
    got = {name: unit for name, (_, unit) in result.metrics.items()}
    if got != wanted:
        mismatch = sorted(set(got.items()) ^ set(wanted.items()))
        problems.append(f"metrics differ from BENCHMARK.json: {mismatch}")

    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    meta = measure.metadata(args.seed) | result.notes
    meta |= {"calibration_s_before": calibration_before, "calibration_s_after": calibration_after}
    print("meta " + json.dumps(meta))
    if workload.shape is not None:
        print("shape " + json.dumps(workload.shape))
    for name, (value, unit) in result.metrics.items():
        print(f"{name:<44} {value:>14.6g} {unit}")
    print(f"{'error_rate':<44} {result.failed / result.attempted:>14.6g} ratio "
          f"({result.failed} of {result.attempted} failed)")
    for problem in problems:
        print(f"problem: {problem}")

    correct = result.failed == 0 and not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
