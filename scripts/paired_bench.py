"""Paired benchmark runs of two checkouts, summarised as one BENCH_<n>.json.

    python3 scripts/paired_bench.py --parent DIR --change DIR --seeds 2301-2310 \\
        --seconds 30 --out BENCH_23.json \\
        [--claim testbed-unaware-64B:pkts_per_s:1.15] [--what TEXT] \\
        [--parent-commit SHA] [--note KEY=TEXT ...]

Each checkout's own ``perfbench/run.py`` runs with ``--trace 0``. Every
seed makes one pair per workload, and a pair runs the two sides back to
back; the side that goes first switches from pair to pair, starting with
the parent. The workloads, the end-to-end metrics, their direction and
their bounds come from the change's ``BENCHMARK.json``.

The output keeps every run, in seed order, and per metric the median and
quartiles of each side (``statistics.quantiles(n=4, method="inclusive")``),
the ratio of the medians, the median of the per-pair change/parent
ratios, the pairs the change won and whether the change's median stays
within the metric's bound. Whole processes run at different speeds, so
the per-pair median can show a gain that the ratio of medians hides. A
claim is met when the change is better than the parent median by the
given ratio, wins at least nine pairs in ten, and its median gain
exceeds the parent's interquartile range. Standard library only;
progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PAIRS_TO_WIN = 0.9


def seed_range(text: str) -> list[int]:
    """``FIRST-LAST`` as a list of seeds; fewer than two is refused, as the
    quartiles of each side need at least two runs."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(
            f"{text!r} names {len(seeds)} seed(s); at least two are needed"
        )
    return seeds


def parse_args(argv):
    parser = argparse.ArgumentParser(description="paired perfbench runs of two checkouts")
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="FIRST-LAST")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--claim", help="WORKLOAD:METRIC:RATIO")
    parser.add_argument("--what", default="")
    parser.add_argument("--parent-commit")
    parser.add_argument("--note", action="append", default=[], help="KEY=TEXT")
    return parser.parse_args(argv)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run: its exit code, meta line and JSON line."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0",
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    meta = next((json.loads(line[5:]) for line in lines if line.startswith("meta ")), {})
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{checkout}: {workload} seed {seed} printed no result "
                         f"(exit {done.returncode})") from None
    return {"exit_code": done.returncode, "meta": meta, **result}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def better(metric: dict, change: float, parent: float) -> bool:
    return change > parent if metric["better"] == "higher" else change < parent


def summarise_metric(metric: dict, runs: dict[str, list[float]]) -> dict:
    stats = {side: quartiles(runs[side]) for side in SIDES}
    parent, change = stats["parent"]["median"], stats["change"]["median"]
    bound = metric["bound"]
    if metric["better"] == "higher":
        within = change >= parent * (1 - bound)
    else:
        within = change <= parent * (1 + bound)
    ratios = [c / p for p, c in zip(runs["parent"], runs["change"])] if all(runs["parent"]) else []
    return {
        **stats,
        "change_over_parent": round(change / parent, 4) if parent else None,
        "median_of_pair_ratios": round(statistics.median(ratios), 4) if ratios else None,
        "pairs_won_by_change": sum(
            better(metric, c, p) for p, c in zip(runs["parent"], runs["change"])
        ),
        "bound": bound,
        "within_bound": within,
        "runs": {side: [round(v, 6) for v in runs[side]] for side in SIDES},
    }


def summarise_workload(metrics: list[dict], seeds: list[int], runs: dict[str, list[dict]]) -> dict:
    values = {
        m["name"]: {side: [run["metrics"][m["name"]]["value"] for run in runs[side]] for side in SIDES}
        for m in metrics
    }
    return {
        "pairs": len(seeds),
        "seeds": seeds,
        "correct": {side: all(run["correct"] for run in runs[side]) for side in SIDES},
        "failed": {side: sum(run["failed"] for run in runs[side]) for side in SIDES},
        "attempted": {side: sum(run["attempted"] for run in runs[side]) for side in SIDES},
        "exit_codes": {side: sorted({run["exit_code"] for run in runs[side]}) for side in SIDES},
        "metrics": {m["name"]: summarise_metric(m, values[m["name"]]) for m in metrics},
    }


def claim_verdict(spec: str, metrics: list[dict], workloads: dict) -> dict:
    workload, name, ratio = spec.split(":")
    ratio = float(ratio)
    metric = next(m for m in metrics if m["name"] == name)
    summary = workloads[workload]["metrics"][name]
    parent = summary["parent"]["median"]
    change = summary["change"]["median"]
    higher = metric["better"] == "higher"
    gain = change - parent if higher else parent - change
    factor = change / parent if higher else parent / change
    pairs = workloads[workload]["pairs"]
    needed = math.ceil(PAIRS_TO_WIN * pairs)
    won = summary["pairs_won_by_change"]
    iqr = summary["parent"]["q3"] - summary["parent"]["q1"]
    return {
        "metric": name,
        "workload": workload,
        "required": f"at least {ratio:g}x the paired parent ({'higher' if higher else 'lower'} is "
                    f"better), better on at least {needed} of {pairs} pairs, and median gain "
                    "above the parent's IQR",
        "parent_median": parent,
        "change_median": change,
        "change_over_parent": summary["change_over_parent"],
        "median_of_pair_ratios": summary["median_of_pair_ratios"],
        "pairs_won": won,
        "pairs": pairs,
        "median_gain": round(gain, 6),
        "parent_iqr": round(iqr, 6),
        "met": factor >= ratio and won >= needed and gain > iqr,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["end_to_end"]
    names = [w["name"] for w in spec["workloads"]]
    runs = {name: {side: [] for side in SIDES} for name in names}
    meta = {}
    for pair, seed in enumerate(args.seeds):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for name in names:
            for side in order:
                run = run_once(checkouts[side], name, seed, args.seconds)
                runs[name][side].append(run)
                meta.setdefault(side, run["meta"])
                value = run["metrics"].get("pkts_per_s", {}).get("value")
                print(f"seed {seed} {name} {side}: exit {run['exit_code']} pkts_per_s {value}",
                      file=sys.stderr, flush=True)

    workloads = {name: summarise_workload(metrics, args.seeds, runs[name]) for name in names}
    out = {
        "what": args.what,
        "parent_commit": args.parent_commit or meta["parent"].get("git_head"),
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {args.seconds:g} --trace 0",
        "pairs": f"{len(args.seeds)} alternating parent/change pairs per workload, seeds "
                 f"{args.seeds[0]}-{args.seeds[-1]} (parent first on the 1st, 3rd, ... pair; "
                 "change first on the others), workloads interleaved within each seed",
        "quartiles": "statistics.quantiles(values, n=4, method='inclusive') over the runs of "
                     "each side; 'runs' lists every run, in seed order",
        "host": {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "codec_backend": meta["change"].get("codec_backend"),
        },
    }
    if args.claim:
        out["claim"] = claim_verdict(args.claim, metrics, workloads)
    out["workloads"] = workloads
    if args.note:
        out["notes"] = dict(note.split("=", 1) for note in args.note)
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    ok = all(w["correct"]["change"] and w["exit_codes"]["change"] == [0] for w in workloads.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
