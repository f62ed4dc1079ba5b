"""Smoke test of ``scripts/inprocess_ab.py``: this checkout against itself."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINE = re.compile(
    r"(\S+) (parent|change) first: (median change/parent \d+\.\d{3}x, change won [01] of 1 rounds"
    r"|per-kind quantiles over 3 passes, change/parent pkts_per_s \d+\.\d{3}x, "
    r"p50 \d+\.\d{3}x, p99 \d+\.\d{3}x)"
)


def tree_files() -> dict[str, int]:
    """Every file the script could write to, with its modification time."""
    return {
        str(path): path.stat().st_mtime_ns
        for directory in ("src", "scripts", "perfbench")
        for path in (ROOT / directory).rglob("*")
    }


def test_inprocess_ab_runs_both_load_orders_and_writes_nothing():
    before = tree_files()
    done = subprocess.run(
        [
            sys.executable, "scripts/inprocess_ab.py", "--parent", ".", "--change", ".",
            "--rounds", "1", "--packets", "8",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    matches = [LINE.fullmatch(line) for line in done.stdout.splitlines()]
    assert all(matches), done.stdout
    # Per workload and load order, the best-pass line, then the quantile line.
    assert [(match[1], match[2], match[3].startswith("median")) for match in matches] == [
        (workload, order, best_pass)
        for workload in ("testbed-unaware-64B", "chain8-aware-fulltrace", "mesh-mixed-manyflows")
        for order in ("parent", "change")
        for best_pass in (True, False)
    ]
    assert tree_files() == before
