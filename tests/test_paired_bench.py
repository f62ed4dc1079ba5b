"""scripts/paired_bench.py: seed refusal, claim verdicts, pair order."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "paired_bench.py"
_spec = importlib.util.spec_from_file_location("paired_bench", _SCRIPT)
paired_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_bench)

RATE = {"name": "pkts_per_s", "unit": "1/s", "better": "higher", "bound": 0.24}
LATENCY = {"name": "pkt_us_p50", "unit": "us", "better": "lower", "bound": 0.24}


@pytest.mark.parametrize("seeds", ["2401", "2410-2401"])
def test_fewer_than_two_seeds_are_refused_before_any_run(seeds, tmp_path, monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(paired_bench, "run_once", no_run)
    argv = ["--parent", str(tmp_path), "--change", str(tmp_path), "--seeds", seeds,
            "--seconds", "1", "--out", str(tmp_path / "out.json")]
    with pytest.raises(SystemExit) as caught:
        paired_bench.main(argv)
    assert caught.value.code == 2
    assert f"argument --seeds: '{seeds}' names" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()
    assert paired_bench.seed_range("2401-2402") == [2401, 2402]


def verdict(metric, parent, change, ratio):
    """``claim_verdict`` of one workload whose runs are ``parent`` and ``change``."""
    summary = paired_bench.summarise_metric(metric, {"parent": parent, "change": change})
    workloads = {"w": {"pairs": len(parent), "metrics": {metric["name"]: summary}}}
    return paired_bench.claim_verdict(f"w:{metric['name']}:{ratio}", [metric], workloads)


PARENT = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]


def test_claim_on_a_higher_is_better_metric():
    change = [value * 1.2 for value in PARENT]
    met = verdict(RATE, PARENT, change, 1.15)
    assert (met["met"], met["pairs_won"], met["pairs"]) == (True, 10, 10)
    assert met["change_over_parent"] == pytest.approx(1.2)
    assert met["parent_iqr"] == pytest.approx(4.5)
    # Ratio rule: 1.2x does not meet a 1.25x claim.
    assert not verdict(RATE, PARENT, change, 1.25)["met"]
    # Pairs rule: 8 of 10 pairs won is not enough, whatever the medians say.
    lost = change[:8] + [PARENT[8] - 1, PARENT[9] - 1]
    lost_verdict = verdict(RATE, PARENT, lost, 1.15)
    assert lost_verdict["pairs_won"] == 8 and not lost_verdict["met"]
    # IQR rule: a gain inside the parent's spread is not a win.
    spread = [10.0, 10.0, 10.0, 100.0, 100.0, 100.0, 100.0, 1000.0, 1000.0, 1000.0]
    narrow = [value + 1 for value in spread]
    narrow_verdict = verdict(RATE, spread, narrow, 1.0)
    assert narrow_verdict["pairs_won"] == 10
    assert narrow_verdict["median_gain"] < narrow_verdict["parent_iqr"]
    assert not narrow_verdict["met"]


def test_claim_on_a_lower_is_better_metric():
    change = [value / 1.2 for value in PARENT]
    met = verdict(LATENCY, PARENT, change, 1.15)
    assert (met["met"], met["pairs_won"]) == (True, 10)
    assert met["median_gain"] == pytest.approx(104.5 - 104.5 / 1.2)
    # The ratio is parent over change: 1.2x, short of 1.25x.
    assert not verdict(LATENCY, PARENT, change, 1.25)["met"]
    # Slower runs win no pair of a lower-is-better metric.
    slower = verdict(LATENCY, PARENT, [value * 1.2 for value in PARENT], 1.0)
    assert (slower["pairs_won"], slower["met"]) == (0, False)


def test_median_of_pair_ratios_is_reported_beside_the_ratio_of_medians():
    # Processes run at one of two speeds. The change gains 10% in each
    # pair but the third, where a fast parent met a slow change, yet its
    # median lands on the slow speed and the parent's on the fast one.
    parent = [100.0, 100.0, 200.0, 200.0, 200.0]
    change = [110.0, 110.0, 110.0, 220.0, 220.0]
    summary = paired_bench.summarise_metric(RATE, {"parent": parent, "change": change})
    assert summary["change_over_parent"] == pytest.approx(0.55)
    assert summary["median_of_pair_ratios"] == pytest.approx(1.1)
    # The claim's rules still read the medians, and only report the pairs.
    met = verdict(RATE, parent, change, 1.05)
    assert not met["met"] and met["median_of_pair_ratios"] == pytest.approx(1.1)
    zero = paired_bench.summarise_metric(LATENCY, {"parent": [0.0, 1.0], "change": [1.0, 1.0]})
    assert zero["median_of_pair_ratios"] is None


def test_main_alternates_the_side_that_goes_first(tmp_path, monkeypatch):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    spec = {"workloads": [{"name": "w1"}, {"name": "w2"}], "end_to_end": [RATE, LATENCY]}
    (change / "BENCHMARK.json").write_text(json.dumps(spec), encoding="utf-8")
    order = []

    def fake_run(checkout, workload, seed, seconds):
        side = checkout.name
        order.append((seed, workload, side))
        rate = 100.0 + seed + (20 if side == "change" else 0)
        return {
            "exit_code": 0, "meta": {"git_head": f"{side}-head"}, "correct": True,
            "failed": 0, "attempted": 10,
            "metrics": {"pkts_per_s": {"value": rate}, "pkt_us_p50": {"value": 1e6 / rate}},
        }

    monkeypatch.setattr(paired_bench, "run_once", fake_run)
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(parent), "--change", str(change), "--seeds", "1-4", "--seconds", "1",
            "--out", str(out), "--claim", "w1:pkts_per_s:1.1"]
    assert paired_bench.main(argv) == 0
    firsts = [side for seed, workload, side in order[::2]]
    assert firsts == ["parent", "parent", "change", "change"] * 2
    assert [(seed, workload) for seed, workload, _ in order[::2]] == [
        (1, "w1"), (1, "w2"), (2, "w1"), (2, "w2"), (3, "w1"), (3, "w2"), (4, "w1"), (4, "w2"),
    ]
    assert all(a[:2] == b[:2] and a[2] != b[2] for a, b in zip(order[::2], order[1::2]))
    written = json.loads(out.read_text(encoding="utf-8"))
    assert written["parent_commit"] == "parent-head"
    assert written["claim"]["pairs_won"] == 4 and written["claim"]["met"]
    rates = written["workloads"]["w1"]["metrics"]["pkts_per_s"]["runs"]
    assert rates == {"parent": [101.0, 102.0, 103.0, 104.0], "change": [121.0, 122.0, 123.0, 124.0]}
