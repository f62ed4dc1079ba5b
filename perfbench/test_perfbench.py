"""Self-test of the benchmark. It sets no timing bounds.

Quick runs of every workload validate the output schema against
BENCHMARK.json; the traced counts must repeat exactly; the correctness
gate must fail a run whose delivered payloads are corrupted; the mesh
shape must stay in its bands on a second seed; and the benchmark must
refuse to run where the program is missing.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
from array import array
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checkout import BENCHMARK_JSON, ROOT, require_src  # noqa: E402

require_src()

import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from gate import Gate  # noqa: E402
from srv6sfc.dataplane import VnfAction  # noqa: E402

SPEC = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Per-layer metrics that count work rather than time it.
EXACT_SUFFIXES = (".calls_per_pkt", "bytes_per_pkt", "kept_ratio", "hops_per_pkt",
                  "vnf_calls_per_pkt", "ledger_records")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


_runs: dict[tuple, subprocess.CompletedProcess] = {}


def quick(workload: str, trace: int, attempt: int = 0) -> subprocess.CompletedProcess:
    key = (workload, trace, attempt)
    if key not in _runs:
        _runs[key] = run_bench(
            "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)
        )
    return _runs[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_prints_every_metric(workload, trace):
    proc = quick(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0
    assert any(line.startswith("error_rate ") for line in proc.stdout.splitlines())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = last_json(quick(workload, 1)), last_json(quick(workload, 1, attempt=1))
    exact = [name for name in first["metrics"] if name.endswith(EXACT_SUFFIXES)]
    assert len(exact) > 20
    for name in exact:
        assert first["metrics"][name] == second["metrics"][name], name


def test_testbed_counts_match_the_walk():
    result = last_json(quick("testbed-unaware-64B", 1))
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert metrics["wire.parse_packet.calls_per_pkt"] == 2
    assert metrics["wire.serialize_packet.calls_per_pkt"] == 2
    assert metrics["trace.Trace.add.calls_per_pkt"] == 11
    assert metrics["trace.kept_ratio"] == 1 / 11


def test_quiet_times_are_a_low_quantile_per_kind():
    kinds = ["plain", "chain", "plain"]
    passes = [array("q", [100, 500, 900]), array("q", [300, 700, 200])]
    assert measure.quiet_times(kinds, passes) == [100, 500, 100]


def _flip_last_byte(packet):
    payload = packet.payload[:-1] + bytes([packet.payload[-1] ^ 0xFF])
    return VnfAction.modified(replace(packet, payload=payload))


_load_network = measure.load_network


def _corrupting_network(path):
    network = _load_network(path)
    for vnf in network.node("nfv").hosted_vnfs:
        vnf.behavior = _flip_last_byte
    return network


def test_gate_flags_corrupted_payload():
    workload = workloads.build("testbed-unaware-64B", 1)
    network = _corrupting_network(workload.bundled_path)
    gate = Gate(workload, network)
    walked = measure.walk(workload, network, gate, count=50)
    assert walked.failed == 50
    assert "differs from the packet sent" in gate.failures[0]


def test_corrupted_run_exits_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(measure, "load_network", _corrupting_network)
    code = run.main(
        ["--workload", "testbed-unaware-64B", "--seed", "1", "--seconds", "0.5", "--trace", "0"]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_mesh_shape_stays_in_band_on_a_second_seed():
    shapes = [workloads.mesh(seed).shape for seed in (1, 2)]
    for shape in shapes:
        assert workloads.shape_problems(shape) == []
    assert shapes[0] != shapes[1]


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_node_cost_meets_readme_formulas(n):
    assert workloads.node_cost([workloads.AWARE] * n) == (n + 2, 0, 0)
    assert workloads.node_cost([workloads.UNAWARE] * n) == (2 * n + 1, 1, 1)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        Path(__file__).resolve().parent, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = run_bench(
        "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
