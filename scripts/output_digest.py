"""Print one SHA-256 per (config, command) of what the srv6sfc CLI writes.

    python3 scripts/output_digest.py > digests.txt

The configs are the bundled ``testbed.cfg`` and the chain8 and mesh
configs that ``perfbench/workloads.py`` generates for seeds 1 and 7
(read, never edited; a ``[bench]`` section is appended to the copy). For each config the commands are ``run --trace
full``, ``run --trace terminal`` and ``trace`` on a few flows taken from
the workload's packets (the first ones, plus the first packet of every
distinct expected outcome), and ``bench`` with the config's own models
and with ``--capacity``/``--k0``. A digest covers each call's argv, exit
code, stdout and stderr, and for ``bench`` the files it writes.

Everything runs in-process against the ``src/`` of the checkout this
script sits in, from a scratch directory, with every path relative to
it. So two checkouts can be compared with ``diff`` of their outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402  (perfbench's generators)
from srv6sfc import cli  # noqa: E402

SEEDS = (1, 7)
FIRST_FLOWS = 4


def _configs():
    """(label, config text, workload) for every config digested. The
    generated configs have no ``[bench]`` section, so one is appended
    with the workload's first packet as the bench flow."""
    yield "testbed", workloads.TESTBED_PATH.read_text(encoding="utf-8"), workloads.testbed(1)
    for builder, name in ((workloads.chain8, "chain8"), (workloads.mesh, "mesh")):
        for seed in SEEDS:
            workload = builder(seed)
            first = workload.packets[0].header
            bench = (
                f"\n[bench]\nflow src={first.src} dst={first.dst} ingress={workload.ingress}\n"
                "model aware capacity=45000 k0=9\nmodel unaware capacity=59000 k0=12.5\n"
                "rates 500,1000,1500,6000\nruns 5\n"
            )
            yield f"{name}-seed{seed}", workload.config_text + bench, workload


def _flows(workload) -> list[list[str]]:
    """CLI flow arguments of the first packets and of the first packet
    of each distinct expected outcome, in packet order."""
    picked, outcomes = [], set()
    for index, (packet, expect) in enumerate(zip(workload.packets, workload.expects)):
        if index < FIRST_FLOWS or expect not in outcomes:
            outcomes.add(expect)
            picked.append(packet)
    flows = []
    for packet in picked:
        sport = int.from_bytes(packet.payload[0:2], "big")
        dport = int.from_bytes(packet.payload[2:4], "big")
        flows.append([
            "--src", str(packet.header.src), "--dst", str(packet.header.dst),
            "--ingress", workload.ingress, "--payload-bytes", str(len(packet.payload) - 8),
            "--sport", str(sport), "--dport", str(dport),
        ])
    return flows


def _call(argv: list[str]) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return f"{argv}\n{code}\n{out.getvalue()}\n{err.getvalue()}\n".encode()


def _bench_files(out: Path) -> bytes:
    if not out.is_dir():
        return b""
    return b"".join(
        path.name.encode() + b"\n" + path.read_bytes() for path in sorted(out.iterdir())
    )


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        for label, text, workload in _configs():
            config = f"{label}.cfg"
            Path(config).write_text(text, encoding="utf-8")
            digests = {
                name: hashlib.sha256() for name in ("run-full", "run-terminal", "trace", "bench")
            }
            for flow in _flows(workload):
                for mode in ("full", "terminal"):
                    digests[f"run-{mode}"].update(
                        _call(["run", config, *flow, "--count", "2", "--trace", mode])
                    )
                digests["trace"].update(_call(["trace", config, *flow]))
            for index, extra in enumerate(([], ["--capacity", "50000", "--k0", "10"])):
                out = f"{label}-bench{index}"
                digests["bench"].update(_call(["bench", config, "--out", out, *extra]))
                digests["bench"].update(_bench_files(Path(out)))
            for name, digest in digests.items():
                print(f"{label} {name} {digest.hexdigest()}")
        os.chdir(ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
