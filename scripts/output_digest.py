"""Print one SHA-256 per (config, command) of what the srv6sfc CLI writes.

    python3 scripts/output_digest.py > digests.txt

The configs are the bundled ``testbed.cfg`` and the chain8 and mesh
configs that ``perfbench/workloads.py`` generates for seeds 1 and 7
(read, never edited; a ``[bench]`` section is appended to the copy),
then two variants of ``testbed.cfg`` that take the testbed workload's
flows: its VNF made an SR-aware chain editor that inserts an SR-aware
pass-through VNF after itself (as ``tests/conftest.py``'s
``editor_config``), and its VNF made a prefix filter that drops the
flow. For each config the commands are ``run --trace
full``, ``run --trace terminal`` and ``trace`` on a few flows taken from
the workload's packets (the first ones, plus the first packet of every
distinct expected outcome), ``run --trace full --count 3`` on the flows
of ``DROP_FLOWS`` (a destination no node routes on ``testbed.cfg``, the
flow its filter variant drops, and a packet too large for the editor
variant's edited SRH, which the connector drops), ``bench`` with the config's own models
and with ``--capacity``/``--k0``, ``validate``, and ``route add`` on the
workload's ingress: a new prefix (printed, then written ``--in-place``
twice to show it is idempotent) and five refusals, one digest each (a bad
prefix, an undeclared segment, a repeated segment, an existing chain id
with other segments, and a prefix the node already steers). Seven option
values that ``bench`` and ``run`` refuse as usage errors get one digest
each (``USAGE_REFUSALS``). A digest covers each call's argv, exit code,
stdout and stderr, for ``bench`` the files it writes and for ``route add
--in-place`` the edited config.

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
from srv6sfc.config import load_config  # noqa: E402

SEEDS = (1, 7)
FIRST_FLOWS = 4
# Dropped flows by config label and digest name, each walked three times
# in one ``run``: the first packet renders its trace events, the others
# reuse them.
DROP_FLOWS = {
    "testbed": {"run-full-unrouted": ["--src", "EEEE::2", "--dst", "9999::1"]},
    "testbed-filter": {"run-full-filter-drop": ["--src", "EEEE::2", "--dst", "DDDD::2"]},
    # Fits the ingress encapsulation, not the editor's longer SRH: the
    # connector drops it at nfv.
    "testbed-editor": {
        "run-full-connector-drop": ["--src", "EEEE::2", "--dst", "DDDD::2", "--payload-bytes", "65440"],
    },
}
# Option values refused before any work: digest name -> command, options.
USAGE_REFUSALS = {
    "usage-bench-rates-empty": ["bench", "--rates", ","],
    "usage-bench-rates-negative": ["bench", "--rates", "-5"],
    "usage-bench-runs-zero": ["bench", "--runs", "0"],
    "usage-bench-capacity-zero": ["bench", "--capacity", "0"],
    "usage-bench-k0-alone": ["bench", "--k0", "5"],
    "usage-run-count-zero": ["run", "--count", "0"],
    "usage-run-sport-high": ["run", "--sport", "70000"],
}


def _bench_section(workload) -> str:
    """A ``[bench]`` section with the workload's first packet as the flow."""
    first = workload.packets[0].header
    return (
        f"\n[bench]\nflow src={first.src} dst={first.dst} ingress={workload.ingress}\n"
        "model aware capacity=45000 k0=9\nmodel unaware capacity=59000 k0=12.5\n"
        "rates 500,1000,1500,6000\nruns 5\n"
    )


def _configs():
    """(label, config text, workload) for every config digested. The
    generated configs have no ``[bench]`` section, so one is appended."""
    testbed = workloads.testbed(1)
    testbed_text = workloads.TESTBED_PATH.read_text(encoding="utf-8")
    yield "testbed", testbed_text, testbed
    for builder, name in ((workloads.chain8, "chain8"), (workloads.mesh, "mesh")):
        for seed in SEEDS:
            workload = builder(seed)
            yield f"{name}-seed{seed}", workload.config_text + _bench_section(workload), workload
    editing = testbed_text.replace(
        "BBBB::2 kind=sr-unaware node=nfv",
        "BBBB::2 kind=sr-aware node=nfv\nBBBB::3 kind=sr-aware node=nfv",
    ).replace(
        "BBBB::2 behavior=passthrough permission=insert-next-only",
        "BBBB::2 behavior=chain-editor:insert-after:BBBB::3 permission=insert-next-only\n"
        "BBBB::3 behavior=passthrough permission=insert-next-only",
    )
    yield "testbed-editor", editing, testbed
    dropping = testbed_text.replace("behavior=passthrough", "behavior=prefix-filter:DDDD::/64")
    yield "testbed-filter", dropping, testbed


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


def _route_calls(config: str, node: str) -> dict[str, list[str]]:
    """``route add`` argv by digest name: one accepted route, then the
    refusals. Each names ``node`` and a next hop linked to it."""
    loaded = load_config(config)
    neighbors = {b if a == node else a for a, b in loaded.links if node in (a, b)}
    via = next(str(d.addresses[0]) for d in loaded.nodes if d.node_id in neighbors and d.addresses)
    chain = loaded.chains[0]
    segs = [str(address) for address in chain.segments]
    steered = next(rule for rule in loaded.rules if rule.node_id == node)

    def route(prefix: str, seg_list: list[str], *extra: str) -> list[str]:
        return ["route", "add", prefix, "via", via, "encap", "seg", ",".join(seg_list),
                "--config", config, "--node", node, *extra]

    return {
        "route-accepted": route("ffff:ffff::/64", segs[-1:]),
        "route-bad-prefix": route("junk/99", segs),
        "route-unknown-segment": route("ffff:ffff::/64", ["1234:5678::1", *segs]),
        "route-repeated-sid": route("ffff:ffff::/64", [segs[0], *segs]),
        "route-chain-id": route("ffff:ffff::/64", segs[-1:], "--chain-id", chain.chain_id),
        "route-steered": route(str(steered.network), segs[-1:]),
    }


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
            for name, flow in DROP_FLOWS.get(label, {}).items():
                digests[name] = hashlib.sha256(
                    _call(["run", config, *flow, "--count", "3", "--trace", "full"])
                )
            for index, extra in enumerate(([], ["--capacity", "50000", "--k0", "10"])):
                out = f"{label}-bench{index}"
                digests["bench"].update(_call(["bench", config, "--out", out, *extra]))
                digests["bench"].update(_bench_files(Path(out)))
            digests["validate"] = hashlib.sha256(_call(["validate", config]))
            flow = _flows(workload)[0]
            for name, (command, *options) in USAGE_REFUSALS.items():
                out = f"{label}-{name}"
                where = ["--out", out] if command == "bench" else flow
                digests[name] = hashlib.sha256(
                    _call([command, config, *where, *options]) + _bench_files(Path(out))
                )
            routes = _route_calls(config, workload.ingress)
            for name, argv in routes.items():
                digests[name] = hashlib.sha256(_call(argv))
            # Written in place twice: the second write changes nothing.
            copy = f"{label}-route.cfg"
            Path(copy).write_text(text, encoding="utf-8")
            argv = [copy if arg == config else arg for arg in routes["route-accepted"]]
            idempotent = digests["route-idempotent"] = hashlib.sha256()
            for _ in range(2):
                idempotent.update(_call([*argv, "--in-place"]) + Path(copy).read_bytes())
            for name, digest in digests.items():
                print(f"{label} {name} {digest.hexdigest()}")
        os.chdir(ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
