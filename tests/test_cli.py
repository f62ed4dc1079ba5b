"""Command surface: exit codes, trace output, CSV determinism."""

from __future__ import annotations

import json
import sys
from ipaddress import IPv6Address
from pathlib import Path

import pytest

from srv6sfc import cli
from srv6sfc.config import load_config
from srv6sfc.sim import FlowSpec, run_flow

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402  (the benchmark's config and packet generators)

RUN_ARGS = ["--src", "EEEE::2", "--dst", "DDDD::2"]


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_single_packet(testbed_config_path, capsys):
    code, out, _ = run_cli(
        ["run", testbed_config_path, *RUN_ARGS, "--count", "1"], capsys
    )
    assert code == cli.EXIT_OK
    lines = out.strip().splitlines()
    events = [json.loads(line) for line in lines[:-1]]
    assert len(events) == 11
    assert [e["event"] for e in events] == [
        "Classified", "Encapsulated", "Forwarded",
        "SegmentAdvanced", "Decapsulated", "VnfDelivered", "VnfReturned",
        "ReEncapsulated", "Forwarded",
        "Decapsulated", "Delivered",
    ]
    summary = json.loads(lines[-1])["summary"]
    assert summary["status"] == "ok"
    assert summary["delivered"] == 1
    assert summary["ledgers"]["nfv"] == {"f": 3, "d": 1, "e": 1, "cost_units": 4.0}


def test_run_terminal_trace_mode(testbed_config_path, capsys):
    code, out, _ = run_cli(
        ["run", testbed_config_path, *RUN_ARGS, "--count", "3", "--trace", "terminal"],
        capsys,
    )
    assert code == cli.EXIT_OK
    lines = out.strip().splitlines()
    events = [json.loads(line) for line in lines[:-1]]
    assert len(events) == 3
    assert all(e["event"] == "Delivered" for e in events)


def test_run_drop_exits_nonzero(testbed_config_path, tmp_path, capsys):
    text = Path(testbed_config_path).read_text().replace(
        "behavior=passthrough", "behavior=prefix-filter:DDDD::/64"
    )
    cfg = tmp_path / "filter.cfg"
    cfg.write_text(text)
    code, out, _ = run_cli(["run", str(cfg), *RUN_ARGS, "--count", "2"], capsys)
    assert code == cli.EXIT_DROPPED
    summary = json.loads(out.strip().splitlines()[-1])["summary"]
    assert summary["status"] == "dropped"
    assert summary["dropped"] == 2
    assert "vnf bbbb::2" in summary["drop_reasons"]


def _summary_case(name: str, testbed_path: str) -> tuple[str, FlowSpec]:
    """A config text and a flow through it, by case name."""
    testbed = Path(testbed_path).read_text(encoding="utf-8")
    flow = FlowSpec("er1", IPv6Address("EEEE::2"), IPv6Address("DDDD::2"), 3)
    if name == "testbed":
        return testbed, flow
    if name == "prefix-filter":
        return testbed.replace("behavior=passthrough", "behavior=prefix-filter:DDDD::/64"), flow
    if name == "chain8":
        return workloads.chain8_config(), flow
    # The mesh packet that charges the most nodes.
    mesh = workloads.mesh(1)
    index = max(range(len(mesh.expects)),
                key=lambda i: sum(cost != (0, 0, 0) for cost in mesh.expects[i].ledger))
    packet = mesh.packets[index]
    udp = packet.payload
    return mesh.config_text, FlowSpec(
        mesh.ingress, packet.header.src, packet.header.dst, 3, len(udp) - 8,
        int.from_bytes(udp[0:2], "big"), int.from_bytes(udp[2:4], "big"),
    )


@pytest.mark.parametrize("name", ["testbed", "prefix-filter", "chain8", "mesh"])
def test_run_summary_is_the_flow_summary(name, testbed_config_path, tmp_path, capsys):
    text, flow = _summary_case(name, testbed_config_path)
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text, encoding="utf-8")
    code, out, _ = run_cli(
        ["run", str(cfg), "--src", str(flow.src), "--dst", str(flow.dst), "--ingress", flow.ingress,
         "--count", str(flow.count), "--payload-bytes", str(flow.payload_size),
         "--sport", str(flow.src_port), "--dport", str(flow.dst_port), "--trace", "terminal"],
        capsys,
    )
    summary = json.loads(out.splitlines()[-1])["summary"]
    network = load_config(cfg).build_network()
    expected = run_flow(network, flow)
    assert code == (cli.EXIT_OK if expected.dropped == 0 else cli.EXIT_DROPPED)
    assert (summary["delivered"], summary["dropped"]) == (expected.delivered, expected.dropped)
    assert summary["drop_reasons"] == expected.drop_reasons
    assert {node: (c["f"], c["d"], c["e"]) for node, c in summary["ledgers"].items()} == \
        expected.ledger_deltas
    # The walks' costs are what a fresh network's ledgers hold after the flow.
    assert expected.ledger_deltas == {
        node: ledger.counts() for node, ledger in network.ledgers.items()
        if ledger.counts() != (0, 0, 0)
    }


def test_run_drops_packet_too_big_for_the_wire(testbed_config_path, capsys):
    # 65447 B of UDP payload make an outer payload of exactly 65535 B.
    code, out, _ = run_cli(
        ["run", testbed_config_path, *RUN_ARGS, "--payload-bytes", "65447", "--trace", "terminal"],
        capsys,
    )
    assert code == cli.EXIT_OK
    assert json.loads(out.splitlines()[0])["event"] == "Delivered"

    code, out, _ = run_cli(
        ["run", testbed_config_path, *RUN_ARGS, "--payload-bytes", "65448", "--trace", "terminal"],
        capsys,
    )
    assert code == cli.EXIT_DROPPED
    event, summary = (json.loads(line) for line in out.splitlines())
    reason = "encapsulated payload of 65536 B exceeds 65535 B"
    assert (event["node"], event["event"], event["detail"]) == ("er1", "Dropped", reason)
    assert summary["summary"]["drop_reasons"] == {reason: 1}


def test_missing_config_is_parse_error(tmp_path, capsys):
    code, _, err = run_cli(["run", str(tmp_path / "nope.cfg"), *RUN_ARGS], capsys)
    assert code == cli.EXIT_PARSE
    assert json.loads(err)["error"] == "ParseError"


def test_validate_ok(testbed_config_path, capsys):
    code, out, _ = run_cli(["validate", testbed_config_path], capsys)
    assert code == cli.EXIT_OK
    assert "3 nodes" in out


def test_validate_reports_all_errors(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text(
        "[nodes]\n"
        "er1 ingress-edge addrs=AAAA::2\n"
        "[links]\n"
        "er1 ghost\n"
        "[sids]\n"
        "BBBB::2 kind=sr-unaware node=nowhere\n"
    )
    code, _, err = run_cli(["validate", str(cfg)], capsys)
    assert code == cli.EXIT_VALIDATION
    payload = json.loads(err)
    assert payload["error"] == "ValidationError"
    assert len(payload["detail"]) >= 2


def test_bench_deterministic_csvs(testbed_config_path, tmp_path, capsys):
    digests = []
    for name in ("one", "two"):
        out_dir = tmp_path / name
        code, _, _ = run_cli(
            ["bench", testbed_config_path, "--seed", "42", "--out", str(out_dir)],
            capsys,
        )
        assert code == cli.EXIT_OK
        digests.append(
            (
                (out_dir / "points.csv").read_bytes(),
                (out_dir / "regression.csv").read_bytes(),
            )
        )
    assert digests[0] == digests[1]
    assert b"SR kernel + hook" in digests[0][0]


def test_bench_single_rate_refuses_regression(testbed_config_path, tmp_path, capsys):
    code, _, err = run_cli(
        [
            "bench", testbed_config_path,
            "--scenario", "aware",
            "--rates", "5000",
            "--runs", "1",
            "--out", str(tmp_path / "b"),
        ],
        capsys,
    )
    assert code == cli.EXIT_BENCH
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "InsufficientPoints"
    assert "regression refused" in payload["detail"]


def test_bench_table_printed(testbed_config_path, tmp_path, capsys):
    code, out, _ = run_cli(
        ["bench", testbed_config_path, "--noise", "0", "--runs", "1",
         "--rates", "1000,3000,6000,9000", "--out", str(tmp_path / "t")],
        capsys,
    )
    assert code == cli.EXIT_OK
    lines = out.splitlines()
    assert "SR kernel" in lines[0] and "SR kernel + hook" in lines[0]
    assert lines[1].startswith("k [CPU %]") and "8.9" in lines[1] and "12.5" in lines[1]
    assert lines[2].startswith("m [CPU %/kpps]") and "6.64" in lines[2] and "6.78" in lines[2]


def test_route_add_prints_updated_config(testbed_config_path, capsys):
    code, out, _ = run_cli(
        [
            "route", "add", "FFFF::/64", "via", "AAAA::1", "encap", "seg", "CCCC::2",
            "--config", testbed_config_path,
        ],
        capsys,
    )
    assert code == cli.EXIT_OK
    assert "er1 ffff::/64 chain=rt-ffff::-64" in out
    assert "rt-ffff::-64 segs=cccc::2" in out


def test_route_add_idempotent_output(testbed_config_path, capsys):
    argv = [
        "route", "add", "DDDD::2/64", "via", "AAAA::1", "encap", "seg",
        "BBBB::2,CCCC::2", "--config", testbed_config_path,
    ]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second


def _without_routes(text: str) -> str:
    head, _, rest = text.partition("[routes]\n")
    return head + rest[rest.index("[bench]"):]


def _with_new_route(text: str) -> str:
    """``text`` with the three lines of ``_NEW_ROUTE``, each after its section's last line."""
    return text.replace(
        "direction=uni\n", "direction=uni\nrt-ffff::-64 segs=cccc::2 src=aaaa::2\n"
    ).replace(
        "chain=c1\n", "chain=c1\ner1 ffff::/64 chain=rt-ffff::-64\n"
    ).replace(
        "er2 EEEE::/64 via nfv\n", "er2 EEEE::/64 via nfv\ner1 ffff::/64 via nfv\n"
    )


_NEW_ROUTE = ["FFFF::/64", "via", "AAAA::1", "encap", "seg", "CCCC::2"]
_INSTALLED_ROUTE = ["DDDD::2/64", "via", "AAAA::1", "encap", "seg", "BBBB::2,CCCC::2"]


def _same(text: str) -> str:
    return text


@pytest.mark.parametrize(
    "edit_file, route, edited",
    [
        # Re-adding the route the testbed installs changes no byte.
        pytest.param(_same, _INSTALLED_ROUTE, _same, id="installed"),
        pytest.param(lambda text: text.replace("\n", "\r\n"), _INSTALLED_ROUTE, _same,
                     id="installed-crlf"),
        pytest.param(_same, _NEW_ROUTE, _with_new_route, id="new"),
        pytest.param(_without_routes, _INSTALLED_ROUTE,
                     lambda text: text + "\n[routes]\ner1 dddd::/64 via nfv\n", id="section-appended"),
        pytest.param(lambda text: text.replace("chain=c1\n", "chain=c1\n# steered prefixes\n"),
                     _NEW_ROUTE, _with_new_route, id="comment-kept"),
    ],
)
def test_route_add_edits_only_the_missing_lines(
    testbed_config_path, tmp_path, capsys, edit_file, route, edited
):
    text = edit_file(Path(testbed_config_path).read_text(encoding="utf-8"))
    cfg = tmp_path / "testbed.cfg"
    cfg.write_bytes(text.encode("utf-8"))
    argv = ["route", "add", *route, "--config", str(cfg)]
    assert run_cli(argv, capsys) == (cli.EXIT_OK, edited(text), "")
    assert run_cli([*argv, "--in-place"], capsys) == (cli.EXIT_OK, f"updated {cfg}\n", "")
    assert cfg.read_bytes() == edited(text).encode("utf-8")


def test_route_add_bad_prefix(testbed_config_path, capsys):
    code, _, err = run_cli(
        ["route", "add", "junk/one", "via", "AAAA::1", "encap", "seg", "CCCC::2",
         "--config", testbed_config_path],
        capsys,
    )
    assert code == cli.EXIT_VALIDATION
    assert json.loads(err) == {
        "error": "ValidationError",
        "detail": ["bad prefix 'junk/one': At least 3 parts expected in 'junk'"],
    }


def test_route_add_for_a_steered_prefix_is_refused(testbed_config_path, tmp_path, capsys):
    # As in Linux ("File exists"): DDDD::/64 is already steered through c1,
    # so a second rule for it on er1 would be ambiguous.
    cfg = tmp_path / "testbed.cfg"
    text = Path(testbed_config_path).read_text(encoding="utf-8")
    cfg.write_text(text, encoding="utf-8")
    code, out, err = run_cli(
        ["route", "add", "DDDD::2/64", "via", "AAAA::1", "encap", "seg", "CCCC::2",
         "--config", str(cfg), "--in-place"],
        capsys,
    )
    assert (code, out) == (cli.EXIT_VALIDATION, "")
    assert json.loads(err) == {
        "error": "ValidationError",
        "detail": ["duplicate rule declaration for dddd::/64 on 'er1'"],
    }
    assert cfg.read_text(encoding="utf-8") == text


@pytest.mark.parametrize(
    "prefix, segs, extra, problem",
    [
        pytest.param("FFFF::/64", "BBBB::2,BBBB::2,CCCC::2", [],
                     "chain 'rt-ffff::-64' lists bbbb::2 twice", id="repeated-sid"),
        pytest.param("FFFF::/64", "CCCC::2", ["--chain-id", "c1"], "duplicate chain id 'c1'",
                     id="chain-id-taken"),
        # Every argument is read by the config file's own readers and every
        # refusal is one problem list.
        pytest.param("junk/one", "CCCC::2", [],
                     "bad prefix 'junk/one': At least 3 parts expected in 'junk'", id="bad-prefix"),
        pytest.param("FFFF::/64", "BBBB::2,CCCC::x", [],
                     "bad address: Only hex digits permitted in 'x' in 'CCCC::x'", id="bad-address"),
        pytest.param("FFFF::/64", "1234::1,CCCC::2", [],
                     "chain 'rt-ffff::-64' references undeclared SID 1234::1",
                     id="undeclared-segment"),
    ],
)
def test_route_add_chain_refusals_exit_four_and_leave_the_file(
    testbed_config_path, tmp_path, capsys, prefix, segs, extra, problem
):
    cfg = tmp_path / "testbed.cfg"
    data = Path(testbed_config_path).read_bytes()
    cfg.write_bytes(data)
    argv = ["route", "add", prefix, "via", "AAAA::1", "encap", "seg", segs,
            "--config", str(cfg), *extra]
    for in_place in ([], ["--in-place"]):
        code, out, err = run_cli([*argv, *in_place], capsys)
        assert (code, out) == (cli.EXIT_VALIDATION, ""), in_place
        assert json.loads(err) == {"error": "ValidationError", "detail": [problem]}
        assert cfg.read_bytes() == data


def test_bench_without_a_capacity_model_is_a_validation_error(
    testbed_config_path, tmp_path, capsys
):
    lines = Path(testbed_config_path).read_text(encoding="utf-8").splitlines(keepends=True)
    cfg = tmp_path / "nomodel.cfg"
    cfg.write_text("".join(line for line in lines if not line.startswith("model ")), encoding="utf-8")
    assert run_cli(["validate", str(cfg)], capsys)[0] == cli.EXIT_OK
    code, out, err = run_cli(["bench", str(cfg), "--out", str(tmp_path / "out")], capsys)
    assert (code, out) == (cli.EXIT_VALIDATION, "")
    detail = ["no capacity model for scenario 'aware'"]
    assert err == json.dumps({"error": "ValidationError", "detail": detail}) + "\n"


def test_scenario_kind_that_breaks_a_chain_is_a_validation_error(
    testbed_config_path, tmp_path, capsys
):
    # One SR-aware SID in two chains loads, but the SR-unaware scenario
    # would map its one interface to both chains.
    text = Path(testbed_config_path).read_text(encoding="utf-8")
    text = text.replace("kind=sr-unaware", "kind=sr-aware").replace(
        "direction=uni\n", "direction=uni\nc2 segs=BBBB::2,CCCC::2 src=AAAA::2\n"
    )
    cfg = tmp_path / "two-chains.cfg"
    cfg.write_text(text, encoding="utf-8")
    assert run_cli(["validate", str(cfg)], capsys)[0] == cli.EXIT_OK
    code, out, err = run_cli(["bench", str(cfg), "--out", str(tmp_path / "both")], capsys)
    assert (code, out) == (cli.EXIT_VALIDATION, "")
    detail = [
        "VNF SIDs as sr-unaware: UnivocalMappingViolation: SR-unaware interface "
        "(bbbb::2, single) already feeds chain 'c1'; cannot also feed 'c2'"
    ]
    assert err == json.dumps({"error": "ValidationError", "detail": detail}) + "\n"
    aware = ["bench", str(cfg), "--scenario", "aware", "--out", str(tmp_path / "aware")]
    assert run_cli(aware, capsys)[0] == cli.EXIT_OK


def test_scenario_kind_that_unmakes_a_chain_editor_is_a_validation_error(
    testbed_config_path, tmp_path, capsys
):
    # BBBB::2 is an SR-aware chain editor on the bench flow's chain; the
    # SR-unaware scenario would hand it a packet without an SRH.
    text = Path(testbed_config_path).read_text(encoding="utf-8").replace(
        "BBBB::2 kind=sr-unaware node=nfv\n",
        "BBBB::2 kind=sr-aware node=nfv\nBBBB::3 kind=sr-aware node=nfv\n",
    ).replace(
        "BBBB::2 behavior=passthrough permission=insert-next-only\n",
        "BBBB::2 behavior=chain-editor:insert-after:BBBB::3 permission=insert-next-only\n"
        "BBBB::3 behavior=passthrough permission=insert-next-only\n",
    )
    cfg = tmp_path / "editor.cfg"
    cfg.write_text(text, encoding="utf-8")
    assert run_cli(["validate", str(cfg)], capsys)[0] == cli.EXIT_OK
    assert run_cli(["run", str(cfg), *RUN_ARGS], capsys)[0] == cli.EXIT_OK
    aware = ["bench", str(cfg), "--scenario", "aware", "--out", str(tmp_path / "aware")]
    assert run_cli(aware, capsys)[0] == cli.EXIT_OK
    detail = [
        "VNF SIDs as sr-unaware: chain 'c1' at bbbb::2: InvalidEdit: "
        "SR-unaware VNF bbbb::2 sees no SRH and cannot edit it"
    ]
    for scenario in ("unaware", "both"):
        out_dir = tmp_path / scenario
        argv = ["bench", str(cfg), "--scenario", scenario, "--out", str(out_dir)]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (cli.EXIT_VALIDATION, ""), scenario
        assert err == json.dumps({"error": "ValidationError", "detail": detail}) + "\n"
        assert not out_dir.exists()
    # A chain that avoids the editor still sweeps both scenarios.
    avoiding = tmp_path / "avoiding.cfg"
    text = text.replace("c1 segs=BBBB::2,", "c1 segs=BBBB::3,")
    avoiding.write_text(text, encoding="utf-8")
    assert run_cli(["bench", str(avoiding), "--out", str(tmp_path / "avoiding")], capsys)[0] == cli.EXIT_OK
    # Every chain is walked, not only the bench flow's: a second chain
    # through the editor unmakes the unaware scenario.
    crossing = tmp_path / "crossing.cfg"
    crossing.write_text(text.replace("[rules]", "c2 segs=BBBB::2,CCCC::2 src=AAAA::2\n\n[rules]"),
                        encoding="utf-8")
    aware = ["bench", str(crossing), "--scenario", "aware", "--out", str(tmp_path / "crossing-aware")]
    assert run_cli(aware, capsys)[0] == cli.EXIT_OK
    argv = ["bench", str(crossing), "--scenario", "unaware", "--out", str(tmp_path / "crossing")]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (cli.EXIT_VALIDATION, "")
    detail = [detail[0].replace("chain 'c1'", "chain 'c2'")]
    assert err == json.dumps({"error": "ValidationError", "detail": detail}) + "\n"


def test_route_add_malformed_tokens(testbed_config_path, capsys):
    code, _, err = run_cli(
        ["route", "add", "FFFF::/64", "through", "AAAA::1", "encap", "seg", "CCCC::2",
         "--config", testbed_config_path],
        capsys,
    )
    assert code == cli.EXIT_USAGE
    assert json.loads(err)["error"] == "UsageError"


def test_trace_dumps_encapsulated_packet(testbed_config_path, capsys):
    code, out, _ = run_cli(
        ["trace", testbed_config_path, "--src", "EEEE::2", "--dst", "DDDD::2",
         "--payload-bytes", "8"],
        capsys,
    )
    assert code == cli.EXIT_OK
    first = out.splitlines()[0]
    # Outer header: version 6, payload length 0x60, routing header, hl 64.
    assert first.startswith("00000000  60 00 00 00 00 60 2b 40")


def test_trace_reports_packet_too_big_for_the_wire(testbed_config_path, capsys):
    code, out, err = run_cli(
        ["trace", testbed_config_path, *RUN_ARGS, "--payload-bytes", "65448"], capsys
    )
    assert (code, err) == (cli.EXIT_DROPPED, "")
    event = json.loads(out)
    reason = "encapsulated payload of 65536 B exceeds 65535 B"
    assert (event["node"], event["event"], event["detail"]) == ("er1", "Dropped", reason)

    code, out, _ = run_cli(
        ["trace", testbed_config_path, *RUN_ARGS, "--payload-bytes", "65447"], capsys
    )
    assert code == cli.EXIT_OK
    assert out.startswith("00000000  60 00 00 00 ff ff 2b 40")


@pytest.mark.parametrize("command", ["run", "trace"])
def test_unknown_ingress_is_a_contract_error(testbed_config_path, capsys, command):
    code, out, err = run_cli(
        [command, testbed_config_path, *RUN_ARGS, "--ingress", "nosuch"], capsys
    )
    assert (code, out) == (cli.EXIT_CONTRACT, "")
    assert json.loads(err) == {"error": "UnknownNodeRef", "detail": "no node 'nosuch'"}


def test_usage_error_exits_two(testbed_config_path, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["run", testbed_config_path])  # --src/--dst missing
    assert info.value.code == cli.EXIT_USAGE


@pytest.mark.parametrize(
    "command, argv, message",
    [
        ("run", ["--src", "EEEE::2", "--dst", "nonsense"],
         "argument --dst: At least 3 parts expected in 'nonsense'"),
        ("trace", ["--src", "zz", "--dst", "DDDD::2"], "argument --src: At least 3 parts expected in 'zz'"),
        ("run", [*RUN_ARGS, "--count", "-3"], "argument --count: count must be >= 1, got -3"),
        ("run", [*RUN_ARGS, "--count", "0"], "argument --count: count must be >= 1, got 0"),
        ("run", [*RUN_ARGS, "--payload-bytes", "-5"], "argument --payload-bytes: payload must be >= 0"),
        ("trace", [*RUN_ARGS, "--payload-bytes", "-1"], "argument --payload-bytes: payload must be >= 0"),
        ("run", [*RUN_ARGS, "--sport", "99999"], "argument --sport: port must be <= 65535"),
        ("run", [*RUN_ARGS, "--dport", "-1"], "argument --dport: port must be >= 0"),
        ("trace", [*RUN_ARGS, "--sport", "65536"], "argument --sport: port must be <= 65535"),
        ("trace", [*RUN_ARGS, "--dport", "70000"], "argument --dport: port must be <= 65535"),
        ("run", [*RUN_ARGS, "--payload-bytes", "70000"],
         "argument --payload-bytes: payload must be <= 65527"),
        ("trace", [*RUN_ARGS, "--payload-bytes", "65528"],
         "argument --payload-bytes: payload must be <= 65527"),
        ("bench", ["--rates", "1000,abc"], "argument --rates: could not convert string to float: 'abc'"),
        ("bench", ["--rates", "1000,nan,3000"], "argument --rates: rate must be positive and finite, got nan"),
        ("bench", ["--noise", "nan"], "argument --noise: noise must be finite, got nan"),
        ("bench", ["--noise", "-5"], "argument --noise: noise must be >= 0, got -5"),
        ("bench", ["--runs", "0"], "argument --runs: runs must be >= 1, got 0"),
        ("bench", ["--capacity", "nan"], "argument --capacity: capacity must be finite, got nan"),
        ("bench", ["--k0", "inf"], "argument --k0: k0 must be finite, got inf"),
        # Values that used to pass argparse and then fail the sweep (exit 7),
        # and a --k0 that used to be ignored without --capacity.
        ("bench", ["--rates", "-5"], "argument --rates: rate must be positive and finite, got -5"),
        ("bench", ["--rates", "0"], "argument --rates: rate must be positive and finite, got 0"),
        ("bench", ["--rates", ","], "argument --rates: rate list is empty"),
        ("bench", ["--capacity", "0"], "argument --capacity: capacity must be positive, got 0.0"),
        ("bench", ["--k0", "150", "--capacity", "100"],
         "argument --k0: baseline overhead must be in [0, 100), got 150.0"),
        ("bench", ["--k0", "5"], "argument --k0: not allowed without argument --capacity"),
    ],
    ids=[
        "run-dst", "trace-src", "run-count-negative", "run-count-zero", "run-payload", "trace-payload",
        "run-sport-high", "run-dport-negative", "trace-sport-high", "trace-dport-high",
        "run-payload-high", "trace-payload-high", "bench-rates-text", "bench-rates-nan",
        "bench-noise-nan", "bench-noise-negative", "bench-runs-zero", "bench-capacity-nan",
        "bench-k0-inf", "bench-rates-negative", "bench-rates-zero", "bench-rates-empty",
        "bench-capacity-zero", "bench-k0-too-high", "bench-k0-without-capacity",
    ],
)
def test_bad_argument_values_exit_two(testbed_config_path, capsys, command, argv, message):
    with pytest.raises(SystemExit) as info:
        cli.main([command, testbed_config_path, *argv])
    captured = capsys.readouterr()
    assert info.value.code == cli.EXIT_USAGE
    assert message in captured.err
    assert captured.out == ""
