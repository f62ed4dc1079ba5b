"""Config loading, validation aggregation, route installation."""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import replace
from functools import partial
from importlib.resources import files
from ipaddress import IPv6Address, IPv6Network
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from srv6sfc import cli, errors, sim
from srv6sfc import config as config_module
from srv6sfc.chain import SidKind, VnfChain
from srv6sfc.config import (
    RuleDecl,
    _Collector,
    behavior_from_spec,
    load_config,
    parse_config_text,
    route_add,
)
from srv6sfc.dataplane import ChainEditor, PassThroughRouter, PayloadStamper, PrefixFilter, VnfPermission

RUN_ARGS = ["--src", "EEEE::2", "--dst", "DDDD::2"]


def test_load_bundled_testbed(testbed_config_path):
    config = load_config(testbed_config_path)
    assert len(config.nodes) == 3
    assert len(config.links) == 2
    assert len(config.chains) == 1
    assert config.chains[0].segments == (IPv6Address("BBBB::2"), IPv6Address("CCCC::2"))
    assert config.bench.flow_ingress == "er1"
    assert dict(config.bench.models)["aware"].baseline_overhead_k0 == 8.9


def test_missing_file_is_parse_error(tmp_path):
    with pytest.raises(errors.ParseError):
        load_config(tmp_path / "absent.cfg")


def test_non_utf8_config_is_a_parse_error_in_every_command(testbed_config_path, tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(Path(testbed_config_path).read_bytes().replace(b"# Three", b"# \xffThree"))
    reason = "'utf-8' codec can't decode byte 0xff in position 2: invalid start byte"
    stderr = json.dumps({"error": "ParseError", "detail": f"cannot read config {cfg}: {reason}"})
    flow = ["--src", "EEEE::2", "--dst", "DDDD::2"]
    for argv in (
        ["validate", str(cfg)],
        ["run", str(cfg), *flow],
        ["bench", str(cfg), "--out", str(tmp_path / "bench-out")],
        ["trace", str(cfg), *flow],
        ["route", "add", "FFFF::/64", "via", "AAAA::1", "encap", "seg", "CCCC::2",
         "--config", str(cfg)],
    ):
        assert cli.main(argv) == cli.EXIT_PARSE, argv
        assert capsys.readouterr() == ("", stderr + "\n"), argv


def test_declaration_before_section_is_parse_error():
    with pytest.raises(errors.ParseError):
        parse_config_text("er1 ingress-edge addrs=::1\n")


def test_chain_with_undeclared_sid_is_named(testbed_config_path):
    text = open(testbed_config_path).read().replace(
        "segs=BBBB::2,CCCC::2", "segs=BBBB::7,CCCC::2"
    )
    with pytest.raises(errors.ValidationError) as info:
        parse_config_text(text)
    assert "bbbb::7" in str(info.value)


def test_univocal_violation_surfaces_at_load(testbed_config_path):
    text = open(testbed_config_path).read().replace(
        "[rules]",
        "c2 segs=BBBB::2,CCCC::2 src=AAAA::2 direction=uni\n\n[rules]",
    )
    with pytest.raises(errors.ValidationError) as info:
        parse_config_text(text)
    assert "UnivocalMappingViolation" in str(info.value)


def test_all_problems_collected():
    text = """
[nodes]
er1 ingress-edge addrs=AAAA::2
er1 ingress-edge addrs=AAAA::3

[links]
er1 ghost

[sids]
BBBB::2 kind=sr-unaware node=nowhere
"""
    with pytest.raises(errors.ValidationError) as info:
        parse_config_text(text)
    problems = info.value.problems
    assert len(problems) >= 3
    assert any("duplicate node id" in p for p in problems)
    assert any("ghost" in p for p in problems)
    assert any("nowhere" in p for p in problems)


# One faulty line each: ``validate`` refuses what ``run`` cannot build ----------

_VNF_LINE = "BBBB::2 behavior=passthrough permission=insert-next-only\n"
_CHAIN_LINE = "c1 segs=BBBB::2,CCCC::2 src=AAAA::2 direction=uni\n"
_RULES = _CHAIN_LINE + "\n[rules]\ner1 DDDD::/64 chain=c1\n"
_ROUTE_LINE = "nfv DDDD::/64 via er2\n"
_ER2_LINE = "er2 egress-edge addrs=CCCC::2,DDDD::2\n"
_RULE_LINE = "er1 DDDD::/64 chain=c1\n"
_AWARE_MODEL = "model aware capacity=45180.72289156627 k0=8.9\n"
_FLOW = "flow src=EEEE::2 dst=DDDD::2 ingress=er1\n"
_VNF_BLOCK = "BBBB::2 kind=sr-unaware node=nfv\nCCCC::2 kind=egress node=er2\n\n[vnfs]\n" + _VNF_LINE


def _aware_editor(spec: str, permission: str = "insert-next-only") -> str:
    """``_VNF_BLOCK`` with BBBB::2 SR-aware and running the behavior ``spec``."""
    return _VNF_BLOCK.replace("sr-unaware", "sr-aware").replace(
        "behavior=passthrough permission=insert-next-only", f"behavior={spec} permission={permission}"
    )


_MISROUTED = "chain 'c1' at cccc::2: NotLastSegment: segments_left is 1, packet is misrouted"
_OVERSIZED = "chain 'c1' at bbbb::2: OversizedPacket: edited SRH of 128 segments exceeds 127"


_EDITORS = ("BBBB::3", "BBBB::4")
_EGRESS_SID = "CCCC::2 kind=egress node=er2\n"
# The testbed's lines from its SIDs to its chain.
_EDITOR_BLOCK = _VNF_BLOCK + "\n[chains]\n" + _CHAIN_LINE


def _with_editors(text: str, editors: list[tuple[str, str]], segments: list[str]) -> str:
    """``text`` with SR-aware chain editors (spec, permission) on the NFV
    node at ``_EDITORS``, and chain c1 through ``segments`` to the egress."""
    addresses = _EDITORS[:len(editors)]
    return text.replace(
        _EGRESS_SID, _EGRESS_SID + "".join(f"{a} kind=sr-aware node=nfv\n" for a in addresses)
    ).replace(_VNF_LINE, _VNF_LINE + "".join(
        f"{a} behavior=chain-editor:{spec} permission={permission}\n"
        for a, (spec, permission) in zip(addresses, editors)
    )).replace("segs=BBBB::2,CCCC::2", f"segs={','.join(segments)},CCCC::2")


def _with_bbbb3(text: str) -> str:
    """``text`` with the SR-aware SID BBBB::3 declared on the NFV node."""
    egress = "CCCC::2 kind=egress node=er2\n"
    return text.replace(egress, egress + "BBBB::3 kind=sr-aware node=nfv\n")


# What a testbed whose [links] header is misspelt reports after the
# unknown section: every route now names a neighbor it has no link to.
_UNLINKED = [
    f"{node!r} routes {prefix}::/64 via {via!r}, which is not a linked neighbor"
    for node, prefix, via in (
        ("er1", "bbbb", "nfv"), ("er1", "cccc", "nfv"), ("er1", "dddd", "nfv"),
        ("nfv", "aaaa", "er1"), ("nfv", "eeee", "er1"), ("nfv", "cccc", "er2"),
        ("nfv", "dddd", "er2"), ("er2", "aaaa", "nfv"), ("er2", "eeee", "nfv"),
    )
]


@pytest.mark.parametrize(
    "old, new, problem",
    [
        pytest.param("nfv nfv-node addrs=", "nfv router addrs=",
                     "'nfv' hosts VNFs but is router", id="nfv-as-router"),
        pytest.param("BBBB::2 kind=sr-unaware node=nfv", "BBBB::2 kind=sr-unaware node=er2",
                     "'er2' hosts VNFs but is egress-edge", id="vnf-on-egress-edge"),
        pytest.param("[links]\n", "[links]\ner1 er1\n", "self-link on 'er1'", id="self-link"),
        pytest.param("er1 DDDD::/64 chain=c1", "nfv DDDD::/64 chain=c1",
                     "'nfv' carries classifier rules but is nfv-node", id="rule-on-nfv"),
        pytest.param(_CHAIN_LINE, _CHAIN_LINE + "c1 segs=CCCC::2 src=AAAA::2\n",
                     "duplicate chain id 'c1'", id="duplicate-chain"),
        # hdr_ext_len = 2n is one byte, so an SRH holds at most 127 segments.
        pytest.param("segs=BBBB::2,", "segs=" + "".join(f"BBBB::{i:x}," for i in range(2, 129)),
                     ["line 28: chain 'c1' has more than 127 segments",
                      "rule for unknown chain 'c1'"], id="chain-too-long"),
        pytest.param(_VNF_LINE, _VNF_LINE + "BBBB::2 behavior=prefix-filter:DDDD::/64\n",
                     "duplicate VNF declaration for bbbb::2", id="duplicate-vnf"),
        pytest.param(_VNF_LINE, _VNF_LINE + "CCCC::2 behavior=passthrough\n",
                     "VNF declared for egress SID cccc::2", id="vnf-on-egress-sid"),
        pytest.param(_RULES, _RULES.replace("\n\n", "\nc2 segs=CCCC::2 src=AAAA::2\n\n")
                     + "er1 DDDD::/64 chain=c2\n",
                     "duplicate rule declaration for dddd::/64 on 'er1'", id="ambiguous-rule"),
        pytest.param(_ROUTE_LINE, _ROUTE_LINE + "nfv DDDD::/64 via er1\n",
                     "duplicate route declaration for dddd::/64 on 'nfv'", id="ambiguous-route"),
        pytest.param("[links]\n", "[linkz]\n",
                     ["line 16: unknown section [linkz]", *_UNLINKED], id="misspelt-section"),
        # Values ``bench`` would refuse (exit 7) or silently misuse.
        pytest.param("rates 1000,3000,", "rates 1000,-5,",
                     "line 50: rate must be positive and finite, got -5", id="bench-rate-negative"),
        pytest.param("rates 1000,3000,", "rates 1000,nan,",
                     "line 50: rate must be positive and finite, got nan", id="bench-rate-nan"),
        pytest.param("runs 30", "runs 0", "line 51: runs must be >= 1, got 0", id="bench-runs-zero"),
        pytest.param("noise 1.0", "noise nan", "line 52: noise must be finite, got nan",
                     id="bench-noise-nan"),
        pytest.param("noise 1.0", "noise -5", "line 52: noise must be >= 0, got -5",
                     id="bench-noise-negative"),
        pytest.param("payload 1024", "payload 70000", "line 54: payload must be <= 65527, got 70000",
                     id="bench-payload-too-big"),
        pytest.param("payload 1024", "payload -1", "line 54: payload must be >= 0, got -1",
                     id="bench-payload-negative"),
        pytest.param("units f=1.0", "units f=-1", "line 55: units f must be >= 0, got -1",
                     id="bench-units-negative"),
        pytest.param("units f=1.0", "units f=nan", "line 55: units f must be finite, got nan",
                     id="bench-units-nan"),
        # Lines whose shape is not their usage's, and keys no usage names.
        pytest.param(_ER2_LINE, _ER2_LINE + "er3\n",
                     "line 15: expected: <id> <role> addrs=<addr,...>", id="one-token-node"),
        pytest.param(_RULE_LINE, _RULE_LINE + "er1\n",
                     "line 32: expected: <node> <prefix> chain=<id>", id="one-token-rule"),
        pytest.param("runs 30", "runs", "line 51: expected: runs <int>", id="bench-runs-no-value"),
        pytest.param("seed 42", "seed", "line 53: expected: seed <int>", id="bench-seed-no-value"),
        pytest.param("model unaware capacity=58997.05014749262 k0=12.5", "model",
                     "line 49: expected: model <aware|unaware|default> capacity=<num> [k0=<num>]",
                     id="bench-model-no-value"),
        pytest.param("seed 42", "seed 42 43", "line 53: expected: seed <int>", id="bench-seed-twice"),
        pytest.param("permission=insert-next-only", "permision=full-rewrite",
                     ["line 25: unknown field 'permision'",
                      "chain 'c1' at bbbb::2: UnknownSid: no VNF is hosted at bbbb::2"],
                     id="misspelt-vnf-key"),
        pytest.param("direction=uni", "direcion=east",
                     ["line 28: unknown field 'direcion'", "rule for unknown chain 'c1'"],
                     id="misspelt-chain-key"),
        # A key twice on one line, an empty rate list, and [bench] keywords
        # repeated with another value: none may silently pick a winner.
        pytest.param("BBBB::2 kind=sr-unaware node=nfv",
                     "BBBB::2 kind=sr-unaware node=nfv kind=sr-aware",
                     ["line 21: duplicate field 'kind'", "VNF declared for unknown SID bbbb::2",
                      "chain 'c1' references undeclared SID bbbb::2"], id="key-twice-on-a-line"),
        pytest.param("rates 1000,3000,6000,9000,12000,13000", "rates ,",
                     "line 50: rate list is empty", id="bench-rates-empty"),
        pytest.param(_AWARE_MODEL, _AWARE_MODEL + "model aware capacity=1000 k0=1\n",
                     "line 49: duplicate bench model 'aware' declaration", id="bench-model-conflict"),
        pytest.param("seed 42\n", "seed 42\nseed 43\n",
                     "line 54: duplicate bench seed declaration", id="bench-seed-conflict"),
        pytest.param(_FLOW, _FLOW + "flow src=EEEE::2 dst=DDDD::3 ingress=er1\n",
                     "line 46: duplicate bench flow declaration", id="bench-flow-conflict"),
        # Chain editors whose faults the declaration shows: each used to
        # load, and then every steered ``run`` exited 5.
        pytest.param(_VNF_LINE, _VNF_LINE.replace("passthrough", "chain-editor:insert-after:CCCC::2"),
                     "VNF bbbb::2: an SR-unaware VNF sees no SRH and cannot edit it",
                     id="editor-on-unaware-sid"),
        pytest.param(_VNF_BLOCK, _aware_editor("chain-editor:replace:CCCC::2"),
                     "VNF bbbb::2: replace not allowed at permission insert-next-only",
                     id="editor-edit-not-permitted"),
        pytest.param(_VNF_BLOCK, _aware_editor("chain-editor:insert-after:1234::1"),
                     "VNF bbbb::2: edit references undeclared SID 1234::1", id="editor-undeclared-sid"),
        pytest.param(_VNF_BLOCK, _aware_editor("chain-editor:replace:", "full-rewrite"),
                     "VNF bbbb::2: replacement segment list must not be empty",
                     id="editor-empty-replace"),
        pytest.param(_VNF_BLOCK, _aware_editor("chain-editor:insert-at:-1:CCCC::2", "insert-anywhere"),
                     "VNF bbbb::2: insert position must be >= 0, got -1", id="editor-negative-position"),
        # Faults the walk of chain c1 finds at load (``dataplane.chain_problems``):
        # edits that misplace the egress SID, which each used to load, and then
        # every steered ``run`` exited 5 at the egress or at the next SID; an
        # ``insert-at`` past the remaining segments, which did the same; and
        # editors that re-insert their own SID, so every packet dropped at 128
        # segments. Then two that exited 5 in the connector: an editor that
        # sends the packet back through an SR-unaware SID, whose return path
        # brings it back to the editor, and one that inserts an SR-unaware SID
        # that no chain maps.
        pytest.param(_VNF_BLOCK, _with_bbbb3(_aware_editor("chain-editor:insert-after:CCCC::2")),
                     _MISROUTED, id="editor-inserts-egress-after"),
        pytest.param(_VNF_BLOCK, _with_bbbb3(_aware_editor("chain-editor:insert-at:0:CCCC::2",
                                                           "insert-anywhere")),
                     _MISROUTED, id="editor-inserts-egress-at"),
        pytest.param(_VNF_BLOCK, _with_bbbb3(_aware_editor("chain-editor:replace:CCCC::2+BBBB::3",
                                                           "full-rewrite")),
                     _MISROUTED, id="editor-replace-egress-not-last"),
        pytest.param(_VNF_BLOCK, _with_bbbb3(_aware_editor("chain-editor:replace:BBBB::3", "full-rewrite")),
                     "chain 'c1' at bbbb::3: AlreadyAtLastSegment: segments_left is already 0",
                     id="editor-replace-without-egress"),
        pytest.param(_VNF_BLOCK, _with_bbbb3(_aware_editor("chain-editor:insert-at:1:BBBB::3",
                                                           "full-rewrite")),
                     "chain 'c1' at bbbb::2: PositionOutOfRange: "
                     "position 1 outside remaining segments [0, 0]",
                     id="editor-insert-at-past-the-remaining-segments"),
        pytest.param(_VNF_BLOCK, _aware_editor("chain-editor:insert-after:BBBB::2"),
                     _OVERSIZED, id="editor-inserts-itself"),
        pytest.param(_VNF_BLOCK, _aware_editor("chain-editor:replace:BBBB::2+CCCC::2", "full-rewrite"),
                     _OVERSIZED, id="editor-replaces-with-itself"),
        pytest.param(_EDITOR_BLOCK, _with_editors(_EDITOR_BLOCK, [("insert-after:BBBB::2", "insert-next-only")],
                                                  ["BBBB::2", "BBBB::3"]),
                     "chain 'c1' at bbbb::3: PipelineLoop: 1024 SID visits without reaching the egress",
                     id="editor-loops-through-an-unaware-sid"),
        pytest.param(_EDITOR_BLOCK, _with_editors(_EDITOR_BLOCK, [("insert-after:BBBB::2", "insert-next-only")],
                                                  ["BBBB::3"]),
                     "chain 'c1' at bbbb::2: UnivocalMappingMissing: "
                     "no chain mapped for SR-unaware interface (bbbb::2, single)",
                     id="editor-inserts-an-unmapped-unaware-sid"),
        # Two more the walk finds, whose every steered ``run`` exited 5 or
        # dropped: a payload stamper on an SR-aware SID, which would
        # overwrite the inner header, and a chain through a declared VNF
        # SID that no [vnfs] line hosts, which the walk routes away from.
        pytest.param(_VNF_BLOCK, _aware_editor("payload-stamp:0xAB"),
                     "chain 'c1' at bbbb::2: InvalidEdit: SR-aware VNF bbbb::2 would stamp "
                     "the inner IPv6 header of the encapsulated packet",
                     id="payload-stamper-on-aware-sid"),
        pytest.param(_EDITOR_BLOCK, _with_bbbb3(_EDITOR_BLOCK).replace("segs=", "segs=BBBB::3,"),
                     "chain 'c1' at bbbb::3: UnknownSid: no VNF is hosted at bbbb::3",
                     id="chain-through-a-sid-no-vnf-hosts"),
    ],
)
def test_faulty_testbed_edit_fails_every_command(
    testbed_config_path, tmp_path, capsys, old, new, problem
):
    text = Path(testbed_config_path).read_text(encoding="utf-8")
    assert text.count(old) == 1
    cfg = tmp_path / "faulty.cfg"
    cfg.write_text(text.replace(old, new), encoding="utf-8")
    problems = [problem] if isinstance(problem, str) else problem
    with pytest.raises(errors.ValidationError) as info:
        load_config(cfg)
    assert info.value.problems == problems

    stderr = json.dumps({"error": "ValidationError", "detail": problems}) + "\n"
    flow = ["--src", "EEEE::2", "--dst", "DDDD::2"]
    for argv in (
        ["validate", str(cfg)],
        ["run", str(cfg), *flow],
        ["bench", str(cfg), "--out", str(tmp_path / "bench-out")],
        ["trace", str(cfg), *flow],
        ["route", "add", "FFFF::/64", "via", "AAAA::1", "encap", "seg", "CCCC::2",
         "--config", str(cfg)],
    ):
        assert cli.main(argv) == cli.EXIT_VALIDATION, argv
        assert capsys.readouterr() == ("", stderr), argv


def test_exact_repeated_rule_and_route_lines_are_accepted(testbed_config_path):
    text = Path(testbed_config_path).read_text(encoding="utf-8")
    text = text.replace("er1 DDDD::/64 chain=c1\n", "er1 DDDD::/64 chain=c1\n" * 2)
    # The prefix is compared, not its text.
    config = parse_config_text(text.replace(_ROUTE_LINE, _ROUTE_LINE + "nfv dddd::1/64 via er2\n"))
    assert len(config.rules) == 2 and len(config.routes) == 10
    network = config.build_network()
    assert len(network.node("er1").rules) == 1
    assert len(network.node("nfv").routing_table) == 4


def test_exact_repeated_bench_lines_are_accepted(testbed_config_path):
    text = Path(testbed_config_path).read_text(encoding="utf-8")
    config = parse_config_text(text)
    for line in (_FLOW, _AWARE_MODEL, "seed 42\n", "runs 30\n", "units f=1.0 d=0.5 e=0.5\n"):
        text = text.replace(line, line * 2)
    # The value is compared, not its text.
    repeated = parse_config_text(text.replace("seed 42\n", "seed 42\nseed 042\n", 1))
    assert repeated.bench == config.bench
    assert [scenario for scenario, _ in repeated.bench.models] == ["aware", "unaware"]


# A [bench] value and the option that overrides it: one reader, one text.
_BENCH_OPTIONS = {
    "rates": ("bench", "--rates"),
    "runs": ("bench", "--runs"),
    "noise": ("bench", "--noise"),
    "payload": ("run", "--payload-bytes"),
}
_VALUE_TEXTS = [
    "0", "-0", "1", "-1", "-5", "30", "1.5", "-0.5", "1e3", "1e400", "-1e400", "nan", "inf",
    "-inf", "abc", "0x10", "1_000", "+3", ",", "1,2", "1,,2", "1,-2", "1000,nan", "65527", "65528",
]


@pytest.mark.parametrize("keyword", _BENCH_OPTIONS)
def test_bench_line_and_its_option_refuse_the_same_values(testbed_config_path, capsys, keyword):
    text = Path(testbed_config_path).read_text(encoding="utf-8")
    lines = text.splitlines(keepends=True)
    line_no, line = next((n, line) for n, line in enumerate(lines, 1) if line.startswith(keyword + " "))
    command, option = _BENCH_OPTIONS[keyword]
    parser, flow = cli.build_parser(), RUN_ARGS if command == "run" else []
    for value in _VALUE_TEXTS:
        try:
            loaded = getattr(parse_config_text(text.replace(line, f"{keyword} {value}\n")).bench, keyword)
        except errors.ValidationError as exc:
            loaded = exc.problems
        try:
            args = parser.parse_args([command, testbed_config_path, *flow, f"{option}={value}"])
        except SystemExit as exc:
            assert exc.code == cli.EXIT_USAGE
            refusal = capsys.readouterr().err.splitlines()[-1].split(f"argument {option}: ", 1)[1]
            assert loaded == [f"line {line_no}: {refusal}"], value
        else:
            assert loaded == getattr(args, option[2:].replace("-", "_")), value


def test_line_numbers_in_syntax_problems():
    text = "[nodes]\ner1 bogus-role addrs=AAAA::2\n"
    with pytest.raises(errors.ValidationError) as info:
        parse_config_text(text)
    assert any(p.startswith("line 2:") for p in info.value.problems)


def test_every_line_usage_is_spelled_in_the_module_docstring():
    for usage, _, _ in config_module._LINES.values():
        assert usage in config_module.__doc__


# Random line mutations of the testbed, through every command ---------------------

_TESTBED = (files("srv6sfc") / "configs" / "testbed.cfg").read_text(encoding="utf-8")
_TOKENS = [
    *(f"[{name}]" for name in config_module.SECTION_ORDER), "[linkz]",
    "via", "flow", "model", "rates", "runs", "noise", "seed", "payload", "units", "aware",
    "er1", "nfv", "er2", "ingress-edge", "nfv-node", "BBBB::2", "CCCC::2", "AAAA::1", "AAAA::2",
    "DDDD::/64", "FFFF::/64", "::/0", "fe80::1%eth0", "::ffff:1.2.3.4", "BBBB::2%1",
    "kind=sr-aware", "kind=egress", "node=nfv", "iface=west", "chain=c1", "src=AAAA::2",
    "segs=BBBB::2,CCCC::2", "segs=CCCC::2,CCCC::2", "segs=", "addrs=AAAA::9,fe80::2%eth0",
    "behavior=chain-editor:insert-after:CCCC::2", "behavior=payload-stamp:300",
    "permission=full-rewrite", "direction=east", "capacity=nan", "capacity=-1", "k0=1e400",
    "f=nan", "d=1e400", "e=-1", "f=0", "ingress=nfv", "dst=::ffff:1.2.3.4",
    "permision=full-rewrite", "direcion=east", "kinds=egress", "capacty=1",
    "nan", "1e400", "-1", "0", "70000", "65527", "1,2", "=", "x=",
]
_DECLARATIONS = [i for i, line in enumerate(_TESTBED.splitlines()) if line and not line.startswith("#")]


@st.composite
def mutated_testbeds(draw) -> str:
    """The testbed after one to three line or token mutations."""
    lines = _TESTBED.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.sampled_from(_DECLARATIONS)) % len(lines)
        op = draw(st.sampled_from(["drop", "duplicate", "swap", "replace", "insert", "delete"]))
        if op == "drop":
            del lines[at]
        elif op == "duplicate":
            lines.insert(at, lines[at])
        elif op == "swap":
            other = draw(st.sampled_from(_DECLARATIONS)) % len(lines)
            lines[at], lines[other] = lines[other], lines[at]
        else:
            tokens = lines[at].split()
            spot = draw(st.integers(0, len(tokens)))
            if op == "insert":
                tokens.insert(spot, draw(st.sampled_from(_TOKENS)))
            elif tokens:
                spot = min(spot, len(tokens) - 1)
                if op == "replace":
                    tokens[spot] = draw(st.sampled_from(_TOKENS))
                else:
                    del tokens[spot]
            lines[at] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def _outcome(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(text=mutated_testbeds())
@example(text=_TESTBED.replace("runs 30", "runs"))
@example(text=_TESTBED.replace("payload 1024", "payload 70000"))
# Chain editors that loaded and then failed every steered ``run``.
@example(text=_TESTBED.replace("behavior=passthrough", "behavior=chain-editor:insert-after:CCCC::2"))
@example(text=_TESTBED.replace("kind=sr-unaware", "kind=sr-aware").replace(
    "behavior=passthrough", "behavior=chain-editor:insert-after:1234::1"))
@example(text=_TESTBED.replace("kind=sr-unaware", "kind=sr-aware").replace(
    "behavior=passthrough", "behavior=chain-editor:replace:CCCC::2"))
@example(text=_TESTBED.replace("kind=sr-unaware", "kind=sr-aware").replace(
    "behavior=passthrough", "behavior=chain-editor:insert-after:CCCC::2"))
# One SR-aware SID in two chains: loads, but not as the unaware scenario.
@example(text=_TESTBED.replace("kind=sr-unaware", "kind=sr-aware").replace(
    "direction=uni\n", "direction=uni\nc2 segs=BBBB::2,CCCC::2 src=AAAA::2\n"))
def test_mutated_testbed_ends_in_a_documented_exit_in_every_command(tmp_path_factory, text):
    scratch = tmp_path_factory.mktemp("mutant")
    cfg = scratch / "mutant.cfg"
    cfg.write_text(text, encoding="utf-8")
    flow = ["--src", "EEEE::2", "--dst", "DDDD::2"]
    validate = _outcome(["validate", str(cfg)])
    assert validate[0] in (cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_VALIDATION), validate
    outcomes = {
        "run": _outcome(["run", str(cfg), *flow, "--count", "2", "--trace", "terminal"]),
        "trace": _outcome(["trace", str(cfg), *flow]),
        "route": _outcome(["route", "add", "FFFF::/64", "via", "AAAA::1", "encap", "seg",
                           "CCCC::2", "--config", str(cfg)]),
        "bench": _outcome(["bench", str(cfg), "--out", str(scratch / "bench-out")]),
    }
    if validate[0] == cli.EXIT_OK:
        assert outcomes["run"][0] in (cli.EXIT_OK, cli.EXIT_DROPPED), outcomes["run"]
        assert outcomes["trace"][0] in (cli.EXIT_OK, cli.EXIT_DROPPED), outcomes["trace"]
        assert outcomes["route"][0] in (cli.EXIT_OK, cli.EXIT_VALIDATION), outcomes["route"]
        assert outcomes["bench"][0] in (cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_BENCH), \
            outcomes["bench"]
    else:
        for code, out, err in outcomes.values():
            assert (code, out, err) == (validate[0], "", validate[2])


# Random chain editors on the testbed: an accepted config never exits 5 ------

# What an edit may name: the SR-unaware SID, the editors, the egress and an
# undeclared address (also BBBB::4 when only one editor is declared).
_EDIT_SID = st.sampled_from(("BBBB::2", *_EDITORS, "CCCC::2", "BBBB::9"))


@st.composite
def editor_testbeds(draw) -> str:
    """The testbed with one or two SR-aware chain editors of any edit kind
    and permission, an ``insert-at`` position on either side of the
    remaining count, and chain c1 through some of them and BBBB::2."""
    editors = []
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(("insert-after", "insert-at", "replace")))
        if kind == "insert-at":
            kind += f":{draw(st.integers(-1, 4))}"
        sids = "+".join(draw(st.lists(_EDIT_SID, max_size=2)))
        editors.append((f"{kind}:{sids}", draw(st.sampled_from([p.value for p in VnfPermission]))))
    path = draw(st.permutations(("BBBB::2", *_EDITORS[:len(editors)])))
    return _with_editors(_TESTBED, editors, path[:draw(st.integers(1, len(path)))])


@settings(max_examples=300, deadline=None)
@given(text=editor_testbeds())
# An ``insert-at`` past the segments left after the editor: it loaded, and
# then every steered ``run`` exited 5 (``PositionOutOfRange``).
@example(text=_with_editors(_TESTBED, [("insert-at:1:BBBB::2", "full-rewrite")], ["BBBB::3"]))
def test_accepted_editor_testbed_never_exits_5(tmp_path_factory, text):
    try:
        parse_config_text(text)
    except errors.ValidationError:
        return
    scratch = tmp_path_factory.mktemp("editors")
    cfg = scratch / "editors.cfg"
    cfg.write_text(text, encoding="utf-8")
    flow = ["--src", "EEEE::2", "--dst", "DDDD::2"]
    bench = ["--runs", "1", "--rates", "1000,3000", "--out", str(scratch / "bench-out")]
    for argv in (
        ["run", str(cfg), *flow, "--count", "2"],
        ["trace", str(cfg), *flow],
        ["bench", str(cfg), "--scenario", "aware", *bench],
        ["bench", str(cfg), "--scenario", "unaware", *bench],
    ):
        outcome = _outcome(argv)
        assert outcome[0] != cli.EXIT_CONTRACT, (argv[0], outcome)


def test_build_network_from_config(testbed_config_path):
    config = load_config(testbed_config_path)
    network = config.build_network()
    assert set(network.nodes) == {"er1", "nfv", "er2"}
    assert network.states["nfv"].vnfs and not network.states["er1"].vnfs


def test_kind_override_flips_vnf_kind(testbed_config_path):
    from srv6sfc.chain import SidKind

    config = load_config(testbed_config_path)
    aware = config.build_network(kind_override=SidKind.SR_AWARE)
    sid = aware.registry.sid(IPv6Address("BBBB::2"))
    assert sid.kind is SidKind.SR_AWARE
    # Egress endpoints are never overridden.
    assert aware.registry.sid(IPv6Address("CCCC::2")).kind is SidKind.EGRESS_ENDPOINT


# One object per text, one registry per network -------------------------------

def test_each_address_and_prefix_text_is_one_object(testbed_config_path):
    config = load_config(testbed_config_path)
    by_section = {
        "nodes": [a for decl in config.nodes for a in decl.addresses],
        "sids": [sid.address for sid in config.sids],
        "vnfs": [vnf.address for vnf in config.vnfs],
        "chains": [a for c in config.chains for a in (*c.segments, c.ingress_source)],
        "bench": [config.bench.flow_src, config.bench.flow_dst],
    }
    # The testbed spells each address one way, so equal means same text.
    objects: dict[IPv6Address, set[int]] = {}
    sections: dict[IPv6Address, set[str]] = {}
    for section, addresses in by_section.items():
        for address in addresses:
            objects.setdefault(address, set()).add(id(address))
            sections.setdefault(address, set()).add(section)
    assert all(len(ids) == 1 for ids in objects.values())
    # Each section shares an address with another one.
    shared = set().union(*(names for names in sections.values() if len(names) > 1))
    assert shared == set(by_section)

    networks = [decl.network for decl in (*config.rules, *config.routes)]
    prefixes: dict[object, set[int]] = {}
    for network in networks:
        prefixes.setdefault(network, set()).add(id(network))
    assert all(len(ids) == 1 for ids in prefixes.values())
    # DDDD::/64 is declared by the rule and by two routes.
    assert len(networks) > len(prefixes)


def test_networks_of_one_config_do_not_share_a_registry(testbed_config_path):
    config = load_config(testbed_config_path)
    first, second = config.build_network(), config.build_network()
    first.registry.register_chain(
        VnfChain("extra", (IPv6Address("CCCC::2"),), IPv6Address("AAAA::2"))
    )
    assert "extra" in first.registry.chains
    assert "extra" not in second.registry.chains
    assert "extra" not in config.build_network().registry.chains
    assert "extra" not in config.build_network(kind_override=SidKind.SR_AWARE).registry.chains


def test_edited_config_builds_its_own_registry(testbed_config_path):
    config = load_config(testbed_config_path)
    updated = parse_config_text(route_add(_TESTBED, "FFFF::/64", "AAAA::1", ["CCCC::2"]))
    assert "rt-ffff::-64" in updated.build_network().registry.chains
    assert "rt-ffff::-64" not in config.build_network().registry.chains
    # Without revalidation too: ``replace`` does not carry the registry over.
    chain = VnfChain("direct", (IPv6Address("CCCC::2"),), IPv6Address("AAAA::2"))
    edited = replace(config, chains=config.chains + (chain,))
    assert "direct" in edited.build_network().registry.chains


def test_edited_config_is_validated_on_its_first_build(testbed_config_path):
    config = load_config(testbed_config_path)
    rule = RuleDecl("ghost", IPv6Network("FFFF::/64"), "nochain")
    for kind in (None, SidKind.SR_AWARE):
        edited = replace(config, rules=config.rules + (rule,))
        with pytest.raises(errors.ValidationError) as info:
            edited.build_network(kind_override=kind)
        assert info.value.problems == [
            "rule on unknown node 'ghost'", "rule for unknown chain 'nochain'"
        ]


def _editor_testbed(path) -> str:
    """The testbed with three SR-aware chain editors on the NFV node."""
    text = Path(path).read_text(encoding="utf-8")
    return text.replace(
        "CCCC::2 kind=egress node=er2\n",
        "CCCC::2 kind=egress node=er2\n"
        "BBBB::3 kind=sr-aware node=nfv\n"
        "BBBB::4 kind=sr-aware node=nfv\n"
        "BBBB::5 kind=sr-aware node=nfv\n",
    ).replace(
        "[chains]\n",
        "BBBB::3 behavior=chain-editor:insert-after:bbbb::4+BBBB:0::5 permission=full-rewrite\n"
        "BBBB::4 behavior=chain-editor:insert-at:1:bbbb:0::3 permission=insert-anywhere\n"
        "BBBB::5 behavior=chain-editor:replace:bbbb:0:0::2+CCCC::2 permission=full-rewrite\n"
        "\n[chains]\n",
    )


def test_chain_editor_sids_are_the_registry_objects(testbed_config_path):
    text = _editor_testbed(testbed_config_path)
    network = parse_config_text(text).build_network()
    keys = {address: address for address in network.registry.sid_table}
    edits = [vnf.behavior.edit for vnf in network.states["nfv"].vnfs.values()
             if isinstance(vnf.behavior, ChainEditor)]
    assert len(edits) == 3
    registered = [sid for edit in edits for sid in edit.sids if sid in keys]
    assert len(registered) == 5
    assert all(sid is keys[sid] for sid in registered)
    # An undeclared SID is refused where the config is loaded.
    with pytest.raises(errors.ValidationError) as info:
        parse_config_text(text.replace("+CCCC::2 permission", "+FFFF::1+CCCC::2 permission"))
    assert info.value.problems == ["VNF bbbb::5: edit references undeclared SID ffff::1"]


def test_config_is_checked_once_and_each_build_is_fresh(tmp_path, testbed_config_path, monkeypatch):
    calls = {"behavior_from_spec": 0, "topology_problems": 0}

    def counted(function):
        def wrapper(*args, **kwargs):
            calls[function.__name__] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(config_module, "behavior_from_spec", counted(behavior_from_spec))
    topology = counted(sim.topology_problems)
    monkeypatch.setattr(config_module, "topology_problems", topology)
    monkeypatch.setattr(sim, "topology_problems", topology)
    cfg = tmp_path / "editors.cfg"
    cfg.write_text(_editor_testbed(testbed_config_path), encoding="utf-8")
    config = load_config(cfg)
    checked = {"behavior_from_spec": 4, "topology_problems": 1}
    assert len(config.vnfs) == 4 and calls == checked
    networks = [
        config.build_network(),
        config.build_network(),
        config.build_network(kind_override=SidKind.SR_AWARE),
    ]
    assert calls == checked
    assert len({id(network.registry) for network in networks}) == 3
    vnfs = [
        (network, vnf)
        for network in networks
        for vnf in network.states["nfv"].vnfs.values()
    ]
    assert len({id(vnf) for _, vnf in vnfs}) == len(vnfs) == 12
    # Each network's VNFs carry that network's own SIDs.
    assert all(vnf.sid is network.registry.sid(vnf.sid.address) for network, vnf in vnfs)
    assert networks[2].states["nfv"].vnfs[int(IPv6Address("BBBB::2"))].sid.kind is SidKind.SR_AWARE


# Address parsing: ``_Collector.address`` against ``IPv6Address(text)`` ------------

def address_outcome(parse, text: str):
    """What parsing ``text`` gives: the value, text and scope id, or the
    exception's type and message."""
    try:
        address = parse(text)
    except Exception as exc:  # compared with the reference, whatever it is
        return type(exc), str(exc)
    return type(address), int(address), str(address), address.scope_id


_HEXTET = st.text("0123456789abcdefABCDEF", max_size=5)
# Octets with leading zeros and out of range as well as valid ones.
_OCTET = st.one_of(
    st.integers(0, 255).map(str),
    st.integers(0, 99).map(lambda n: f"0{n}"),
    st.integers(256, 999).map(str),
)
_IPV4 = st.lists(_OCTET, min_size=3, max_size=5).map(".".join)
_ODD = st.sampled_from(
    ["%eth0", "%1", "%", "\x00", "\xe9", "\uff11", "\u0661", " ", ":", ".", "/64", "g", "-"]
)
_PART = st.one_of(_HEXTET, _HEXTET, st.just(""), _IPV4, _ODD)
_VALID = st.integers(0, 2**128 - 1).map(IPv6Address)


@st.composite
def address_texts(draw) -> str:
    shape = draw(st.integers(0, 3))
    if shape == 0:  # well-formed, in either spelling, maybe scoped
        address = draw(_VALID)
        text = draw(st.sampled_from([str(address), address.exploded, address.exploded.upper()]))
        return text + draw(st.sampled_from(["", "", "%eth0", "%"]))
    if shape == 1:  # an IPv4 tail after a compressed or a full prefix
        head = draw(st.sampled_from(["::", "::ffff:", "1:2:3:4:5:6:", "1::2:", "1:2:3:4:5:6:7:"]))
        return head + draw(_IPV4)
    text = ":".join(draw(st.lists(_PART, min_size=1, max_size=10)))
    if shape == 3:  # an odd character at any place
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(_ODD) + text[at:]
    return text


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(address_texts())
@example("fe80::1%eth0")
@example("::1.2.3.4")
@example("::1.02.3.4")
@example("::1.2.3.256")
@example("1:2:3:4:5:6:7:8::")
@example("::1:2:3:4:5:6:7:8")
@example("1:2:3:4::5:6:7:8")
@example("12345::")
@example("::")
@example("")
@example("::\x00")
@example("\u0661::")
def test_address_parse_matches_ipaddress(text):
    collector = _Collector()
    outcome = address_outcome(collector.address, text)
    assert outcome == address_outcome(IPv6Address, text)
    if outcome[0] is IPv6Address:
        assert collector.address(text) is collector.address(text)


# Prefix parsing: ``_Collector.network`` against ``IPv6Network(text, strict=False)``

def network_outcome(parse, text: str):
    """What parsing the prefix ``text`` gives: the network's value, length,
    text and scope id, or the exception's type and message."""
    try:
        network = parse(text)
    except Exception as exc:  # compared with the reference, whatever it is
        return type(exc), str(exc)
    address = network.network_address
    return type(network), int(address), network.prefixlen, str(network), address.scope_id


# Plain lengths in and out of range, with leading zeros, and odd ones.
_LENGTH = st.one_of(
    st.integers(0, 135).map(str),
    st.integers(0, 200).map(lambda n: f"0{n}"),
    st.sampled_from(
        ["", " 64", "64 ", "+64", "-1", "1e2", "\u0666\u0664", "\uff16\uff14", "64/64", "9" * 5000]
    ),
)


@st.composite
def prefix_texts(draw) -> str:
    if draw(st.integers(0, 7)) == 0:  # no length at all
        return draw(address_texts())
    return draw(address_texts()) + "/" + draw(_LENGTH)


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(prefix_texts())
@example("DDDD::/64")
@example("DDDD::1/64")
@example("::/0")
@example("::1/128")
@example("::/129")
@example("::/064")
@example("fe80::%eth0/64")
@example("::1.2.3.4/120")
@example("DDDD::")
@example("/64")
@example("::/" + "9" * 5000)
def test_prefix_parse_matches_ipaddress(text):
    collector = _Collector()
    outcome = network_outcome(collector.network, text)
    assert outcome == network_outcome(partial(IPv6Network, strict=False), text)
    if outcome[0] is IPv6Network:
        assert collector.network(text) is collector.network(text)


# Behavior specs -----------------------------------------------------------------

def test_behavior_specs_construct():
    assert isinstance(behavior_from_spec("passthrough"), PassThroughRouter)
    assert isinstance(behavior_from_spec("prefix-filter:DDDD::/64"), PrefixFilter)
    assert isinstance(behavior_from_spec("payload-stamp:0xAB"), PayloadStamper)
    editor = behavior_from_spec("chain-editor:insert-after:BBBB::7+BBBB::8")
    assert isinstance(editor, ChainEditor)
    assert editor.edit.sids == (IPv6Address("BBBB::7"), IPv6Address("BBBB::8"))
    at = behavior_from_spec("chain-editor:insert-at:1:BBBB::7")
    assert at.edit.position == 1
    replace_all = behavior_from_spec("chain-editor:replace:CCCC::2")
    assert replace_all.edit.sids == (IPv6Address("CCCC::2"),)


def test_unknown_behavior_rejected():
    with pytest.raises(errors.ValidationError):
        behavior_from_spec("teleport")


# route add ------------------------------------------------------------------------

def test_route_add_installs_rule_chain_route():
    updated = parse_config_text(route_add(_TESTBED, "FFFF::2/64", "AAAA::1", ["CCCC::2"]))
    chain = next(c for c in updated.chains if c.chain_id == "rt-ffff::-64")
    assert chain.segments == (IPv6Address("CCCC::2"),)
    assert chain.ingress_source == IPv6Address("AAAA::2")
    rule = next(r for r in updated.rules if r.chain_id == "rt-ffff::-64")
    assert rule.node_id == "er1"
    assert str(rule.network) == "ffff::/64"
    route = next(r for r in updated.routes if str(r.network) == "ffff::/64")
    assert route.via == "nfv"


def test_route_add_reuses_chain_with_same_segments():
    # A second steered prefix over the same path shares the chain rather
    # than claiming the SR-unaware SID twice.
    updated = parse_config_text(route_add(_TESTBED, "FFFF::/64", "AAAA::1", ["BBBB::2", "CCCC::2"]))
    assert len(updated.chains) == len(parse_config_text(_TESTBED).chains)
    rule = next(r for r in updated.rules if str(r.network) == "ffff::/64")
    assert rule.chain_id == "c1"


def test_route_add_is_idempotent():
    once = route_add(_TESTBED, "FFFF::/64", "AAAA::1", ["CCCC::2"])
    assert route_add(once, "FFFF::/64", "AAAA::1", ["CCCC::2"]) == once


def test_route_add_bad_prefix():
    with pytest.raises(errors.ValidationError) as info:
        route_add(_TESTBED, "junk/99", "AAAA::1", ["BBBB::2"])
    assert info.value.problems == ["bad prefix 'junk/99': At least 3 parts expected in 'junk'"]


def test_route_add_unknown_segment():
    with pytest.raises(errors.ValidationError) as info:
        route_add(_TESTBED, "FFFF::/64", "AAAA::1", ["1234::1", "CCCC::2"])
    assert info.value.problems == ["chain 'rt-ffff::-64' references undeclared SID 1234::1"]


def test_route_add_refuses_an_edit_that_would_not_load():
    # The chain line is cut at the comment sign, so the file would not load again.
    with pytest.raises(errors.ValidationError) as info:
        route_add(_TESTBED, "FFFF::/64", "AAAA::1", ["CCCC::2"], chain_id="x#y")
    assert info.value.problems == ["line 29: missing 'segs' field", "rule for unknown chain 'x'"]


def test_route_add_existing_route_matches_linux_example():
    # The steering already present in the testbed re-expressed as one
    # route-add is a complete no-op: rule, chain and route all exist.
    assert route_add(_TESTBED, "DDDD::2/64", "AAAA::1", ["BBBB::2", "CCCC::2"]) == _TESTBED
