"""The call census of the packet path: every call a walk makes, pinned.

Each of ``conftest.guard_walks`` runs once as a warm-up, then once more
under ``scripts/call_census.py``'s ``count_calls``. Every Python-level
call is counted by ``(module, qualified name)``, and every call into C
(``[C]``) by the module and name of the builtin; a call of a type, such
as ``bytes(x)``, is no event. ``TABLE`` holds the counts over the eleven
packets of each walk; the deeply nested one, which spends the walk's
node-visit budget, makes most of the large counts. A change to the walk
changes the table, and the diff states the change's per-packet effect
exactly. This table is the packet path's call guard: a new call of any
name, Python or C, fails it.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from conftest import guard_walks
from srv6sfc import wire

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "call_census.py"
_spec = importlib.util.spec_from_file_location("call_census", _SCRIPT)
call_census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(call_census)

# Calls over the eleven packets, per network and trace mode.
TABLE = """
   testbed      chain8      editor      filter
 full term   full term   full term   full term
   10   10     10   10     10   10      6    6  _json encode_basestring_ascii [C]
    5    5      5    5      5    5      5    5  _struct Struct.pack [C]
 1365 1365   1365 1365   1365 1365   1365 1365  _struct Struct.unpack_from [C]
    5    5      5    5      5    5      5    5  builtins bytes.join [C]
 9671 5534   9735 5586   9663 5538   9651 5520  builtins dict.get [C]
    0    0     32   32      8    8      0    0  builtins id [C]
   10   10     10   10     10   10     10   10  builtins int.to_bytes [C]
 1392 1392   1384 1384   1400 1400   1386 1386  builtins len [C]
 4148   11   4160   11   4136   11   4142   11  builtins list.extend [C]
   11   11     11   11     11   11     11   11  builtins str.join [C]
 1378 1378   1406 1406   1394 1394   1374 1374  builtins tuple.__new__ [C]
 2755 2755   2755 2755   2755 2755   2751 2751  srv6sfc.chain PrefixTable.lookup
    0    0      0    0      4    4      0    0  srv6sfc.chain address_key
    0    0      0    0      4    4      0    0  srv6sfc.dataplane ChainEditor.__call__
    4    4      4    4      4    4      4    4  srv6sfc.dataplane ConnectorResult._build
    4    4     32   32      4    4      0    0  srv6sfc.dataplane PassThroughRouter.__call__
    0    0      0    0      0    0      4    4  srv6sfc.dataplane PrefixFilter.__call__
    4    4     32   32      8    8      2    2  srv6sfc.dataplane VnfAction._build
    0    0      0    0      0    0      2    2  srv6sfc.dataplane VnfAction.drop
    0    0      0    0      4    4      0    0  srv6sfc.dataplane VnfAction.edit_chain
    0    0      0    0      0    0      2    2  srv6sfc.dataplane VnfAction.forward
    0    0      0    0      0    0      2    2  srv6sfc.dataplane _dropped
    9    9      5    5      5    5      7    7  srv6sfc.dataplane _outer_packet
    9    9      5    5      9    9      7    7  srv6sfc.dataplane _payload_length
    0    0     32   32      8    8      0    0  srv6sfc.dataplane advance_segment
    0    0      0    0      4    4      0    0  srv6sfc.dataplane apply_edit
    4    4      4    4      4    4      4    4  srv6sfc.dataplane connector_process
 1373 1373   1369 1369   1369 1369   1371 1371  srv6sfc.dataplane decapsulate
 1369 1369   1369 1369   1369 1369   1367 1367  srv6sfc.dataplane egress_process
    5    5      5    5      5    5      5    5  srv6sfc.dataplane encapsulate
    4    4      0    0      0    0      2    2  srv6sfc.dataplane reencap_unaware
    4    4      4    4      4    4      4    4  srv6sfc.sim Delivered._build
    7    7      7    7      7    7      7    7  srv6sfc.sim Dropped._build
   11   11     11   11     11   11     11   11  srv6sfc.sim InjectResult._build
   11   11     11   11     11   11     11   11  srv6sfc.sim _walk
    4    4      4    4      4    4      4    4  srv6sfc.sim _with_hop_limit
   11   11     11   11     11   11     11   11  srv6sfc.sim classify_at_ingress
   11   11     11   11     11   11     11   11  srv6sfc.sim inject
   11   11     11   11     11   11     11   11  srv6sfc.trace Trace.__init__
    5    5      5    5      5    5      3    3  srv6sfc.trace Trace._pair
 4148 4148   4128 4128   4128 4128   4142 4142  srv6sfc.trace Trace.add
    0    0     32   32      8    8      0    0  srv6sfc.trace Trace.step
   11   11     11   11     11   11     11   11  srv6sfc.trace Trace.to_jsonl
 1378 1378   1406 1406   1386 1386   1376 1376  srv6sfc.wire Packet._build
   11   11     11   11     11   11     11   11  srv6sfc.wire clear_slot
 1373 1373   1369 1369   1369 1369   1371 1371  srv6sfc.wire parse_packet
    9    9      5    5      5    5      7    7  srv6sfc.wire serialize_packet
    5    5      5    5      5    5      5    5  srv6sfc.wire validate_packet
"""


def census_table(testbed_config_path) -> str:
    """One row per function, two columns (full, terminal-only) per network."""
    walks = guard_walks(testbed_config_path)
    columns = []
    for walk in walks.values():
        walk()  # warm-up: fills the event memo
        columns.append(call_census.count_calls(walk))
    networks = dict.fromkeys(name for name, _ in walks)
    lines = [
        "  ".join(f"{name:>10}" for name in networks),
        "  ".join([f"{'full':>5}{'term':>5}"] * len(networks)),
    ]
    for module, name in sorted(set().union(*columns)):
        counts = [f"{calls[module, name]:5d}" for calls in columns]
        pairs = ("".join(counts[i : i + 2]) for i in range(0, len(counts), 2))
        lines.append("  ".join(pairs) + f"  {module} {name}")
    return "\n" + "\n".join(lines) + "\n"


def test_walks_make_exactly_the_census_calls(testbed_config_path, monkeypatch):
    # The nested packet's decapsulations really parse, and a parsed
    # address is built only when the codec's bounded intern table lacks
    # it; other tests may have filled that table, so the census starts
    # from an empty one, as a fresh process does.
    monkeypatch.setattr(wire, "_addresses", type(wire._addresses)())
    assert census_table(testbed_config_path) == TABLE
