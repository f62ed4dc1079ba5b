"""The call census of the packet path: every call a walk makes, pinned.

Each of ``conftest.guard_walks`` runs once as a warm-up, then once more
under ``scripts/call_census.py``'s ``count_calls``. Every Python-level
call is counted by ``(module, qualified name)``, and every call into C
(``[C]``) by the module and name of the builtin; a call of a type, such
as ``bytes(x)``, is no event. ``TABLE`` holds the counts over the eight
packets of each walk. A change to the walk changes the table, and the
diff states the change's per-packet effect exactly. This table is the
packet path's call guard: a new call of any name, Python or C, fails it.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from conftest import guard_walks

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "call_census.py"
_spec = importlib.util.spec_from_file_location("call_census", _SCRIPT)
call_census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(call_census)

# Calls over the eight packets, per network and trace mode.
TABLE = """
   testbed      chain8      editor      filter
 full term   full term   full term   full term
    8    8      8    8      8    8      4    4  _json encode_basestring_ascii [C]
    4    4      4    4      4    4      4    4  _struct Struct.pack [C]
    4    4      4    4      4    4      4    4  builtins bytes.join [C]
  104   64    232  116    112   68     84   50  builtins dict.get [C]
    0    0     32   32      8    8      0    0  builtins id [C]
    8    8      8    8      8    8      8    8  builtins int.to_bytes [C]
   24   24     16   16     32   32     18   18  builtins len [C]
   48    8    124    8     52    8     42    8  builtins list.extend [C]
    8    8      8    8      8    8      8    8  builtins str.join [C]
   12   12     44   44     32   32      8    8  builtins tuple.__new__ [C]
   20   20     20   20     20   20     16   16  srv6sfc.chain PrefixTable.lookup
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
    8    8      4    4      4    4      6    6  srv6sfc.dataplane _outer_packet
    8    8      4    4      8    8      6    6  srv6sfc.dataplane _payload_length
    0    0     32   32      8    8      0    0  srv6sfc.dataplane advance_segment
    0    0      0    0      4    4      0    0  srv6sfc.dataplane apply_edit
    4    4      4    4      4    4      4    4  srv6sfc.dataplane connector_process
    8    8      4    4      4    4      6    6  srv6sfc.dataplane decapsulate
    4    4      4    4      4    4      2    2  srv6sfc.dataplane egress_process
    4    4      4    4      4    4      4    4  srv6sfc.dataplane encapsulate
    4    4      0    0      0    0      2    2  srv6sfc.dataplane reencap_unaware
    4    4      4    4      4    4      4    4  srv6sfc.sim Delivered._build
    4    4      4    4      4    4      4    4  srv6sfc.sim Dropped._build
    8    8      8    8      8    8      8    8  srv6sfc.sim InjectResult._build
    8    8      8    8      8    8      8    8  srv6sfc.sim _walk
    4    4      8    8      8    8      4    4  srv6sfc.sim _with_hop_limit
    8    8      8    8      8    8      8    8  srv6sfc.sim classify_at_ingress
    8    8      8    8      8    8      8    8  srv6sfc.sim inject
    8    8      8    8      8    8      8    8  srv6sfc.trace Trace.__init__
   48   48    124  124     52   52     42   42  srv6sfc.trace Trace.add
    8    8      8    8      8    8      8    8  srv6sfc.trace Trace.to_jsonl
   12   12     44   44     24   24     10   10  srv6sfc.wire Packet._build
    8    8      8    8      8    8      8    8  srv6sfc.wire clear_slot
    8    8      4    4      4    4      6    6  srv6sfc.wire parse_packet
    8    8      4    4      4    4      6    6  srv6sfc.wire serialize_packet
    4    4      4    4      4    4      4    4  srv6sfc.wire validate_packet
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


def test_walks_make_exactly_the_census_calls(testbed_config_path):
    assert census_table(testbed_config_path) == TABLE
