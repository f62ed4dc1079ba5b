"""Userspace IPv6 segment-routing service chaining.

Subpackages and modules:

wire
    Bit-exact IPv6 + segment-routing-header codec in pure Python and a
    minimal UDP carrier.
chain
    Service chains, the SID registry, the univocal-mapping constraint
    and longest-prefix classification.
dataplane
    Per-node packet pipeline: encapsulation, segment endpoint handling,
    the SR/VNF connector for both VNF kinds, and cost accounting.
sim
    Deterministic topology and packet-walking engine.
bench
    Rate sweeps over a synthetic capacity model: success ratio,
    utilization, region labels and linear regression.
cli
    Config loader and the ``srv6sfc`` command surface.
"""

__version__ = "0.1.0"
