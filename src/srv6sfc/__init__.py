"""Userspace IPv6 segment-routing service chaining.

Modules:

wire
    The packet model and its bit-exact IPv6 + segment-routing-header
    codec in pure Python, and a minimal UDP carrier.
chain
    Service chains, the SID registry, the univocal-mapping constraint
    and longest-prefix classification.
dataplane
    Per-node packet pipeline: encapsulation, segment endpoint handling,
    the SR/VNF connector for both VNF kinds, and cost accounting.
sim
    Deterministic topology and packet-walking engine.
trace
    Per-packet trace events and their JSON Lines export.
bench
    Rate sweeps over a synthetic capacity model: success ratio,
    utilization, region labels and linear regression.
config
    The scenario file format: loading, validation, rendering, ``route
    add``, and building a network from a validated config.
cli
    The ``srv6sfc`` command surface.
errors
    The exception hierarchy; everything raised on purpose derives from
    ``SfcError``.
"""

__version__ = "0.1.0"
