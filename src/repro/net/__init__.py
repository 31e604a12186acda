"""Network substrate: latency, topologies, bandwidth, faults — and transport.

The paper's evaluation runs on AWS WAN deployments; this package replaces the
testbed with a parametric network model (README, Design notes,
"Substitutions"):

* :mod:`repro.net.latency` — per-link one-way delay models (constant,
  uniform, explicit matrix, geographic great-circle).
* :mod:`repro.net.topology` — datacenter catalogue (AWS regions with
  coordinates) and the three replica placements used in the paper's
  experiments.
* :mod:`repro.net.bandwidth` — size-dependent transfer time.
* :mod:`repro.net.faults` — crash faults, message drops, and partitions.
* :mod:`repro.net.transport` — the dissemination layer composing the three
  models above into per-receiver deliveries.  Strategies:
  :class:`~repro.net.transport.DirectTransport` (ideal n-way unicast, the
  default), :class:`~repro.net.transport.ContendedUplinkTransport`
  (sender-side NIC queue: broadcasts drain sequentially, so leader fan-out
  cost scales with n), and :class:`~repro.net.transport.RelayTransport`
  (k-relay dissemination trees).

The split matters: latency/bandwidth/fault models describe *links*, while a
transport describes *how a send uses them* — one message per receiver, in
what order, through which intermediaries.  Protocols never see any of this;
they call ``ctx.send`` / ``ctx.broadcast`` and the configured transport
decides when each copy arrives.

This ``__init__`` imports nothing: import names from the submodules above.
"""
