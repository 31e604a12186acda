"""Runtime layer: clocks, timers, and the two execution backends.

Protocols in this repository are *sans-io* state machines (see
:mod:`repro.protocols.base`): they only interact with the world through a
:class:`repro.runtime.context.ReplicaContext`.  This package provides:

* :mod:`repro.runtime.context` — the context record and timer type;
* :mod:`repro.runtime.simulator` — a deterministic discrete-event simulator
  driving any set of protocol replicas over the network substrate; used by
  all tests and benchmarks;
* :mod:`repro.runtime.compute` — pluggable replica compute models: what
  message handling costs in CPU time (free by default; a crypto cost
  table for CPU-bound regimes);
* :mod:`repro.runtime.asyncio_runtime` — a real-time asyncio runtime with an
  in-memory delayed transport; used by the asyncio example to show the same
  protocol objects running under ``asyncio``.

This ``__init__`` imports nothing: import names from the submodules above.
"""
