"""Real-network execution: wire format, TCP runtime, and local clusters.

The simulator (:mod:`repro.runtime.simulator`) and the asyncio stub
(:mod:`repro.runtime.asyncio_runtime`) both run in one process.  This
package promotes the same sans-io protocol objects to *real processes over
real TCP sockets*:

* :mod:`repro.cluster.wire` — a versioned, length-prefixed binary wire
  format with lossless encode/decode for every protocol message, block,
  vote, and certificate type;
* :mod:`repro.cluster.tcp_transport` — an asyncio TCP transport with
  connection management (reconnect with exponential backoff), per-peer
  outbound queues with backpressure, and a socket-level fault-injection
  seam;
* :mod:`repro.cluster.faults` — replays :mod:`repro.chaos` fault schedules
  as real drops/delays/partitions inside the transport;
* :mod:`repro.cluster.node` — one replica process serving the standard
  :class:`repro.runtime.context.ReplicaContext` seam over the transport,
  with monotonic-clock timers and a JSONL commit log;
* :mod:`repro.cluster.harness` — runs an ``ExperimentConfig`` (and its
  open-loop ``WorkloadSpec``) on an n-replica local cluster, harvests the
  commit logs into the simulator's ``ExperimentResult``, and cross-validates
  the committed sequences against :class:`repro.chaos.invariants.InvariantChecker`.
"""

from repro.cluster.wire import (
    FrameDecoder,
    WireError,
    decode_envelope,
    decode_payload,
    encode_envelope,
    encode_frame,
    encode_payload,
)

__all__ = [
    "FrameDecoder",
    "WireError",
    "decode_envelope",
    "decode_payload",
    "encode_envelope",
    "encode_frame",
    "encode_payload",
]
