"""Client workload subsystem: traffic generation and end-to-end latency.

The paper evaluates the protocols under synthetic fixed-size payloads
generated by the leader.  This package adds the missing client side of the
system so experiments can be driven by realistic, shifting demand:

* :mod:`repro.workload.arrivals` — open-loop arrival processes (Poisson,
  constant-rate, diurnal sine, flash crowd);
* :mod:`repro.workload.clients` — :class:`ClientPool`, the open-/closed-loop
  client population that submits transactions into the replicas' mempools
  (open-loop arrivals lazily, without an event each) and tracks every one
  from submission to commit;
* :mod:`repro.workload.payloads` — :class:`MempoolPayloadSource`, which
  builds proposals from the transactions pending in the proposer's mempool;
* :mod:`repro.workload.transactions` — transaction encoding and lifecycle
  records;
* :mod:`repro.workload.spec` — :class:`WorkloadSpec`, the declarative
  configuration consumed by the experiment harness and CLI.
"""

from repro.workload.arrivals import (
    ArrivalProcess,
    ConstantRate,
    DiurnalArrivals,
    FlashCrowdArrivals,
    PoissonArrivals,
)
from repro.workload.clients import ClientPool
from repro.workload.payloads import MempoolPayloadSource
from repro.workload.spec import WorkloadSpec
from repro.workload.transactions import TxRecord, decode_tx_id, encode_transaction

__all__ = [
    "ArrivalProcess",
    "ClientPool",
    "ConstantRate",
    "DiurnalArrivals",
    "FlashCrowdArrivals",
    "MempoolPayloadSource",
    "PoissonArrivals",
    "TxRecord",
    "WorkloadSpec",
    "decode_tx_id",
    "encode_transaction",
]
