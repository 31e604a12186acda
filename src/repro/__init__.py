"""Banyan: Fast Rotating Leader BFT — Python reproduction.

This package reproduces the system described in "Banyan: Fast Rotating
Leader BFT" (Vonlanthen, Sliwinski, Albarello, Wattenhofer; MIDDLEWARE 2024):
the Banyan protocol itself (:mod:`repro.core`), the ICC / HotStuff /
Streamlet baselines (:mod:`repro.protocols`), and every substrate needed to
run and evaluate them — simulated cryptography (:mod:`repro.crypto`), leader
rotation (:mod:`repro.beacon`), a WAN network model (:mod:`repro.net`), a
deterministic discrete-event runtime plus an asyncio runtime
(:mod:`repro.runtime`), the SMR harness (:mod:`repro.smr`), and the
evaluation scenarios reproducing every table and figure of the paper
(:mod:`repro.eval`).

Quickstart::

    from repro import BanyanReplica, ProtocolParams, Simulation, NetworkConfig
    from repro.protocols.registry import create_replicas

    params = ProtocolParams(n=4, f=1, p=1, rank_delay=0.4)
    replicas = create_replicas("banyan", params)
    sim = Simulation(replicas, NetworkConfig())
    sim.run(until=10.0)
    print(len(sim.commits_for(0)), "blocks committed at replica 0")

The top-level names are imported from their defining modules on first use
(PEP 562), so ``import repro`` — and with it every ``repro.cluster``
process — loads neither the simulator nor numpy.
"""

import importlib

__version__ = "1.0.0"

#: Each lazily exported name and the module that defines it.
_EXPORTS = {
    "BanyanReplica": "repro.core.banyan",
    "ExperimentConfig": "repro.eval.experiment",
    "HotStuffReplica": "repro.protocols.hotstuff",
    "ICCReplica": "repro.protocols.icc",
    "NetworkConfig": "repro.runtime.simulator",
    "Protocol": "repro.protocols.base",
    "ProtocolParams": "repro.protocols.base",
    "Simulation": "repro.runtime.simulator",
    "StreamletReplica": "repro.protocols.streamlet",
    "run_experiment": "repro.eval.experiment",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    """Import ``name`` from its defining module on first access (PEP 562)."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
