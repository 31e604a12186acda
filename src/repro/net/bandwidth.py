"""Bandwidth model: size-dependent transfer time.

The paper sweeps block payload size to control load (Section 9.2); larger
blocks take longer to push onto the wire, which is what bends the
latency-vs-throughput curves in Figure 6.  We charge a simple serialization
delay ``size / rate`` on the sender side of every message plus a per-message
overhead, with a distinct (higher) rate for messages that stay inside a
datacenter.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.topology import Topology


class BandwidthModel:
    """Transfer-time model for messages of a given size.

    Attributes:
        wan_bytes_per_s: throughput for inter-datacenter links (default
            ~1 Gbit/s, the sustained rate of the paper's t3.large instances).
        lan_bytes_per_s: throughput for intra-datacenter links.
        per_message_overhead_s: fixed processing/serialization overhead.
    """

    def __init__(
        self,
        wan_bytes_per_s: float = 125_000_000.0,
        lan_bytes_per_s: float = 600_000_000.0,
        per_message_overhead_s: float = 0.0002,
        topology: Optional[Topology] = None,
    ) -> None:
        if wan_bytes_per_s <= 0 or lan_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        if per_message_overhead_s < 0:
            raise ValueError("overhead must be non-negative")
        self._wan = wan_bytes_per_s
        self._lan = lan_bytes_per_s
        self._overhead = per_message_overhead_s
        self._topology = topology
        # (sender-datacenter, size) -> (receivers key, shared row); see
        # transfer_row.
        self._row_template_cache: Dict[Tuple[str, int], tuple] = {}

    @property
    def per_message_overhead_s(self) -> float:
        """The fixed per-message overhead (reused by transport strategies)."""
        return self._overhead

    def transfer_time(self, sender: int, receiver: int, size_bytes: int) -> float:
        """Return the transfer time in seconds for ``size_bytes``."""
        if size_bytes < 0:
            raise ValueError("size must be non-negative")
        if self._topology is not None and (
            sender == receiver or self._topology.colocated(sender, receiver)
        ):
            rate = self._lan
        else:
            rate = self._wan
        return self._overhead + size_bytes / rate

    def transfer_row(self, sender: int, receivers: Sequence[int],
                     size_bytes: int) -> List[float]:
        """Per-receiver transfer times, element-identical to per-call
        :meth:`transfer_time`.

        Only two values exist per size — the LAN rate for same-datacenter
        (and self) copies, the WAN rate otherwise — and which applies
        depends only on the sender's datacenter, so the row is built once
        per ``(sender-datacenter, size)`` and shared (all senders in one
        datacenter see the same row: the self entry is LAN-priced either
        way).  Callers must treat the returned list as immutable.
        """
        if size_bytes < 0:
            raise ValueError("size must be non-negative")
        topology = self._topology
        if topology is None:
            # Without a topology every copy (self included) is WAN-priced.
            value = self._overhead + size_bytes / self._wan
            return [value] * len(receivers)
        name = topology.datacenter(sender).name
        key = (name, size_bytes)
        entry = self._row_template_cache.get(key)
        if entry is not None and (entry[0] is receivers or entry[0] == receivers):
            return entry[1]
        wan_value = self._overhead + size_bytes / self._wan
        lan_value = self._overhead + size_bytes / self._lan
        local_ids = set(topology.replicas_in(name))
        row = [lan_value if receiver in local_ids else wan_value
               for receiver in receivers]
        self._row_template_cache[key] = (tuple(receivers), row)
        return row
