"""In-memory key-value store served over eRPC (§6.1).

Workload shape from the paper: 1:1 get/put mix with a 1:4 key:value ratio
(16 B keys, 64 B values -> 144 B request packets), 1,000 pre-populated
entries, requests drawn uniformly at random by the clients.

The store is a real hash map — requests execute actual ``dict`` operations
so correctness is testable — while the *simulated* CPU cost is charged via
a calibrated cycle model (hash + probe + value copy).
"""

from __future__ import annotations

from typing import Optional

from ..sim.rng import RngRegistry
from .erpc import RequestContext

__all__ = ["KvStore", "KvWorkload", "kv_request_payload"]

KEY_SIZE = 16
VALUE_SIZE = 64
#: Request header + key + value (put) padded as the paper's 144 B packet.
REQUEST_PAYLOAD = 144


def kv_request_payload(key_size: int = KEY_SIZE,
                       value_size: int = VALUE_SIZE) -> int:
    """Packet payload of a put request: header + key + value."""
    return 64 + key_size + value_size


class KvStore:
    """The server-side store plus its request handler."""

    #: Cycles for hash + bucket probe on a resident table.
    LOOKUP_CYCLES = 110.0
    #: Cycles per 8 bytes of value copied into the response.
    COPY_CYCLES_PER_8B = 1.0

    def __init__(self, entries: int = 1000, value_size: int = VALUE_SIZE,
                 seed: int = 0):
        self.value_size = value_size
        self.rng = RngRegistry(seed).stream("kvstore")
        self.table = {self._key(i): self._value(i) for i in range(entries)}
        self.gets = 0.0
        self.puts = 0.0
        self.hits = 0.0
        self.misses = 0.0

    @staticmethod
    def _key(i: int) -> bytes:
        return i.to_bytes(8, "big").rjust(KEY_SIZE, b"\0")

    def _value(self, i: int) -> bytes:
        return (i % 251).to_bytes(1, "big") * self.value_size

    def __len__(self) -> int:
        return len(self.table)

    def get(self, key: bytes) -> Optional[bytes]:
        self.gets += 1
        value = self.table.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key: bytes, value: bytes) -> None:
        self.puts += 1
        self.table[key] = value

    # ------------------------------------------------------------------
    # eRPC handler
    # ------------------------------------------------------------------
    def handle(self, ctx: RequestContext) -> float:
        """1:1 get/put on a random key; returns CPU cycles to charge."""
        idx = self.rng.randrange(len(self.table) or 1)
        key = self._key(idx)
        copy_cycles = self.COPY_CYCLES_PER_8B * (self.value_size / 8)
        if self.rng.random() < 0.5:
            self.get(key)
        else:
            self.put(key, self._value(idx))
        return self.LOOKUP_CYCLES + copy_cycles


class KvWorkload:
    """Client-side description used by scenario builders."""

    def __init__(self, entries: int = 1000, key_size: int = KEY_SIZE,
                 value_size: int = VALUE_SIZE):
        self.entries = entries
        self.key_size = key_size
        self.value_size = value_size

    @property
    def request_payload(self) -> int:
        return kv_request_payload(self.key_size, self.value_size)
