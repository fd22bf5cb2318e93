"""The CEIO software ring (§4.2, Figure 7).

A two-producer / one-consumer ring that unifies the fast-path HW ring and
the slow-path HW ring into one application-facing, **order-preserving**
sequence. Ordering across path transitions relies on *phase exclusivity*:
when a flow degrades to the slow path, a barrier is set at the number of
fast-path packets already issued to the DMA engine; slow-path entries are
held back until every one of those fast-path packets has been delivered,
so the consumer never observes a slow packet ahead of an earlier fast one.

Entries carry a per-entry location flag (``resident``) exactly as the
paper describes — the driver polls it to decide which entries still need a
DMA read from on-NIC memory. :meth:`SwRing.mark_resident` is its only
writer, so the ring keeps a count of non-resident entries and answers the
driver's per-poll questions without scanning.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import Deque, Iterator, List, Optional

__all__ = ["SwEntry", "SwRing"]


class SwEntry:
    """One SW-ring slot: a record plus its location/fetch flags."""

    __slots__ = ("record", "resident", "fetching")

    def __init__(self, record, resident: bool):
        self.record = record
        #: True once the payload is in host memory (fast path: immediately;
        #: slow path: after the DMA read completes). Set through
        #: :meth:`SwRing.mark_resident` only.
        self.resident = resident
        #: True while a slow-path DMA read for this entry is in flight.
        self.fetching = False


class SwRing:
    """Order-preserving merge of fast-path and slow-path deliveries."""

    def __init__(self, flow_id: int):
        self.flow_id = flow_id
        self._entries: Deque[SwEntry] = deque()
        self._pending_slow: Deque[SwEntry] = deque()
        #: Non-resident entries in ``_entries`` and ``_pending_slow``
        #: together; only :meth:`mark_resident` brings it down.
        self._nonresident = 0
        #: Barrier: slow entries may enter only once this many fast-path
        #: packets have been delivered. None = no transition in progress.
        self._barrier: Optional[int] = None
        self.fast_issued = 0
        self.fast_delivered = 0
        self.out_of_order = 0
        #: Records handed to the application via :meth:`pop_ready`
        #: (conservation meter for repro.audit).
        self.popped = 0
        #: Ordering holes forgiven by the stuck-slot watchdog (fast-path
        #: packets that were issued but whose delivery was lost).
        self.holes_released = 0
        self._last_seq_popped = -1

    # ------------------------------------------------------------------
    # Producers
    # ------------------------------------------------------------------
    def note_fast_issued(self) -> None:
        """A fast-path DMA write was issued for this flow."""
        self.fast_issued += 1

    def push_fast(self, record) -> None:
        """Fast-path delivery (DMA write completed into host memory)."""
        self._entries.append(SwEntry(record, resident=True))
        self.fast_delivered += 1
        self._flush_pending()

    def set_barrier(self) -> None:
        """Flow degraded: pin the fast/slow boundary at packets issued so far."""
        self._barrier = self.fast_issued

    def clear_barrier(self) -> None:
        self._barrier = None
        self._flush_pending()

    def push_slow(self, record) -> SwEntry:
        """Slow-path arrival (payload buffered in on-NIC memory)."""
        entry = SwEntry(record, resident=False)
        self._nonresident += 1
        self._pending_slow.append(entry)
        self._flush_pending()
        return entry

    def push_slow_unordered(self, record) -> SwEntry:
        """Ablation hook: bypass the barrier (phase exclusivity off)."""
        entry = SwEntry(record, resident=False)
        self._nonresident += 1
        self._entries.append(entry)
        return entry

    def mark_resident(self, entry: SwEntry) -> None:
        """The payload behind ``entry`` reached host memory (a drain's DMA
        read or a spill write completed)."""
        if not entry.resident:
            entry.resident = True
            self._nonresident -= 1

    def _flush_pending(self) -> None:
        if self._barrier is not None and self.fast_delivered < self._barrier:
            return
        while self._pending_slow:
            self._entries.append(self._pending_slow.popleft())

    # ------------------------------------------------------------------
    # Stuck-slot recovery (repro.faults)
    # ------------------------------------------------------------------
    def barrier_unmet(self) -> bool:
        """True while slow entries are held back waiting on fast-path
        deliveries that have not happened (the state the stuck-slot
        watchdog monitors for progress)."""
        return self._barrier is not None and self.fast_delivered < self._barrier

    def release_barrier_holes(self) -> int:
        """Give up on fast-path packets the barrier is still waiting for.

        Their DMA writes were lost (dropped descriptors); no delivery will
        ever close the gap. Forgiving them means aligning ``fast_issued``
        down to ``fast_delivered`` — so a later re-degrade cannot recreate
        an unmeetable barrier from the same dead writes — and flushing the
        held-back slow entries. Returns the number of holes forgiven.
        """
        if not self.barrier_unmet():
            return 0
        missing = self._barrier - self.fast_delivered
        self.holes_released += missing
        self.fast_issued = self.fast_delivered
        self._barrier = None
        self._flush_pending()
        return missing

    # ------------------------------------------------------------------
    # Consumer (the CEIO driver)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries) + len(self._pending_slow)

    @property
    def head_ready(self) -> bool:
        """True when :meth:`pop_ready` would return a record."""
        return bool(self._entries) and self._entries[0].resident

    @property
    def ready_count(self) -> int:
        """Entries at the head that are host-resident."""
        count = 0
        for entry in self._entries:
            if not entry.resident:
                break
            count += 1
        return count

    def pop_ready(self, max_entries: int) -> List:
        """Pop up to ``max_entries`` host-resident records from the head."""
        records = []
        while (self._entries and len(records) < max_entries
               and self._entries[0].resident):
            entry = self._entries.popleft()
            seq = entry.record.packet.seq
            if seq < self._last_seq_popped and not entry.record.packet.retransmitted:
                self.out_of_order += 1
            self._last_seq_popped = max(self._last_seq_popped, seq)
            records.append(entry.record)
        self.popped += len(records)
        return records

    def nonresident_head(self, max_entries: int) -> List[SwEntry]:
        """The next entries that still need fetching (skipping ones already
        being fetched), up to ``max_entries``, scanning from the head."""
        out = []
        for entry in self._entries:
            if len(out) >= max_entries:
                break
            if entry.resident:
                continue
            if not entry.fetching:
                out.append(entry)
        return out

    @property
    def has_nonresident(self) -> bool:
        """A non-resident entry is in the ring, or slow entries are held
        back (with ``_pending_slow`` empty the count covers ``_entries``
        alone)."""
        return self._nonresident > 0 or bool(self._pending_slow)

    def iter_nonresident(self) -> Iterator[SwEntry]:
        """Every entry not yet host-resident, held-back ones included
        (audit helper: O(ring))."""
        for entry in chain(self._entries, self._pending_slow):
            if not entry.resident:
                yield entry
