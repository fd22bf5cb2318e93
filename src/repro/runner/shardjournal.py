"""The shard run journal: what the attempts of one sharded run agreed on.

A process-mode sharded run recovers a dead worker by rerunning from
t = 0 (:func:`repro.shard.run_sharded`): a shard kernel is a pure
function of ``(scenario, plan, index)`` and the barrier windows it has
run, so every attempt must reproduce the previous ones window by window.
:class:`ShardJournal` holds, across the attempts, the barrier windows
issued so far and each shard's cumulative event count at every
acknowledged window, so a rerun that drifts from an earlier attempt is
caught at the first window where the counts differ, and a chaos kill
fires only the first time any attempt issues its window.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

__all__ = ["ShardJournal"]


class ShardJournal:
    """Issued windows and per-window event counts over all attempts."""

    def __init__(self) -> None:
        #: Barrier windows issued by any attempt so far.
        self.issued = 0
        #: Per acknowledged window, every shard's cumulative event count.
        self.counts: List[Tuple[int, ...]] = []

    def issue(self, window: int) -> bool:
        """Note that an attempt issues ``window``; ``True`` the first
        time any attempt does."""
        if window < self.issued:
            return False
        self.issued = window + 1
        return True

    def acknowledge(self, window: int,
                    counts: Tuple[int, ...]) -> Optional[int]:
        """Record ``counts`` at ``window`` if no earlier attempt reached
        it, else compare them with the recorded ones. Returns the first
        shard whose count differs, or ``None``."""
        if window == len(self.counts):
            self.counts.append(counts)
            return None
        for shard, (got, want) in enumerate(zip(counts,
                                                self.counts[window])):
            if got != want:
                return shard
        return None
