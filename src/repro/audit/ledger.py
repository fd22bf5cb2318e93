"""Conservation ledger: named debit/credit accounts over live meters.

An :class:`Account` states one balance equation of the simulated system —
"everything offered to this layer is either forwarded, dropped, or still
resident here" — as two lists of *sources*: debits (what came in) and
credits (where it went). A source is one of

- an ``(obj, "attr")`` pair read as a plain attribute: a counter field
  (``(nic, "rx_packets")``) or an occupancy int;
- a zero-argument callable returning a number (sums and derived
  occupancies).

Registration rejects anything else — a bare number such as
``nic.rx_packets`` would be read once and reported as a stale value — and
an ``(obj, "attr")`` pair whose attribute does not exist, so a wiring
mistake fails when the ledger is built, not at reconcile time.

Sources are registered once at build time and *read* only when a
:class:`~repro.audit.reconcile.Reconciler` checks the ledger, so the
simulation hot path pays nothing beyond the plain in-place increments the
instrumented layers already perform — no per-packet allocation, no
callbacks, no event traffic.

Two account shapes exist:

- ``exact`` (the default): ``|debits - credits| <= tolerance``.
- ``bounded``: ``0 <= debits - credits <= slack + tolerance`` where
  ``slack`` is its own source list. Used for equations that are exact only
  up to a known in-flight quantity (e.g. the one packet that may be inside
  the NIC firmware handler) and for capacity invariants
  (``occupancy <= capacity`` is ``bounded`` with empty credits).

``barrier_safe`` marks accounts whose every debit/credit transition is
atomic within a single event-kernel step; only those may be asserted at
arbitrary simulation instants (the periodic debug barriers). The rest are
exact once ``Simulator.run(until)`` has drained all same-timestamp events
— i.e. at end-of-run reconciliation.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple, Union

__all__ = ["Account", "Ledger", "read_source"]

#: Valid unit tags for accounts (documentation + report labelling).
UNITS = ("packets", "bytes", "descriptors", "credits", "lines", "ways")

Source = Union[Callable[[], float], Tuple[Any, str]]


def read_source(source: Source) -> float:
    """Read a source's current value (see module docstring for kinds)."""
    if isinstance(source, tuple):
        obj, attr = source
        return getattr(obj, attr)
    return source()


class Account:
    """One named balance equation with unit-tagged debit/credit sources.

    ``cross_shard`` marks an account that holds only *part* of its
    equation's sources because the rest live in a peer shard (sharded
    execution splits boundary-link wire accounts at the cut). Such
    accounts are skipped by local reconciliation — their partial
    snapshots are exported instead and merged by name across shards
    (:func:`repro.audit.merge.merge_audit`)."""

    __slots__ = ("name", "unit", "tolerance", "barrier_safe", "bounded",
                 "cross_shard", "_debits", "_credits", "_slack")

    def __init__(self, name: str, unit: str, tolerance: float = 0.0,
                 barrier_safe: bool = False, bounded: bool = False,
                 cross_shard: bool = False):
        if unit not in UNITS:
            raise ValueError(f"unknown unit {unit!r}; choose from {UNITS}")
        self.name = name
        self.unit = unit
        self.tolerance = tolerance
        self.barrier_safe = barrier_safe
        self.bounded = bounded
        self.cross_shard = cross_shard
        self._debits: List[Tuple[str, Source]] = []
        self._credits: List[Tuple[str, Source]] = []
        self._slack: List[Tuple[str, Source]] = []

    # ------------------------------------------------------------------
    def debit(self, label: str, source: Source) -> "Account":
        """Register an inflow source; returns self for chaining."""
        self._debits.append((label, self._checked(label, source)))
        return self

    def credit(self, label: str, source: Source) -> "Account":
        """Register an outflow/occupancy source; returns self for chaining."""
        self._credits.append((label, self._checked(label, source)))
        return self

    def slack(self, label: str, source: Source) -> "Account":
        """Register a slack source (``bounded`` accounts only)."""
        self._slack.append((label, self._checked(label, source)))
        return self

    def _checked(self, label: str, source: Source) -> Source:
        """``source`` if it is a readable source kind, else raise."""
        if isinstance(source, tuple):
            if len(source) == 2 and isinstance(source[1], str):
                obj, attr = source
                if not hasattr(obj, attr):
                    raise AttributeError(
                        f"account {self.name!r} source {label!r}: "
                        f"{type(obj).__name__} has no attribute {attr!r}")
                return source
        elif callable(source):
            return source
        raise TypeError(
            f"account {self.name!r} source {label!r}: expected an "
            f"(obj, \"attr\") pair or a zero-argument callable, got "
            f"{type(source).__name__} {source!r}")

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Read every source and evaluate the balance equation."""
        debits = {label: read_source(src) for label, src in self._debits}
        credits = {label: read_source(src) for label, src in self._credits}
        slack = sum(read_source(src) for _, src in self._slack)
        delta = sum(debits.values()) - sum(credits.values())
        if self.bounded:
            ok = -self.tolerance <= delta <= slack + self.tolerance
        else:
            ok = abs(delta) <= self.tolerance
        return {"account": self.name, "unit": self.unit, "ok": ok,
                "delta": delta, "slack": slack,
                "debits": debits, "credits": credits}


class Ledger:
    """An ordered collection of accounts (insertion order = check order)."""

    __slots__ = ("accounts",)

    def __init__(self):
        self.accounts: Dict[str, Account] = {}

    def account(self, name: str, unit: str, tolerance: float = 0.0,
                barrier_safe: bool = False, bounded: bool = False,
                cross_shard: bool = False) -> Account:
        """Create (or fetch) the account ``name``; parameters apply on
        first creation only."""
        acct = self.accounts.get(name)
        if acct is None:
            acct = Account(name, unit, tolerance=tolerance,
                           barrier_safe=barrier_safe, bounded=bounded,
                           cross_shard=cross_shard)
            self.accounts[name] = acct
        return acct

    def __len__(self) -> int:
        return len(self.accounts)

    def __iter__(self):
        return iter(self.accounts.values())
