"""Cross-layer conservation auditing for the CEIO testbed.

Three pieces (see ``docs/AUDIT.md``):

- :class:`~repro.audit.ledger.Ledger` / ``Account`` — named debit/credit
  balance equations over the live counters and occupancy integers the
  simulated layers maintain anyway.
- :class:`~repro.audit.reconcile.Reconciler` / ``AuditReport`` — evaluates
  the equations at end-of-run (all accounts) or at periodic debug barriers
  (the ``barrier_safe`` subset) and emits structured who-owes-whom deltas.
- :func:`~repro.audit.wiring.build_fabric_ledger` — walks a compiled
  fabric and its I/O architectures and registers the standard account
  set for every layer.

This module also hosts the *report collector*: a process-local mailbox
that :meth:`Scenario.run_measure` drops each report summary into and that
the runner's pool workers drain after every point, so audit results ride
back to the parent alongside the point value without changing any
``run_point`` return type (golden digests stay byte-identical).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .ledger import Account, Ledger
from .merge import merge_audit
from .reconcile import AuditReport, Reconciler
from .wiring import build_fabric_ledger

__all__ = ["Account", "AuditReport", "Ledger", "Reconciler",
           "build_fabric_ledger", "merge_audit",
           "record_report", "drain_reports", "pending_report_count"]

#: Reports recorded since the last drain. Process-local by construction:
#: each pool worker is its own process and drains after every point; the
#: serial runner drains at the same boundary.
_PENDING: List[Dict[str, Any]] = []  # repro: noqa=D106 -- drained by the runner at point boundaries

#: Cap on violation messages carried in a drained summary.
_DETAIL_LIMIT = 8


def record_report(report: AuditReport) -> None:
    """Queue a report summary for the next :func:`drain_reports`."""
    _PENDING.append(report.to_dict())


def pending_report_count() -> int:
    return len(_PENDING)


def drain_reports() -> Optional[Dict[str, Any]]:
    """Summarise and clear all queued reports (None if none were queued).

    The summary is deliberately small and JSON-safe: it is attached to
    runner outcomes, the runlog, and cache records.
    """
    if not _PENDING:
        return None
    reports, _PENDING[:] = list(_PENDING), []
    violations = [v for report in reports for v in report["violations"]]
    summary: Dict[str, Any] = {
        "reports": len(reports),
        "checked": sum(report["checked"] for report in reports),
        "violations": len(violations),
    }
    if violations:
        summary["details"] = [v["message"] for v in violations[:_DETAIL_LIMIT]]
    return summary
