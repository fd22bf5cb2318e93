"""Result containers and text rendering for the reproduction experiments.

Every experiment produces an :class:`ExperimentResult`: the rows/series the
paper's figure or table reports, plus *shape checks* — assertions about
orderings, ratios, and crossovers that must hold for the reproduction to
count, independent of absolute numbers (our substrate is a simulator, not
the authors' testbed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

__all__ = ["ShapeCheck", "ExperimentResult", "render_table", "fmt"]


def fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.3f}"
    return str(value)


def render_table(headers: Sequence[str],
                 rows: Sequence[Sequence[Any]]) -> str:
    """Plain-text table with padded columns."""
    cells = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(parts):
        return "  ".join(p.ljust(w) for p, w in zip(parts, widths))
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in cells)
    return "\n".join(out)


@dataclass
class ShapeCheck:
    """One verified property of the reproduced result."""

    name: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}" + (f" — {self.detail}"
                                            if self.detail else "")


@dataclass
class ExperimentResult:
    exp_id: str
    title: str
    #: What the paper reports for this figure/table (for EXPERIMENTS.md).
    paper_claim: str
    headers: List[str] = field(default_factory=list)
    rows: List[List[Any]] = field(default_factory=list)
    checks: List[ShapeCheck] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Check helpers
    # ------------------------------------------------------------------
    def check(self, name: str, passed: bool, detail: str = "") -> bool:
        self.checks.append(ShapeCheck(name, bool(passed), detail))
        return bool(passed)

    def check_order(self, name: str, values: Dict[str, float],
                    descending_keys: Sequence[str]) -> bool:
        """Check values[k] is monotonically decreasing over the key order."""
        seq = [values[k] for k in descending_keys]
        passed = all(a >= b for a, b in zip(seq, seq[1:]))
        detail = " >= ".join(f"{k}:{fmt(values[k])}" for k in descending_keys)
        return self.check(name, passed, detail)

    def check_ratio(self, name: str, numerator: float, denominator: float,
                    lo: float, hi: Optional[float] = None) -> bool:
        ratio = numerator / denominator if denominator else float("inf")
        passed = ratio >= lo and (hi is None or ratio <= hi)
        bound = f">= {lo}" + (f" and <= {hi}" if hi is not None else "")
        return self.check(name, passed, f"ratio {fmt(ratio)} (want {bound})")

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self) -> str:
        out = [f"== {self.exp_id}: {self.title} ==",
               f"paper: {self.paper_claim}", ""]
        if self.rows:
            out.append(render_table(self.headers, self.rows))
            out.append("")
        for check in self.checks:
            out.append(str(check))
        for note in self.notes:
            out.append(f"note: {note}")
        return "\n".join(out)
