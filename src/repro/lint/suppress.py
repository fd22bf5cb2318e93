"""Inline suppressions: the one way to accept a finding.

Inline form, on the flagged line (a trailing justification is encouraged
and ignored by the parser)::

    self._registry = {}  # repro: noqa=D106 -- import-time registry

``# repro: noqa`` with no codes suppresses every rule on that line.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, Iterable

__all__ = ["NoqaMap", "parse_noqa"]

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:=(?P<codes>[A-Z][A-Z0-9]*(?:\s*,\s*[A-Z][A-Z0-9]*)*))?",
)

#: Sentinel: the line suppresses every code.
ALL_CODES = frozenset({"*"})


class NoqaMap:
    """Per-line suppression lookup."""

    def __init__(self, by_line: Dict[int, FrozenSet[str]]):
        self._by_line = by_line

    def suppresses(self, line: int, code: str) -> bool:
        codes = self._by_line.get(line)
        if codes is None:
            return False
        return codes is ALL_CODES or code in codes


def parse_noqa(lines: Iterable[str]) -> NoqaMap:
    by_line: Dict[int, FrozenSet[str]] = {}
    for lineno, text in enumerate(lines, start=1):
        if "repro:" not in text:
            continue
        m = _NOQA_RE.search(text)
        if m is None:
            continue
        raw = m.group("codes")
        if raw is None:
            by_line[lineno] = ALL_CODES
        else:
            by_line[lineno] = frozenset(
                c.strip() for c in raw.split(",") if c.strip())
    return NoqaMap(by_line)

