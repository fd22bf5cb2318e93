"""Determinism & sim-correctness static analysis (rules D101-D111).

Run as ``python -m repro.lint [paths...]``; see ``docs/DETERMINISM.md``
for the rule catalog and the inline-suppression workflow.
"""

from .config import DEFAULT_CONFIG, LintConfig
from .core import Finding, ModuleInfo, Rule, RULES, lint_paths, lint_source
from . import rules  # noqa: F401  (registers the rule classes)

__all__ = [
    "DEFAULT_CONFIG", "LintConfig",
    "Finding", "ModuleInfo", "Rule", "RULES",
    "lint_paths", "lint_source",
]
