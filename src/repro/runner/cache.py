"""Content-addressed on-disk result cache for simulation points.

A cache entry is keyed by a SHA-256 over four components:

``worker ref | canonical params JSON | seed | code fingerprint``

The *code fingerprint* hashes the content of every ``.py`` file in the
``repro`` package, so editing any simulator/experiment source invalidates
every entry (a point's params cannot see which code paths it exercises, so
the only safe granularity is the whole package). Params and seed changes
invalidate exactly the points they affect.

Values are stored as JSON (workers return plain dicts/lists/scalars) under
``.repro_cache/points/<key[:2]>/<key>.json`` with enough metadata to audit
an entry (point id, params, seed, elapsed, fingerprint). Writes are
atomic (tmp file + ``os.replace``) so a crashed or parallel run never
leaves a truncated entry; reads treat any undecodable entry as a miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Tuple

from .sweep import Point

__all__ = ["ResultCache", "code_fingerprint", "cache_key", "DEFAULT_CACHE_DIR"]

DEFAULT_CACHE_DIR = ".repro_cache"

_FINGERPRINT_CACHE: Dict[str, str] = {}


def code_fingerprint(package_root: Optional[str] = None) -> str:
    """Digest of all ``repro`` package sources (memoised per process)."""
    if package_root is None:
        package_root = str(Path(__file__).resolve().parent.parent)
    cached = _FINGERPRINT_CACHE.get(package_root)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    root = Path(package_root)
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    fingerprint = digest.hexdigest()[:16]
    _FINGERPRINT_CACHE[package_root] = fingerprint
    return fingerprint


def cache_key(point: Point, fingerprint: str, audit_tag: str = "") -> str:
    # content_key is "fn|params|seed" for healthy points — byte-identical
    # to the historical four-component blob — and gains a "|faults=..."
    # component for faulted points, so they can never collide with (or be
    # served from) a healthy entry. audit_tag is non-empty only under
    # strict audit gating: a gated run must not be satisfied by an entry
    # whose audit summary was never captured, while runs without gating
    # keep their historical keys byte for byte.
    blob = f"{point.content_key}|{fingerprint}"
    if audit_tag:
        blob += f"|audit={audit_tag}"
    return hashlib.sha256(blob.encode()).hexdigest()


class ResultCache:
    """Get/put point results; misses on absent, stale, or corrupt entries."""

    def __init__(self, root: str = DEFAULT_CACHE_DIR,
                 fingerprint: Optional[str] = None,
                 audit_tag: str = ""):
        self.root = Path(root)
        self.fingerprint = fingerprint or code_fingerprint()
        #: Non-empty under strict audit gating; see :func:`cache_key`.
        self.audit_tag = audit_tag
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.root / "points" / key[:2] / f"{key}.json"

    def key(self, point: Point) -> str:
        return cache_key(point, self.fingerprint, self.audit_tag)

    def get_entry(self, point: Point) -> Optional[Dict[str, Any]]:
        """Full cache record (metadata + value + audit summary) or None;
        a corrupt entry is a miss, not an error."""
        path = self._path(self.key(point))
        try:
            with open(path, encoding="utf-8") as fh:
                record = json.load(fh)
            record["value"]
        except (OSError, ValueError, KeyError):
            self.misses += 1
            return None
        self.hits += 1
        return record

    def get(self, point: Point) -> Tuple[bool, Any]:
        """Return ``(hit, value)``; a corrupt entry is a miss, not an error."""
        record = self.get_entry(point)
        if record is None:
            return False, None
        return True, record["value"]

    def put(self, point: Point, value: Any,
            elapsed: Optional[float] = None,
            audit: Optional[Dict[str, Any]] = None) -> None:
        record = {
            "point_id": point.point_id,
            "fn": point.fn,
            "params": dict(point.params),
            "seed": point.seed,
            "faults": point.faults or None,
            "scenario": point.scenario or None,
            "fingerprint": self.fingerprint,
            "elapsed_s": elapsed,
            "saved_at": time.time(),
            "audit": audit,
            "value": value,
        }
        path = self._path(self.key(point))
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(record, fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    def contains(self, point: Point) -> bool:
        return self._path(self.key(point)).is_file()

    def prune(self, keep_fingerprints: Iterable[str] = ()) -> int:
        """Delete entries whose fingerprint is neither current nor kept.
        Returns the number of entries removed."""
        keep = set(keep_fingerprints) | {self.fingerprint}
        removed = 0
        points_dir = self.root / "points"
        if not points_dir.is_dir():
            return 0
        for path in points_dir.glob("*/*.json"):
            try:
                with open(path, encoding="utf-8") as fh:
                    record = json.load(fh)
                stale = record.get("fingerprint") not in keep
            except (OSError, ValueError):
                stale = True
            if stale:
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed
