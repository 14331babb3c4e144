"""Content-addressed cell cache (the campaign's memo layer).

A campaign cell — one ``(experiment, quick, seed)`` simulation — is a
pure function of its cell dict and the simulator source code.  This
module memoizes finished cells on disk keyed by **content**, so a
warm rerun of an unchanged campaign executes zero cells and renders a
byte-identical report, and sweeps that share cells (repeated
``make golden-check``, ``--resume`` after the checkpoint manifest was
cleaned up, overlapping experiment subsets) skip the recompute.

The key is ``sha256(canonical-JSON(cell) + code fingerprint)`` where
the *code fingerprint* is a sha256 over every ``src/repro/**/*.py``
file (relative path + bytes, sorted).  Any source change — engine,
scheduler, experiment driver, workload table — flips the fingerprint
and silently invalidates every entry, so the cache can never serve a
result computed by different code.  That property is what makes it
safe to leave on by default: there is no manual invalidation step to
forget.  ``--no-cache`` (campaign CLI) bypasses it for A/B timing
runs; stale entries under old fingerprints are garbage-collected
opportunistically on ``put``.

Entries are one JSON file per key written through
:func:`repro.core.artifacts.atomic_write_json`, so a crash mid-write
can never leave a torn entry — a reader sees a complete file or no
file.  Unlike the ``--resume`` checkpoint journal (one file, scoped
to a single campaign's meta), cache entries are per-cell and
campaign-agnostic: two different campaigns sharing a cell share the
entry.  Each entry also carries a sha256 over its result, so bit rot
or truncation of an *existing* entry is detected on read, evicted
with one warning, and recomputed — never served.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from pathlib import Path
from typing import Any, Optional

from ..core.artifacts import atomic_write_json

FORMAT = "repro-cell-cache-v2"


def _result_sha(result: Any) -> str:
    """Integrity digest stored with every entry: sha256 over the
    result's canonical JSON.  The atomic write already rules out torn
    *new* files; this catches what it cannot — bit rot, truncation or
    in-place edits of an existing entry — so a corrupt entry is
    detected and recomputed, never served."""
    canonical = json.dumps(result, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()

#: default cache directory (repo-root relative, like the checkpoint)
DEFAULT_DIR = ".repro-cell-cache"

#: process-wide fingerprint memo — source files do not change under a
#: running process, and hashing ~40k lines per cell lookup would
#: defeat the point
_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """sha256 over every ``src/repro/**/*.py`` (sorted relative path +
    file bytes).  Computed once per process."""
    global _FINGERPRINT
    if _FINGERPRINT is None:
        root = Path(__file__).resolve().parents[1]
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


def cache_key(cell: Any, fingerprint: Optional[str] = None) -> str:
    """Content address for ``cell``: sha256 of its canonical JSON
    (sorted keys, so dict ordering is irrelevant) and the code
    fingerprint."""
    if fingerprint is None:
        fingerprint = code_fingerprint()
    canonical = json.dumps(cell, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode())
    digest.update(b"\0")
    digest.update(fingerprint.encode())
    return digest.hexdigest()


class _Miss:
    """Sentinel distinguishing "no entry" from a cached ``None``."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<MISS>"


class CellCache:
    """Directory of content-addressed cell results.

    ``get(cell)`` returns the stored result or :data:`MISS`;
    ``put(cell, result)`` records one atomically.  ``hits`` /
    ``misses`` count lookups for the campaign runner's summary line.
    """

    MISS = _Miss()

    def __init__(self, root=DEFAULT_DIR,
                 fingerprint: Optional[str] = None):
        self.root = Path(root)
        self.fingerprint = fingerprint or code_fingerprint()
        self.hits = 0
        self.misses = 0
        self._gc_done = False

    def path_for(self, cell: Any) -> Path:
        """The on-disk entry path for ``cell`` under the current
        fingerprint."""
        key = cache_key(cell, self.fingerprint)
        return self.root / f"{key}.json"

    def get(self, cell: Any) -> Any:
        """The cached result for ``cell`` under the current code
        fingerprint, or :data:`MISS`.  A wrong-fingerprint or
        differently-versioned entry is a plain miss; a *corrupt* one
        — truncated file, invalid JSON, or a result whose stored
        sha256 no longer matches (bit flip) — is additionally evicted
        with a single warning so it gets recomputed, never served."""
        path = self.path_for(cell)
        try:
            text = path.read_text()
        except OSError:
            self.misses += 1
            return self.MISS
        try:
            raw = json.loads(text)
        except ValueError:
            self._evict_corrupt(path, "truncated or unparsable")
            return self.MISS
        if (not isinstance(raw, dict) or raw.get("format") != FORMAT
                or raw.get("fingerprint") != self.fingerprint):
            self.misses += 1
            return self.MISS
        result = raw.get("result")
        if raw.get("sha256") != _result_sha(result):
            self._evict_corrupt(path, "result hash mismatch")
            return self.MISS
        self.hits += 1
        return result

    def _evict_corrupt(self, path: Path, why: str) -> None:
        """Drop a corrupt entry (count it as a miss): one warning,
        unlink, recompute downstream."""
        self.misses += 1
        warnings.warn(
            f"cell cache: evicted corrupt entry {path.name} ({why}); "
            f"the cell will be recomputed", RuntimeWarning,
            stacklevel=3)
        try:
            path.unlink()
        except OSError:  # pragma: no cover - eviction race
            pass

    def put(self, cell: Any, result: Any) -> None:
        """Record a finished cell (atomic per-entry write, with an
        integrity digest over the result).  Results must be plain
        JSON values — the same constraint the campaign store
        (:mod:`~repro.experiments.store`) already imposes."""
        atomic_write_json(self.path_for(cell), {
            "format": FORMAT,
            "fingerprint": self.fingerprint,
            "cell": cell,
            "result": result,
            "sha256": _result_sha(result),
        })
        self._gc()

    def _gc(self) -> None:
        """Drop entries written under *other* code fingerprints — they
        can never hit again (any source change re-keys everything), so
        the directory would otherwise grow one generation per edit.
        Runs once per process (on the first ``put``); best-effort:
        unreadable files are removed, races ignored."""
        if self._gc_done:
            return
        self._gc_done = True
        try:
            entries = list(self.root.glob("*.json"))
        except OSError:  # pragma: no cover - directory vanished
            return
        for path in entries:
            try:
                raw = json.loads(path.read_text())
                stale = raw.get("fingerprint") != self.fingerprint
            except (OSError, ValueError, AttributeError):
                stale = True
            if stale:
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - race
                    pass

    def clear(self) -> None:
        """Remove every entry (``rm`` the directory contents)."""
        try:
            entries = list(self.root.glob("*.json"))
        except OSError:  # pragma: no cover - directory vanished
            return
        for path in entries:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - race
                pass

    def __len__(self) -> int:
        try:
            return sum(1 for _ in self.root.glob("*.json"))
        except OSError:  # pragma: no cover - directory vanished
            return 0


def cache_from_env() -> Optional[CellCache]:
    """Build a :class:`CellCache` from ``REPRO_CELL_CACHE``: unset /
    ``0`` / ``off`` / ``no`` / ``false`` → no cache; ``1`` / ``on`` /
    ``yes`` / ``true`` → the default directory; anything else is the
    cache directory path.  This is how ``make golden-check`` opts in
    without threading a flag through pytest."""
    value = os.environ.get("REPRO_CELL_CACHE", "").strip()
    if value.lower() in ("", "0", "off", "no", "false"):
        return None
    if value.lower() in ("1", "on", "yes", "true"):
        return CellCache()
    return CellCache(value)
