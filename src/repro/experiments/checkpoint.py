"""Crash-safe campaign checkpoints (the ``--resume`` manifest).

A long campaign can die halfway — OOM killer, ctrl-C, SIGKILL,
machine reboot.  Without a manifest the only options are "start over"
or "hand-edit the cell list"; with one, re-invoking with ``--resume``
replays the finished cells from disk and re-executes only the rest.

The manifest is an **append-only JSONL journal** (v2): a header line
naming the format and the campaign meta, then one line per finished
cell.  ``put`` appends a single line — O(1) per cell, which is what
lets the shard supervisor checkpoint a multi-thousand-cell sweep
without quadratic rewrite cost (v1 rewrote the whole manifest per
cell).

Design constraints:

* **Crash safety** — an append can be torn by a crash mid-write; the
  loader therefore *recovers* rather than trusts: a truncated or
  corrupt trailing line (and any line whose per-line sha256 does not
  match its result) is skipped with a single warning and the journal
  is compacted in place via
  :func:`~repro.core.artifacts.atomic_write_text`.  A crash costs at
  most the in-flight cell, never the manifest.
* **Determinism** — cells are keyed by their canonical JSON encoding
  (sorted keys, tuples and lists identical), so a resumed campaign
  looks up exactly the cells the interrupted one stored.  Results are
  plain JSON values; a resumed run's report is byte-identical to an
  uninterrupted one because rendering happens after the map, from the
  same values.
* **Only successes are stored.**  A failed cell is *not* recorded, so
  resuming retries it — a crash-then-resume can never launder a
  failure into a permanent ``FAILED`` row.

v1 single-JSON manifests (rewrite-per-cell) are still read; the first
``put`` after loading one migrates it to the journal format.  A
manifest with a mismatched format, version, or campaign meta is
ignored (treated as empty) rather than trusted.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from pathlib import Path
from typing import Any, Optional

from ..core.artifacts import atomic_write_text

FORMAT = "repro-campaign-checkpoint-v2"
FORMAT_V1 = "repro-campaign-checkpoint-v1"


class _Miss:
    """Sentinel distinguishing "no entry" from a stored ``None``."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<MISS>"


def cell_key(cell: Any) -> str:
    """Canonical string key for a cell: its JSON encoding with sorted
    keys.  Tuples encode as lists, so ``("mg", 1)`` and ``["mg", 1]``
    key identically — cell identity is by value, not Python type."""
    return json.dumps(cell, sort_keys=True, separators=(",", ":"))


def _entry_sha(key: str, result: Any) -> str:
    """Per-line integrity digest: sha256 over key + canonical result
    JSON.  Catches bit flips that still parse as JSON, not just torn
    tails."""
    canonical = json.dumps(result, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(f"{key}\0{canonical}".encode()).hexdigest()


class CampaignCheckpoint:
    """Cell-result journal written by the campaign executor's
    supervisor (:func:`~repro.experiments.shard.shard_map`).

    ``get(cell)`` returns the stored result or :data:`MISS`;
    ``put(cell, result)`` records a success by appending one journal
    line.  ``meta`` is an arbitrary JSON dict describing the campaign
    (experiment list, seed, quick/full) — ``load()`` with a different
    ``meta`` discards the stored cells, so a stale manifest can never
    contaminate a differently-parameterised campaign.
    """

    MISS = _Miss()

    def __init__(self, path, meta: Optional[dict] = None):
        self.path = Path(path)
        self.meta = dict(meta or {})
        self._entries: dict[str, Any] = {}
        self._header_written = False

    # ------------------------------------------------------------ load

    def load(self, resume: bool = True) -> int:
        """Read the journal from disk; returns the number of usable
        entries.  ``resume=False`` (a fresh campaign) clears any stale
        manifest instead.  A missing, differently-versioned or
        differently-parameterised manifest counts as empty; corrupt
        or truncated *lines* (crash mid-append) are skipped with one
        warning and compacted away rather than raising."""
        if not resume:
            self.clear()
            return 0
        try:
            text = self.path.read_text()
        except OSError:
            return 0
        entries, dropped, journal = self._parse(text)
        if entries is None:
            return 0
        self._entries = entries
        # a v1 manifest is NOT a journal: leave the header unwritten
        # so the first put() compacts (migrates) instead of appending
        # a journal line onto a v1 JSON document
        self._header_written = journal
        if dropped:
            warnings.warn(
                f"campaign checkpoint {self.path}: skipped {dropped} "
                f"corrupt/truncated journal line(s) (crash during "
                f"write?); recovered {len(entries)} finished cell(s)",
                RuntimeWarning, stacklevel=2)
            self._compact()
        return len(entries)

    def _parse(self, text: str):
        """``(entries, dropped_lines, is_journal)`` from journal
        text, or ``(None, 0, False)`` for a wrong-campaign or
        unrecognized manifest."""
        # v1 manifests were one indented JSON document; try that
        # first so old checkpoints stay resumable
        v1 = self._parse_v1(text)
        if v1 is not None:
            return v1, 0, False
        lines = text.splitlines()
        if not lines:
            return None, 0, False
        try:
            header = json.loads(lines[0])
        except ValueError:
            return None, 0, False
        if (not isinstance(header, dict)
                or header.get("format") != FORMAT
                or header.get("meta") != self.meta):
            return None, 0, False
        entries: dict[str, Any] = {}
        dropped = 0
        for line in lines[1:]:
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                key = row["cell"]
                result = row["result"]
                ok = row["sha256"] == _entry_sha(key, result)
            except (ValueError, TypeError, KeyError):
                ok = False
            if not ok:
                dropped += 1
                continue
            entries[key] = result
        return entries, dropped, True

    def _parse_v1(self, text: str) -> Optional[dict]:
        """Entries from a legacy v1 single-document manifest, or
        ``None`` when ``text`` is not one."""
        try:
            raw = json.loads(text)
        except ValueError:
            return None
        if (not isinstance(raw, dict)
                or raw.get("format") != FORMAT_V1
                or raw.get("meta") != self.meta):
            return None
        entries = raw.get("cells")
        return entries if isinstance(entries, dict) else None

    # ------------------------------------------------------------ write

    def clear(self) -> None:
        """Drop all entries and delete the journal file."""
        self._entries = {}
        self._header_written = False
        try:
            self.path.unlink()
        except OSError:
            pass

    def get(self, cell: Any) -> Any:
        """The stored result for ``cell``, or :data:`MISS`."""
        return self._entries.get(cell_key(cell), self.MISS)

    def put(self, cell: Any, result: Any) -> None:
        """Record a finished cell by appending one journal line.  The
        line is flushed immediately, so a kill between two cells
        loses nothing and a kill mid-append loses only a torn tail
        that the next ``load()`` recovers past."""
        key = cell_key(cell)
        self._entries[key] = result
        if not self._header_written:
            self._compact()
            return
        line = json.dumps(
            {"cell": key, "result": result,
             "sha256": _entry_sha(key, result)},
            sort_keys=True, separators=(",", ":"))
        try:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
                fh.flush()
        except OSError:
            # journal vanished underneath us (cleanup race): rebuild
            self._compact()

    def put_many(self, pairs: Any) -> None:
        """Record a batch of finished ``(cell, result)`` pairs with
        one open/write/flush cycle — the grouped form of :meth:`put`
        used by the shard supervisor, whose merge sweep can land a
        whole claim batch at once.  Same durability: the group is
        flushed before returning, and each line still carries its own
        digest, so a torn tail costs at most the last line."""
        pairs = list(pairs)
        if not pairs:
            return
        if not self._header_written:
            for cell, result in pairs:
                self._entries[cell_key(cell)] = result
            self._compact()
            return
        lines = []
        for cell, result in pairs:
            key = cell_key(cell)
            self._entries[key] = result
            lines.append(json.dumps(
                {"cell": key, "result": result,
                 "sha256": _entry_sha(key, result)},
                sort_keys=True, separators=(",", ":")))
        try:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
                fh.flush()
        except OSError:
            # journal vanished underneath us (cleanup race): rebuild
            self._compact()

    def __len__(self) -> int:
        return len(self._entries)

    def _compact(self) -> None:
        """Atomically rewrite the whole journal from memory — used on
        first write, after corruption recovery, and for v1
        migration."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        lines = [json.dumps({"format": FORMAT, "meta": self.meta},
                            sort_keys=True, separators=(",", ":"))]
        for key, result in self._entries.items():
            lines.append(json.dumps(
                {"cell": key, "result": result,
                 "sha256": _entry_sha(key, result)},
                sort_keys=True, separators=(",", ":")))
        atomic_write_text(self.path, "\n".join(lines) + "\n")
        self._header_written = True
