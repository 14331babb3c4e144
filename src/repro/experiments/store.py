r"""Shared shard store: a leased, crash-tolerant cell work queue.

The campaign executor (:mod:`~repro.experiments.shard`) shards a
sweep across worker *processes* that coordinate through this store —
a single sqlite database under ``--store-dir`` — instead of through
pipes to a parent.  That indirection is what buys crash tolerance: a
worker that dies (including SIGKILL mid-cell) leaves nothing behind
but an expiring lease, and any surviving worker steals the cell back
the moment the lease lapses.

Cell lifecycle::

    pending --claim--> leased --complete--> done
       ^                 |    \--fail_attempt (retries left,
       |                 |         jittered backoff)--> pending
       |                 |    \--fail_attempt (exhausted)--> failed
       |                 |    \--abandon (supervisor killed the
       |                 |         worker): a timed-out started cell
       |                 |         fails one attempt as above, any
       |                 |         other held cell --> pending
       |                 +--lease expiry (worker died)
       |                 |      crashes < max_crashes
       +-----------------+
                         \--lease expiry, crashes >= max_crashes
                               --> failed ("poison" quarantine)

Robustness properties, in store terms:

* **Work stealing / reaping** — :meth:`ShardStore.claim` hands out
  pending cells *and* cells whose lease has expired; a long-running
  healthy worker keeps its lease alive by heartbeating
  (:meth:`renew`), so only a dead or orphaned worker loses its cell
  (a worker wedged past the timeout is killed by the supervisor and
  its cells handed back with :meth:`abandon`).
* **Poison quarantine** — every expired lease bumps the cell's crash
  counter; a cell that has taken down ``max_crashes`` workers is
  marked ``failed`` with a ``poison`` reason instead of crashing a
  third, so one bad cell can never wedge the sweep.
* **Dedupe by content** — rows are keyed by the cell-cache sha256
  key (:func:`~repro.experiments.cellcache.cache_key`), so duplicate
  cells in a sweep collapse to one row and at most one in-flight
  execution per content key.
* **Verified results** — ``done`` rows carry a sha256 of the result's
  canonical JSON; a bit-flipped or truncated result is detected on
  read, discarded back to ``pending`` with one warning, and
  recomputed rather than served or fatal.
* **Corrupt-store recovery** — a truncated or otherwise unreadable
  database (crash mid-write, disk fault) is moved aside to
  ``*.corrupt`` with one warning and rebuilt empty; the executor
  re-enqueues its cells and loses only the uncheckpointed work.

sqlite is the "multi-machine-ready" part of the design: WAL mode with
``BEGIN IMMEDIATE`` claim transactions gives atomic lease handoff for
any number of reader/writer processes on one host, and the same
schema ports to a server-grade store unchanged.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import time
import warnings
from pathlib import Path
from typing import Any, Iterable, Optional

FORMAT = "repro-shard-store-v1"

#: default store directory (repo-root relative, like the checkpoint
#: manifest and the cell cache)
DEFAULT_DIR = ".repro-shard-store"

#: database filename under the store directory
DB_NAME = "cells.sqlite3"

#: a cell whose lease expired this many times is quarantined
DEFAULT_MAX_CRASHES = 2

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    k TEXT PRIMARY KEY,
    v TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS cells (
    key         TEXT PRIMARY KEY,
    cell        TEXT NOT NULL,
    state       TEXT NOT NULL DEFAULT 'pending',
    owner       TEXT,
    lease_until REAL NOT NULL DEFAULT 0,
    not_before  REAL NOT NULL DEFAULT 0,
    attempts    INTEGER NOT NULL DEFAULT 0,
    crashes     INTEGER NOT NULL DEFAULT 0,
    started     INTEGER NOT NULL DEFAULT 0,
    result      TEXT,
    result_sha  TEXT,
    reason      TEXT
);
CREATE INDEX IF NOT EXISTS cells_state ON cells (state);
"""

#: default number of cells leased per claim transaction (see
#: :meth:`ShardStore.claim_batch`); chosen so the write-lock traffic
#: per cell drops ~4x while a crashed worker still strands at most a
#: few seconds of stolen-back work
DEFAULT_CLAIM_BATCH = 4


def canonical_json(value: Any) -> str:
    """The store's canonical encoding (same convention as the
    checkpoint and the cell cache: sorted keys, compact)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def result_sha(result: Any) -> str:
    """sha256 over the canonical JSON of a result — the integrity
    check for ``done`` rows."""
    return hashlib.sha256(canonical_json(result).encode()).hexdigest()


def backoff_jitter(key: str, attempt: int) -> float:
    """Deterministic jitter multiplier in ``[1.0, 2.0)`` derived from
    (key, attempt).  Jittered backoff de-synchronizes retry storms
    across workers without introducing wall-clock randomness into the
    results (jitter shifts *when* a retry runs, never *what* it
    computes)."""
    digest = hashlib.sha256(f"{key}:{attempt}".encode()).digest()
    return 1.0 + int.from_bytes(digest[:4], "big") / 2**32


class StoreCorruption(RuntimeError):
    """Raised internally when sqlite reports an unreadable database;
    :meth:`ShardStore._connect` converts it into move-aside + rebuild
    so callers never see it."""


class ShardStore:
    """One sweep's shared work queue (``<store_dir>/cells.sqlite3``).

    Every worker process and the supervisor open their own
    :class:`ShardStore` on the same directory; sqlite serializes the
    claim/complete transactions.  All methods are safe to call from
    any process at any time — that is the point.
    """

    def __init__(self, store_dir, *, fingerprint: str = "",
                 max_crashes: int = DEFAULT_MAX_CRASHES,
                 timeout_s: float = 30.0,
                 _now=time.monotonic):
        self.dir = Path(store_dir)
        self.path = self.dir / DB_NAME
        self.fingerprint = fingerprint
        self.max_crashes = max_crashes
        self.timeout_s = timeout_s
        # monotonic by default; injectable for lease-expiry tests
        self._now = _now
        self._conn: Optional[sqlite3.Connection] = None
        self._connect()

    # ------------------------------------------------------------ connection

    def _connect(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        try:
            self._conn = self._open_db()
        except sqlite3.DatabaseError:
            self._recover_corrupt()
            self._conn = self._open_db()

    def _open_db(self) -> sqlite3.Connection:
        conn = sqlite3.connect(str(self.path), timeout=self.timeout_s,
                               isolation_level=None)
        try:
            conn.execute("PRAGMA synchronous=NORMAL")
            # a whole worker pool opens this database at once, so the
            # write transactions below (schema creation, WAL switch,
            # migration) only run when actually needed: probing is a
            # read, and reads don't queue on the write lock the way a
            # spawn-time thundering herd of CREATEs would (WAL mode
            # is a sticky property of the file — setting it once at
            # creation covers every later connection)
            have = {row[0] for row in conn.execute(
                "SELECT name FROM sqlite_master "
                "WHERE type = 'table'")}
            if "cells" not in have or "meta" not in have:
                conn.execute("PRAGMA journal_mode=WAL")
                conn.executescript(_SCHEMA)
            # migrate pre-batching stores in place ("started" tracks
            # which leased cell of a claim batch is actually running)
            cols = {row[1] for row in
                    conn.execute("PRAGMA table_info(cells)")}
            if "started" not in cols:
                conn.execute("ALTER TABLE cells ADD COLUMN "
                             "started INTEGER NOT NULL DEFAULT 0")
            # schema check doubles as a corruption probe: a truncated
            # db file fails here, not on first claim
            conn.execute("SELECT count(*) FROM cells").fetchone()
        except sqlite3.DatabaseError:
            conn.close()
            raise
        return conn

    def _recover_corrupt(self) -> None:
        """Move a corrupt database aside and start fresh — one
        warning, no abort; the executor re-enqueues and recomputes."""
        aside = self.path.with_suffix(self.path.suffix + ".corrupt")
        try:
            os.replace(self.path, aside)
        except OSError:
            try:
                self.path.unlink()
            except OSError:  # pragma: no cover - vanished underneath
                pass
        # WAL sidecar files belong to the dead database
        for suffix in ("-wal", "-shm"):
            try:
                os.unlink(f"{self.path}{suffix}")
            except OSError:
                pass
        warnings.warn(
            f"shard store {self.path} is corrupt (truncated or "
            f"unreadable); moved aside and rebuilt — affected cells "
            f"will be recomputed", RuntimeWarning, stacklevel=3)

    def clone(self) -> "ShardStore":
        """A second store on the same database with its own sqlite
        connection.  Python's sqlite3 connections are bound to the
        thread that opened them, so anything touching the store from
        another thread (the lease-heartbeat thread) must use a clone,
        not the owner's connection."""
        return ShardStore(self.dir, fingerprint=self.fingerprint,
                          max_crashes=self.max_crashes,
                          timeout_s=self.timeout_s, _now=self._now)

    def close(self) -> None:
        """Close the sqlite connection (idempotent); leased rows keep
        their leases and expire naturally if never completed."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ShardStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------ enqueue

    def add_cells(self, keyed_cells: Iterable[tuple]) -> int:
        """Enqueue ``(key, cell)`` pairs; existing rows (any state —
        an interrupted run's ``done`` rows included) are left alone,
        which is exactly the store-level resume semantics.  Returns
        the number of rows inserted."""
        cur = self._conn.execute("SELECT count(*) FROM cells")
        before = cur.fetchone()[0]
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            self._conn.executemany(
                "INSERT OR IGNORE INTO cells (key, cell) VALUES (?, ?)",
                [(key, canonical_json(cell))
                 for key, cell in keyed_cells])
            self._conn.execute(
                "INSERT OR REPLACE INTO meta (k, v) VALUES "
                "('format', ?), ('fingerprint', ?)",
                (FORMAT, self.fingerprint))
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        after = self._conn.execute(
            "SELECT count(*) FROM cells").fetchone()[0]
        return after - before

    # ------------------------------------------------------------ leasing

    def claim(self, owner: str, lease_s: float) -> Optional[tuple]:
        """Atomically lease one runnable cell to ``owner``; returns
        ``(key, cell)`` or ``None`` when nothing is claimable right
        now.  Single-cell form of :meth:`claim_batch`."""
        batch = self.claim_batch(owner, lease_s, 1)
        return batch[0] if batch else None

    def claim_batch(self, owner: str, lease_s: float,
                    k: int = DEFAULT_CLAIM_BATCH) -> list:
        """Atomically lease up to ``k`` runnable cells to ``owner`` in
        one write transaction; returns a list of ``(key, cell)`` pairs
        (empty when nothing is claimable right now).

        Runnable means ``pending`` past its backoff window, or
        ``leased`` with an expired lease (work stealing).  Only the
        first cell of the batch is marked *started* — the worker marks
        each later cell as it reaches it (:meth:`complete` with
        ``start_next``, or :meth:`mark_started`).  Stealing an expired
        lease bumps the crash counter only when the dead owner had
        actually started the cell; unstarted batch-mates of a crashed
        worker re-enter circulation without a bump, so batching never
        inflates poison counts.  A started cell at the poison
        threshold is quarantined instead of handed out."""
        now = self._now()
        # read-probe first: claimers poll when the queue runs dry
        # (tail of a sweep, backoff windows), and an empty claim
        # should not cost a write-lock acquisition
        probe = self._conn.execute(
            "SELECT 1 FROM cells "
            "WHERE (state = 'pending' AND not_before <= ?) "
            "   OR (state = 'leased' AND lease_until <= ?) "
            "LIMIT 1", (now, now)).fetchone()
        if probe is None:
            return []
        claimed: list = []
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            while len(claimed) < k:
                rows = self._conn.execute(
                    "SELECT key, cell, state, crashes, started "
                    "FROM cells "
                    "WHERE (state = 'pending' AND not_before <= ?) "
                    "   OR (state = 'leased' AND lease_until <= ?) "
                    "ORDER BY rowid LIMIT ?",
                    (now, now, k - len(claimed))).fetchall()
                if not rows:
                    break
                for key, cell_json, state, crashes, started in rows:
                    if state == "leased" and started:
                        crashes += 1
                        if crashes >= self.max_crashes:
                            self._conn.execute(
                                "UPDATE cells SET state = 'failed', "
                                "owner = NULL, crashes = ?, "
                                "started = 0, reason = ? "
                                "WHERE key = ?",
                                (crashes,
                                 f"poison: crashed {crashes} workers",
                                 key))
                            continue
                    self._conn.execute(
                        "UPDATE cells SET state = 'leased', "
                        "owner = ?, lease_until = ?, crashes = ?, "
                        "started = ? WHERE key = ?",
                        (owner, now + lease_s, crashes,
                         0 if claimed else 1, key))
                    claimed.append((key, json.loads(cell_json)))
            self._conn.execute("COMMIT")
            return claimed
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise

    def mark_started(self, owner: str, key: str) -> bool:
        """Mark a batch-claimed cell as actually executing (the normal
        path fuses this into :meth:`complete` via ``start_next``; this
        standalone form serves the failed-previous-cell path).
        Returns ``False`` when the lease is no longer ours — the
        worker must skip the cell, not run it."""
        cur = self._conn.execute(
            "UPDATE cells SET started = 1 "
            "WHERE key = ? AND owner = ? AND state = 'leased'",
            (key, owner))
        return cur.rowcount == 1

    def renew(self, owner: str, key: str, lease_s: float) -> bool:
        """Heartbeat: extend ``owner``'s lease on ``key``.  Returns
        ``False`` when the lease is no longer ours (expired and
        stolen) — the worker should abandon the cell."""
        cur = self._conn.execute(
            "UPDATE cells SET lease_until = ? "
            "WHERE key = ? AND owner = ? AND state = 'leased'",
            (self._now() + lease_s, key, owner))
        return cur.rowcount == 1

    def renew_many(self, owner: str, keys: Iterable[str],
                   lease_s: float) -> int:
        """Batch heartbeat: one UPDATE extending ``owner``'s lease on
        every listed key still held.  Returns the number of leases
        renewed — ``0`` means every cell was stolen (or completed) and
        the worker should re-claim.  Keys no longer ours are silently
        skipped; a batch worker only learns a specific cell was stolen
        when it tries to start it."""
        keys = tuple(keys)
        if not keys:
            return 0
        marks = ",".join("?" * len(keys))
        cur = self._conn.execute(
            f"UPDATE cells SET lease_until = ? "
            f"WHERE owner = ? AND state = 'leased' "
            f"AND key IN ({marks})",
            (self._now() + lease_s, owner, *keys))
        return cur.rowcount

    def reap(self) -> int:
        """Supervisor sweep: quarantine every *started* cell whose
        lease has expired ``max_crashes`` times; merely-expired leases
        (and unstarted batch-mates of dead workers, which carry no
        crash evidence) are left for :meth:`claim` to steal.  Returns
        the number of cells poisoned by this call."""
        now = self._now()
        # read-probe first: the supervisor reaps every poll and a
        # healthy sweep never has a poisonable lease, so skip the
        # write transaction (and its lock, which the whole worker
        # pool contends for) unless there is actually work
        probe = self._conn.execute(
            "SELECT 1 FROM cells "
            "WHERE state = 'leased' AND lease_until <= ? "
            "AND started = 1 AND crashes + 1 >= ? LIMIT 1",
            (now, self.max_crashes)).fetchone()
        if probe is None:
            return 0
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            cur = self._conn.execute(
                "UPDATE cells SET state = 'failed', owner = NULL, "
                "crashes = crashes + 1, started = 0, "
                "reason = 'poison: crashed ' || (crashes + 1) "
                "         || ' workers' "
                "WHERE state = 'leased' AND lease_until <= ? "
                "AND started = 1 "
                "AND crashes + 1 >= ?", (now, self.max_crashes))
            self._conn.execute("COMMIT")
            return cur.rowcount
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise

    # ------------------------------------------------------------ terminal

    def complete(self, key: str, result: Any, *,
                 owner: Optional[str] = None,
                 start_next: Optional[str] = None) -> bool:
        """Record a finished cell (with its result digest).  Runs
        unconditionally: a worker whose lease was stolen may still
        land its (deterministic, hence identical) result — last write
        wins and both are correct.

        ``start_next`` (with ``owner``) marks the worker's next
        batch-claimed cell as started in the same write transaction —
        the per-cell store traffic of a batch worker is this one fused
        call plus its share of a :meth:`renew_many` heartbeat.
        Returns ``False`` when ``start_next`` is no longer ours (lease
        stolen) — the worker must skip that cell."""
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            self._conn.execute(
                "UPDATE cells SET state = 'done', owner = NULL, "
                "started = 0, result = ?, result_sha = ?, "
                "reason = NULL WHERE key = ?",
                (canonical_json(result), result_sha(result), key))
            ok = True
            if start_next is not None:
                cur = self._conn.execute(
                    "UPDATE cells SET started = 1 "
                    "WHERE key = ? AND owner = ? AND state = 'leased'",
                    (start_next, owner))
                ok = cur.rowcount == 1
            self._conn.execute("COMMIT")
            return ok
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise

    def fail_attempt(self, key: str, error: str, *, retries: int,
                     backoff_s: float) -> bool:
        """Record a failed execution attempt.  With retries left the
        cell returns to ``pending`` behind a jittered exponential
        backoff window; otherwise it is terminally ``failed``.
        Returns ``True`` when a retry was scheduled.  A cell another
        worker already completed (our lease was stolen mid-attempt and
        the thief finished first) is left ``done`` untouched — a stale
        failure never clobbers a good result."""
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            row = self._conn.execute(
                "SELECT attempts, state FROM cells WHERE key = ?",
                (key,)).fetchone()
            retried = False
            if row is not None and row[1] != "done":
                retried = self._fail_locked(key, row[0], "error",
                                            error, retries, backoff_s)
            self._conn.execute("COMMIT")
            return retried
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise

    def _fail_locked(self, key: str, attempts: int, kind: str,
                     error: str, retries: int, backoff_s: float) -> bool:
        """Record one failed attempt of ``kind`` (``"error"`` or
        ``"timeout"``) inside the caller's write transaction; returns
        ``True`` when a retry was scheduled."""
        attempts += 1
        if attempts > retries:
            reason = f"{kind}: {error}" if error else kind
            self._conn.execute(
                "UPDATE cells SET state = 'failed', owner = NULL, "
                "started = 0, attempts = ?, reason = ? WHERE key = ?",
                (attempts, reason, key))
            return False
        delay = (backoff_s * 2 ** (attempts - 1)
                 * backoff_jitter(key, attempts))
        self._conn.execute(
            "UPDATE cells SET state = 'pending', owner = NULL, "
            "started = 0, attempts = ?, not_before = ? WHERE key = ?",
            (attempts, self._now() + delay, key))
        return True

    def abandon(self, owner: str, *, timed_out: bool, retries: int,
                backoff_s: float) -> None:
        """Hand back every cell ``owner`` holds, after the supervisor
        killed that worker.  With ``timed_out`` its started cell ran
        past the timeout and the kill counts as one failed
        ``timeout`` attempt (retried with backoff while ``retries``
        last); every other held cell — unstarted batch-mates, or the
        started cell of a worker killed for any other reason — returns
        to ``pending`` at once with no attempt or crash recorded."""
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            rows = self._conn.execute(
                "SELECT key, started, attempts FROM cells "
                "WHERE owner = ? AND state = 'leased'",
                (owner,)).fetchall()
            for key, started, attempts in rows:
                if started and timed_out:
                    self._fail_locked(key, attempts, "timeout", "",
                                      retries, backoff_s)
                else:
                    self._conn.execute(
                        "UPDATE cells SET state = 'pending', "
                        "owner = NULL, started = 0 WHERE key = ?",
                        (key,))
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise

    # ------------------------------------------------------------ queries

    def prune_except(self, keys: Iterable[str]) -> int:
        """Delete rows whose key is not in ``keys`` — called by the
        executor before enqueueing so the store is always scoped to
        exactly one sweep.  A resumed identical sweep keys
        identically and keeps every terminal row; a different sweep
        (or any source change, which re-keys everything) starts
        clean.  Returns the number of rows dropped."""
        keep = set(keys)
        cur = self._conn.execute("SELECT key FROM cells")
        stale = [(key,) for (key,) in cur.fetchall()
                 if key not in keep]
        if stale:
            self._conn.executemany(
                "DELETE FROM cells WHERE key = ?", stale)
        return len(stale)

    def done_keys(self) -> list:
        """Keys of every ``done`` row (no result parsing — cheap
        enough for the supervisor to poll)."""
        cur = self._conn.execute(
            "SELECT key FROM cells WHERE state = 'done'")
        return [key for (key,) in cur.fetchall()]

    def get_result(self, key: str) -> tuple:
        """``(True, result)`` for a verified ``done`` row, else
        ``(False, None)``.  A row that fails verification (bit flip,
        torn write) is discarded back to ``pending`` with one warning
        — corrupt data is recomputed, never served."""
        row = self._conn.execute(
            "SELECT result, result_sha FROM cells "
            "WHERE key = ? AND state = 'done'", (key,)).fetchone()
        if row is None:
            return False, None
        raw, sha = row
        try:
            value = json.loads(raw)
            ok = result_sha(value) == sha
        except (TypeError, ValueError):
            ok = False
        if not ok:
            self._discard([key])
            return False, None
        return True, value

    def _discard(self, keys: list) -> None:
        """Push corrupt ``done`` rows back to ``pending`` (single
        warning for the batch)."""
        warnings.warn(
            f"shard store: discarded {len(keys)} corrupt result "
            f"row(s) (hash mismatch); recomputing",
            RuntimeWarning, stacklevel=3)
        self._conn.executemany(
            "UPDATE cells SET state = 'pending', result = NULL, "
            "result_sha = NULL, owner = NULL WHERE key = ?",
            [(key,) for key in keys])

    def counts(self) -> dict:
        """Row count per state (absent states omitted)."""
        cur = self._conn.execute(
            "SELECT state, count(*) FROM cells GROUP BY state")
        return dict(cur.fetchall())

    def all_terminal(self) -> bool:
        """True when every cell is ``done`` or ``failed`` — the
        workers' exit condition."""
        cur = self._conn.execute(
            "SELECT count(*) FROM cells "
            "WHERE state NOT IN ('done', 'failed')")
        return cur.fetchone()[0] == 0

    def results(self) -> dict:
        """``{key: result}`` for every verified ``done`` row.  A row
        whose stored digest does not match its result JSON (bit flip,
        torn write) is discarded back to ``pending`` with one warning
        so it gets recomputed — corrupt data is never served."""
        out = {}
        bad = []
        cur = self._conn.execute(
            "SELECT key, result, result_sha FROM cells "
            "WHERE state = 'done'")
        for key, raw, sha in cur.fetchall():
            try:
                value = json.loads(raw)
            except (TypeError, ValueError):
                bad.append(key)
                continue
            if result_sha(value) != sha:
                bad.append(key)
                continue
            out[key] = value
        if bad:
            self._discard(bad)
        return out

    def failures(self) -> dict:
        """``{key: (reason, attempts, crashes)}`` for ``failed``
        rows."""
        cur = self._conn.execute(
            "SELECT key, reason, attempts, crashes FROM cells "
            "WHERE state = 'failed'")
        return {key: (reason or "error", attempts, crashes)
                for key, reason, attempts, crashes in cur.fetchall()}

    def clear(self) -> None:
        """Delete the store (a fully successful sweep removes it, like
        the checkpoint manifest)."""
        self.close()
        remove(self.dir)


def remove(store_dir) -> None:
    """Delete the store under ``store_dir`` without opening it, and
    the directory too when nothing else (say a ``*.corrupt`` file
    kept for inspection) is left in it."""
    path = Path(store_dir) / DB_NAME
    for name in (str(path), f"{path}-wal", f"{path}-shm"):
        try:
            os.unlink(name)
        except OSError:
            pass
    try:
        os.rmdir(store_dir)
    except OSError:
        pass
