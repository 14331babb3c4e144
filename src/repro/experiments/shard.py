"""Leased work-stealing executor for campaign sweeps.

:func:`shard_map` is the one campaign executor
(:func:`~repro.experiments.campaign.run_campaign` always runs through
it): apply ``fn`` to every cell, results back in submission order,
failures as :class:`~repro.experiments.parallel.FailedCell` markers.
With one worker and no timeout the cells run in the calling process;
otherwise worker processes coordinate through a shared on-disk
:class:`~repro.experiments.store.ShardStore` instead of pipes to a
parent — which is what lets the sweep survive anything short of
losing the disk:

* **Worker crash (any signal, incl. SIGKILL)** — the dead worker's
  leased cell expires and is stolen by a surviving worker; the
  supervisor reaps the corpse and respawns a replacement (bounded by
  ``respawn_budget``).
* **Poison cells** — a cell whose lease expires
  ``max_crashes`` times (it keeps killing workers) is quarantined as a
  ``FAILED(poison)`` row instead of taking the sweep down with it.
* **Wedged cells** — with ``timeout_s`` set, every cell runs in a
  worker process; the supervisor kills a worker whose cell has run
  longer than the timeout, records a ``timeout`` attempt (retried with
  backoff while ``retries`` last, then ``FAILED(timeout)``), hands the
  worker's other leased cells back and spawns a replacement.
* **Supervisor crash** — every completed cell is already in the store
  (and, incrementally, the campaign checkpoint); re-running the same
  sweep against the same ``store_dir`` resumes from the terminal rows
  and re-executes only the rest.
* **Pool collapse** — if no worker can be (re)spawned, the supervisor
  degrades to executing the remaining cells serially in-process; the
  sweep finishes slower instead of not at all.
* **Corrupt artifacts** — torn store rows/databases and corrupt
  checkpoint or cache entries are detected by digest, discarded with
  a single warning, and recomputed (see store.py / checkpoint.py /
  cellcache.py).

Determinism is inherited from the cell contract: cells are pure
functions of their content, results are plain JSON, and the output
list is ordered by submission — so a sharded, crashed, resumed sweep
renders a report byte-identical to an uninterrupted serial run
(asserted by ``make shard-chaos-smoke`` and the chaos tests).

In-flight dedupe rides on content addressing: store rows are keyed by
the cell-cache sha256 key, so identical cells collapse to one row,
one execution, one result — and a cell already present in the
checkpoint or the cell cache is never executed at all.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from typing import Any, Callable, Iterable, Optional

from .cellcache import CellCache, cache_key, code_fingerprint
from .parallel import FailedCell
from .store import DEFAULT_CLAIM_BATCH, DEFAULT_MAX_CRASHES, ShardStore

#: default lease duration; workers heartbeat at a third of this, so a
#: healthy worker is three missed beats away from losing a cell
DEFAULT_LEASE_S = 2.0

#: supervisor poll / idle-worker nap interval
DEFAULT_POLL_S = 0.05


def default_respawn_budget(workers: int) -> int:
    """How many replacement workers the supervisor will spawn before
    declaring the pool unrespawnable: generous enough to ride out a
    chaos run's kills, small enough that a crash-looping environment
    degrades to serial instead of forking forever."""
    return 4 * max(1, workers)


def _fail_reason(reason: str) -> tuple:
    """Split a store failure reason into FailedCell (reason, error)."""
    kind, _, detail = reason.partition(": ")
    if kind in ("poison", "error", "timeout"):
        return kind, detail
    return "error", reason


class _Heartbeat:
    """Daemon thread renewing a claim batch's leases while ``fn``
    runs (one :meth:`ShardStore.renew_many` per beat for the whole
    batch).

    Python's sqlite3 connections are bound to their opening thread,
    so the heartbeat clones the worker's store *inside* its own
    thread rather than sharing the claim/complete connection.

    ``held`` is a one-slot list holding a tuple of keys; the drain
    loop swaps in a smaller tuple as cells finish (replacing the
    tuple, never mutating it, so this thread always reads a
    consistent snapshot).

    Stops renewing once the worker is orphaned (``parent_pid`` gone):
    a worker wedged in a cell after its supervisor died then loses its
    leases, so a resumed sweep can steal them back.
    """

    def __init__(self, store: ShardStore, owner: str, held: list,
                 lease_s: float, parent_pid: Optional[int]):
        self._store = store
        self._owner = owner
        self._held = held
        self._lease_s = lease_s
        self._parent_pid = parent_pid
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        if self._stop.wait(self._lease_s / 3):
            return  # batch finished before the first beat: skip the
            #         per-batch connection entirely (the common case)
        store = self._store.clone()  # this thread's own connection
        try:
            while True:
                if self._parent_pid is not None \
                        and os.getppid() != self._parent_pid:
                    return
                keys = self._held[0]
                if keys and not store.renew_many(self._owner, keys,
                                                 self._lease_s):
                    return  # every lease lost (stolen): renewing a
                    #         dead lease would fight the new owners
                if self._stop.wait(self._lease_s / 3):
                    return
        except Exception:  # pragma: no cover - store racing close
            return
        finally:
            store.close()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=1.0)


def _drain(store: ShardStore, fn: Callable, owner: str, *,
           lease_s: float, retries: int, backoff_s: float,
           cache: Optional[CellCache],
           poll_s: float = DEFAULT_POLL_S,
           parent_pid: Optional[int] = None,
           max_cells: Optional[int] = None,
           claim_k: int = DEFAULT_CLAIM_BATCH,
           started_at=None) -> int:
    """The claim/execute/complete loop shared by worker processes and
    the supervisor's serial-degradation path.  Claims up to
    ``claim_k`` cells per store write transaction
    (:meth:`ShardStore.claim_batch`) and renews the whole batch with
    one heartbeat thread, so per-cell store traffic is one fused
    complete+start-next write plus a share of a batch renew.  Returns
    the number of cells executed.  Exits when every cell is terminal,
    when ``max_cells`` is reached, or — for workers — when the
    supervisor (``parent_pid``) is gone.  ``started_at`` (a shared
    double, workers under a timeout only) holds the monotonic time
    the running cell began, 0 between cells; the supervisor reads it
    to find wedged workers."""
    if started_at is not None:
        fn = _stamped(fn, started_at)
    done = 0
    while max_cells is None or done < max_cells:
        if parent_pid is not None and os.getppid() != parent_pid:
            break  # orphaned: supervisor died, don't run headless
        want = (claim_k if max_cells is None
                else min(claim_k, max_cells - done))
        batch = store.claim_batch(owner, lease_s, want)
        if not batch:
            if store.all_terminal():
                break
            time.sleep(poll_s)
            continue
        held = [tuple(key for key, _ in batch)]
        beat = _Heartbeat(store, owner, held, lease_s, parent_pid)
        try:
            ours = True  # claim_batch marked the first cell started
            for pos, (key, cell) in enumerate(batch):
                if parent_pid is not None \
                        and os.getppid() != parent_pid:
                    break  # orphaned mid-batch: unstarted leases
                    #        expire and are re-claimed bump-free
                if not ours:
                    # the previous cell failed (or its complete saw
                    # this lease stolen): claim executing rights
                    # before running
                    ours = store.mark_started(owner, key)
                    if not ours:
                        held[0] = tuple(k for k in held[0]
                                        if k != key)
                        continue  # stolen while queued: the thief
                        #           runs it, we move on
                next_key = (batch[pos + 1][0]
                            if pos + 1 < len(batch) else None)
                try:
                    result = fn(cell)
                except BaseException as exc:
                    if not isinstance(exc, Exception):
                        raise  # KeyboardInterrupt/SystemExit: die
                        #        leased, lease expiry hands cells on
                    store.fail_attempt(
                        key, f"{type(exc).__name__}: {exc}",
                        retries=retries, backoff_s=backoff_s)
                    ours = False
                else:
                    ours = store.complete(key, result, owner=owner,
                                          start_next=next_key)
                    if cache is not None:
                        cache.put(cell, result)
                done += 1
                held[0] = tuple(k for k in held[0] if k != key)
        finally:
            beat.stop()
    return done


def _stamped(fn: Callable, started_at) -> Callable:
    """``fn`` writing the monotonic time it began into ``started_at``
    while it runs (0 otherwise)."""
    def run(cell):
        started_at.value = time.monotonic()
        try:
            return fn(cell)
        finally:
            started_at.value = 0.0
    return run


def _worker_main(store_dir, fn, *, lease_s, retries, backoff_s,
                 cache_root, fingerprint, max_crashes, parent_pid,
                 claim_k=DEFAULT_CLAIM_BATCH, started_at=None) -> None:
    """Worker process entry point: open the shared store and drain."""
    # warm-engine reuse: a worker runs many cells, and campaign cells
    # repeat (topology, scheduler) configurations — let make_engine
    # recycle engines via Engine.reset() unless the parent explicitly
    # exported REPRO_WARM_ENGINES=0
    os.environ.setdefault("REPRO_WARM_ENGINES", "1")
    cache = None
    if cache_root is not None:
        cache = CellCache(cache_root, fingerprint=fingerprint)
    with ShardStore(store_dir, fingerprint=fingerprint,
                    max_crashes=max_crashes) as store:
        _drain(store, fn, owner=f"worker-{os.getpid()}",
               lease_s=lease_s, retries=retries, backoff_s=backoff_s,
               cache=cache, parent_pid=parent_pid, claim_k=claim_k,
               started_at=started_at)


def shard_map(fn: Callable[[Any], Any], cells: Iterable[Any],
              workers: int, *, store_dir,
              lease_s: float = DEFAULT_LEASE_S,
              timeout_s: Optional[float] = None,
              retries: int = 0,
              backoff_s: float = 0.5,
              max_crashes: int = DEFAULT_MAX_CRASHES,
              respawn_budget: Optional[int] = None,
              poll_s: float = DEFAULT_POLL_S,
              claim_k: int = DEFAULT_CLAIM_BATCH,
              checkpoint=None,
              cache: Optional[CellCache] = None,
              chaos: Optional[Callable] = None,
              on_progress: Optional[Callable] = None) -> list:
    """Apply ``fn`` to every cell through ``workers`` leased
    work-stealing processes sharing the store at ``store_dir``.

    Returns a list in submission order, with exhausted, timed-out or
    quarantined cells as :class:`FailedCell` markers.  ``fn`` must be
    module-level and cells/results plain JSON data (the store and the
    checkpoint both persist them as canonical JSON).

    ``workers <= 1`` with no ``timeout_s`` drains the store in the
    calling process (no fork, so ``fn`` may be a closure or a wrapper
    installed by the caller).  ``timeout_s`` bounds each cell's wall
    clock; with it set, cells always run in worker processes (at least
    one) because only a separate process can be killed mid-cell.  A
    failing or timed-out cell runs up to ``retries`` more times after
    an exponential ``backoff_s`` window.

    ``checkpoint``/``cache`` short-circuit finished cells (checkpoint
    wins; cache hits are copied into the checkpoint so an interrupted
    sweep's manifest stays complete), and every store-computed result
    is merged into both as it lands — the supervisor is the single
    checkpoint writer, workers share the content-addressed cache
    directly.

    ``chaos`` is the fault-injection hook: a callable invoked each
    supervisor poll with the list of live worker ``Process`` objects
    (see :mod:`repro.faults.procchaos`).  ``on_progress(done, total)``
    fires when the done-count advances.
    """
    cells = list(cells)
    fingerprint = (cache.fingerprint if cache is not None
                   else code_fingerprint())
    keys = [cache_key(cell, fingerprint) for cell in cells]

    results: dict[int, Any] = {}
    store_indexes: list[int] = []
    for index, cell in enumerate(cells):
        if checkpoint is not None:
            hit = checkpoint.get(cell)
            if hit is not checkpoint.MISS:
                results[index] = hit
                continue
        if cache is not None:
            hit = cache.get(cell)
            if hit is not cache.MISS:
                results[index] = hit
                if checkpoint is not None:
                    checkpoint.put(cell, hit)
                continue
        store_indexes.append(index)

    store = ShardStore(store_dir, fingerprint=fingerprint,
                       max_crashes=max_crashes)
    try:
        # duplicate cells collapse onto one store row here: the dict
        # keeps one (key, cell) per content key; prune first so the
        # store is always scoped to exactly this sweep (a resumed
        # identical sweep keys identically and keeps its done rows)
        keyed = {keys[i]: cells[i] for i in store_indexes}
        store.prune_except(keyed)
        store.add_cells(keyed.items())
        _supervise(store, fn, workers,
                   lease_s=lease_s, timeout_s=timeout_s,
                   retries=retries, backoff_s=backoff_s,
                   max_crashes=max_crashes,
                   respawn_budget=respawn_budget,
                   poll_s=poll_s, claim_k=claim_k,
                   cache=cache, chaos=chaos,
                   store_dir=store_dir,
                   checkpoint=checkpoint, key_to_cell=keyed,
                   on_progress=on_progress,
                   prefilled=len(results), total=len(cells))

        failures = store.failures()
        for index in store_indexes:
            key = keys[index]
            found, value = store.get_result(key)
            if found:
                results[index] = value
            elif key in failures:
                reason, attempts, crashes = failures[key]
                kind, detail = _fail_reason(reason)
                results[index] = FailedCell(
                    cells[index], kind, detail,
                    attempts=max(1, attempts + crashes))
            else:
                # a done row failed verification at the last moment
                # (or vanished): recompute inline rather than abort
                value = fn(cells[index])
                store.complete(key, value)
                if cache is not None:
                    cache.put(cells[index], value)
                if checkpoint is not None:
                    checkpoint.put(cells[index], value)
                results[index] = value
    finally:
        store.close()
    return [results[index] for index in range(len(cells))]


def _supervise(store: ShardStore, fn, workers: int, *, lease_s,
               timeout_s, retries, backoff_s, max_crashes,
               respawn_budget, poll_s, claim_k, cache, chaos,
               store_dir, checkpoint, key_to_cell, on_progress,
               prefilled, total) -> None:
    """Run the pool to completion: spawn workers, reap/respawn the
    dead, kill workers whose cell ran past ``timeout_s``, poison cells
    that keep killing workers, merge finished rows into the
    checkpoint, and degrade to serial when the pool is gone."""
    if respawn_budget is None:
        respawn_budget = default_respawn_budget(workers)
    pool_size = max(1, workers)
    cache_root = None if cache is None else cache.root
    worker_kwargs = dict(
        lease_s=lease_s, retries=retries, backoff_s=backoff_s,
        cache_root=cache_root, fingerprint=store.fingerprint,
        max_crashes=max_crashes, parent_pid=os.getpid(),
        claim_k=claim_k)
    #: worker -> shared start time of its running cell (timeouts only)
    clocks: dict = {}

    def spawn():
        started_at = None
        if timeout_s is not None:
            started_at = multiprocessing.RawValue("d", 0.0)
        proc = multiprocessing.Process(
            target=_worker_main, args=(store_dir, fn),
            kwargs=dict(worker_kwargs, started_at=started_at),
            daemon=True)
        proc.start()
        clocks[proc] = started_at
        return proc

    def kill_wedged() -> list:
        """Kill every worker whose cell has run past ``timeout_s``,
        hand its leased cells back to the store, and return the
        killed workers."""
        now = time.monotonic()
        wedged = []
        for proc in procs:
            began = clocks[proc].value
            if began and now - began > timeout_s:
                proc.kill()
                proc.join()
                # the cell may have ended between the read and the
                # kill; then its lease goes back without an attempt
                store.abandon(f"worker-{proc.pid}",
                              timed_out=clocks[proc].value == began,
                              retries=retries, backoff_s=backoff_s)
                wedged.append(proc)
        return wedged

    checkpointed: set = set()

    def merge_done() -> None:
        """Flush newly finished rows into the checkpoint (the
        supervisor is the only checkpoint writer — workers never
        touch the manifest, so there is exactly one journal tail).
        Fresh rows land via one grouped journal append
        (:meth:`CampaignCheckpoint.put_many`) rather than one
        open/flush cycle per row."""
        fresh = []
        for key in store.done_keys():
            if key in checkpointed or key not in key_to_cell:
                continue
            found, result = store.get_result(key)
            if not found:
                continue  # discarded as corrupt; will be recomputed
            fresh.append((key_to_cell[key], result))
            checkpointed.add(key)
        if fresh:
            if checkpoint is not None:
                checkpoint.put_many(fresh)
            if on_progress is not None:
                on_progress(prefilled + len(checkpointed), total)

    procs: list = []
    # a timeout needs a killable process even for a one-worker sweep
    if workers > 1 or timeout_s is not None:
        try:
            procs = [spawn() for _ in range(pool_size)]
        except OSError:
            procs = []  # can't fork at all: serial from the start

    serial_owner = f"supervisor-{os.getpid()}"
    try:
        while not store.all_terminal():
            if chaos is not None:
                chaos([p for p in procs if p.is_alive()])
            poisoned = store.reap()
            if poisoned:
                merge_done()
            if timeout_s is not None:
                for proc in kill_wedged():
                    # a timeout is not a crash: the replacement does
                    # not draw on the respawn budget
                    procs.remove(proc)
                    del clocks[proc]
                    try:
                        procs.append(spawn())
                    except OSError:
                        pass
            dead = [p for p in procs if not p.is_alive()]
            for proc in dead:
                proc.join()
                procs.remove(proc)
                del clocks[proc]
            while dead and len(procs) < pool_size \
                    and respawn_budget > 0:
                respawn_budget -= 1
                try:
                    procs.append(spawn())
                except OSError:
                    respawn_budget = 0
                    break
            if not procs:
                # pool gone and unrespawnable: finish the sweep
                # serially in-process rather than abandoning it (the
                # only time a cell under a timeout runs unbounded)
                _drain(store, fn, serial_owner,
                       lease_s=max(lease_s, 60.0), retries=retries,
                       backoff_s=backoff_s, cache=cache,
                       poll_s=poll_s, claim_k=claim_k)
                store.reap()
                merge_done()
                continue
            merge_done()
            time.sleep(poll_s)
        # results() discards corrupt rows back to pending; drain any
        # such stragglers serially so the sweep always converges
        while not store.all_terminal():
            _drain(store, fn, serial_owner, lease_s=max(lease_s, 60.0),
                   retries=retries, backoff_s=backoff_s, cache=cache,
                   poll_s=poll_s, claim_k=claim_k)
            store.reap()
        merge_done()
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.join(timeout=5.0)
