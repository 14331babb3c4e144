"""Parallel experiment fan-out: an ordered map over independent cells.

The paper's figures come from sweeping many independent *cells* — one
``(driver, scheduler, seed)`` simulation each.  Cells share nothing
(every cell builds its own :class:`~repro.core.engine.Engine` with its
own seed), so they parallelize perfectly across worker processes.

Determinism is preserved by construction:

* the cell list is built in a stable order before any work starts;
* results come back *in submission order* regardless of completion
  order;
* each cell's seed is part of the cell itself, never derived from
  worker identity or timing.

A driver opts in by building its cells, running them through
:func:`cell_map`, and merging the returned list — the merge code is
identical for the serial (``jobs=None``) and parallel paths, so
``--jobs N`` can never change the rows, only the wall clock.

Cell functions must be module-level (picklable); cell inputs and
outputs must be plain data — engines stay inside the worker.

:func:`cell_map` is deliberately plain: an exception in a cell
propagates.  Campaigns that need per-cell timeouts, retries,
``FAILED(reason)`` rows, checkpoint/resume and worker-crash tolerance
run through the leased store executor,
:func:`~repro.experiments.shard.shard_map`
(docs/distributed-campaigns.md).
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Any, Callable, Iterable, Optional, Sequence


def default_jobs() -> int:
    """Worker count used for ``--jobs 0`` (all cores)."""
    return os.cpu_count() or 1


def _warm_worker() -> None:
    """Pool initializer: enable warm-engine reuse in the worker (see
    :func:`repro.experiments.base.make_engine`) — a pool worker runs
    many same-shaped cells, exactly the case engine recycling pays
    for.  ``setdefault`` keeps an explicit parent
    ``REPRO_WARM_ENGINES=0`` in force."""
    os.environ.setdefault("REPRO_WARM_ENGINES", "1")


def _call(payload):
    """Pool trampoline: unpack ``(fn, cell)`` and apply."""
    fn, cell = payload
    return fn(cell)


class FailedCell:
    """Marker returned by :func:`~repro.experiments.shard.shard_map`
    in place of a result for a cell that exhausted its retries (or was
    quarantined as poison).

    ``reason`` is ``"timeout"``, ``"error"`` or ``"poison"``; ``error``
    carries the exception summary for error failures; ``attempts``
    counts the runs consumed.  Renders as ``FAILED(reason)`` in
    reports.
    """

    __slots__ = ("cell", "reason", "error", "attempts")

    def __init__(self, cell, reason: str, error: str = "",
                 attempts: int = 1):
        self.cell = cell
        self.reason = reason
        self.error = error
        self.attempts = attempts

    def render(self) -> str:
        """The report marker, e.g. ``FAILED(timeout)``."""
        detail = f": {self.error}" if self.error else ""
        return f"FAILED({self.reason}{detail})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FailedCell {self.cell!r} {self.render()}>"


def _map(fn, cells: list, jobs: Optional[int]):
    """Yield ``fn(cell)`` for every cell, in order: in-process for
    ``jobs`` None/<=1 or a single cell, else over a process pool."""
    if jobs == 0:
        jobs = default_jobs()
    if jobs is None or jobs <= 1 or len(cells) <= 1:
        for cell in cells:
            yield fn(cell)
        return
    with multiprocessing.Pool(processes=min(jobs, len(cells)),
                              initializer=_warm_worker) as pool:
        yield from pool.imap(_call, [(fn, cell) for cell in cells],
                             chunksize=1)


def cell_map(fn: Callable[[Any], Any], cells: Iterable[Any],
             jobs: Optional[int] = None, *, cache=None) -> list:
    """Apply ``fn`` to every cell, fanning out to ``jobs`` worker
    processes; results come back in cell order.

    ``jobs=None`` or ``1`` runs serially in-process (no pool, no
    pickling — the default path, and the reference the parallel path
    must match row-for-row).  ``jobs=0`` means all cores.  ``fn``
    must be a module-level function and cells/results plain picklable
    data.

    ``cache`` (a :class:`~repro.experiments.cellcache.CellCache`)
    memoizes finished cells content-addressed by (cell, code
    fingerprint): hits are not executed, and every computed result is
    stored as it arrives.  Since results are plain JSON either way, a
    cache-served sweep is byte-identical to a computed one.
    """
    cells = list(cells)
    if cache is None:
        return list(_map(fn, cells, jobs))
    results = [cache.get(cell) for cell in cells]
    pending = [i for i, result in enumerate(results)
               if result is cache.MISS]
    # the generator goes first so zip runs it to its end (closing the
    # pool) before noticing that ``pending`` is used up too
    computed = _map(fn, [cells[i] for i in pending], jobs)
    for result, index in zip(computed, pending):
        cache.put(cells[index], result)
        results[index] = result
    return results


def _run_experiment_cell(cell):
    name, quick, seed = cell
    from .registry import run_experiment
    return run_experiment(name, quick=quick, seed=seed)


def run_experiments(names: Sequence[str], quick: bool = True,
                    seed: int = 1, jobs: Optional[int] = None) -> list:
    """Run several experiments, one worker process per experiment;
    returns their :class:`~repro.experiments.base.ExperimentResult`
    objects in ``names`` order.  Used by the full-report path of
    ``repro.cli`` (``report --jobs N``)."""
    return cell_map(_run_experiment_cell,
                    [(name, quick, seed) for name in names], jobs=jobs)
