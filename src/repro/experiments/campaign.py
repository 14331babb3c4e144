"""Resumable experiment campaigns (``python -m repro.experiments``).

A *campaign* runs a list of experiments as independent cells through
the leased store executor :func:`~repro.experiments.shard.shard_map`
— per-cell timeouts, bounded retries with exponential backoff,
graceful ``FAILED(reason)`` rows, worker-crash tolerance — and
checkpoints every finished cell through a
:class:`~repro.experiments.checkpoint.CampaignCheckpoint` so an
interrupted run can be re-invoked with ``--resume`` and re-execute
only the unfinished cells.

Cells and results are plain JSON dicts (not
:class:`~repro.experiments.base.ExperimentResult` objects) so they
round-trip through the checkpoint manifest unchanged; the report is
rendered *after* the map from those values, with no timing lines, so
a resumed campaign's report is byte-identical to an uninterrupted
one.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import store
from .cellcache import CellCache
from .checkpoint import CampaignCheckpoint
from .parallel import FailedCell, default_jobs
from .registry import run_experiment
from .shard import shard_map

REPORT_HEADER = ("# Reproduction report\n"
                 "# The Battle of the Schedulers: FreeBSD ULE vs. "
                 "Linux CFS (ATC'18)\n")


def run_campaign_cell(cell: dict) -> dict:
    """Execute one campaign cell (one experiment) and return a plain
    JSON-serializable summary — checkpoint manifests store exactly
    this value."""
    result = run_experiment(cell["experiment"], quick=cell["quick"],
                            seed=cell["seed"])
    return {"experiment": cell["experiment"], "claim": result.claim,
            "text": result.text}


def build_cells(names: Sequence[str], quick: bool,
                seed: int) -> list[dict]:
    """The campaign's stable cell list (one dict per experiment)."""
    return [{"experiment": name, "quick": quick, "seed": seed}
            for name in names]


def render_report(cells: Sequence[dict], results: Sequence) -> str:
    """Render the combined report.  Deterministic: derived only from
    cell/result values (no wall-clock timing), so serial, parallel
    and resumed runs all render byte-identically."""
    parts = [REPORT_HEADER]
    rule = "=" * 72
    for cell, result in zip(cells, results):
        name = cell["experiment"]
        if isinstance(result, FailedCell):
            parts.append(f"\n\n{rule}\n== {name}: {result.render()}\n"
                         f"{rule}\n")
            parts.append(f"(no rows: cell failed after "
                         f"{result.attempts} attempt(s))\n")
        else:
            parts.append(f"\n\n{rule}\n== {name}: {result['claim']}\n"
                         f"{rule}\n")
            parts.append(result["text"])
    return "".join(parts)


def run_campaign(names: Sequence[str], quick: bool = True,
                 seed: int = 1, jobs: Optional[int] = None,
                 timeout_s: Optional[float] = None, retries: int = 0,
                 backoff_s: float = 0.5,
                 checkpoint_path=None,
                 resume: bool = False,
                 cache: Optional[CellCache] = None,
                 store_dir=None
                 ) -> tuple[list, list]:
    """Run a campaign; returns ``(cells, results)`` where each result
    is a summary dict or a :class:`FailedCell` marker.

    Every campaign runs through the leased store executor
    (:func:`~repro.experiments.shard.shard_map`,
    docs/distributed-campaigns.md) with ``jobs`` workers: ``None`` or
    ``1`` drains the store in this process, ``0`` means all cores.
    ``timeout_s`` bounds every cell at any ``jobs`` (cells then run in
    worker processes); a failing or timed-out cell is re-run up to
    ``retries`` times behind an exponential ``backoff_s`` window.

    When ``checkpoint_path`` is given, finished cells are flushed to
    it atomically as they complete; ``resume=True`` replays a prior
    manifest (matching experiment list/quick/seed) and the store's
    finished rows instead of re-running those cells, and a fully
    successful campaign removes both.  The store lives in
    ``store_dir``, by default beside the manifest
    (``<checkpoint_path>.store``) or, without one, in
    :data:`~repro.experiments.store.DEFAULT_DIR`.

    ``cache`` is the content-addressed cell cache
    (:mod:`~repro.experiments.cellcache`): unlike the checkpoint it
    survives successful campaigns and is shared across campaigns with
    overlapping cells, so a warm rerun executes zero cells.
    """
    cells = build_cells(names, quick, seed)
    checkpoint = None
    if checkpoint_path is not None:
        checkpoint = CampaignCheckpoint(
            checkpoint_path,
            meta={"experiments": list(names), "quick": quick,
                  "seed": seed})
        checkpoint.load(resume=resume)
    if store_dir is None:
        store_dir = (store.DEFAULT_DIR if checkpoint_path is None
                     else f"{checkpoint_path}.store")
    if not resume:
        # fresh sweep: a stale store from an older interrupted run
        # must not replay (mirrors checkpoint.load semantics)
        store.remove(store_dir)
    workers = default_jobs() if jobs == 0 else max(1, jobs or 1)
    results = shard_map(run_campaign_cell, cells, workers,
                        store_dir=store_dir, timeout_s=timeout_s,
                        retries=retries, backoff_s=backoff_s,
                        checkpoint=checkpoint, cache=cache)
    if not any(isinstance(r, FailedCell) for r in results):
        if checkpoint is not None:
            checkpoint.clear()
        store.remove(store_dir)
    return cells, results
