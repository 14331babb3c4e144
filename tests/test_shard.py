"""The leased work-stealing shard executor: serial equivalence,
in-flight dedupe, checkpoint/cache short-circuits, poison-cell
quarantine, SIGKILL survival, serial degradation — and the capstone
chaos test: a multi-thousand-cell sweep that loses its supervisor
*and* three workers to SIGKILL, resumes, and still produces results
byte-identical to an uninterrupted serial run with no
already-checkpointed cell executed twice."""

import json
import multiprocessing
import os
import signal
import time
from collections import Counter

import pytest

from repro.experiments.cellcache import CellCache
from repro.experiments.checkpoint import CampaignCheckpoint
from repro.experiments.parallel import FailedCell
from repro.experiments.shard import shard_map
from repro.faults.procchaos import WorkerKiller


# ------------------------------------------------------- cell functions
# (module-level: workers inherit them across fork)


def _triple(cell):
    return {"v": cell["i"] * 3}


def _logged(cell):
    """Log one execution line (O_APPEND, atomic per line) then
    compute; the chaos capstone counts these to prove no finished
    cell ever re-executes."""
    with open(os.path.join(cell["log"], f"{os.getpid()}.log"),
              "a") as fh:
        fh.write(f"{cell['i']}\n")
        fh.flush()
    return {"v": cell["i"] * 3}


def _slow_logged(cell):
    result = _logged(cell)
    time.sleep(0.002)
    return result


def _suicide_or_triple(cell):
    """The poison cell: SIGKILL the worker that runs it.  Everything
    else computes normally."""
    if cell.get("suicide"):
        os.kill(os.getpid(), signal.SIGKILL)
    return _triple(cell)


def _executions(log_dir) -> Counter:
    counts = Counter()
    for name in os.listdir(log_dir):
        with open(os.path.join(log_dir, name)) as fh:
            counts.update(int(line) for line in fh if line.strip())
    return counts


# ------------------------------------------------------------ contract


def test_results_in_submission_order_match_serial(tmp_path):
    cells = [{"i": i} for i in range(40)]
    results = shard_map(_triple, cells, 2,
                        store_dir=tmp_path / "store")
    assert results == [_triple(cell) for cell in cells]


def test_supervisor_serial_path_when_single_worker(tmp_path):
    cells = [{"i": i} for i in range(10)]
    results = shard_map(_triple, cells, 1,
                        store_dir=tmp_path / "store")
    assert results == [_triple(cell) for cell in cells]


def test_duplicate_cells_collapse_to_one_execution(tmp_path):
    log = tmp_path / "log"
    log.mkdir()
    base = [{"i": i, "log": str(log)} for i in range(20)]
    cells = base * 3  # every cell three times
    results = shard_map(_logged, cells, 2,
                        store_dir=tmp_path / "store")
    assert results == [_triple(cell) for cell in cells]
    counts = _executions(log)
    assert sum(counts.values()) == 20  # one execution per content key
    assert all(count == 1 for count in counts.values())


def test_checkpointed_cells_replay_without_execution(tmp_path):
    log = tmp_path / "log"
    log.mkdir()
    cells = [{"i": i, "log": str(log)} for i in range(10)]
    checkpoint = CampaignCheckpoint(tmp_path / "ck.jsonl",
                                    meta={"m": 1})
    for cell in cells[:6]:
        checkpoint.put(cell, {"v": "replayed"})  # marker value
    results = shard_map(_logged, cells, 2,
                        store_dir=tmp_path / "store",
                        checkpoint=checkpoint)
    assert results[:6] == [{"v": "replayed"}] * 6
    assert results[6:] == [_triple(cell) for cell in cells[6:]]
    assert set(_executions(log)) == {6, 7, 8, 9}


def test_cache_hits_skip_execution_and_backfill_checkpoint(tmp_path):
    log = tmp_path / "log"
    log.mkdir()
    cells = [{"i": i, "log": str(log)} for i in range(6)]
    cache = CellCache(tmp_path / "cache", fingerprint="fp-shard")
    for cell in cells[:4]:
        cache.put(cell, {"v": "cached"})
    checkpoint = CampaignCheckpoint(tmp_path / "ck.jsonl",
                                    meta={"m": 1})
    results = shard_map(_logged, cells, 2,
                        store_dir=tmp_path / "store",
                        checkpoint=checkpoint, cache=cache)
    assert results == [{"v": "cached"}] * 4 + \
        [_triple(cell) for cell in cells[4:]]
    assert set(_executions(log)) == {4, 5}
    # cache hits are copied into the checkpoint, and computed cells
    # land in the cache: both layers end up complete
    assert all(checkpoint.get(cell) is not checkpoint.MISS
               for cell in cells)
    assert all(cache.get(cell) is not cache.MISS for cell in cells)


def _outlives_lease(cell):
    """A healthy cell that takes several lease durations to finish:
    only the heartbeat keeps it from being stolen."""
    time.sleep(cell["sleep_s"])
    return _triple(cell)


def test_heartbeat_keeps_slow_cell_leased_in_worker(tmp_path):
    """Regression: the heartbeat runs in a thread, and sqlite
    connections are thread-bound — a heartbeat sharing the worker's
    connection dies on its first renew, so any cell slower than the
    lease was stolen, then falsely poison-quarantined."""
    cells = [{"i": i, "sleep_s": 0.7} for i in range(2)]
    results = shard_map(_outlives_lease, cells, 2,
                        store_dir=tmp_path / "store", lease_s=0.2)
    assert results == [_triple(cell) for cell in cells]


# ------------------------------------------------------------ robustness


def test_poison_cell_quarantined_sweep_survives(tmp_path):
    cells = [{"i": i} for i in range(8)]
    cells.insert(3, {"i": 99, "suicide": True})
    results = shard_map(_suicide_or_triple, cells, 2,
                        store_dir=tmp_path / "store", lease_s=0.3)
    poison = results[3]
    assert isinstance(poison, FailedCell)
    assert poison.reason == "poison"
    assert "crashed 2 workers" in poison.error
    clean = results[:3] + results[4:]
    assert clean == [_triple(cell) for cell in cells
                     if not cell.get("suicide")]


def test_worker_sigkills_do_not_change_results(tmp_path):
    log = tmp_path / "log"
    log.mkdir()
    cells = [{"i": i, "log": str(log)} for i in range(250)]
    killer = WorkerKiller(2, seed=3, min_gap_s=0.05, max_gap_s=0.15)
    results = shard_map(_slow_logged, cells, 3,
                        store_dir=tmp_path / "store", lease_s=0.5,
                        chaos=killer)
    assert results == [_triple(cell) for cell in cells]
    assert len(killer.killed) == 2  # the chaos budget was spent


def test_unrespawnable_pool_degrades_to_serial(tmp_path):
    cells = [{"i": i} for i in range(30)]
    # kill every worker immediately and forbid replacements: the
    # supervisor must finish the sweep in-process
    killer = WorkerKiller(2, seed=1, min_gap_s=0.0, max_gap_s=0.001)
    results = shard_map(_triple, cells, 2,
                        store_dir=tmp_path / "store", lease_s=0.3,
                        respawn_budget=0, chaos=killer)
    assert results == [_triple(cell) for cell in cells]


def _wedged_or_triple(cell):
    """Cell 0 never returns: only a kill ends it."""
    if cell["i"] == 0:
        time.sleep(3600)
    return _triple(cell)


@pytest.mark.parametrize("workers", [1, 2])
def test_wedged_cell_times_out_and_sweep_finishes(tmp_path, workers):
    """Regression: the supervisor never killed a worker whose lease it
    had given up on, so a wedged cell's batch-mates stayed leased to
    a stuck worker (2 workers) or the in-process drain blocked inside
    the cell (1 worker) and the sweep never ended."""
    cells = [{"i": i} for i in range(12)]
    start = time.monotonic()
    results = shard_map(_wedged_or_triple, cells, workers,
                        store_dir=tmp_path / "store", timeout_s=1.0,
                        lease_s=0.6)
    assert time.monotonic() - start < 20
    wedged = results[0]
    assert isinstance(wedged, FailedCell)
    assert wedged.render() == "FAILED(timeout)"
    assert wedged.attempts == 1
    assert results[1:] == [_triple(cell) for cell in cells[1:]]
    assert multiprocessing.active_children() == []


def test_failing_cell_retries_then_marks_failed(tmp_path):
    def check(results):
        failure = results[1]
        assert isinstance(failure, FailedCell)
        assert failure.reason == "error"
        assert "RuntimeError" in failure.error

    cells = [{"i": 0}, {"i": 1, "boom": True}, {"i": 2}]
    results = shard_map(_boom_flagged, cells, 2,
                        store_dir=tmp_path / "store",
                        retries=1, backoff_s=0.01)
    assert results[0] == _triple(cells[0])
    assert results[2] == _triple(cells[2])
    check(results)


def _boom_flagged(cell):
    if cell.get("boom"):
        raise RuntimeError(f"bad cell {cell['i']}")
    return _triple(cell)


# ------------------------------------------------------------ capstone


CAPSTONE_N = 2400
CAPSTONE_META = {"sweep": "capstone"}


def _capstone_cells(log_dir):
    return [{"i": i, "log": str(log_dir)} for i in range(CAPSTONE_N)]


def _capstone_child(store_dir, checkpoint_path, log_dir):
    """Phase-1 supervisor, run in a child so the test can SIGKILL
    it."""
    checkpoint = CampaignCheckpoint(checkpoint_path,
                                    meta=CAPSTONE_META)
    checkpoint.load(resume=True)
    shard_map(_logged, _capstone_cells(log_dir), 3,
              store_dir=store_dir, lease_s=0.5, checkpoint=checkpoint)


def _render(cells, results):
    return "".join(
        f"{cell['i']}: {json.dumps(result, sort_keys=True)}\n"
        for cell, result in zip(cells, results))


def test_chaos_capstone_supervisor_and_worker_sigkills(tmp_path):
    """The acceptance scenario: a multi-thousand-cell sweep loses its
    supervisor to SIGKILL mid-run, is resumed (the ``--resume``
    machinery: same checkpoint journal, same store), loses three more
    workers to seeded SIGKILLs — and the merged report is
    byte-identical to an uninterrupted serial run, with no cell
    executed again once checkpointed."""
    log = tmp_path / "log"
    log.mkdir()
    store_dir = tmp_path / "store"
    checkpoint_path = tmp_path / "ck.jsonl"
    cells = _capstone_cells(log)

    # the uninterrupted serial reference (pure compute, no store)
    reference = _render(cells, [_triple(cell) for cell in cells])

    # phase 1: SIGKILL the whole sharded campaign mid-sweep
    child = multiprocessing.Process(
        target=_capstone_child,
        args=(str(store_dir), str(checkpoint_path), str(log)))
    child.start()
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline and child.is_alive():
        try:
            with open(checkpoint_path) as fh:
                finished = sum(1 for _ in fh) - 1
        except OSError:
            finished = 0
        if finished >= CAPSTONE_N // 8:
            break
        time.sleep(0.01)
    assert child.is_alive(), "sweep finished before it could be killed"
    os.kill(child.pid, signal.SIGKILL)
    child.join()

    checkpoint = CampaignCheckpoint(checkpoint_path,
                                    meta=CAPSTONE_META)
    replayed = checkpoint.load(resume=True)
    assert 0 < replayed < CAPSTONE_N, "kill landed mid-sweep"
    finished_keys = {cell["i"] for cell in cells
                     if checkpoint.get(cell) is not checkpoint.MISS}
    # give phase-1 orphan workers a beat to notice the dead
    # supervisor and exit before counting phase-1 executions
    time.sleep(0.3)
    phase1 = _executions(log)

    # phase 2: resume; SIGKILL three workers while it runs
    killer = WorkerKiller(3, seed=11, min_gap_s=0.05, max_gap_s=0.15)
    results = shard_map(_logged, cells, 3, store_dir=store_dir,
                        lease_s=0.5, checkpoint=checkpoint,
                        chaos=killer)

    assert len(killer.killed) >= 3
    report = _render(cells, results)
    assert report == reference  # byte-identical to the serial run

    # no cell executed twice once a checkpointed result existed
    phase2 = _executions(log)
    phase2.subtract(phase1)
    re_executed = {i for i, extra in phase2.items()
                   if extra > 0 and i in finished_keys}
    assert re_executed == set()


# ------------------------------------------------------------ campaign


def _fake_campaign_cell(cell):
    return {"experiment": cell["experiment"], "claim": "ok",
            "text": f"rows for {cell['experiment']}\n"}


def test_run_campaign_through_shard_executor(tmp_path, monkeypatch):
    from repro.experiments import campaign

    monkeypatch.setattr(campaign, "run_campaign_cell",
                        _fake_campaign_cell)
    checkpoint_path = tmp_path / "ck.jsonl"
    store_dir = tmp_path / "store"
    cells, results = campaign.run_campaign(
        ["alpha", "beta"], quick=True, seed=1,
        checkpoint_path=checkpoint_path, jobs=2,
        store_dir=store_dir)
    assert [r["experiment"] for r in results] == ["alpha", "beta"]
    report = campaign.render_report(cells, results)
    assert "rows for alpha" in report and "rows for beta" in report
    # a fully successful campaign removes both manifest and store
    assert not checkpoint_path.exists()
    assert not (store_dir / "cells.sqlite3").exists()


def test_cli_accepts_shard_flags():
    from repro.experiments.__main__ import build_parser

    args = build_parser().parse_args(
        ["run", "--jobs", "4", "--store-dir", "/tmp/s", "--resume"])
    assert args.jobs == 4
    assert args.store_dir == "/tmp/s"
    assert args.resume
    # one executor: no executor switch, and retries never reseed
    for gone in (["--shard-workers", "4"], ["--reseed"]):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", *gone])
