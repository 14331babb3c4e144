"""Failure paths of the campaign executor: raising cells, timeouts,
retries, FAILED markers, lost workers, and the checkpoint/resume
contract (resumed rows byte-identical to an uninterrupted run).  The
plain :func:`cell_map` only has to let a raising cell's exception
through."""

import json
import multiprocessing
import os
import signal
import time
import warnings

import pytest

from repro.experiments.checkpoint import CampaignCheckpoint, cell_key
from repro.experiments.parallel import FailedCell, cell_map
from repro.experiments.shard import shard_map


def _double(cell):
    return cell * 2


def _boom_on_negative(cell):
    if cell < 0:
        raise ValueError(f"bad cell {cell}")
    return cell * 2


def _sleep_forever(cell):
    if cell == "stuck":
        time.sleep(60)
    return cell


def _always_boom(cell):
    raise RuntimeError("must not be called")


# ---------------------------------------------------------------- failures


def test_raising_cell_propagates_unwrapped_on_plain_path():
    # cell_map is the plain map: the exception comes straight through.
    with pytest.raises(ValueError):
        cell_map(_boom_on_negative, [1, -2, 3])


def test_mark_failures_yields_failed_cell_in_place(tmp_path):
    results = shard_map(_boom_on_negative, [1, -2, 3], 1,
                        store_dir=tmp_path / "store")
    assert results[0] == 2 and results[2] == 6
    failure = results[1]
    assert isinstance(failure, FailedCell)
    assert failure.cell == -2
    assert failure.render().startswith("FAILED(error")
    assert failure.attempts == 1


def test_timeout_cell_is_marked_and_pool_recovers(tmp_path):
    results = shard_map(_sleep_forever, ["a", "stuck", "b"], 2,
                        store_dir=tmp_path / "store", timeout_s=1.0)
    assert results[0] == "a" and results[2] == "b"
    assert isinstance(results[1], FailedCell)
    assert results[1].reason == "timeout"
    assert results[1].render() == "FAILED(timeout)"
    assert multiprocessing.active_children() == []


def _fake_campaign_cell(cell):
    if cell["experiment"] == "stuck":
        time.sleep(60)
    return {"experiment": cell["experiment"], "claim": "ok",
            "text": f"rows for {cell['experiment']}\n"}


def test_campaign_timeout_bounds_a_cell_at_one_job(tmp_path,
                                                    monkeypatch):
    """``--timeout`` holds at ``--jobs 1`` too: the cell runs in a
    worker process, is killed at the timeout ``retries + 1`` times,
    and its row renders ``FAILED(timeout)``."""
    from repro.experiments import campaign

    monkeypatch.setattr(campaign, "run_campaign_cell",
                        _fake_campaign_cell)
    start = time.monotonic()
    cells, results = campaign.run_campaign(
        ["alpha", "stuck"], jobs=1, timeout_s=0.5, retries=1,
        backoff_s=0.01, checkpoint_path=tmp_path / "ck.jsonl")
    assert time.monotonic() - start < 20
    assert results[0]["text"] == "rows for alpha\n"
    failure = results[1]
    assert isinstance(failure, FailedCell)
    assert failure.render() == "FAILED(timeout)"
    assert failure.attempts == 2
    report = campaign.render_report(cells, results)
    assert "== stuck: FAILED(timeout)" in report
    assert "cell failed after 2 attempt(s)" in report
    # a failed campaign keeps its manifest and store for --resume
    assert (tmp_path / "ck.jsonl").exists()
    assert (tmp_path / "ck.jsonl.store" / "cells.sqlite3").exists()


def test_retried_cell_succeeds_without_a_failed_row(tmp_path):
    flag = tmp_path / "failed-once"

    cells = [{"i": 1}, {"i": 2, "flag": str(flag)}]
    results = shard_map(_fail_once, cells, 1,
                        store_dir=tmp_path / "store", retries=1,
                        backoff_s=0.01)
    assert results == [2, 4]


def _fail_once(cell):
    flag = cell.get("flag")
    if flag is not None and not os.path.exists(flag):
        open(flag, "w").close()
        raise RuntimeError("transient")
    return cell["i"] * 2


# -------------------------------------------------------------- checkpoint


def test_checkpoint_records_only_successes(tmp_path):
    ck = CampaignCheckpoint(tmp_path / "ck.json", meta={"k": 1})
    results = shard_map(_boom_on_negative, [1, -2, 3], 1,
                        store_dir=tmp_path / "store", checkpoint=ck)
    assert isinstance(results[1], FailedCell)
    assert ck.get(1) == 2 and ck.get(3) == 6
    assert ck.get(-2) is ck.MISS  # failures are never checkpointed
    # The manifest survives a "process restart".
    fresh = CampaignCheckpoint(tmp_path / "ck.json", meta={"k": 1})
    assert fresh.load(resume=True) == 2
    assert fresh.get(3) == 6


def test_resume_short_circuits_finished_cells(tmp_path):
    path = tmp_path / "ck.json"
    ck = CampaignCheckpoint(path, meta={})
    shard_map(_double, [1, 2, 3], 1, store_dir=tmp_path / "store",
              checkpoint=ck)
    # A "restarted" run against an empty store: _always_boom would
    # fail any cell re-executed, so every row must come from the
    # manifest.
    resumed = CampaignCheckpoint(path, meta={})
    assert resumed.load(resume=True) == 3
    results = shard_map(_always_boom, [1, 2, 3], 1,
                        store_dir=tmp_path / "store2",
                        checkpoint=resumed)
    assert results == [2, 4, 6]


def test_resume_after_partial_run_matches_uninterrupted(tmp_path):
    cells = [1, 2, 3, 4]
    uninterrupted = cell_map(_double, cells)

    # Simulate a campaign killed after two cells: only their results
    # made it into the manifest.
    path = tmp_path / "ck.json"
    partial = CampaignCheckpoint(path, meta={"run": 1})
    shard_map(_double, cells[:2], 1, store_dir=tmp_path / "store",
              checkpoint=partial)

    resumed_ck = CampaignCheckpoint(path, meta={"run": 1})
    assert resumed_ck.load(resume=True) == 2
    executed = []

    def counting(cell):
        executed.append(cell)
        return _double(cell)

    resumed = shard_map(counting, cells, 1,
                        store_dir=tmp_path / "store",
                        checkpoint=resumed_ck)
    assert resumed == uninterrupted  # rows identical, in order
    assert executed == [3, 4]  # only the unfinished cells re-ran


def test_no_resume_clears_a_stale_manifest(tmp_path):
    path = tmp_path / "ck.json"
    ck = CampaignCheckpoint(path, meta={})
    ck.put(1, 999)
    assert path.exists()
    fresh = CampaignCheckpoint(path, meta={})
    assert fresh.load(resume=False) == 0
    assert not path.exists()
    assert fresh.get(1) is fresh.MISS


def test_mismatched_meta_discards_the_manifest(tmp_path):
    path = tmp_path / "ck.json"
    ck = CampaignCheckpoint(path, meta={"seed": 1})
    ck.put("cell", "result")
    other = CampaignCheckpoint(path, meta={"seed": 2})
    assert other.load(resume=True) == 0
    assert other.get("cell") is other.MISS


def test_corrupt_manifest_is_treated_as_empty(tmp_path):
    path = tmp_path / "ck.json"
    path.write_text("{ not json !")
    ck = CampaignCheckpoint(path, meta={})
    assert ck.load(resume=True) == 0


def test_cell_key_is_canonical_json():
    assert cell_key({"b": 1, "a": 2}) == cell_key({"a": 2, "b": 1})
    assert cell_key((1, "x")) == cell_key([1, "x"])
    assert cell_key(1) != cell_key("1")


# ------------------------------------------------------- campaign wiring


def test_campaign_resume_report_is_byte_identical(tmp_path):
    """The acceptance criterion, at campaign level: a killed-then-
    resumed campaign renders the same report as an uninterrupted one,
    re-executing only unfinished cells."""
    from repro.experiments.campaign import (build_cells, render_report,
                                            run_campaign,
                                            run_campaign_cell)

    names = ["table1", "table2"]
    ck_path = tmp_path / "campaign.json"
    meta = {"experiments": names, "quick": True, "seed": 1}

    # The uninterrupted reference.
    cells, results = run_campaign(names, quick=True, seed=1,
                                  store_dir=tmp_path / "store")
    reference = render_report(cells, results)

    # "Kill" a campaign after its first cell: manifest holds table1.
    partial = CampaignCheckpoint(ck_path, meta=meta)
    first = build_cells(names, True, 1)[0]
    partial.put(first, run_campaign_cell(first))

    # Resume: table1 must come from the manifest, not re-run.
    import repro.experiments.campaign as campaign_mod
    real_cell = campaign_mod.run_campaign_cell
    executed = []

    def tracking(cell):
        executed.append(cell["experiment"])
        return real_cell(cell)

    campaign_mod.run_campaign_cell = tracking
    try:
        cells2, results2 = run_campaign(
            names, quick=True, seed=1, checkpoint_path=ck_path,
            resume=True)
    finally:
        campaign_mod.run_campaign_cell = real_cell
    assert executed == ["table2"]
    assert render_report(cells2, results2) == reference
    # Fully successful campaign removes its manifest.
    assert not ck_path.exists()


# ------------------------------------------------- journal recovery (v2)


def _journal_lines(path):
    return path.read_text().splitlines()


def test_put_appends_one_journal_line(tmp_path):
    path = tmp_path / "ck.jsonl"
    ck = CampaignCheckpoint(path, meta={"k": 1})
    ck.put(1, 2)
    ck.put(2, 4)
    lines = _journal_lines(path)
    assert len(lines) == 3  # header + one line per cell
    header = json.loads(lines[0])
    assert header["format"].endswith("v2")
    assert header["meta"] == {"k": 1}


def test_truncated_trailing_line_is_recovered_and_compacted(tmp_path):
    path = tmp_path / "ck.jsonl"
    ck = CampaignCheckpoint(path, meta={})
    for cell in (1, 2, 3):
        ck.put(cell, cell * 2)
    # crash mid-append: the journal ends in half a JSON line
    with open(path, "a") as fh:
        fh.write('{"cell": "4", "resu')
    fresh = CampaignCheckpoint(path, meta={})
    with pytest.warns(RuntimeWarning, match="truncated"):
        assert fresh.load(resume=True) == 3
    assert fresh.get(2) == 4
    # the journal was compacted: the torn tail is gone for good
    reloaded = CampaignCheckpoint(path, meta={})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert reloaded.load(resume=True) == 3


def test_corrupt_middle_line_is_skipped_not_fatal(tmp_path):
    path = tmp_path / "ck.jsonl"
    ck = CampaignCheckpoint(path, meta={})
    ck.put(1, 2)
    ck.put(2, 4)
    lines = _journal_lines(path)
    lines[1] = lines[1][: len(lines[1]) // 2]  # corrupt entry for 1
    path.write_text("\n".join(lines) + "\n")
    fresh = CampaignCheckpoint(path, meta={})
    with pytest.warns(RuntimeWarning, match="corrupt"):
        assert fresh.load(resume=True) == 1
    assert fresh.get(1) is fresh.MISS  # lost -> will re-run
    assert fresh.get(2) == 4  # later entries survive the bad line


def test_bitflipped_entry_fails_its_digest_and_is_dropped(tmp_path):
    path = tmp_path / "ck.jsonl"
    ck = CampaignCheckpoint(path, meta={})
    ck.put(1, 1000)
    lines = _journal_lines(path)
    lines[1] = lines[1].replace("1000", "1001")  # still valid JSON
    path.write_text("\n".join(lines) + "\n")
    fresh = CampaignCheckpoint(path, meta={})
    with pytest.warns(RuntimeWarning, match="corrupt"):
        assert fresh.load(resume=True) == 0
    assert fresh.get(1) is fresh.MISS  # never served, recomputed


def test_v1_manifest_still_loads(tmp_path):
    path = tmp_path / "ck.json"
    v1 = {"format": "repro-campaign-checkpoint-v1",
          "meta": {"seed": 1},
          "cells": {cell_key(1): 2, cell_key(2): 4}}
    path.write_text(json.dumps(v1, indent=2) + "\n")
    ck = CampaignCheckpoint(path, meta={"seed": 1})
    assert ck.load(resume=True) == 2
    assert ck.get(1) == 2
    # the first write migrates the manifest to the journal format
    ck.put(3, 6)
    header = json.loads(_journal_lines(path)[0])
    assert header["format"].endswith("v2")
    fresh = CampaignCheckpoint(path, meta={"seed": 1})
    assert fresh.load(resume=True) == 3


def test_journal_survives_kill_mid_append(tmp_path):
    """End-to-end: SIGKILL a campaign mid-append; the next load
    recovers every fully-written line instead of raising."""
    import multiprocessing
    import os
    import signal
    import time

    path = tmp_path / "ck.jsonl"

    def writer():
        ck = CampaignCheckpoint(path, meta={})
        i = 0
        while True:
            ck.put(i, {"payload": "x" * 512, "i": i})
            i += 1

    proc = multiprocessing.Process(target=writer)
    proc.start()
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            if path.stat().st_size > 64 * 1024:
                break
        except OSError:
            pass
        time.sleep(0.005)
    os.kill(proc.pid, signal.SIGKILL)
    proc.join()
    ck = CampaignCheckpoint(path, meta={})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a torn tail may warn
        recovered = ck.load(resume=True)
    assert recovered > 0
    for i in range(recovered):
        assert ck.get(i) == {"payload": "x" * 512, "i": i}


# ---------------------------------------------- lost worker (infrastructure)


def _killed_once(cell):
    """SIGKILL the worker on the first run of each cell (the flag file
    marks "already died once"), succeed after — the shape of a worker
    lost to the OOM killer."""
    flag, value = cell
    if not os.path.exists(flag):
        open(flag, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 2


def test_broken_pool_respawns_and_reruns_in_flight_cells(tmp_path):
    cells = [(str(tmp_path / f"flag{i}"), i) for i in range(4)]
    # no retries: the rerun comes from lease expiry and respawn, not
    # the per-cell retry budget
    results = shard_map(_killed_once, cells, 2,
                        store_dir=tmp_path / "store", lease_s=0.3)
    assert results == [0, 2, 4, 6]


def test_broken_pool_cells_checkpoint_after_respawn(tmp_path):
    ck = CampaignCheckpoint(tmp_path / "ck.jsonl", meta={})
    cells = [(str(tmp_path / f"f{i}"), i) for i in range(3)]
    results = shard_map(_killed_once, cells, 2,
                        store_dir=tmp_path / "store", lease_s=0.3,
                        checkpoint=ck)
    assert results == [0, 2, 4]
    assert all(ck.get(cell) == cell[1] * 2 for cell in cells)
