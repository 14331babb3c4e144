"""Tests for the benchmark itself.  Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import cells  # noqa: E402
import measure  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from repro.experiments import fig5_single_core_perf, \
    fig8_multicore_perf  # noqa: E402

#: the fig5 apps of the reduced single_core cell list (fast cells,
#: one of them golden)
REDUCED_APPS = ["Apache", "EP"]

#: metric names the benchmark's specification asks for
SPEC_END_TO_END = {"wall_s", "cell_gmean_ms", "setup_s", "peak_rss_mb"}
SPEC_PER_LAYER = {
    "core.engine.events_per_sim_ms", "core.engine.host_us_per_event",
    "core.engine.self_frac", "core.engine.wakes_per_event",
    "core.engine.migrations_per_event", "core.engine.build_ms",
    "core.engine.reset_ms", "core.engine.builds_per_cell",
    "core.events.posts_per_event", "core.events.cancels_per_event",
    "core.events.self_frac", "tick.calls_per_event", "tick.self_frac",
    "cfs.core.enqueue_per_event", "cfs.core.dequeue_per_event",
    "cfs.core.pick_per_event", "cfs.core.self_frac",
    "ule.core.enqueue_per_event", "ule.core.pick_per_event",
    "ule.core.self_frac", "cfs.runqueue.sched_slice_per_event",
    "cfs.runqueue.self_frac", "cfs.placement.calls_per_wake",
    "ule.placement.cores_scanned_per_wake", "placement.self_frac",
    "cfs.balance.passes_per_sim_ms", "cfs.balance.useful_frac",
    "cfs.balance.self_frac", "ule.balance.self_frac",
    "cfs.pelt.loads_for_per_event", "cfs.pelt.cpus_folded_per_call",
    "cfs.pelt.updates_per_event", "cfs.pelt.self_frac",
    "cfs.cgroup.self_frac", "sync.ops_per_event", "sync.self_frac",
    "workloads.resumes_per_event", "workloads.self_frac",
    "tracing.digest.ms_per_cell", "experiments.store.txns_per_cell",
    "experiments.store.empty_claim_frac",
    "experiments.store.renewals_per_cell", "experiments.store.retries",
    "experiments.store.crashes", "experiments.store.write_ms_per_cell",
    "experiments.store.read_us_per_cell",
    "experiments.shard.worker_busy_frac",
    "experiments.shard.idle_naps_per_cell", "experiments.shard.spawn_ms",
    "experiments.cellcache.fingerprint_ms",
    "experiments.cellcache.put_ms", "experiments.campaign.render_ms",
    "trace.overhead_frac",
}

#: host-independent per-layer metrics (calls and operations, no time)
COUNT_METRICS = [name for name, unit in metrics.PER_LAYER.items()
                 if unit in ("count", "1/ms") or
                 name == "cfs.balance.useful_frac"]


@pytest.fixture
def reduced_single_core(monkeypatch, tmp_path):
    monkeypatch.setattr(fig5_single_core_perf, "QUICK_APPS", REDUCED_APPS)
    capture = cells.EngineCapture(fig5_single_core_perf,
                                  fig8_multicore_perf)
    capture.install()
    yield capture, tmp_path
    capture.uninstall()


def test_traced_counts_repeat_exactly(reduced_single_core):
    capture, workdir = reduced_single_core
    untraced = cells.run_pass("single_core", 1, workdir, "u", capture)
    runs = [measure.traced_pass("single_core", 1, workdir / str(k),
                                capture, untraced)
            for k in range(2)]
    (first, first_layer), (second, second_layer) = runs
    assert first.digests == second.digests == untraced.digests
    assert first_layer["core.engine.wakes_per_event"] > 0
    for name in COUNT_METRICS:
        assert first_layer[name] == second_layer[name], name


def test_speed_probe_leaves_digests_alone(reduced_single_core):
    capture, workdir = reduced_single_core
    plain = cells.run_pass("single_core", 1, workdir, "plain", capture)
    speed.PROBE.start()
    try:
        probed = cells.run_pass("single_core", 1, workdir, "probed",
                                capture)
    finally:
        speed.PROBE.stop()
    assert probed.digests == plain.digests
    assert not probed.failures
    assert plain.speed == 1.0  # no samples while the probe is off
    assert probed.speed > 0 and probed.ref_wall_s > 0


def test_probe_time_is_kept_off_the_clock():
    probe = speed.SpeedProbe(0.002).start()
    try:
        spent0, clock0, wall0 = probe.spent_s, probe.clock(), \
            time.perf_counter()
        while time.perf_counter() - wall0 < 0.3:
            pass
        spent1, clock1, wall1 = probe.spent_s, probe.clock(), \
            time.perf_counter()
    finally:
        probe.stop()
    assert len(probe.samples) > 10 and spent1 > spent0
    assert abs((wall1 - wall0) - (clock1 - clock0) - (spent1 - spent0)) \
        < 2e-3
    assert probe.factor() == pytest.approx(
        sum(probe.samples) / len(probe.samples) / speed.REF_CHUNK_S)


def test_wrong_expected_digest_counts_as_failed(reduced_single_core):
    capture, workdir = reduced_single_core
    result = cells.run_pass("single_core", 1, workdir, "u", capture)
    golden = json.loads((ROOT / "tests/golden/digests.json").read_text())
    bad = measure.check_digests(1, [result], golden)
    assert measure.count_failures([result], bad)[1:] == (0, {})

    golden["fig5/Apache/cfs"] = "0" * 16
    bad = measure.check_digests(1, [result], golden)
    attempted, failed, samples = measure.count_failures([result], bad)
    assert (attempted, failed) == (len(REDUCED_APPS) * 2, 1)
    assert "fig5/Apache/cfs" in samples
    # the golden store applies to seed 1 only
    assert measure.check_digests(2, [result], golden) == {}


def test_repeat_with_changed_digest_counts_as_failed(reduced_single_core):
    capture, workdir = reduced_single_core
    first = cells.run_pass("single_core", 1, workdir, "a", capture)
    again = cells.run_pass("single_core", 1, workdir, "b", capture)
    again.digests["fig5/EP/ule"] = "f" * 16
    bad = measure.check_digests(1, [first, again], {})
    assert list(bad) == [1] and list(bad[1]) == ["fig5/EP/ule"]


def test_metric_names():
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    names = list(metrics.END_TO_END) + list(metrics.PER_LAYER)
    assert all(pattern.fullmatch(name) and len(name) <= 64
               for name in names)
    assert set(metrics.END_TO_END) == SPEC_END_TO_END
    assert set(metrics.PER_LAYER) == SPEC_PER_LAYER
    assert set(run.WORKLOADS) == {"multicore32", "single_core",
                                  "campaign_sweep"}


def test_child_env_clears_toggles_and_caches_bytecode(monkeypatch,
                                                     tmp_path):
    monkeypatch.setenv("REPRO_FAST", "1")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    env = run.child_env(tmp_path)
    assert not any(name.startswith("REPRO_") for name in env)
    assert "PYTHONDONTWRITEBYTECODE" not in env
    assert env["PYTHONPYCACHEPREFIX"] == str(tmp_path / "pycache")
    assert env["TMPDIR"] == str(tmp_path)


def test_sweep_cells_follow_the_seed():
    assert cells.sweep_cells(3, 50) == cells.sweep_cells(3, 50)
    assert cells.sweep_cells(3, 50) != cells.sweep_cells(4, 50)


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "single_core",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
