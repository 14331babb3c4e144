"""Measurement child: one fresh interpreter per measurement.

``run.py`` launches this script with every ``REPRO_*`` variable removed
from the environment and ``PYTHONPATH`` pointing at the checkout's
``src``::

    measure.py --workload W --seed N --seconds S --trace 0|1 \\
               --workdir DIR --out FILE [--dump FILE]

``--trace 0`` makes untraced passes over the workload until
``--seconds`` have passed (at least two, so digests can be compared
across repeats).  ``--trace 1`` makes one untraced pass, installs
the span wrappers, and makes one traced pass.  Both write a JSON
summary to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import sqlite3
import sys
import time
from pathlib import Path

import cells
import metrics
import spans
from speed import PROBE
from repro.core.engine import Engine
from repro.core.topology import single_core
from repro.experiments import base, cellcache, fig5_single_core_perf, \
    fig8_multicore_perf
from repro.sched import scheduler_factory

MIN_PASSES = 2

def resolved_defaults() -> dict:
    """The program's defaults as this interpreter resolves them, so a
    flipped default shows up as a configuration change."""
    engine = Engine(single_core(), scheduler_factory("cfs"))
    return {
        "engine_fast": engine.fast,
        "event_queue": type(engine.events).__name__,
        "tick_lane": engine._lane is not None,
        "warm_engines_in_process": base._warm_enabled(),
        "mp_start_method": multiprocessing.get_start_method(),
        "python": sys.version.split()[0],
    }


def check_digests(seed: int, passes, golden: dict) -> dict:
    """``{pass index: {cell id: reason}}`` for every digest that differs
    from the golden store (seed 1 only) or from the first pass — the
    repeats of an untraced run, or the traced pass of a traced run."""
    bad: dict = {}
    first = passes[0].digests
    for k, result in enumerate(passes):
        for cid, got in result.digests.items():
            if seed == 1 and cid in golden and got != golden[cid]:
                why = f"digest {got} != golden {golden[cid]}"
            elif k and cid in first and got != first[cid]:
                why = f"digest {got} != first pass {first[cid]}"
            else:
                continue
            bad.setdefault(k, {})[cid] = why
    return bad


def count_failures(passes, bad_digests: dict) -> tuple[int, int, dict]:
    attempted = failed = 0
    samples: dict = {}
    for k, result in enumerate(passes):
        reasons = dict(result.failures)
        reasons.update(bad_digests.get(k, {}))
        attempted += result.attempted
        failed += len(reasons)
        for cid, why in list(reasons.items())[:5]:
            samples.setdefault(cid, why)
    return attempted, failed, samples


def _peak_rss_mb(workload: str) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "campaign_sweep":
        # largest reaped worker (ru_maxrss of children is the max)
        peak = max(peak,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def _pass_summary(result) -> dict:
    """One pass's figures at the reference host speed, with the raw
    host time and the speed factor beside them."""
    return {"wall_s": result.ref_wall_s,
            "cell_gmean_ms": metrics.gmean(result.ref_cell_s) * 1e3,
            "raw_wall_s": result.wall_s,
            "speed": result.speed,
            "cells": len(result.cell_s),
            "resume_s": result.resume_s,
            "events": result.engines.total("events")}


def _store_crashes(store_dir: Path) -> int:
    path = store_dir / "cells.sqlite3"
    if not path.exists():
        return 0
    conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        row = conn.execute("SELECT COALESCE(SUM(crashes), 0) "
                           "FROM cells").fetchone()
    finally:
        conn.close()
    return int(row[0])


def _run(args) -> int:
    workdir = Path(args.workdir)
    golden_path = Path("tests/golden/digests.json")
    golden = json.loads(golden_path.read_text())
    capture = cells.EngineCapture(fig5_single_core_perf,
                                  fig8_multicore_perf)
    capture.install()
    config = resolved_defaults()
    PROBE.start()
    try:
        return _measure(args, workdir, golden, capture, config)
    finally:
        PROBE.stop()


def _measure(args, workdir: Path, golden: dict, capture,
             config: dict) -> int:
    passes = []
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        passes.append(cells.run_pass(args.workload, args.seed, workdir,
                                     f"u{len(passes)}", capture))
        if len(passes) == MIN_PASSES:
            # read at a fixed pass count, so the figure does not grow
            # with the number of passes the host had time for
            peak_rss_mb = _peak_rss_mb(args.workload)
        if args.trace or (len(passes) >= MIN_PASSES and
                          time.perf_counter() - start >= args.seconds):
            break
    if args.workload == "campaign_sweep":
        config["warm_engines_in_workers"] = passes[0].worker_warm
        passes[0].failures.update(
            cells.spot_check_sweep(args.seed, passes[0].digests))
    out = {"workload": args.workload, "seed": args.seed,
           "config": config}
    if args.trace:
        traced, layer = traced_pass(args.workload, args.seed, workdir,
                                    capture, passes[0], args.dump)
        out["metrics"] = layer
        passes.append(traced)
    else:
        out["peak_rss_mb"] = peak_rss_mb
    bad = check_digests(args.seed, passes, golden)
    attempted, failed, samples = count_failures(passes, bad)
    golden_checked = sorted(cid for cid in passes[0].digests
                            if args.seed == 1 and cid in golden)
    out.update(passes=[_pass_summary(p) for p in passes],
               attempted=attempted, failed=failed,
               failure_samples=samples, golden_checked=golden_checked)
    Path(args.out).write_text(json.dumps(out))
    return 0


def traced_pass(workload: str, seed: int, workdir: Path, capture,
                untraced, dump=None):
    """Install the span wrappers and make one traced pass; returns the
    pass and its per-layer metrics (``untraced`` is the untraced pass
    the overhead and host time per event are taken from).  ``dump``
    names the file the spans and per-name totals are written to."""
    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.patch(cells, "run_spinner_cell", "bench:cell")
    # the source fingerprint, cold, as every fresh process pays it
    cellcache._FINGERPRINT = None
    t0 = time.perf_counter()
    cellcache.code_fingerprint()
    fingerprint_ms = (time.perf_counter() - t0) * 1e3

    resume_mark = {"read_ns": 0}

    def mark_resume():
        resume_mark["read_ns"] = tracer.totals.get(
            "experiments.store:ShardStore.get_result", [0, 0, 0])[1]

    trace_dir = workdir / "trace-workers"
    trace_dir.mkdir(parents=True, exist_ok=True)
    os.environ[spans.TRACE_DIR_ENV] = str(trace_dir)
    try:
        with tracer.span("bench:pass"):
            traced = cells.run_pass(
                workload, seed, workdir, "t", capture,
                on_cell=lambda: tracer.span("bench:cell"),
                on_resume=mark_resume)
    finally:
        os.environ.pop(spans.TRACE_DIR_ENV, None)
        tracer.uninstall()
    main = tracer.snapshot(role="main")
    workers = [json.loads(p.read_text())
               for p in sorted(trace_dir.glob("trace-*.json"))]
    totals, counters = spans.merge([main] + workers)
    resume_read_ns = 0
    if workload == "campaign_sweep":
        resume_read_ns = tracer.totals.get(
            "experiments.store:ShardStore.get_result",
            [0, 0, 0])[1] - resume_mark["read_ns"]
    layer = metrics.layer_metrics(
        totals, counters, traced.engines, traced.attempted,
        untraced_wall_s=untraced.ref_wall_s,
        traced_wall_s=traced.ref_wall_s,
        untraced_cell_s=sum(untraced.ref_cell_s),
        untraced_events=untraced.engines.total("events"),
        fingerprint_ms=fingerprint_ms,
        store_crashes=_store_crashes(workdir / "store-t"),
        resume_read_ns=resume_read_ns,
        worker_snaps=workers,
        spawn_log=main["counters"].get("shard.spawns", []))
    if dump is not None:
        data = {"workload": workload, "seed": seed,
                "span_fields": ["id", "parent", "name", "start_ns",
                                "end_ns"],
                "totals_fields": ["calls", "total_ns", "self_ns"],
                "metrics": layer, "totals": totals,
                "counters": counters,
                "processes": [main] + workers}
        Path(dump).write_text(json.dumps(data))
    return traced, layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="measure.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out")
    parser.add_argument("--dump")
    args = parser.parse_args(argv)
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
