"""Fig. 8 — performance of ULE relative to CFS on the 32-core machine
(§6.3).

Every application runs on the full Opteron topology under each
scheduler, with per-CPU kernel-thread noise running in the background
(the paper attributes CFS's HPC misplacements to reactions to exactly
this kind of micro load).

Paper claims:

* average difference small (+2.75 % for ULE);
* **MG +73 %** (FT and UA also clearly positive): ULE places one
  thread per core and never moves them; CFS occasionally puts two
  spin-barrier threads on one core, delaying every iteration;
* **sysbench negative**: ULE's ``sched_pickcpu`` scans up to all cores
  three times per wakeup — up to 13 % of all cycles;
* hackbench: both schedulers cope with tens of thousands of threads
  (ULE overhead 1 % vs CFS 0.3 %).
"""

from __future__ import annotations

import gc

from ..analysis.report import render_bar_chart
from ..analysis.stats import percent_diff
from ..core.clock import msec, sec, usec
from ..workloads.hackbench import HackbenchWorkload
from ..workloads.noise import KernelNoiseWorkload
from ..workloads.registry import FIGURE5_APPS
from ..workloads.sysbench import SysbenchWorkload
from .base import ExperimentResult, make_engine, run_workload

CLAIM = ("multicore: ULE ~= CFS on average (+2.75%), MG/FT/UA much "
         "faster on ULE (placement), sysbench slower on ULE (pickcpu "
         "scan overhead)")

CTX_SWITCH_COST_NS = usec(15)
#: modelled cost of examining one core in ULE's sched_pickcpu
PICKCPU_SCAN_COST_NS = usec(8)
TIMEOUT_NS = sec(200)
NCPUS = 32

QUICK_APPS = ["Gzip", "7zip", "scimark2-(1)", "Apache", "EP", "FT",
              "MG", "UA", "CG", "Sysbench", "Rocksdb", "blackscholes",
              "ferret", "streamcluster", "Hackb-10"]


def _sysbench_multicore() -> SysbenchWorkload:
    """sysbench sized for 32 cores: many threads, short waits, MySQL
    lock contention — a wakeup-heavy workload (~25k wakeups/s)."""
    return SysbenchWorkload(nthreads=256, wait_ns=msec(10),
                            transactions_per_thread=400,
                            init_per_thread_ns=msec(2),
                            lock_fraction=0.25)


def _figure8_factory(name: str):
    if name == "Sysbench":
        return _sysbench_multicore
    if name == "Hackb-800":
        return lambda: HackbenchWorkload(groups=20, fan=20, loops=10)
    if name == "Hackb-10":
        return lambda: HackbenchWorkload(groups=1, fan=5, loops=40)
    return FIGURE5_APPS[name]


def run_app(name: str, sched: str, seed: int = 1) -> dict:
    """Run one app on the 32-core machine with ambient kernel noise."""
    # A finished 32-core engine is a few MB of cyclic garbage that
    # only a full collection frees, and when that runs depends on
    # unrelated allocation counts: a sweep could hold anywhere from one
    # to a dozen dead engines.  Collecting here (~5-8 ms against ~1 s
    # per cell) keeps it at one and makes peak memory repeatable.
    gc.collect()
    sched_options = {}
    if sched == "ule":
        sched_options["pickcpu_scan_cost_ns"] = PICKCPU_SCAN_COST_NS
    engine = make_engine(sched, ncpus=NCPUS, seed=seed,
                         ctx_switch_cost_ns=CTX_SWITCH_COST_NS,
                         **sched_options)
    KernelNoiseWorkload(tail_prob=0.005).launch(engine, at=0)
    workload = _figure8_factory(name)()
    reason = run_workload(engine, workload, TIMEOUT_NS)
    if not workload.done(engine) and reason == "deadline":
        raise RuntimeError(f"{name} on {sched} hit the deadline")
    busy = sum(c.busy_ns for c in engine.machine.cores)
    overhead = engine.metrics.counter("sched.overhead_ns")
    return {
        "perf": workload.performance(engine),
        "overhead_pct": 100.0 * overhead / max(1, busy),
        "elapsed_ns": engine.now,
    }


def run(quick: bool = True, seed: int = 1) -> ExperimentResult:
    """Run this experiment and return its result (see module doc)."""
    result = ExperimentResult("fig8", CLAIM)
    apps = QUICK_APPS if quick else (list(FIGURE5_APPS)
                                     + ["Hackb-800", "Hackb-10"])
    diffs = []
    for name in apps:
        cfs = run_app(name, "cfs", seed=seed)
        ule = run_app(name, "ule", seed=seed)
        diff = percent_diff(ule["perf"], cfs["perf"])
        diffs.append(diff)
        result.row(app=name, perf_cfs=round(cfs["perf"], 4),
                   perf_ule=round(ule["perf"], 4),
                   diff_pct=round(diff, 1),
                   ule_overhead_pct=round(ule["overhead_pct"], 2),
                   cfs_overhead_pct=round(cfs["overhead_pct"], 2))
    average = sum(diffs) / len(diffs)
    result.data["average_diff_pct"] = average
    result.data["diff_by_app"] = {r["app"]: r["diff_pct"]
                                  for r in result.rows}

    chart = render_bar_chart([r["app"] for r in result.rows],
                             [r["diff_pct"] for r in result.rows],
                             title="Fig. 8: ULE perf vs CFS, 32 cores "
                                   "(positive = ULE faster)")
    sysb = result.data["diff_by_app"].get("Sysbench")
    mg = result.data["diff_by_app"].get("MG")
    result.text = "\n".join([
        chart, "",
        f"average difference: {average:+.1f}% (paper: +2.75% for ULE)",
        f"MG: {mg:+.1f}% (paper: +73%); "
        f"Sysbench: {sysb:+.1f}% (paper: negative, scan overhead)",
    ])
    return result
