"""The benchmark's workloads: cell lists generated from the workload
seed, and one pass over every cell of a workload.

A *pass* runs every cell of a workload once, on the path a user runs:

* ``multicore32`` — the Fig. 8 cells MG, Apache and Rocksdb under CFS
  and ULE, each through ``fig8_multicore_perf.run_app`` on the 32-core
  Opteron with kernel noise;
* ``single_core`` — the Fig. 5 quick matrix (13 apps x {cfs, ule}) on
  one CPU through ``run_campaign``, with a throwaway cell cache and
  checkpoint, followed by report rendering (what
  ``python -m repro.experiments run fig5`` does);
* ``campaign_sweep`` — thousands of tiny 2-CPU spinner cells through
  ``shard_map`` with two workers into a fresh store, then the same
  sweep resumed from the finished store.

Every cell's schedule digest is recorded so the caller can check it
against the golden store, across repeated passes, and between the
untraced and traced passes.  Nothing here edits the program: engines
are captured by wrapping the ``make_engine`` a driver module calls.
"""

from __future__ import annotations

import os
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.clock import usec
from repro.experiments import base, campaign, fig5_single_core_perf, \
    fig8_multicore_perf, shard
from repro.experiments.cellcache import CellCache
from repro.experiments.parallel import FailedCell
from repro.tracing import digest as digest_mod
from repro.workloads.spinner import SpinnerWorkload

import speed
from speed import clock

MULTICORE_APPS = ("MG", "Apache", "Rocksdb")
SCHEDULERS = ("cfs", "ule")

#: campaign_sweep sizing: cells per sweep, simulated time per cell,
#: shard workers (fixed, so the figure does not follow the host's
#: core count)
SWEEP_CELLS = 4000
SWEEP_SIM_US = 3000
SWEEP_WORKERS = 2

#: sweep cells recomputed in-process after the first pass to check
#: the store round trip against direct execution
SWEEP_SPOT_CHECKS = 16

#: environment variable naming the directory where the sweep's cell
#: function logs per-cell host times (one file per worker process)
CELL_LOG_ENV = "PERFBENCH_CELL_LOG"


def multicore32_cells(seed: int) -> list[dict]:
    return [{"app": app, "sched": sched, "seed": seed}
            for app in MULTICORE_APPS for sched in SCHEDULERS]


def single_core_cells(seed: int) -> list[tuple]:
    """The (app, sched, seed) cells ``fig5.run(quick=True)`` builds."""
    return [(app, sched, seed)
            for app in fig5_single_core_perf.QUICK_APPS
            for sched in SCHEDULERS]


def sweep_cells(seed: int, count: int = SWEEP_CELLS) -> list[dict]:
    """``count`` distinct spinner cells drawn from ``seed``."""
    rng = random.Random(seed)
    return [{"i": i, "sched": rng.choice(SCHEDULERS),
             "threads": rng.randint(2, 6),
             "pinned": rng.random() < 0.25,
             "sim_us": SWEEP_SIM_US,
             "seed": rng.randrange(1, 1 << 31)}
            for i in range(count)]


def cell_id(workload: str, cell) -> str:
    """Stable name of a cell; fig5 cells use the golden-store key."""
    if workload == "multicore32":
        return f"fig8/{cell['app']}/{cell['sched']}"
    if workload == "single_core":
        return f"fig5/{cell[0]}/{cell[1]}"
    return f"sweep/{cell['i']}"


def run_spinner_cell(cell: dict) -> dict:
    """One campaign_sweep cell: spinners on a 2-CPU SMP machine for
    ``sim_us`` of simulated time.  The result is plain, host-independent
    data — the store persists and digests it."""
    engine = base.make_engine(cell["sched"], ncpus=2, seed=cell["seed"])
    SpinnerWorkload(count=cell["threads"],
                    pin_cpu=0 if cell["pinned"] else None).launch(engine)
    reason = engine.run(until=usec(cell["sim_us"]))
    if reason != "deadline":
        raise RuntimeError(f"spinner cell {cell['i']} stopped early: "
                           f"{reason}")
    return {"digest": digest_mod.schedule_digest(engine),
            "events": engine.events_processed,
            "sim_ns": engine.now,
            "migrations": int(engine.metrics.counter("engine.migrations"))}


#: ``(pid, fd)`` of this process's cell log
_CELL_LOG_FD = None


def logged_spinner_cell(cell: dict) -> dict:
    """The sweep's cell function: :func:`run_spinner_cell`, plus one
    ``<start_s> <end_s> <warm> <probe_s> <probe_n>`` line per cell
    appended to this process's log under ``$PERFBENCH_CELL_LOG``.
    Times are on this worker's speed-probe clock; the last two fields
    are the running sum and count of its probe samples.  Host times go
    to the side log only, never into the stored result."""
    global _CELL_LOG_FD
    log_dir = os.environ.get(CELL_LOG_ENV)
    if not log_dir:
        return run_spinner_cell(cell)
    probe = speed.process_probe()
    start = probe.clock()
    result = run_spinner_cell(cell)
    end = probe.clock()
    if _CELL_LOG_FD is None or _CELL_LOG_FD[0] != os.getpid():
        path = Path(log_dir) / f"cells-{os.getpid()}.log"
        _CELL_LOG_FD = (os.getpid(), os.open(
            path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644))
    warm = int(base._warm_enabled())
    os.write(_CELL_LOG_FD[1],
             f"{start:.9f} {end:.9f} {warm} {probe.total_s:.9f} "
             f"{len(probe.samples)}\n".encode())
    return result


def close_cell_log() -> None:
    global _CELL_LOG_FD
    if _CELL_LOG_FD is not None and _CELL_LOG_FD[0] == os.getpid():
        os.close(_CELL_LOG_FD[1])
    _CELL_LOG_FD = None


@dataclass
class EngineTotals:
    """Host-independent totals over the engines of a pass, by
    scheduler (``events``/``sim_ns``/``migrations``/``pickcpu_scans``)."""

    by_sched: dict = field(default_factory=dict)

    def add(self, sched: str, events: int, sim_ns: int,
            migrations: int = 0, scans: int = 0) -> None:
        row = self.by_sched.setdefault(
            sched, {"cells": 0, "events": 0, "sim_ns": 0,
                    "migrations": 0, "pickcpu_scans": 0})
        row["cells"] += 1
        row["events"] += events
        row["sim_ns"] += sim_ns
        row["migrations"] += migrations
        row["pickcpu_scans"] += scans

    def add_engine(self, sched: str, engine) -> None:
        scans = 0
        cost = getattr(getattr(engine.scheduler, "tunables", None),
                       "pickcpu_scan_cost_ns", 0)
        if cost:
            # the public overhead counter, in units of one core scan
            scans = int(engine.metrics.counter("sched.overhead_ns")
                        // cost)
        self.add(sched, engine.events_processed, engine.now,
                 int(engine.metrics.counter("engine.migrations")), scans)

    def total(self, key: str, sched: str = None) -> int:
        rows = ([self.by_sched.get(sched, {})] if sched
                else self.by_sched.values())
        return sum(row.get(key, 0) for row in rows)


@dataclass
class PassResult:
    """One pass over every cell of a workload."""

    wall_s: float = 0.0
    #: per-cell host seconds, in cell order
    cell_s: list = field(default_factory=list)
    #: cell id -> schedule digest
    digests: dict = field(default_factory=dict)
    #: cell id -> failure reason (raised, deadline, bad digest)
    failures: dict = field(default_factory=dict)
    attempted: int = 0
    engines: EngineTotals = field(default_factory=EngineTotals)
    #: campaign_sweep: the resume phase's host seconds, and whether
    #: warm engines were on in the workers
    resume_s: float = 0.0
    worker_warm: bool = None
    #: host slowness over the pass relative to the reference speed
    #: (see speed.py), set by :func:`run_pass`; 1.0 when the probe
    #: took no samples
    speed: float = None

    @property
    def ref_wall_s(self) -> float:
        """``wall_s`` at the reference host speed."""
        return self.wall_s / self.speed

    @property
    def ref_cell_s(self) -> list:
        """``cell_s`` at the reference host speed."""
        return [t / self.speed for t in self.cell_s]


class EngineCapture:
    """Wrap the ``make_engine`` a driver module calls so the benchmark
    sees each cell's engine (fig8's ``run_app`` returns no digest)."""

    def __init__(self, *modules):
        self.modules = modules
        self.engines: list = []
        self._orig = {}

    def install(self) -> None:
        for module in self.modules:
            orig = self._orig[module] = module.make_engine

            def make_engine(*args, _orig=orig, **kwargs):
                engine = _orig(*args, **kwargs)
                self.engines.append(engine)
                return engine

            module.make_engine = make_engine

    def uninstall(self) -> None:
        for module, orig in self._orig.items():
            module.make_engine = orig
        self._orig.clear()

    def take(self):
        """The last captured engine, releasing every reference."""
        engine = self.engines[-1] if self.engines else None
        self.engines.clear()
        return engine


def _run_multicore32(seed: int, capture: EngineCapture,
                     on_cell=None) -> PassResult:
    out = PassResult()
    start = clock()
    for cell in multicore32_cells(seed):
        cid = cell_id("multicore32", cell)
        out.attempted += 1
        t0 = clock()
        try:
            with on_cell() if on_cell is not None else nullcontext():
                fig8_multicore_perf.run_app(cell["app"], cell["sched"],
                                            seed=cell["seed"])
        except Exception as exc:  # a failed cell is counted, not fatal
            out.failures[cid] = f"{type(exc).__name__}: {exc}"
            capture.take()
            continue
        engine = capture.take()
        out.digests[cid] = digest_mod.schedule_digest(engine)
        out.cell_s.append(clock() - t0)
        out.engines.add_engine(cell["sched"], engine)
        del engine
    out.wall_s = clock() - start
    return out


def _run_single_core(seed: int, capture: EngineCapture, workdir: Path,
                     tag: str, on_cell=None) -> PassResult:
    out = PassResult()
    orig_run_cell = fig5_single_core_perf._run_cell

    def run_cell(cell):
        cid = cell_id("single_core", cell)
        out.attempted += 1
        t0 = clock()
        try:
            with on_cell() if on_cell is not None else nullcontext():
                result = orig_run_cell(cell)
        except Exception as exc:
            out.failures[cid] = f"{type(exc).__name__}: {exc}"
            capture.take()
            raise
        out.cell_s.append(clock() - t0)
        out.digests[cid] = result["digest"]
        out.engines.add_engine(cell[1], capture.take())
        return result

    fig5_single_core_perf._run_cell = run_cell
    try:
        start = clock()
        cache = CellCache(workdir / f"cache-{tag}")
        cells, results = campaign.run_campaign(
            ["fig5"], quick=True, seed=seed, cache=cache,
            checkpoint_path=workdir / f"checkpoint-{tag}.json")
        report = campaign.render_report(cells, results)
        out.wall_s = clock() - start
    finally:
        fig5_single_core_perf._run_cell = orig_run_cell
    expected = single_core_cells(seed)
    if any(isinstance(r, FailedCell) for r in results) \
            or "fig5" not in report:
        for cell in expected:
            cid = cell_id("single_core", cell)
            if cid not in out.digests:
                out.failures.setdefault(cid, "campaign cell failed")
        out.attempted = max(out.attempted, len(expected))
    return out


def _read_cell_log(log_dir: Path) -> tuple[list, bool, float]:
    """Per-cell host seconds from the workers' logs: the interval
    from one cell's start to the next cell's start in the same worker
    (so it carries the store round trip and IPC), and the last cell's
    own run time.  Also whether warm engines were on, and the
    workers' host slowness from their probe samples (None without
    any)."""
    cell_s = []
    warm = None
    probe_s = probe_n = 0
    for path in sorted(log_dir.glob("cells-*.log")):
        rows = [line.split() for line in path.read_text().splitlines()
                if line.strip()]
        for k, (start, end, flag, _, _) in enumerate(rows):
            stop = float(rows[k + 1][0]) if k + 1 < len(rows) \
                else float(end)
            cell_s.append(stop - float(start))
            warm = bool(int(flag)) if warm is None else warm
        if rows:
            probe_s += float(rows[-1][3])
            probe_n += int(rows[-1][4])
        path.unlink()
    slowness = (probe_s / probe_n / speed.REF_CHUNK_S) if probe_n \
        else None
    return cell_s, warm, slowness


def _run_sweep(seed: int, workdir: Path, tag: str,
               on_resume=None) -> PassResult:
    out = PassResult()
    cells = sweep_cells(seed)
    log_dir = workdir / f"cell-log-{tag}"
    log_dir.mkdir(parents=True, exist_ok=True)
    store_dir = workdir / f"store-{tag}"
    os.environ[CELL_LOG_ENV] = str(log_dir)
    try:
        start = clock()
        first = shard.shard_map(logged_spinner_cell, cells,
                                SWEEP_WORKERS, store_dir=store_dir)
        mid = clock()
        if on_resume is not None:
            on_resume()
        resumed = shard.shard_map(logged_spinner_cell, cells,
                                  SWEEP_WORKERS, store_dir=store_dir)
        out.wall_s = clock() - start
        out.resume_s = out.wall_s - (mid - start)
    finally:
        os.environ.pop(CELL_LOG_ENV, None)
        close_cell_log()
    out.cell_s, out.worker_warm, out.speed = _read_cell_log(log_dir)
    out.attempted = len(cells)
    for cell, result, again in zip(cells, first, resumed):
        cid = cell_id("campaign_sweep", cell)
        if isinstance(result, FailedCell):
            out.failures[cid] = result.render()
            continue
        if again != result:
            out.failures[cid] = "resumed result differs from the sweep"
            continue
        out.digests[cid] = result["digest"]
        out.engines.add(cell["sched"], result["events"], result["sim_ns"],
                        result["migrations"])
    return out


def run_pass(workload: str, seed: int, workdir: Path, tag: str,
             capture: EngineCapture, on_cell=None,
             on_resume=None) -> PassResult:
    """One pass over every cell of ``workload``.  Traced passes give
    ``on_cell``, a context-manager factory entered around each
    in-process cell, and ``on_resume``, called between the sweep and
    its resume.  The pass's ``speed`` comes from the samples
    :data:`speed.PROBE` takes during it, or for the sweep from the
    shard workers' own probes."""
    mark = speed.PROBE.mark()
    if workload == "multicore32":
        out = _run_multicore32(seed, capture, on_cell)
    elif workload == "single_core":
        out = _run_single_core(seed, capture, workdir, tag, on_cell)
    elif workload == "campaign_sweep":
        out = _run_sweep(seed, workdir, tag, on_resume)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if out.speed is None:
        out.speed = speed.PROBE.factor(mark)
    return out


def spot_check_sweep(seed: int, digests: dict,
                     count: int = SWEEP_SPOT_CHECKS) -> dict:
    """Recompute the first ``count`` sweep cells in-process and return
    ``{cell id: reason}`` for each whose stored digest differs."""
    bad = {}
    for cell in sweep_cells(seed)[:count]:
        cid = cell_id("campaign_sweep", cell)
        if cid not in digests:
            continue
        got = run_spinner_cell(cell)["digest"]
        if got != digests[cid]:
            bad[cid] = (f"stored digest {digests[cid]} != in-process "
                        f"{got}")
    return bad
