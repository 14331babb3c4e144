"""Span tracer and per-layer instrumentation for the traced run.

The tracer wraps the public functions at each module boundary of the
simulator *from outside*: it replaces class and module attributes with
wrappers that record a span (name ``<layer>:<function>``, start, end,
parent span) and count the call.  Nothing in ``src/`` is edited, no
``Engine.tracer`` hook is registered and ``REPRO_PROFILE`` stays unset,
so a traced run executes the same run loop as an untraced one.

Wrappers must be installed before any engine is built: the engine
hoists bound event-queue methods at construction, and a hoisted
method bound before installation would bypass its wrapper.

Per name the tracer keeps ``[calls, total_ns, self_ns]``, where self
time is the span's duration minus the time covered by its child
spans.  The first :data:`SPAN_CAP` spans of a process are kept whole
for the dump; later spans only feed the per-name totals.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.process
import os
import pkgutil
import signal
import threading
from pathlib import Path
from time import perf_counter_ns

#: spans kept whole per process (later spans only feed the totals)
SPAN_CAP = 50_000

#: environment variable naming the directory traced shard workers
#: write their span dumps to
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, span_cap: int = SPAN_CAP):
        #: open spans of the main thread: ``[span id, child_ns]``
        self.stack: list = []
        #: name -> ``[calls, total_ns, self_ns]``
        self.totals: dict = {}
        #: kept spans: ``(id, parent id, name, start_ns, end_ns)``
        self.spans: list = []
        #: named counts observed at the boundaries
        self.counters: dict = {}
        self.span_cap = span_cap
        self._next_id = [0]
        self._main = threading.get_ident()
        self._patches: list = []

    # ------------------------------------------------------------ record

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def reset(self) -> None:
        """Forget everything recorded (a forked worker starts from the
        parent's state).  Clears in place: wrappers hold references."""
        self.stack.clear()
        self.spans.clear()
        self.counters.clear()
        for rec in self.totals.values():
            rec[0] = rec[1] = rec[2] = 0
        self._next_id[0] = 0
        self._main = threading.get_ident()

    def wrap(self, name: str, fn, observe=None, threaded: bool = False):
        """``fn`` wrapped in a span named ``name``.  ``observe(args,
        result)`` runs after a successful call; ``threaded`` wrappers
        may be called off the main thread, where they only count."""
        stack = self.stack
        spans = self.spans
        next_id = self._next_id
        cap = self.span_cap
        rec = self.totals.setdefault(name, [0, 0, 0])
        tracer = self

        def wrapper(*args, **kwargs):
            if threaded and threading.get_ident() != tracer._main:
                t0 = perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = perf_counter_ns() - t0
                    rec[0] += 1
                    rec[1] += dur
                    rec[2] += dur
                if observe is not None:
                    observe(args, result)
                return result
            sid = next_id[0]
            next_id[0] = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if sid < cap:
                    spans.append((sid, parent, name, t0, t1))
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def span(self, name: str):
        """A context manager recording one span named ``name``."""
        return _SpanContext(self, name)

    # ------------------------------------------------------------- patch

    def patch(self, owner, attr: str, name: str, **kw) -> bool:
        """Replace ``owner.attr`` (a class's own function, or a module
        function) with its span wrapper; False when absent."""
        if isinstance(owner, type):
            orig = owner.__dict__.get(attr)
            if not callable(orig) or isinstance(orig, (staticmethod,
                                                       classmethod)):
                return False
        else:
            orig = getattr(owner, attr, None)
            if orig is None:
                return False
        wrapper = functools.wraps(orig)(self.wrap(name, orig, **kw))
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))
        return True

    def replace(self, owner, attr: str, value) -> None:
        """Replace ``owner.attr`` with ``value``, undone by
        :meth:`uninstall`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -------------------------------------------------------------- dump

    def snapshot(self, **extra) -> dict:
        """This process's totals, counters and kept spans as JSON
        data."""
        return {"pid": os.getpid(),
                "totals": {name: list(rec)
                           for name, rec in self.totals.items()
                           if rec[0]},
                "counters": dict(self.counters),
                "spans": [list(span) for span in self.spans],
                "spans_dropped": max(0, self._next_id[0] - self.span_cap),
                **extra}


class _SpanContext:
    __slots__ = ("_tracer", "_name")

    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        tracer = self._tracer
        sid = tracer._next_id[0]
        tracer._next_id[0] = sid + 1
        parent = tracer.stack[-1][0] if tracer.stack else -1
        tracer.stack.append([sid, 0, parent, perf_counter_ns()])
        return self

    def __exit__(self, *exc):
        tracer = self._tracer
        t1 = perf_counter_ns()
        sid, child, parent, t0 = tracer.stack.pop()
        dur = t1 - t0
        rec = tracer.totals.setdefault(self._name, [0, 0, 0])
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - child
        if tracer.stack:
            tracer.stack[-1][1] += dur
        if sid < tracer.span_cap:
            tracer.spans.append((sid, parent, self._name, t0, t1))
        return False


# ---------------------------------------------------------------------
# instrumentation of the simulator's module boundaries
# ---------------------------------------------------------------------

def _import_all(package) -> list:
    """Import every submodule of ``package`` (so subclasses defined
    there can be wrapped) and return the modules."""
    modules = [package]
    for info in pkgutil.iter_modules(package.__path__):
        modules.append(importlib.import_module(
            f"{package.__name__}.{info.name}"))
    return modules


def _subclasses(cls) -> list:
    seen, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return seen


def _patch_methods(tracer: Tracer, cls, layer: str, names, **kw):
    for attr in names:
        tracer.patch(cls, attr, f"{layer}:{cls.__name__}.{attr}", **kw)


def _patch_functions(tracer: Tracer, module, layer: str, names,
                     also=(), **kw):
    """Wrap module functions; ``also`` lists modules that imported the
    same functions by name and must see the wrapper too."""
    for attr in names:
        if tracer.patch(module, attr, f"{layer}:{attr}", **kw):
            wrapper = getattr(module, attr)
            for other in also:
                if hasattr(other, attr):
                    tracer.replace(other, attr, wrapper)


QUEUE_METHODS = ("post", "repost", "make_reusable", "pop", "pop_before",
                 "peek_time", "peek_entry", "pop_head", "clear")
CFS_CORE = ("enqueue_task", "dequeue_task", "pick_next", "put_prev",
            "yield_task", "update_curr", "check_preempt_wakeup",
            "task_fork", "task_dead", "task_waking", "task_nice_changed",
            "needs_tick", "select_task_rq", "_balance_tick")
ULE_CORE = ("enqueue_task", "dequeue_task", "pick_next", "yield_task",
            "update_curr", "check_preempt_wakeup", "task_fork",
            "task_dead", "task_waking", "task_nice_changed", "needs_tick",
            "select_task_rq", "_periodic_balance")
CFS_RQ = ("enqueue_entity", "dequeue_entity", "reweight_entity",
          "pick_first", "set_next", "put_prev", "update_curr",
          "update_min_vruntime", "place_entity", "sched_slice")
TIMELINE = ("insert", "remove", "min_value", "second_value")
STORE_READS = ("done_keys", "get_result", "counts", "all_terminal",
               "results", "failures")
STORE_WRITES = ("add_cells", "claim_batch", "mark_started", "renew",
                "renew_many", "reap", "complete", "fail_attempt",
                "prune_except", "clear")


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read.  Call
    before any engine is built."""
    from repro import sync, workloads
    from repro.cfs import balance as cfs_balance
    from repro.cfs import cgroup, pelt, peltbank, rbtree, timeline
    from repro.cfs import core as cfs_core
    from repro.cfs import placement as cfs_placement
    from repro.cfs import runqueue
    from repro.core import actions, events, timerwheel
    from repro.core import engine as engine_mod
    from repro.core.thread import SimThread
    from repro.experiments import campaign, cellcache, checkpoint, \
        fig5_single_core_perf, parallel, shard, store
    from repro.tracing import digest
    from repro.workloads.base import Workload
    from repro.ule import balance as ule_balance
    from repro.ule import core as ule_core
    from repro.ule import placement as ule_placement

    Engine = engine_mod.Engine
    count = tracer.count

    # core.engine: the run loop, wakeups, migrations, build and reset
    def on_wake(args, _result):
        count(f"wakes.{type(args[0].scheduler).__name__}")

    tracer.patch(Engine, "run", "core.engine:Engine.run")
    tracer.patch(Engine, "wake_thread", "core.engine:Engine.wake_thread",
                 observe=on_wake)
    tracer.patch(Engine, "migrate_thread",
                 "core.engine:Engine.migrate_thread")
    tracer.patch(Engine, "__init__", "core.engine:build")
    tracer.patch(Engine, "reset", "core.engine:reset")

    # core.events + core.timerwheel
    _patch_methods(tracer, timerwheel.TimingWheelQueue, "core.timerwheel",
                   QUEUE_METHODS)
    _patch_methods(tracer, events.EventQueue, "core.events", QUEUE_METHODS)
    _patch_methods(tracer, events.EventLane, "core.events",
                   ("repost", "make_reusable", "peek", "pop_head",
                    "epoch_cores", "clear"))
    tracer.patch(events.Event, "cancel", "core.events:Event.cancel")

    # tick: the fused per-core hooks, the generic tick, task_tick
    for cls in (cfs_core.CfsScheduler, ule_core.UleScheduler):
        hook_name = f"tick:{cls.__name__}.tick_hook"
        orig_make = cls.__dict__["make_tick_hook"]

        def make_tick_hook(self, core, _orig=orig_make, _name=hook_name):
            hook = _orig(self, core)
            return None if hook is None else tracer.wrap(_name, hook)

        tracer.replace(cls, "make_tick_hook", make_tick_hook)
        _patch_methods(tracer, cls, "tick",
                       ("task_tick", "idle_tick", "epoch_prefold"))
    tracer.patch(Engine, "_tick", "tick:Engine._tick")

    # scheduler cores
    _patch_methods(tracer, cfs_core.CfsScheduler, "cfs.core", CFS_CORE)
    _patch_methods(tracer, ule_core.UleScheduler, "ule.core", ULE_CORE)

    # cfs.runqueue (+ the rbtree / flat timeline behind it)
    _patch_methods(tracer, runqueue.CfsRq, "cfs.runqueue", CFS_RQ)
    _patch_methods(tracer, rbtree.RBTree, "cfs.rbtree", TIMELINE)
    _patch_methods(tracer, timeline.FlatTimeline, "cfs.timeline", TIMELINE)

    # placement
    _patch_functions(tracer, cfs_placement, "cfs.placement",
                     ("select_task_rq_fair", "wake_wide",
                      "select_idle_sibling", "find_idlest_cpu",
                      "record_wakee"))
    _patch_functions(tracer, ule_placement, "ule.placement",
                     ("sched_pickcpu",))

    # balancers; a CFS pass is useful when it moved a thread
    def on_balance(_args, moved):
        count("cfs.balance.passes")
        if moved:
            count("cfs.balance.useful_passes")

    _patch_functions(tracer, cfs_balance, "cfs.balance",
                     ("nohz_idle_balance", "periodic_balance",
                      "newidle_balance", "detach_and_move"))
    tracer.patch(cfs_balance, "load_balance", "cfs.balance:load_balance",
                 observe=on_balance)
    _patch_functions(tracer, ule_balance, "ule.balance",
                     ("periodic_balance", "idle_steal"))

    # cfs.pelt + cfs.peltbank (loads_for is the balancer's bank fold)
    def on_loads_for(args, _result):
        count("cfs.pelt.cpus_folded", len(args[1]))

    tracer.patch(cfs_core.CfsScheduler, "loads_for",
                 "cfs.pelt:CfsScheduler.loads_for", observe=on_loads_for)
    tracer.patch(cfs_core.CfsScheduler, "cpu_load",
                 "cfs.pelt:CfsScheduler.cpu_load")
    tracer.patch(cfs_core.CfsScheduler, "_build_bank",
                 "cfs.peltbank:CfsScheduler._build_bank")
    _patch_methods(tracer, pelt.LoadAvg, "cfs.pelt", ("update", "peek"))
    _patch_functions(tracer, peltbank, "cfs.peltbank",
                     ("fold_loads", "fold_loads_python", "prewarm_decay"),
                     also=(cfs_core,))

    # cfs.cgroup
    _patch_methods(tracer, cgroup.TaskGroup, "cfs.cgroup",
                   ("total_load_weight", "group_weight_on",
                    "update_group_weight"))

    # sync: every synchronization action the engine applies
    _import_all(sync)
    for cls in _subclasses(actions.SyncAction):
        tracer.patch(cls, "apply", f"sync:{cls.__name__}.apply")

    # workloads: behaviour resumes, launch, completion checks
    orig_start = SimThread.__dict__["start_behavior"]

    def start_behavior(self):
        orig_start(self)
        if self._send is not None:
            self._send = tracer.wrap("workloads:resume", self._send)

    tracer.replace(SimThread, "start_behavior", start_behavior)
    tracer.patch(SimThread, "next_action", "workloads:first_resume")
    _import_all(workloads)
    for cls in [Workload] + _subclasses(Workload):
        _patch_methods(tracer, cls, "workloads",
                       ("launch", "_do_launch", "done", "performance"))

    # tracing.digest
    tracer.patch(digest, "schedule_digest",
                 "tracing.digest:schedule_digest")

    # experiments: store (sqlite statements counted per connection),
    # shard executor, cell cache, checkpoint, campaign
    def sql(statement: str) -> None:
        head = statement.lstrip()[:6].upper()
        count("store.sql")
        if head.startswith("BEGIN"):
            count("store.txns")

    def on_open(_args, conn):
        conn.set_trace_callback(sql)

    def on_claim(_args, batch):
        count("store.claims")
        if not batch:
            count("store.empty_claims")

    tracer.patch(store.ShardStore, "_open_db",
                 "experiments.store:ShardStore.open", observe=on_open,
                 threaded=True)
    tracer.patch(store.ShardStore, "claim_batch",
                 "experiments.store:ShardStore.claim_batch",
                 observe=on_claim, threaded=True)
    _patch_methods(tracer, store.ShardStore, "experiments.store",
                   STORE_READS + tuple(a for a in STORE_WRITES
                                       if a != "claim_batch"),
                   threaded=True)
    tracer.patch(shard, "_supervise", "experiments.shard:_supervise")
    naps = _NapCounter(tracer, shard.time)
    tracer.replace(shard, "time", naps)
    spawn_log = tracer.counters.setdefault("shard.spawns", [])
    orig_start_proc = multiprocessing.process.BaseProcess.start

    def start_process(self):
        t0 = perf_counter_ns()
        orig_start_proc(self)
        spawn_log.append([self.pid, t0])

    tracer.replace(multiprocessing.process.BaseProcess, "start",
                   start_process)
    _install_worker_main(tracer, shard)
    _patch_functions(tracer, cellcache, "experiments.cellcache",
                     ("code_fingerprint",), also=(shard,))
    _patch_methods(tracer, cellcache.CellCache, "experiments.cellcache",
                   ("get", "put"))
    _patch_methods(tracer, checkpoint.CampaignCheckpoint,
                   "experiments.checkpoint",
                   ("load", "get", "put", "put_many", "clear"))
    _patch_functions(tracer, parallel, "experiments.parallel",
                     ("cell_map",),
                     also=(campaign, fig5_single_core_perf))
    _patch_functions(tracer, campaign, "experiments.campaign",
                     ("run_campaign", "run_campaign_cell",
                      "render_report"))


class _NapCounter:
    """Stand-in for the ``time`` module inside the shard executor that
    counts idle naps (``time.sleep``) and forwards everything else."""

    def __init__(self, tracer: Tracer, real):
        self._tracer = tracer
        self._real = real

    def sleep(self, seconds):
        self._tracer.count("shard.naps")
        self._real.sleep(seconds)

    def __getattr__(self, name):
        return getattr(self._real, name)


def _install_worker_main(tracer: Tracer, shard) -> None:
    """Trace shard workers: a forked worker forgets the parent's spans,
    records its own under an ``experiments.shard:worker_main`` root,
    and writes them to ``$PERFBENCH_TRACE_DIR`` when it ends — also
    when the supervisor terminates it (SIGTERM)."""
    worker_main = tracer.wrap("experiments.shard:worker_main",
                              shard._worker_main)

    def traced_worker_main(*args, **kwargs):
        tracer.reset()
        entry_ns = perf_counter_ns()

        def on_term(_signum, _frame):
            raise SystemExit(0)

        signal.signal(signal.SIGTERM, on_term)
        try:
            worker_main(*args, **kwargs)
        finally:
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            out_dir = os.environ.get(TRACE_DIR_ENV)
            if out_dir:
                path = Path(out_dir) / f"trace-{os.getpid()}.json"
                path.write_text(json.dumps(tracer.snapshot(
                    role="worker", entry_ns=entry_ns)))

    tracer.replace(shard, "_worker_main", traced_worker_main)


def merge(snapshots) -> tuple[dict, dict]:
    """Per-name totals and counters summed over process snapshots."""
    totals: dict = {}
    counters: dict = {}
    for snap in snapshots:
        for name, (calls, total, self_ns) in snap["totals"].items():
            rec = totals.setdefault(name, [0, 0, 0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_ns
        for name, value in snap["counters"].items():
            if isinstance(value, (int, float)):
                counters[name] = counters.get(name, 0) + value
    return totals, counters
