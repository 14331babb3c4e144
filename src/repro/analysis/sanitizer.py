"""Runtime invariant sanitizer (the dynamic half of schedlint).

Enabled with ``REPRO_SANITIZE=1`` (or ``Engine(..., sanitize=True)`` /
``--sanitize`` on the CLI), the sanitizer re-validates cross-layer
scheduler invariants after *every* dispatched event:

* **thread/queue consistency** — each core's ``nr_runnable`` matches
  the actual runqueue contents and ``total_runnable`` matches the
  global sum; no thread sits on two runqueues or is double-enqueued on
  one; every queued thread is runnable and points back at its core.
* **tickless contract** — the engine's stopped-tick counter matches
  the per-core ``tick_stopped`` flags, and a parked core has no
  running thread and (absent a pending resched) no runnable work and
  ``needs_tick() == False``.
* **CFS** — timeline ordering and leftmost cache, ``nr_running`` /
  ``load_weight`` / hierarchical ``h_nr_running`` bookkeeping, curr
  kept out of the tree, cached ``min_vruntime`` never moving
  backwards, and PELT averages staying in range with weights in sync.
* **ULE** — ``tdq.load`` equal to queued threads plus the running one,
  never negative; the ``_nr_loaded`` steal-threshold counter exact;
  the running thread never also marked queued; per-queue bitmap
  invariants; interactivity history never negative.

A violation raises :class:`~repro.core.errors.SanitizerError` with the
event/time/core context and the last N trace records.  The sanitizer
costs nothing when disabled: the engine's run loop checks one local
``None`` per event.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from ..core.errors import SanitizerError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import Engine
    from ..core.machine import Core

#: absolute slack for float PELT range checks
_EPS = 1e-9


class Sanitizer:
    """Post-event invariant checker attached to one engine."""

    def __init__(self, engine: "Engine", trace_depth: int = 32):
        self.engine = engine
        self.trace_depth = trace_depth
        self.trace: deque = deque(maxlen=trace_depth)
        #: number of post-event validations performed
        self.checks_run = 0
        self._event_label = ""
        self._install_trace_hooks()
        # scheduler-specific checkers resolved once, up front
        self._check_cfs = None
        self._check_ule = None
        #: last observed min_vruntime per rq (rqs are slotted, so the
        #: monotonicity watermark lives here, keyed by id; rqs live for
        #: the whole run so ids are stable)
        self._min_vrun_seen: dict = {}
        self._resolve_scheduler()

    # ------------------------------------------------------------------
    # trace capture
    # ------------------------------------------------------------------

    def _install_trace_hooks(self) -> None:
        tracer = self.engine.tracer
        tracer.on_switch.append(self._trace_switch)
        tracer.on_wake.append(self._trace_wake)
        tracer.on_migrate.append(self._trace_migrate)
        tracer.on_exit.append(self._trace_exit)
        tracer.on_preempt.append(self._trace_preempt)
        tracer.on_fault.append(self._trace_fault)

    def _record(self, text: str) -> None:
        self.trace.append(f"t={self.engine.now}ns {text}")

    def _trace_switch(self, core, prev, nxt) -> None:
        prev_name = prev.name if prev else "idle"
        nxt_name = nxt.name if nxt else "idle"
        self._record(f"cpu{core.index} switch {prev_name} -> {nxt_name}")

    def _trace_wake(self, thread, cpu, waker) -> None:
        by = f" by {waker.name}" if waker else ""
        self._record(f"wake {thread.name} -> cpu{cpu}{by}")

    def _trace_migrate(self, thread, src, dst) -> None:
        self._record(f"migrate {thread.name} cpu{src} -> cpu{dst}")

    def _trace_exit(self, thread) -> None:
        self._record(f"exit {thread.name}")

    def _trace_preempt(self, core, preempted, by) -> None:
        self._record(f"cpu{core.index} preempt {preempted.name} "
                     f"by {by.name}")

    def _trace_fault(self, kind, detail) -> None:
        self._record(f"fault {kind} {detail}")

    # ------------------------------------------------------------------
    # failure reporting
    # ------------------------------------------------------------------

    def _fail(self, invariant: str, message: str,
              cpu: Optional[int] = None) -> None:
        raise SanitizerError(invariant, message,
                             time_ns=self.engine.now, cpu=cpu,
                             event=self._event_label,
                             trace=tuple(self.trace))

    # ------------------------------------------------------------------
    # scheduler resolution
    # ------------------------------------------------------------------

    def _resolve_scheduler(self) -> None:
        """Bind the CFS/ULE deep checks that apply to this engine."""
        from ..cfs.core import CfsScheduler
        from ..sched.classes import ClassStackScheduler
        from ..ule.core import UleScheduler

        sched = self.engine.scheduler
        if isinstance(sched, CfsScheduler):
            self._cfs = sched
            self._check_cfs = self._cfs_invariants
        elif isinstance(sched, ClassStackScheduler):
            self._cfs = sched.fair
            self._check_cfs = self._cfs_invariants
        if isinstance(sched, UleScheduler):
            self._ule = sched
            self._check_ule = self._ule_invariants

    # ------------------------------------------------------------------
    # the post-event hook
    # ------------------------------------------------------------------

    def after_event(self, event) -> None:
        """Validate every invariant; called by the engine run loop."""
        self._event_label = getattr(event, "label", "") or \
            getattr(event.callback, "__qualname__", "?")
        self.checks_run += 1
        self._thread_queue_invariants()
        self._tickless_invariants()
        self._offline_invariants()
        if self._check_cfs is not None:
            self._check_cfs()
        if self._check_ule is not None:
            self._check_ule()

    # ------------------------------------------------------------------
    # generic thread/queue invariants
    # ------------------------------------------------------------------

    def _thread_queue_invariants(self) -> None:
        engine = self.engine
        sched = engine.scheduler
        owner: dict = {}
        total = 0
        for core in engine.machine.cores:
            listed = list(sched.runnable_threads(core))
            tids = [t.tid for t in listed]
            if len(tids) != len(set(tids)):
                dup = sorted({t for t in tids if tids.count(t) > 1})
                self._fail("double-enqueue",
                           f"thread(s) tid={dup} appear more than once "
                           f"in cpu{core.index}'s runqueue",
                           cpu=core.index)
            for thread in listed:
                if thread.tid in owner:
                    self._fail("two-runqueues",
                               f"{thread.name} (tid={thread.tid}) is on "
                               f"cpu{owner[thread.tid]} and "
                               f"cpu{core.index} runqueues at once",
                               cpu=core.index)
                owner[thread.tid] = core.index
                if not thread.is_runnable:
                    self._fail("queued-not-runnable",
                               f"{thread.name} is queued on "
                               f"cpu{core.index} but in state "
                               f"{thread.state.value}", cpu=core.index)
                if thread.rq_cpu != core.index:
                    self._fail("rq-cpu-mismatch",
                               f"{thread.name} queued on "
                               f"cpu{core.index} but rq_cpu="
                               f"{thread.rq_cpu}", cpu=core.index)
            nr = sched.nr_runnable(core)
            if nr != len(listed):
                self._fail("nr-runnable",
                           f"cpu{core.index}: nr_runnable()={nr} but "
                           f"the runqueue holds {len(listed)} "
                           f"thread(s)", cpu=core.index)
            current = core.current
            if current is not None:
                if not current.is_running:
                    self._fail("current-state",
                               f"cpu{core.index}.current={current.name} "
                               f"in state {current.state.value}, "
                               f"expected running", cpu=core.index)
                if current.cpu != core.index:
                    self._fail("current-cpu",
                               f"cpu{core.index}.current={current.name} "
                               f"says thread.cpu={current.cpu}",
                               cpu=core.index)
            total += len(listed)
        grand = sched.total_runnable()
        if grand != total:
            self._fail("total-runnable",
                       f"total_runnable()={grand} but per-core "
                       f"runqueues hold {total} thread(s)")

    # ------------------------------------------------------------------
    # tickless contract
    # ------------------------------------------------------------------

    def _tickless_invariants(self) -> None:
        engine = self.engine
        sched = engine.scheduler
        stopped = [c for c in engine.machine.cores if c.tick_stopped]
        if engine._nr_stopped_ticks != len(stopped):
            self._fail("tick-counter",
                       f"engine._nr_stopped_ticks="
                       f"{engine._nr_stopped_ticks} but "
                       f"{len(stopped)} core(s) have tick_stopped set")
        for core in stopped:
            if core.current is not None:
                self._fail("parked-running",
                           f"cpu{core.index} has its tick parked while "
                           f"running {core.current.name}",
                           cpu=core.index)
            # An enqueue onto a parked core legitimately leaves work
            # (and possibly needs_tick()==True) visible until its
            # same-instant resched dispatches; only a parked core with
            # NO pending resched must be quiescent.
            if core.resched_event is not None:
                continue
            if sched.needs_tick(core):
                self._fail("parked-needs-tick",
                           f"cpu{core.index} is parked but "
                           f"needs_tick() is True with no resched "
                           f"pending", cpu=core.index)
            nr = sched.nr_runnable(core)
            if nr:
                self._fail("parked-runnable",
                           f"cpu{core.index} is parked with {nr} "
                           f"runnable thread(s) and no resched "
                           f"pending", cpu=core.index)

    # ------------------------------------------------------------------
    # hotplug (fault-injection) contract
    # ------------------------------------------------------------------

    def _offline_invariants(self) -> None:
        """No thread may ever be left on a dead core: an offlined core
        runs nothing, queues nothing, and is never tick-parked (its
        tick is cancelled outright, not NO_HZ-stopped).  Work
        conservation therefore holds modulo the declared faults — the
        drained threads are queued (and counted) on online cores."""
        engine = self.engine
        sched = engine.scheduler
        for core in engine.machine.cores:
            if core.online:
                continue
            if core.current is not None:
                self._fail("offline-running",
                           f"cpu{core.index} is offline but runs "
                           f"{core.current.name}", cpu=core.index)
            nr = sched.nr_runnable(core)
            if nr:
                self._fail("offline-runnable",
                           f"cpu{core.index} is offline with {nr} "
                           f"runnable thread(s) left on its runqueue",
                           cpu=core.index)
            if core.tick_stopped:
                self._fail("offline-tick-parked",
                           f"cpu{core.index} is offline but counted "
                           f"as NO_HZ-parked", cpu=core.index)
            if core.resched_event is not None:
                self._fail("offline-resched",
                           f"cpu{core.index} is offline with a "
                           f"pending resched IPI", cpu=core.index)

    # ------------------------------------------------------------------
    # CFS invariants
    # ------------------------------------------------------------------

    def _cfs_invariants(self) -> None:
        fair = self._cfs
        for core in self.engine.machine.cores:
            stack = [fair.cpurq(core).root]
            while stack:
                rq = stack.pop()
                self._cfs_rq_invariants(rq, core)
                entities = [se for _, se in rq.tree.items()]
                if rq.curr is not None:
                    entities.append(rq.curr)
                for se in entities:
                    if not se.is_task and se.my_rq is not None:
                        stack.append(se.my_rq)

    def _cfs_rq_invariants(self, rq, core: "Core") -> None:
        cpu = core.index
        tree = rq.tree
        # explicit ordering walk: keys strictly increasing, leftmost
        # cache correct, node count consistent
        keys = [key for key, _ in tree.items()]
        if len(keys) != len(tree):
            self._fail("rbtree-count",
                       f"cpu{cpu} rq walk yields {len(keys)} nodes, "
                       f"len(tree)={len(tree)}", cpu=cpu)
        if any(a >= b for a, b in zip(keys, keys[1:])):
            self._fail("rbtree-order",
                       f"cpu{cpu} rq timeline keys are not strictly "
                       f"increasing: {keys}", cpu=cpu)
        if keys and tree.min_key() != keys[0]:
            self._fail("rbtree-leftmost",
                       f"cpu{cpu} rq cached leftmost {tree.min_key()} "
                       f"!= smallest key {keys[0]}", cpu=cpu)
        try:
            tree.check_invariants()
        except AssertionError as exc:
            self._fail("rbtree-structure",
                       f"cpu{cpu} rq timeline structure violated: "
                       f"{exc}", cpu=cpu)
        nr_curr = 1 if rq.curr is not None else 0
        if rq.nr_running != len(tree) + nr_curr:
            self._fail("cfs-nr-running",
                       f"cpu{cpu} rq nr_running={rq.nr_running} but "
                       f"tree holds {len(tree)} + curr {nr_curr}",
                       cpu=cpu)
        if rq.curr is not None and rq.curr.key in tree:
            self._fail("cfs-curr-queued",
                       f"cpu{cpu} rq curr {rq.curr} is also in the "
                       f"timeline tree", cpu=cpu)
        entities = [se for _, se in tree.items()]
        if rq.curr is not None:
            entities.append(rq.curr)
        weight = sum(se.weight for se in entities)
        if rq.load_weight != weight:
            self._fail("cfs-load-weight",
                       f"cpu{cpu} rq load_weight={rq.load_weight} but "
                       f"entities sum to {weight}", cpu=cpu)
        h_nr = sum(1 if se.is_task else se.my_rq.h_nr_running
                   for se in entities)
        if rq.h_nr_running != h_nr:
            self._fail("cfs-h-nr-running",
                       f"cpu{cpu} rq h_nr_running={rq.h_nr_running} "
                       f"but children sum to {h_nr}", cpu=cpu)
        prev_min = self._min_vrun_seen.get(id(rq))
        if prev_min is not None and rq.min_vruntime < prev_min:
            self._fail("cfs-min-vruntime",
                       f"cpu{cpu} rq min_vruntime moved backwards: "
                       f"{prev_min} -> {rq.min_vruntime}", cpu=cpu)
        self._min_vrun_seen[id(rq)] = rq.min_vruntime
        for se in entities:
            if se.weight <= 0:
                self._fail("pelt-weight",
                           f"cpu{cpu} entity {se} has non-positive "
                           f"weight {se.weight}", cpu=cpu)
            if se.avg.weight != se.weight:
                self._fail("pelt-weight",
                           f"cpu{cpu} entity {se} weight {se.weight} "
                           f"out of sync with avg.weight "
                           f"{se.avg.weight}", cpu=cpu)
            if not (-_EPS <= se.avg.util_avg <= 1.0 + _EPS):
                self._fail("pelt-range",
                           f"cpu{cpu} entity {se} util_avg="
                           f"{se.avg.util_avg} outside [0, 1]",
                           cpu=cpu)

    # ------------------------------------------------------------------
    # ULE invariants
    # ------------------------------------------------------------------

    def _ule_invariants(self) -> None:
        ule = self._ule
        loaded = 0
        for core in self.engine.machine.cores:
            tdq = core.rq
            cpu = core.index
            if tdq.load < 0:
                self._fail("ule-load",
                           f"cpu{cpu} tdq.load={tdq.load} is negative",
                           cpu=cpu)
            expected = tdq.nr_queued() + \
                (1 if core.current is not None else 0)
            if tdq.load != expected:
                self._fail("ule-load",
                           f"cpu{cpu} tdq.load={tdq.load} but "
                           f"{tdq.nr_queued()} queued + "
                           f"{1 if core.current else 0} running = "
                           f"{expected}", cpu=cpu)
            if tdq.load >= ule.tunables.steal_thresh:
                loaded += 1
            current = core.current
            if current is not None and ule.state_of(current).queued:
                self._fail("ule-running-queued",
                           f"cpu{cpu} running thread {current.name} "
                           f"still has queued=True", cpu=cpu)
            for thread in tdq.queued_threads():
                state = ule.state_of(thread)
                if not state.queued:
                    self._fail("ule-queued-flag",
                               f"cpu{cpu} {thread.name} is in the tdq "
                               f"but queued=False", cpu=cpu)
                hist = state.hist
                if hist.runtime < 0 or hist.sleeptime < 0:
                    self._fail("ule-history",
                               f"cpu{cpu} {thread.name} interactivity "
                               f"history negative (r={hist.runtime}, "
                               f"s={hist.sleeptime})", cpu=cpu)
            try:
                tdq.realtime.check_invariants()
                tdq.timeshare.check_invariants()
            except AssertionError as exc:
                self._fail("ule-runq-structure",
                           f"cpu{cpu} runqueue bitmap/deque invariant "
                           f"violated: {exc}", cpu=cpu)
        if loaded != ule._nr_loaded:
            self._fail("ule-nr-loaded",
                       f"_nr_loaded={ule._nr_loaded} but {loaded} "
                       f"tdq(s) are at/above steal_thresh="
                       f"{ule.tunables.steal_thresh}")
