"""Declarative scheduling-policy layer over :class:`SchedClass`.

The paper's Table 1 interface is wide enough to express whole
schedulers but narrow enough that most of a scheduler is boilerplate:
queue bookkeeping, incumbent handling, idle stealing, the NO_HZ
mirror, preemption plumbing.  This module implements that boilerplate
**once** in :class:`PolicyScheduler` and reduces a concrete scheduler
to a :class:`SchedPolicy` — a frozen bundle of small *pure* components:

================  ====================================================
component         decides
================  ====================================================
``key``           queue discipline: total order over runnable threads
                  (lower wins; recomputed fresh at every pick, so
                  time-dependent keys like aging just work)
``pick``          pick rule: choose among the candidate threads
                  (default: minimum ``(key, seq)``)
``timeslice``     timeslice rule: how long a pick keeps the CPU
``place``         placement rule: CPU for a new/waking thread
                  (default: least-loaded, prefer idle, lowest index)
``preempts``      preemption predicate: does a waking thread preempt
                  the incumbent? (default: strictly smaller key)
``on_charge``     accounting: fold executed nanoseconds into the
                  thread's policy state (vruntime, ...)
``on_enqueue``    enqueue adjustment (deadline stamps, wake credits)
``on_expire``     slice expiry: re-key the incumbent so round-robin
                  rotation falls out of the ordinary pick
``init_thread``   per-thread state initialisation (weights, tickets)
================  ====================================================

Every component receives the :class:`PolicyScheduler` instance first,
so it can reach the engine clock, topology, and seeded RNG streams —
but holds no mutable state of its own.  The zoo schedulers
(:mod:`repro.sched.eevdf`, :mod:`repro.sched.bfs`,
:mod:`repro.sched.lottery`, :mod:`repro.sched.staticprio`,
:mod:`repro.sched.predictive`) are each one policy in one small file;
docs/scheduler-zoo.md is the authoring guide.

Engine contracts the layer guarantees on behalf of every policy:

* the running thread stays in its runqueue (the Linux convention);
* ``needs_tick`` mirrors the idle-steal poll exactly and depends only
  on runqueue *composition* (never on running state, which changes
  without a :meth:`~repro.core.engine.Engine._kick_stopped_ticks`
  call), so NO_HZ parking is digest-identical to always-tick;
* idle cores steal work (per-core queues) or pull from the shared
  queue (``global_queue=True``), so no core idles while eligible work
  waits;
* all tie-breaks go through a per-engine enqueue sequence number —
  never a process-global id — so schedules replay bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from ..core.clock import LINUX_TICK_NSEC, msec
from ..core.errors import SchedulerError
from ..core.schedflags import DequeueFlags, EnqueueFlags, SelectFlags
from .base import SchedClass

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.machine import Core
    from ..core.thread import SimThread

#: default timeslice when a policy does not supply its own rule
DEFAULT_SLICE_NS = msec(10)


class PolicyThreadState:
    """Per-thread scheduler state shared by every policy.

    One flat slotted object instead of per-policy classes: the fields
    are a union of what the zoo needs (EEVDF uses ``vruntime`` and
    ``deadline``, lottery uses ``tickets``, static priority uses
    ``priority``...); unused fields stay at their zero values.
    """

    __slots__ = ("seq", "weight", "vruntime", "deadline", "tickets",
                 "priority", "slice_used", "enqueued_at")

    def __init__(self):
        self.seq = 0            # enqueue order, the universal tie-break
        self.weight = 1024      # load weight (nice-derived)
        self.vruntime = 0       # weighted executed time (EEVDF)
        self.deadline = 0       # virtual deadline (EEVDF, BFS)
        self.tickets = 1        # lottery tickets
        self.priority = 0       # static priority (lower wins)
        self.slice_used = 0     # ns executed since the last (re)pick
        self.enqueued_at = 0    # engine time of the last enqueue


@dataclass(frozen=True)
class SchedPolicy:
    """A scheduler as data: small pure components over the shared
    :class:`PolicyScheduler` machinery.  Only ``name`` and ``key`` are
    mandatory; every other component has a sensible default."""

    #: registry/report name of the scheduler this policy defines
    name: str
    #: queue discipline: (sched, thread, state) -> ordering key tuple
    key: Callable
    #: pick rule: (sched, core, candidates) -> thread | None
    pick: Optional[Callable] = None
    #: timeslice rule: (sched, core, thread, state) -> ns
    timeslice: Optional[Callable] = None
    #: placement rule: (sched, thread, flags, waker) -> cpu index
    place: Optional[Callable] = None
    #: preemption predicate: (sched, core, curr, new) -> bool
    preempts: Optional[Callable] = None
    #: accounting fold: (sched, thread, state, delta_ns) -> None
    on_charge: Optional[Callable] = None
    #: enqueue adjustment: (sched, core, thread, state, flags) -> None
    on_enqueue: Optional[Callable] = None
    #: slice expiry re-key: (sched, core, thread, state) -> None
    on_expire: Optional[Callable] = None
    #: per-thread init: (sched, thread, state) -> None
    init_thread: Optional[Callable] = None
    #: one shared queue instead of per-core queues (BFS/MuQSS shape)
    global_queue: bool = False
    #: per-core periodic tick period
    tick_ns: int = LINUX_TICK_NSEC


class PolicyRunqueue:
    """Per-core queue state: the list of queued threads (the running
    thread stays listed, per the Linux convention the engine models).
    In ``global_queue`` mode every core shares one list and this
    object only marks membership."""

    __slots__ = ("threads",)

    def __init__(self, shared: Optional[list] = None):
        self.threads: list = [] if shared is None else shared


class PolicyScheduler(SchedClass):
    """Generic engine adapter executing a :class:`SchedPolicy`.

    Subclass it with a class-level ``name`` and pass the policy to the
    constructor; everything else — Table 1 hooks, idle stealing, the
    NO_HZ mirror, slice expiry, tie-breaking — is shared machinery.
    """

    name = "policy"

    def __init__(self, engine, policy: SchedPolicy):
        super().__init__(engine)
        self.policy = policy
        self.tick_ns = policy.tick_ns
        self._seq = 0
        #: the shared queue in global_queue mode (None otherwise)
        self._shared: Optional[list] = [] if policy.global_queue \
            else None

    # -- lifecycle ------------------------------------------------------

    def init_core(self, core: "Core") -> PolicyRunqueue:
        return PolicyRunqueue(shared=self._shared)

    def task_fork(self, parent: Optional["SimThread"],
                  child: "SimThread") -> None:
        state = PolicyThreadState()
        child.policy = state
        init = self.policy.init_thread
        if init is not None:
            init(self, child, state)

    def task_nice_changed(self, thread: "SimThread") -> None:
        init = self.policy.init_thread
        if init is not None:
            init(self, thread, thread.policy)

    def state_of(self, thread: "SimThread") -> PolicyThreadState:
        """The thread's policy state (oracle/test accessor)."""
        return thread.policy

    def next_seq(self) -> int:
        """The monotonic enqueue sequence number: the universal
        deterministic tie-break (never a process-global id)."""
        self._seq += 1
        return self._seq

    # -- queue maintenance ----------------------------------------------

    def _queue_of(self, core: "Core") -> list:
        return self._shared if self._shared is not None \
            else core.rq.threads

    def enqueue_task(self, core: "Core", thread: "SimThread",
                     flags: EnqueueFlags) -> None:
        state = thread.policy
        state.seq = self.next_seq()
        state.enqueued_at = self.engine.now
        if not flags & EnqueueFlags.MIGRATE:
            state.slice_used = 0
        self._queue_of(core).append(thread)
        hook = self.policy.on_enqueue
        if hook is not None:
            hook(self, core, thread, state, flags)

    def dequeue_task(self, core: "Core", thread: "SimThread",
                     flags: DequeueFlags) -> None:
        try:
            self._queue_of(core).remove(thread)
        except ValueError:
            raise SchedulerError(
                f"{thread} not on cpu {core.index} runqueue") from None

    def yield_task(self, core: "Core") -> None:
        curr = core.current
        if curr is None:
            return
        state = curr.policy
        state.seq = self.next_seq()   # lose all ties until requeued
        state.slice_used = 0
        expire = self.policy.on_expire
        if expire is not None:
            expire(self, core, curr, state)

    # -- picking ----------------------------------------------------------

    def _key_of(self, thread: "SimThread") -> tuple:
        state = thread.policy
        return self.policy.key(self, thread, state) + (state.seq,)

    def _pick_min(self, candidates) -> Optional["SimThread"]:
        best = None
        best_key = None
        for thread in candidates:
            key = self._key_of(thread)
            if best_key is None or key < best_key:
                best, best_key = thread, key
        return best

    def _candidates(self, core: "Core") -> list:
        """Threads ``core`` may run right now: its own queued threads
        (including the incumbent), plus — in global-queue mode — every
        waiting thread homed elsewhere whose affinity allows this
        core."""
        if self._shared is None:
            return list(core.rq.threads)
        index = core.index
        return [t for t in self._shared
                if t.rq_cpu == index
                or (not t.is_running and t.allows_cpu(index))]

    def pick_next(self, core: "Core") -> Optional["SimThread"]:
        candidates = self._candidates(core)
        if not candidates and self._shared is None:
            stolen = self._steal(core)
            if stolen is None:
                return None
            candidates = [stolen]
        if not candidates:
            return None
        picker = self.policy.pick
        chosen = picker(self, core, candidates) if picker is not None \
            else self._pick_min(candidates)
        if chosen is None:
            return None
        if chosen.rq_cpu != core.index:
            # global-queue pull: adopt the thread onto this core
            self.engine.migrate_thread(chosen, core.index)
        if chosen is not core.current:
            chosen.policy.slice_used = 0
        return chosen

    def _steal(self, core: "Core") -> Optional["SimThread"]:
        """Idle stealing for per-core queues: adopt the best waiting
        thread from any other runqueue (policy order decides *which*,
        exactly like a regular pick)."""
        candidates = []
        index = core.index
        for other in self.machine.cores:
            if other is core:
                continue
            for t in other.rq.threads:
                if not t.is_running and t.allows_cpu(index):
                    candidates.append(t)
        if not candidates:
            return None
        picker = self.policy.pick
        victim = picker(self, core, candidates) if picker is not None \
            else self._pick_min(candidates)
        if victim is None:
            return None
        self.engine.migrate_thread(victim, core.index)
        return victim

    # -- placement ----------------------------------------------------------

    def select_task_rq(self, thread: "SimThread", flags: SelectFlags,
                       waker: Optional["SimThread"] = None) -> int:
        place = self.policy.place
        if place is not None:
            return place(self, thread, flags, waker)
        return self._least_loaded_cpu(thread)

    def _least_loaded_cpu(self, thread: "SimThread") -> int:
        """Default placement: fewest homed threads, prefer idle cores,
        lowest index (composition-only, so it is deterministic)."""
        best = None
        best_rank = None
        counts = self._home_counts()
        for core in self.machine.cores:
            if not core.online or not thread.allows_cpu(core.index):
                continue
            rank = (counts[core.index], 0 if core.is_idle else 1,
                    core.index)
            if best_rank is None or rank < best_rank:
                best, best_rank = core.index, rank
        if best is None:
            return thread.rq_cpu if thread.rq_cpu is not None else 0
        return best

    def _home_counts(self) -> list[int]:
        """Queued-thread count per home CPU (``rq_cpu``), valid for
        both queue modes."""
        counts = [0] * len(self.machine.cores)
        if self._shared is not None:
            for t in self._shared:
                counts[t.rq_cpu] += 1
        else:
            for core in self.machine.cores:
                counts[core.index] = len(core.rq.threads)
        return counts

    # -- preemption / ticks ------------------------------------------------

    def check_preempt_wakeup(self, core: "Core",
                             thread: "SimThread") -> None:
        curr = core.current
        if curr is None or not curr.is_running:
            core.need_resched = True
            return
        pred = self.policy.preempts
        if pred is not None:
            if pred(self, core, curr, thread):
                core.need_resched = True
        elif self._key_of(thread) < self._key_of(curr):
            core.need_resched = True

    def _slice_ns(self, core: "Core", thread: "SimThread") -> int:
        rule = self.policy.timeslice
        if rule is None:
            return DEFAULT_SLICE_NS
        return rule(self, core, thread, thread.policy)

    def task_tick(self, core: "Core") -> None:
        curr = core.current
        if curr is None:
            return
        state = curr.policy
        if state.slice_used < self._slice_ns(core, curr):
            return
        if len(self._candidates(core)) <= 1:
            state.slice_used = 0    # alone: fresh slice, no dispatch
            return
        expire = self.policy.on_expire
        if expire is not None:
            expire(self, core, curr, state)
        else:
            state.seq = self.next_seq()   # rotate among key-ties
        state.slice_used = 0
        core.need_resched = True

    def idle_tick(self, core: "Core") -> None:
        if self._idle_work(core):
            core.need_resched = True

    def needs_tick(self, core: "Core") -> bool:
        # The NO_HZ contract: mirror idle_tick's poll *exactly*, and
        # keep it a function of queue composition only — every
        # composition change re-checks this hook, running-state
        # changes do not (see the module docstring).
        return not core.is_idle or self._idle_work(core)

    def _idle_work(self, core: "Core") -> bool:
        """Would an idle ``core`` find work to steal or pull?  A
        composition-only over-approximation: some home CPU holds two
        or more threads, at least one of which this core may run (two
        queued guarantees at least one waiter, since at most one of
        them can be running)."""
        index = core.index
        if self._shared is not None:
            counts = self._home_counts()
            for t in self._shared:
                if counts[t.rq_cpu] > 1 and t.rq_cpu != index \
                        and t.allows_cpu(index):
                    return True
            return False
        for other in self.machine.cores:
            if other is core or len(other.rq.threads) <= 1:
                continue
            for t in other.rq.threads:
                if t.allows_cpu(index):
                    return True
        return False

    # -- accounting ---------------------------------------------------------

    def update_curr(self, core: "Core", thread: "SimThread",
                    delta_ns: int) -> None:
        state = thread.policy
        state.slice_used += delta_ns
        hook = self.policy.on_charge
        if hook is not None:
            hook(self, thread, state, delta_ns)

    # -- introspection ------------------------------------------------------

    def runnable_threads(self, core: "Core") -> Iterable["SimThread"]:
        if self._shared is None:
            return list(core.rq.threads)
        index = core.index
        return [t for t in self._shared if t.rq_cpu == index]

    def nr_runnable(self, core: "Core") -> int:
        if self._shared is None:
            return len(core.rq.threads)
        index = core.index
        count = 0
        for t in self._shared:
            if t.rq_cpu == index:
                count += 1
        return count

    def total_runnable(self) -> int:
        if self._shared is not None:
            return len(self._shared)
        total = 0
        for core in self.machine.cores:
            total += len(core.rq.threads)
        return total
