"""CFS load balancing: periodic, hierarchical, load-metric driven.

Implements §2.1's description:

* every ``balance_interval`` (4 ms) each core walks its domain chain,
  larger domains at longer intervals;
* balancing evens out *load* (PELT averages weighted by priority), not
  thread counts;
* a pass detaches up to 32 tasks from the busiest CPU of the busiest
  group when the imbalance exceeds the domain's threshold (17 % inside
  a node, 25 % across nodes — the reason CFS never perfectly balances
  Fig. 6's spinners);
* cache-hot tasks (ran < 0.5 ms ago) resist migration until repeated
  failures override it;
* a core that goes idle immediately pulls work (idle/newidle balance).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.machine import Core
    from ..core.thread import SimThread
    from .core import CfsScheduler
    from .domains import SchedDomain


def nohz_idle_balance(sched: "CfsScheduler", core: "Core") -> None:
    """Balance on behalf of a tick-stopped idle core.

    Linux kicks one unparked CPU to run ``nohz_idle_balance()`` for all
    tickless-idle siblings; our per-core balance event chain never
    stops, so the kick degenerates to running the core's own periodic
    pass — identical work to the always-tick engine, plus a counter so
    experiments can see how often parked cores were balanced.
    """
    sched.engine.metrics.incr("cfs.nohz_kicks")
    periodic_balance(sched, core)


def periodic_balance(sched: "CfsScheduler", core: "Core") -> None:
    """One tick of the periodic balancer on ``core``: run every domain
    whose interval elapsed."""
    now = sched.engine.now
    idle = core.is_idle
    factor = sched.tunables.idle_balance_factor if idle else 1
    for domain in sched.cpurq(core).domains:
        if now - domain.last_balance < domain.interval_ns * factor:
            continue
        domain.last_balance = now
        load_balance(sched, core, domain, idle=idle)


def load_balance(sched: "CfsScheduler", core: "Core",
                 domain: "SchedDomain", idle: bool) -> int:
    """Try to pull load into ``core`` from the busiest group of
    ``domain``; returns the number of migrated tasks."""
    local_group = domain.local_group()
    # One batched pass over the span fills the per-instant memo; the
    # group sums then index it directly (the balancer's hot path).
    loads = sched.loads_for(domain.span)
    local_load = 0.0
    for cpu in local_group:
        local_load += loads[cpu]
    busiest_group = None
    busiest_load = local_load
    local_cpu = core.index
    for group in domain.groups:
        if group is local_group or local_cpu in group:
            continue
        load = 0.0
        for cpu in group:
            load += loads[cpu]
        if load > busiest_load:
            busiest_group = group
            busiest_load = load
    if busiest_group is None:
        domain.nr_balance_failed = 0
        return 0
    # Average over group size: the paper's "load of the NUMA nodes,
    # defined as the average load of their cores".
    local_avg = local_load / len(local_group)
    busiest_avg = busiest_load / len(busiest_group)
    if busiest_avg * 100 <= local_avg * domain.imbalance_pct:
        domain.nr_balance_failed = 0
        return 0
    victim_cpu = busiest_cpu_in(sched, busiest_group)
    if victim_cpu is None:
        return 0
    # Move enough load to even the two groups out, capped at
    # max_migrate tasks (the paper's 32).
    target_gap = (busiest_avg - local_avg) * len(local_group) / 2
    moved = detach_and_move(sched, victim_cpu, core.index, target_gap,
                            domain)
    if moved:
        domain.nr_balance_failed = 0
    else:
        domain.nr_balance_failed += 1
    return moved


def group_load(sched: "CfsScheduler", group) -> float:
    """Sum of the CPU loads of a balancing group."""
    return sum(sched.cpu_load(cpu) for cpu in group)


def busiest_cpu_in(sched: "CfsScheduler", group) -> Optional[int]:
    """The CPU with the highest load that has something to give."""
    best, best_load = None, 0.0
    for cpu in group:
        if sched.nr_runnable(sched.machine.cores[cpu]) == 0:
            continue
        load = sched.cpu_load(cpu)
        if best is None or load > best_load:
            best, best_load = cpu, load
    return best


def can_migrate_task(sched: "CfsScheduler", thread: "SimThread",
                     dst_cpu: int, domain: Optional["SchedDomain"]) -> bool:
    """The kernel's ``can_migrate_task``: not running, affinity allows
    the destination, and not cache-hot (unless balancing keeps
    failing)."""
    if thread.is_running:
        return False
    if not thread.allows_cpu(dst_cpu):
        return False
    if not sched.machine.cores[dst_cpu].online:
        return False
    hot = (sched.engine.now - thread.last_ran) < sched.tunables.cache_hot_ns
    if hot and domain is not None \
            and domain.nr_balance_failed <= sched.tunables.cache_nice_tries:
        return False
    return True


def detach_and_move(sched: "CfsScheduler", src_cpu: int, dst_cpu: int,
                    target_load: float,
                    domain: Optional["SchedDomain"]) -> int:
    """Detach tasks from ``src_cpu`` and attach them to ``dst_cpu``
    until ``target_load`` worth of load moved or the cap is hit.

    A task is never moved when doing so would leave the source with
    *less* load than the destination (the kernel rounds its imbalance
    the same way); otherwise two near-equal CPUs would trade the same
    task back and forth every balancing interval.
    """
    src_core = sched.machine.cores[src_cpu]
    moved = 0
    moved_load = 0.0
    src_load = sched.cpu_load(src_cpu)
    dst_load = sched.cpu_load(dst_cpu)
    candidates = [t for t in sched.runnable_threads(src_core)
                  if can_migrate_task(sched, t, dst_cpu, domain)]
    for thread in candidates:
        if moved >= sched.tunables.max_migrate:
            break
        if moved_load >= target_load:
            break
        if sched.nr_runnable(src_core) <= 1:
            break
        load = sched.thread_load(thread)
        if src_load - load < dst_load + load:
            continue  # would invert the imbalance: ping-pong
        sched.engine.migrate_thread(thread, dst_cpu)
        sched.engine.metrics.incr("cfs.balance_migrations")
        moved += 1
        moved_load += load
        src_load -= load
        dst_load += load
    return moved


def newidle_balance(sched: "CfsScheduler", core: "Core") -> int:
    """A core just ran out of work: immediately pull from the busiest
    CPU, walking domains from near to far (§2.1: "cores also
    immediately call the periodic load balancer when they become
    idle")."""
    moved = 0
    for domain in sched.cpurq(core).domains:
        moved = load_balance(sched, core, domain, idle=True)
        if moved:
            break
    sched.engine.metrics.incr("cfs.newidle_calls")
    return moved
