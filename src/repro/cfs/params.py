"""CFS tunables, using the values the paper reports.

The paper describes the behaviour of Linux 4.9 on the test machine:

* a scheduling period of 48 ms while a core runs at most 8 threads,
* 6 ms minimum granularity (period grows as ``6 ms x nr`` beyond 8
  threads, and bounds the vruntime spread),
* 1 ms wakeup granularity (a woken thread preempts only when its
  vruntime is more than ~1 ms behind the current thread's),
* periodic load balancing every 4 ms per core,
* a 25 % imbalance threshold between NUMA nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.clock import msec, usec


@dataclass
class CfsTunables:
    """All CFS knobs in one place (ablation benches vary these)."""

    #: target period in which every runnable thread runs once
    sched_latency_ns: int = msec(48)
    #: minimum slice per thread; also the period factor beyond nr_latency
    min_granularity_ns: int = msec(6)
    #: vruntime lead a waking thread needs to preempt
    wakeup_granularity_ns: int = msec(1)
    #: number of threads above which the period stretches
    nr_latency: int = 8
    #: half of sched_latency credited to waking sleepers
    gentle_fair_sleepers: bool = True
    #: start new tasks one slice into the future (START_DEBIT)
    start_debit: bool = True
    #: wakeup preemption enabled at all
    wakeup_preemption: bool = True
    #: periodic balance interval of the smallest domain
    balance_interval_ns: int = msec(4)
    #: per-level imbalance thresholds, percent (117 = 17 % slack)
    imbalance_pct_llc: int = 117
    imbalance_pct_numa: int = 125
    #: max tasks detached in one balancing pass (the paper's "as many
    #: as 32 threads")
    max_migrate: int = 32
    #: idle (tickless) cores balance this much less often than busy
    #: ones: they depend on nohz ILB kicks, which 4.9 delivers lazily
    #: (cf. "The Linux Scheduler: a Decade of Wasted Cores")
    idle_balance_factor: int = 32
    #: a task that ran this recently is cache-hot and resists migration
    cache_hot_ns: int = usec(500)
    #: failed balance passes before cache-hotness is overridden
    cache_nice_tries: int = 1
    #: group threads into per-application task groups (autogroup)
    autogroup: bool = True

    def sched_period(self, nr_running: int) -> int:
        """The paper's rule: 48 ms up to 8 threads, then 6 ms each."""
        if nr_running > self.nr_latency:
            return nr_running * self.min_granularity_ns
        return self.sched_latency_ns
