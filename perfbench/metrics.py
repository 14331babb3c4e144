"""Metric names, units and the per-layer arithmetic.

End-to-end metrics come from untraced runs; per-layer metrics from the
traced run (see README.md for what each one should move).  "Per event"
means per simulated event and "per sim ms" per simulated millisecond;
``cfs.*`` and ``ule.*`` ratios use the events, wakeups and simulated
time of that scheduler's cells only.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

from spans import STORE_WRITES

#: BENCHMARK.json, which owns the workload and metric names and units
SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: span-name prefixes (the part before ``:``) making up each layer
LAYERS = {
    "core.engine": ("core.engine",),
    "core.events": ("core.events", "core.timerwheel"),
    "tick": ("tick",),
    "cfs.core": ("cfs.core",),
    "ule.core": ("ule.core",),
    "cfs.runqueue": ("cfs.runqueue", "cfs.rbtree", "cfs.timeline"),
    "placement": ("cfs.placement", "ule.placement"),
    "cfs.balance": ("cfs.balance",),
    "ule.balance": ("ule.balance",),
    "cfs.pelt": ("cfs.pelt", "cfs.peltbank"),
    "cfs.cgroup": ("cfs.cgroup",),
    "sync": ("sync",),
    "workloads": ("workloads",),
}

#: root span names: the denominator of every ``self_frac``
ROOT_SPANS = ("bench:pass", "experiments.shard:worker_main")


def gmean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class _View:
    """Read access to merged per-name ``[calls, total_ns, self_ns]``."""

    def __init__(self, totals: dict):
        self.totals = totals

    def calls(self, *names) -> int:
        return sum(self.totals.get(n, (0, 0, 0))[0] for n in names)

    def total_ns(self, *names) -> int:
        return sum(self.totals.get(n, (0, 0, 0))[1] for n in names)

    def with_prefix(self, prefix: str) -> list:
        return [n for n in self.totals if n.split(":", 1)[0] == prefix]

    def layer_self_ns(self, layer: str) -> int:
        return sum(self.totals[n][2] for prefix in LAYERS[layer]
                   for n in self.with_prefix(prefix))

    def mean_ms(self, name: str) -> float:
        return _ratio(self.total_ns(name) / 1e6, self.calls(name))


def layer_metrics(totals: dict, counters: dict, engines, cells: int, *,
                  untraced_wall_s: float, traced_wall_s: float,
                  untraced_cell_s: float, untraced_events: int,
                  fingerprint_ms: float, store_crashes: int = 0,
                  resume_read_ns: int = 0, worker_snaps=(),
                  spawn_log=()) -> dict:
    """Every :data:`PER_LAYER` metric from one traced pass.

    ``totals``/``counters`` are merged over every traced process;
    ``engines`` is the pass's :class:`cells.EngineTotals`; ``cells``
    the number of cells in the pass."""
    v = _View(totals)
    events = engines.total("events")
    cfs_events = engines.total("events", "cfs")
    ule_events = engines.total("events", "ule")
    sim_ms = engines.total("sim_ns") / 1e6
    cfs_sim_ms = engines.total("sim_ns", "cfs") / 1e6
    root_ns = v.total_ns(*ROOT_SPANS)

    def frac(*layers) -> float:
        return _ratio(sum(v.layer_self_ns(layer) for layer in layers),
                      root_ns)

    queue_names = [n for p in LAYERS["core.events"]
                   for n in v.with_prefix(p)]
    posts = v.calls(*[n for n in queue_names
                      if n.endswith((".post", ".repost"))])
    store = [f"experiments.store:ShardStore.{m}" for m in STORE_WRITES]
    busy = [_ratio(s["totals"].get("bench:cell", (0, 0))[1],
                   s["totals"].get("experiments.shard:worker_main",
                                   (0, 0))[1])
            for s in worker_snaps]
    entries = {s["pid"]: s.get("entry_ns") for s in worker_snaps}
    spawns = [(entries[pid] - t0) / 1e6 for pid, t0 in spawn_log
              if entries.get(pid) is not None]
    worker_naps = sum(s["counters"].get("shard.naps", 0)
                      for s in worker_snaps)
    return {
        "core.engine.events_per_sim_ms": _ratio(events, sim_ms),
        "core.engine.host_us_per_event": _ratio(untraced_cell_s * 1e6,
                                                untraced_events),
        "core.engine.self_frac": frac("core.engine"),
        "core.engine.wakes_per_event": _ratio(
            v.calls("core.engine:Engine.wake_thread"), events),
        "core.engine.migrations_per_event": _ratio(
            engines.total("migrations"), events),
        "core.engine.build_ms": v.mean_ms("core.engine:build"),
        "core.engine.reset_ms": v.mean_ms("core.engine:reset"),
        "core.engine.builds_per_cell": _ratio(
            v.calls("core.engine:build"), cells),
        "core.events.posts_per_event": _ratio(posts, events),
        "core.events.cancels_per_event": _ratio(
            v.calls("core.events:Event.cancel"), events),
        "core.events.self_frac": frac("core.events"),
        "tick.calls_per_event": _ratio(
            v.calls("tick:CfsScheduler.tick_hook",
                    "tick:UleScheduler.tick_hook", "tick:Engine._tick"),
            events),
        "tick.self_frac": frac("tick"),
        "cfs.core.enqueue_per_event": _ratio(
            v.calls("cfs.core:CfsScheduler.enqueue_task"), cfs_events),
        "cfs.core.dequeue_per_event": _ratio(
            v.calls("cfs.core:CfsScheduler.dequeue_task"), cfs_events),
        "cfs.core.pick_per_event": _ratio(
            v.calls("cfs.core:CfsScheduler.pick_next"), cfs_events),
        "cfs.core.self_frac": frac("cfs.core"),
        "ule.core.enqueue_per_event": _ratio(
            v.calls("ule.core:UleScheduler.enqueue_task"), ule_events),
        "ule.core.pick_per_event": _ratio(
            v.calls("ule.core:UleScheduler.pick_next"), ule_events),
        "ule.core.self_frac": frac("ule.core"),
        "cfs.runqueue.sched_slice_per_event": _ratio(
            v.calls("cfs.runqueue:CfsRq.sched_slice"), cfs_events),
        "cfs.runqueue.self_frac": frac("cfs.runqueue"),
        "cfs.placement.calls_per_wake": _ratio(
            v.calls("cfs.placement:select_task_rq_fair"),
            counters.get("wakes.CfsScheduler", 0)),
        "ule.placement.cores_scanned_per_wake": _ratio(
            engines.total("pickcpu_scans", "ule"),
            counters.get("wakes.UleScheduler", 0)),
        "placement.self_frac": frac("placement"),
        "cfs.balance.passes_per_sim_ms": _ratio(
            counters.get("cfs.balance.passes", 0), cfs_sim_ms),
        "cfs.balance.useful_frac": _ratio(
            counters.get("cfs.balance.useful_passes", 0),
            counters.get("cfs.balance.passes", 0)),
        "cfs.balance.self_frac": frac("cfs.balance"),
        "ule.balance.self_frac": frac("ule.balance"),
        "cfs.pelt.loads_for_per_event": _ratio(
            v.calls("cfs.pelt:CfsScheduler.loads_for"), cfs_events),
        "cfs.pelt.cpus_folded_per_call": _ratio(
            counters.get("cfs.pelt.cpus_folded", 0),
            v.calls("cfs.pelt:CfsScheduler.loads_for")),
        "cfs.pelt.updates_per_event": _ratio(
            v.calls("cfs.pelt:LoadAvg.update"), cfs_events),
        "cfs.pelt.self_frac": frac("cfs.pelt"),
        "cfs.cgroup.self_frac": frac("cfs.cgroup"),
        "sync.ops_per_event": _ratio(v.calls(*v.with_prefix("sync")),
                                     events),
        "sync.self_frac": frac("sync"),
        "workloads.resumes_per_event": _ratio(
            v.calls("workloads:resume", "workloads:first_resume"), events),
        "workloads.self_frac": frac("workloads"),
        "tracing.digest.ms_per_cell": _ratio(
            v.total_ns("tracing.digest:schedule_digest") / 1e6, cells),
        "experiments.store.txns_per_cell": _ratio(
            counters.get("store.txns", 0), cells),
        "experiments.store.empty_claim_frac": _ratio(
            counters.get("store.empty_claims", 0),
            counters.get("store.claims", 0)),
        "experiments.store.renewals_per_cell": _ratio(
            v.calls("experiments.store:ShardStore.renew",
                    "experiments.store:ShardStore.renew_many"), cells),
        "experiments.store.retries": float(
            v.calls("experiments.store:ShardStore.fail_attempt")),
        "experiments.store.crashes": float(store_crashes),
        "experiments.store.write_ms_per_cell": _ratio(
            v.total_ns(*store) / 1e6, cells),
        "experiments.store.read_us_per_cell": _ratio(
            resume_read_ns / 1e3, cells),
        "experiments.shard.worker_busy_frac": (
            sum(busy) / len(busy) if busy else 0.0),
        "experiments.shard.idle_naps_per_cell": _ratio(worker_naps, cells),
        "experiments.shard.spawn_ms": median(spawns),
        "experiments.cellcache.fingerprint_ms": fingerprint_ms,
        "experiments.cellcache.put_ms": v.mean_ms(
            "experiments.cellcache:CellCache.put"),
        "experiments.campaign.render_ms": v.mean_ms(
            "experiments.campaign:render_report"),
        "trace.overhead_frac": _ratio(traced_wall_s, untraced_wall_s) - 1,
    }
