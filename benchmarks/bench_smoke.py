"""Bench-smoke gate: heap/wheel digest equality + a throughput floor.

A fast (<~30 s) CI stage that runs a small fixed scenario set under
**both** event-queue implementations and asserts:

1. **Digest equality** — every scenario's canonical schedule digest is
   identical with an ``EventQueue()`` (heap) and a
   ``TimingWheelQueue()`` passed to the engine.  This is the
   always-on differential guard for the timing wheel: the seeded fuzz
   suite (``tests/test_eventq_differential.py``) explores breadth,
   this gate pins the paper-shaped scenarios on every push.
2. **A per-profile events/sec floor** — each floor is deliberately
   ~20x below that profile's observed throughput, so hardware
   variance never trips it but an accidental algorithmic regression
   (an O(n) scan in the event queue, a quadratic balance pass) fails
   fast without waiting for the full ``make bench`` + baseline
   comparison.  Per-profile floors matter because the profiles sit at
   very different absolute rates: one shared floor low enough for the
   slowest profile would leave the fastest with a ~100x blind spot.

Exit status: 0 = all green, 1 = digest mismatch or floor violation.
Run via ``make bench-smoke`` (part of ``make verify`` and CI).  CI
uploads ``BENCH_trajectory.json`` and the ``make bench-profile``
per-subsystem breakdown so the cross-PR perf story rides along with
every run.
"""

from __future__ import annotations

import os
import sys
import time

from repro.core.events import EventQueue
from repro.core.timerwheel import TimingWheelQueue

#: per-profile events/sec floors, each ~20x below observed smoke
#: throughput on developer hardware (~½ that in CI): only
#: catastrophic regressions trip
FLOORS = {
    "tick_8x16": 5_000,
    "fig6/cfs": 4_000,
    "fig6/ule": 3_000,
}

#: queue kind -> a fresh queue object to hand to the engine
QUEUES = {"heap": EventQueue, "wheel": TimingWheelQueue}


def _tick_cell(queue):
    """16 spinners on 8 cores under the 1 ms CFS tick, 500 ms."""
    from repro.core import Engine, ThreadSpec, run_forever
    from repro.core.clock import msec
    from repro.core.topology import smp
    from repro.sched import scheduler_factory

    engine = Engine(smp(8), scheduler_factory("cfs"), seed=1,
                    event_queue=queue)
    for i in range(16):
        engine.spawn(ThreadSpec(f"s{i}",
                                lambda ctx: iter([run_forever()]),
                                app="app"))
    engine.run(until=msec(500))
    return engine


def _fig6_cell(sched: str, queue):
    """The paper's pin/release load-balancing scenario, truncated.
    ``run_release`` builds its engine through ``make_engine``, so the
    queue goes in by binding it to the engine class that factory
    constructs, for this one call."""
    import functools

    from repro.core.clock import sec
    from repro.experiments import base
    from repro.experiments.fig6_load_balancing import run_release

    engine_cls = base.Engine
    base.Engine = functools.partial(engine_cls, event_queue=queue)
    try:
        engine, _, _ = run_release(sched, 32, seed=1,
                                   timeout_ns=sec(1))
    finally:
        base.Engine = engine_cls
    return engine


SCENARIOS = (
    ("tick_8x16", _tick_cell),
    ("fig6/cfs", lambda queue: _fig6_cell("cfs", queue)),
    ("fig6/ule", lambda queue: _fig6_cell("ule", queue)),
)


def main() -> int:
    from repro.tracing.digest import schedule_digest

    # every queue leg needs a freshly built engine, never a warm one
    os.environ.pop("REPRO_WARM_ENGINES", None)
    failures = []
    for name, build in SCENARIOS:
        digests = {}
        best_eps = 0.0
        for kind, queue in QUEUES.items():
            t0 = time.perf_counter()
            engine = build(queue())
            wall = time.perf_counter() - t0
            if type(engine.events) is not queue:
                failures.append(f"{name}: ran on "
                                f"{type(engine.events).__name__}, "
                                f"not {queue.__name__}")
            digests[kind] = schedule_digest(engine)
            eps = engine.events_processed / wall if wall else 0.0
            best_eps = max(best_eps, eps)
            print(f"  {name:<12} {kind:<6} digest={digests[kind]} "
                  f"{eps:>10,.0f} ev/s")
        if digests["heap"] != digests["wheel"]:
            failures.append(f"{name}: digest mismatch "
                            f"heap={digests['heap']} "
                            f"wheel={digests['wheel']}")
        # best-of-both: the floor gates the algorithm, not the noise
        floor = FLOORS[name]
        if best_eps < floor:
            failures.append(f"{name}: {best_eps:,.0f} ev/s below the "
                            f"{floor:,} floor")
    if failures:
        print("\nbench-smoke: FAILED", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"bench-smoke: {len(SCENARIOS)} scenarios digest-identical "
          f"under heap and wheel, all above their per-profile floors")
    return 0


if __name__ == "__main__":
    sys.exit(main())
