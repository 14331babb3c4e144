"""Observers never change the schedule.

The engine has one run loop; the sanitizer, the profiler, tracer hooks
and an empty ``FaultPlan`` only watch it.  A run with every observer
on must produce the same canonical schedule (digest, stop reason,
final time, event count) as the same run with all of them off.
"""

import pytest

from repro.core.clock import msec
from repro.core.engine import Engine
from repro.core.topology import smp
from repro.faults.plan import FaultPlan
from repro.sched import scheduler_factory
from repro.testing.fuzzer import (ThreadSpec, behavior_from_plan,
                                  generate_scenario)
from repro.tracing.digest import schedule_digest


def _run(scenario, sched, observed):
    topo = smp(scenario.ncpus, cpus_per_llc=scenario.cpus_per_llc)
    kw = dict(sanitize=observed, profile=observed)
    if observed:
        kw["faults"] = FaultPlan()
    engine = Engine(topo, scheduler_factory(sched), seed=scenario.seed,
                    **kw)
    if observed:
        assert engine.sanitizer is not None
        assert engine.profiler is not None
        seen = []
        engine.tracer.on_switch.append(lambda *args: seen.append(args))
    for ft in scenario.threads:
        engine.spawn(ThreadSpec(
            ft.name, behavior_from_plan(ft.plan), nice=ft.nice,
            affinity=(frozenset(ft.affinity)
                      if ft.affinity is not None else None),
            app=ft.app), at=msec(ft.spawn_at_ms))
    reason = engine.run(until=msec(scenario.until_ms))
    if observed:
        assert seen, "the tracer hook never fired"
    return (schedule_digest(engine), reason, engine.now,
            engine.events_processed)


@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("sched", ("cfs", "ule"))
def test_observers_leave_digest_unchanged(seed, sched):
    scenario = generate_scenario(seed, smoke=True)
    assert _run(scenario, sched, observed=True) == \
        _run(scenario, sched, observed=False), scenario.describe()
