"""The balancer's PELT fold (``CfsScheduler.loads_for``).

The load-bearing property is **bit-identity**: folding a CPU's bank
must reproduce, bit for bit, the sum of walking that CPU's runnable
tasks and peeking each average in order (that is what keeps the
batched balancer digest-identical to the per-thread walk).  These
tests build a CFS engine with real runqueues — task groups included —
put the queued tasks' averages into assorted PELT regimes and compare
``loads_for`` against that sequential sum, along with the saturated
memo it keeps in ``_sat_loads``.
"""

import random

import pytest

from repro.cfs.pelt import HALF_LIFE_NS
from repro.core import Engine, ThreadSpec, run_forever
from repro.core.topology import smp
from repro.sched import scheduler_factory

NOW = 10 * HALF_LIFE_NS


def _engine(nthreads, ncpus=2, nices=(0,)):
    """A CFS engine with ``nthreads`` spinners queued (not yet run)
    across ``ncpus`` CPUs and two applications (two task groups)."""
    engine = Engine(smp(ncpus), scheduler_factory("cfs"), seed=1)
    for i in range(nthreads):
        engine.spawn(ThreadSpec(f"t{i}", lambda ctx: iter([run_forever()]),
                                nice=nices[i % len(nices)],
                                app=f"app{i % 2}"))
    engine.now = NOW
    return engine


def _avgs(engine, cpu):
    sched = engine.scheduler
    return [t.policy.se.avg
            for t in sched.runnable_threads(engine.machine.cores[cpu])]


def _sequential(engine, cpu):
    expected = 0.0
    for avg in _avgs(engine, cpu):
        expected += avg.peek(engine.now, True)  # u * weight
    return expected


def _set_regime(avg, rng):
    """Fresh, deep decay, saturated inside the shortcut window,
    saturated but stale, or updated at this very instant."""
    regime = rng.randrange(5)
    if regime == 0:
        avg.util_avg = rng.random()
        avg.last_update = NOW - rng.randrange(1, HALF_LIFE_NS // 4)
    elif regime == 1:
        avg.util_avg = rng.random()
        avg.last_update = NOW - rng.randrange(HALF_LIFE_NS,
                                              8 * HALF_LIFE_NS)
    elif regime == 2:
        avg.util_avg = 1.0
        avg.last_update = NOW - rng.randrange(1, HALF_LIFE_NS)
    elif regime == 3:
        avg.util_avg = 1.0
        avg.last_update = NOW - rng.randrange(HALF_LIFE_NS,
                                              3 * HALF_LIFE_NS)
    else:
        avg.util_avg = rng.random()
        avg.last_update = NOW


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", (0, 1, 2, 7, 40))
def test_python_fold_matches_sequential_peek(seed, n):
    """``loads_for`` equals the per-CPU sequential ``peek`` sum."""
    engine = _engine(n, nices=(0, 5, -5, -20))
    rng = random.Random(f"peltbank:{seed}")
    for cpu in range(2):
        for avg in _avgs(engine, cpu):
            _set_regime(avg, rng)
    loads = engine.scheduler.loads_for(range(2))
    for cpu in range(2):
        assert loads[cpu] == _sequential(engine, cpu)  # bit-identical
        sat = engine.scheduler._sat_loads[cpu]
        assert sat is None or sat[1] <= NOW


def test_saturated_flag_only_when_every_term_is_invariant():
    """Only an all-saturated bank is memoed, keyed by its stalest
    update; the memo then serves later instants inside the half-life
    with the recomputed sum's exact bits."""
    engine = _engine(1, ncpus=1)
    (sat,) = _avgs(engine, 0)
    sat.util_avg = 1.0
    sat.last_update = NOW - HALF_LIFE_NS // 2
    sched = engine.scheduler
    load = sched.loads_for((0,))[0]
    assert sched._sat_loads[0] == (load, sat.last_update)
    engine.now = NOW + HALF_LIFE_NS // 4
    assert sched.loads_for((0,))[0] == load == _sequential(engine, 0)

    engine = _engine(2, ncpus=1)
    sat, ramping = _avgs(engine, 0)
    sat.util_avg = 1.0
    sat.last_update = NOW - HALF_LIFE_NS // 2
    ramping.util_avg = 0.5
    ramping.last_update = NOW - HALF_LIFE_NS // 2
    engine.scheduler.loads_for((0,))
    assert engine.scheduler._sat_loads[0] is None


def test_empty_bank_folds_to_zero():
    engine = _engine(0)
    assert engine.scheduler.loads_for(range(2)) == [0.0, 0.0]
    assert engine.scheduler._sat_loads == [(0.0, NOW), (0.0, NOW)]
