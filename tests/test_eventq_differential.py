"""Heap-vs-wheel differential fuzzing (hypothesis-free, seeded).

Two layers, both pure functions of their integer seed:

* **Queue level** — a seeded op fuzzer drives an
  :class:`~repro.core.events.EventQueue` and a
  :class:`~repro.core.timerwheel.TimingWheelQueue` through the
  *identical* sequence of post / cancel / pop / pop_before / repost
  operations (times chosen to straddle slot boundaries and the wheel
  horizon, cancels dense enough to trigger compaction) and asserts
  identical observable behaviour at every step, with the accounting
  invariants checked throughout.
* **Engine level** — :mod:`repro.testing.fuzzer` scenarios run to
  completion under both queue implementations and must produce the
  same canonical schedule digest, the same stop reason, and the same
  final simulated time, under both schedulers.

Seq numbers are assigned identically (both queues count posts), so
"identical op sequence" really does mean "identical (time, seq) pop
order" — any divergence is a queue bug, not a tie-break artifact.
"""

import random

import pytest

from repro.core.events import EventQueue
from repro.core.timerwheel import NUM_SLOTS, SLOT_SHIFT, \
    TimingWheelQueue
from repro.testing.fuzzer import generate_scenario, run_scenario
from repro.tracing.digest import schedule_digest

SLOT_NS = 1 << SLOT_SHIFT

#: time deltas that exercise every routing path: same instant, within
#: a slot, a few slots out, just inside / just beyond the horizon,
#: and far future (deep overflow)
DELTA_CHOICES = (0, 1, SLOT_NS // 2, SLOT_NS, 3 * SLOT_NS,
                 (NUM_SLOTS - 1) * SLOT_NS, NUM_SLOTS * SLOT_NS,
                 (NUM_SLOTS + 1) * SLOT_NS, 4 * NUM_SLOTS * SLOT_NS)

QUEUE_FUZZ_SEEDS = range(12)
QUEUE_FUZZ_OPS = 400

ENGINE_FUZZ_SEEDS = (0, 1, 2, 3)


def _fuzz_queues(seed: int) -> None:
    rng = random.Random(f"eventq-differential:{seed}")
    heap, wheel = EventQueue(), TimingWheelQueue()
    #: live handles, index-aligned between the two queues
    handles: list[tuple] = []
    reusable = (heap.make_reusable(lambda: None, label="tick"),
                wheel.make_reusable(lambda: None, label="tick"))
    reusable_queued = False
    now = 0

    def both_pop(limit=None, before=False):
        nonlocal reusable_queued
        if before:
            eh, ew = heap.pop_before(limit), wheel.pop_before(limit)
        else:
            eh, ew = heap.pop(), wheel.pop()
        assert (eh is None) == (ew is None), (seed, limit)
        if eh is not None:
            assert (eh.time, eh.seq) == (ew.time, ew.seq), (seed, limit)
            if eh is reusable[0]:
                reusable_queued = False
        return eh

    for _ in range(QUEUE_FUZZ_OPS):
        op = rng.random()
        if op < 0.45:
            t = now + rng.choice(DELTA_CHOICES) + rng.randint(0, 99)
            handles.append((heap.post(t, lambda: None),
                            wheel.post(t, lambda: None)))
        elif op < 0.60 and handles:
            eh, ew = handles.pop(rng.randrange(len(handles)))
            assert eh.cancel() == ew.cancel(), seed
        elif op < 0.70 and not reusable_queued:
            t = now + rng.choice(DELTA_CHOICES)
            heap.repost(reusable[0], t)
            wheel.repost(reusable[1], t)
            reusable_queued = True
        elif op < 0.85:
            event = both_pop(now + rng.choice(DELTA_CHOICES),
                             before=True)
            if event is not None:
                now = max(now, event.time)
        else:
            event = both_pop()
            if event is not None:
                now = max(now, event.time)
        assert len(heap) == len(wheel), seed
        assert heap.peek_time() == wheel.peek_time(), seed
        heap._check_accounting()
        wheel._check_accounting()

    # Drain both to exhaustion: identical tail, then both empty.
    while both_pop() is not None:
        pass
    assert len(heap) == len(wheel) == 0


@pytest.mark.parametrize("seed", QUEUE_FUZZ_SEEDS)
def test_queue_ops_pop_identically(seed):
    _fuzz_queues(seed)


@pytest.mark.parametrize("seed", ENGINE_FUZZ_SEEDS)
@pytest.mark.parametrize("sched", ("cfs", "ule"))
def test_engine_digests_identical_under_both_queues(seed, sched):
    scenario = generate_scenario(seed, smoke=True)
    outcomes = {}
    for kind, queue in (("heap", EventQueue), ("wheel", TimingWheelQueue)):
        engine, _, reason = run_scenario(scenario, sched,
                                         event_queue=queue())
        outcomes[kind] = (schedule_digest(engine), reason, engine.now)
    assert outcomes["heap"] == outcomes["wheel"], scenario.describe()
