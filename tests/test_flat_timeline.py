"""The flat sorted-array CFS timeline (repro/cfs/timeline.py).

Three layers:

* unit — the ordered-map surface and the maintained
  ``leftmost_value`` cache;
* property — a seeded op fuzzer drives a :class:`FlatTimeline` and an
  :class:`RBTree` through identical insert/remove sequences and
  asserts identical observable state after every op (the two backends
  must be indistinguishable through the ``CfsRq`` seam);
* engine differential — fuzzer scenarios under CFS must produce the
  same canonical schedule digest, stop reason, and final time whether
  the runqueues use the flat timeline (the only runtime backend) or
  the reference red-black tree swapped in.
"""

import random

import pytest

from repro.cfs.rbtree import RBTree
from repro.cfs.timeline import FlatTimeline
from repro.testing.fuzzer import generate_scenario, run_scenario
from repro.tracing.digest import schedule_digest

# ----------------------------------------------------------------------
# unit
# ----------------------------------------------------------------------


def test_insert_orders_and_tracks_leftmost():
    tl = FlatTimeline()
    assert not tl and len(tl) == 0
    assert tl.min_key() is None
    assert tl.leftmost_value is None
    tl.insert((5, 1), "b")
    tl.insert((3, 1), "a")
    tl.insert((9, 1), "c")
    assert list(tl.items()) == [((3, 1), "a"), ((5, 1), "b"),
                                ((9, 1), "c")]
    assert tl.min_key() == (3, 1)
    assert tl.leftmost_value == "a"
    assert tl.min_value() == "a"
    assert tl.second_value() == "b"
    assert (5, 1) in tl and (4, 1) not in tl
    tl.check_invariants()


def test_duplicate_insert_raises():
    tl = FlatTimeline()
    tl.insert((1, 1), "a")
    with pytest.raises(KeyError):
        tl.insert((1, 1), "again")


def test_remove_returns_value_and_refreshes_leftmost():
    tl = FlatTimeline()
    for k, v in (((1, 0), "a"), ((2, 0), "b"), ((3, 0), "c")):
        tl.insert(k, v)
    assert tl.remove((1, 0)) == "a"
    assert tl.leftmost_value == "b"
    assert tl.remove((3, 0)) == "c"
    assert tl.leftmost_value == "b"
    assert tl.remove((2, 0)) == "b"
    assert tl.leftmost_value is None
    assert tl.min_key() is None
    assert tl.second_value() is None
    tl.check_invariants()


def test_remove_absent_raises():
    tl = FlatTimeline()
    tl.insert((1, 0), "a")
    with pytest.raises(KeyError):
        tl.remove((2, 0))


def test_insert_below_leftmost_replaces_cache():
    tl = FlatTimeline()
    tl.insert((10, 0), "old")
    tl.insert((2, 0), "new")
    assert tl.leftmost_value == "new"
    assert tl.second_value() == "old"
    tl.check_invariants()


# ----------------------------------------------------------------------
# property: backend indistinguishability
# ----------------------------------------------------------------------


def _observe(backend):
    return (len(backend), backend.min_key(), backend.min_value(),
            backend.second_value(), backend.leftmost_value,
            list(backend.items()), list(backend.values()))


@pytest.mark.parametrize("seed", range(8))
def test_flat_matches_rbtree_under_fuzzed_ops(seed):
    rng = random.Random(f"flat-timeline:{seed}")
    flat, tree = FlatTimeline(), RBTree()
    live: list = []
    for step in range(300):
        if live and rng.random() < 0.4:
            key = live.pop(rng.randrange(len(live)))
            assert flat.remove(key) == tree.remove(key)
        else:
            key = (rng.randrange(50), rng.randrange(50))
            if key in live:
                with pytest.raises(KeyError):
                    flat.insert(key, str(key))
                with pytest.raises(KeyError):
                    tree.insert(key, str(key))
            else:
                flat.insert(key, str(key))
                tree.insert(key, str(key))
                live.append(key)
        assert _observe(flat) == _observe(tree), (seed, step)
        flat.check_invariants()
        tree.check_invariants()


# ----------------------------------------------------------------------
# engine differential: digest-identical backends
# ----------------------------------------------------------------------


def _run(scenario, backend):
    engine, _, reason = run_scenario(scenario, "cfs", sanitize=False)
    root = engine.scheduler.cpurq(engine.machine.cores[0]).root
    assert type(root.tree) is backend
    return schedule_digest(engine), reason, engine.now


@pytest.mark.parametrize("seed", (0, 1, 2, 3))
def test_engine_digests_identical_under_both_backends(seed, monkeypatch):
    from repro.cfs import runqueue

    scenario = generate_scenario(seed, smoke=True)
    flat = _run(scenario, FlatTimeline)
    monkeypatch.setattr(runqueue, "FlatTimeline", RBTree)
    assert _run(scenario, RBTree) == flat, scenario.describe()
