"""Batched PELT folding: the balancer's array-of-struct load layer.

The CFS balancer sums the decayed ``LoadAvg`` of every runnable task
on a CPU many times per balancing pass.  :class:`~repro.cfs.core
.CfsScheduler` keeps, per CPU, a *bank*: ``(LoadAvg, weight)`` pairs
in traversal order, valid until the runnable set (or timeline order,
or a task weight) changes, and folds it in one tight loop inside
``CfsScheduler.loads_for`` (one loop per balancing pass rather than
one call per CPU: the call boundary was the balance pass's cost).

The fold is kept expression-for-expression identical to
``LoadAvg.peek`` so every term — and therefore the sequential sum —
is **bit-identical** to walking the hierarchy and peeking each average
(``tests/test_peltbank.py`` pins ``loads_for`` against that walk):

* the decay factor comes from the shared ``pelt._DECAY_CACHE``
  (``exp`` on the same integer delta yields the same float);
* a saturated average inside the ``d >= 0.5`` window contributes the
  time-invariant ``u * weight`` (see ``pelt._SATURATED``);
* terms accumulate left-to-right (float addition is order-sensitive).

This module keeps the batch warm-up of that shared decay cache.
"""

from __future__ import annotations

import math

from .pelt import HALF_LIFE_NS, _DECAY_CACHE, _DECAY_CACHE_MAX, _LN2


def prewarm_decay(deltas) -> None:
    """Batch-fill the shared decay cache for a set of integer deltas.

    The epoch-batched tick kernel (``Engine._pop_next`` →
    ``SchedClass.epoch_prefold``) calls this once per multi-core tick
    instant with the deltas the epoch group is about to decay by, so
    each distinct transcendental is evaluated once instead of once per
    (core, entity).  Pure cache warm and therefore digest-neutral:
    factors come from the same ``math.exp`` expression as
    :func:`repro.cfs.pelt.decay_factor` (never ``np.exp``), so later
    lookups are bit-identical whether or not the prewarm ran.
    """
    exp = math.exp
    decay_cache = _DECAY_CACHE
    half_life = HALF_LIFE_NS
    for delta in deltas:
        if delta <= 0 or delta in decay_cache:
            continue
        if len(decay_cache) >= _DECAY_CACHE_MAX:
            decay_cache.clear()
        # continuous-form PELT decay: delta/half_life is a
        # dimensionless ratio
        decay_cache[delta] = exp(-_LN2 * delta / half_life)
