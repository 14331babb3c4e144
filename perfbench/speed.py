"""Host-speed probe: scales measured host time to a reference speed.

The host's speed is not constant.  A fixed pure-Python loop, timed
alone, varies by up to 1.7x within seconds and in its mix over minutes
(co-tenants on the same physical machine), and the simulator slows
with it.  Process CPU time moves the same way as wall time, so taking
CPU time instead does not help; it would also leave out the time the
hypervisor steals, which the wall time a user waits includes.

While a :class:`SpeedProbe` is running, an interval timer interrupts
the main thread every :data:`PERIOD_S` seconds and times one
:func:`chunk`, a fixed walk over a small object graph, in wall time.
The samples are spread evenly over the work, so their mean moves with
the host speed the work saw.  A measured time ``t`` is reported as
``t * REF_CHUNK_S / mean(samples)``: host seconds at the reference
speed.  The probe's own time is kept off the work: :meth:`clock` is
``perf_counter`` minus the time spent in the probe.

The handler reads and writes no program state, so schedules and
digests are unchanged.  Forked children do not inherit the timer.
"""

from __future__ import annotations

import os
import random
import signal
import statistics
import time

#: seconds between two probe samples
PERIOD_S = 0.05

#: steps of the object-graph walk per sample
CHUNK_STEPS = 2000

#: objects in the probe's graph (about 1.5 MB, beyond a core's
#: private caches, so the walk feels cache contention as the
#: simulator's own object graph does)
GRAPH_OBJECTS = 16384

#: wall seconds of one chunk at the reference speed, about its fast
#: (uncontended) level between simulator work on a 2-vCPU Intel Xeon
#: VM at 2.0 GHz with CPython 3.11
REF_CHUNK_S = 0.0003


class _Node:
    __slots__ = ("a", "b", "nxt")


_GRAPH = None


def _graph() -> _Node:
    """One cycle through :data:`GRAPH_OBJECTS` nodes in a fixed
    shuffled order, built once per process."""
    global _GRAPH
    if _GRAPH is None:
        nodes = [_Node() for _ in range(GRAPH_OBJECTS)]
        order = list(range(GRAPH_OBJECTS))
        random.Random(1).shuffle(order)
        for k, idx in enumerate(order):
            node = nodes[idx]
            node.a, node.b = k, 3 * k
            node.nxt = nodes[order[(k + 1) % GRAPH_OBJECTS]]
        _GRAPH = nodes[order[0]]
    return _GRAPH


def chunk(steps: int = CHUNK_STEPS) -> int:
    """A fixed walk of the probe's object graph, the kind of pointer
    chasing attribute access the simulator does.  It allocates no
    containers, so it never triggers the garbage collector inside the
    program's code."""
    node = _graph()
    acc = 0
    for _ in range(steps):
        acc += node.a - node.b
        node = node.nxt
    return acc


class SpeedProbe:
    """Samples the host speed on ``SIGALRM`` while started."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        #: wall seconds of each chunk, in order
        self.samples: list = []
        #: their sum
        self.total_s = 0.0
        #: wall seconds spent inside the handler
        self.spent_s = 0.0
        #: the process that started the probe (None while stopped)
        self.pid = None
        self._prev = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        chunk()
        taken = time.perf_counter() - t0
        self.samples.append(taken)
        self.total_s += taken
        self.spent_s += taken

    def start(self) -> "SpeedProbe":
        _graph()
        self._prev = signal.signal(signal.SIGALRM, self._sample)
        # restart interrupted system calls (sqlite, pipes, sleeps)
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, self.period_s,
                         self.period_s)
        self.pid = os.getpid()
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.pid = None
        if self._prev is not None:
            signal.signal(signal.SIGALRM, self._prev)
            self._prev = None

    def clock(self) -> float:
        """``perf_counter`` without the time spent in the probe."""
        return time.perf_counter() - self.spent_s

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, since: int = 0) -> float:
        """Host slowness relative to the reference over the samples
        taken since ``mark()`` returned ``since``; 1.0 without any."""
        taken = self.samples[since:]
        if not taken:
            return 1.0
        return statistics.fmean(taken) / REF_CHUNK_S


#: the probe of this process; its clock is the benchmark's clock.  It
#: is one per process because the timer and the ``SIGALRM`` handler
#: are.
PROBE = SpeedProbe()


def process_probe() -> SpeedProbe:
    """:data:`PROBE`, started if it is not running in this process.
    A forked child (a shard worker) gets a fresh probe of its own,
    since its copy of the parent's probe has no timer."""
    global PROBE
    if PROBE.pid != os.getpid():
        PROBE = SpeedProbe().start()
    return PROBE


def clock() -> float:
    return PROBE.clock()
