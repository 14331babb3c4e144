"""Deterministic workload fuzzer.

A *scenario* is a plain-data description of a complete simulation
input: a symmetric topology plus a set of threads, each with a spawn
time, nice value, optional CPU affinity, optional application label,
and a finite plan of run/sleep/yield steps.  Scenarios are generated
from a single integer seed with an explicit ``random.Random`` stream,
so the same seed always produces byte-identical scenarios on any host
— no global RNG, no ambient state.

The module also implements **greedy shrinking**: given a failing
scenario and a failure predicate, :func:`shrink` repeatedly applies
the simplest reduction passes (drop a thread, drop a step, halve
durations, shrink the machine, widen affinity, neutralise nice) and
keeps every reduction that still fails, until a fixpoint.  The passes
are tried in a fixed order, so shrinking is deterministic too: the
same failing seed always shrinks to the byte-identical minimal
scenario.

Scenarios deliberately exclude forks and synchronisation: each thread
owns its plan, so the differential oracles can assert *per-thread
runtime == requested work* exactly (see
:mod:`repro.testing.oracles`).  Fork/sync coverage lives in the
hand-written suites.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from ..core import Engine, Run, Sleep, ThreadSpec, Yield
from ..core.clock import msec
from ..core.topology import smp
from ..sched import scheduler_factory

#: step kinds a plan may contain; ``yield`` has no duration
KINDS = ("run", "sleep", "yield")

#: generator bounds (smoke mode halves the thread/step counts)
MAX_THREADS = 8
MAX_STEPS = 8
MAX_STEP_MS = 20
MAX_SPAWN_MS = 50
NCPU_CHOICES = (1, 2, 4, 8)


@dataclass(frozen=True)
class FuzzThread:
    """One thread of a scenario (plain data, hashable, picklable)."""

    name: str
    nice: int = 0
    spawn_at_ms: int = 0
    affinity: tuple[int, ...] | None = None
    app: str | None = None
    #: finite plan: ("run"|"sleep", ms) or ("yield", 0)
    plan: tuple[tuple[str, int], ...] = ()

    def requested_run_ns(self) -> int:
        return sum(msec(ms) for kind, ms in self.plan if kind == "run")

    def requested_sleep_ns(self) -> int:
        return sum(msec(ms) for kind, ms in self.plan
                   if kind == "sleep")


@dataclass(frozen=True)
class Scenario:
    """A complete, self-describing simulation input."""

    seed: int
    ncpus: int = 1
    cpus_per_llc: int | None = None
    threads: tuple[FuzzThread, ...] = ()
    #: engine deadline; generous — the oracles require "all-exited"
    until_ms: int = 60_000

    def describe(self) -> str:
        lines = [f"Scenario(seed={self.seed}, ncpus={self.ncpus}, "
                 f"cpus_per_llc={self.cpus_per_llc}, "
                 f"until_ms={self.until_ms})"]
        for t in self.threads:
            lines.append(
                f"  {t.name}: nice={t.nice} spawn@{t.spawn_at_ms}ms "
                f"affinity={t.affinity} app={t.app} plan={list(t.plan)}")
        return "\n".join(lines)


def behavior_from_plan(plan):
    """Build a behaviour generator from ('run'|'sleep'|'yield', ms)
    steps (the shared test-helper shape, promoted into the package)."""
    def behavior(ctx):
        for kind, duration_ms in plan:
            if kind == "run":
                yield Run(msec(duration_ms))
            elif kind == "sleep":
                yield Sleep(msec(duration_ms))
            else:
                yield Yield()
    return behavior


def build_engine(scenario: Scenario, sched: str, *,
                 sanitize: bool | None = True,
                 tickless: bool | None = None,
                 faults=None,
                 event_queue=None) -> tuple[Engine, list]:
    """Instantiate ``scenario`` under ``sched``; returns (engine,
    threads in scenario order).  Threads are spawned via the engine's
    delayed-spawn path so spawn order is part of the scenario.
    ``faults`` injects a :class:`~repro.faults.plan.FaultPlan` — the
    chaos mode of the fuzz campaign; ``event_queue`` passes a queue
    object to the engine (``EventQueue()`` for the heap-vs-wheel
    differential tests; None builds the default timing wheel)."""
    topo = smp(scenario.ncpus, cpus_per_llc=scenario.cpus_per_llc)
    engine = Engine(topo, scheduler_factory(sched), seed=scenario.seed,
                    sanitize=sanitize, tickless=tickless, faults=faults,
                    event_queue=event_queue)
    threads = []
    for ft in scenario.threads:
        spec = ThreadSpec(
            ft.name, behavior_from_plan(ft.plan), nice=ft.nice,
            affinity=(frozenset(ft.affinity)
                      if ft.affinity is not None else None),
            app=ft.app)
        threads.append(engine.spawn(spec, at=msec(ft.spawn_at_ms)))
    return engine, threads


def run_scenario(scenario: Scenario, sched: str, *,
                 sanitize: bool | None = True,
                 tickless: bool | None = None,
                 faults=None,
                 event_queue=None) -> tuple[Engine, list, str]:
    """Build and run ``scenario`` to its deadline; returns
    (engine, threads, stop reason)."""
    engine, threads = build_engine(scenario, sched, sanitize=sanitize,
                                   tickless=tickless, faults=faults,
                                   event_queue=event_queue)
    reason = engine.run(until=msec(scenario.until_ms))
    return engine, threads, reason


# ----------------------------------------------------------------------
# generation
# ----------------------------------------------------------------------

def generate_scenario(seed: int, *, smoke: bool = False) -> Scenario:
    """The scenario for ``seed`` — a pure function of its arguments."""
    # a *string* seed goes through the stable sha512 path — unlike
    # hashing a tuple, it does not depend on PYTHONHASHSEED, so worker
    # processes generate identical scenarios
    rng = random.Random(f"repro.testing.fuzzer:{seed}")
    ncpus = rng.choice(NCPU_CHOICES[:3] if smoke else NCPU_CHOICES)
    llc_choices = [d for d in (1, 2, 4, 8) if d <= ncpus
                   and ncpus % d == 0]
    cpus_per_llc = rng.choice([None] + llc_choices)
    max_threads = MAX_THREADS // 2 if smoke else MAX_THREADS
    max_steps = MAX_STEPS // 2 if smoke else MAX_STEPS
    nthreads = rng.randint(1, max_threads)
    threads = []
    for i in range(nthreads):
        steps = []
        for _ in range(rng.randint(1, max_steps)):
            kind = rng.choice(KINDS)
            steps.append((kind, 0 if kind == "yield"
                          else rng.randint(1, MAX_STEP_MS)))
        affinity = None
        if ncpus > 1 and rng.random() < 0.25:
            size = rng.randint(1, ncpus)
            affinity = tuple(sorted(rng.sample(range(ncpus), size)))
        app = rng.choice([None, "alpha", "beta"])
        threads.append(FuzzThread(
            name=f"f{i}",
            nice=rng.choice([-20, -10, -5, 0, 0, 0, 5, 10, 19]),
            spawn_at_ms=rng.randint(0, MAX_SPAWN_MS),
            affinity=affinity,
            app=app,
            plan=tuple(steps)))
    return Scenario(seed=seed, ncpus=ncpus, cpus_per_llc=cpus_per_llc,
                    threads=tuple(threads))


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------

def _valid(scenario: Scenario) -> bool:
    if not scenario.threads:
        return False
    for t in scenario.threads:
        if t.affinity is not None:
            if not t.affinity:
                return False
            if max(t.affinity) >= scenario.ncpus:
                return False
    if scenario.cpus_per_llc is not None and (
            scenario.cpus_per_llc > scenario.ncpus
            or scenario.ncpus % scenario.cpus_per_llc):
        return False
    return True


def _candidates(scenario: Scenario):
    """Yield simpler variants of ``scenario``, simplest-first within
    each pass.  Deterministic order — no randomness in shrinking."""
    ts = scenario.threads
    # pass 1: drop whole threads
    for i in range(len(ts)):
        yield replace(scenario, threads=ts[:i] + ts[i + 1:])
    # pass 2: drop single steps
    for i, t in enumerate(ts):
        for j in range(len(t.plan)):
            nt = replace(t, plan=t.plan[:j] + t.plan[j + 1:])
            if nt.plan:
                yield replace(scenario,
                              threads=ts[:i] + (nt,) + ts[i + 1:])
    # pass 3: halve durations
    for i, t in enumerate(ts):
        if any(ms > 1 for _, ms in t.plan):
            nt = replace(t, plan=tuple(
                (k, ms if k == "yield" else max(1, ms // 2))
                for k, ms in t.plan))
            yield replace(scenario, threads=ts[:i] + (nt,) + ts[i + 1:])
    # pass 4: shrink the machine
    for ncpus in (n for n in NCPU_CHOICES if n < scenario.ncpus):
        nts = []
        for t in ts:
            if t.affinity is not None:
                aff = tuple(c for c in t.affinity if c < ncpus)
                t = replace(t, affinity=aff or None)
            nts.append(t)
        yield replace(scenario, ncpus=ncpus, cpus_per_llc=None,
                      threads=tuple(nts))
    # pass 5: simplify per-thread attributes
    for i, t in enumerate(ts):
        for nt in (replace(t, affinity=None) if t.affinity else None,
                   replace(t, nice=0) if t.nice else None,
                   replace(t, app=None) if t.app else None,
                   (replace(t, spawn_at_ms=0)
                    if t.spawn_at_ms else None)):
            if nt is not None:
                yield replace(scenario,
                              threads=ts[:i] + (nt,) + ts[i + 1:])
    # pass 6: flatten the LLC split
    if scenario.cpus_per_llc is not None:
        yield replace(scenario, cpus_per_llc=None)


def shrink(scenario: Scenario, still_fails, *,
           max_attempts: int = 2000) -> Scenario:
    """Greedily minimise ``scenario`` while ``still_fails(candidate)``
    holds.  Restarts the candidate walk after every accepted
    reduction, so the result is the first fixpoint of the ordered
    passes — byte-identical for identical inputs."""
    attempts = 0
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        for cand in _candidates(scenario):
            attempts += 1
            if attempts >= max_attempts:
                break
            if not _valid(cand):
                continue
            try:
                failing = still_fails(cand)
            except Exception:
                # a reduction that crashes the harness itself is not a
                # valid minimisation step
                failing = False
            if failing:
                scenario = cand
                improved = True
                break
    return scenario
