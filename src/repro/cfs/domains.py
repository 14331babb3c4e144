"""Scheduling domains: CFS's hierarchical view of the topology.

Each CPU owns a chain of domains from the tightest sharing level (LLC)
to the whole machine.  Periodic balancing walks this chain: small
domains are balanced often with a small imbalance tolerance, large
(NUMA-crossing) domains rarely and only for big imbalances — the
paper's "the greater the distance between two cores, the higher the
imbalance has to be" (§2.1, §6.1).

Degenerate levels (same span as the level below) are elided, like the
kernel's ``sd_degenerate`` — on the paper's Opteron the LLC and
NUMA-node levels coincide, leaving two domains per CPU: intra-node and
machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.topology import Topology
    from .params import CfsTunables


@dataclass
class SchedDomain:
    """One balancing level for one CPU."""

    cpu: int
    name: str
    #: all CPUs this domain spans
    span: frozenset[int]
    #: the balancing groups inside the span (child-level spans)
    groups: tuple[frozenset[int], ...]
    #: how often this domain is balanced
    interval_ns: int
    #: busiest/local load ratio (x100) required to act
    imbalance_pct: int
    #: last time this domain was balanced (mutable bookkeeping)
    last_balance: int = 0
    #: consecutive balance attempts that moved nothing
    nr_balance_failed: int = 0

    def local_group(self) -> frozenset[int]:
        """The group containing this domain's CPU."""
        for group in self.groups:
            if self.cpu in group:
                return group
        raise ValueError(f"cpu {self.cpu} not in any group of {self.name}")


#: blueprint memo: (id(topology), balancing tunables) -> (topology,
#: {cpu: immutable constructor rows}).  Topologies are interned by
#: :mod:`repro.core.topology`, so campaign cells sharing a machine
#: shape hit the same entry and every engine after the first skips the
#: level/partition walk entirely; each engine still gets *fresh*
#: ``SchedDomain`` objects (last_balance / nr_balance_failed are
#: per-run state).  The stored topology reference both pins the id
#: against reuse and is identity-checked before trusting the entry.
_BLUEPRINTS: dict = {}
_BLUEPRINTS_MAX = 64


def build_domains(cpu: int, topology: "Topology",
                  tunables: "CfsTunables") -> list[SchedDomain]:
    """Build the non-degenerate domain chain for one CPU, smallest
    first.  A domain's groups are the partition of its span by the next
    finer (non-degenerate) level; the finest partition is single CPUs.

    Memoized per (topology, balancing tunables): the chain *shape* is
    a pure function of those, so repeat engines (campaign cells, bench
    rounds) only pay fresh-object construction.
    """
    key = (id(topology), tunables.balance_interval_ns,
           tunables.imbalance_pct_llc, tunables.imbalance_pct_numa)
    entry = _BLUEPRINTS.get(key)
    if entry is None or entry[0] is not topology:
        if len(_BLUEPRINTS) >= _BLUEPRINTS_MAX:
            _BLUEPRINTS.clear()
        entry = _BLUEPRINTS[key] = (topology, {})
    rows = entry[1].get(cpu)
    if rows is None:
        rows = entry[1][cpu] = tuple(
            (d.cpu, d.name, d.span, d.groups, d.interval_ns,
             d.imbalance_pct)
            for d in _build_domains(cpu, topology, tunables))
    return [SchedDomain(*row) for row in rows]


def _build_domains(cpu: int, topology: "Topology",
                   tunables: "CfsTunables") -> list[SchedDomain]:
    """The uncached walk behind :func:`build_domains`."""
    domains: list[SchedDomain] = []
    child_partition: list[frozenset[int]] = [
        frozenset({c}) for c in range(topology.ncpus)]
    prev_span: frozenset[int] = frozenset({cpu})
    level_idx = 0
    for level in topology.levels:
        span = topology.group_of(level.name, cpu)
        if span == prev_span:
            # Degenerate (e.g. LLC == NUMA node): skip, but remember
            # this level as the partition for the next one up.
            child_partition = list(level.groups)
            continue
        groups = tuple(sorted((g for g in child_partition if g <= span),
                              key=min))
        crosses_numa = (topology.has_level("numa")
                        and not span <= topology.node_of(cpu))
        pct = (tunables.imbalance_pct_numa if crosses_numa
               else tunables.imbalance_pct_llc)
        domains.append(SchedDomain(
            cpu=cpu,
            name=level.name,
            span=span,
            groups=groups,
            interval_ns=tunables.balance_interval_ns * (2 ** level_idx),
            imbalance_pct=pct,
        ))
        prev_span = span
        child_partition = list(level.groups)
        level_idx += 1
    return domains
