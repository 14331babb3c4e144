"""Set-up child: one fresh interpreter timed until its first cell could
start.  ``run.py`` launches it with the measurement environment::

    setup_probe.py --workload W --seed N --workdir DIR

It does what every CLI call and campaign worker pays before its first
cell: imports of the workload code, the source fingerprint, the first
topology, engine and domains, and the first store.  Then it prints
``ready <monotonic seconds>`` and ``speed <host slowness>``.

The speed probe starts before the imports and samples every
:data:`PERIOD_S` seconds, so its samples cover the set-up itself; the
time spent in the probe is taken off the ``ready`` time.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

import speed

#: sampling period of the probe; a set-up lasts a few tenths of a
#: second, so this is shorter than the passes' period
PERIOD_S = 0.01


def main(argv=None) -> int:
    probe = speed.SpeedProbe(PERIOD_S).start()
    parser = argparse.ArgumentParser(prog="setup_probe.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    import cells
    from repro.experiments import base, cellcache, \
        fig5_single_core_perf, fig8_multicore_perf
    from repro.experiments.store import ShardStore

    cellcache.code_fingerprint()
    if args.workload == "multicore32":
        base.make_engine("cfs", ncpus=fig8_multicore_perf.NCPUS,
                         seed=args.seed,
                         ctx_switch_cost_ns=fig8_multicore_perf
                         .CTX_SWITCH_COST_NS)
    elif args.workload == "single_core":
        base.make_engine("cfs", ncpus=1, seed=args.seed,
                         ctx_switch_cost_ns=fig5_single_core_perf
                         .CTX_SWITCH_COST_NS)
    else:
        cell = cells.sweep_cells(args.seed, count=1)[0]
        base.make_engine(cell["sched"], ncpus=2, seed=cell["seed"])
    with ShardStore(Path(args.workdir) / f"setup-store-{os.getpid()}"):
        pass
    ready = time.monotonic() - probe.spent_s
    probe.stop()
    print(f"ready {ready:.9f}")
    print(f"speed {probe.factor():.9f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
