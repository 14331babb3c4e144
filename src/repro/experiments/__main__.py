"""Crash-safe campaign runner: ``python -m repro.experiments``.

Runs a list of experiments (default: all of them) through the leased
store executor — per-cell timeouts, bounded retries, ``FAILED``
markers, worker-crash tolerance — checkpointing each finished cell so
an interrupted run restarts with ``--resume`` and re-executes only
the unfinished cells::

    python -m repro.experiments run --jobs 8 -o report.txt
    # ... killed half-way ...
    python -m repro.experiments run --jobs 8 -o report.txt --resume

The resumed report is byte-identical to an uninterrupted one (see
docs/fault-injection.md for the determinism contract).
"""

from __future__ import annotations

import argparse
import os
import sys

from ..core.artifacts import atomic_write_text
from .campaign import render_report, run_campaign
from .cellcache import DEFAULT_DIR as DEFAULT_CACHE_DIR
from .cellcache import CellCache
from .parallel import FailedCell
from .registry import experiment_names

DEFAULT_CHECKPOINT = ".repro-campaign-checkpoint.json"


def _cmd_run(args) -> int:
    names = args.experiments or experiment_names()
    unknown = [n for n in names if n not in experiment_names()]
    if unknown:
        known = ", ".join(experiment_names())
        print(f"unknown experiment(s): {', '.join(unknown)} "
              f"(known: {known})", file=sys.stderr)
        return 2
    jobs = args.jobs
    if args.profile:
        # Profiling aggregates the process-wide profiler across every
        # cell, which requires running serially in-process, and a
        # cache-served cell executes nothing to measure.
        os.environ["REPRO_PROFILE"] = "1"
        if jobs not in (None, 1):
            print("--profile forces serial execution (--jobs ignored)",
                  file=sys.stderr)
        jobs = None
    cache = None
    if not args.no_cache and not args.profile:
        cache = CellCache(args.cache_dir)
    cells, results = run_campaign(
        names, quick=not args.full, seed=args.seed, jobs=jobs,
        timeout_s=args.timeout, retries=args.retries,
        backoff_s=args.backoff,
        checkpoint_path=args.checkpoint, resume=args.resume,
        cache=cache, store_dir=args.store_dir)
    if cache is not None:
        # stderr: the stdout report must stay byte-identical whether
        # cells were computed or cache-served
        print(f"cell cache: {cache.hits} hit(s), "
              f"{cache.misses} executed", file=sys.stderr)
    if args.profile:
        from ..core.profile import global_profiler
        print("per-subsystem profile (all cells; see "
              "docs/performance.md):", file=sys.stderr)
        print(global_profiler().report(), file=sys.stderr)
    report = render_report(cells, results)
    if args.output:
        atomic_write_text(args.output, report)
        print(f"report written to {args.output}")
    else:
        print(report)
    failed = [r for r in results if isinstance(r, FailedCell)]
    for failure in failed:
        print(f"FAILED {failure.cell['experiment']}: "
              f"{failure.render()}", file=sys.stderr)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="crash-safe, resumable experiment campaigns")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run an experiment campaign")
    p.add_argument("experiments", nargs="*", metavar="EXP",
                   help="experiments to run (default: all)")
    p.add_argument("--full", action="store_true",
                   help="full-size configuration (slower)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--jobs", "-j", type=int, default=None,
                   help="worker processes sharing the on-disk store "
                        "(default/1: cells run in this process; "
                        "0 = all cores; crash-tolerant: survives "
                        "worker SIGKILLs and supervisor death, see "
                        "docs/distributed-campaigns.md)")
    p.add_argument("--store-dir", default=None, metavar="DIR",
                   help="store directory (default: beside the "
                        "checkpoint, <checkpoint>.store); pair with "
                        "--resume to pick an interrupted sweep back "
                        "up")
    p.add_argument("--timeout", type=float, default=None,
                   metavar="S",
                   help="per-cell wall-clock timeout at any --jobs "
                        "(cells then run in worker processes)")
    p.add_argument("--retries", type=int, default=0,
                   help="re-run failed cells up to N extra times")
    p.add_argument("--backoff", type=float, default=0.5, metavar="S",
                   help="base for exponential retry backoff")
    p.add_argument("--checkpoint", default=DEFAULT_CHECKPOINT,
                   metavar="PATH",
                   help="checkpoint manifest path "
                        f"(default: {DEFAULT_CHECKPOINT})")
    p.add_argument("--resume", action="store_true",
                   help="replay finished cells from the checkpoint; "
                        "without this flag a stale manifest is "
                        "cleared and the campaign starts fresh")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the content-addressed cell cache and "
                        "recompute every cell (e.g. for timing runs)")
    p.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                   metavar="DIR",
                   help="cell-cache directory (default: "
                        f"{DEFAULT_CACHE_DIR}); entries invalidate "
                        "automatically when src/repro changes")
    p.add_argument("--profile", action="store_true",
                   help="run serially and report per-subsystem event "
                        "counts and self-time aggregated over every "
                        "cell (disables the cell cache; see "
                        "docs/performance.md)")
    p.add_argument("--output", "-o", default=None,
                   help="write the report to a file (atomically) "
                        "instead of stdout")
    p.set_defaults(func=_cmd_run)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
