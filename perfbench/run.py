"""The repository benchmark.  Run from the root of a checkout::

    python3 perfbench/run.py --workload multicore32 --seed 1 \\
        --seconds 20 --trace 0

Workloads: ``multicore32``, ``single_core``, ``campaign_sweep`` (see
README.md).  Every measurement runs in a fresh interpreter with every
``REPRO_*`` variable removed from its environment; throwaway stores,
caches and checkpoints live in a work directory under the checkout
that is removed at the end.

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``wall_s``,
``cell_gmean_ms``, ``setup_s``, ``peak_rss_mb``), with every timing
scaled to a reference host speed (see speed.py); with ``--trace 1``
the per-layer ones, and the span dump is written to
``.perfbench_out/trace-<workload>-seed<seed>.json``.  Exits 2 without a
result when the checkout has no simulator source.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import PER_LAYER, SPEC

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])

#: fresh-interpreter set-ups timed per run, half before and half
#: after the passes; setup_s is their median
SETUP_PROBES = 10

#: a measurement child that runs longer than this is killed
CHILD_TIMEOUT_S = 150


def child_env(workdir: Path) -> dict:
    """The measurement environment: no ``REPRO_*`` toggles, the
    checkout's ``src`` on the path, a fixed hash seed, and temp files
    kept inside the work directory.  Compiled bytecode is written to
    and read from the work directory whatever the caller's
    ``PYTHONDONTWRITEBYTECODE`` says, so set-up time does not depend
    on which ``.pyc`` files the checkout happens to hold."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k not in
           ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = str(workdir / "pycache")
    env["TMPDIR"] = str(workdir)
    return env


def run_child(cmd: list, env: dict, stdout) -> str:
    """Run a measurement child in its own session and wait for it; on
    timeout the whole session (the child and any shard workers it
    forked) is killed."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, cmd)
    return out


def measure_setup(workload: str, seed: int, workdir: Path, env: dict,
                  count: int) -> list[float]:
    """Seconds from launching a fresh interpreter until the first cell
    could start, once per probe, at the reference host speed measured
    by the child's own speed probe."""
    times = []
    for _ in range(count):
        start = time.monotonic()
        out = run_child([sys.executable, str(HERE / "setup_probe.py"),
                         "--workload", workload, "--seed", str(seed),
                         "--workdir", str(workdir)], env, subprocess.PIPE)
        fields = dict(line.split(None, 1) for line in out.splitlines()
                      if line.startswith(("ready ", "speed ")))
        times.append((float(fields["ready"]) - start)
                     / float(fields["speed"]))
    return times


def measure_run(args, workdir: Path, env: dict) -> dict:
    out = workdir / "result.json"
    cmd = [sys.executable, str(HERE / "measure.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--out", str(out)]
    if args.trace:
        dump_dir = ROOT / ".perfbench_out"
        dump_dir.mkdir(exist_ok=True)
        cmd += ["--dump", str(dump_dir / f"trace-{args.workload}-seed"
                                         f"{args.seed}.json")]
    run_child(cmd, env, sys.stderr)
    return json.loads(out.read_text())


def end_to_end(child: dict, setup_times: list[float]) -> dict:
    passes = child["passes"]
    return {
        "wall_s": {"value": statistics.median(p["wall_s"]
                                              for p in passes),
                   "unit": "s"},
        "cell_gmean_ms": {"value": statistics.median(
            p["cell_gmean_ms"] for p in passes), "unit": "ms"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(child: dict) -> dict:
    return {name: {"value": child["metrics"][name], "unit": unit}
            for name, unit in PER_LAYER.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in ("src/repro/__init__.py", "tests/golden/digests.json"):
        if not (ROOT / needed).is_file():
            print(f"perfbench: {needed} not found under {ROOT}; run from "
                  f"the root of a repository checkout", file=sys.stderr)
            return 2

    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        env = child_env(workdir)
        setup_times = []
        if not args.trace:
            # an untimed set-up compiles the bytecode, so every timed
            # one is a warm start, as a repeated CLI call is
            measure_setup(args.workload, args.seed, workdir, env, 1)
            setup_times += measure_setup(args.workload, args.seed,
                                         workdir, env, SETUP_PROBES // 2)
        child = measure_run(args, workdir, env)
        if not args.trace:
            setup_times += measure_setup(
                args.workload, args.seed, workdir, env,
                SETUP_PROBES - SETUP_PROBES // 2)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary = {k: child[k] for k in ("config", "passes", "golden_checked",
                                     "failure_samples")}
    summary["setup_s"] = setup_times
    print(json.dumps(summary))
    metrics = (per_layer(child) if args.trace
               else end_to_end(child, setup_times))
    print(json.dumps({"correct": child["failed"] == 0,
                      "attempted": child["attempted"],
                      "failed": child["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
