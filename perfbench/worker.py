"""Set-up and timed rounds of one workload, in one fresh Python process.

Started by run.py with the checkout's `src` on PYTHONPATH and BLAS threads
pinned to 1.  Imports oscnodal and writes the seeded inputs (the set-up, whose
end it records as `ready`).  Then each round is forked from this process,
after the imports and before any step has run, so every round starts with the
`ai_k` memo and the Gauss-Legendre caches cold, as a fresh CLI process does,
without paying for the imports again.  A round runs every step in order, each
in its own directory (so each step's CSV stays separate), and writes a JSON
record with the step timings and exit statuses; the peak RSS of the round
comes from `wait4`.  The host probe (`probe`) is timed three times right after
the set-up, and in untraced rounds before the first step and after each step,
so that run.py can express every time in units of the host's current speed.
Nothing is checked here: checks run in run.py after the timed section.

    python3 perfbench/worker.py --workload W --seed N --out DIR [--tiny]
        set-up only
    python3 perfbench/worker.py ... --until T
        rounds until the CLOCK_MONOTONIC time T (at least two)
    python3 perfbench/worker.py ... --trace
        one traced round
"""

import argparse
import json
import os
import sys
import time
import warnings

import numpy as np

import oscnodal
from oscnodal import cli, densities

from workloads import build_steps

MIN_ROUNDS = 2
MAX_ROUNDS = 200


def run_step(step, where):
    """Run one step inside `where`; returns (status, value)."""
    os.makedirs(where)
    os.chdir(where)
    if step.call == "mean_density_box":
        value = densities.mean_density_box(oscnodal.level_new(2, step.params["N"]),
                                           step.params["box"])
        with open("value.json", "w") as fh:
            json.dump({"value": value}, fh)
        return 0, value
    try:
        return cli.main(list(step.argv)), None
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 1), None


def directory_bytes(where):
    return sum(entry.stat().st_size for entry in os.scandir(where) if entry.is_file())


_PROBE_X = np.linspace(-1.0, 1.0, 2048)


def probe():
    """Time a fixed piece of work that runs no oscnodal code (~16 ms on an idle
    host).  The host's speed changes the probe and the steps alike, so a step's
    time over the probes next to it tracks the program, not the host."""
    start = time.perf_counter()
    acc = 0.0
    for k in range(240):
        acc += float(np.cos(k * _PROBE_X) @ np.exp(-k * _PROBE_X * _PROBE_X))
    for i in range(200000):
        acc += i % 7
    return time.perf_counter() - start


def run_steps(steps, out, tracer):
    """One round: every step in order, each in its own directory.

    Untraced rounds run the probe before the first step and after each step;
    a step's `probe_s` is the mean of the probes on either side of it.
    """
    records = []
    probes = [] if tracer else [probe()]
    first = time.perf_counter()
    for step in steps:
        where = os.path.join(out, "steps", step.name)
        runner = tracer.span("step", step.name, run_step) if tracer else run_step
        start = time.perf_counter()
        try:
            status, value = runner(step, where)
        except Exception as exc:  # a crashing step is a result, not a benchmark error
            status, value = f"exception: {type(exc).__name__}: {exc}", None
        elapsed = time.perf_counter() - start
        if tracer and step.argv:
            tracer.counts["bytes_written"] += directory_bytes(where)
        probe_s = None
        if not tracer:
            probes.append(probe())
            probe_s = (probes[-2] + probes[-1]) / 2.0
        records.append({"name": step.name, "status": status, "seconds": elapsed,
                        "probe_s": probe_s, "value": value})
    os.chdir(out)
    return {"wall_s": time.perf_counter() - first, "steps": records}


def round_body(steps, where, trace):
    """What a forked round does; returns its record."""
    if not trace:
        return run_steps(steps, where, None)
    from spans import Tracer
    tracer = Tracer()
    tracer.install()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rec = run_steps(steps, where, tracer)
    tracer.restore()
    rec["layers"] = tracer.metrics()
    rec["warnings"] = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    tracer.dump(os.path.join(where, "spans.json"))
    return rec


def fork_round(steps, where, trace):
    """Run one round in a forked child and wait for it; returns its record."""
    os.makedirs(where)
    path = os.path.join(where, "round.json")
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            rec = round_body(steps, where, trace)
            with open(path, "w") as fh:
                json.dump(rec, fh)
            code = 0
        except BaseException:
            import traceback
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    _, status, usage = os.wait4(pid, 0)
    if status != 0 or not os.path.exists(path):
        raise RuntimeError(f"round in {where} ended with wait status {status}")
    with open(path) as fh:
        rec = json.load(fh)
    rec["dir"] = where
    rec["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return rec


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--until", type=float, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    out = os.path.abspath(args.out)
    steps = build_steps(args.workload, args.seed, os.path.join(out, "inputs"), args.tiny)
    ready = time.monotonic()
    result = {"oscnodal_file": os.path.abspath(oscnodal.__file__), "ready": ready,
              "setup_probe_s": sorted(probe() for _ in range(3))[1], "rounds": []}

    if args.trace:
        result["traced"] = fork_round(steps, os.path.join(out, "traced"), True)
    elif args.until is not None:
        rounds = result["rounds"]
        durations = []
        # another round starts only while even the slowest so far would end by --until
        while len(rounds) < MIN_ROUNDS or (
                len(rounds) < MAX_ROUNDS and time.monotonic() + max(durations) <= args.until):
            start = time.monotonic()
            rounds.append(fork_round(steps, os.path.join(out, f"round{len(rounds)}"), False))
            durations.append(time.monotonic() - start)
    with open(os.path.join(out, "result.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())
