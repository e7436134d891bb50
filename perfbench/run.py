"""oscnodal benchmark: three workloads of CLI commands, timed in fresh processes.

Run from the root of a checkout (the directory holding `src/oscnodal`):

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 43 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 43 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --seconds 1 --trace 1 --tiny

Each run starts fresh Python processes (worker.py).  Four only set up
(interpreter start, `import oscnodal`, input files); a fifth sets up the same
way and then forks one round after another from its freshly imported state,
so every round starts with the ai_k memo and the quadrature caches cold, as a
CLI process does.  A round runs every step of the workload once.  Rounds
continue while the next is expected to end within --seconds.

On a shared host the speed swings by tens of percent, for seconds and for
whole minutes, so raw times of identical work spread past any useful bound.
The worker therefore times a fixed host probe that runs no oscnodal code
(worker.probe) between the steps and right after each set-up.  `wall_s` sums,
over steps, the median over rounds of the step's time over its neighbouring
probes; `setup_s` is the median over the five processes of set-up time over
probe time.  Both are then scaled by PROBE_REF_S, the probe's time on an idle
reference host, so they read as seconds at that host's speed.  The raw times
(`host.raw_wall_s`, the sum of each step's fastest round, and
`host.raw_setup_s`) and the probe time itself are reported with the
per-layer metrics.  With --trace 1 one more process runs one traced round.
Correctness checks (checks.py) run after the timed section.

Human-readable lines come first; the last line of standard output is the JSON
result.  The full record, with the environment and every check, goes to
.perfbench/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

from workloads import WORKLOADS, build_steps  # noqa: E402

#: fresh processes that only set up, besides the one that runs the timed rounds
SETUP_RUNS = 4
#: every run must end within 180 s; no worker may run past this
RUN_DEADLINE_S = 170.0
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("pass_frac", "frac"))
#: raw times and the probe, reported with the per-layer metrics
HOST_METRICS = (("host.raw_wall_s", "s"), ("host.raw_setup_s", "s"), ("host.probe_ms", "ms"))
#: the probe's time on an idle 2-vCPU Xeon host; times are reported at this speed
PROBE_REF_S = 0.016


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed check)."""


def launch(root, workload, seed, where, mode, tiny, deadline):
    """Start worker.py in a fresh process and wait for it; returns its record.

    `mode` is () for set-up only, ("--until", T) for timed rounds, or
    ("--trace",) for one traced round.  The worker runs in its own process
    group, so a timeout also ends the rounds it forked.
    """
    os.makedirs(where)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", where, *mode]
    cmd += ["--tiny"] if tiny else []
    env = {k: v for k, v in os.environ.items() if k != "OSCNODAL_THREADS"}
    env.update({k: "1" for k in PINNED_THREADS})
    env["PYTHONPATH"] = os.path.join(root, "src")
    log = os.path.join(where, "log.txt")
    launched = time.monotonic()
    with open(log, "w") as fh:
        proc = subprocess.Popen(cmd, cwd=where, env=env, stdout=fh, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            proc.wait(timeout=max(1.0, deadline - launched))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{workload} worker exceeded the run deadline") from exc
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    path = os.path.join(where, "result.json")
    if proc.returncode != 0 or not os.path.exists(path):
        with open(log) as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{tail}")
    with open(path) as fh:
        rec = json.load(fh)
    if not rec["oscnodal_file"].startswith(os.path.join(root, "src") + os.sep):
        raise BenchError(f"imported oscnodal from {rec['oscnodal_file']}, not this checkout")
    rec["setup_s"] = rec["ready"] - launched
    return rec


def _git_commit(root):
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(root, seed):
    import numpy
    import scipy
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "oscnodal")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "commit": _git_commit(root),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": {k: "1" for k in PINNED_THREADS},
        "oscnodal_threads": "unset",
        "seed": seed,
    }


def _all_step_names(scratch, tiny):
    names = []
    for workload in WORKLOADS:
        names += [s.name for s in build_steps(workload, 0, os.path.join(scratch, "names"), tiny)]
    return names


def run_workload(root, workload, seed, seconds, trace, tiny, scratch):
    """Set-up runs, timed rounds, optional traced round, then the checks."""
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    setups = [launch(root, workload, seed, os.path.join(scratch, f"setup{i}"), (), tiny,
                  deadline) for i in range(SETUP_RUNS)]
    timed = launch(root, workload, seed, os.path.join(scratch, "timed"),
                   ("--until", repr(start + seconds)), tiny, deadline)
    setups.append(timed)
    rounds = timed["rounds"]
    traced = None
    if trace:
        traced = launch(root, workload, seed, os.path.join(scratch, "traced"), ("--trace",),
                        tiny, deadline)["traced"]

    from checks import run_checks
    steps = build_steps(workload, seed, os.path.join(scratch, "inputs"), tiny)
    first = {s["name"]: s for s in rounds[0]["steps"]}
    records = run_checks(workload, steps,
                         {name: s["status"] for name, s in first.items()},
                         {name: s["value"] for name, s in first.items()},
                         [r["dir"] for r in rounds + ([traced] if traced else [])])
    failed = sum(not r["passed"] for r in records)

    # each step in units of the probes beside it, median over rounds, at the
    # probe's reference time: the host's speed swings cancel out
    samples = {s.name: [(st["seconds"], st["probe_s"]) for r in rounds for st in r["steps"]
                        if st["name"] == s.name] for s in steps}
    ratios = {name: statistics.median(t / p for t, p in v) for name, v in samples.items()}
    fastest = {name: min(t for t, _ in v) for name, v in samples.items()}
    values = {"wall_s": PROBE_REF_S * sum(ratios.values()),
              "setup_s": PROBE_REF_S * statistics.median(r["setup_s"] / r["setup_probe_s"]
                                                         for r in setups),
              "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
              "pass_frac": 1.0 - failed / len(records)}
    host = {"host.raw_wall_s": sum(fastest.values()),
            "host.raw_setup_s": statistics.median(r["setup_s"] for r in setups),
            "host.probe_ms": 1e3 * statistics.median(p for v in samples.values() for _, p in v)}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    if traced:
        from spans import LAYER_METRICS
        metrics = {name: {"value": traced["layers"][name], "unit": unit}
                   for name, unit in LAYER_METRICS}
        metrics.update({name: {"value": host[name], "unit": unit} for name, unit in HOST_METRICS})
        for name in _all_step_names(scratch, tiny):
            metrics[f"step.{name}.s"] = {"value": PROBE_REF_S * ratios.get(name, 0.0),
                                         "unit": "s"}
        metrics["warnings"] = {"value": traced["warnings"], "unit": "count"}
        metrics["trace_overhead"] = {"value": traced["wall_s"] / host["host.raw_wall_s"] - 1.0,
                                     "unit": "ratio"}
    return {
        "workload": workload,
        "result": {"correct": all(r["passed"] or r["known_defect"] for r in records),
                   "attempted": len(records), "failed": failed, "metrics": metrics},
        "end_to_end": values,
        "host": host,
        "fail_frac": failed / len(records),
        "setups": [{k: r[k] for k in ("setup_s", "setup_probe_s")} for r in setups],
        "rounds": [{k: r[k] for k in ("wall_s", "peak_rss_mb")} |
                   {"steps": {s["name"]: [s["seconds"], s["probe_s"]] for s in r["steps"]}}
                   for r in rounds],
        "traced_wall_s": traced["wall_s"] if traced else None,
        "checks": records,
        "tiny": tiny,
    }


def report(rec):
    """Human-readable summary lines for one workload."""
    e2e = rec["end_to_end"]
    res = rec["result"]
    lines = [f"workload {rec['workload']}: {len(rec['rounds'])} untraced rounds"
             + (f", traced wall {rec['traced_wall_s']:.3f} s" if rec["traced_wall_s"] else "")]
    lines += [f"  {name:<12} {e2e[name]:12.4f} {unit}" for name, unit in END_TO_END]
    lines += [f"  {name:<18} {rec['host'][name]:12.4f} {unit}" for name, unit in HOST_METRICS]
    lines.append(f"  {'fail_frac':<12} {rec['fail_frac']:12.4f} frac"
                 f"  ({res['failed']} of {res['attempted']} checks failed)")
    for r in rec["checks"]:
        if not r["passed"]:
            note = f"  [known defect: {r['known_defect']}]" if r["known_defect"] else ""
            lines.append(f"  FAIL {r['check']}: {r['detail']}{note}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="N ~ 20 and 2 seeds: exercises every path in seconds")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "oscnodal", "__init__.py")):
        print("perfbench: no src/oscnodal here; run from the root of an oscnodal checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    base = os.path.join(root, ".perfbench")
    scratch = os.path.join(base, f"tmp-{os.getpid()}")
    results = os.path.join(base, "results")
    os.makedirs(results, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    recs = []
    try:
        for workload in workloads:
            where = os.path.join(scratch, workload)
            rec = run_workload(root, workload, args.seed, args.seconds, bool(args.trace),
                               args.tiny, where)
            rec["environment"] = environment(root, args.seed)
            stem = f"{workload}-seed{args.seed}" + ("-trace" if args.trace else "") \
                + ("-tiny" if args.tiny else "")
            if args.trace:
                shutil.move(os.path.join(where, "traced", "traced", "spans.json"),
                            os.path.join(results, stem + "-spans.json"))
            with open(os.path.join(results, stem + ".json"), "w") as fh:
                json.dump(rec, fh, indent=1)
            recs.append(rec)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for rec in recs:
        print("\n".join(report(rec)))
    env = recs[0]["environment"]
    print("environment: " + ", ".join(f"{k}={env[k]}" for k in
                                      ("commit", "python", "numpy", "scipy", "nproc",
                                       "cpu_model", "seed")))
    if len(recs) == 1:
        out = recs[0]["result"]
    else:
        out = {"correct": all(r["result"]["correct"] for r in recs),
               "attempted": sum(r["result"]["attempted"] for r in recs),
               "failed": sum(r["result"]["failed"] for r in recs),
               "metrics": {f"{r['workload']}.{k}": v for r in recs
                           for k, v in r["result"]["metrics"].items()}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
