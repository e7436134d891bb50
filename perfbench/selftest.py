"""Self-test of the benchmark in tiny mode (N ~ 20, 2 seeds).

Runs every workload with --trace 0 and --trace 1 through run.py, checks that
the last output line has the keys and metric names BENCHMARK.json promises,
and that a directory holding only the benchmark fails without a result.
Tiny numbers are not comparable with full ones, and some checks fail at
N ~ 20 by design; only the shape of the output is tested.  Run from the
root of the checkout:

    python3 perfbench/selftest.py
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(cwd, *args):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=175)


def shape_problems(out, spec, key):
    want = {m["name"]: m["unit"] for m in spec[key]}
    problems = []
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(out)}")
    if not isinstance(out.get("correct"), bool):
        problems.append("correct is not a bool")
    if not (isinstance(out.get("attempted"), int) and out["attempted"] >= 1
            and isinstance(out.get("failed"), int) and 0 <= out["failed"] <= out["attempted"]):
        problems.append("attempted/failed are not counts")
    got = out.get("metrics", {})
    if set(got) != set(want):
        problems.append(f"metric names differ: {sorted(set(got) ^ set(want))}")
    for name, metric in got.items():
        value = metric.get("value")
        if metric.get("unit") != want.get(name):
            problems.append(f"{name}: unit {metric.get('unit')!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    return problems


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failures = []
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        for workload in (w["name"] for w in spec["workloads"]):
            label = f"{workload} --trace {trace}"
            proc = run(root, "--workload", workload, "--seed", "1", "--seconds", "1",
                       "--trace", trace, "--tiny")
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-1500:]}")
                continue
            problems = shape_problems(json.loads(proc.stdout.splitlines()[-1]), spec, key)
            failures += [f"{label}: {p}" for p in problems]
            print(f"ok   {label}" if not problems else f"FAIL {label}")

    bare = os.path.join(root, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", "kernels", "--seed", "1", "--seconds", "1",
                   "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append("a directory without src/oscnodal did not fail cleanly")
        else:
            print("ok   bare directory fails without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
