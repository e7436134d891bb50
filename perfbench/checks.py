"""Correctness checks on a workload's outputs, run after the timed section.

Every step lists its checks in workloads.py.  Each check gives one pass/fail
record; fail_frac is failed records over all records.  A failure is an
exception, a nonzero exit, a non-finite value, or a value outside its oracle
tolerance.  The oracles are independent of the code path under test:

  pairs_vs_mehler    pi_exact vs pi_mehler at 1e-8 relative where |x|, |y| <= 1.1
                     (criterion 1's tolerance)
  pairs_vs_mpmath    pi_exact vs an mpmath Hermite recurrence beyond that
  tolerance_exit     the CLI's exit status agrees with its own --tolerance test
  nodal_vs_kac_rice  MC nodal length within 3 standard errors of the box-averaged
                     Kac-Rice mean times the box area (criterion 9)
  crossings_*        counts even; mean * hbar^(2/3) within 15% of C0 (criterion 8)
  pi0_oracle         the pi0 table vs pi0_contour at the same points
  airy_oracle        every 50th value vs the gamma_integral route at 1e-8
                     (criterion 6's measure)
  identical          each CSV is byte-identical across the run's rounds

A miss of a value check is re-checked against mpmath.  The record still
fails; the re-check only says whether a known defect explains the miss (an
oscnodal oracle route that is wrong, or pi_exact cancellation), which decides
whether the run counts as correct.
"""

from __future__ import annotations

import math
import os
import re
import warnings

import mpmath
import numpy as np

#: checks that fail at the seed commit because of documented defects; they are
#: counted in fail_frac like any other failure, but do not make a run incorrect
#: as long as they fail in exactly the recorded way
KNOWN_DEFECTS = {
    ("kernels", "density_allowed_annulus"): {
        "status": 1,
        "checks": {"exit", "finite", "tolerance_exit", "identical"},
        "why": "README command: its default --u1-range -3:3:0.1 includes u1 >= 0, "
               "which the allowed annulus rejects (exit 1, no CSV)",
    },
    ("kernels", "density_forbidden_bulk"): {
        "status": 2,
        "checks": {"exit"},
        "why": "forbidden-bulk closed form is off from the exact density by a "
               "factor pi/2 (relative error 0.573 > 0.1, exit 2)",
    },
}

#: defects that value checks recognise from an mpmath re-check of each miss
MEHLER_DEFECT = "pi_mehler loses every digit to cancellation on allowed-region pairs " \
    "0.05 apart at N = 1600, without a warning (pi_exact agrees with mpmath)"
CANCELLATION_DEFECT = "pi_exact loses digits to cancellation where sum|terms|/|Pi| is " \
    "large, without a warning"
GAMMA_DEFECT = "the gamma_integral route misses by up to ~1e-8 at some negative s " \
    "(the contour table agrees with mpmath)"
#: a miss is put down to cancellation when it is within condition * this
CANCELLATION_EPS = 1e-16

PAIR_RTOL = 1e-8
MEHLER_REACH = 1.1
AIRY_TOL = 1e-8
AIRY_STRIDE = 50
PI0_TOL = 1e-8
CROSSING_RTOL = 0.15
NODAL_SIGMAS = 3.0


def _csv(step_dir, step):
    from oscnodal.cli import read_table
    path = os.path.join(step_dir, step.params["output"])
    if not os.path.exists(path):
        raise FileNotFoundError(f"no output {step.params['output']}")
    header, rows = read_table(path)
    if not rows:
        raise ValueError("output table has no rows")
    return header, rows, path


def _column(header, rows, name):
    i = header.index(name)
    return [row[i] for row in rows]


def check_exit(step, status, step_dir, ctx):
    return status == 0, f"exit status {status}"


def check_finite(step, status, step_dir, ctx):
    if step.call:
        value = ctx["values"][step.name]
        ok = value is not None and math.isfinite(value)
        return ok, f"value {value!r}"
    _, rows, _ = _csv(step_dir, step)
    bad = sum(1 for row in rows for v in row if isinstance(v, float) and not math.isfinite(v))
    return bad == 0, f"{bad} non-finite cells in {len(rows)} rows"


def check_tolerance_exit(step, status, step_dir, ctx):
    header, rows, path = _csv(step_dir, step)
    tol = step.params["tolerance"]
    command = step.argv[0]
    if command == "tube-mass":
        measure = abs(_column(header, rows, "ratio")[0] - 1.0)
    elif command == "density":
        measure = max(_column(header, rows, "relative_error"))
    else:
        with open(path) as fh:
            match = re.search(r"fitted slope .* = (\S+); expected (\S+)", fh.read())
        measure = abs(float(match.group(1)) - float(match.group(2)))
    expected = 2 if measure > tol else 0
    return status == expected, \
        f"measured {measure:.4g} vs tolerance {tol}: expected exit {expected}, got {status}"


def _mp_kernel(d, n, x, y):
    """Pi(x, y) and its condition sum|terms| / |Pi| from an mpmath Hermite
    recurrence (40 digits, no tracked exponents)."""
    with mpmath.workdps(40):
        hbar = mpmath.mpf(1) / (2 * n + d)
        scale = hbar ** mpmath.mpf(-0.25) * mpmath.pi ** mpmath.mpf(-0.25)
        coeffs = [(mpmath.sqrt(mpmath.mpf(2) / (k + 1)), mpmath.sqrt(mpmath.mpf(k) / (k + 1)))
                  for k in range(n)]

        def phis(c):
            xi = mpmath.mpf(c) / mpmath.sqrt(hbar)
            cur = scale * mpmath.exp(-xi * xi / 2)
            prev = mpmath.mpf(0)
            out = [cur]
            for a, b in coeffs:
                cur, prev = a * xi * cur - b * prev, cur
                out.append(cur)
            return out

        def conv(p, q, k):
            return mpmath.fsum(p[i] * q[k - i] for i in range(k + 1))

        arrays = [[u * v for u, v in zip(phis(x[j]), phis(y[j]))] for j in range(d)]
        acc, acc_abs = arrays[0], [abs(v) for v in arrays[0]]
        for other in arrays[1:-1]:
            other_abs = [abs(v) for v in other]
            acc, acc_abs = ([conv(acc, other, k) for k in range(n + 1)],
                            [conv(acc_abs, other_abs, k) for k in range(n + 1)])
        value = conv(acc, arrays[-1], n)
        total = conv(acc_abs, [abs(v) for v in arrays[-1]], n)
        return value, float(total / abs(value))


def _tracked(row, d):
    return mpmath.mpf(row[2 * d]) * mpmath.exp(int(row[2 * d + 1]))


def _pairs(step, step_dir):
    import oscnodal
    _, rows, _ = _csv(step_dir, step)
    d = step.params["d"]
    level = oscnodal.level_new(d, step.params["N"])
    near, far = [], []
    for row in rows:
        x = np.array(row[:d], dtype=float)
        y = np.array(row[d:2 * d], dtype=float)
        inside = max(np.linalg.norm(x), np.linalg.norm(y)) <= MEHLER_REACH
        (near if inside else far).append((x, y, _tracked(row, d)))
    return level, near, far


def _rel(value, ref):
    return float(abs(value / ref - 1))


def _pair_cause(level, x, y, value):
    """Which known defect, if any, explains a pair that missed its oracle."""
    ref, cond = _mp_kernel(level.d, level.N, x, y)
    err = _rel(value, ref)
    if err <= PAIR_RTOL:
        return MEHLER_DEFECT
    if err <= cond * CANCELLATION_EPS:
        return CANCELLATION_DEFECT
    return None


def _miss_report(worst, n_pairs, causes):
    detail = f"worst relative gap {worst:.2e} (tol {PAIR_RTOL:g}) on {n_pairs} pairs"
    if not causes:
        return detail, None
    unexplained = causes.count(None)
    detail += f"; {len(causes)} misses, {unexplained} not explained by a known defect"
    known = sorted({c for c in causes if c})
    return detail, ("; ".join(known) if not unexplained else None)


def check_pairs_vs_mehler(step, status, step_dir, ctx):
    """Pairs with |x|, |y| <= 1.1 against pi_mehler; mpmath arbitrates misses."""
    import oscnodal
    level, near, _ = _pairs(step, step_dir)
    worst, causes = 0.0, []
    for x, y, value in near:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rel = _rel(value, oscnodal.pi_mehler(level, x, y))
        worst = max(worst, rel)
        if rel > PAIR_RTOL:
            causes.append(_pair_cause(level, x, y, value))
    return (worst <= PAIR_RTOL, *_miss_report(worst, len(near), causes))


def check_pairs_vs_mpmath(step, status, step_dir, ctx):
    """Pairs beyond |x| or |y| = 1.1 against the mpmath Hermite recurrence."""
    level, _, far = _pairs(step, step_dir)
    worst, causes = 0.0, []
    for x, y, value in far:
        ref, cond = _mp_kernel(level.d, level.N, x, y)
        rel = _rel(value, ref)
        worst = max(worst, rel)
        if rel > PAIR_RTOL:
            causes.append(CANCELLATION_DEFECT if rel <= cond * CANCELLATION_EPS else None)
    return (worst <= PAIR_RTOL, *_miss_report(worst, len(far), causes))


def check_nodal_vs_kac_rice(step, status, step_dir, ctx):
    header, rows, _ = _csv(step_dir, step)
    mean = next(row for row in rows if row[0] == "mean")
    value, stderr = mean[3], mean[4]
    (x0, x1), (y0, y1) = ctx["steps"]["mean_density_box"].params["box"]
    density = ctx["values"].get("mean_density_box")
    if density is None:
        return False, "no mean_density_box value"
    predicted = density * (x1 - x0) * (y1 - y0)
    gap = abs(value - predicted)
    return gap <= NODAL_SIGMAS * stderr, \
        f"MC {value:.4f} +- {stderr:.4f} vs Kac-Rice {predicted:.4f}: {gap / stderr:.2f} sigma"


def check_crossings_even(step, status, step_dir, ctx):
    _, rows, _ = _csv(step_dir, step)
    counts = [row[3] for row in rows if row[0] != "mean"]
    odd = sum(1 for c in counts if c % 2)
    return odd == 0, f"{odd} odd counts of {len(counts)}"


def check_crossings_constant(step, status, step_dir, ctx):
    import oscnodal
    _, rows, _ = _csv(step_dir, step)
    mean = next(row for row in rows if row[0] == "mean")
    hbar = oscnodal.level_new(2, step.params["N"]).hbar
    scaled = mean[3] * hbar ** (2.0 / 3.0)
    c0 = oscnodal.caustic_crossing_constant()
    gap = abs(scaled / c0 - 1.0)
    return gap <= CROSSING_RTOL, f"count*hbar^(2/3) {scaled:.4f} vs C0 {c0:.4f} ({gap:.1%})"


def check_pi0_oracle(step, status, step_dir, ctx):
    from oscnodal import scaled_kernel
    header, rows, _ = _csv(step_dir, step)
    d = step.params["d"]
    frame = scaled_kernel.CausticFrame.from_point(np.eye(d)[0])
    worst = 0.0
    refs = []
    for u1, v1, sep, value in rows:
        tangent = np.zeros(d)
        tangent[1] = sep
        ref = scaled_kernel.pi0_contour(frame, u1 * frame.x0, v1 * frame.x0 + tangent)
        refs.append(ref)
        worst = max(worst, abs(value - ref))
    scale = max(abs(r) for r in refs)
    return worst <= PI0_TOL * scale, \
        f"worst |airy - contour| {worst:.2e} (tol {PI0_TOL:g} x max|Pi0| {scale:.3g})"


def _mp_ai_k(k, s):
    """Ai_k(s) for k < 0 from the antiderivative form, by mpmath quadrature
    (two Gauss-Legendre panels per unit; ~1e-11 at s = -40)."""
    kappa = -mpmath.mpf(k)
    with mpmath.workdps(20):
        upper = max(2.0, 30.0 - s)
        edges = mpmath.linspace(0, upper, int(2 * upper) + 2)
        total = mpmath.quad(lambda r: mpmath.airyai(s + r) * r ** (kappa - 1), edges,
                            method="gauss-legendre")
        return float(total / mpmath.gamma(kappa))


def check_airy_oracle(step, status, step_dir, ctx):
    """Every 50th value against the gamma_integral route; mpmath arbitrates misses."""
    from oscnodal import airy
    _, rows, _ = _csv(step_dir, step)
    worst, misses, table_ok = 0.0, 0, True
    sample = rows[::AIRY_STRIDE]
    for k, s, value, _ in sample:
        gap = abs(value - airy.ai_k(k, s, method="gamma_integral")) / max(1.0, abs(value))
        worst = max(worst, gap)
        if gap > AIRY_TOL:
            misses += 1
            table_ok &= abs(value - _mp_ai_k(k, s)) / max(1.0, abs(value)) <= AIRY_TOL
    detail = f"worst gap {worst:.2e} vs gamma_integral on {len(sample)} points (tol {AIRY_TOL:g})"
    if misses:
        detail += f"; {misses} misses, the table {'agrees' if table_ok else 'disagrees'}" \
                  " with mpmath on them"
    return worst <= AIRY_TOL, detail, (GAMMA_DEFECT if misses and table_ok else None)


def _csv_bytes(step_dir):
    if not os.path.isdir(step_dir):
        return {}
    out = {}
    for name in sorted(os.listdir(step_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(step_dir, name), "rb") as fh:
                out[name] = fh.read()
    return out


def check_identical(step, status, step_dir, ctx):
    first = _csv_bytes(step_dir)
    if not first:
        return False, "no CSV output"
    others = [_csv_bytes(os.path.join(rep, "steps", step.name)) for rep in ctx["reps"][1:]]
    differ = sum(1 for other in others if other != first)
    return differ == 0, f"{differ} of {len(others)} later rounds differ"


CHECKS = {name[len("check_"):]: fn for name, fn in globals().items()
          if name.startswith("check_")}


def run_checks(workload, steps, statuses, values, reps):
    """Run every step's checks on the first round's outputs.

    Returns a list of {"check", "passed", "known_defect", "detail"} records.
    """
    ctx = {"steps": {s.name: s for s in steps}, "values": values, "reps": reps}
    records = []
    for step in steps:
        step_dir = os.path.join(reps[0], "steps", step.name)
        status = statuses[step.name]
        defect = KNOWN_DEFECTS.get((workload, step.name))
        for kind in step.checks:
            explained = None
            try:
                passed, detail, *explained = CHECKS[kind](step, status, step_dir, ctx)
                explained = explained[0] if explained else None
            except Exception as exc:  # a check that cannot run is a failed output
                passed, detail = False, f"{type(exc).__name__}: {exc}"
            known = None
            if not passed and explained:
                known = explained
            elif not passed and defect and kind in defect["checks"] \
                    and status == defect["status"]:
                known = defect["why"]
            records.append({"check": f"{step.name}.{kind}", "passed": bool(passed),
                            "known_defect": known, "detail": detail})
    return records
