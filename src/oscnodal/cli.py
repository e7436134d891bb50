"""Command-line front end: experiment orchestration and CSV/JSON emission.

Subcommands: projector, airy, pi0, density, scaling-sweep, montecarlo,
tube-mass.  Every run writes an RFC-4180 CSV (leading '#' comment block
describing each column, then a header row, full round-trip float precision)
plus a JSON manifest recording the parameters, library version, wall-clock
time, the Python, numpy and scipy versions and the CPU count.  Identical
configuration and seed give byte-identical CSV output.

Schema note: the manifest's "scipy" key is the version of the scipy module
loaded in this process when the manifest is written, and null when none is.
scipy is no longer a dependency and no subcommand imports it, so the key is
null in every CLI run; it is kept so that manifests keep one schema.  The
version comes from the loaded module, not from the package metadata, whose
lookup costs ~20 ms a run.

Configuration can come from flags or a plain key=value file (--config);
explicit flags win.  Ranges use start:stop:step, discrete sets use commas.

Exit codes: 0 success, 1 usage error, 2 validation failure (a requested
check landed outside its tolerance).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, airy, densities, montecarlo, projector, scaled_kernel
from .semiclassical import ResourceLimitError, TrackedReal, level_new

VALIDATION_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _parse_range(text):
    """start:stop:step (inclusive stop up to rounding) or comma list; never empty."""
    is_range = ":" in text
    parts = text.split(":") if is_range else [p for p in text.split(",") if p]
    if is_range and len(parts) != 3:
        raise ValueError(f"range must be start:stop:step, got {text!r}")
    values = [float(p) for p in parts]
    if not all(map(math.isfinite, values)):
        raise ValueError(f"range {text!r} holds a non-finite number")
    if is_range:
        start, stop, step = values
        if step <= 0:
            raise ValueError("range step must be positive")
        n = int(math.floor((stop - start) / step + 1e-9)) + 1
        values = [start + i * step for i in range(n)]
    if not values:
        raise ValueError(f"range {text!r} holds no values")
    return values


class _FlagError(Exception):
    """A float flag off its domain.  Not a ValueError, so argparse passes it to main (exit 1)."""


def _real(name, low=-math.inf, high=math.inf, interval=None):
    """argparse type of the float flag --name: finite, in [low, high] (spelled `interval`)."""
    want = f"{name} must lie in {interval}" if interval else f"needs a finite {name}"

    def parse(text):
        value = float(text)
        if not (math.isfinite(value) and low <= value <= high):
            raise _FlagError(f"--{name}: {want}, got {text!r}")
        return value
    return parse


_TOLERANCE = _real("tolerance", 0.0, interval="[0, inf)")
_ALPHA = _real("alpha", 0.0, 2.0 / 3.0, interval="[0, 2/3]")


def _parse_int_list(text):
    return [int(p) for p in text.split(",") if p]


def _config_flags(args):
    """The --config file's key=value lines as flags; a true switch is a bare flag."""
    values = {}
    with open(args.config) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config lines must be key=value, got {line!r}")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    values.pop("config", None)
    flags = []
    for key, raw in values.items():
        if not hasattr(args, key):
            raise ValueError(f"unknown config key {key!r}")
        flag = "--" + key.replace("_", "-")
        if not isinstance(getattr(args, key), bool):
            flags.append(f"{flag}={raw}")
        elif raw.lower() in ("1", "true", "yes"):
            flags.append(flag)
        elif raw.lower() not in ("0", "false", "no"):
            raise ValueError(f"config key {key!r} is a switch; got {raw!r}")
    return flags


def _write_table(path, comments, header, rows):
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _write_manifest(path, command, params, elapsed):
    manifest = {
        "command": command,
        "parameters": params,
        "library_version": __version__,
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "scipy": getattr(sys.modules.get("scipy"), "__version__", None),
        "cpu_count": os.cpu_count(),
        "wall_clock_seconds": elapsed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_table(path):
    """Read back a CSV written by this CLI: (header, rows-of-floats-or-str)."""
    header = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                continue
            row = []
            for cell in line.split(","):
                try:
                    row.append(float(cell))
                except ValueError:
                    row.append(cell)
            rows.append(row)
    return header, rows


def _cmd_projector(args):
    level = level_new(args.d, args.N)
    if args.pairs_csv:
        xs, ys, _ = projector.read_batch_csv(args.pairs_csv)
    else:
        x = np.array([float(v) for v in args.x.split(",")])
        y = np.array([float(v) for v in (args.y or args.x).split(",")])
        xs, ys = [x], [y]
    if args.method == "exact":
        values = projector.pi_exact_batch(level, xs, ys)
    else:
        values = [TrackedReal.from_float(projector.pi_mehler(level, x, y))
                  for x, y in zip(xs, ys)]
    d = level.d
    header = [f"x{j+1}" for j in range(d)] + [f"y{j+1}" for j in range(d)] \
        + ["pi_mantissa", "pi_exponent"]
    rows = [[float(c) for c in x] + [float(c) for c in y] + list(v.to_base_e())
            for x, y, v in zip(xs, ys, values)]
    comments = [
        f"eigenspace projection kernel, d={d} N={level.N} hbar={level.hbar!r}",
        "columns x1..xd,y1..yd: evaluation points",
        "columns pi_mantissa,pi_exponent: kernel value = mantissa * e**exponent",
        f"method: {args.method}",
    ]
    _write_table(args.output, comments, header, rows)
    return 0


def _cmd_airy(args):
    svals = _parse_range(args.s)
    values = airy.ai_k(args.k, np.array(svals), method=args.method)
    rows = [[args.k, s, float(value), args.method] for s, value in zip(svals, values)]
    comments = [
        "weighted Airy function values",
        "columns: k (weight), s (argument), value = Ai_k(s), method",
    ]
    _write_table(args.output, comments, ["k", "s", "value", "method"], rows)
    return 0


def _cmd_pi0(args):
    frame = scaled_kernel.CausticFrame.from_point(
        np.array([1.0] + [0.0] * (args.d - 1)))
    u1s = _parse_range(args.u1_range)
    v1s = _parse_range(args.v1_range)
    tangent = np.zeros(args.d)
    if args.d >= 2:
        tangent[1] = args.tangential_sep
    offsets = [(u1, v1) for u1 in u1s for v1 in v1s]
    us = [u1 * frame.x0 for u1, _ in offsets]
    vs = [v1 * frame.x0 + tangent for _, v1 in offsets]
    if args.method == "airy":
        values = scaled_kernel.pi0_airy_batch(frame, us, vs)
    else:
        values = [scaled_kernel.pi0_contour(frame, u, v) for u, v in zip(us, vs)]
    rows = [[u1, v1, args.tangential_sep, float(val)]
            for (u1, v1), val in zip(offsets, values)]
    comments = [
        f"caustic scaling-limit kernel, d={args.d}, tangential separation fixed",
        "columns: u1, v1 (normal offsets), tangential_sep, value = Pi0(u, v)",
    ]
    _write_table(args.output, comments, ["u1", "v1", "tangential_sep", "value"], rows)
    return 0


_REGIMES = {
    # regime -> (region, default --u1-range on the regime's side, default --alpha)
    "allowed-bulk": (densities.Region.ALLOWED_BULK, "-0.9:-0.1:0.1", 0.0),
    "allowed-annulus": (densities.Region.ALLOWED_ANNULUS, "-3:-0.1:0.1", 0.5),
    "caustic-tube": (densities.Region.CAUSTIC_TUBE, "-3:3:0.1", 2.0 / 3.0),
    "forbidden-annulus": (densities.Region.FORBIDDEN_ANNULUS, "0.1:3:0.1", 0.5),
    "forbidden-bulk": (densities.Region.FORBIDDEN_BULK, "0.1:3:0.1", 0.0),
}


def _refuse_one_dimensional(levels):
    """Refuse, before any basis is built, d = 1 or N = 0: one eigenfunction, Omega = 0."""
    for level in levels:
        if level.d == 1 or level.N == 0:
            raise ValueError(f"d = {level.d}, N = {level.N} has a one-dimensional eigenspace: "
                             "Omega = 0, so the exact density is 0 and has no log")


def _cmd_density(args):
    level = level_new(args.d, args.N)
    region, default_range, default_alpha = _REGIMES[args.regime]
    frame = scaled_kernel.CausticFrame.from_point(
        np.array([1.0] + [0.0] * (args.d - 1)))
    # an explicit --alpha off the regime's own is rejected by RegimeQuery
    alpha = default_alpha if args.alpha is None else args.alpha
    if args.u1_range is None:
        args.u1_range = default_range
    u1s = _parse_range(args.u1_range)
    queries = [densities.RegimeQuery(frame=frame, u=u1 * frame.x0, alpha=alpha, region=region)
               for u1 in u1s]
    try:
        # one Airy table for a caustic-tube range
        predictions = densities.density_regime_batch(queries, level)
    except ValueError as exc:
        raise ValueError(f"--u1-range {args.u1_range!r}: {exc}") from None
    rows = [[args.regime, args.d, args.N, level.hbar, alpha, 2.0 * u1,
             predicted.log_abs() if predicted.mantissa else -math.inf]
            for u1, predicted in zip(u1s, predictions)]
    header = ["regime", "d", "N", "hbar", "alpha", "s", "predicted_density_log"]
    comments = [
        "Kac-Rice nodal density by regime; densities reported as natural logs",
        "s = 2<u, x0>: signed quadratic distance parameter to the caustic",
        "predicted_density_log: leading-order closed form (rescaled units for",
        "annuli/tube, physical units for bulk regimes)",
    ]
    worst = 0.0
    if args.with_exact:
        _refuse_one_dimensional([level])
        header += ["exact_density_log", "relative_error"]
        comments.append("exact_density_log: physical-units density from the exact kernel jet")
        comments.append("relative_error compares prediction and exact in physical units")
        # one basis recurrence and one Kac-Rice reduction for the whole table
        points = [frame.x0 + level.hbar ** alpha * query.u for query in queries]
        omegas = [kr.omega for kr in densities.omega_exact_batch(level, points)]
        # compare in the physical (unscaled) normalization
        log_scale = alpha * math.log(level.hbar)
        exact = densities.kac_rice_density_batch(omegas).tolist()
        for row, predicted, f in zip(rows, predictions, exact):
            rel = abs(math.exp(predicted.log_abs() - log_scale - math.log(f)) - 1.0)
            row += [math.log(f), rel]
            worst = max(worst, rel)
    _write_table(args.output, comments, header, rows)
    if args.with_exact and args.tolerance is not None and worst > args.tolerance:
        print(f"validation failure: worst relative error {worst:.3g} > {args.tolerance}",
              file=sys.stderr)
        return VALIDATION_EXIT
    return 0


_SWEEP_SLOPES = {
    # sweep point -> expected unscaled log-log slope d(log F)/d(log hbar)
    "allowed": -1.0,
    "allowed-annulus": -0.75,
    "caustic": -2.0 / 3.0,
    "forbidden-annulus": -0.625,
    "forbidden": -0.5,
}


#: |x| of the sweep points that sit at a fixed radius
_SWEEP_RADIUS = {"allowed": 0.5, "caustic": 1.0, "forbidden": 1.3}


def _sweep_radius(regime, level, alpha, s):
    if regime in _SWEEP_RADIUS:
        return _SWEEP_RADIUS[regime]
    shift = level.hbar ** alpha * s
    inside = regime == "allowed-annulus"
    if not 0.0 < shift < (1.0 if inside else math.inf):
        need = "0 < hbar^alpha * s < 1" if inside else "a finite hbar^alpha * s > 0"
        raise ValueError(f"--point {regime} needs --s and --alpha with {need}; at N = {level.N}, "
                         f"--alpha {alpha!r} and --s {s!r} give hbar^alpha * s = {shift!r}")
    return math.sqrt(1.0 - shift if inside else 1.0 + shift)


def _cmd_scaling_sweep(args):
    ns = _parse_int_list(args.N)
    if len(set(ns)) < 2:
        raise ValueError(f"scaling-sweep needs at least two distinct N values, got --N {args.N!r}")
    levels = [level_new(args.d, n) for n in ns]
    _refuse_one_dimensional(levels)
    # the sweep points r e1, in d dimensions
    points = [_sweep_radius(args.point, level, args.alpha, args.s) * np.eye(args.d)[0]
              for level in levels]
    # one Kac-Rice reduction over the table (each N has its own basis)
    omegas = [densities.omega_exact(level, x).omega for level, x in zip(levels, points)]
    log_f = [math.log(f) for f in densities.kac_rice_density_batch(omegas).tolist()]
    log_h = [math.log(level.hbar) for level in levels]
    rows = [[args.point, args.d, level.N, level.hbar, float(np.linalg.norm(x)), log]
            for level, x, log in zip(levels, points, log_f)]
    slope = float(np.polyfit(log_h, log_f, 1)[0])
    expected = _SWEEP_SLOPES[args.point]
    comments = [
        "log-log scaling sweep of the exact Kac-Rice density across N",
        "columns: regime, d, N, hbar, |x|, log_density (natural log, physical units)",
        f"fitted slope d(log F)/d(log hbar) = {slope!r}; expected {expected!r}",
    ]
    _write_table(args.output, comments,
                 ["regime", "d", "N", "hbar", "radius", "log_density"], rows)
    print(f"fitted slope {slope:.4f} (expected {expected})")
    if args.tolerance is not None and abs(slope - expected) > args.tolerance:
        print(f"validation failure: |slope - expected| = {abs(slope-expected):.3g} "
              f"> {args.tolerance}", file=sys.stderr)
        return VALIDATION_EXIT
    return 0


def _cmd_montecarlo(args):
    level = level_new(args.d, args.N)
    seeds = list(range(args.seed, args.seed + args.seeds))
    if args.statistic == "radial-profile":
        spec = montecarlo.EnsembleSpec(level=level, seeds=tuple(seeds),
                                       n_rays=args.rays)
        radii = _parse_range(args.radii)
        rows = [[f"r={r!r}", args.N, args.statistic, est.value, est.std_error,
                 est.resolution]
                for r, est in zip(radii, montecarlo.radial_zero_profile(spec, radii))]
    else:
        if args.statistic == "caustic-crossings":
            values, est = montecarlo.caustic_crossings_ensemble(level, seeds)
        else:  # nodal-length
            half = args.box_size / 2.0
            box = ((args.box_x - half, args.box_x + half),
                   (args.box_y - half, args.box_y + half))
            values, est = montecarlo.nodal_length_ensemble(
                level, seeds, box, level.hbar / 8.0)
        rows = [[seed, args.N, args.statistic, float(value), 0.0, est.resolution]
                for seed, value in zip(seeds, values)]
        rows.append(["mean", args.N, args.statistic, est.value, est.std_error,
                     est.resolution])
    comments = [
        f"Monte Carlo nodal statistics, d={args.d} N={args.N}, base seed {args.seed}",
        "columns: seed (or aggregate label), N, statistic, value, std_error, resolution",
    ]
    _write_table(args.output, comments,
                 ["seed", "N", "statistic", "value", "std_error", "resolution"], rows)
    return 0


def _cmd_tube_mass(args):
    level = level_new(args.d, args.N)
    exact, asym = densities.tube_mass(level, args.kappa)
    ratio = exact / asym
    comments = [
        "expected L2 mass of a normalized eigenfunction in the kappa*hbar^(2/3)",
        "tube around the caustic: exact kernel integral vs leading asymptotics",
    ]
    _write_table(args.output, comments,
                 ["d", "N", "kappa", "exact", "asymptotic", "ratio"],
                 [[args.d, args.N, args.kappa, exact, asym, ratio]])
    print(f"tube mass exact/asymptotic ratio {ratio:.4f}")
    if args.tolerance is not None and abs(ratio - 1.0) > args.tolerance:
        print(f"validation failure: |ratio-1| = {abs(ratio-1):.3g} > {args.tolerance}",
              file=sys.stderr)
        return VALIDATION_EXIT
    return 0


def build_parser():
    parser = _Parser(prog="oscnodal",
                     description="harmonic-oscillator projection kernels, caustic "
                                 "scaling limits and nodal densities")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("-o", "--output", default=None, help="output CSV path")

    p = sub.add_parser("projector", help="exact or residue-integral kernel values")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--N", type=int, default=40)
    p.add_argument("--x", default="0.5,0.0", help="comma-separated point")
    p.add_argument("--y", default=None, help="defaults to x")
    p.add_argument("--pairs-csv", default=None, help="batch input CSV (x1..xd,y1..yd)")
    p.add_argument("--method", choices=["exact", "mehler"], default="exact")
    common(p)

    p = sub.add_parser("airy", help="weighted Airy function table")
    p.add_argument("--k", type=_real("k"), default=None)
    p.add_argument("--s", default=None, help="range start:stop:step or comma list")
    p.add_argument("--method", choices=["auto", "contour", "gamma_integral",
                                        "asymptotic"], default="auto")
    common(p)

    p = sub.add_parser("pi0", help="caustic scaling-limit kernel table")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--u1-range", default="-2:2:0.5")
    p.add_argument("--v1-range", default="-2:2:0.5")
    p.add_argument("--tangential-sep", type=_real("tangential-sep"), default=0.0)
    p.add_argument("--method", choices=["airy", "contour"], default="airy")
    common(p)

    p = sub.add_parser("density", help="closed-form regime densities (optionally vs exact)")
    p.add_argument("--regime", choices=sorted(_REGIMES), default=None)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--N", type=int, default=200)
    p.add_argument("--alpha", type=_ALPHA, default=None,
                   help="the default depends on --regime: bulk 0, annuli 0.5, tube 2/3")
    p.add_argument("--u1-range", default=None,
                   help="start:stop:step or comma list; the default depends on --regime")
    p.add_argument("--with-exact", action="store_true")
    p.add_argument("--tolerance", type=_TOLERANCE, default=None,
                   help="exit 2 if any relative error exceeds this")
    common(p)

    p = sub.add_parser("scaling-sweep", help="log-log density slope across N")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--N", default="100,200,400,800,1600", help="comma list")
    p.add_argument("--point", choices=sorted(_SWEEP_SLOPES), default="caustic")
    p.add_argument("--alpha", type=_ALPHA, default=0.5)
    p.add_argument("--s", type=_real("s"), default=4.0,
                   help="annulus points only: |x|^2 = 1 -+ hbar^alpha * s "
                        "(at 4 every default N sits in the annulus regime)")
    p.add_argument("--tolerance", type=_TOLERANCE, default=None,
                   help="exit 2 if |slope - expected| exceeds this")
    common(p)

    p = sub.add_parser("montecarlo", help="ensemble nodal statistics")
    p.add_argument("--statistic", choices=["caustic-crossings", "nodal-length",
                                           "radial-profile"], default=None)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--N", type=int, default=200)
    p.add_argument("--seeds", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--box-x", type=_real("box-x"), default=0.5)
    p.add_argument("--box-y", type=_real("box-y"), default=0.0)
    p.add_argument("--box-size", type=_real("box-size", math.nextafter(0.0, 1.0),
                                            interval="(0, inf)"), default=0.2)
    p.add_argument("--rays", type=int, default=32)
    p.add_argument("--radii", default="0.5:1.4:0.1")
    common(p)

    p = sub.add_parser("tube-mass", help="L2 mass in the critical caustic tube")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--N", type=int, default=400)
    p.add_argument("--kappa", type=_real("kappa"), default=1.0)
    p.add_argument("--tolerance", type=_TOLERANCE, default=None)
    common(p)

    return parser


@functools.cache
def _parser():
    """build_parser's parser, built by the first main call and kept for the
    process (in-process callers run many commands); not built at import."""
    return build_parser()


_COMMANDS = {
    "projector": _cmd_projector,
    "airy": _cmd_airy,
    "pi0": _cmd_pi0,
    "density": _cmd_density,
    "scaling-sweep": _cmd_scaling_sweep,
    "montecarlo": _cmd_montecarlo,
    "tube-mass": _cmd_tube_mass,
}


_REQUIRED = {
    "airy": ("k", "s"),
    "density": ("regime",),
    "montecarlo": ("statistic",),
}

#: flags whose values may begin with '-' (ranges like -3:3:0.1); merged into
#: --flag=value form so argparse does not mistake the value for an option
_VALUE_FLAGS = {"--u1-range", "--v1-range", "--s", "--radii", "--x", "--y",
                "--k", "--box-x", "--box-y", "--tangential-sep"}


def _normalize_argv(argv):
    out = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg in _VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{arg}={argv[i + 1]}")
            i += 2
        else:
            out.append(arg)
            i += 1
    return out


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    argv = _normalize_argv(list(argv))
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # config values parse as flags ahead of the explicit ones, which win
            args = parser.parse_args(argv[:1] + _config_flags(args) + argv[1:])
    except (_FlagError, ValueError, OSError) as exc:
        print(f"oscnodal: error: {exc}", file=sys.stderr)
        return 1
    for key in _REQUIRED.get(args.command, ()):
        if getattr(args, key) is None:
            print(f"oscnodal: error: --{key} is required (flag or config)",
                  file=sys.stderr)
            return 1
    if args.output is None:
        args.output = f"{args.command.replace('-', '_')}.csv"
    start = time.time()
    try:
        status = _COMMANDS[args.command](args)
    except (ValueError, OSError, ImportError, ResourceLimitError) as exc:
        print(f"oscnodal: error: {exc}", file=sys.stderr)
        return 1
    _write_manifest(os.path.splitext(args.output)[0] + "_manifest.json",
                    args.command, _manifest_params(args), time.time() - start)
    return status


def _manifest_params(args):
    return {k: v for k, v in sorted(vars(args).items()) if k != "command"}


if __name__ == "__main__":
    sys.exit(main())
