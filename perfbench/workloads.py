"""The three benchmark workloads: seeded inputs and the step sequence of each.

A step is either an `oscnodal` command line (run through `oscnodal.cli.main`)
or a library call that has no command-line form.  README commands are kept
verbatim in full mode; the other steps take their inputs from the workload
seed.  `tiny=True` shrinks every size (N ~ 20, 2 seeds) so that every step,
check and trace path runs in seconds; tiny results are not comparable with
full ones.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("kernels", "nodal", "caustic")

#: criterion 9's box, which is also the CLI's default montecarlo box
NODAL_BOX = ((0.4, 0.6), (-0.1, 0.1))


@dataclass(frozen=True)
class Step:
    """One timed step and the checks run on its outputs afterwards.

    `argv` is a CLI command line, or `call` names a library call.  `checks`
    lists check names understood by checks.py; `params` carries what those
    checks need (output file, tolerance, d and N, ...).
    """

    name: str
    argv: tuple = None
    call: str = None
    checks: tuple = ()
    params: dict = field(default_factory=dict)


def montecarlo_base_seed(seed):
    """Base seed handed to `montecarlo --seed` for the workload seed."""
    return 1000 * int(seed) + 1


def _rng(seed, workload):
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def write_pairs(path, rng, d, n_pairs):
    """Seeded point pairs: a third each near |x| = 0.6, 1.0 and 1.6.

    |x| = 1.6 lies deep in the forbidden region, where the kernel at N = 1600
    is far below float underflow; y = x + 0.05 * noise.
    """
    radii = np.resize([0.6, 1.0, 1.6], n_pairs)
    rows = []
    for r in radii:
        direction = rng.standard_normal(d)
        direction /= np.linalg.norm(direction)
        x = (r + 0.02 * rng.uniform(-1.0, 1.0)) * direction
        y = x + 0.05 * rng.standard_normal(d)
        rows.append([repr(float(c)) for c in np.concatenate([x, y])])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j+1}" for j in range(d)] + [f"y{j+1}" for j in range(d)])
        writer.writerows(rows)


def _shifted(start, stop, step, frac):
    """start:stop:step with both ends moved by frac of a step (same length)."""
    shift = frac * step
    return f"{start + shift!r}:{stop + shift!r}:{step!r}"


def _kernels(seed, inputs, tiny):
    rng = _rng(seed, "kernels")
    n_pairs = 6
    p2 = os.path.join(inputs, "pairs_d2.csv")
    p3 = os.path.join(inputs, "pairs_d3.csv")
    write_pairs(p2, rng, 2, n_pairs)
    write_pairs(p3, rng, 3, n_pairs)
    n_big, n_d3, n_tube, n_density, n_bulk = ("20", "12", "20", "20", "20") if tiny \
        else ("1600", "200", "100", "400", "800")
    sweep_ns = "20,30" if tiny else "100,200,400,800,1600"
    pair_checks = ("exit", "finite", "pairs_vs_mehler", "pairs_vs_mpmath", "identical")
    tol_checks = ("exit", "finite", "tolerance_exit", "identical")
    steps = [
        Step("projector_d2_pairs",
             ("projector", "--d", "2", "--N", n_big, "--pairs-csv", p2),
             checks=pair_checks, params={"d": 2, "N": int(n_big), "output": "projector.csv"}),
        Step("projector_d3_pairs",
             ("projector", "--d", "3", "--N", n_d3, "--pairs-csv", p3),
             checks=pair_checks, params={"d": 3, "N": int(n_d3), "output": "projector.csv"}),
        Step("tube_mass",
             ("tube-mass", "--d", "2", "--N", n_tube, "--kappa", "1.0", "--tolerance", "0.1"),
             checks=tol_checks, params={"tolerance": 0.1, "output": "tube_mass.csv"}),
    ]
    for point in ("allowed", "allowed-annulus", "caustic", "forbidden-annulus", "forbidden"):
        argv = ("scaling-sweep", "--d", "2", "--N", sweep_ns, "--point", point,
                "--tolerance", "0.06")
        if point == "allowed-annulus":
            argv += ("--s", "4")
        steps.append(Step(f"sweep_{point.replace('-', '_')}", argv, checks=tol_checks,
                          params={"tolerance": 0.06, "output": "scaling_sweep.csv"}))
    annulus = ("density", "--regime", "allowed-annulus", "--alpha", "0.5", "--N", n_density,
               "--with-exact", "--tolerance", "1.0")
    density = {"tolerance": 1.0, "output": "density.csv"}
    steps += [
        Step("density_allowed_annulus", annulus, checks=tol_checks, params=density),
        Step("density_allowed_annulus_inside", annulus + ("--u1-range", "-3:-0.1:0.2"),
             checks=tol_checks, params=density),
        Step("density_forbidden_bulk",
             ("density", "--regime", "forbidden-bulk", "--N", n_bulk, "--u1-range",
              "0.2:1:0.2", "--with-exact", "--tolerance", "0.1"),
             checks=tol_checks, params={"tolerance": 0.1, "output": "density.csv"}),
        Step("projector_readme",
             ("projector", "--d", "2", "--N", "40", "--x", "0.5,0.1", "--y", "0.2,-0.3",
              "-o", "pi.csv"),
             checks=("exit", "finite", "pairs_vs_mehler", "identical"),
             params={"d": 2, "N": 40, "output": "pi.csv"}),
    ]
    return steps


def _nodal(seed, inputs, tiny):
    base = str(montecarlo_base_seed(seed))
    n_length, n_radial, n_readme, n_big = ("20",) * 4 if tiny else ("60", "100", "200", "400")
    seeds = {k: ("2" if tiny else v) for k, v in
             (("length", "20"), ("crossings", "400"), ("radial", "50"))}
    mc = ("montecarlo", "--d", "2")
    out = {"output": "montecarlo.csv"}
    crossings = ("exit", "finite", "crossings_even", "crossings_constant", "identical")
    return [
        Step("mc_nodal_length",
             mc + ("--N", n_length, "--seeds", seeds["length"], "--seed", base,
                   "--statistic", "nodal-length"),
             checks=("exit", "finite", "nodal_vs_kac_rice", "identical"),
             params=out),
        Step("mean_density_box", call="mean_density_box",
             checks=("finite",), params={"N": int(n_length), "box": NODAL_BOX}),
        Step("mc_crossings_400",
             mc + ("--N", n_big, "--seeds", seeds["crossings"], "--seed", base,
                   "--statistic", "caustic-crossings"),
             checks=crossings, params={**out, "N": int(n_big)}),
        Step("mc_crossings_readme",
             ("montecarlo", "--statistic", "caustic-crossings", "--d", "2", "--N", n_readme,
              "--seeds", seeds["crossings"]),
             checks=crossings, params={**out, "N": int(n_readme)}),
        Step("mc_radial_profile",
             mc + ("--N", n_radial, "--seeds", seeds["radial"], "--seed", base,
                   "--statistic", "radial-profile"),
             checks=("exit", "finite", "identical"), params=out),
    ]


def _caustic(seed, inputs, tiny):
    frac = float(_rng(seed, "caustic").random())
    pi0_grid = "-2:2:2" if tiny else "-2:2:0.25"
    u1_d3, v1_d3 = ("0:0:1", "0:0:1") if tiny else \
        (_shifted(-1.0, -1.0, 0.1, frac), _shifted(0.0, 0.0, 0.1, frac))
    deep, fine, coarse = (1.0, 0.5, 1.0) if tiny else (0.05, 0.03, 0.1)
    pi0_checks = ("exit", "finite", "pi0_oracle", "identical")
    airy_checks = ("exit", "finite", "airy_oracle", "identical")
    tube_checks = ("exit", "finite", "identical")
    tube = ("density", "--regime", "caustic-tube")
    return [
        Step("pi0_d3",
             ("pi0", "--d", "3", "--u1-range", u1_d3, "--v1-range", v1_d3,
              "--tangential-sep", "0.5"),
             checks=pi0_checks, params={"d": 3, "output": "pi0.csv"}),
        Step("pi0_d2_readme",
             ("pi0", "--d", "2", "--u1-range", pi0_grid, "--v1-range", pi0_grid,
              "--tangential-sep", "0.5"),
             checks=pi0_checks, params={"d": 2, "output": "pi0.csv"}),
        Step("airy_deep",
             ("airy", "--k", "-1.5", "--s", _shifted(-40.0, 10.0, deep, frac)),
             checks=airy_checks, params={"output": "airy.csv"}),
        Step("airy_readme",
             ("airy", "--k", "-1", "--s", "-10:10:1.0" if tiny else "-10:10:0.05",
              "-o", "airy.csv"),
             checks=airy_checks, params={"output": "airy.csv"}),
        Step("density_tube_d2_readme",
             tube + ("--d", "2", "--u1-range", "-3:3:1" if tiny else "-3:3:0.1"),
             checks=tube_checks, params={"output": "density.csv"}),
        Step("density_tube_d2_fine",
             tube + ("--d", "2", "--u1-range", _shifted(-6.0, 3.0, fine, frac)),
             checks=tube_checks, params={"output": "density.csv"}),
        Step("density_tube_d3",
             tube + ("--d", "3", "--u1-range", _shifted(-6.0, 3.0, coarse, frac)),
             checks=tube_checks, params={"output": "density.csv"}),
    ]


_BUILDERS = {"kernels": _kernels, "nodal": _nodal, "caustic": _caustic}


def build_steps(workload, seed, inputs, tiny=False):
    """Write the workload's input files under `inputs` and return its steps."""
    os.makedirs(inputs, exist_ok=True)
    return _BUILDERS[workload](seed, inputs, tiny)
