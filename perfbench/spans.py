"""Span tracing of the oscnodal layers from outside the package.

Each layer's entry functions are replaced, at their module attributes, by
wrappers that record a span (id, parent id, layer, name, start, end) and the
layer's work counters.  Calls between modules, and calls inside a module
through its globals, both go through the module attribute, so the wrappers see
them.  Spans stay in memory until `dump`.  A layer's self time is the time
its spans cover minus the time their child spans cover (calls are serial:
the CLI runs one worker thread when OSCNODAL_THREADS is unset).
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("semiclassical", "projector", "densities", "montecarlo", "airy",
          "scaled_kernel", "cli")

#: per-layer metric names and units, in the order BENCHMARK.json lists them
LAYER_METRICS = (
    ("semiclassical.self_s", "s"),
    ("semiclassical.basis_rows", "count"),
    ("semiclassical.basis_reuse", "ratio"),
    ("projector.self_s", "s"),
    ("projector.evals", "count"),
    ("projector.ms_per_eval", "ms"),
    ("densities.self_s", "s"),
    ("densities.kac_rice_calls", "count"),
    ("densities.grid_points", "count"),
    ("montecarlo.self_s", "s"),
    ("montecarlo.march_s", "s"),
    ("montecarlo.cells_marched", "count"),
    ("montecarlo.sign_samples", "count"),
    ("montecarlo.fields_sampled_per_seed", "ratio"),
    ("airy.self_s", "s"),
    ("airy.ai_k_calls", "count"),
    ("airy.memo_hit_ratio", "ratio"),
    ("airy.contour_points", "count"),
    ("airy.us_per_point", "us"),
    ("scaled_kernel.self_s", "s"),
    ("scaled_kernel.pi0_calls", "count"),
    ("scaled_kernel.ms_per_pi0", "ms"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "bytes"),
)


class Tracer:
    """Installs the wrappers, keeps spans and counters, derives the metrics."""

    def __init__(self):
        # span: [id, parent, layer, name, start, end]
        self.spans = []
        self._stack = []
        self._undo = []
        self.counts = Counter()
        self._coords = set()
        self._fields = Counter()
        self._path_nodes = 0

    # -- recording ---------------------------------------------------------

    def span(self, layer, name, fn, before=None, after=None):
        """Wrap fn in a span; hooks before(args, kwargs) and after(args, kwargs, out)."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before:
                before(args, kwargs)
            rec = [len(spans), stack[-1] if stack else -1, layer, name, 0.0, 0.0]
            spans.append(rec)
            stack.append(rec[0])
            rec[4] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[5] = time.perf_counter()
                stack.pop()
            if after:
                after(args, kwargs, out)
            return out

        return wrapper

    def wrap(self, module, attr, layer, **hooks):
        original = getattr(module, attr)
        setattr(module, attr, self.span(layer, attr, original, **hooks))
        self._undo.append((module, attr, original))

    def restore(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def install(self):
        from oscnodal import airy, cli, densities, montecarlo, projector, scaled_kernel

        def basis(kind):
            def after(args, kwargs, out):
                hbar, nmax, xs = args[:3]
                xs = np.atleast_1d(np.asarray(xs, dtype=float))
                self.counts["basis_rows"] += (int(nmax) + 1) * xs.size
                self.counts["coords"] += xs.size
                self._coords.update((kind, float(hbar), int(nmax), x) for x in xs.tolist())
            return after

        for module in (projector, montecarlo):
            self.wrap(module, "_phi_mantexp", "semiclassical", after=basis("phi"))
        self.wrap(projector, "_phi_deriv_mantexp", "semiclassical", after=basis("dphi"))

        def count(key, amount=lambda args, kwargs, out: 1):
            def after(args, kwargs, out):
                self.counts[key] += amount(args, kwargs, out)
            return after

        for name in ("pi_exact", "covariance_jet"):
            self.wrap(projector, name, "projector", after=count("evals"))
        for name in ("pi_exact_batch", "jet_grid", "read_batch_csv"):
            self.wrap(projector, name, "projector")

        self.wrap(densities, "kac_rice_density", "densities", after=count("kac_rice_calls"))
        self.wrap(densities, "density_grid", "densities",
                  after=count("grid_points", lambda a, k, out: int(np.size(out))))
        for name in ("omega_exact", "density_regime", "omega_caustic_scaled",
                     "mean_density_box", "tube_mass"):
            self.wrap(densities, name, "densities")

        def sampled(args, kwargs, out):
            # keyed by the calling span: a field drawn again by the same ensemble call
            self._fields[(self._stack[-1] if self._stack else -1, out.seed)] += 1

        self.wrap(montecarlo, "sample_field", "montecarlo", after=sampled)
        self.wrap(montecarlo, "_marching_squares_length", "montecarlo",
                  after=count("cells_marched",
                              lambda a, k, out: (a[0].shape[0] - 1) * (a[0].shape[1] - 1)))
        self.wrap(montecarlo, "_circle_signs", "montecarlo",
                  after=count("sign_samples", lambda a, k, out: int(out.size)))
        for name in ("nodal_length_ensemble", "caustic_crossings_ensemble",
                     "radial_zero_profile", "_tensor_basis", "_point_basis", "_grid_values"):
            self.wrap(montecarlo, name, "montecarlo")

        def memo_probe(args, kwargs):
            k, s = args[0], args[1]
            method = args[2] if len(args) > 2 else kwargs.get("method", "auto")
            if method in ("auto", "contour") and np.ndim(s) == 0 and \
                    (method == "contour" or abs(float(s)) <= 200.0):
                self.counts["memo_lookups"] += 1
                self.counts["memo_hits"] += (float(k), float(s)) in airy._memo

        self.wrap(airy, "ai_k", "airy", before=memo_probe, after=count("ai_k_calls"))

        def path_nodes(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                self._path_nodes = len(out[0])
                return out
            return wrapper

        original_path = airy._upper_path
        airy._upper_path = path_nodes(original_path)
        self._undo.append((airy, "_upper_path", original_path))
        self.wrap(airy, "contour_integral", "airy",
                  after=count("contour_points",
                              lambda a, k, out: self._path_nodes * int(np.size(a[1]))))
        for name in ("_ai_k_contour", "ai"):
            self.wrap(airy, name, "airy")

        for name in ("pi0_airy", "pi0_contour"):
            self.wrap(scaled_kernel, name, "scaled_kernel", after=count("pi0_calls"))

        self.wrap(cli, "main", "cli")

    # -- derived metrics ---------------------------------------------------

    def self_times(self):
        """Self time per span id: duration minus the direct children's durations."""
        own = [s[5] - s[4] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                own[s[1]] -= s[5] - s[4]
        return own

    def metrics(self):
        own = self.self_times()
        self_s = defaultdict(float)
        inclusive = defaultdict(float)
        for s, t in zip(self.spans, own):
            self_s[s[2]] += t
            inclusive[s[3]] += s[5] - s[4]
        c = self.counts

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        fields = self._fields
        out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        out.update({
            "semiclassical.basis_rows": c["basis_rows"],
            "semiclassical.basis_reuse": ratio(len(self._coords), c["coords"]),
            "projector.evals": c["evals"],
            "projector.ms_per_eval": ratio(inclusive["pi_exact"] + inclusive["covariance_jet"],
                                           c["evals"], 1e3),
            "densities.kac_rice_calls": c["kac_rice_calls"],
            "densities.grid_points": c["grid_points"],
            "montecarlo.march_s": inclusive["_marching_squares_length"],
            "montecarlo.cells_marched": c["cells_marched"],
            "montecarlo.sign_samples": c["sign_samples"],
            "montecarlo.fields_sampled_per_seed": ratio(sum(fields.values()), len(fields)),
            "airy.ai_k_calls": c["ai_k_calls"],
            "airy.memo_hit_ratio": ratio(c["memo_hits"], c["memo_lookups"]),
            "airy.contour_points": c["contour_points"],
            "airy.us_per_point": ratio(inclusive["contour_integral"], c["contour_points"], 1e6),
            "scaled_kernel.pi0_calls": c["pi0_calls"],
            "scaled_kernel.ms_per_pi0": ratio(inclusive["pi0_airy"] + inclusive["pi0_contour"],
                                             c["pi0_calls"], 1e3),
            "cli.bytes_written": c["bytes_written"],
        })
        return out

    def dump(self, path):
        """Write spans (with parent ids) and counters as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "layer", "name", "start", "end"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)
