"""Gauss-Legendre nodes and composite panel rules, shared by every quadrature.

The Airy contours, the gamma_integral route of Ai_k, the radial rule of Pi0,
the composition windows, the d = 3 sphere rule and the tube-mass integrals
all draw their nodes here, so each rule size is computed once per process.
"""

from __future__ import annotations

import functools

import numpy as np
# imported with the module: numpy loads numpy.polynomial lazily, which would
# otherwise cost ~4 ms inside the first quadrature of every run
import numpy.polynomial.legendre  # noqa: F401


@functools.cache
def gauss_legendre(n):
    """n-point Gauss-Legendre nodes and weights on [-1, 1] (read-only arrays)."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def panels(edges, n):
    """Composite n-point rule on the panels between consecutive edges.

    Node j of the panel (lo, hi) is 0.5*(lo+hi) + 0.5*(hi-lo)*x_j and its
    weight 0.5*(hi-lo)*w_j: the same elementwise operations as building one
    panel at a time, so the flat (nodes, weights), panel after panel, are
    bit-identical to such a loop.
    """
    x, w = gauss_legendre(n)
    edges = np.asarray(edges, dtype=float)
    lo = edges[:-1, None]
    hi = edges[1:, None]
    half = 0.5 * (hi - lo)
    return (0.5 * (lo + hi) + half * x).ravel(), (half * w).ravel()
