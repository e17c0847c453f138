"""One (g, Omega) point of a symmetry-breaking sweep: GP family, diagnostics, DM ladder."""

from dataclasses import dataclass

import numpy as np

from .diagnostics import (SymmetryReport, VortexReport, detect_vortices,
                          minimizer_family_analysis, symmetry_breaking_metric)
from .dm import minimize_dm
from .gp import gaussian_envelope, minimize_gp_family


@dataclass
class SweepPoint:
    family: list  # GPResult list, lowest energy first
    vortices: VortexReport  # of the best member
    s_metric: float | None  # None unless the model is axisymmetric
    clusters: SymmetryReport
    dm: tuple  # one DMResult per rank, in the order asked for

    @property
    def best(self):
        return self.family[0]


def _padded(rows, n, grid, seed):
    """The rows stacked up to n, filled with 1e-6 enveloped noise from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    rows = list(rows)
    while len(rows) < n:
        noise = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        rows.append(1e-6 * (noise * gaussian_envelope(grid)))
    return np.stack(rows)


def solve_point(spec, ranks, dm_tol, tol, max_iter, restarts, seed):
    """GP family, vortex report, s, clusters, then one DMResult per rank.

    The first rank starts from the best GP field.  Each later rank starts
    from the previous result's sqrt(w) phi rows and from the GP field, both
    padded with noise, so E_DM never rises along the ladder or above E_GP.
    """
    family = minimize_gp_family(spec, tol=tol, max_iter=max_iter, restarts=restarts, seed=seed)
    best = family[0]
    dm = []
    for n in ranks:
        if dm:
            state = dm[-1].state
            lower = [np.sqrt(w) * phi.values for w, phi in zip(state.weights, state.orbitals)]
            starts = [_padded(lower, n, spec.grid, seed),
                      _padded([best.phi.values], n, spec.grid, seed + 1)]
            dm.append(minimize_dm(spec, n, dm_tol, max_iter, seed=seed, starts=starts))
        else:
            dm.append(minimize_dm(spec, n, dm_tol, max_iter, restarts=0, seed=seed,
                                  seed_fields=[best.phi]))
    s_metric = symmetry_breaking_metric(best.phi) if spec.is_axisymmetric else None
    return SweepPoint(family, detect_vortices(best.phi), s_metric,
                      minimizer_family_analysis(family), tuple(dm))
