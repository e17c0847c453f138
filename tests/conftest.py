import numpy as np
import pytest
from hypothesis import settings

from rotbec import (
    Grid,
    HarmonicTrap,
    ModelSpec,
    RotationSpec,
    minimize_dm,
    minimize_gp_family,
)
from rotbec.diagnostics import (
    detect_vortices,
    minimizer_family_analysis,
    symmetry_breaking_metric,
)


def noise_field(grid, rng, envelope=True):
    out = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    if envelope:
        out = out * np.exp(-0.5 * grid.radius2_mesh)
    return out


def band_limited_field(grid, rng, kcut=0.4):
    """Random field with spectral support inside a fraction of the band."""
    spec = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    mask = np.ones(grid.shape, dtype=bool)
    for axis in range(grid.dim):
        k = grid.wavenumbers(axis)
        kmax = np.abs(k).max()
        shape = [1] * grid.dim
        shape[axis] = grid.points[axis]
        mask &= (np.abs(k).reshape(shape) <= kcut * kmax)
    from scipy.fft import ifftn

    return ifftn(spec * mask)


def pytest_collection_modifyitems(items):
    # the sweep fixture is most of the suite's time; -m "not sweep" skips it
    for item in items:
        if "sweep_data" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.sweep)


# property tests draw the same examples on every run
settings.register_profile("rotbec", derandomize=True, database=None, deadline=None)
settings.load_profile("rotbec")


SWEEP_GRID = Grid((9.0, 9.0), (96, 96))
# spans the acceptance domain [0, 100] x [0, 1.9]: couplings up to 100 and
# rotation up to near the trap frequency; the DM tolerance is loosened at
# the rapid-rotation corner, where the 15-vortex lattice makes the DM
# landscape extremely soft (the energy itself is converged to ~1e-7 there)
SWEEP_POINTS = [(0.0, 0.0), (0.0, 1.0),
                (20.0, 0.0), (20.0, 0.5), (20.0, 1.0),
                (100.0, 0.5), (5.0, 1.8)]
_DM_TOL = {(5.0, 1.8): 1e-4}


@pytest.fixture(scope="session")
def sweep_data():
    """GP + DM results over a (g, omega_z) grid on the 2D harmonic trap.

    Shared by the symmetry-breaking and DM-vs-GP acceptance criteria; the
    DM runs are seeded so the E_DM <= E_GP and E_DM4 <= E_DM2 inequalities
    are guaranteed by monotone descent rather than by luck.
    """
    import time

    started = time.perf_counter()
    rows = {}
    for g, omega in SWEEP_POINTS:
        spec = ModelSpec(SWEEP_GRID, HarmonicTrap((1.0, 1.0)), RotationSpec(omega), g)
        family = minimize_gp_family(spec, tol=1e-8, max_iter=25000, restarts=3, seed=42)
        best = family[0]
        report = detect_vortices(best.phi)
        s_metric = symmetry_breaking_metric(best.phi)
        clusters = minimizer_family_analysis(family, energy_tol=1e-6, distance_tol=1e-3)
        dm_tol = _DM_TOL.get((g, omega), 1e-6)
        dm2 = minimize_dm(spec, 2, tol=dm_tol, max_iter=30000, restarts=0,
                          seed=42, seed_fields=[best.phi])
        pad = _padded_stack(dm2, 4, seed=42)
        dm4 = minimize_dm(spec, 4, tol=dm_tol, max_iter=30000, seed=42,
                          starts=[pad, _gp_stack(best, 4, seed=43)])
        rows[(g, omega)] = {
            "spec": spec,
            "family": family,
            "best": best,
            "vortices": report,
            "s_metric": s_metric,
            "clusters": clusters,
            "dm2": dm2,
            "dm4": dm4,
        }
    rows["_elapsed"] = time.perf_counter() - started
    return rows


def _padded_stack(dm_result, n, seed):
    """Square-root stack of a lower-rank DM state padded with tiny noise."""
    grid = dm_result.state.orbitals[0].grid
    rng = np.random.default_rng(seed)
    rows = [np.sqrt(w) * phi.values
            for w, phi in zip(dm_result.state.weights, dm_result.state.orbitals)]
    while len(rows) < n:
        rows.append(1e-6 * noise_field(grid, rng))
    return np.stack(rows)


def _gp_stack(gp_result, n, seed):
    grid = gp_result.phi.grid
    rng = np.random.default_rng(seed)
    rows = [gp_result.phi.values]
    while len(rows) < n:
        rows.append(1e-6 * noise_field(grid, rng))
    return np.stack(rows)
