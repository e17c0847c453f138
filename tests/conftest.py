import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

import rotbec.gp
import rotbec.lattice
from rotbec import Grid, HarmonicTrap, ModelSpec, RotationSpec, solve_point


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


def stopping_halfway(solve_ivp):
    """solve_ivp as it returns when the step size collapses mid-range."""
    def wrapper(fun, t_span, y0, **kwargs):
        sol = solve_ivp(fun, (t_span[0], 0.5 * t_span[1]), y0, **kwargs)
        sol.status, sol.success, sol.message = -1, False, "Required step size is too small"
        return sol
    return wrapper


def logged_descend(fail=None):
    """``_Flow.descend`` that logs (start, applications, thread) per call.

    The start equal to ``fail`` is reported as unconverged.  Returns the
    replacement and its log.
    """
    descend = rotbec.gp._Flow.descend
    log = []

    def wrapper(self, psi0, tol, max_iter):
        psi, res, iters, ok = descend(self, psi0, tol, max_iter)
        log.append((psi0, iters, threading.get_ident()))
        return psi, res, iters, ok and not np.array_equal(psi0, fail)
    return wrapper, log


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves a Python thread alive: a thread that is
    never joined keeps the process from exiting."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before and t.is_alive()]
    if left:
        pytest.fail(f"threads left running: {[t.name for t in left]}")


@pytest.fixture
def blas_counts():
    """Thread counts of numpy's and scipy's bundled OpenBLAS, as a callable.

    Both copies are held at 2 threads for the test, so that a cap to 1
    shows on any core count.  Skips when either library is absent.
    """
    copies = ("numpy", "scipy")
    getters = [rotbec.lattice._openblas(copy) for copy in copies]
    if None in getters:
        pytest.skip("numpy or scipy has no bundled OpenBLAS")
    with rotbec.lattice.blas_threads("numpy", 2), rotbec.lattice.blas_threads("scipy", 2):
        yield lambda: {copy: get() for copy, (get, _) in zip(copies, getters)}


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
    DM ladder (ranks 2 and 4) is seeded so the E_DM <= E_GP and
    E_DM4 <= E_DM2 inequalities are guaranteed by monotone descent rather
    than by luck.
    """
    started = time.perf_counter()
    points = {}
    for g, omega in SWEEP_POINTS:
        spec = ModelSpec(SWEEP_GRID, HarmonicTrap((1.0, 1.0)), RotationSpec(omega), g)
        points[(g, omega)] = solve_point(spec, (2, 4), _DM_TOL.get((g, omega), 1e-6),
                                         tol=1e-8, max_iter=25000, restarts=3, seed=42)
    return SimpleNamespace(points=points, elapsed=time.perf_counter() - started)
