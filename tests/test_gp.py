import math
import os
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.fft
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import minimize_scalar
from hypothesis import given
from hypothesis import strategies as st

import rotbec.lattice
import rotbec.model
from rotbec.dm import minimize_dm
from rotbec.errors import NoConvergence, NotNormalized, Unstable
from rotbec.gp import (
    _Flow,
    _starting_fields,
    chemical_potential,
    descend_all,
    gp_energy,
    gp_gradient,
    minimize_gp,
    minimize_gp_family,
    vortex_seed,
)
from rotbec.lattice import THREADED_SIZE, Field, Grid, fftn, ifftn, norm, normalized
from rotbec.model import (HarmonicTrap, ModelSpec, QuarticTrap, RotationSpec, SampledTrap,
                          apply_h0)
from rotbec.diagnostics import density_l1_distance
from conftest import logged_descend, noise_field


GRID2 = Grid((8.0, 8.0), (48, 48))


def harmonic_spec(g=0.0, omega=0.0, grid=GRID2):
    nu = (1.0,) * grid.dim
    return ModelSpec(grid, HarmonicTrap(nu), RotationSpec(omega), g)


def test_energy_oscillator_ground_state_3d():
    grid = Grid((8.0,) * 3, (48,) * 3)
    spec = harmonic_spec(grid=grid)
    phi = Field(grid, np.pi ** (-0.75) * np.exp(-0.5 * grid.radius2_mesh).astype(complex))
    parts = gp_energy(spec, phi)
    assert abs(parts.total - 3.0) < 1e-8
    assert parts.interaction == 0.0
    assert abs(parts.total - (parts.kinetic + parts.potential + parts.rotational
                              + parts.interaction)) < 1e-12


def test_energy_constant_field_flat_trap():
    g_coupling = 1.7
    spec = ModelSpec(GRID2, SampledTrap(np.zeros(GRID2.shape)), RotationSpec(0.0), g_coupling)
    vbox = 16.0 * 16.0
    phi = Field(GRID2, np.full(GRID2.shape, vbox ** -0.5, dtype=complex))
    parts = gp_energy(spec, phi)
    assert abs(parts.total - 4.0 * math.pi * g_coupling / vbox) < 1e-12
    assert parts.kinetic < 1e-14
    assert abs(chemical_potential(spec, phi) - 8.0 * math.pi * g_coupling / vbox) < 1e-12


def test_energy_rejects_unnormalized():
    spec = harmonic_spec()
    phi = Field(GRID2, np.exp(-0.5 * GRID2.radius2_mesh).astype(complex))
    with pytest.raises(NotNormalized):
        gp_energy(spec, phi)


# (grid, trap, omega, g, (kinetic, potential, rotational, interaction), mu) of
# one fixed field per spec, pinned bitwise from the former per-axis pass
BREAKDOWN_PINS = [
    (Grid((7.0, 7.0), (32, 32)), HarmonicTrap(1.0), 0.8, 15.0,
     (5.841043348894213, 1.8827391058426117, -0.7207360840725511, 18.96877762483702),
     44.94060162033831),
    (Grid((9.0, 9.0), (96, 96)), HarmonicTrap(1.0), 0.5, 20.0,
     (33.03213900857713, 1.9155397772116538, -0.4642291767671457, 25.332282625661986),
     85.14801486034561),
    (Grid((6.0,) * 3, (16,) * 3), HarmonicTrap(1.0), (0.3, 0.0, 0.5), 2.0,
     (4.639419235777997, 2.5745476433335033, -0.44659240818053547, 1.0979819754670421),
     8.96333842186505),
    (Grid((6.0,) * 3, (16,) * 3), QuarticTrap(1.0, 0.1), 0.0, 2.0,
     (4.639419235777997, 3.4701389838687797, 0.0, 1.0979819754670421),
     10.305522170580861),
]


@pytest.mark.parametrize("grid, trap, omega, g, terms, mu", BREAKDOWN_PINS,
                         ids=["32^2-rotating", "96^2-rotating", "16^3-tilted", "16^3-quartic"])
def test_energy_terms_are_pinned(grid, trap, omega, g, terms, mu):
    spec = ModelSpec(grid, trap, RotationSpec(omega), g)
    rng = np.random.default_rng(3)
    phi = normalized(Field(grid, vortex_seed(grid, 1) + 0.3 * noise_field(grid, rng)))
    parts = gp_energy(spec, phi)
    assert (parts.kinetic, parts.potential, parts.rotational, parts.interaction) == terms
    assert chemical_potential(spec, phi) == mu


@pytest.mark.parametrize("fn", [gp_energy, chemical_potential, gp_gradient, apply_h0])
def test_field_functions_reject_another_grid(fn):
    # a unit Gaussian on [-8, 8)^2 against a spec on [-6, 6)^2, both 32^2
    wide = Grid((8.0, 8.0), (32, 32))
    phi = normalized(Field(wide, np.exp(-0.5 * wide.radius2_mesh).astype(complex)))
    with pytest.raises(ValueError, match="different grids"):
        fn(harmonic_spec(grid=Grid((6.0, 6.0), (32, 32))), phi)


def test_gradient_equals_h0_at_zero_coupling():
    spec = harmonic_spec(g=0.0, omega=0.6)
    rng = np.random.default_rng(0)
    phi = normalized(Field(GRID2, noise_field(GRID2, rng)))
    grad = gp_gradient(spec, phi)
    h0phi = apply_h0(spec, phi)
    assert np.abs(grad.values - h0phi.values).max() == 0.0


def test_gradient_oscillator_eigenstate():
    grid = Grid((8.0,) * 3, (48,) * 3)
    spec = harmonic_spec(grid=grid)
    phi = Field(grid, np.pi ** (-0.75) * np.exp(-0.5 * grid.radius2_mesh).astype(complex))
    grad = gp_gradient(spec, phi)
    assert np.abs(grad.values - 3.0 * phi.values).max() < 1e-8


def test_gradient_finite_difference():
    # (E[phi + t psi] - E[phi - t psi]) / 2t = 2 Re<psi | grad>
    rng = np.random.default_rng(1)
    grid = Grid((7.0, 7.0), (32, 32))
    failures = 0
    for case in range(20):
        g_coupling = float(rng.uniform(0.0, 8.0))
        omega = float(rng.uniform(0.0, 1.2))
        spec = harmonic_spec(g=g_coupling, omega=omega, grid=grid)
        phi = normalized(Field(grid, noise_field(grid, rng)))
        psi = Field(grid, noise_field(grid, rng))
        t = 1e-5
        flow = _Flow(spec)

        def raw_energy(values):
            # the unconstrained functional (no unit-norm projection)
            hpsi = flow.action.apply(values)
            dens = values.real**2 + values.imag**2
            e = float(np.vdot(values, hpsi).real) * flow.dV
            e += 0.5 * flow.coeff * float(np.sum(dens * dens)) * flow.dV
            return e

        fd = (raw_energy(phi.values + t * psi.values)
              - raw_energy(phi.values - t * psi.values)) / (2 * t)
        grad = gp_gradient(spec, phi)
        exact = 2.0 * float(np.vdot(psi.values, grad.values).real) * grid.cell_volume
        if abs(fd - exact) > 1e-6 * max(1.0, abs(exact)):
            failures += 1
    assert failures == 0


def test_flow_on_one_row_stack_equals_field_flow():
    # GP is the unstacked case of the DM engine: a (1,) + grid stack must
    # take exactly the same trust-region path as the bare field
    grid = Grid((7.0, 7.0), (32, 32))
    spec = harmonic_spec(g=10.0, omega=0.6, grid=grid)
    psi0 = noise_field(grid, np.random.default_rng(8))
    field, res_f, iters_f, ok_f = _Flow(spec).descend(psi0, 1e-8, 3000)
    stack, res_s, iters_s, ok_s = _Flow(spec).descend(psi0[None], 1e-8, 3000)
    assert ok_f and ok_s == ok_f
    assert iters_s == iters_f
    assert res_s == res_f
    assert stack.shape == (1,) + grid.shape
    assert np.array_equal(stack[0], field)


def test_chemical_potential_oscillator():
    grid = Grid((8.0,) * 3, (48,) * 3)
    spec = harmonic_spec(grid=grid)
    phi = Field(grid, np.pi ** (-0.75) * np.exp(-0.5 * grid.radius2_mesh).astype(complex))
    assert abs(chemical_potential(spec, phi) - 3.0) < 1e-8


def test_minimize_oscillator_3d():
    grid = Grid((8.0,) * 3, (32,) * 3)
    spec = harmonic_spec(grid=grid)
    result = minimize_gp(spec, tol=1e-8, max_iter=4000, restarts=1, seed=5)
    assert abs(result.energy - 3.0) < 1e-8
    assert abs(norm(result.phi) - 1.0) < 1e-10
    assert result.residual <= 1e-8
    parts = result.breakdown
    assert abs(result.mu - (result.energy + parts.interaction)) < 1e-10
    # density is the Gaussian
    dens = result.phi.values.real**2 + result.phi.values.imag**2
    exact = np.pi ** -1.5 * np.exp(-grid.radius2_mesh)
    assert np.abs(dens - exact).max() < 1e-7


def test_minimize_rotating_linear_case():
    spec = harmonic_spec(g=0.0, omega=1.0)
    result = minimize_gp(spec, tol=1e-8, max_iter=6000, restarts=2, seed=2)
    assert abs(result.energy - 2.0) < 1e-6
    from rotbec.model import angular_momentum_z

    assert abs(angular_momentum_z(result.phi)) < 1e-6


def test_minimize_converged_self_consistency():
    spec = harmonic_spec(g=6.0)
    result = minimize_gp(spec, tol=1e-8, max_iter=6000, restarts=1, seed=3)
    grad = gp_gradient(spec, result.phi)
    mu = chemical_potential(spec, result.phi)
    resid = norm(Field(GRID2, grad.values - mu * result.phi.values))
    assert resid <= 1e-8


def test_energy_monotone_along_accepted_iterates():
    spec = harmonic_spec(g=4.0, omega=0.8)
    rng = np.random.default_rng(9)
    psi0 = noise_field(GRID2, rng)
    seen = []

    class Probe(_Flow):
        def evaluate(self, psi):
            st = _Flow.evaluate(self, psi)
            seen.append(st.energy)
            return st

    probe = Probe(spec)
    psi, resn, iters, ok = probe.descend(psi0, 1e-8, 4000)
    assert ok
    # every candidate the engine evaluated is at or above the final energy
    # up to rounding slack, so no accepted step ever increased the energy
    efinal = _Flow(spec).evaluate(psi).energy
    assert efinal <= min(seen) + 5e-13 * max(1.0, abs(efinal))


def test_gauge_invariance():
    spec = harmonic_spec(g=3.0, omega=0.5)
    rng = np.random.default_rng(4)
    phi = normalized(Field(GRID2, noise_field(GRID2, rng)))
    base = gp_energy(spec, phi).total
    for alpha in (0.3, 1.7, -2.2):
        shifted = Field(GRID2, np.exp(1j * alpha) * phi.values)
        assert abs(gp_energy(spec, shifted).total - base) < 1e-12 * max(1.0, abs(base))


def test_rotation_covariance_axisymmetric():
    spec = harmonic_spec(g=3.0, omega=0.5)
    rng = np.random.default_rng(5)
    phi = normalized(Field(GRID2, noise_field(GRID2, rng)))
    base = gp_energy(spec, phi).total
    rotated = Field(GRID2, np.rot90(phi.values).copy())
    assert abs(gp_energy(spec, rotated).total - base) < 1e-10 * max(1.0, abs(base))


def test_uniqueness_at_zero_rotation():
    # all noise restarts land on the same minimizer when Omega = 0
    spec = harmonic_spec(g=10.0)
    rng = np.random.default_rng(6)
    starts = [noise_field(GRID2, rng) for _ in range(10)]
    family = minimize_gp_family(spec, tol=1e-8, max_iter=8000, starts=starts)
    assert len(family) == 10
    energies = [r.energy for r in family]
    assert max(energies) - min(energies) < 1e-7
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            assert density_l1_distance(family[i].phi, family[j].phi) < 1e-4


def test_zero_rotation_minimizer_has_constant_phase():
    spec = harmonic_spec(g=10.0)
    rng = np.random.default_rng(7)
    result = minimize_gp(spec, tol=1e-10, max_iter=8000,
                         starts=[noise_field(GRID2, rng)])
    vals = result.phi.values
    dens = vals.real**2 + vals.imag**2
    mask = dens > 1e-8
    alpha = np.angle(np.sum(np.abs(vals) * vals))
    recentered = np.exp(-1j * alpha) * vals
    assert np.abs(recentered[mask] - np.abs(recentered[mask])).max() < 1e-6


def test_mu_at_least_energy_with_interaction():
    spec = harmonic_spec(g=5.0)
    result = minimize_gp(spec, tol=1e-8, max_iter=6000, restarts=1, seed=8)
    assert result.breakdown.interaction > 0
    assert result.mu >= result.energy


def test_symmetry_breaking_beats_fixed_winding(sweep_data):
    """At the broken point the minimizer undercuts every single-winding
    profile (radial-oracle restricted minimization for q = 0..3)."""
    best = sweep_data.points[(20.0, 1.0)].best
    restricted = [
        radial_fixed_winding_minimum(g=20.0, omega=1.0, q=q) for q in range(4)
    ]
    assert best.energy < min(restricted) - 1e-3


def radial_fixed_winding_minimum(g, omega, q, rmax=9.0, n=2000, gap_tol=1e-9, max_iter=300):
    """Independent 1D oracle: minimize the GP energy over f(r) e^{i q theta}.

    Finite differences and midpoint quadrature on a radial grid with a zero
    ghost value at r = rmax.  Self-consistent field with optimal damping
    (Cances & Le Bris, Int. J. Quantum Chem. 79 (2000) 82): each iteration
    takes the ground density of the tridiagonal H(rho) = K + 2 c rho and
    moves rho towards it by a line search on E(sqrt(rho)), which is convex
    in rho.  The energy is convex over radial density matrices too, and its
    minimum there is this one (the off-diagonal of K is negative), so
    E - min E <= <H(rho)> - lambda_min(H(rho)): iteration stops once that
    gap is below ``gap_tol``, and raises AssertionError if it never gets there.
    """
    dr = rmax / n
    r = (np.arange(n) + 0.5) * dr
    r_face = np.arange(1, n + 1) * dr  # includes the outer face at rmax
    V = r**2
    A = 2.0 * np.pi * r_face / dr
    b = 2.0 * np.pi * dr * (q**2 / r + V * r)
    c = 8.0 * np.pi**2 * g * r * dr
    w = 2.0 * np.pi * r * dr  # the norm is sum w f^2

    def energy(rho):
        f = np.sqrt(rho)
        d = np.concatenate([np.diff(f), [-f[-1]]])  # ghost f = 0 at rmax
        return float(np.sum(A * d * d) + np.sum(b * rho) + np.sum(c * rho * rho) - omega * q)

    # H(rho) in the orthonormal coordinates sqrt(w) f
    diag = (A + np.concatenate([[0.0], A[:-1]]) + b) / w
    off = -A[:-1] / np.sqrt(w[:-1] * w[1:])

    def ground(rho):
        lam, u = eigh_tridiagonal(diag + 2.0 * c * rho / w, off, select="i", select_range=(0, 0))
        return lam[0], u[:, 0] ** 2 / w

    rho = ground(np.zeros(n))[1]
    for _ in range(max_iter):
        e = energy(rho)
        lam, target = ground(rho)
        if e + omega * q + float(np.sum(c * rho * rho)) - lam < gap_tol:
            return e
        step = target - rho
        t = minimize_scalar(lambda t: energy(rho + t * step), bounds=(0.0, 1.0),
                            method="bounded", options={"xatol": 1e-12}).x
        rho = rho + t * step
    raise AssertionError(f"radial oracle q={q} not converged in {max_iter} iterations")


def test_radial_oracle_reproduces_grid_minima():
    # grid family members at (g, Omega) = (20, 1) on 96^2 over [-9, 9)^2;
    # the gap to them (1-2e-6) is the radial discretization error at n = 2000
    for q, grid_energy in enumerate([12.1887658429, 11.8173923602, 11.9132202376]):
        assert abs(radial_fixed_winding_minimum(g=20.0, omega=1.0, q=q) - grid_energy) < 5e-6


def test_vortex_seed_shapes():
    assert vortex_seed(GRID2, 0).dtype == complex
    seeded = vortex_seed(GRID2, 2)
    assert seeded.shape == GRID2.shape


def test_minimize_rejects_unstable():
    trap = HarmonicTrap((1.0, 1.0))
    with pytest.raises(Unstable):
        ModelSpec(GRID2, trap, RotationSpec(2.5), 1.0)


def _family_with_cpus(monkeypatch, cpus, spec, **kw):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    return minimize_gp_family(spec, **kw)


@pytest.mark.parametrize("points", [32, 128])
def test_concurrent_restarts_change_no_bit(monkeypatch, points):
    # at 128^2 OpenBLAS threads the dots, so its thread count moves bits
    # there; the cap must hold for serial and concurrent restarts alike
    spec = harmonic_spec(2.0, 0.5, Grid((6.0, 6.0), (points, points)))
    kw = dict(tol=1e-7, max_iter=3000, restarts=1, seed=3)
    serial = _family_with_cpus(monkeypatch, 1, spec, **kw)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more threads than cores, switching often
    try:
        threaded = _family_with_cpus(monkeypatch, 4, spec, **kw)
    finally:
        sys.setswitchinterval(switch)
    assert len(serial) == len(threaded) == 5
    for a, b in zip(serial, threaded):
        assert a.energy == b.energy and a.iterations == b.iterations
        assert a.restarts_used == b.restarts_used == 5
        assert a.restarts == b.restarts
        assert np.array_equal(a.phi.values, b.phi.values)


@pytest.mark.parametrize("case, cpus", [
    ("gp", 1), ("gp", 2),   # single fields side by side on a small grid
    ("gp-large", 2),        # single fields one after another, THREADED_SIZE points
    ("dm", 2),              # (2,) + grid stacks one after another
], ids=["1", "2", "gp-large", "dm"])
def test_restarts_restore_blas_threads(monkeypatch, blas_counts, case, cpus):
    # numpy's copy is capped inside every descend, scipy's is left alone
    before = blas_counts()
    inside = []

    def descend(self, psi0, tol, max_iter):
        inside.append(blas_counts())
        if len(inside) == 2:
            raise RuntimeError("second start fails")
        return psi0, 0.0, 1, True

    monkeypatch.setattr(_Flow, "descend", descend)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    large = Grid((6.0, 6.0), (512, 256))
    assert math.prod(large.shape) == THREADED_SIZE
    solve = {"gp": lambda: minimize_gp_family(harmonic_spec(), restarts=2),
             "gp-large": lambda: minimize_gp_family(harmonic_spec(grid=large), restarts=2),
             "dm": lambda: minimize_dm(harmonic_spec(), 2, restarts=2)}[case]
    with pytest.raises(RuntimeError, match="second start"):
        solve()
    assert len(inside) >= 2 and all(c == {**before, "numpy": 1} for c in inside)
    assert blas_counts() == before


LARGE = Grid((6.0, 6.0), (512, 256))  # THREADED_SIZE points: the phases are cut


def _descents_with_cpus(monkeypatch, cpus, solve):
    """(psi, residual, applications) of every descent of ``solve`` with
    ``cpus`` usable CPUs, and the most slabs any operation was cut into."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    runs, cuts = [], [1]
    descend, bounds = _Flow.descend, rotbec.lattice.Slabs.bounds

    def logged(self, psi0, tol, max_iter):
        psi, res, iters, _ = out = descend(self, psi0, tol, max_iter)
        runs.append((psi, res, iters))
        return out

    def counted(self, like):
        out = bounds(self, like)
        cuts.append(len(out))
        return out

    with monkeypatch.context() as patched:
        patched.setattr(_Flow, "descend", logged)
        patched.setattr(rotbec.lattice.Slabs, "bounds", counted)
        with pytest.raises(NoConvergence):  # the tolerance is out of reach
            solve()
    return runs, max(cuts)


@pytest.mark.parametrize("solve", [
    lambda: minimize_gp_family(harmonic_spec(20.0, 0.7, LARGE), tol=1e-30, max_iter=10,
                               starts=[vortex_seed(LARGE, 1)]),
    lambda: minimize_dm(harmonic_spec(20.0, 0.7, Grid((6.0, 6.0), (256, 256))), 2,
                        tol=1e-30, max_iter=10, restarts=0),
], ids=["rotating-512x256", "dm-2x256x256"])
def test_slab_operations_change_no_bit(monkeypatch, solve):
    # a fixed budget of applications, cut over 1, 2 and 3 CPUs (3 cuts the
    # axis unevenly); the stack's density sums are cut too
    (want, one), *others = [_descents_with_cpus(monkeypatch, cpus, solve) for cpus in (1, 2, 3)]
    assert one == 1 and [cuts for _, cuts in others] == [2, 3]
    for runs, _ in others:
        assert len(runs) == len(want) >= 1
        for (psi, res, iters), (psi1, res1, iters1) in zip(runs, want):
            assert res == res1 and iters == iters1 == 10
            assert psi.tobytes() == psi1.tobytes()


@pytest.mark.parametrize("shape, cpus, limit, slabs, pool", [
    (LARGE.shape, 2, None, 2, 0),       # a field of THREADED_SIZE points
    ((2, 256, 256), 3, None, 3, 0),     # a stack of THREADED_SIZE elements
    ((2, 128, 256), 2, None, 1, 0),     # a stack below the size rule
    (LARGE.shape, 3, 1, 1, 1),          # under limit_threads(1): a one-thread pool
    ((128, 256), 2, None, 1, 2),        # small fields side by side
    ((128, 256), 1, None, 1, 1),        # ... on the one usable CPU
], ids=["field", "stack", "small-stack", "limited", "small-fields", "small-fields-1cpu"])
def test_descents_cut_large_starts_over_the_thread_budget(monkeypatch, shape, cpus, limit,
                                                          slabs, pool):
    # the execution rule of descend_all: ``slabs`` per operation, and the
    # number of pool threads the starts run on (0: one after another, inline)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(rotbec.lattice, "_THREAD_BUDGET", None)
    if limit:
        rotbec.lattice.limit_threads(limit)
    together = threading.Barrier(max(pool, 1), timeout=10)  # side by side: both at once
    seen = []

    def descend(self, psi0, tol, max_iter):
        seen.append((self.slabs.count, threading.get_ident()))
        together.wait()
        return psi0, 0.0, 1, True

    monkeypatch.setattr(_Flow, "descend", descend)
    grid = Grid((6.0, 6.0), shape[-2:])
    descend_all(harmonic_spec(grid=grid), [("given", np.zeros(shape, complex))] * 2, 1e-8, 10)
    assert [count for count, _ in seen] == [slabs] * 2
    threads = {ident for _, ident in seen}
    if pool:
        assert len(threads) == pool and threading.get_ident() not in threads
    else:
        assert threads == {threading.get_ident()}


@pytest.mark.parametrize("where", ["worker", "caller"])
def test_failing_slab_operation_propagates_and_joins_the_threads(monkeypatch, where):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    caller = threading.get_ident()
    add_rotation = rotbec.model.H0Action.add_rotation
    calls, ran = [], set()

    def phase(cut):
        on_caller = threading.get_ident() == caller
        ran.add(on_caller)
        if on_caller == (where == "caller"):
            raise RuntimeError(f"slab fails on the {where}")

    def failing(self, out, derivatives, slabs):
        calls.append(None)
        if len(calls) > 3:  # mid-descent
            slabs.run(out, phase)
        return add_rotation(self, out, derivatives, slabs)

    monkeypatch.setattr(rotbec.model.H0Action, "add_rotation", failing)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match=f"fails on the {where}"):
        minimize_gp_family(harmonic_spec(20.0, 0.7, LARGE), tol=1e-8, max_iter=50,
                           starts=[vortex_seed(LARGE, 1)])
    assert ran == {True, False}  # both slabs ran to the end
    assert set(threading.enumerate()) == before  # the slab thread is joined


def test_restart_records_follow_start_order(monkeypatch):
    spec = harmonic_spec(2.0, 0.5)
    starts = _starting_fields(spec.grid, 2, 3)
    descend, log = logged_descend()
    monkeypatch.setattr(_Flow, "descend", descend)
    family = _family_with_cpus(monkeypatch, 2, spec, tol=1e-7, max_iter=3000,
                               restarts=2, seed=3)
    records = family[0].restarts
    assert [r.start for r in records] == [f"vortex q={q}" for q in range(4)] + ["noise"] * 2
    # the calls may finish in any order; the records follow the starts
    for (_, psi0), rec in zip(starts, records):
        assert [iters for start, iters, _ in log if np.array_equal(start, psi0)] == \
            [rec.applications]
    assert all(r.restarts is records and r.restarts_used == 6 for r in family)
    assert sorted((r.iterations, r.residual) for r in family) == \
        sorted((r.applications, r.residual) for r in records if r.ok)


def test_failed_restart_is_recorded(monkeypatch):
    starts = [vortex_seed(GRID2, q) for q in range(3)]
    descend, log = logged_descend(fail=starts[1])
    monkeypatch.setattr(_Flow, "descend", descend)
    family = minimize_gp_family(harmonic_spec(2.0), tol=1e-7, max_iter=3000, starts=starts)
    records = family[0].restarts
    assert [(r.start, r.ok) for r in records] == [("given", True), ("given", False),
                                                  ("given", True)]
    assert len(family) == 2 and all(r.restarts_used == 3 for r in family)
    assert sum(r.applications for r in records) == sum(iters for _, iters, _ in log)


def test_no_converged_restart_names_the_count():
    with pytest.raises(NoConvergence, match="none of 5 restarts") as info:
        minimize_gp_family(harmonic_spec(2.0), max_iter=1, restarts=1)
    assert info.value.iterations == 1


def test_explicit_starts_checked_before_descent(monkeypatch):
    descend, log = logged_descend()
    monkeypatch.setattr(_Flow, "descend", descend)
    spec = harmonic_spec(2.0)
    with pytest.raises(ValueError, match="shape"):
        minimize_gp_family(spec, starts=[vortex_seed(GRID2, 0), np.ones((24, 24))])
    with pytest.raises(ValueError, match="empty"):
        minimize_gp_family(spec, starts=[])
    assert log == []


def test_field_starts_descend_like_their_arrays():
    spec = harmonic_spec(2.0)
    start = vortex_seed(GRID2, 1)
    kw = dict(tol=1e-7, max_iter=3000)
    from_field = minimize_gp_family(spec, starts=[Field(GRID2, start)], **kw)
    from_array = minimize_gp_family(spec, starts=[start], **kw)
    assert from_field[0].restarts == from_array[0].restarts
    assert np.array_equal(from_field[0].phi.values, from_array[0].phi.values)
    other = Grid((6.0, 6.0), GRID2.shape)  # same shape, other box
    with pytest.raises(ValueError, match="different grids"):
        minimize_gp_family(spec, starts=[Field(other, start)], **kw)


@pytest.mark.parametrize("max_iter", [5, 15, 37, 100])
def test_descent_applications_stay_within_max_iter(max_iter):
    # tol 1e-12 is out of reach, so every descent runs to its budget
    grid = Grid((7.0, 7.0), (32, 32))
    spec = harmonic_spec(g=10.0, omega=0.6, grid=grid)
    psi0 = noise_field(grid, np.random.default_rng(8))
    # the count a Restart record keeps as ``applications``
    _, _, applications, ok = _Flow(spec).descend(psi0, 1e-12, max_iter)
    assert not ok
    assert max_iter - 2 <= applications <= max_iter


def real_space_hessian(flow, state, d):
    """The second variation in real space: the reference for ``_Flow.hessian``."""
    out = flow.action.apply(d) - state.mu * d
    if flow.coeff:
        rate = 2.0 * flow._rowsum((np.conj(state.psi) * d).real)
        out = out + flow.coeff * (state.dens * d + rate * state.psi)
    return out - state.psi * (np.vdot(state.psi, out) * flow.dV)


@pytest.mark.parametrize("grid, omega, rows", [
    (Grid((7.0, 7.0), (32, 32)), 0.6, 0),
    (Grid((7.0, 7.0), (32, 32)), 0.6, 3),
    (Grid((6.0,) * 3, (16,) * 3), (0.3, 0.0, 0.5), 0),  # tilted rotation
    (Grid((7.0, 7.0), (32, 32)), 0.0, 0),
], ids=["field", "stack", "tilted-3d", "not-rotating"])
def test_spectral_hessian_matches_real_space_formula(grid, omega, rows):
    flow = _Flow(harmonic_spec(g=10.0, omega=omega, grid=grid))
    rng = np.random.default_rng(12)

    def draw():
        if rows == 0:
            return noise_field(grid, rng)
        return np.stack([noise_field(grid, rng) for _ in range(rows)])

    state = flow.evaluate(flow.normalize(draw()))
    d = draw()
    got = ifftn(flow.hessian(state, fftn(state.psi, grid.dim), fftn(d, grid.dim)), grid.dim)
    want = real_space_hessian(flow, state, d)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("omega", [0.0, 0.6])
def test_each_hessian_application_makes_two_transforms(monkeypatch, omega):
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    seen = []

    class Counting(_Flow):
        def _subproblem(self, state, radius, cap, rel_tol):
            before = len(calls)
            out = _Flow._subproblem(self, state, radius, cap, rel_tol)
            seen.append((len(calls) - before, out[3], out[2]))
            return out

    grid = Grid((7.0, 7.0), (32, 32))
    flow = Counting(harmonic_spec(g=10.0, omega=omega, grid=grid))
    psi0 = noise_field(grid, np.random.default_rng(8))
    monkeypatch.setattr(rotbec.lattice, "_fft", SimpleNamespace(
        fftn=counted(scipy.fft.fftn), ifftn=counted(scipy.fft.ifftn)))
    flow.descend(psi0, 1e-8, 400)
    # fixed overhead per subproblem: the spectra of psi and of the
    # residual, and the step's one return to real space
    assert seen and all(transforms == 2 * applications + 3
                        for transforms, applications, _ in seen)
    assert any(hit for _, _, hit in seen)  # boundary recomputes are counted too


@given(st.sampled_from([2, 3]), st.integers(4, 12), st.integers(4, 12), st.integers(4, 8),
       st.floats(1.0, 10.0), st.sampled_from([0, 1, 3]), st.integers(0, 2**32 - 1))
def test_spectral_dot_is_real_space_inner_product(dim, n0, n1, n2, half_width, rows, seed):
    # Parseval: the CG's dot of two spectra equals Re<a|b> dV of the arrays
    grid = Grid((half_width,) * dim, (2 * n0, 2 * n1, 2 * n2)[:dim])
    flow = _Flow(harmonic_spec(grid=grid))
    rng = np.random.default_rng(seed)
    shape = grid.shape if rows == 0 else (rows,) + grid.shape
    a, b = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2))
    want = float(np.vdot(a, b).real) * grid.cell_volume
    got = flow._dot(fftn(a, dim), fftn(b, dim))
    bound = float(np.linalg.norm(a) * np.linalg.norm(b)) * grid.cell_volume
    assert abs(got - want) <= 1e-12 * bound
