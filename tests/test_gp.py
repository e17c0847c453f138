import math

import numpy as np
import pytest

from rotbec.errors import NotNormalized, Unstable
from rotbec.gp import (
    _Flow,
    chemical_potential,
    gp_energy,
    gp_gradient,
    minimize_gp,
    minimize_gp_family,
    vortex_seed,
)
from rotbec.lattice import Field, Grid, norm, normalized
from rotbec.model import HarmonicTrap, ModelSpec, RotationSpec, SampledTrap, apply_h0
from rotbec.diagnostics import density_l1_distance
from conftest import noise_field


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
    point = sweep_data[(20.0, 1.0)]
    best = point["best"]
    restricted = [
        radial_fixed_winding_minimum(g=20.0, omega=1.0, q=q) for q in range(4)
    ]
    assert best.energy < min(restricted) - 1e-3


def radial_fixed_winding_minimum(g, omega, q, rmax=9.0, n=2000, iters=40000):
    """Independent 1D oracle: minimize the GP energy over f(r) e^{i q theta}.

    Finite differences and midpoint quadrature on a radial grid with a zero
    ghost value at r = rmax; projected gradient descent on the
    normalization sphere.  The analytic gradient is self-checked against a
    finite difference before use.
    """
    dr = rmax / n
    r = (np.arange(n) + 0.5) * dr
    r_face = np.arange(1, n + 1) * dr  # includes the outer face at rmax
    V = r**2
    A = 2.0 * np.pi * r_face / dr
    b = 2.0 * np.pi * dr * (q**2 / r + V * r)
    c = 8.0 * np.pi**2 * g * r * dr
    w = 2.0 * np.pi * r * dr

    def diffs(f):
        return np.concatenate([np.diff(f), [-f[-1]]])  # ghost f = 0 at rmax

    def energy(f):
        d = diffs(f)
        return float(np.sum(A * d * d) + np.sum(b * f * f) + np.sum(c * f**4)
                     - omega * q)

    def gradient(f):
        d = diffs(f)
        grad = 2.0 * b * f + 4.0 * c * f**3
        grad -= 2.0 * A * d
        grad[1:] += 2.0 * A[:-1] * d[:-1]
        return grad

    f = np.exp(-0.5 * r**2) * r ** abs(q)
    f /= np.sqrt(np.sum(w * f * f))
    fd = (energy(f + 1e-7 * f) - energy(f - 1e-7 * f)) / 2e-7
    an = float(np.sum(gradient(f) * f))
    assert abs(fd - an) < 1e-5 * max(1.0, abs(an)), "radial oracle gradient check"
    e = energy(f)
    tau = 1e-3
    for _ in range(iters):
        grad = gradient(f)
        gw = 2.0 * w * f  # gradient of the constraint sum w f^2
        lam = np.sum(grad * gw) / np.sum(gw * gw)
        step = grad - lam * gw
        if np.linalg.norm(step) < 1e-12:
            break
        cand = f - tau * step
        cand /= np.sqrt(np.sum(w * cand * cand))
        ce = energy(cand)
        if ce <= e:
            f, e = cand, ce
            tau = min(tau * 1.2, 1.0)
        else:
            tau *= 0.5
            if tau < 1e-14:
                break
    return e


def test_vortex_seed_shapes():
    assert vortex_seed(GRID2, 0).dtype == complex
    seeded = vortex_seed(GRID2, 2)
    assert seeded.shape == GRID2.shape


def test_minimize_rejects_unstable():
    trap = HarmonicTrap((1.0, 1.0))
    with pytest.raises(Unstable):
        ModelSpec(GRID2, trap, RotationSpec(2.5), 1.0)
