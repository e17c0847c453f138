import numpy as np
import pytest

from rotbec.dm import (
    DMState,
    dm_energy,
    minimize_dm,
    minimize_weights,
    project_simplex,
)
from rotbec.errors import InvalidState, NoConvergence
from rotbec.gp import gp_energy, minimize_gp
from rotbec.lattice import Field, Grid, inner, normalized
from rotbec.model import HarmonicTrap, ModelSpec, RotationSpec, lowest_eigenpairs
from rotbec.diagnostics import density_l1_distance
from conftest import noise_field


GRID = Grid((8.0, 8.0), (48, 48))


def harmonic_spec(g=0.0, omega=0.0, grid=GRID):
    return ModelSpec(grid, HarmonicTrap((1.0,) * grid.dim), RotationSpec(omega), g)


@pytest.fixture(scope="module")
def eigenpairs():
    return lowest_eigenpairs(harmonic_spec(), 2)


def test_project_simplex():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.standard_normal(6) * 3
        p = project_simplex(v)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p >= 0)
        # projection property: no feasible point is closer
        for _ in range(10):
            q = rng.dirichlet(np.ones(6))
            assert np.linalg.norm(v - p) <= np.linalg.norm(v - q) + 1e-12


def test_minimize_weights_against_enumeration():
    # exhaustive oracle over active sets for small convex QPs
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = 4
        h = rng.standard_normal(n)
        B = rng.standard_normal((n, n))
        G = B @ B.T * 0.3
        lam = minimize_weights(h, G, np.full(n, 1.0 / n))
        value = h @ lam + lam @ G @ lam
        best = np.inf
        # oracle: dense sampling of the simplex plus the vertices
        for _ in range(20000):
            q = rng.dirichlet(np.ones(n))
            best = min(best, h @ q + q @ G @ q)
        for v in np.eye(n):
            best = min(best, h @ v + v @ G @ v)
        assert value <= best + 1e-6


def test_weight_update_linear_case_picks_vertex():
    h = np.array([0.7, 0.2, 1.5])
    lam = minimize_weights(h, np.zeros((3, 3)), np.full(3, 1 / 3))
    assert np.allclose(lam, [0.0, 1.0, 0.0], atol=1e-10)


def test_minimize_weights_raises_when_unconverged():
    # interior optimum (3/4, 1/4): one projected-gradient step cannot certify it
    h = np.zeros(2)
    G = np.diag([1.0, 3.0])
    with pytest.raises(NoConvergence) as info:
        minimize_weights(h, G, np.array([1.0, 0.0]), max_iter=1)
    assert info.value.iterations == 1
    lam = minimize_weights(h, G, np.array([1.0, 0.0]))
    assert np.allclose(lam, [0.75, 0.25], atol=1e-9)


def test_dmstate_validation():
    rng = np.random.default_rng(2)
    a = normalized(Field(GRID, noise_field(GRID, rng)))
    with pytest.raises(InvalidState):
        DMState(orbitals=[a, a], weights=[0.5, 0.5]).validate()  # not orthogonal
    with pytest.raises(InvalidState):
        DMState(orbitals=[a], weights=[0.7]).validate()  # off simplex


def test_dm_energy_rank1_matches_gp(eigenpairs):
    spec = harmonic_spec(g=7.0)
    result = minimize_gp(spec, tol=1e-8, max_iter=6000, restarts=1, seed=3)
    state = DMState(orbitals=[result.phi], weights=[1.0])
    assert abs(dm_energy(spec, state) - gp_energy(spec, result.phi).total) < 1e-12


def test_dm_energy_linear_cases(eigenpairs):
    spec = harmonic_spec(g=0.0)
    (e0, phi0), (e1, phi1) = eigenpairs
    pure = DMState(orbitals=[phi0, phi1], weights=[1.0, 0.0])
    assert abs(dm_energy(spec, pure) - e0) < 1e-8
    mixed = DMState(orbitals=[phi0, phi1], weights=[0.5, 0.5])
    assert abs(dm_energy(spec, mixed) - 0.5 * (e0 + e1)) < 1e-8


def test_minimize_dm_linear_is_ground_state_projection():
    spec = harmonic_spec(g=0.0, omega=0.5)
    result = minimize_dm(spec, 4, tol=1e-7, max_iter=8000, restarts=1, seed=4)
    assert np.allclose(result.state.weights, [1, 0, 0, 0], atol=1e-8)
    assert abs(result.energy - 2.0) < 1e-7
    result.state.validate()


def test_minimize_dm_rank1_equals_gp():
    spec = harmonic_spec(g=7.0)
    gp = minimize_gp(spec, tol=1e-8, max_iter=6000, restarts=2, seed=5)
    dm = minimize_dm(spec, 1, tol=1e-8, max_iter=6000, restarts=2, seed=5)
    assert abs(dm.energy - gp.energy) < 1e-7


def test_minimize_dm_restart_agreement():
    spec = harmonic_spec(g=10.0)
    a = minimize_dm(spec, 2, tol=1e-7, max_iter=9000, restarts=1, seed=6)
    b = minimize_dm(spec, 2, tol=1e-7, max_iter=9000, restarts=1, seed=777)
    assert abs(a.energy - b.energy) < 1e-6
    rho_a = Field(GRID, np.sqrt(a.state.density()).astype(complex))
    rho_b = Field(GRID, np.sqrt(b.state.density()).astype(complex))
    assert density_l1_distance(rho_a, rho_b) < 1e-3


def test_dm_rank_monotone_and_below_gp(sweep_data):
    for key, row in sweep_data.items():
        if not isinstance(row, dict):
            continue
        assert row["dm4"].energy <= row["dm2"].energy + 1e-8
        assert row["dm2"].energy <= row["best"].energy + 1e-8


def test_dm_symmetry_broken_point_mixes_ranks(sweep_data):
    row = sweep_data[(20.0, 1.0)]
    assert row["dm4"].energy < row["best"].energy - 1e-4
    assert np.sum(row["dm4"].state.weights > 1e-3) >= 2
    row["dm4"].state.validate()


def test_dm_orbitals_stay_orthonormal(sweep_data):
    row = sweep_data[(20.0, 1.0)]
    orbs = row["dm2"].state.orbitals
    for i in range(len(orbs)):
        for j in range(len(orbs)):
            ov = inner(orbs[i], orbs[j])
            assert abs(ov - (1.0 if i == j else 0.0)) < 1e-10
