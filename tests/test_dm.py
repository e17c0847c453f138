import threading

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
from rotbec.gp import _Flow, gp_energy, minimize_gp, vortex_seed
from rotbec.lattice import Field, Grid, blas_threads, inner, normalized
from rotbec.model import HarmonicTrap, ModelSpec, RotationSpec, lowest_eigenpairs
from rotbec.diagnostics import density_l1_distance
from conftest import logged_descend, noise_field


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


def test_dmstate_density_is_the_weighted_orbital_sum(eigenpairs):
    (_, phi0), (_, phi1) = eigenpairs
    state = DMState(orbitals=[phi0, phi1], weights=[0.3, 0.7])
    state.validate()
    want = sum(w * (phi.values.real**2 + phi.values.imag**2)
               for w, phi in zip(state.weights, state.orbitals))
    assert np.allclose(state.density(), want, rtol=1e-14, atol=1e-14 * want.max())


def test_dm_energy_rank1_matches_gp():
    # one pass reports both: a rank-1 state is its field's one-row stack
    for omega in (0.0, 0.8):
        spec = harmonic_spec(g=7.0, omega=omega)
        result = minimize_gp(spec, tol=1e-8, max_iter=6000, restarts=1, seed=3)
        state = DMState(orbitals=[result.phi], weights=[1.0])
        assert dm_energy(spec, state) == gp_energy(spec, result.phi).total


def test_dm_energy_rejects_another_grid():
    wide = Grid((8.0, 8.0), (32, 32))
    phi = normalized(Field(wide, np.exp(-0.5 * wide.radius2_mesh).astype(complex)))
    spec = harmonic_spec(grid=Grid((6.0, 6.0), (32, 32)))
    with pytest.raises(ValueError, match="different grids"):
        dm_energy(spec, DMState(orbitals=[phi], weights=[1.0]))


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
    for point in sweep_data.points.values():
        dm2, dm4 = point.dm
        assert dm4.energy <= dm2.energy + 1e-8
        assert dm2.energy <= point.best.energy + 1e-8


def test_dm_symmetry_broken_point_mixes_ranks(sweep_data):
    point = sweep_data.points[(20.0, 1.0)]
    dm4 = point.dm[1]
    assert dm4.energy < point.best.energy - 1e-4
    assert np.sum(dm4.state.weights > 1e-3) >= 2
    dm4.state.validate()


def test_dm_orbitals_stay_orthonormal(sweep_data):
    orbs = sweep_data.points[(20.0, 1.0)].dm[0].state.orbitals
    for i in range(len(orbs)):
        for j in range(len(orbs)):
            ov = inner(orbs[i], orbs[j])
            assert abs(ov - (1.0 if i == j else 0.0)) < 1e-10


def test_dm_lists_failed_restarts(monkeypatch):
    vortex = np.stack([vortex_seed(GRID, q) for q in range(2)])
    descend, log = logged_descend(fail=vortex)
    monkeypatch.setattr(_Flow, "descend", descend)
    result = minimize_dm(harmonic_spec(g=5.0), 2, tol=1e-6, max_iter=4000, restarts=1,
                         seed=1, seed_fields=[vortex_seed(GRID, 0)])
    records = result.restarts
    assert [(r.start, r.ok) for r in records] == [("seeded", True), ("vortex", False),
                                                  ("noise", True)]
    assert result.restarts_used == 3
    # stacks run one after another on the calling thread, in start order
    assert [r.applications for r in records] == [iters for _, iters, _ in log]
    assert result.iterations == sum(iters for _, iters, _ in log)
    assert {thread for _, _, thread in log} == {threading.get_ident()}


def test_dm_no_converged_restart_names_the_count():
    with pytest.raises(NoConvergence, match="none of 2 restarts"):
        minimize_dm(harmonic_spec(g=5.0), 2, max_iter=1, restarts=1)


def test_dm_explicit_starts_checked_before_descent(monkeypatch):
    descend, log = logged_descend()
    monkeypatch.setattr(_Flow, "descend", descend)
    spec = harmonic_spec(g=5.0)
    two_rows = np.stack([vortex_seed(GRID, q) for q in range(2)])
    with pytest.raises(InvalidState, match="shape"):
        minimize_dm(spec, 4, starts=[two_rows])
    with pytest.raises(InvalidState, match="shape"):
        minimize_dm(spec, 2, starts=[two_rows, vortex_seed(GRID, 0)])
    with pytest.raises(ValueError, match="empty"):
        minimize_dm(spec, 2, starts=[])
    assert log == []


def test_dm_seed_fields_checked_before_descent(monkeypatch):
    # seed fields follow the rule of starts=: the spec's grid, the grid's shape
    descend, log = logged_descend()
    monkeypatch.setattr(_Flow, "descend", descend)
    grid = Grid((6.0, 6.0), (24, 24))
    spec = harmonic_spec(g=5.0, grid=grid)
    other = Grid((5.0, 5.0), grid.shape)  # same shape, other box
    with pytest.raises(ValueError, match="different grids"):
        minimize_dm(spec, 2, seed_fields=[Field(other, vortex_seed(other, 0))])
    with pytest.raises(InvalidState, match="shape"):
        minimize_dm(spec, 2, seed_fields=[np.ones((20, 20), complex)])
    assert log == []


def test_dm_takes_field_starts():
    spec = harmonic_spec(g=5.0)
    rows = [vortex_seed(GRID, q) for q in range(2)]
    kw = dict(tol=1e-5, max_iter=4000)
    want = minimize_dm(spec, 2, starts=[np.stack(rows)], **kw)
    got = minimize_dm(spec, 2, starts=[[Field(GRID, row) for row in rows]], **kw)
    assert got.restarts == want.restarts and got.energy == want.energy
    # a lone field is the one-row stack of rank 1
    one = minimize_dm(spec, 1, starts=[Field(GRID, rows[0])], **kw)
    assert one.restarts == minimize_dm(spec, 1, starts=[rows[0][None]], **kw).restarts
    with pytest.raises(InvalidState, match="shape"):
        minimize_dm(spec, 2, starts=[Field(GRID, rows[0])])
    other = Grid((6.0, 6.0), GRID.shape)
    with pytest.raises(ValueError, match="different grids"):
        minimize_dm(spec, 2, starts=[[Field(GRID, rows[0]), Field(other, rows[1])]])


def test_dm_solve_does_not_depend_on_numpy_blas_threads():
    # a 2x72^2 stack is above the 10^4 elements where OpenBLAS threads
    # numpy's vdot and norm, which changes their bits
    spec = harmonic_spec(2.0, grid=Grid((6.0, 6.0), (72, 72)))
    results = []
    for n in (1, 2):
        with blas_threads("numpy", n):
            results.append(minimize_dm(spec, 2, tol=1e-5, restarts=1, seed=5))
    one, two = results
    assert one.energy == two.energy
    assert np.array_equal(one.state.weights, two.state.weights)
    assert one.restarts == two.restarts
    for a, b in zip(one.state.orbitals, two.state.orbitals):
        assert np.array_equal(a.values, b.values)
