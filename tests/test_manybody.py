import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotbec.errors import DimensionTooLarge, InvalidState, NoConvergence
from rotbec.lattice import Field, Grid, normalized
from rotbec.manybody import (
    DeltaPair,
    FockProblem,
    _gp_parts,
    _lowest_eigenpair,
    _tangent_model,
    _tangent_vector,
    annihilation_matrix,
    assemble_hamiltonian,
    basis_dimension,
    build_w_tensor,
    coherent_state_checks,
    coherent_vector,
    gp_limit_scan,
    ground_state_absolute,
    ground_state_bosonic,
    occupation_basis,
    truncated_gp_minimum,
    unit_scattering_gaussian,
)
from rotbec.model import HarmonicTrap, ModelSpec, RotationSpec, lowest_eigenpairs
from rotbec.scatter import GaussianBump, scattering_length, volume_integral


GRID = Grid((7.0, 7.0), (48, 48))


def harmonic_spec(omega=0.0):
    return ModelSpec(GRID, HarmonicTrap((1.0, 1.0)), RotationSpec(omega), 0.0)


@pytest.fixture(scope="module")
def modes3():
    return lowest_eigenpairs(harmonic_spec(), 3)


@pytest.fixture(scope="module")
def modes3_rotating():
    return lowest_eigenpairs(harmonic_spec(omega=1.0), 3)


def random_tensor(M, seed, scale=0.05):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((M,) * 4) + 1j * rng.standard_normal((M,) * 4)
    W = A + A.transpose(1, 0, 3, 2)
    W = W + np.conj(W.transpose(2, 3, 0, 1))
    return scale * W


def test_occupation_basis():
    states = occupation_basis(3, 2)
    assert len(states) == basis_dimension(3, 2) == 6
    assert all(sum(s) == 2 for s in states)
    assert states == sorted(states)


def test_problem_validation():
    with pytest.raises(InvalidState):
        FockProblem(2, 2, (0.0, 1.0), np.ones((2, 2, 2, 1)))
    bad = random_tensor(2, 0)
    bad[0, 0, 0, 1] += 1.0  # break the symmetry
    with pytest.raises(InvalidState):
        FockProblem(2, 2, (0.0, 1.0), bad)


def test_single_mode_closed_form():
    for N in (2, 5, 10):
        W = np.full((1, 1, 1, 1), 0.37)
        result = ground_state_bosonic(FockProblem(1, N, (1.7,), W))
        want = N * 1.7 + 0.5 * N * (N - 1) * 0.37
        assert abs(result.E0 - want) < 1e-10


def test_noninteracting_condenses():
    result = ground_state_bosonic(FockProblem(3, 4, (0.5, 1.0, 2.0), np.zeros((3,) * 4)))
    assert abs(result.E0 - 2.0) < 1e-12
    assert abs(result.condensate_fraction - 1.0) < 1e-12
    assert abs(np.trace(result.gamma1).real - 4.0) < 1e-8


def test_small_sector_matches_dense_oracle():
    W = random_tensor(2, 1)
    problem = FockProblem(2, 2, (0.3, 0.9), W)
    result = ground_state_bosonic(problem)
    # dense oracle in the 3-dimensional symmetric basis
    H, _ = assemble_hamiltonian(problem)
    dense = H.toarray()
    assert np.abs(dense - dense.conj().T).max() < 1e-12
    vals = np.linalg.eigvalsh(dense)
    assert abs(result.E0 - vals[0]) < 1e-10
    # independent oracle: the full Fock space of M = 3 modes with N + 1
    # levels each, from Kronecker products of one-mode ladder matrices,
    # restricted to the N = 4 sector (exact there: no step leaves it)
    M, N = 3, 4
    e = (0.2, 0.8, 1.1)
    W = random_tensor(M, 2)
    problem = FockProblem(M, N, e, W)
    H, states = assemble_hamiltonian(problem)
    a1 = annihilation_matrix(N + 1)
    eye = np.eye(N + 1)
    a = [functools.reduce(np.kron, [a1 if m == n else eye for m in range(M)])
         for n in range(M)]
    ad = [x.conj().T for x in a]
    full = sum(e[j] * ad[j] @ a[j] for j in range(M))
    for i, j, k, l in itertools.product(range(M), repeat=4):
        full = full + 0.5 * W[i, j, k, l] * (ad[i] @ ad[j] @ a[k] @ a[l])
    sector = [np.ravel_multi_index(s, (N + 1,) * M) for s in states]
    oracle = full[np.ix_(sector, sector)]
    assert np.abs(H.toarray() - oracle).max() < 1e-12
    vals, vecs = np.linalg.eigh(oracle)
    psi = np.zeros((N + 1) ** M, dtype=complex)
    psi[sector] = vecs[:, 0]
    gamma = np.array([[np.vdot(psi, ad[k] @ a[j] @ psi) for k in range(M)]
                      for j in range(M)])
    result = ground_state_bosonic(problem)
    assert abs(result.E0 - vals[0]) < 1e-12
    assert np.abs(result.gamma1 - gamma).max() < 1e-12


def test_exact_ground_states_are_reproducible():
    # eigsh branches: the same H gives the same energy whatever ran before
    bosonic = FockProblem(6, 10, tuple(0.3 * np.arange(6)), random_tensor(6, 4))
    assert len({ground_state_bosonic(bosonic).E0 for _ in range(3)}) == 1
    absolute = FockProblem(3, 8, (0.2, 0.8, 1.1), random_tensor(3, 6))
    assert len({ground_state_absolute(absolute) for _ in range(3)}) == 1


def test_dense_eigenpair_residual_is_checked():
    # eigh reads one triangle only, so a non-Hermitian input leaves a residual
    with pytest.raises(NoConvergence):
        _lowest_eigenpair(np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_gamma1_invariants():
    W = random_tensor(3, 2)
    result = ground_state_bosonic(FockProblem(3, 4, (0.2, 0.8, 1.1), W))
    gamma = result.gamma1
    assert np.abs(gamma - gamma.conj().T).max() < 1e-10
    assert abs(np.trace(gamma).real - 4.0) < 1e-8
    vals = np.linalg.eigvalsh(gamma)
    assert vals.min() > -1e-10
    assert 0.0 < result.condensate_fraction <= 1.0
    assert result.ground_vector_norm_residual <= 1e-8


def test_e0_nonincreasing_in_mode_count(modes3):
    # larger variational space at fixed N and pair potential
    fields = [m[1] for m in modes3]
    energies = [m[0] for m in modes3]
    values = []
    spec = harmonic_spec()
    for M in (1, 2, 3):
        W = build_w_tensor(spec, fields[:M], DeltaPair(0.5))
        r = ground_state_bosonic(FockProblem(M, 3, energies[:M], W))
        values.append(r.E0)
    assert values[1] <= values[0] + 1e-10
    assert values[2] <= values[1] + 1e-10


def test_w_tensor_zero_potential(modes3):
    spec = harmonic_spec()
    W = build_w_tensor(spec, [m[1] for m in modes3], DeltaPair(0.0))
    assert np.abs(W).max() == 0.0


def test_w_tensor_gaussian_mode_quartic():
    # single-mode delta tensor: W0000 = 8 pi a int |phi|^4 = 4a for the
    # normalized 2D Gaussian ground state
    spec = harmonic_spec()
    phi = normalized(Field(GRID, np.exp(-0.5 * GRID.radius2_mesh).astype(complex)))
    a = 0.3
    W = build_w_tensor(spec, [phi], DeltaPair(a))
    assert abs(W[0, 0, 0, 0].real - 4.0 * a) < 1e-6


def test_w_tensor_symmetrized(modes3):
    spec = harmonic_spec(omega=0.0)
    W = build_w_tensor(spec, [m[1] for m in modes3], DeltaPair(0.4))
    assert np.abs(W - W.transpose(1, 0, 3, 2)).max() < 1e-10
    assert np.abs(W - np.conj(W.transpose(2, 3, 0, 1))).max() < 1e-10


@pytest.mark.parametrize("pair", [DeltaPair(0.4), GaussianBump(1.3, 0.8)])
def test_w_tensor_matches_double_sum(pair):
    # W_ijkl = dV^2 sum_xy conj(phi_i(x) phi_j(y)) v(x - y) phi_k(x) phi_l(y)
    # over all point pairs, with the periodic displacement of _pair_kernel;
    # complex noise modes expose any wrong index order
    grid = Grid((3.0, 3.0), (16, 16))
    spec = ModelSpec(grid, HarmonicTrap((1.0, 1.0)), RotationSpec(0.0), 0.0)
    rng = np.random.default_rng(8)
    modes = [Field(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
             for _ in range(2)]
    phi = np.stack([m.values.reshape(-1) for m in modes], axis=1)
    dV = grid.cell_volume
    if isinstance(pair, DeltaPair):
        v = np.eye(len(phi)) * 8.0 * math.pi * pair.a / dV
    else:
        idx = np.indices(grid.shape).reshape(grid.dim, -1)
        r2 = 0.0
        for axis in range(grid.dim):
            dx, L = grid.spacings[axis], grid.half_widths[axis]
            d = ((np.subtract.outer(idx[axis], idx[axis]) * dx + L) % (2.0 * L)) - L
            r2 = r2 + d**2
        v = pair.value(np.sqrt(r2))
    want = dV**2 * np.einsum("xi,yj,xy,xk,yl->ijkl", phi.conj(), phi.conj(), v, phi, phi)
    W = build_w_tensor(spec, modes, pair)
    assert np.abs(W - want).max() < 1e-12 * np.abs(want).max()


def test_w_tensor_gaussian_pair_closed_form_3d():
    # Gaussian mode + Gaussian pair potential: the pair expectation is
    # A (w^2 / (1 + w^2))^(3/2) in closed form
    grid3 = Grid((7.0,) * 3, (48,) * 3)
    spec3 = ModelSpec(grid3, HarmonicTrap((1.0,) * 3), RotationSpec(0.0), 0.0)
    phi0 = normalized(Field(grid3, np.exp(-0.5 * grid3.radius2_mesh).astype(complex)))
    for amp, width in ((0.8, 1.0), (1.5, 0.6)):
        W = build_w_tensor(spec3, [phi0], GaussianBump(amp, width))
        closed = amp * (width**2 / (1.0 + width**2)) ** 1.5
        assert abs(W[0, 0, 0, 0].real - closed) < 1e-6 * closed


def test_unit_scattering_gaussian():
    w = unit_scattering_gaussian()
    assert abs(scattering_length(w) - 1.0) < 1e-10
    # far above its Born value: int v / 8 pi > 1 for this amplitude
    assert volume_integral(w) / (8.0 * math.pi) > 1.5


def test_absolute_equals_bosonic_without_rotation(modes3):
    spec = harmonic_spec()
    fields = [m[1] for m in modes3]
    energies = [m[0] for m in modes3]
    W = build_w_tensor(spec, fields, DeltaPair(0.4))
    problem = FockProblem(3, 3, energies, W)
    e0 = ground_state_bosonic(problem).E0
    e_abs = ground_state_absolute(problem)
    assert abs(e0 - e_abs) < 1e-10


def test_absolute_below_bosonic_with_rotation(modes3_rotating):
    spec = harmonic_spec(omega=1.0)
    fields = [m[1] for m in modes3_rotating]
    energies = [m[0] for m in modes3_rotating]
    W = build_w_tensor(spec, fields, DeltaPair(0.8))
    problem = FockProblem(3, 3, energies, W)
    e0 = ground_state_bosonic(problem).E0
    e_abs = ground_state_absolute(problem)
    assert e_abs <= e0 + 1e-10
    assert e_abs < e0 - 1e-3  # strictly below here


def test_absolute_noninteracting():
    problem = FockProblem(2, 3, (0.4, 1.0), np.zeros((2,) * 4))
    assert abs(ground_state_absolute(problem) - 1.2) < 1e-10


def test_absolute_dimension_cap():
    problem = FockProblem(6, 6, (0.0,) * 6, np.zeros((6,) * 4))
    with pytest.raises(DimensionTooLarge):
        ground_state_absolute(problem)  # 6^6 = 46656 > 10^4


def test_truncated_gp_minimum_zero_coupling():
    e = [2.0, 4.0, 4.0]
    W = np.zeros((3,) * 4)
    assert abs(truncated_gp_minimum(e, W) - 2.0) < 1e-12


def test_truncated_gp_minimum_two_mode_grid_reference():
    # c = (cos t/2, e^{ip} sin t/2) covers the unit sphere of C^2 up to the gauge
    e = np.array([0.3, 0.9])
    W = random_tensor(2, 3)
    t, p = np.meshgrid(np.linspace(0.0, np.pi, 401),
                       np.linspace(0.0, 2.0 * np.pi, 800, endpoint=False), indexing="ij")
    c = np.stack([np.cos(t / 2), np.exp(1j * p) * np.sin(t / 2)], axis=-1)
    pairs = (c[..., :, None] * c[..., None, :]).reshape(t.shape + (4,))
    quartic = np.einsum("...a,ab,...b->...", pairs.conj(), W.reshape(4, 4), pairs).real
    grid = np.abs(c) ** 2 @ e + 0.5 * quartic
    resolution = max(np.abs(np.diff(grid, axis=0)).max(),
                     np.abs(grid - np.roll(grid, 1, axis=1)).max())
    got = truncated_gp_minimum(e, W)
    assert got <= grid.min() + 1e-12
    assert grid.min() - got <= resolution


def test_sphere_model_matches_finite_differences():
    # c + t d, normalized, is a second-order retraction, so the first two
    # t-derivatives of the energy along it are the model's g.s and s.H.s
    M = 3
    e = np.array([0.2, 0.8, 1.1])
    W = random_tensor(M, 5)
    pair_matrix = W.reshape(M * M, M * M)
    rng = np.random.default_rng(11)
    c = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    c /= np.linalg.norm(c)
    _, grad, sym = _gp_parts(c, e, pair_matrix)
    basis, g, H = _tangent_model(c, e, pair_matrix, grad, sym)
    s = rng.standard_normal(2 * (M - 1))
    move = _tangent_vector(basis, s)

    def along(t):
        x = c + t * move
        return _gp_parts(x / np.linalg.norm(x), e, pair_matrix)[0]

    h = 1e-4
    first = (along(h) - along(-h)) / (2 * h)
    second = (along(h) - 2 * along(0.0) + along(-h)) / h**2
    assert abs(first - g @ s) < 1e-6 * max(1.0, abs(g @ s))
    assert abs(second - s @ H @ s) < 1e-5 * max(1.0, abs(s @ H @ s))


def test_truncated_gp_minimum_reports_failed_restarts():
    with pytest.raises(NoConvergence, match=r"24 of 24 restarts failed"):
        truncated_gp_minimum([0.2, 0.8, 1.1], random_tensor(3, 2), max_iter=1)


@settings(max_examples=12)
@given(st.sampled_from([2, 3, 4]).flatmap(lambda M: st.tuples(
    st.just(M),
    st.integers(0, 2**16),
    st.permutations(range(M)),
    st.lists(st.floats(0.0, 2.0 * math.pi), min_size=M, max_size=M),
)))
def test_truncated_gp_minimum_mode_symmetries(case):
    M, seed, order, angles = case
    e = 0.5 + np.arange(M)
    W = random_tensor(M, seed, scale=0.02)
    base = truncated_gp_minimum(e, W)
    p = np.array(order)
    permuted = truncated_gp_minimum(e[p], W[np.ix_(p, p, p, p)])
    u = np.exp(1j * np.array(angles))
    # W_ijkl -> W_ijkl exp(i(theta_k + theta_l - theta_i - theta_j))
    rephased = truncated_gp_minimum(e, W * np.einsum("i,j,k,l->ijkl", u.conj(), u.conj(), u, u))
    assert abs(permuted - base) <= 1e-12
    assert abs(rephased - base) <= 1e-12


def test_scan_trend_and_condensation(modes3):
    spec = harmonic_spec()
    rows = gp_limit_scan(spec, 3, 0.5, [2, 4, 6], modes=modes3)
    gaps = [abs(r.E0_over_N - r.E_gp_truncated) for r in rows]
    assert gaps[1] <= gaps[0] + 1e-12
    assert gaps[2] <= gaps[1] + 1e-12
    for r in rows:
        assert r.E0_over_N <= r.E_gp_truncated + 1e-10
        assert 0.0 < r.condensate_fraction <= 1.0
    zero = gp_limit_scan(spec, 3, 0.0, [2, 4], modes=modes3)
    for r in zero:
        assert abs(r.E0_over_N - 2.0) < 1e-9
        assert abs(r.E_gp_truncated - 2.0) < 1e-9


def test_scan_rejects_bad_particle_numbers(modes3):
    with pytest.raises(InvalidState):
        gp_limit_scan(harmonic_spec(), 3, 0.5, [1], modes=modes3)


def test_coherent_vacuum():
    v = coherent_vector(0.0, 48)
    assert v[0] == 1.0 and np.abs(v[1:]).max() == 0.0
    a = annihilation_matrix(48)
    assert abs(np.vdot(v, a @ v)) == 0.0


def test_coherent_closed_form_moments():
    report = coherent_state_checks(D=64, z=1 + 1j, Z=8.0, n_max=8)
    assert report.annihilation_error < 1e-10
    assert report.number_error < 1e-10


def test_coherent_completeness_and_upper_symbol():
    report = coherent_state_checks(D=64, z=1 + 1j, Z=8.0, n_max=8,
                                   radial_points=128, angular_points=256)
    assert report.completeness_error < 1e-3
    assert report.upper_symbol_error < 1e-3
    # the |z|^2 upper symbol reproduces a+a + 1 on the span
    assert report.shifted_number_error < 1e-3
    finer = coherent_state_checks(D=64, z=1 + 1j, Z=8.0, n_max=8,
                                  radial_points=256, angular_points=256)
    assert finer.completeness_error < report.completeness_error


def test_coherent_preconditions():
    with pytest.raises(ValueError):
        coherent_state_checks(D=16)
    with pytest.raises(ValueError):
        coherent_state_checks(D=64, z=5 + 0j, Z=8.0)
