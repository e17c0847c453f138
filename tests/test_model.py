import contextlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rotbec.model
from rotbec.errors import Unstable
from rotbec.lattice import Field, Grid, blas_threads, fftn, ifftn, inner, norm, normalized
from rotbec.model import (
    H0Action,
    HarmonicTrap,
    ModelSpec,
    QuarticTrap,
    RotationSpec,
    SampledTrap,
    angular_momentum_z,
    apply_h0,
    centrifugal_term,
    check_stability,
    lowest_eigenpairs,
)
from conftest import band_limited_field, noise_field


GRID2 = Grid((8.0, 8.0), (64, 64))


def oscillator_closed_form(omega, count):
    """Lowest levels of -Delta + r^2 - omega L_z from E = 2(2n_r+|m|+1) - omega m."""
    levels = sorted(
        2.0 * (2 * nr + abs(m) + 1) - omega * m
        for nr in range(12)
        for m in range(-12, 13)
    )
    return levels[:count]


def test_stability_harmonic_closed_form():
    trap = HarmonicTrap((1.0, 1.0))
    assert check_stability(trap, RotationSpec(1.5), GRID2).stable
    result = check_stability(trap, RotationSpec(2.5), GRID2)
    assert not result.stable
    assert result.witness is not None


def test_stability_quartic_any_omega():
    trap = QuarticTrap((1.0, 1.0), 0.5)
    for omega in (0.0, 2.5, 10.0):
        assert check_stability(trap, RotationSpec(omega), GRID2).stable


def test_stability_sampled_shell():
    V = GRID2.radius2_mesh.copy()
    trap = SampledTrap(V)
    assert check_stability(trap, RotationSpec(1.0), GRID2).stable
    assert not check_stability(trap, RotationSpec(2.5), GRID2).stable
    # flat potential confines in a periodic box when not rotating
    assert check_stability(SampledTrap(np.zeros(GRID2.shape)), RotationSpec(0.0), GRID2).stable


_GRIDS = {2: Grid((5.0, 5.0), (8, 8)), 3: Grid((5.0,) * 3, (8,) * 3)}
_NU = st.lists(st.floats(0.1, 4.0), min_size=3, max_size=3)
# (dim, rotation axis); None is a tilted axis, which only a 3D grid allows
_AXES = st.sampled_from([(2, 2), (3, 0), (3, 1), (3, 2), (3, None)])


def _effective(nu, omega, x):
    """V - |Omega ^ x|^2 / 4 of the harmonic trap ``nu`` at the point ``x``."""
    x3 = np.zeros(3)
    x3[:len(x)] = x
    cross = np.cross(omega, x3)
    return sum(v * v * c * c for v, c in zip(nu, x)) - cross @ cross / 4


@settings(max_examples=200)
@given(_AXES.filter(lambda d: d[1] is not None), _NU, st.floats(-10.0, 10.0))
def test_stability_along_a_grid_axis(dim_axis, nu, w):
    dim, axis = dim_axis
    omega = [0.0, 0.0, 0.0]
    omega[axis] = w
    want = all(nu[a] * nu[a] > w * w / 4 for a in range(dim) if a != axis)
    got = check_stability(HarmonicTrap(nu[:dim]), RotationSpec(omega), _GRIDS[dim])
    assert got.stable == want
    assert (got.witness is None) == want


@settings(max_examples=100)
@given(_AXES, _NU, st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       st.floats(1.01, 3.0))
# Omega = (1.5, 0, 1.5), nu = 1: the witness is (x, 0, -x) for the outermost x;
# the outermost point (x, 0, 0) on its largest component's axis would be none,
# as V - |Omega ^ x|^2 / 4 = 7 x^2 / 16 > 0 there
@example((3, None), [1.0, 1.0, 1.0], [1.0, 0.0, 1.0], 1.5 / 2**0.5)
def test_harmonic_witness_does_not_confine(dim_axis, nu, direction, excess):
    """Unstable by a margin: |Omega| = 2 excess max(nu) (tilted), or
    2 excess min(transverse nu) along a grid axis."""
    dim, axis = dim_axis
    nu = nu[:dim]
    if axis is None:
        direction = np.array(direction)
        assume(np.count_nonzero(np.abs(direction) > 0.1) >= 2)
        omega = direction / np.linalg.norm(direction) * (2 * max(nu) * excess)
    else:
        omega = np.zeros(3)
        omega[axis] = 2 * min(v for a, v in enumerate(nu) if a != axis) * excess
    result = check_stability(HarmonicTrap(nu), RotationSpec(omega), _GRIDS[dim])
    assert not result.stable
    witness = result.witness
    assert all(type(c) is float for c in witness)
    assert max(witness) in [float(_GRIDS[dim].axis_coordinates(a)[-1]) for a in range(dim)]
    assert _effective(nu, omega, witness) <= 0.0  # the centre value


@settings(max_examples=50)
@given(_AXES, _NU, st.floats(1.01, 3.0), st.integers(0, 2**32 - 1))
def test_sampled_witness_does_not_confine(dim_axis, nu, excess, seed):
    dim, axis = dim_axis
    grid = _GRIDS[dim]
    omega = np.zeros(3)
    omega[2 if axis is None else axis] = 2 * max(nu) * excess
    if axis is None:
        omega[0] = 0.5 * omega[2]
    V = HarmonicTrap(nu[:dim]).evaluate(grid)
    V += np.random.default_rng(seed).uniform(0.0, 0.1, grid.shape)
    rotation = RotationSpec(omega)
    result = check_stability(SampledTrap(V), rotation, grid)
    assume(not result.stable)
    index = tuple(int(np.flatnonzero(grid.axis_coordinates(a) == c)[0])
                  for a, c in enumerate(result.witness))
    eff = V - centrifugal_term(rotation, grid)
    assert eff[index] <= np.min(eff[(slice(1, -1),) * dim]) + 1e-9


def test_sampled_trap_compares_shell_with_interior_minimum():
    # the centre cell (dx/2, dx/2, dx/2) lies above the minimum of this
    # weakly confining trap, so a centre reference reads it as unconfined
    grid = Grid((3.0,) * 3, (8,) * 3)
    trap = HarmonicTrap((1.19, 1.0, 0.58))
    rotation = RotationSpec((-0.04, -0.92, -1.18))
    assert check_stability(trap, rotation, grid).stable
    assert check_stability(SampledTrap(trap.evaluate(grid)), rotation, grid).stable
    fast = RotationSpec((0.0, 0.0, 3.0))
    result = check_stability(SampledTrap(trap.evaluate(grid)), fast, grid)
    assert not result.stable
    assert result.witness is not None and not check_stability(trap, fast, grid).stable


@pytest.mark.parametrize("omega", [0.0, 0.5])
def test_modelspec_rejects_wrong_shape_sampled_trap(omega):
    with pytest.raises(ValueError, match="shape does not match"):
        ModelSpec(GRID2, SampledTrap(np.zeros((32, 32))), RotationSpec(omega), 0.0)


def test_modelspec_rejects_unstable():
    with pytest.raises(Unstable):
        ModelSpec(GRID2, HarmonicTrap((1.0, 1.0)), RotationSpec(2.5), 0.0)
    with pytest.raises(ValueError):
        ModelSpec(GRID2, HarmonicTrap((1.0, 1.0)), RotationSpec(0.0), -1.0)


def test_modelspec_rejects_frequency_count():
    # two frequencies on a 3D grid would silently drop the z term
    grid = Grid((8.0,) * 3, (16,) * 3)
    for trap in (HarmonicTrap((1.0, 1.0)), QuarticTrap((1.0, 1.0), 0.1)):
        with pytest.raises(ValueError, match="2 trap frequencies for a 3D grid"):
            ModelSpec(grid, trap, RotationSpec(0.0), 0.0)
    ModelSpec(grid, QuarticTrap((1.0,), 0.1), RotationSpec(0.0), 0.0)


def test_modelspec_rejects_in_plane_rotation_on_2d_grid():
    # H0 on a 2D grid keeps only the z component, so an in-plane one would be
    # dropped while the stability check still counted it
    for omega in ((0.7, 0.0, 0.0), (0.0, 0.3, 0.5)):
        with pytest.raises(ValueError, match="out-of-plane"):
            ModelSpec(GRID2, HarmonicTrap((1.0, 1.0)), RotationSpec(omega), 0.0)
    ModelSpec(GRID2, HarmonicTrap((1.0, 1.0)), RotationSpec((0.0, 0.0, 0.5)), 0.0)
    grid = Grid((8.0,) * 3, (16,) * 3)
    ModelSpec(grid, HarmonicTrap((1.0,) * 3), RotationSpec((0.3, 0.0, 0.5)), 0.0)


def test_apply_h0_oscillator_ground_state_3d():
    grid = Grid((8.0,) * 3, (64,) * 3)
    spec = ModelSpec(grid, HarmonicTrap((1.0,) * 3), RotationSpec(0.0), 0.0)
    phi = Field(grid, np.pi ** (-0.75) * np.exp(-0.5 * grid.radius2_mesh).astype(complex))
    out = apply_h0(spec, phi)
    assert np.abs(out.values - 3.0 * phi.values).max() < 1e-8


def test_apply_h0_lz_eigenstate():
    spec = ModelSpec(GRID2, HarmonicTrap((1.0, 1.0)), RotationSpec(0.7), 0.0)
    spec0 = ModelSpec(GRID2, HarmonicTrap((1.0, 1.0)), RotationSpec(0.0), 0.0)
    x, y = GRID2.meshes
    phi = normalized(Field(GRID2, (x + 1j * y) * np.exp(-0.5 * GRID2.radius2_mesh)))
    with_rotation = apply_h0(spec, phi)
    without = apply_h0(spec0, phi)
    # winding-1 L_z eigenstate: the rotation term contributes -omega * phi
    assert np.abs(with_rotation.values - (without.values - 0.7 * phi.values)).max() < 1e-8


def test_apply_h0_constant_flat_trap():
    spec = ModelSpec(GRID2, SampledTrap(np.zeros(GRID2.shape)), RotationSpec(0.0), 0.0)
    phi = Field(GRID2, np.full(GRID2.shape, 0.125 + 0j))
    assert np.abs(apply_h0(spec, phi).values).max() < 1e-12


def test_lowest_eigenpairs_2d_oscillator():
    spec = ModelSpec(GRID2, HarmonicTrap((1.0, 1.0)), RotationSpec(0.0), 0.0)
    pairs = lowest_eigenpairs(spec, 3)
    want = oscillator_closed_form(0.0, 3)  # (2, 4, 4)
    for (e, _), w in zip(pairs, want):
        assert abs(e - w) < 1e-6
    # nondecreasing, orthonormal, small residual
    energies = [e for e, _ in pairs]
    assert energies == sorted(energies)
    for i in range(3):
        for j in range(3):
            ov = inner(pairs[i][1], pairs[j][1])
            assert abs(ov - (1.0 if i == j else 0.0)) < 1e-10
    action = H0Action(spec)
    for e, phi in pairs:
        resid = action.apply(phi.values) - e * phi.values
        assert np.linalg.norm(resid) * np.sqrt(GRID2.cell_volume) < 1e-8


def test_lowest_eigenpairs_rotating():
    spec = ModelSpec(GRID2, HarmonicTrap((1.0, 1.0)), RotationSpec(1.0), 0.0)
    pairs = lowest_eigenpairs(spec, 3)
    want = oscillator_closed_form(1.0, 3)  # (2, 3, 4)
    assert want == [2.0, 3.0, 4.0]
    for (e, _), w in zip(pairs, want):
        assert abs(e - w) < 1e-6


def test_ground_energy_matches_variational_oracle():
    from rotbec.gp import minimize_gp

    grid = Grid((7.0, 7.0), (32, 32))
    spec = ModelSpec(grid, HarmonicTrap((1.0, 0.8)), RotationSpec(0.4), 0.0)
    pairs = lowest_eigenpairs(spec, 1)
    rng = np.random.default_rng(11)
    starts = [noise_field(grid, rng) for _ in range(20)]
    variational = minimize_gp(spec, tol=1e-9, max_iter=4000, starts=starts)
    assert abs(pairs[0][0] - variational.energy) < 1e-6


def test_h0_hermitian():
    spec = ModelSpec(GRID2, HarmonicTrap((1.0, 1.0)), RotationSpec(0.9), 0.0)
    action = H0Action(spec)
    rng = np.random.default_rng(5)
    for _ in range(5):
        f = band_limited_field(GRID2, rng)
        h = band_limited_field(GRID2, rng)
        lhs = np.vdot(f, action.apply(h)) * GRID2.cell_volume
        rhs = np.vdot(action.apply(f), h) * GRID2.cell_volume
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


@pytest.mark.parametrize("grid", [GRID2, Grid((5.0,) * 3, (16,) * 3)])
def test_h0_stack_apply_equals_row_apply(grid):
    rng = np.random.default_rng(9)
    spec = ModelSpec(grid, HarmonicTrap((1.0,) * grid.dim), RotationSpec(0.7), 0.0)
    action = H0Action(spec)
    stack = np.stack([noise_field(grid, rng) for _ in range(3)])
    out = action.apply(stack)
    assert out.shape == stack.shape
    for row, want in zip(out, stack):
        assert np.array_equal(row, action.apply(want))
    assert np.array_equal(action.apply_block(stack), out)


def per_axis_apply(action, values):
    """H0 with one inverse transform per derivative: the reference for ``apply``."""
    dim = action.grid.dim
    spectrum = fftn(values, dim)
    out = ifftn(action.k2 * spectrum, dim)
    out += action.V * values
    for axis, coeff in action.rotating:
        out += 1j * coeff * ifftn(action.ik[axis] * spectrum, dim)
    return out


@pytest.mark.parametrize("grid, omega", [
    (GRID2, 0.7), (GRID2, 0.0),
    (Grid((5.0,) * 3, (16,) * 3), (0.3, 0.0, 0.5)),  # tilted: all three derivatives
])
@pytest.mark.parametrize("rows", [0, 3])
def test_h0_apply_equals_per_axis_transforms_bitwise(grid, omega, rows):
    rng = np.random.default_rng(11)
    spec = ModelSpec(grid, HarmonicTrap((1.0,) * grid.dim), RotationSpec(omega), 0.0)
    values = noise_field(grid, rng) if rows == 0 else np.stack(
        [noise_field(grid, rng) for _ in range(rows)])
    assert np.array_equal(spec.h0.apply(values), per_axis_apply(spec.h0, values))


ENERGY_CASES = [
    (Grid((7.0, 7.0), (32, 32)), 0.8),  # two rotating derivatives
    (Grid((7.0, 7.0), (32, 32)), 0.0),
    (Grid((6.0,) * 3, (16,) * 3), (0.3, 0.0, 0.5)),  # tilted: three
]


def unit_rows(grid, count, rng):
    return np.stack([normalized(Field(grid, noise_field(grid, rng))).values
                     for _ in range(count)])


@pytest.mark.parametrize("grid, omega", ENERGY_CASES)
def test_energy_parts_of_a_stack_equal_its_rows_bitwise(grid, omega):
    spec = ModelSpec(grid, HarmonicTrap((1.0,) * grid.dim), RotationSpec(omega), 0.0)
    stack = unit_rows(grid, 3, np.random.default_rng(12))
    parts = spec.h0.energy_parts(stack)
    assert all(part.shape == (3,) for part in parts)
    for i, row in enumerate(stack):
        assert [part[i] for part in parts] == [
            part[0] for part in spec.h0.energy_parts(row[None])]


@pytest.mark.parametrize("grid, omega", ENERGY_CASES)
def test_energy_parts_transform_count(monkeypatch, grid, omega):
    # one forward transform; when rotating, one batched inverse for every derivative
    spec = ModelSpec(grid, HarmonicTrap((1.0,) * grid.dim), RotationSpec(omega), 0.0)
    stack = unit_rows(grid, 2, np.random.default_rng(13))
    calls = []

    def counted(name, fn):
        def wrapper(self_or_values, *args, **kwargs):
            shape = getattr(self_or_values, "shape", None)
            calls.append((name, shape))
            return fn(self_or_values, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(rotbec.model, "fftn", counted("fftn", fftn))
    monkeypatch.setattr(rotbec.model, "ifftn", counted("ifftn", ifftn))
    monkeypatch.setattr(H0Action, "inverse", counted("inverse", H0Action.inverse))
    spec.h0.energy_parts(stack)
    want = [("fftn", stack.shape)]
    if omega:
        derivatives = len(spec.h0.rotating)
        assert derivatives == grid.dim
        want += [("inverse", None), ("ifftn", (1 + derivatives,) + stack.shape)]
    assert calls == want


def test_every_transform_uses_the_lattice_thread_setting(monkeypatch):
    # a sentinel thread count reaches the large transforms only; every
    # transform below THREADED_SIZE elements runs on one thread
    import scipy.fft

    import rotbec.lattice
    from rotbec.dm import minimize_dm

    seen = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            seen.append((args[0].size, kwargs.get("workers")))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(rotbec.lattice, "_THREAD_BUDGET", 3)
    monkeypatch.setattr(scipy.fft, "fftn", recording(scipy.fft.fftn))
    monkeypatch.setattr(scipy.fft, "ifftn", recording(scipy.fft.ifftn))
    big = Grid((7.0,) * 3, (64,) * 3)
    big_spec = ModelSpec(big, HarmonicTrap((1.0,) * 3), RotationSpec((0.0, 0.0, 0.5)), 2.0)
    H0Action(big_spec).apply(noise_field(big, np.random.default_rng(9)))
    # the forward transform, then -Delta and both rotating derivatives in one batch
    assert seen == [(64**3, 3), (3 * 64**3, 3)]
    seen.clear()
    grid = Grid((7.0, 7.0), (32, 32))
    spec = ModelSpec(grid, HarmonicTrap((1.0, 1.0)), RotationSpec(0.5), 2.0)
    rng = np.random.default_rng(10)
    action = H0Action(spec)
    action.apply(noise_field(grid, rng))
    action.apply(np.stack([noise_field(grid, rng) for _ in range(2)]))
    assert {size for size, _ in seen} == {32 * 32, 3 * 32 * 32, 2 * 32 * 32, 6 * 32 * 32}
    lowest_eigenpairs(spec, 2)
    minimize_dm(spec, 2, tol=1e-6, max_iter=3000, restarts=0, seed=1)
    assert len(seen) > 100
    assert {workers for _, workers in seen} == {1}


def test_every_solver_shares_the_specs_one_h0(monkeypatch):
    from rotbec.dm import DMState, dm_energy, minimize_dm
    from rotbec.gp import gp_energy, gp_gradient, minimize_gp_family

    built = []
    init = H0Action.__init__

    def counting(self, spec):
        built.append(spec)
        init(self, spec)

    monkeypatch.setattr(H0Action, "__init__", counting)
    spec = ModelSpec(Grid((6.0, 6.0), (16, 16)), HarmonicTrap((1.0, 1.0)), RotationSpec(0.5), 1.0)
    phi = minimize_gp_family(spec, restarts=0)[0].phi
    gp_energy(spec, phi)
    gp_gradient(spec, phi)
    apply_h0(spec, phi)
    modes = lowest_eigenpairs(spec, 3)
    dm_energy(spec, DMState([f for _, f in modes[:2]], [0.5, 0.5]))
    minimize_dm(spec, 2, tol=1e-6, restarts=0)
    assert built == [spec]
    assert spec.h0 is spec.h0


@pytest.mark.parametrize("fails", [False, True])
def test_lobpcg_holds_scipy_blas_at_one_thread(monkeypatch, blas_counts, fails):
    before = blas_counts()
    inside = []
    real = rotbec.model.lobpcg

    def recording(*args, **kwargs):
        inside.append(blas_counts())
        if fails:
            raise RuntimeError("lobpcg fails")
        return real(*args, **kwargs)

    monkeypatch.setattr(rotbec.model, "lobpcg", recording)
    spec = ModelSpec(Grid((7.0, 7.0), (32, 32)), HarmonicTrap((1.0, 1.0)), RotationSpec(0.0), 0.0)
    with pytest.raises(RuntimeError) if fails else contextlib.nullcontext():
        lowest_eigenpairs(spec, 2)
    assert inside == [{**before, "scipy": 1}]
    assert blas_counts() == before


def test_scipy_blas_cap_moves_no_eigenpair_bit(monkeypatch):
    # fock-scan's spec: the M = 4 cut through the threefold 6.0 shell picks
    # whatever vector LOBPCG returns, so any moved bit would move its pins
    spec = ModelSpec(Grid((7.0, 7.0), (48, 48)), HarmonicTrap((1.0, 1.0)), RotationSpec(0.0), 0.0)
    capped = lowest_eigenpairs(spec, 6, seed=7)
    monkeypatch.setattr(rotbec.model, "blas_threads", lambda copy, n: contextlib.nullcontext())
    with blas_threads("scipy", 2):
        uncapped = lowest_eigenpairs(spec, 6, seed=7)
    for (e1, f1), (e2, f2) in zip(capped, uncapped, strict=True):
        assert e1 == e2
        assert np.array_equal(f1.values, f2.values)


def test_magnetic_form_identity():
    # -Delta - Omega.L = (-i grad - Omega^x/2)^2 - |Omega^x|^2/4 on the
    # grid interior (coordinate sawtooth pollutes the boundary shell)
    from rotbec.lattice import fftn, ifftn

    omega = 1.1
    spec = ModelSpec(GRID2, HarmonicTrap((1.0, 1.0)), RotationSpec(omega), 0.0)
    action = H0Action(spec)
    rng = np.random.default_rng(6)
    x, y = GRID2.meshes
    ax = 0.5 * omega * y
    ay = -0.5 * omega * x
    centri = centrifugal_term(spec.rotation, GRID2)
    interior = GRID2.radius2_mesh < (GRID2.half_widths[0] - 4 * GRID2.spacings[0]) ** 2
    env = np.exp(-0.5 * GRID2.radius2_mesh)
    for _ in range(3):
        # band-limited and confined: both sides differentiate coordinate
        # products, which alias for full-band fields
        f = band_limited_field(GRID2, rng, kcut=0.35) * env
        spectrum = fftn(f)
        lhs = ifftn(GRID2.k2_mesh * spectrum)
        dxf = ifftn(GRID2.ik_meshes[0] * spectrum)
        dyf = ifftn(GRID2.ik_meshes[1] * spectrum)
        lhs = lhs + 1j * (-omega * y) * dxf + 1j * (omega * x) * dyf  # -Omega.L part
        # divergence form of (-i grad + A)^2
        rhs = ifftn(GRID2.k2_mesh * spectrum)
        rhs = rhs - 1j * (ifftn(GRID2.ik_meshes[0] * fftn(ax * f))
                          + ifftn(GRID2.ik_meshes[1] * fftn(ay * f)))
        rhs = rhs - 1j * (ax * dxf + ay * dyf)
        rhs = rhs + (ax**2 + ay**2) * f - centri * f
        scale = np.linalg.norm(lhs[interior])
        assert np.linalg.norm((lhs - rhs)[interior]) < 1e-8 * max(1.0, scale)


def test_axisymmetric_quarter_turn_invariance():
    spec = ModelSpec(GRID2, HarmonicTrap((1.0, 1.0)), RotationSpec(0.8), 0.0)
    action = H0Action(spec)
    rng = np.random.default_rng(7)
    f = noise_field(GRID2, rng)
    f /= np.linalg.norm(f) * np.sqrt(GRID2.cell_volume)
    expect = np.vdot(f, action.apply(f)) * GRID2.cell_volume
    g = np.rot90(f)
    expect_rot = np.vdot(g, action.apply(g)) * GRID2.cell_volume
    assert abs(expect - expect_rot) < 1e-10 * max(1.0, abs(expect))


def test_angular_momentum_z_eigenstates():
    x, y = GRID2.meshes
    env = np.exp(-0.5 * GRID2.radius2_mesh)
    for m in (-2, -1, 0, 1, 2):
        base = (x + 1j * y) ** abs(m)
        if m < 0:
            base = np.conj(base)
        phi = normalized(Field(GRID2, base * env))
        assert abs(angular_momentum_z(phi) - m) < 1e-8
