import numpy as np
import pytest

from rotbec.diagnostics import (
    azimuthal_average_profile,
    density_l1_distance,
    detect_vortices,
    minimizer_family_analysis,
    symmetry_breaking_metric,
    write_pgm,
)
from rotbec.errors import NotAxisymmetricTrap
from rotbec.lattice import Field, Grid, normalized
from rotbec.model import HarmonicTrap


GRID = Grid((8.0, 8.0), (64, 64))
X, Y = GRID.meshes
ENV = np.exp(-0.5 * GRID.radius2_mesh)


def seeded(m, x0=0.0, y0=0.0):
    base = ((X - x0) + 1j * (Y - y0)) ** abs(m)
    if m < 0:
        base = np.conj(base)
    return normalized(Field(GRID, base * ENV))


def test_single_vortex_at_origin():
    report = detect_vortices(seeded(1))
    assert report.vortices == [((0.0, 0.0), 1)]
    assert report.total_winding == 1
    assert abs(report.Lz_expectation - 1.0) < 1e-8


def test_negative_vortex():
    report = detect_vortices(seeded(-1))
    assert report.total_winding == -1
    assert abs(report.Lz_expectation + 1.0) < 1e-8


def test_gaussian_has_no_vortices():
    report = detect_vortices(normalized(Field(GRID, ENV.astype(complex))))
    assert report.vortices == []
    assert abs(report.Lz_expectation) < 1e-10


def test_double_winding_total():
    report = detect_vortices(seeded(-2))
    assert report.total_winding == -2
    assert abs(report.Lz_expectation + 2.0) < 1e-8
    # split across one charge-2 plaquette or several nearby unit charges,
    # all within a grid spacing of the origin
    for (px, py), w in report.vortices:
        assert abs(px) <= GRID.spacings[0] and abs(py) <= GRID.spacings[1]


def test_winding_additivity_random_constellations():
    rng = np.random.default_rng(0)
    for _ in range(10):
        k = rng.integers(2, 5)
        charges = rng.choice([-1, 1], size=k)
        xs = rng.uniform(-2.0, 2.0, size=k)
        ys = rng.uniform(-2.0, 2.0, size=k)
        w = np.ones(GRID.shape, dtype=complex)
        for q, a, b in zip(charges, xs, ys):
            zz = (X - a) + 1j * (Y - b)
            w = w * (zz if q > 0 else np.conj(zz))
        phi = normalized(Field(GRID, w * ENV))
        # generous floor: completeness in the Gaussian tail, where a zero
        # can sit next to a corner below the default floor
        floor = 1e-10 * float((np.abs(phi.values) ** 2).max())
        report = detect_vortices(phi, floor=floor)
        assert report.total_winding == charges.sum()


def test_detector_gauge_invariance():
    rng = np.random.default_rng(1)
    for _ in range(5):
        phi = seeded(1, x0=rng.uniform(-1, 1), y0=rng.uniform(-1, 1))
        base = detect_vortices(phi)
        shifted = Field(GRID, np.exp(1j * rng.uniform(0, 2 * np.pi)) * phi.values)
        again = detect_vortices(shifted)
        assert base.vortices == again.vortices
        assert abs(base.Lz_expectation - again.Lz_expectation) < 1e-12


def test_detector_rotation_covariance():
    rng = np.random.default_rng(2)
    for _ in range(5):
        x0, y0 = rng.uniform(-1.5, 1.5, size=2)
        phi = seeded(1, x0=x0, y0=y0)
        rotated = Field(GRID, np.rot90(phi.values, axes=(1, 0)).copy())
        base = detect_vortices(phi)
        rep = detect_vortices(rotated)
        assert rep.total_winding == base.total_winding
        # np.rot90(axes=(1, 0)) maps (x, y) -> (y, -x); vortex positions
        # must follow within one grid spacing
        want = sorted((round(py, 9), round(-px, 9)) for (px, py), _ in base.vortices)
        got = sorted((round(px, 9), round(py, 9)) for (px, py), _ in rep.vortices)
        dx = GRID.spacings[0]
        for (wx, wy), (gx, gy) in zip(want, got):
            assert abs(wx - gx) <= dx and abs(wy - gy) <= dx


def test_lz_of_real_field_is_zero():
    rng = np.random.default_rng(3)
    phi = normalized(Field(GRID, (rng.standard_normal(GRID.shape) * ENV).astype(complex)))
    assert abs(detect_vortices(phi).Lz_expectation) < 1e-10


def test_density_floor_excludes_halo_noise():
    rng = np.random.default_rng(4)
    vals = seeded(1).values + 1e-9 * (rng.standard_normal(GRID.shape)
                                      + 1j * rng.standard_normal(GRID.shape))
    report = detect_vortices(Field(GRID, vals))
    assert report.total_winding == 1
    assert all(abs(px) < 1.0 and abs(py) < 1.0 for (px, py), _ in report.vortices)


def test_symmetry_metric_radial_cases():
    radial = normalized(Field(GRID, ENV.astype(complex)))
    assert symmetry_breaking_metric(radial) < 1e-6
    vortex = seeded(1)  # density still radial
    assert symmetry_breaking_metric(vortex) < 1e-6


def test_symmetry_metric_displaced_vortex():
    assert symmetry_breaking_metric(seeded(1, x0=0.9, y0=0.4)) > 1e-2


def test_symmetry_metric_requires_axisymmetric_trap():
    trap = HarmonicTrap((1.0, 1.3))
    with pytest.raises(NotAxisymmetricTrap):
        symmetry_breaking_metric(seeded(0), trap=trap)


def test_azimuthal_profile_matches_gaussian():
    dens = np.exp(-GRID.radius2_mesh)
    radii = np.linspace(0.0, 5.0, 21)
    prof = azimuthal_average_profile(dens, GRID, radii)
    assert np.abs(prof - np.exp(-(radii**2))).max() < 1e-10


def test_family_analysis_clusters():
    class Fake:
        def __init__(self, phi, energy):
            self.phi = phi
            self.energy = energy

    a = seeded(1, x0=1.0)
    b = seeded(1, x0=-1.0)
    a2 = Field(GRID, np.exp(0.4j) * a.values)
    report = minimizer_family_analysis(
        [Fake(a, 1.0), Fake(a2, 1.0 + 5e-7), Fake(b, 1.0 + 2e-7)],
        energy_tol=1e-6, distance_tol=1e-3,
    )
    assert report.n_distinct_minimizers == 2
    assert len(report.pairwise_density_distances) == 3
    single = minimizer_family_analysis([Fake(a, 1.0)])
    assert single.n_distinct_minimizers == 1
    # single linkage: a ~ b and b ~ c join a and c, though they are far apart
    chain = [seeded(1, x0=dx) for dx in (0.0, 6e-4, 1.2e-3)]
    d = [density_l1_distance(chain[i], chain[j]) for i, j in ((0, 1), (1, 2), (0, 2))]
    assert max(d[0], d[1]) <= 1e-3 < d[2]
    report = minimizer_family_analysis([Fake(f, 1.0) for f in chain], distance_tol=1e-3)
    assert report.n_distinct_minimizers == 1
    assert type(report.n_distinct_minimizers) is int


def test_family_analysis_scoping_by_energy():
    class Fake:
        def __init__(self, phi, energy):
            self.phi = phi
            self.energy = energy

    a = seeded(0)
    b = seeded(2)  # far away in density but energetically excluded
    report = minimizer_family_analysis([Fake(a, 1.0), Fake(b, 1.1)],
                                       energy_tol=1e-6, distance_tol=1e-3)
    assert report.n_distinct_minimizers == 1


def test_zero_rotation_runs_form_single_cluster(sweep_data):
    # without rotation the minimizer is unique: every converged restart
    # lands in one density cluster
    for (g, omega), point in sweep_data.points.items():
        if omega == 0.0:
            assert point.clusters.n_distinct_minimizers == 1


def test_density_l1_distance_normalization():
    a = seeded(0)
    b = Field(GRID, 3.0 * a.values)  # same normalized density
    assert density_l1_distance(a, b) < 1e-12
    assert 0.0 < density_l1_distance(seeded(0), seeded(1, x0=1.2)) <= 2.0


def test_pgm_format(tmp_path):
    dens = np.exp(-GRID.radius2_mesh)
    path = tmp_path / "density.pgm"
    write_pgm(path, dens, comment="config_hash=abc seed=0")
    blob = path.read_bytes()
    assert blob.startswith(b"P5\n# config_hash=abc seed=0\n64 64\n65535\n")
    img = np.frombuffer(blob.rsplit(b"65535\n", 1)[1], dtype=">u2")
    assert img.size == 64 * 64
    assert img.max() == 65535  # peak maps to full scale
