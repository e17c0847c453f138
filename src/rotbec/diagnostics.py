"""Vortex detection, angular momentum, and symmetry-breaking metrics.

Vortices are located by the phase winding around grid plaquettes: the four
wrapped phase differences around a plaquette sum to 2*pi*winding.  The
azimuthal symmetry metric compares a density against the exact azimuthal
average of its band-limited interpolant, computed in Fourier space through
the Bessel identity (the angular mean of exp(i k.x) on the circle |x| = r
is J0(|k| r)), so radially symmetric densities score at rounding level.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.csgraph import connected_components
from scipy.special import j0

from .errors import NotAxisymmetricTrap
from .lattice import Grid, atomic_open, fftn
from .model import angular_momentum_z


@dataclass
class VortexReport:
    vortices: list  # (position, winding) pairs
    total_winding: int
    Lz_expectation: float
    density_floor_used: float

    @property
    def count(self):
        return len(self.vortices)


@dataclass
class SymmetryReport:
    n_distinct_minimizers: int
    pairwise_density_distances: list = field(default_factory=list)


def _transverse_slice(phi):
    """The xy-plane values; for 3D fields the slice nearest z = 0."""
    if phi.grid.dim == 2:
        return phi.values
    z = phi.grid.axis_coordinates(2)
    return phi.values[:, :, int(np.argmin(np.abs(z)))]


def detect_vortices(phi, floor=None):
    """Find quantized phase windings on grid plaquettes.

    A plaquette is examined only when all four corner densities exceed the
    floor (default 1e-6 of the peak density); phase is meaningless where
    the density vanishes.  Positions are plaquette centers.
    """
    vals = _transverse_slice(phi)
    grid = phi.grid
    dens = vals.real**2 + vals.imag**2
    if floor is None:
        floor = 1e-6 * float(dens.max())
    phase = np.angle(vals)
    x = grid.axis_coordinates(0)
    y = grid.axis_coordinates(1)
    dx, dy = grid.spacings[0], grid.spacings[1]

    def wrap(d):
        return (d + np.pi) % (2.0 * np.pi) - np.pi

    # each directed edge is wrapped once and reused with opposite signs by
    # its two plaquettes, so interior edges cancel exactly and the total
    # winding over any region equals that of its boundary contour
    ex = wrap(np.roll(phase, -1, axis=0) - phase)
    ey = wrap(np.roll(phase, -1, axis=1) - phase)
    circulation = ex + np.roll(ey, -1, axis=0) - np.roll(ex, -1, axis=1) - ey
    winding = np.rint(circulation / (2.0 * np.pi)).astype(int)

    ok = (dens > floor)
    ok = ok & np.roll(ok, -1, axis=0) & np.roll(ok, -1, axis=1) \
        & np.roll(np.roll(ok, -1, axis=0), -1, axis=1)
    winding = np.where(ok, winding, 0)

    vortices = []
    for i, j in zip(*np.nonzero(winding)):
        pos = (float(x[i] + 0.5 * dx), float(y[j] + 0.5 * dy))
        vortices.append((pos, int(winding[i, j])))
    lz = angular_momentum_z(phi)
    return VortexReport(
        vortices=vortices,
        total_winding=int(winding.sum()),
        Lz_expectation=lz,
        density_floor_used=float(floor),
    )


def azimuthal_average_profile(dens, grid, radii):
    """Exact azimuthal average of the band-limited interpolant of dens.

    Works in Fourier space: the angular mean over the circle of radius r of
    exp(i k.x) is J0(|k| r).  Costs one FFT plus a Bessel matrix over the
    distinct |k| values.
    """
    shape = dens.shape
    coeffs = fftn(dens.astype(complex)) / np.prod(shape)
    # shift coefficients to physical coordinates (samples are cell-centered)
    for axis in range(2):
        k = grid.wavenumbers(axis)
        x0 = grid.axis_coordinates(axis)[0]
        ph = np.exp(-1j * k * x0).reshape([-1 if a == axis else 1 for a in range(2)])
        coeffs = coeffs * ph
    kk = np.sqrt(grid.k2_mesh).reshape(-1)
    cc = coeffs.reshape(-1)
    kmags, inverse = np.unique(kk, return_inverse=True)
    csum = np.zeros(kmags.size, dtype=complex)
    np.add.at(csum, inverse, cc)
    profile = (j0(np.outer(np.asarray(radii), kmags)) @ csum).real
    return profile


def symmetry_breaking_metric(phi, trap=None):
    """L1 deviation of the density from its azimuthal average, normalized.

    s = |rho - rho_bar| _L1 / |rho|_L1, in [0, 2].  Raises
    NotAxisymmetricTrap when a trap is supplied and is not axisymmetric.
    """
    grid = phi.grid
    if trap is not None and not trap.is_axisymmetric(grid):
        raise NotAxisymmetricTrap("azimuthal metric needs an axisymmetric trap")
    vals = _transverse_slice(phi)
    if grid.dim == 3:
        grid = Grid(grid.half_widths[:2], grid.points[:2])
    dens = vals.real**2 + vals.imag**2
    x = grid.axis_coordinates(0)
    y = grid.axis_coordinates(1)
    rr = np.hypot(x[:, None], y[None, :])
    radii, inverse = np.unique(np.round(rr, 12).reshape(-1), return_inverse=True)
    profile = azimuthal_average_profile(dens, grid, radii)
    dens_bar = profile[inverse].reshape(dens.shape)
    num = float(np.sum(np.abs(dens - dens_bar)))
    den = float(np.sum(np.abs(dens)))
    return num / den


def density_l1_distance(a, b):
    """L1 distance of normalized densities of two fields on one grid."""
    da = a.values.real**2 + a.values.imag**2
    db = b.values.real**2 + b.values.imag**2
    dV = a.grid.cell_volume
    da = da / (np.sum(da) * dV)
    db = db / (np.sum(db) * dV)
    return float(np.sum(np.abs(da - db))) * dV


def minimizer_family_analysis(results, energy_tol=1e-6, distance_tol=1e-3):
    """Cluster converged minimizers by density and count the degenerate ones.

    Only results within energy_tol of the best energy participate in the
    cluster count; clustering is single-linkage on the pairwise L1 density
    distances with threshold distance_tol.
    """
    if not results:
        return SymmetryReport(0, [])
    best = min(r.energy for r in results)
    members = [r for r in results if r.energy <= best + energy_tol]
    n = len(members)
    dist = np.zeros((n, n))
    pairwise = []
    for i in range(n):
        for j in range(i + 1, n):
            d = density_l1_distance(members[i].phi, members[j].phi)
            dist[i, j] = dist[j, i] = d
            pairwise.append(d)
    # single-linkage clusters: components of the graph of close pairs
    n_clusters = int(connected_components(dist <= distance_tol, directed=False)[0])
    return SymmetryReport(n_distinct_minimizers=n_clusters, pairwise_density_distances=pairwise)


def write_pgm(path, values, kind="density", comment=""):
    """16-bit binary PGM (P5) image of a real 2D array.

    kind='density' maps [0, max] to the gray range; kind='phase' maps
    [-pi, pi] to it.  ``comment`` is embedded as a PGM comment line.
    """
    a = np.asarray(values, dtype=float)
    if kind == "phase":
        scaled = (a + np.pi) / (2.0 * np.pi)
    else:
        top = a.max()
        scaled = a / top if top > 0 else np.zeros_like(a)
    img = np.clip(np.rint(scaled * 65535.0), 0, 65535).astype(">u2")
    header = "P5\n"
    if comment:
        header += f"# {comment}\n"
    header += f"{a.shape[1]} {a.shape[0]}\n65535\n"
    with atomic_open(path, "wb") as fh:
        fh.write(header.encode())
        fh.write(img.tobytes())
