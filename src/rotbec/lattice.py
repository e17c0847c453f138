"""Periodic Cartesian grids with plane-wave spectral calculus.

The grid covers the box [-L, L) per axis with an even number of uniformly
spaced points placed at cell centers, x_i = -L + (i + 1/2) dx.  Cell
centering keeps the origin off the node set, so trap centers and seeded
vortex zeros fall at plaquette centers instead of on grid nodes (where a
phase singularity would make corner phases meaningless).  Derivatives are
computed by multiplication with i*k in Fourier space and are exact for
band-limited fields; quadrature is the rectangle rule, which is exact for
periodic band-limited integrands.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import fft as _fft

_FFT_WORKERS = -1  # scipy.fft thread pool; -1 = all cores


def fftn(values, dim=None):
    """Forward transform of the trailing ``dim`` axes (default: all axes)."""
    return _fft.fftn(values, axes=_stack_axes(values, dim), workers=_FFT_WORKERS)


def ifftn(values, dim=None):
    """Inverse of ``fftn`` over the same trailing axes."""
    return _fft.ifftn(values, axes=_stack_axes(values, dim), workers=_FFT_WORKERS)


def _stack_axes(values, dim):
    """Grid axes of a stack of fields, None (all axes) for a single field.

    Axes are named only for stacks: scipy's axis validation adds 8-15 us
    per call, up to a tenth of a whole 96^2 transform.
    """
    return None if dim is None or values.ndim == dim else tuple(range(-dim, 0))


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on a product of intervals [-L_a, L_a)."""

    half_widths: tuple
    points: tuple

    def __post_init__(self):
        hw = tuple(float(h) for h in np.atleast_1d(self.half_widths))
        pts = tuple(int(n) for n in np.atleast_1d(self.points))
        if len(hw) == 1 and len(pts) > 1:
            hw = hw * len(pts)
        if len(pts) == 1 and len(hw) > 1:
            pts = pts * len(hw)
        object.__setattr__(self, "half_widths", hw)
        object.__setattr__(self, "points", pts)
        if self.dim not in (2, 3):
            raise ValueError(f"grid must be 2- or 3-dimensional, got dim={self.dim}")
        if len(pts) != self.dim:
            raise ValueError("half_widths and points must have equal length")
        for h in hw:
            if not h > 0:
                raise ValueError("half_widths must be positive")
        for n in pts:
            if n < 8 or n % 2:
                raise ValueError("points per axis must be even and >= 8")

    @property
    def dim(self):
        return len(self.half_widths)

    @cached_property
    def spacings(self):
        return tuple(2.0 * h / n for h, n in zip(self.half_widths, self.points))

    @cached_property
    def cell_volume(self):
        return float(np.prod(self.spacings))

    @property
    def shape(self):
        return self.points

    def axis_coordinates(self, axis):
        """Cell-centered sample positions along one axis."""
        h, n, dx = self.half_widths[axis], self.points[axis], self.spacings[axis]
        return -h + (np.arange(n) + 0.5) * dx

    @cached_property
    def meshes(self):
        """Coordinate arrays broadcastable to the grid shape, one per axis."""
        out = []
        for axis in range(self.dim):
            shape = [1] * self.dim
            shape[axis] = self.points[axis]
            out.append(self.axis_coordinates(axis).reshape(shape))
        return tuple(out)

    def wavenumbers(self, axis):
        """Spectral frequencies k = pi*m/L in FFT ordering."""
        return 2.0 * np.pi * _fft.fftfreq(self.points[axis], d=self.spacings[axis])

    @cached_property
    def k_meshes(self):
        """Wavenumber arrays broadcastable to the grid shape (Nyquist kept)."""
        out = []
        for axis in range(self.dim):
            shape = [1] * self.dim
            shape[axis] = self.points[axis]
            out.append(self.wavenumbers(axis).reshape(shape))
        return tuple(out)

    @cached_property
    def ik_meshes(self):
        """i*k per axis with the Nyquist row zeroed (anti-Hermitian d/dx)."""
        out = []
        for axis, k in enumerate(self.k_meshes):
            k = k.copy()
            k.reshape(-1)[self.points[axis] // 2] = 0.0
            out.append(1j * k)
        return tuple(out)

    @cached_property
    def k2_mesh(self):
        k2 = np.zeros(self.shape)
        for k in self.k_meshes:
            k2 = k2 + k**2
        return k2

    @cached_property
    def radius2_mesh(self):
        r2 = np.zeros(self.shape)
        for x in self.meshes:
            r2 = r2 + x**2
        return r2

    def zeros(self):
        return Field(self, np.zeros(self.shape, dtype=complex))

    def header(self):
        n = ",".join(str(p) for p in self.points)
        ell = ",".join(_fmt(h) for h in self.half_widths)
        return f"ROTBEC-FIELD v1 dim={self.dim} n={n} L={ell}"


@dataclass
class Field:
    """Complex amplitude function sampled on a grid.

    Treated as an immutable value after construction: operations return new
    fields and never write into ``values``.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != self.grid.shape:
            raise ValueError(f"values shape {vals.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(vals.view(float))):
            raise ValueError("field values must be finite")
        self.values = vals

    def copy(self):
        return Field(self.grid, self.values.copy())


def integrate(f):
    """Quadrature of a scalar density over the box (rectangle rule)."""
    total = complex(np.sum(f.values)) * f.grid.cell_volume
    if abs(total.imag) <= 1e-12 * max(1.0, abs(total.real)):
        return total.real
    return total


def inner(f, g):
    """L2 inner product <f|g> = integral of conj(f)*g."""
    return complex(np.vdot(f.values, g.values)) * f.grid.cell_volume


def norm(f):
    """L2 norm of a field."""
    return float(np.linalg.norm(f.values)) * np.sqrt(f.grid.cell_volume)


def normalized(f):
    n = norm(f)
    if n == 0.0:
        raise ZeroDivisionError("cannot normalize the zero field")
    return Field(f.grid, f.values / n)


def gradient_spectral(f, axis):
    """Partial derivative along ``axis`` by spectral differentiation."""
    spec = fftn(f.values)
    return Field(f.grid, ifftn(spec * f.grid.ik_meshes[axis]))


def laplacian_spectral(f):
    """Laplacian (multiplication by -|k|^2 in Fourier space; returns Delta f)."""
    spec = fftn(f.values)
    return Field(f.grid, ifftn(-f.grid.k2_mesh * spec))


def _fmt(x):
    """Shortest decimal round-tripping a float; integers without trailing .0."""
    x = float(x)
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def write_field_text(path, f, extra=""):
    """Dump as header line plus 're,im' CSV rows in row-major order.

    ``extra`` appends further key=value tokens to the header line (for the
    run's config hash and seed); readers ignore tokens they do not know.
    """
    flat = f.values.reshape(-1)
    header = f.grid.header() + ((" " + extra) if extra else "")
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for v in flat:
            fh.write(f"{float(v.real)!r},{float(v.imag)!r}\n")


def read_field_text(path):
    with open(path) as fh:
        grid = _parse_header(fh.readline())
        data = np.loadtxt(fh, delimiter=",")
    vals = data[:, 0] + 1j * data[:, 1]
    return Field(grid, vals.reshape(grid.shape))


def write_field_raw(path, f, extra=""):
    """Dump raw little-endian float64 (re, im) pairs; header in a sidecar file."""
    header = f.grid.header() + ((" " + extra) if extra else "")
    with open(str(path) + ".hdr", "w") as fh:
        fh.write(header + "\n")
    pairs = np.empty(f.values.size * 2)
    pairs[0::2] = f.values.real.reshape(-1)
    pairs[1::2] = f.values.imag.reshape(-1)
    pairs.astype("<f8").tofile(path)


def read_field_raw(path):
    with open(str(path) + ".hdr") as fh:
        grid = _parse_header(fh.readline())
    pairs = np.fromfile(path, dtype="<f8")
    vals = pairs[0::2] + 1j * pairs[1::2]
    return Field(grid, vals.reshape(grid.shape))


def _parse_header(line):
    tokens = line.split()
    if len(tokens) < 5 or tokens[0] != "ROTBEC-FIELD" or tokens[1] != "v1":
        raise ValueError(f"not a ROTBEC-FIELD v1 header: {line!r}")
    kv = dict(t.split("=", 1) for t in tokens[2:])
    dim = int(kv["dim"])
    points = tuple(int(s) for s in kv["n"].split(","))
    half_widths = tuple(float(s) for s in kv["L"].split(","))
    if len(points) != dim or len(half_widths) != dim:
        raise ValueError("header dim does not match n=/L= lists")
    return Grid(half_widths, points)
