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

import ctypes
import glob
import importlib
import os
import queue
import tempfile
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np
from scipy import fft as _fft

# Thread policy: one size rule.  A transform, or an elementwise phase of a
# descent (``Slabs``), on fewer than THREADED_SIZE elements runs on one
# thread (at 96^2 a second thread gains nothing); the cores go instead to
# whole solver restarts running side by side (gp.py).  Larger ones get
# thread_budget() threads, which every descent leaves free by holding
# numpy's OpenBLAS at one thread.  scipy.fft and elementwise ufuncs give the
# same bits for any thread count; reductions (sums, dots, norms) do not, so
# they stay whole, on the calling thread.
THREADED_SIZE = 1 << 17
_THREAD_BUDGET = None  # threads this process may keep busy; None = usable CPUs


def fftn(values, dim=None):
    """Forward transform of the trailing ``dim`` axes (default: all axes)."""
    return _fft.fftn(values, axes=_stack_axes(values, dim), workers=_workers(values))


def ifftn(values, dim=None):
    """Inverse of ``fftn`` over the same trailing axes, in place.

    ``values`` is scratch the caller gives up: a complex array comes back
    transformed in its own memory.
    """
    return _fft.ifftn(values, axes=_stack_axes(values, dim), workers=_workers(values),
                      overwrite_x=True)


def _workers(values):
    return 1 if values.size < THREADED_SIZE else thread_budget()


def thread_budget():
    """Threads this process may keep busy: its usable CPUs unless limited."""
    if _THREAD_BUDGET:
        return _THREAD_BUDGET
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # platforms without CPU affinity


def limit_threads(n):
    """Hold this process to ``n`` threads: transforms, restarts and slabs.

    For pool workers, so that k processes do not each start one thread per
    core.  BLAS keeps its own setting outside ``blas_threads`` regions.
    """
    global _THREAD_BUDGET
    _THREAD_BUDGET = n


def _whole(a):
    return a


class Slabs:
    """Elementwise work on a grid's arrays, cut along the grid's first axis.

    Each call is cut into ``count`` contiguous slabs of that axis (fewer
    when it is shorter): slab 0 runs on the calling thread, the others on
    threads that live while the object is entered as a context manager.  A
    count of 1 runs the work inline, as the plain numpy call.  Elementwise
    ufuncs give the same bits on any cut, so the count moves no bit;
    reductions are the caller's, made whole.  Results are allocated on the
    calling thread, in the order of the plain calls, so the heap does not
    depend on the count either.
    """

    def __init__(self, dim, count=1):
        self.dim = dim
        self.count = count
        self._cutters = {}  # axis length -> one cut function per slab
        self._inboxes = []
        self._done = queue.SimpleQueue()

    def __enter__(self):
        try:
            for i in range(1, self.count):
                inbox = queue.SimpleQueue()
                worker = threading.Thread(target=self._serve, args=(inbox,),
                                          name=f"rotbec-slab-{i}")
                worker.start()
                self._inboxes.append((inbox, worker))
        except BaseException:
            self.__exit__()  # join the threads already started
            raise
        return self

    def __exit__(self, *exc):
        for inbox, _ in self._inboxes:
            inbox.put(None)
        for _, worker in self._inboxes:
            worker.join()
        self._inboxes = []

    def _serve(self, inbox):
        while (job := inbox.get()) is not None:
            try:
                job[0](job[1])
                error = None
            except BaseException as exc:  # handed to the caller, which raises it
                error = exc
            job = None  # the phase's arrays are the caller's again before it resumes
            self._done.put(error)

    def __call__(self, ufunc, *operands, out=None):
        """``ufunc(*operands, out=out)``: a new array when ``out`` is None."""
        if self.count == 1:
            return ufunc(*operands, out=out)
        if out is None:
            out = np.empty(np.broadcast_shapes(*map(np.shape, operands)),
                           np.result_type(*operands))
        self.run(out, lambda cut: ufunc(*map(cut, operands), out=cut(out)))
        return out

    def bounds(self, like):
        """The slabs of arrays shaped like ``like``: slices of the grid's first axis."""
        n = like.shape[-self.dim]
        k = min(self.count, n)
        edges = [n * i // k for i in range(k + 1)]
        return [slice(a, b) for a, b in zip(edges, edges[1:])]

    def run(self, like, phase):
        """``phase(cut)`` once per slab of ``like``, all done on return.

        ``cut(a)`` is a's part of the slab: a view of its rows of the grid's
        first axis, or a itself when it has no such axis or length 1 there
        (scalars and meshes broadcast along it).  A phase writes through
        those views.  Every slab has finished before an error propagates.
        """
        n = like.shape[-self.dim]
        if n not in self._cutters:
            self._cutters[n] = [self._cutter(rows) for rows in self.bounds(like)]
        first, *rest = self._cutters[n]
        if not rest:
            phase(_whole)
            return
        for (inbox, _), cut in zip(self._inboxes, rest):
            inbox.put((phase, cut))
        try:
            phase(first)
        finally:
            errors = [self._done.get() for _ in rest]
        for exc in errors:
            if exc is not None:
                raise exc

    def _cutter(self, rows):
        index = (Ellipsis, rows) + (slice(None),) * (self.dim - 1)
        dim = self.dim

        def cut(a):
            return a[index] if getattr(a, "ndim", 0) >= dim and a.shape[-dim] != 1 else a
        return cut


# The wheels bundle two OpenBLAS copies, each with its own thread count:
# numpy's (numpy's @, vdot and np.linalg) and scipy's (scipy.linalg, hence
# LOBPCG's Rayleigh-Ritz, and ARPACK).  Per copy, keyed by its package: the
# package's library directory, the file pattern and the suffix of the
# scipy_openblas_{get,set}_num_threads names.
_OPENBLAS = {
    "numpy": ("numpy.libs", "libscipy_openblas64_*", "64_"),
    "scipy": ("scipy.libs", "libscipy_openblas-*", ""),
}


@cache
def _openblas(copy):
    """(get, set) thread-count functions of one bundled OpenBLAS, or None."""
    libs, pattern, suffix = _OPENBLAS[copy]
    package = importlib.import_module(copy)
    root = os.path.join(os.path.dirname(package.__file__), os.pardir, libs)
    for path in glob.glob(os.path.join(root, pattern)):
        lib = ctypes.CDLL(path)  # already loaded by its package: the same handle
        if hasattr(lib, "scipy_openblas_set_num_threads" + suffix):
            get = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
            get.argtypes, get.restype = [], ctypes.c_int
            put = getattr(lib, "scipy_openblas_set_num_threads" + suffix)
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


@contextmanager
def blas_threads(copy, n):
    """Hold the ``copy`` ("numpy" or "scipy") OpenBLAS at ``n`` threads.

    The previous count comes back on exit, also on an exception.  Without
    that bundled library this does nothing.
    """
    funcs = _openblas(copy)
    if funcs is None:
        yield
        return
    get, put = funcs
    old = get()
    put(n)
    try:
        yield
    finally:
        put(old)


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
        hw = tuple(float(h) for h in self.half_widths)
        pts = tuple(int(n) for n in self.points)
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

    def broadcast(self, axis, values):
        """One axis's samples shaped to broadcast against the grid."""
        shape = [1] * self.dim
        shape[axis] = self.points[axis]
        return values.reshape(shape)

    def sum_of_squares(self, arrays):
        """sum_a arrays[a]^2 as a full grid-shaped array."""
        total = np.zeros(self.shape)
        for a in arrays:
            total = total + a**2
        return total

    @cached_property
    def meshes(self):
        """Coordinate arrays broadcastable to the grid shape, one per axis."""
        return tuple(self.broadcast(a, self.axis_coordinates(a)) for a in range(self.dim))

    def wavenumbers(self, axis):
        """Spectral frequencies k = pi*m/L in FFT ordering."""
        return 2.0 * np.pi * _fft.fftfreq(self.points[axis], d=self.spacings[axis])

    @cached_property
    def k_meshes(self):
        """Wavenumber arrays broadcastable to the grid shape (Nyquist kept)."""
        return tuple(self.broadcast(a, self.wavenumbers(a)) for a in range(self.dim))

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
        return self.sum_of_squares(self.k_meshes)

    @cached_property
    def radius2_mesh(self):
        return self.sum_of_squares(self.meshes)

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


@contextmanager
def atomic_open(path, mode):
    """Write ``path`` through a temp file beside it, renamed into place on exit.

    On an exception the temp file is removed and ``path`` is left untouched,
    so a reader never sees a half-written output.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-rotbec-")
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
        os.chmod(tmp, 0o644)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_field_text(path, f, extra=""):
    """Dump as header line plus 're,im' CSV rows in row-major order.

    ``extra`` appends further key=value tokens to the header line (for the
    run's config hash and seed); readers ignore tokens they do not know.
    """
    flat = f.values.reshape(-1)
    header = f.grid.header() + ((" " + extra) if extra else "")
    with atomic_open(path, "w") as fh:
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
    with atomic_open(str(path) + ".hdr", "w") as fh:
        fh.write(header + "\n")
    pairs = np.empty(f.values.size * 2)
    pairs[0::2] = f.values.real.reshape(-1)
    pairs[1::2] = f.values.imag.reshape(-1)
    with atomic_open(path, "wb") as fh:
        fh.write(pairs.astype("<f8").tobytes())


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
