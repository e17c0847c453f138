import glob
import importlib
import math
import os
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rotbec.lattice
from rotbec.lattice import (
    THREADED_SIZE,
    Field,
    Slabs,
    atomic_open,
    Grid,
    fftn,
    gradient_spectral,
    ifftn,
    inner,
    integrate,
    laplacian_spectral,
    limit_threads,
    norm,
    normalized,
    read_field_raw,
    read_field_text,
    thread_budget,
    write_field_raw,
    write_field_text,
)
from conftest import band_limited_field


def test_grid_invariants():
    g = Grid((4.0, 6.0), (32, 48))
    assert g.dim == 2
    assert g.spacings == (0.25, 0.25)
    for axis in range(2):
        assert g.spacings[axis] * g.points[axis] == 2 * g.half_widths[axis]
    with pytest.raises(ValueError):
        Grid((4.0,), (32,))  # 1D unsupported
    with pytest.raises(ValueError):
        Grid((4.0, 4.0), (31, 32))  # odd
    with pytest.raises(ValueError):
        Grid((4.0, 4.0), (4, 32))  # too few


def test_integrate_constant_is_box_area():
    g = Grid((4.0, 4.0), (32, 32))
    assert integrate(Field(g, np.ones(g.shape, dtype=complex))) == 64.0


def test_integrate_gaussian_3d():
    g = Grid((8.0,) * 3, (64,) * 3)
    f = Field(g, np.exp(-g.radius2_mesh).astype(complex))
    exact = math.pi ** 1.5
    assert abs(integrate(f) - exact) / exact < 1e-10


def test_integrate_zero_field():
    g = Grid((4.0, 4.0), (32, 32))
    assert integrate(g.zeros()) == 0.0


def test_gradient_plane_wave():
    g = Grid((4.0, 4.0), (32, 32))
    k0 = g.wavenumbers(0)[3]
    x = g.meshes[0]
    f = Field(g, np.exp(1j * k0 * x) * np.ones(g.shape))
    df = gradient_spectral(f, 0)
    assert np.abs(df.values - 1j * k0 * f.values).max() < 1e-12


def test_gradient_constant_is_zero():
    g = Grid((4.0, 4.0), (32, 32))
    f = Field(g, np.full(g.shape, 2.3 + 0.1j))
    for axis in range(2):
        assert np.abs(gradient_spectral(f, axis).values).max() < 1e-13


def test_gradient_cross_axis():
    # sin(k0 x) * gaussian(y), derivative along y
    g = Grid((6.0, 6.0), (64, 64))
    x, y = g.meshes
    k0 = g.wavenumbers(0)[2]
    f = Field(g, np.sin(k0 * x) * np.exp(-(y**2)))
    df = gradient_spectral(f, 1)
    exact = np.sin(k0 * x) * (-2.0 * y) * np.exp(-(y**2))
    assert np.abs(df.values - exact).max() < 1e-8


def test_laplacian_plane_wave_and_constant():
    g = Grid((4.0, 4.0), (32, 32))
    kx = g.wavenumbers(0)[2]
    ky = g.wavenumbers(1)[5]
    x, y = g.meshes
    f = Field(g, np.exp(1j * (kx * x + ky * y)))
    lap = laplacian_spectral(f)
    assert np.abs(lap.values + (kx**2 + ky**2) * f.values).max() < 1e-10
    const = Field(g, np.full(g.shape, 1.7 + 0j))
    assert np.abs(laplacian_spectral(const).values).max() < 1e-12


def test_laplacian_gaussian_3d():
    g = Grid((8.0,) * 3, (64,) * 3)
    r2 = g.radius2_mesh
    f = Field(g, np.exp(-0.5 * r2).astype(complex))
    lap = laplacian_spectral(f)
    exact = (r2 - 3.0) * np.exp(-0.5 * r2)
    assert np.abs(lap.values - exact).max() < 1e-8


def test_parseval():
    rng = np.random.default_rng(1)
    g = Grid((5.0, 5.0), (48, 48))
    f = Field(g, band_limited_field(g, rng))
    from scipy.fft import fftn

    spec = fftn(f.values)
    real_space = norm(f) ** 2
    spectral = np.sum(np.abs(spec) ** 2) * g.cell_volume / np.prod(g.points)
    assert abs(real_space - spectral) / real_space < 1e-12


def test_integration_by_parts():
    rng = np.random.default_rng(2)
    g = Grid((5.0, 5.0), (48, 48))
    f = Field(g, band_limited_field(g, rng))
    h = Field(g, band_limited_field(g, rng))
    lhs = inner(f, laplacian_spectral(h))
    rhs = inner(laplacian_spectral(f), h)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_derivative_linearity_and_commutation():
    rng = np.random.default_rng(3)
    g = Grid((5.0, 5.0), (48, 48))
    f = band_limited_field(g, rng)
    h = band_limited_field(g, rng)
    a, b = 1.3 - 0.2j, 0.7 + 2.1j
    combo = gradient_spectral(Field(g, a * f + b * h), 0)
    split = a * gradient_spectral(Field(g, f), 0).values + b * gradient_spectral(Field(g, h), 0).values
    assert np.abs(combo.values - split).max() < 1e-10
    dxy = gradient_spectral(gradient_spectral(Field(g, f), 0), 1)
    dyx = gradient_spectral(gradient_spectral(Field(g, f), 1), 0)
    assert np.abs(dxy.values - dyx.values).max() < 1e-10


def test_field_requires_finite_values():
    g = Grid((4.0, 4.0), (32, 32))
    bad = np.ones(g.shape, dtype=complex)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        Field(g, bad)


def test_field_dump_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    g = Grid((3.0, 4.0), (16, 24))
    f = normalized(Field(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)))
    text = tmp_path / "field.csv"
    write_field_text(text, f, extra="config_hash=deadbeef seed=1")
    back = read_field_text(text)
    assert back.grid == g
    assert np.abs(back.values - f.values).max() < 1e-15
    raw = tmp_path / "field.raw"
    write_field_raw(raw, f)
    back_raw = read_field_raw(raw)
    assert back_raw.grid == g
    assert np.abs(back_raw.values - f.values).max() == 0.0
    header = text.read_text().splitlines()[0]
    assert header.startswith("ROTBEC-FIELD v1 dim=2 n=16,24 L=3,4")


def test_atomic_writes_leave_nothing_on_failure(tmp_path):
    g = Grid((3.0, 3.0), (8, 8))
    values = np.full(g.shape, 1 + 0j, dtype=object)
    values[4, 4] = "not a number"  # the text writer fails after 36 rows
    with pytest.raises(AttributeError):
        write_field_text(tmp_path / "field.csv", SimpleNamespace(grid=g, values=values))
    with pytest.raises(OSError, match="disk full"):
        with atomic_open(tmp_path / "field.raw", "wb") as fh:
            fh.write(b"half a field")
            raise OSError("disk full")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("shape, dim", [
    ((32, 32), None),          # field below THREADED_SIZE
    ((4, 32, 32), 2),          # stack below
    ((64, 64, 64), None),      # field above
    ((9, 128, 128), 2),        # stack above
])
def test_transforms_match_all_core_scipy_bitwise(shape, dim):
    from scipy import fft

    rng = np.random.default_rng(3)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    axes = None if dim is None else tuple(range(-dim, 0))
    assert (a.size < THREADED_SIZE) == (shape[-1] == 32)
    assert np.array_equal(fftn(a, dim), fft.fftn(a, axes=axes, workers=-1))
    scratch = a.copy()
    out = ifftn(scratch, dim)
    assert np.shares_memory(out, scratch)  # ifftn transforms its argument in place
    assert np.array_equal(out, fft.ifftn(a, axes=axes, workers=-1))


def test_limit_threads_holds_large_transforms_and_budget(monkeypatch):
    from scipy import fft

    # large transforms ask for the usable CPUs (the affinity mask, not
    # os.cpu_count), and limit_threads holds both them and the budget
    monkeypatch.setattr(rotbec.lattice, "_THREAD_BUDGET", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    seen = []
    monkeypatch.setattr(fft, "fftn", lambda *a, **kw: seen.append(kw["workers"]))
    a = np.zeros((64, 64, 64), dtype=complex)
    fftn(a)
    assert thread_budget() == 3
    limit_threads(1)
    fftn(a)
    assert seen == [3, 1]
    assert thread_budget() == 1


@given(st.sampled_from([2, 3]), st.integers(1, 5), st.integers(8, 300), st.integers(8, 40),
       st.sampled_from([0, 1, 3]))
def test_slabs_cover_the_first_axis_once(dim, count, n0, n1, rows):
    shape = ((rows,) if rows else ()) + (n0,) + (n1,) * (dim - 1)
    like = np.broadcast_to(np.zeros((), complex), shape)  # no memory behind it
    slabs = Slabs(dim, count).bounds(like)
    assert [i for part in slabs for i in range(n0)[part]] == list(range(n0))
    assert len(slabs) == min(count, n0)
    sizes = [s.stop - s.start for s in slabs]
    assert max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("dim, shape", [
    (3, (66, 66, 66)),    # a field cut unevenly: 16, 17, 16, 17 planes
    (2, (2, 258, 258)),   # a stack, cut along its grid's first axis
])
def test_slab_cuts_change_no_bit_of_the_descent_ufuncs(dim, shape):
    rng = np.random.default_rng(5)
    grid_shape = shape[-dim:]
    operands = dict(
        a=rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
        b=rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
        r=rng.standard_normal(grid_shape),
        along=rng.standard_normal(grid_shape[:1] + (1,) * (dim - 1)),  # cut with the slab
        across=1j * rng.standard_normal((1,) + grid_shape[1:]),        # goes whole
    )

    def rowsum(x):
        return x.sum(axis=0) if x.ndim > dim else x

    ops = [lambda v: v.a * v.b, lambda v: v.r * v.b, lambda v: 0.3 * v.b,
           lambda v: (v.r - 0.7) * v.b, lambda v: v.a + v.b, lambda v: v.a - v.b,
           lambda v: -v.a, lambda v: np.conj(v.a) * v.b, lambda v: v.a.real**2 + v.a.imag**2,
           lambda v: 1.0 / (2.0 + v.r) * v.b, lambda v: v.along * v.a + v.across * v.b,
           lambda v: rowsum((np.conj(v.a) * v.b).real) * v.a]
    with Slabs(dim, 4) as slabs:
        for op in ops:
            want = op(SimpleNamespace(**operands))
            got = np.empty_like(want)

            def phase(cut):
                cut(got)[...] = op(SimpleNamespace(**{k: cut(x) for k, x in operands.items()}))
            slabs.run(got, phase)
            assert got.tobytes() == want.tobytes()  # signed zeros included
        # a ufunc call through the slabs allocates its result like numpy
        for ufunc, args in [(np.multiply, ("r", "b")), (np.add, ("a", "across")),
                            (np.square, ("r",)), (np.divide, ("b", "along"))]:
            got = slabs(ufunc, *(operands[k] for k in args))
            want = ufunc(*(operands[k] for k in args))
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("fails", ["caller", "worker"])
def test_slab_error_waits_for_every_slab(fails):
    caller = threading.get_ident()
    finished = []

    def phase(cut):
        on_caller = threading.get_ident() == caller
        if on_caller == (fails == "caller"):
            raise RuntimeError("slab fails")
        time.sleep(0.05)  # the other slab is still running when the error is raised
        finished.append(cut(np.arange(8))[0])

    with Slabs(1, 2) as slabs:
        with pytest.raises(RuntimeError, match="slab fails"):
            slabs.run(np.zeros(8), phase)
        assert finished == [0 if fails == "worker" else 4]


def test_slab_threads_live_while_entered():
    before = set(threading.enumerate())
    with Slabs(2, 3) as slabs:
        assert len(set(threading.enumerate()) - before) == 2
        a = np.ones((8, 8))
        assert slabs(np.add, a, a, out=a) is a and np.all(a == 2.0)
    assert set(threading.enumerate()) == before


@pytest.mark.parametrize("copy", ["numpy", "scipy"])
def test_every_bundled_openblas_has_a_thread_setter(copy):
    # a renamed wheel library would turn every blas_threads cap into a no-op
    package = os.path.dirname(importlib.import_module(copy).__file__)
    root = os.path.join(package, os.pardir, f"{copy}.libs")
    if not glob.glob(os.path.join(root, "libscipy_openblas*")):
        pytest.skip(f"{copy} has no bundled OpenBLAS")
    funcs = rotbec.lattice._openblas(copy)
    assert funcs is not None
    get, _ = funcs
    with rotbec.lattice.blas_threads(copy, 1):
        assert get() == 1


@pytest.mark.parametrize("shape, dim", [
    ((96, 96), 2), ((4, 96, 96), 2), ((32, 32), 2), ((24, 24), 2),
    ((16, 16, 16), 3), ((64, 64, 64), 3),
])
def test_batched_inverse_equals_per_row_calls_bitwise(shape, dim):
    # H0Action batches -Delta and the rotating derivatives into one call;
    # that must change no bit of any row
    rng = np.random.default_rng(4)
    batch = rng.standard_normal((3,) + shape) + 1j * rng.standard_normal((3,) + shape)
    rows = [ifftn(row.copy(), dim) for row in batch]
    out = ifftn(batch.copy(), dim)
    for got, want in zip(out, rows):
        assert np.array_equal(got, want)
