"""Trap potentials, rotation, and the one-particle Hamiltonian.

The one-particle operator is  H0 = -Delta + V(x) - Omega.L  with
L = -i x ^ grad, in units where hbar = 2m = 1.  The rotation term is
evaluated as -i (Omega ^ x) . grad: the coefficient of each derivative is a
coordinate transverse to that derivative's axis, so coordinate
multiplication and differentiation commute and the discrete operator stays
Hermitian.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse.linalg import LinearOperator, lobpcg

from .errors import NoConvergence, Unstable
from .lattice import Field, blas_threads, fftn, ifftn


def _axis_frequencies(nu, dim):
    """One trap frequency per grid axis: a single value repeats, else one per axis."""
    if len(nu) == 1:
        return nu * dim
    if len(nu) != dim:
        raise ValueError(f"{len(nu)} trap frequencies for a {dim}D grid")
    return nu


class HarmonicTrap:
    """V = sum_a nu_a^2 x_a^2."""

    def __init__(self, nu):
        self.nu = tuple(float(v) for v in np.atleast_1d(nu))
        if any(v <= 0 for v in self.nu):
            raise ValueError("harmonic trap frequencies must be positive")

    def evaluate(self, grid):
        V = np.zeros(grid.shape)
        for v, x in zip(self.frequencies(grid.dim), grid.meshes):
            V = V + (v * v) * x**2
        return V

    def frequencies(self, dim):
        return _axis_frequencies(self.nu, dim)

    def is_axisymmetric(self, grid):
        nu = self.frequencies(grid.dim)
        return nu[0] == nu[1]


class QuarticTrap:
    """V = sum_a nu_a^2 x_a^2 + lam |x|^4 with lam > 0 (confines any Omega)."""

    def __init__(self, nu, lam):
        self.nu = tuple(float(v) for v in np.atleast_1d(nu))
        self.lam = float(lam)
        if self.lam <= 0:
            raise ValueError("quartic coefficient must be positive")

    def evaluate(self, grid):
        V = grid.radius2_mesh**2 * self.lam
        for v, x in zip(_axis_frequencies(self.nu, grid.dim), grid.meshes):
            V = V + (v * v) * x**2
        return V

    def is_axisymmetric(self, grid):
        nu = _axis_frequencies(self.nu, grid.dim)
        return nu[0] == nu[1]


class SampledTrap:
    """Trap given by its values on the grid."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("sampled trap must be finite at all grid points")

    def evaluate(self, grid):
        if self.values.shape != grid.shape:
            raise ValueError("sampled trap shape does not match grid")
        return self.values

    def is_axisymmetric(self, grid):
        # axisymmetry is only certified up to the grid's exact symmetry,
        # rotation by 90 degrees about the last axis
        V = self.evaluate(grid)
        rot = np.rot90(V, axes=(0, 1))
        return bool(np.allclose(V, rot, rtol=0.0, atol=1e-12 * max(1.0, np.max(np.abs(V)))))


@dataclass(frozen=True)
class RotationSpec:
    """Angular velocity vector; in 2D only the out-of-plane component."""

    omega: tuple

    def __post_init__(self):
        om = np.atleast_1d(np.asarray(self.omega, dtype=float))
        if om.size == 1:
            om = np.array([0.0, 0.0, float(om[0])])
        if om.shape != (3,):
            raise ValueError("omega must be a scalar (z component) or a 3-vector")
        object.__setattr__(self, "omega", tuple(om))

    @property
    def omega_z(self):
        return self.omega[2]

    @property
    def magnitude(self):
        return float(np.linalg.norm(self.omega))

    @property
    def is_zero(self):
        return self.magnitude == 0.0


@dataclass(frozen=True)
class StabilityResult:
    stable: bool
    witness: tuple | None = None

    def __bool__(self):
        return self.stable


def check_stability(trap, rotation, grid=None, margin=1e-9):
    """Decide whether V - |Omega ^ x|^2 / 4 confines.

    Harmonic traps use the closed form (transverse nu^2 > |Omega|^2/4),
    quartic traps always confine, and sampled traps are tested by comparing
    the effective potential on the outermost grid shell against its value
    at the center.  The shell test also serves as fallback for rotation
    axes that are not grid axes.
    """
    om = np.asarray(rotation.omega)
    if isinstance(trap, QuarticTrap):
        return StabilityResult(True)
    if rotation.is_zero and isinstance(trap, SampledTrap):
        # no centrifugal term to escape along; a finite box confines any
        # bounded sampled potential
        return StabilityResult(True)
    if isinstance(trap, HarmonicTrap) and _axis_aligned(om) is not None:
        axis = _axis_aligned(om)
        dim = grid.dim if grid is not None else 3
        nu = trap.frequencies(dim)
        crit = np.dot(om, om) / 4.0
        for a in range(dim):
            if a == axis:
                continue
            if not nu[a] ** 2 > crit:
                witness = None
                if grid is not None:
                    pos = [0.0] * grid.dim
                    pos[a] = grid.axis_coordinates(a)[-1]
                    witness = tuple(pos)
                return StabilityResult(False, witness)
        return StabilityResult(True)
    if grid is None:
        raise ValueError("sampled-trap stability test requires a grid")
    return _shell_stability(trap, rotation, grid, margin)


def _axis_aligned(om):
    """Index of the single nonzero component, or None."""
    nz = np.nonzero(om)[0]
    if nz.size == 0:
        return 2
    if nz.size == 1:
        return int(nz[0])
    return None


def _omega_cross_x(rotation, grid):
    """The three components of Omega ^ x on the grid (z coordinate = 0 for 2D grids)."""
    om = np.asarray(rotation.omega)
    xr = list(grid.meshes) + [np.zeros((1,) * grid.dim)] * (3 - grid.dim)
    return [om[1] * xr[2] - om[2] * xr[1],
            om[2] * xr[0] - om[0] * xr[2],
            om[0] * xr[1] - om[1] * xr[0]]


def centrifugal_term(rotation, grid):
    """|Omega ^ x|^2 / 4 on the grid (z coordinate = 0 for 2D grids)."""
    cx, cy, cz = _omega_cross_x(rotation, grid)
    return 0.25 * (cx**2 + cy**2 + cz**2)


def _shell_stability(trap, rotation, grid, margin):
    eff = trap.evaluate(grid) - centrifugal_term(rotation, grid)
    shell = np.zeros(grid.shape, dtype=bool)
    for axis in range(grid.dim):
        idx = [slice(None)] * grid.dim
        idx[axis] = 0
        shell[tuple(idx)] = True
        idx[axis] = -1
        shell[tuple(idx)] = True
    center_idx = tuple(n // 2 for n in grid.points)
    center_val = eff[center_idx]
    shell_vals = np.where(shell, eff, np.inf)
    worst = np.unravel_index(np.argmin(shell_vals), grid.shape)
    if eff[worst] > center_val + margin:
        return StabilityResult(True)
    witness = tuple(float(grid.axis_coordinates(a)[i]) for a, i in enumerate(worst))
    return StabilityResult(False, witness)


@dataclass(frozen=True)
class ModelSpec:
    """Grid + trap + rotation + coupling; defines H0 and the GP functional."""

    grid: object
    trap: object
    rotation: RotationSpec
    g: float

    def __post_init__(self):
        if self.g < 0:
            raise ValueError("coupling g must be nonnegative")
        if self.grid.dim == 2 and any(self.rotation.omega[:2]):
            raise ValueError("a 2D grid allows only the out-of-plane rotation component")
        if isinstance(self.trap, (HarmonicTrap, QuarticTrap)):
            _axis_frequencies(self.trap.nu, self.grid.dim)  # raises on a count mismatch
        result = check_stability(self.trap, self.rotation, self.grid)
        if not result:
            raise Unstable(
                f"trap does not confine at Omega={self.rotation.omega}", result.witness
            )

    @property
    def is_axisymmetric(self):
        return self.trap.is_axisymmetric(self.grid) and _axis_aligned(
            np.asarray(self.rotation.omega)
        ) == 2

    @cached_property
    def h0(self):
        """The spec's one H0Action, built on first use and shared by every solver."""
        return H0Action(self)


class H0Action:
    """Cached tensors for repeatedly applying H0 on one grid.

    The hot loops of the minimizers work on raw complex arrays through this
    object; the Field-level API wraps it.  ``ModelSpec.h0`` keeps the one
    instance of a spec.
    """

    def __init__(self, spec):
        grid = spec.grid
        self.grid = grid
        self.V = spec.trap.evaluate(grid)
        self.k2 = grid.k2_mesh
        self.ik = grid.ik_meshes
        # Omega.L = -i (Omega ^ x).grad; store the real coefficient meshes
        self.rot_coeffs = None
        if spec.rotation.magnitude != 0.0:
            self.rot_coeffs = [c if np.any(c) else None
                               for c in _omega_cross_x(spec.rotation, grid)[: grid.dim]]

    def apply(self, values):
        """H0 on a field or on a stack of fields shaped (m,) + grid.shape."""
        dim = self.grid.dim
        spectrum = fftn(values, dim)
        out = ifftn(self.k2 * spectrum, dim)  # -Delta
        out += self.V * values
        if self.rot_coeffs is not None:
            for axis, coeff in enumerate(self.rot_coeffs):
                if coeff is None:
                    continue
                dphi = ifftn(self.ik[axis] * spectrum, dim)
                out += 1j * coeff * dphi  # -(-i c d/dx)
        return out

    # the batched name stays for stack callers (LOBPCG, the DM weight
    # update), and so that bench/tracer.py can count block calls apart
    apply_block = apply

    def precondition(self, values, shift):
        """(shift - Delta)^-1, the kinetic preconditioner, on a field or a stack."""
        dim = self.grid.dim
        return ifftn(fftn(values, dim) / (shift + self.k2), dim)

    def energy_parts(self, values):
        """(kinetic, potential, rotational) expectations of a unit-norm field.

        Raises ValueError when the rotational expectation, which must be
        real for the Hermitian operator, has an imaginary part above 1e-10.
        """
        grid = self.grid
        spectrum = fftn(values)
        w = grid.cell_volume / np.prod(grid.points)  # Parseval weight
        kinetic = float(np.sum(self.k2 * (spectrum.real**2 + spectrum.imag**2))) * w
        dens = values.real**2 + values.imag**2
        potential = float(np.sum(self.V * dens)) * grid.cell_volume
        rotational = 0.0
        if self.rot_coeffs is not None:
            acc = imag = 0.0
            for axis, coeff in enumerate(self.rot_coeffs):
                if coeff is None:
                    continue
                # -<phi| -i c d/dx |phi> = -Im <phi| c d/dx |phi>
                prod = np.conj(values) * ifftn(self.ik[axis] * spectrum)
                acc += float(np.sum(coeff * prod.imag))
                imag += float(np.sum(coeff * prod.real))
            rotational = -acc * grid.cell_volume
            imag *= grid.cell_volume
            if abs(imag) > 1e-10:
                raise ValueError(f"rotational term has imaginary part {imag!r}")
        return kinetic, potential, rotational


def apply_h0(spec, phi):
    """Apply H0 = -Delta + V - Omega.L to a field."""
    if phi.grid is not spec.grid and phi.grid != spec.grid:
        raise ValueError("field and model spec use different grids")
    return Field(spec.grid, spec.h0.apply(phi.values))


def angular_momentum_z(phi):
    """Expectation <L_z> = <phi| -i (x d/dy - y d/dx) |phi> / <phi|phi>."""
    grid = phi.grid
    spectrum = fftn(phi.values)
    dx = ifftn(grid.ik_meshes[0] * spectrum)
    dy = ifftn(grid.ik_meshes[1] * spectrum)
    x, y = grid.meshes[0], grid.meshes[1]
    lz = np.sum(np.conj(phi.values) * (-1j) * (x * dy - y * dx))
    nrm = np.sum(phi.values.real**2 + phi.values.imag**2)
    return float(lz.real / nrm)


def lowest_eigenpairs(spec, m, residual_tol=1e-8, maxiter=800, seed=7):
    """The m lowest eigenvalues and orthonormal eigenfields of H0.

    Blocked preconditioned eigensolver (LOBPCG with the kinetic-energy
    preconditioner): a single-vector Lanczos run cannot resolve the
    degenerate multiplets of symmetric traps.  Raises NoConvergence when
    residuals stay above ``residual_tol``.
    """
    if m < 1 or m > 16:
        raise ValueError("eigenpair count must be between 1 and 16")
    action = spec.h0
    grid = spec.grid
    size = int(np.prod(grid.points))
    guard = min(max(2, m // 2), size - m - 1)
    k = m + guard

    def columns(rows_map):
        """A map on (cols,) + grid stacks as an operator on (size, cols) blocks."""
        def matmat(block):
            cols = block.shape[1]
            stacked = np.ascontiguousarray(block.T).reshape((cols,) + grid.shape)
            return rows_map(stacked).reshape(cols, size).T

        return LinearOperator((size, size), matvec=lambda v: matmat(v.reshape(size, 1)).ravel(),
                              matmat=matmat, dtype=complex)

    op = columns(action.apply_block)
    prec = columns(lambda stacked: action.precondition(stacked, 1.0))
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((size, k)) + 1j * rng.standard_normal((size, k))
    # a smooth confined component speeds up the first iterations
    envelope = np.exp(-0.5 * grid.radius2_mesh).reshape(-1)
    x0 *= envelope[:, None]
    x0[:, 0] += envelope
    # scipy's OpenBLAS (the small dense Rayleigh-Ritz) at one thread changes
    # no bit; numpy's (the block products) stays at its default, because
    # capping it picks another vector of a degenerate shell.
    with np.errstate(all="ignore"), warnings.catch_warnings(), blas_threads("scipy", 1):
        warnings.simplefilter("ignore")  # residuals are re-checked below
        vals, vecs = lobpcg(op, x0, M=prec, largest=False, tol=residual_tol / 10.0,
                            maxiter=maxiter)
    order = np.argsort(vals)[:m]
    vals = vals[order]
    vecs = vecs[:, order]
    # verify the advertised residuals; lobpcg can return silently unconverged
    resid = op.matmat(vecs) - vecs * vals[None, :]
    resnorms = np.linalg.norm(resid, axis=0) * np.sqrt(grid.cell_volume)
    if np.any(resnorms > residual_tol):
        raise NoConvergence(
            f"eigensolver residuals {resnorms.max():.2e} above {residual_tol!r}",
            iterations=maxiter,
        )
    scale = 1.0 / np.sqrt(grid.cell_volume)
    fields = [Field(grid, vecs[:, j].reshape(grid.shape) * scale) for j in range(m)]
    return [(float(vals[j].real), fields[j]) for j in range(m)]
