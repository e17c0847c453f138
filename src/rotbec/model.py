"""Trap potentials, rotation, and the one-particle Hamiltonian.

The one-particle operator is  H0 = -Delta + V(x) - Omega.L  with
L = -i x ^ grad, in units where hbar = 2m = 1.  The rotation term is
evaluated as -i (Omega ^ x) . grad: the coefficient of each derivative is a
coordinate transverse to that derivative's axis, so coordinate
multiplication and differentiation commute and the discrete operator stays
Hermitian.

Each trap kind answers for itself on a grid: its values (``evaluate``),
whether it is axisymmetric and where V - |Omega ^ x|^2 / 4 fails to confine
(``unconfined``: a witness point, or None).  ``ModelSpec`` evaluates V once.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NoConvergence, Unstable
from .lattice import INLINE, Field, blas_threads, fftn, ifftn


def per_axis(values, dim, what):
    """One value per grid axis: a single value repeats, else exactly ``dim`` of them.

    ``what`` names the values in the error, e.g. "2 trap frequencies for a 3D grid".
    """
    values = tuple(values)
    if len(values) == 1:
        return values * dim
    if len(values) != dim:
        raise ValueError(f"{len(values)} {what} for a {dim}D grid")
    return values


class HarmonicTrap:
    """V = sum_a nu_a^2 x_a^2 with nu_a > 0."""

    def __init__(self, nu):
        self.nu = tuple(float(v) for v in np.atleast_1d(nu))
        if any(v <= 0 for v in self.nu):
            raise ValueError("harmonic trap frequencies must be positive")

    def frequencies(self, dim):
        return per_axis(self.nu, dim, "trap frequencies")

    def _base(self, grid):
        """The part of V that the axis terms are added to."""
        return np.zeros(grid.shape)

    def evaluate(self, grid):
        V = self._base(grid)
        for v, x in zip(self.frequencies(grid.dim), grid.meshes):
            V = V + (v * v) * x**2
        return V

    def is_axisymmetric(self, grid):
        nu = self.frequencies(grid.dim)
        return nu[0] == nu[1]

    def unconfined(self, rotation, grid):
        """On the grid axes V - |Omega ^ x|^2 / 4 = x^T A x, A = diag(nu^2) -
        (|Omega|^2 I - Omega Omega^T) / 4, which confines iff A's lowest
        eigenvalue is > 0 (Omega along a grid axis: transverse nu^2 > |Omega|^2/4).
        Witness: that eigenvector, scaled so its largest component is the
        outermost grid coordinate of its axis.
        """
        om, dim = np.array(rotation.omega), grid.dim
        A = np.diag(np.array(self.frequencies(dim)) ** 2) - (
            np.dot(om, om) * np.eye(dim) - np.outer(om[:dim], om[:dim])) / 4.0
        vals, vecs = np.linalg.eigh(A)
        if vals[0] > 0:
            return None
        v = vecs[:, 0]
        a = int(np.argmax(np.abs(v)))
        return tuple(float(c) + 0.0 for c in v / v[a] * grid.axis_coordinates(a)[-1])  # no -0.0


class QuarticTrap(HarmonicTrap):
    """V = lam |x|^4 + sum_a nu_a^2 x_a^2 with lam > 0 (any nu, even 0; confines any Omega)."""

    def __init__(self, nu, lam):
        self.nu = tuple(float(v) for v in np.atleast_1d(nu))
        self.lam = float(lam)
        if self.lam <= 0:
            raise ValueError("quartic coefficient must be positive")

    def _base(self, grid):
        return grid.radius2_mesh**2 * self.lam

    def unconfined(self, rotation, grid):
        return None


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
        # axisymmetry is only certified up to the grid's exact symmetry, the
        # quarter turn in the plane of axes 0 and 1, which a grid has only
        # when those axes have equal points and equal half-widths
        if grid.points[0] != grid.points[1] or grid.half_widths[0] != grid.half_widths[1]:
            return False
        V = self.evaluate(grid)
        rot = np.rot90(V, axes=(0, 1))
        return bool(np.allclose(V, rot, rtol=0.0, atol=1e-12 * max(1.0, np.max(np.abs(V)))))

    def unconfined(self, rotation, grid):
        """The shell test: the lowest point of V - |Omega ^ x|^2 / 4 on the
        outermost grid shell, unless it lies more than 1e-9 above the lowest
        interior value.  Not rotating, a finite box confines any bounded
        sampled V.
        """
        if rotation.is_zero:
            return None
        eff = self.evaluate(grid) - centrifugal_term(rotation, grid)
        interior = np.zeros(grid.shape, dtype=bool)
        interior[(slice(1, -1),) * grid.dim] = True
        worst = np.unravel_index(np.argmin(np.where(interior, np.inf, eff)), grid.shape)
        if eff[worst] > np.min(eff[interior]) + 1e-9:
            return None
        return tuple(float(grid.axis_coordinates(a)[i]) for a, i in enumerate(worst))


@dataclass(frozen=True)
class RotationSpec:
    """Angular velocity vector of Python floats; a single value is the z component."""

    omega: tuple

    def __post_init__(self):
        om = np.atleast_1d(np.asarray(self.omega, dtype=float))
        if om.size == 1:
            om = np.array([0.0, 0.0, float(om[0])])
        if om.shape != (3,):
            raise ValueError("omega must be a scalar (z component) or a 3-vector")
        object.__setattr__(self, "omega", tuple(om.tolist()))

    @property
    def is_zero(self):
        return not any(self.omega)

    @property
    def axis(self):
        """The grid axis Omega points along (2, the z axis, when zero), or None when tilted."""
        nonzero = [a for a, w in enumerate(self.omega) if w] or [2]
        return nonzero[0] if len(nonzero) == 1 else None


@dataclass(frozen=True)
class StabilityResult:
    stable: bool
    witness: tuple | None = None

    def __bool__(self):
        return self.stable


def check_stability(trap, rotation, grid):
    """Decide whether V - |Omega ^ x|^2 / 4 confines, by the trap kind's own rule.

    Harmonic traps use the exact quadratic-form rule, quartic traps always
    confine and sampled traps run a boundary-shell test while rotating (see
    each ``unconfined``).  An unstable result carries a witness, a point (a
    tuple of floats) where the effective potential is not above its centre value.
    """
    witness = trap.unconfined(rotation, grid)
    return StabilityResult(witness is None, witness)


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
        self.V  # raises when the trap does not fit the grid
        result = check_stability(self.trap, self.rotation, self.grid)
        if not result:
            raise Unstable(
                f"trap does not confine at Omega={self.rotation.omega}", result.witness
            )

    @property
    def is_axisymmetric(self):
        return self.trap.is_axisymmetric(self.grid) and self.rotation.axis == 2

    @cached_property
    def V(self):
        """The trap on the grid, evaluated once per spec."""
        return self.trap.evaluate(self.grid)

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
        self.V = spec.V
        self.k2 = grid.k2_mesh
        self.ik = grid.ik_meshes
        # Omega.L = -i (Omega ^ x).grad: (axis, real coefficient mesh) of
        # every derivative with a nonzero coefficient; none at Omega = 0
        self.rotating = tuple((axis, c) for axis, c in
                              enumerate(_omega_cross_x(spec.rotation, grid)[: grid.dim])
                              if np.any(c))
        # i c per rotating derivative: -Omega.L x = sum_a i c_a dx/dx_a
        self.rotation_factors = tuple(1j * c for _, c in self.rotating)

    def apply(self, values, slabs=INLINE):
        """H0 on a field or on a stack of fields shaped (m,) + grid.shape.

        ``slabs`` (``lattice.Slabs``) runs the elementwise work.
        """
        out, *derivatives = self.inverse(fftn(values, self.grid.dim), self.k2,
                                         slabs=slabs)  # -Delta, d/dx_a
        slabs(np.add, out, slabs(np.multiply, self.V, values), out=out)
        return self.add_rotation(out, derivatives, slabs)

    def inverse(self, spectrum, *scales, slabs=INLINE):
        """One batched inverse transform of a field's (or stack's) ``spectrum``.

        Returns the rows scale * spectrum, one per given scale (k2 gives
        -Delta of the field, 1.0 the field itself), then the derivatives
        along the rotating axes, for ``add_rotation``, all in real space and
        in that order.  The spectrum is left as it is.  ``slabs`` makes the
        products.
        """
        factors = scales + tuple(self.ik[axis] for axis, _ in self.rotating)
        rows = np.empty((len(factors),) + spectrum.shape, dtype=complex)
        for row, factor in zip(rows, factors):
            slabs(np.multiply, factor, spectrum, out=row)
        return ifftn(rows, self.grid.dim)

    def add_rotation(self, out, derivatives, slabs):
        """Add -Omega.L x to ``out`` in place, from x's ``derivatives`` along
        the rotating axes (see ``inverse``)."""
        for factor, dphi in zip(self.rotation_factors, derivatives):
            slabs(np.add, out, slabs(np.multiply, factor, dphi), out=out)  # -(-i c d/dx)
        return out

    # the batched name stays for LOBPCG, its one caller, and so that
    # bench/tracer.py can count block calls apart
    apply_block = apply

    def precondition(self, values, shift):
        """(shift - Delta)^-1, the kinetic preconditioner, on a field or a stack."""
        dim = self.grid.dim
        return ifftn(fftn(values, dim) / (shift + self.k2), dim)

    def energy_parts(self, rows):
        """Per-row (kinetic, potential, rotational) expectations of an (n,) + grid
        stack of unit-norm fields, from one forward transform and, when rotating,
        one batched ``inverse`` of the derivatives alone.  Raises ValueError when
        a rotational expectation, which must be real for the Hermitian operator,
        has an imaginary part above 1e-10.
        """
        grid = self.grid
        axes = tuple(range(1, rows.ndim))
        spectrum = fftn(rows, grid.dim)
        w = grid.cell_volume / np.prod(grid.points)  # Parseval weight
        kinetic = np.sum(self.k2 * (spectrum.real**2 + spectrum.imag**2), axis=axes) * w
        potential = np.sum(self.V * (rows.real**2 + rows.imag**2), axis=axes) * grid.cell_volume
        rotational = np.zeros(len(rows))
        if self.rotating:
            conj, acc, imag = np.conj(rows), 0.0, 0.0
            for (_, coeff), d in zip(self.rotating, self.inverse(spectrum)):
                # -<phi| -i c d/dx |phi> = -Im <phi| c d/dx |phi>
                prod = np.multiply(conj, d, out=d)  # d is the inverse's scratch
                acc += np.sum(coeff * prod.imag, axis=axes)
                imag += np.sum(coeff * prod.real, axis=axes)
            rotational = -acc * grid.cell_volume
            imag *= grid.cell_volume
            if np.any(abs(imag) > 1e-10):
                raise ValueError(f"rotational term has imaginary part {imag.tolist()!r}")
        return kinetic, potential, rotational


def on_grid(spec, phi):
    """The values of ``phi``; raises ValueError unless it lives on the spec's grid."""
    if phi.grid is not spec.grid and phi.grid != spec.grid:
        raise ValueError("field and model spec use different grids")
    return phi.values


def apply_h0(spec, phi):
    """Apply H0 = -Delta + V - Omega.L to a field."""
    return Field(spec.grid, spec.h0.apply(on_grid(spec, phi)))


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
    from scipy.sparse.linalg import LinearOperator, lobpcg

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
