"""The Gross-Pitaevskii energy functional and its constrained minimization.

The energy of a unit-norm field is  <phi|H0|phi> + 4 pi g int |phi|^4,
minimized over the unit sphere of L2 by a normalized gradient flow whose
steps come from trust-region Newton subproblems (Steihaug-CG with a
kinetic preconditioner, run on the Fourier coefficients of the field, where
the preconditioner is diagonal and inner products are Parseval sums);
accepted iterates never increase the energy
while energy differences are resolvable in double precision.  Restarts
start from complex Gaussian noise under a Gaussian envelope plus
deterministic vortex-seeded profiles (x+iy)^q exp(-|x|^2/2), q = 0..3,
and every converged restart is retained so degenerate minimizer families
can be reported.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import NoConvergence, NotNormalized
from .lattice import INLINE, Field, Slabs, blas_threads, fftn, ifftn, thread_budget, threads_for
from .model import on_grid

_NORM_TOL = 1e-8
_CG_STEPS = 150  # Steihaug-CG steps per trust-region subproblem


@dataclass(frozen=True)
class GPBreakdown:
    kinetic: float
    potential: float
    rotational: float
    interaction: float

    @property
    def total(self):
        return self.kinetic + self.potential + self.rotational + self.interaction


@dataclass(frozen=True)
class Restart:
    """One start of a GP or DM minimization and how its descent ended.

    ``start`` is its kind: "vortex q=0".."vortex q=3" or "noise" (GP),
    "seeded", "vortex" or "noise" (DM), "given" (explicit ``starts=``).
    """

    start: str
    applications: int
    ok: bool
    residual: float


@dataclass
class GPResult:
    phi: Field = dc_field(repr=False)
    energy: float = 0.0
    mu: float = 0.0
    breakdown: GPBreakdown = None
    residual: float = 0.0
    iterations: int = 0
    restarts: tuple = ()  # every start of the call, converged or not

    @property
    def restarts_used(self):
        return len(self.restarts)


def state_terms(spec, rows):
    """(kinetic, potential, rotational, G) of an (n,) + grid stack of unit-norm rows.

    The first three are <row_i|H0|row_i> by parts (``H0Action.energy_parts``)
    and G_ij = 4 pi g int |row_i|^2 |row_j|^2.  Weights w on orthonormal rows
    have the energy w.(kinetic + potential + rotational) + w^T G w; a GP
    field is the one-row stack.
    """
    parts = spec.h0.energy_parts(rows)
    dens = (rows.real**2 + rows.imag**2).reshape(len(rows), -1)
    G = np.array([4.0 * math.pi * spec.g * np.sum(d * dens, axis=1) * spec.grid.cell_volume
                  for d in dens])  # row by row: no (n, n) + grid temporary
    return (*parts, G)


def gp_energy(spec, phi):
    """Term-by-term energy of a unit-norm field, from ``state_terms`` of its one row."""
    nrm = float(np.linalg.norm(phi.values)) * math.sqrt(phi.grid.cell_volume)
    if abs(nrm - 1.0) > _NORM_TOL:
        raise NotNormalized(f"|phi|_2 = {nrm!r}, expected 1")
    *parts, G = state_terms(spec, on_grid(spec, phi)[None])
    return GPBreakdown(*(float(part[0]) for part in parts), float(G[0, 0]))


def gp_gradient(spec, phi):
    """Unconstrained functional derivative H0 phi + 8 pi g |phi|^2 phi."""
    values = on_grid(spec, phi)
    out = spec.h0.apply(values)
    if spec.g:
        dens = values.real**2 + values.imag**2
        out += (8.0 * math.pi * spec.g) * dens * values
    return Field(spec.grid, out)


def chemical_potential(spec, phi):
    """mu = E[phi] + 4 pi g int |phi|^4."""
    parts = gp_energy(spec, phi)
    return parts.total + parts.interaction


@dataclass
class _State:
    psi: np.ndarray
    energy: float
    mu: float
    dens: np.ndarray
    res: np.ndarray
    resnorm: float


class _Flow:
    """Array-level descent state for one model spec.

    One trust-region engine minimizes both functionals.  It works on arrays
    whose trailing ``grid.dim`` axes are the grid: a GP field has no
    leading axis, and a rank-n density-matrix state is an (n,) + grid
    stack of fields sharing one global norm constraint.  H0 and the
    transforms act row by row on a stack; only the density and its rate
    sum over the leading axis, and only when there is one.

    Every elementwise operation of a descent goes through ``slabs``
    (``lattice.Slabs``, fixed for the flow's life; ``descend_all`` picks
    them), which may cut it along the grid's first axis.  The operations
    allocate and reuse arrays as numpy does for the plain expression on
    large arrays (``x + a * d`` is ``t = a * d; t += x``), so the heap, and
    with it peak memory, stays as it was.  Every reduction (the energies,
    ``_dot``, norms, the projection's coefficient) is made whole on the
    calling thread, since a split sum rounds differently; so no bit depends
    on the slab count.
    """

    def __init__(self, spec, slabs=INLINE):
        self.action = spec.h0
        self.dim = spec.grid.dim
        self.dV = spec.grid.cell_volume
        self.weight = self.dV / math.prod(spec.grid.shape)  # Parseval: dV / N
        self.coeff = 8.0 * math.pi * spec.g
        self.slabs = slabs

    def _rowsum(self, a):
        if a.ndim == self.dim:
            return a
        out = np.empty(a.shape[1:], a.dtype)
        self.slabs.run(a, lambda cut: np.sum(cut(a), axis=0, out=cut(out)))
        return out

    def _density(self, psi):
        op = self.slabs
        squares = op(np.square, psi.real)
        return self._rowsum(op(np.add, squares, op(np.square, psi.imag), out=squares))

    def _density_rate(self, psi, d):
        op = self.slabs
        prod = op(np.conj, psi)
        rate = self._rowsum(op(np.multiply, prod, d, out=prod).real)
        # a stack's row sum is a new array, doubled in place; a field's is a view
        return op(np.multiply, rate, 2.0, out=rate if psi.ndim > self.dim else None)

    def normalize(self, psi):
        return self.slabs(np.divide, psi, np.linalg.norm(psi) * math.sqrt(self.dV))

    def evaluate(self, psi):
        """Energy, chemical potential and sphere residual of a unit-norm array."""
        op = self.slabs
        hpsi = self.action.apply(psi, op)
        dens = self._density(psi)
        e_h0 = float(np.vdot(psi, hpsi).real) * self.dV
        e_int = 0.5 * self.coeff * float(np.sum(op(np.multiply, dens, dens))) * self.dV
        grad = hpsi
        if self.coeff:
            grad = op(np.multiply, op(np.multiply, self.coeff, dens), psi)
            op(np.add, grad, hpsi, out=grad)
        mu = float(np.vdot(psi, grad).real) * self.dV
        res = op(np.subtract, grad, op(np.multiply, mu, psi))
        resnorm = float(np.linalg.norm(res)) * math.sqrt(self.dV)
        return _State(psi, e_h0 + e_int, mu, dens, res, resnorm)

    def _dot(self, a, b):
        """Re<a|b> of the arrays whose spectra are a and b (Parseval)."""
        return float(np.vdot(a, b).real) * self.weight

    def _project(self, psi_hat, v):
        """Remove, in place, the component of the spectrum v along the unit-norm
        state whose spectrum is psi_hat: the tangent projection."""
        op = self.slabs
        return op(np.subtract, v, op(np.multiply, psi_hat, np.vdot(psi_hat, v) * self.weight),
                  out=v)

    def _axpy(self, x, scale, v):
        """x + scale * v as a new array."""
        out = self.slabs(np.multiply, scale, v)
        return self.slabs(np.add, out, x, out=out)

    def hessian(self, st, psi_hat, spectrum):
        """Tangent-projected second variation of the energy at st, on a spectrum.

        Real-linear: it couples d and conj(d) through the interaction, so
        the Krylov loop below runs in the real inner product Re<.,.>.  Two
        transforms: the inverse in ``_real_space_terms`` and one forward;
        (k^2 - mu) and the projection act on the spectrum.
        """
        op = self.slabs
        out = fftn(self._real_space_terms(st, spectrum), self.dim)
        op(np.add, out, op(np.multiply, op(np.subtract, self.action.k2, st.mu), spectrum), out=out)
        return self._project(psi_hat, out)

    def _real_space_terms(self, st, spectrum):
        """V d - Omega.L d plus the interaction terms of the Hessian, for the d
        of ``spectrum``, from one batched inverse transform: scale 1.0 gives
        d itself, then its derivatives.  (They are freed on return, before
        the forward transform.)"""
        op = self.slabs
        d, *derivatives = self.action.inverse(spectrum, 1.0, slabs=op)
        local = self.action.add_rotation(op(np.multiply, self.action.V, d), derivatives, op)
        if self.coeff:
            terms = op(np.multiply, st.dens, d)
            op(np.add, terms, op(np.multiply, self._density_rate(st.psi, d), st.psi), out=terms)
            op(np.add, local, op(np.multiply, terms, self.coeff, out=terms), out=local)
        return local

    def _subproblem(self, st, radius, cap, rel_tol):
        """Steihaug-CG on the trust-region model around st, run on spectra.

        Minimizes m(x) = 2<res,x> + <x,(H+sigma)x> over |x| <= radius; the
        small shift sigma ~ |res| regularizes the exact zero mode of
        axisymmetric problems (rigid rotation of a vortex configuration).
        r, z, d, x and jd are Fourier coefficients: the kinetic
        preconditioner (max(1, |mu|) - Delta)^-1 is one multiply, inner
        products are Parseval sums, and each Hessian application costs two
        transforms.  At most ``cap`` applications, the boundary recompute
        included.  Returns (real-space step, predicted model decrease,
        hit_boundary, applies).
        """
        op = self.slabs
        psi_hat = fftn(st.psi, self.dim)
        recip = op(np.divide, 1.0, op(np.add, max(1.0, abs(st.mu)), self.action.k2))
        sigma = st.resnorm

        def curvature(v):
            out = self.hessian(st, psi_hat, v)
            return op(np.add, out, op(np.multiply, sigma, v), out=out)

        r = fftn(st.res, self.dim)
        x = np.zeros_like(r)
        xn2 = 0.0
        z = self._project(psi_hat, op(np.multiply, recip, r))
        d = op(np.negative, z)
        rz = self._dot(r, z)
        gnorm2 = st.resnorm * st.resnorm
        inner = 0
        boundary = False
        for _ in range(min(_CG_STEPS, cap)):
            jd = curvature(d)
            inner += 1
            djd = self._dot(d, jd)
            if djd <= 0.0:
                boundary = True
                break
            alpha = rz / djd
            xn = self._axpy(x, alpha, d)
            xn_norm2 = self._dot(xn, xn)
            if xn_norm2 >= radius * radius:
                boundary = True
                break
            x, xn2 = xn, xn_norm2
            op(np.add, r, op(np.multiply, alpha, jd), out=r)
            if self._dot(r, r) <= rel_tol * rel_tol * gnorm2:
                break
            z = self._project(psi_hat, op(np.multiply, recip, r))
            rz_new = self._dot(r, z)
            op(np.multiply, d, rz_new / rz, out=d)
            op(np.subtract, d, z, out=d)
            rz = rz_new
        # the boundary point needs one more application (r is stale there);
        # without room for it the step stays at the last interior iterate
        hit = boundary and inner < cap
        if hit:
            dd = self._dot(d, d)
            xd = self._dot(x, d)
            tau = (-xd + math.sqrt(max(xd * xd + dd * (radius * radius - xn2), 0.0))) / dd
            x = self._axpy(x, tau, d)
            jx = curvature(x)
            inner += 1
            model = self._dot(x, jx)
        else:
            model = self._dot(x, r)
        step = ifftn(x, self.dim)
        gx = float(np.vdot(st.res, step).real) * self.dV
        return step, (2.0 if hit else 1.0) * gx + model, hit, inner

    def descend(self, psi0, tol, max_iter):
        """Minimize over the unit sphere; returns (psi, res, iters, ok).

        Trust-region Newton (Steihaug-CG subproblems, kinetic
        preconditioner, normalize-retraction): plain gradient flows crawl
        on the soft vortex-position modes of rotating states, while the
        trust region exploits the same flat or negative curvature to ride
        valleys quickly and still guarantees nonincreasing energies.  Once
        predicted decreases drop below the double-precision rounding floor,
        steps are judged by residual decrease instead, which is the only
        signal left at that scale.  The CG runs on spectra (``_subproblem``);
        each step returns to real space once.  ``iters`` counts operator
        applications (Hessian applications and evaluations) and never
        exceeds ``max_iter``.
        """
        st = self.evaluate(self.normalize(psi0.astype(complex)))
        iters = 1
        best = st
        radius = 0.5
        fails = 0
        # each outer step needs one application for its subproblem and one
        # to evaluate the candidate; the subproblem gets what is left
        while st.resnorm > tol and iters < max_iter - 1:
            rel_tol = min(0.1, math.sqrt(st.resnorm))
            step, predicted, hit, inner = self._subproblem(
                st, radius, cap=max_iter - iters - 1, rel_tol=rel_tol
            )
            iters += inner
            if predicted >= 0.0:
                break  # no descent left in the model
            cand = self.evaluate(self.normalize(self.slabs(np.add, st.psi, step)))
            iters += 1
            noise_floor = 5e-15 * max(1.0, abs(st.energy))
            if -predicted > noise_floor:
                rho = (cand.energy - st.energy) / predicted
                accepted = cand.energy <= st.energy
                if rho < 0.25:
                    radius = max(radius * 0.25, 1e-14)
                elif rho > 0.75 and hit:
                    radius = min(radius * 2.0, 16.0)
            else:
                accepted = cand.resnorm <= st.resnorm
                if not accepted:
                    radius = max(radius * 0.25, 1e-14)
                elif hit:
                    radius = min(radius * 2.0, 16.0)
            if accepted:
                st = cand
                if st.resnorm < best.resnorm:
                    best = st
                fails = 0
            else:
                fails += 1
                if fails >= 30:
                    break
        if st.resnorm > best.resnorm:
            st = best
        return st.psi, st.resnorm, iters, st.resnorm <= tol


def descend_all(spec, starts, tol, max_iter):
    """``_Flow.descend`` on every (kind, array) start: (arrays, Restart records).

    The one place that spends the cores on descents, by ``threads_for`` the
    first start's size.  With one thread, single fields run side by side on
    the thread budget and stacks run inline; with more, the starts run one
    after another, each elementwise operation cut into that many slabs
    (``lattice.Slabs``: slab 0 on this thread, the others on threads started
    for the call).  numpy's OpenBLAS is held at one thread throughout, so no
    bit depends on the thread count.  Both lists come back in start order.
    Raises NoConvergence when no start converges.
    """
    first = starts[0][1]
    threads = threads_for(first.size)
    with blas_threads("numpy", 1), Slabs(spec.grid.dim, threads) as slabs:
        flow = _Flow(spec, slabs)

        def descend(start):
            return flow.descend(start[1], tol, max_iter)

        if threads == 1 and first.ndim == spec.grid.dim:
            with ThreadPoolExecutor(min(thread_budget(), len(starts))) as pool:
                runs = list(pool.map(descend, starts))
        else:
            runs = [descend(start) for start in starts]
    records = tuple(Restart(kind, iters, ok, res)
                    for (kind, _), (_, res, iters, ok) in zip(starts, runs))
    if not any(r.ok for r in records):
        raise NoConvergence(f"none of {len(records)} restarts reached residual {tol!r} "
                            f"within {max_iter} iterations", iterations=max_iter)
    return [run[0] for run in runs], records


def _given_starts(spec, starts, rows, error):
    """Explicit ``starts=`` as ("given", array) pairs, each of ``rows`` + grid
    shape.  A start is an array, a Field on the spec's grid (a one-row
    stack where ``rows`` is given) or a sequence of either, stacked; a Field
    on another grid raises ValueError."""
    def values(start):
        if isinstance(start, Field):
            return on_grid(spec, start)
        if isinstance(start, (list, tuple)):
            return np.stack([values(row) for row in start])
        return np.asarray(start)

    shape = rows + spec.grid.shape
    starts = [("given", values([psi0] if rows and isinstance(psi0, Field) else psi0))
              for psi0 in starts]
    if not starts:
        raise ValueError("starts= is empty: there is nothing to descend from")
    if any(psi0.shape != shape for _, psi0 in starts):
        raise error(f"every start must have shape {shape}")
    return starts


def gaussian_envelope(grid):
    return np.exp(-0.5 * grid.radius2_mesh)


def vortex_seed(grid, q):
    """(x + i y)^q exp(-|x|^2/2) as a raw array; q = 0 is the plain Gaussian."""
    x, y = grid.meshes[0], grid.meshes[1]
    return (x + 1j * y) ** q * gaussian_envelope(grid) if q else gaussian_envelope(grid).astype(complex)


def _starting_fields(grid, restarts, seed):
    rng = np.random.default_rng(seed)
    starts = [(f"vortex q={q}", vortex_seed(grid, q)) for q in range(4)]
    env = gaussian_envelope(grid)
    for _ in range(restarts):
        noise = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        starts.append(("noise", noise * env))
    return starts


def minimize_gp_family(spec, tol=1e-8, max_iter=200000, restarts=4, seed=0,
                       starts=None):
    """All converged restarts sorted by energy (best first).

    Each result's ``restarts`` lists every start, converged or not.
    ``starts`` (arrays or fields) replaces the vortex and noise starts.
    ``descend_all`` runs the restarts; no result depends on its threads.
    """
    if starts is None:
        starts = _starting_fields(spec.grid, restarts, seed)
    else:
        starts = _given_starts(spec, starts, (), ValueError)
    fields, records = descend_all(spec, starts, tol, max_iter)
    results = []
    for psi, rec in zip(fields, records):
        if not rec.ok:
            continue
        phi = Field(spec.grid, psi)
        parts = gp_energy(spec, phi)
        results.append(GPResult(
            phi=phi, energy=parts.total, mu=parts.total + parts.interaction, breakdown=parts,
            residual=rec.residual, iterations=rec.applications, restarts=records))
    results.sort(key=lambda r: r.energy)
    return results


def minimize_gp(spec, tol=1e-8, max_iter=200000, restarts=4, seed=0, starts=None):
    """Best minimizer over all restarts (see minimize_gp_family)."""
    return minimize_gp_family(spec, tol, max_iter, restarts, seed, starts)[0]
