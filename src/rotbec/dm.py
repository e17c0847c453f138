"""The density-matrix energy functional and its rank-constrained minimizer.

A rank-n state is a weighted orthonormal orbital family (lambda_i, phi_i)
with the weights on the simplex; its energy is
sum_i lambda_i <phi_i|H0|phi_i> + 4 pi g int rho^2 with
rho = sum_i lambda_i |phi_i|^2.  Restricting to rank one recovers the GP
functional: ``gp.state_terms`` reports both, a GP field as the one-row stack.

The minimizer works in the square-root parameterization
gamma = sum_i |chi_i><chi_i| with one global constraint sum_i |chi_i|^2 = 1:
orthonormality and simplex constraints disappear, and the energy becomes
the GP functional of the (n,) + grid stack with rho = sum_i |chi_i|^2.
So the one engine ``gp._Flow``, which sees a GP field as the stack without
a leading axis, minimizes it unchanged.  Weights and orthonormal orbitals
are recovered from the Gram spectrum of the stack, followed by one exact
weight update (the convex quadratic over the simplex, solved by projected
gradient), which can only lower the energy.
"""

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import InvalidState, NoConvergence
from .gp import _Flow, _given_starts, gaussian_envelope, state_terms, vortex_seed
from .lattice import Field
from .model import on_grid

_ORTHO_TOL = 1e-10
_SIMPLEX_TOL = 1e-12
# Gram-Schmidt replaces a row whose projected norm is at most _DROP_TOL by
# enveloped noise drawn from default_rng(_NOISE_SEED)
_DROP_TOL = 1e-8
_NOISE_SEED = 2**31 - 1


def check_rank(n):
    """Raise InvalidState unless 1 <= n <= 8, the ranks the DM solvers take."""
    if not 1 <= n <= 8:
        raise InvalidState(f"rank must be between 1 and 8, got {n}")


@dataclass
class DMState:
    orbitals: list = dc_field(repr=False)
    weights: np.ndarray = None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)

    @property
    def rank(self):
        return len(self.orbitals)

    def rows(self):
        """The orbitals' values as one (n,) + grid stack."""
        return np.stack([phi.values for phi in self.orbitals])

    def validate(self):
        n = self.rank
        check_rank(n)
        if self.weights.shape != (n,):
            raise InvalidState("one weight per orbital required")
        if np.any(self.weights < -_SIMPLEX_TOL) or abs(self.weights.sum() - 1.0) > _SIMPLEX_TOL:
            raise InvalidState("weights must lie on the probability simplex")
        flat = self.rows().reshape(n, -1)
        gram = (np.conj(flat) @ flat.T) * self.orbitals[0].grid.cell_volume  # <i|j>
        bad = np.argwhere(np.abs(gram - np.eye(n)) > _ORTHO_TOL)
        if len(bad):
            i, j = bad[0]
            raise InvalidState(f"orbitals {i},{j} not orthonormal: <i|j>={complex(gram[i, j])!r}")

    def density(self):
        rows = self.rows()
        return np.tensordot(self.weights, rows.real**2 + rows.imag**2, axes=1)


@dataclass
class DMResult:
    state: DMState
    energy: float
    residual: float
    restarts: tuple  # gp.Restart records of every start, converged or not
    orbital_energies: list = dc_field(default_factory=list)

    @property
    def iterations(self):
        return sum(r.applications for r in self.restarts)

    @property
    def restarts_used(self):
        return len(self.restarts)


def dm_energy(spec, state):
    """Energy of a rank-n density-matrix state (validates the state)."""
    state.validate()
    *parts, gmat = state_terms(spec, np.stack([on_grid(spec, phi) for phi in state.orbitals]))
    lam = state.weights
    return float(lam @ sum(parts) + lam @ gmat @ lam)


def project_simplex(v):
    """Euclidean projection onto the probability simplex (sort algorithm)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho_idx = np.nonzero(u * np.arange(1, len(v) + 1) > css)[0][-1]
    theta = css[rho_idx] / float(rho_idx + 1)
    return np.maximum(v - theta, 0.0)


def minimize_weights(h, G, lam0, tol=1e-10, max_iter=200000):
    """Minimize h.lam + lam^T G lam over the simplex by projected gradient.

    Raises NoConvergence when a step still moves the weights by more than
    ``tol`` after ``max_iter`` steps.
    """
    L = 2.0 * float(np.linalg.norm(G, 2)) + 1e-12 * (1.0 + float(np.linalg.norm(h)))
    step = 1.0 / L
    lam = project_simplex(np.asarray(lam0, dtype=float))
    for _ in range(max_iter):
        grad = h + 2.0 * (G @ lam)
        new = project_simplex(lam - step * grad)
        if float(np.linalg.norm(new - lam)) <= tol:
            return new
        lam = new
    raise NoConvergence(
        f"simplex weights moved more than {tol!r} at step {max_iter}",
        iterations=max_iter,
    )


def _orthonormal_rows(rows, dV, grid):
    """Gram-Schmidt on stacked fields; degenerate rows become fresh noise."""
    out, rng = [], None
    for v in rows:
        w = np.asarray(v, dtype=complex).copy()
        for u in out:
            w -= u * (np.vdot(u, w) * dV)
        nrm = float(np.linalg.norm(w)) * math.sqrt(dV)
        while nrm <= _DROP_TOL:
            if rng is None:
                rng = np.random.default_rng(_NOISE_SEED)
            w = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
            w = w * gaussian_envelope(grid)
            for u in out:
                w -= u * (np.vdot(u, w) * dV)
            nrm = float(np.linalg.norm(w)) * math.sqrt(dV)
        out.append(w / nrm)
    return np.array(out)


def _extract_state(spec, stack):
    """Diagonalize the Gram matrix of the stack into (weights, orbitals)."""
    n = stack.shape[0]
    grid = spec.grid
    dV = grid.cell_volume
    flat = stack.reshape(n, -1)
    gram = (flat @ np.conj(flat.T)) * dV  # gram[i,j] = <chi_j|chi_i>
    vals, vecs = np.linalg.eigh(0.5 * (gram + np.conj(gram.T)))
    order = np.argsort(vals)[::-1]
    vals = np.maximum(vals[order].real, 0.0)
    vecs = vecs[:, order]
    mixed = (vecs.conj().T @ flat).reshape((n,) + grid.shape)
    lam = vals / vals.sum()
    orbitals = []
    for k in range(n):
        nrm = float(np.linalg.norm(mixed[k])) * math.sqrt(dV)
        orbitals.append(mixed[k] / nrm if nrm > 1e-8 else mixed[k])
    # zero-weight rows carry no direction; re-orthonormalize the family so
    # the returned orbitals are a valid orthonormal frame (a zero row has
    # zero gradient, so the flow alone cannot re-grow the rank)
    block = _orthonormal_rows(orbitals, dV, grid)
    return lam, block


def _dm_starts(grid, n, restarts, seed, seed_fields):
    rng = np.random.default_rng(seed)
    starts = []
    env = gaussian_envelope(grid)
    if seed_fields:
        base = [np.asarray(f.values if isinstance(f, Field) else f, dtype=complex)
                for f in seed_fields[:n]]
        while len(base) < n:
            # small noise so the flow can grow rank away from the seed
            noise = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
            base.append(1e-3 * noise * env)
        starts.append(("seeded", np.stack(base)))
    starts.append(("vortex", np.stack([vortex_seed(grid, q) for q in range(n)])))
    for _ in range(restarts):
        noise = rng.standard_normal((n,) + grid.shape) + 1j * rng.standard_normal((n,) + grid.shape)
        starts.append(("noise", noise * env[None]))
    return starts


def minimize_dm(spec, n, tol=1e-7, max_iter=40000, restarts=2, seed=0,
                seed_fields=None, starts=None):
    """Best rank-n minimizer over restarts; returns a DMResult.

    ``seed_fields`` (optional) is a list of fields used to build the first
    restart, e.g. a GP minimizer to guarantee E_DM <= E_GP, or the
    orbitals of a lower-rank solution.  ``starts`` replaces the whole
    start list with explicit (n,)+grid stacks, each an array or a
    sequence of n fields.  ``restarts`` of the result lists every start,
    converged or not.
    """
    check_rank(n)
    if starts is None:
        starts = _dm_starts(spec.grid, n, restarts, seed, seed_fields)
    else:
        starts = _given_starts(spec, starts, (n,), InvalidState)
    stacks, records = _Flow(spec).descend_all(starts, tol, max_iter)
    best = None
    for stack, rec in zip(stacks, records):
        if not rec.ok:
            continue
        lam, block = _extract_state(spec, stack)
        # exact weight update with orbitals fixed; never increases energy
        *parts, gmat = state_terms(spec, block)
        h = sum(parts)  # <phi_i|H0|phi_i>
        energy_before = float(lam @ h + lam @ gmat @ lam)
        lam2 = minimize_weights(h, gmat, lam)
        energy = float(lam2 @ h + lam2 @ gmat @ lam2)
        if energy > energy_before + 1e-11 * max(1.0, abs(energy_before)):
            raise AssertionError("weight update increased the energy")
        if best is None or energy < best[0]:
            best = (energy, block, lam2, rec.residual, h)
    energy, block, lam, resnorm, h = best
    order = np.argsort(-lam)
    state = DMState(orbitals=[Field(spec.grid, block[i].copy()) for i in order],
                    weights=lam[order])
    return DMResult(state=state, energy=energy, residual=resnorm, restarts=records,
                    orbital_energies=[h[i] for i in order])
