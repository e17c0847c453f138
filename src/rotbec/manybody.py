"""Truncated-mode many-body cross-checks by exact diagonalization.

The second-quantized Hamiltonian on M one-particle modes,
H = sum_j e_j a+_j a_j + (1/2) sum_ijkl W_ijkl a+_i a+_j a_k a_l,
is diagonalized exactly in the N-boson occupation sector; the reduced
one-particle density matrix and condensate fraction come from the ground
vector.  The absolute (symmetry-unrestricted) ground state is computed on
the full N-fold tensor power of the mode space.  Coherent-state identities
are verified numerically on a truncated single-mode Fock space.
"""

import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy import sparse
from scipy.optimize import brentq
from scipy.sparse.linalg import LinearOperator, eigsh

from .errors import DimensionTooLarge, InvalidState, NoConvergence
from .lattice import blas_threads, fftn, ifftn
from .model import lowest_eigenpairs
from .scatter import GaussianBump, scale_potential, scattering_length

_BASIS_CAP = 100_000
_PRODUCT_CAP = 10_000  # largest M^N for the unrestricted ground state
_DENSE_MAX = 400  # largest eigenproblem solved densely
_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class DeltaPair:
    """Grid-delta pair potential of strength 8 pi a (first-Born surrogate)."""

    a: float


@dataclass(frozen=True)
class FockProblem:
    M: int
    N: int
    e: tuple
    W: np.ndarray = dc_field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "e", tuple(float(x) for x in self.e))
        W = np.asarray(self.W, dtype=complex)
        object.__setattr__(self, "W", W)
        if not 1 <= self.M <= 6:
            raise InvalidState("mode count must be between 1 and 6")
        if not 1 <= self.N <= 10:
            raise InvalidState("particle count must be between 1 and 10")
        if len(self.e) != self.M or W.shape != (self.M,) * 4:
            raise InvalidState("mode energies / tensor shape mismatch")
        if abs(W - W.transpose(1, 0, 3, 2)).max() > 1e-10:
            raise InvalidState("tensor must satisfy the pair-exchange symmetry")
        if abs(W - np.conj(W.transpose(2, 3, 0, 1))).max() > 1e-10:
            raise InvalidState("tensor must be Hermitian")
        if basis_dimension(self.M, self.N) > _BASIS_CAP:
            raise DimensionTooLarge(
                f"occupation basis exceeds {_BASIS_CAP} states"
            )


@dataclass
class FockResult:
    E0: float
    gamma1: np.ndarray
    condensate_fraction: float
    ground_vector_norm_residual: float


def basis_dimension(M, N):
    return math.comb(N + M - 1, M - 1)


def occupation_basis(M, N):
    """All occupation vectors with sum N, lexicographically ordered."""
    states = []
    for cuts in itertools.combinations(range(N + M - 1), M - 1):
        occ = []
        prev = -1
        for c in cuts:
            occ.append(c - prev - 1)
            prev = c
        occ.append(N + M - 2 - prev)
        states.append(tuple(occ))
    states.sort()
    return states


def _index_table(states, M, N):
    """Lookup from encoded occupation keys to basis indices: (table, powers, occ, keys)."""
    base = N + 1
    table = -np.ones(base**M, dtype=np.int64)
    powers = base ** np.arange(M)
    occ = np.asarray(states, dtype=np.int64)
    keys = occ @ powers
    table[keys] = np.arange(len(states))
    return table, powers, occ, keys


def _ladder(index, create, annihilate):
    """Source rows, destination rows and amplitudes of a normal-ordered string.

    The string is a+_c1 a+_c2 ... a_a1 a_a2 ... for create = (c1, c2, ...)
    and annihilate = (a1, a2, ...); ``index`` is ``_index_table``'s
    output.  The operators act right to left, so the squared amplitude
    multiplies the occupation factors in that order; rows whose amplitude
    vanishes are dropped.
    """
    table, powers, occ, keys = index
    shift = np.zeros(occ.shape[1], dtype=np.int64)
    amp2 = 1.0
    steps = [(m, -1) for m in reversed(annihilate)] + [(m, 1) for m in reversed(create)]
    for mode, step in steps:  # factor n to annihilate, n + 1 to create
        amp2 = amp2 * (occ[:, mode] + shift[mode] + (step > 0))
        shift[mode] += step
    src = np.nonzero(amp2 > 0.0)[0]
    return src, table[keys[src] + shift @ powers], np.sqrt(amp2[src])


def assemble_hamiltonian(problem):
    """Sparse H in the fixed-N occupation basis."""
    M, N = problem.M, problem.N
    states = occupation_basis(M, N)
    dim = len(states)
    index = _index_table(states, M, N)
    occ = index[2]
    rows = [np.arange(dim)]
    cols = [np.arange(dim)]
    vals = [(occ @ np.asarray(problem.e)).astype(complex)]
    W = problem.W
    for i, j, k, l in itertools.product(range(M), repeat=4):
        w = W[i, j, k, l]
        if w == 0.0:
            continue
        src, dst, amp = _ladder(index, (i, j), (k, l))
        rows.append(dst)
        cols.append(src)
        vals.append(0.5 * w * amp)
    H = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    ).tocsr()
    return H, states


def _lowest_eigenpair(H):
    """Lowest eigenvalue, its unit vector and the residual |H v - E v| of a Hermitian H.

    H is a sparse matrix, an array or a LinearOperator.  Up to ``_DENSE_MAX``
    rows it is made dense and solved with ``eigh``; above, ``eigsh`` starts
    from a fixed random vector, so one H always gives one answer.  Raises
    NoConvergence when the residual exceeds ``_RESIDUAL_TOL``.
    """
    dim = H.shape[0]
    if dim <= _DENSE_MAX:
        vals, vecs = np.linalg.eigh(H @ np.eye(dim, dtype=complex))
    else:
        rng = np.random.default_rng(0)
        v0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        with blas_threads("scipy", 1):  # ARPACK's bits then match on any core count
            vals, vecs = eigsh(H, k=1, which="SA", tol=1e-12, maxiter=50000, v0=v0)
    v = vecs[:, 0]
    resid = float(np.linalg.norm(H @ v - vals[0] * v))
    if resid > _RESIDUAL_TOL:
        raise NoConvergence(f"ground-state residual {resid!r} above {_RESIDUAL_TOL!r}")
    return float(vals[0]), v, resid


def reduced_density_matrix(states, vector, M, N):
    """gamma1[j, k] = <a+_k a_j> of the state in the occupation basis."""
    index = _index_table(states, M, N)
    gamma = np.zeros((M, M), dtype=complex)
    for j, k in itertools.product(range(M), repeat=2):
        src, dst, amp = _ladder(index, (k,), (j,))
        gamma[j, k] = np.sum(np.conj(vector[dst]) * amp * vector[src])
    return gamma


def ground_state_bosonic(problem):
    """Exact N-boson ground state of the truncated Hamiltonian."""
    H, states = assemble_hamiltonian(problem)
    energy, vector, resid = _lowest_eigenpair(H)
    gamma = reduced_density_matrix(states, vector, problem.M, problem.N)
    evals = np.linalg.eigvalsh(gamma)
    return FockResult(
        E0=energy,
        gamma1=gamma,
        condensate_fraction=float(evals[-1].real / problem.N),
        ground_vector_norm_residual=resid,
    )


def ground_state_absolute(problem):
    """Lowest eigenvalue of sum_i h(i) + sum_{i<j} v(ij) on the full tensor power.

    No symmetry restriction: the variational space is (C^M)^(x N), at most
    ``_PRODUCT_CAP`` states.  Raises NoConvergence when the eigenpair
    residual |H v - E v| exceeds ``_RESIDUAL_TOL``.
    """
    M, N = problem.M, problem.N
    dim = M**N
    if dim > _PRODUCT_CAP:
        raise DimensionTooLarge(f"M^N = {dim} exceeds {_PRODUCT_CAP}")
    e = np.asarray(problem.e)
    V = problem.W.reshape(M * M, M * M)
    pairs = list(itertools.combinations(range(N), 2))

    def matvec(v):
        t = v.reshape((M,) * N)
        out = np.zeros_like(t)
        for axis in range(N):  # one-body term is diagonal in the mode basis
            shape = [1] * N
            shape[axis] = M
            out += e.reshape(shape) * t
        for (p, q) in pairs:
            moved = np.moveaxis(t, (p, q), (0, 1)).reshape(M * M, -1)
            acted = V @ moved
            out += np.moveaxis(
                acted.reshape((M, M) + tuple(
                    s for a, s in enumerate(t.shape) if a not in (p, q)
                )),
                (0, 1), (p, q),
            )
        return out.reshape(-1)

    return _lowest_eigenpair(LinearOperator((dim, dim), matvec=matvec, dtype=complex))[0]


def unit_scattering_gaussian(width=1.0):
    """Repulsive Gaussian of the given width with scattering length 1.

    The amplitude is bracketed by doubling, then found by Brent's method;
    for widths around 1 it exists because a grows monotonically from 0
    with amplitude.
    """
    lo, hi = 1e-6, 4.0

    def f(amp):
        return scattering_length(GaussianBump(amp, width)) - 1.0

    while f(hi) < 0:
        lo = hi
        hi *= 2.0
        if hi > 1e5:
            raise ValueError("width too small to reach scattering length 1")
    return GaussianBump(brentq(f, lo, hi, xtol=1e-300, rtol=1e-14), width)


def _pair_kernel(grid, potential):
    """Pair potential sampled on the periodic displacement grid."""
    d = [grid.broadcast(axis, ((np.arange(n) * dx + L) % (2.0 * L)) - L)
         for axis, (n, dx, L) in enumerate(zip(grid.points, grid.spacings, grid.half_widths))]
    return potential.value(np.sqrt(grid.sum_of_squares(d)))


def build_w_tensor(spec, modes, pair):
    """W[i,j,k,l] = <phi_i phi_j | v | phi_k phi_l> by grid quadrature.

    ``modes`` is a list of orthonormal fields; ``pair`` is a DeltaPair
    (contact surrogate of strength 8 pi a) or a radial potential from the
    scattering module.  With the pair densities F_ik = conj(phi_i) phi_k and
    P = v * F (the pair potential applied to each), W_ijkl = dV sum F_ik P_jl.
    The symmetry and Hermiticity of the tensor are enforced by averaging.
    """
    grid = spec.grid
    dV = grid.cell_volume
    M = len(modes)
    stack = np.stack([m.values for m in modes])
    F = (np.conj(stack)[:, None] * stack[None, :]).reshape((M * M,) + grid.shape)
    if isinstance(pair, DeltaPair):
        P = 8.0 * math.pi * pair.a * F
    else:
        kernel_hat = fftn(_pair_kernel(grid, pair).astype(complex))
        P = ifftn(kernel_hat * fftn(F, grid.dim), grid.dim) * dV
    W = dV * (F.reshape(M * M, -1) @ P.reshape(M * M, -1).T)
    W = W.reshape((M,) * 4).transpose(0, 2, 1, 3)
    W = 0.5 * (W + W.transpose(1, 0, 3, 2))
    W = 0.5 * (W + np.conj(W.transpose(2, 3, 0, 1)))
    return W


# Energy changes below this many units of rounding times max(1, |E|) are
# noise: they regularize the trust-region ratio, count as no progress and
# make restarts tie.
_ROUNDING = 1e3 * np.finfo(float).eps
_STALL_STEPS = 10
_CORRECTIONS = 5


def truncated_gp_minimum(e, W_unit_g, restarts=24, seed=5, tol=1e-12, max_iter=4000):
    """min over unit vectors c of  c+ diag(e) c + (1/2) <cc|W|cc>.

    W_unit_g must already carry the GP coupling (delta tensor built at
    a = g), so the quartic term equals 4 pi g int |phi_c|^4; it must be
    Hermitian with the pair-exchange symmetry, as ``build_w_tensor`` makes it.

    Method: Riemannian trust-region Newton on the unit sphere of C^M
    (Absil, Mahony & Sepulchre 2008, ch. 7) with the exact real Hessian,
    restricted to the tangent directions orthogonal to c and to the gauge
    direction i c, and the trust-region subproblem solved exactly through
    ``eigh``.  Each step is followed by up to a few Newton corrections
    transverse to it, kept while they lower the energy; they let the steps
    follow curved valleys such as the near-degenerate rotation orbit of a
    degenerate mode pair.  Restart 0 starts on the lowest mode, the others
    from complex Gaussian vectors drawn from ``default_rng(seed)``.

    Stopping rule: a restart converges when the residual |g - mu c| of the
    Wirtinger gradient g = dE/dc* (mu = Re <c, g>) is at most ``tol``.  It
    fails when it reaches ``max_iter`` steps or when ``_STALL_STEPS``
    steps in a row lower the energy by no more than rounding.  The best
    restart has the lowest energy; restarts within rounding of it count as
    equal and the smallest residual among them is taken.

    Raises NoConvergence, with the number of failed restarts, when the best
    restart misses ``tol``.
    """
    e = np.asarray(e, dtype=float)
    M = e.size
    pair_matrix = np.asarray(W_unit_g, dtype=complex).reshape(M * M, M * M)
    rng = np.random.default_rng(seed)
    best = None
    failed = 0
    for attempt in range(restarts):
        if attempt == 0:
            c = np.zeros(M, dtype=complex)
            c[int(np.argmin(e))] = 1.0
        else:
            c = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        c /= np.linalg.norm(c)
        energy, resid = _sphere_trust_region(c, e, pair_matrix, tol, max_iter)
        failed += resid > tol
        window = _ROUNDING * max(1.0, abs(energy))
        if (best is None or energy < best[0] - window
                or (energy < best[0] + window and resid < best[1])):
            best = (energy, resid)
    if best[1] > tol:
        raise NoConvergence(
            f"truncated GP minimum: best restart residual {best[1]:.2e} above "
            f"{tol:.1e}; {failed} of {restarts} restarts failed"
        )
    return float(best[0])


def _gp_parts(c, e, pair_matrix):
    """Energy, Wirtinger gradient dE/dc* and V + V^T, V[i,j] = sum_kl W_ijkl c_k c_l."""
    M = c.size
    pair = np.outer(c, c).reshape(-1)
    V = (pair_matrix @ pair).reshape(M, M)
    energy = float(e @ (c.real**2 + c.imag**2) + 0.5 * np.vdot(pair, V.reshape(-1)).real)
    sym = V + V.T
    return energy, e * c + 0.5 * (sym @ c.conj()), sym


def _residual(c, grad):
    return float(np.linalg.norm(grad - np.vdot(c, grad).real * c))


def _tangent_model(c, e, pair_matrix, grad, sym):
    """Riemannian gradient and Hessian in real coordinates of the horizontal space.

    ``basis`` is an orthonormal basis of the complex complement of c: the
    real coordinates (a, b) stand for basis @ (a + i b), which excludes both
    the normal direction c and the gauge direction i c.  The second variation
    along d is d+ A d + Re(d^T B d) - 2 mu |d|^2, with A = L+ W L + 2 diag(e)
    for d(c x c) = L d, and B = conj(V + V^T).
    """
    M = c.size
    basis = _complement_basis(c)
    W4 = pair_matrix.reshape(M, M, M, M)
    WL = (W4 @ c + c @ W4).reshape(M, M, M)  # (W L)[(i, j), n]
    cc = c.conj()
    LWL = cc @ WL + (cc @ WL.reshape(M, M * M)).reshape(M, M)
    mu = float(np.vdot(c, grad).real)
    A = basis.conj().T @ ((LWL + np.diag(2.0 * (e - mu))) @ basis)
    B = basis.T @ sym.conj() @ basis
    k = M - 1
    H = np.empty((2 * k, 2 * k))
    H[:k, :k] = A.real + B.real
    H[:k, k:] = -A.imag - B.imag
    H[k:, :k] = A.imag - B.imag
    H[k:, k:] = A.real - B.real
    h = basis.conj().T @ grad
    return basis, 2.0 * np.concatenate([h.real, h.imag]), H


def _complement_basis(v):
    """Orthonormal columns spanning the orthogonal complement of the unit vector v.

    They are the last columns of the Householder reflection that maps e_0
    onto the line of v.
    """
    w = v.copy()
    w[0] += v[0] / abs(v[0]) if v[0] != 0 else 1.0
    reflector = np.eye(v.size) - np.outer(w, w.conj()) * (2.0 / np.vdot(w, w).real)
    return reflector[:, 1:]


def _tangent_vector(basis, s):
    k = basis.shape[1]
    return basis @ (s[:k] + 1j * s[k:])


def _trust_step(g, H, radius):
    """Exact minimizer of g.s + s.H.s / 2 over |s| <= radius, and whether it is interior."""
    lam, vec = np.linalg.eigh(H)
    gam = vec.T @ g
    if lam[0] > 0.0:
        s = -gam / lam
        if s @ s <= radius * radius:
            return vec @ s, True
        sigma = 0.0
    else:
        sigma = 1e-15 * max(1.0, abs(lam).max()) - lam[0]
    # |s(sigma)| = |gam / (lam + sigma)| falls monotonically; Newton on
    # 1/|s| - 1/radius from the left converges without overshooting
    for _ in range(50):
        d = lam + sigma
        s = -gam / d
        n = math.sqrt(s @ s)
        if n <= radius * (1.0 + 1e-12):
            break
        sigma += (n / radius - 1.0) * n * n / ((gam * gam) @ d**-3)
    if n < radius * (1.0 - 1e-12):  # hard case: fill up along the lowest mode
        s[0] = -math.copysign(math.sqrt(radius * radius - s[1:] @ s[1:]), gam[0])
    return vec @ s, False


def _transverse_newton(c, e, pair_matrix, grad, sym, direction):
    """Newton point from c over the tangent directions orthogonal to ``direction``.

    None when the Hessian there is not positive definite.
    """
    basis, g, H = _tangent_model(c, e, pair_matrix, grad, sym)
    h = basis.conj().T @ direction
    u = np.concatenate([h.real, h.imag])
    Q = _complement_basis(u / np.linalg.norm(u))
    lam, vec = np.linalg.eigh(Q.T @ H @ Q)
    if lam[0] <= 0.0:
        return None
    out = c + _tangent_vector(basis, -Q @ (vec @ ((vec.T @ (Q.T @ g)) / lam)))
    return out / np.linalg.norm(out)


def _sphere_trust_region(c, e, pair_matrix, tol, max_iter):
    """One restart from the unit vector c: final energy and residual."""
    radius = math.pi / 16
    energy, grad, sym = _gp_parts(c, e, pair_matrix)
    mark, stalled = energy, 0
    for _ in range(max_iter):
        if stalled == _STALL_STEPS or _residual(c, grad) <= tol:
            break
        basis, g, H = _tangent_model(c, e, pair_matrix, grad, sym)
        s, interior = _trust_step(g, H, radius)
        predicted = -(g @ s + 0.5 * (s @ H @ s))
        move = _tangent_vector(basis, s)
        cand = (c + move) / np.linalg.norm(c + move)
        trial = _gp_parts(cand, e, pair_matrix)
        for _ in range(_CORRECTIONS):
            fixed = _transverse_newton(cand, e, pair_matrix, trial[1], trial[2], move)
            if fixed is None:
                break
            fixed_trial = _gp_parts(fixed, e, pair_matrix)
            if fixed_trial[0] >= trial[0]:
                break
            cand, trial = fixed, fixed_trial
        noise = _ROUNDING * max(1.0, abs(energy))
        ratio = (energy - trial[0] + noise) / (predicted + noise)
        if ratio < 0.25:
            radius *= 0.25
        elif ratio > 0.75 and not interior:
            radius = min(2.0 * radius, math.pi / 2)
        if ratio > 0.1:
            c, (energy, grad, sym) = cand, trial
        if energy < mark - noise:
            mark, stalled = energy, 0
        else:
            stalled += 1
    return energy, _residual(c, grad)


@dataclass
class ScanRow:
    N: int
    a: float
    E0_over_N: float
    E_gp_truncated: float
    condensate_fraction: float
    E_abs: float = None


def gp_limit_scan(spec, M, g, N_list, pair_kind="delta", with_absolute=False,
                  modes=None):
    """E0(N, g/N)/N against the mode-truncated GP minimum for each N.

    ``pair_kind`` selects the interaction used to build W: "delta" for the
    contact surrogate of strength 8 pi a, or "gaussian" for the scaled
    unit-scattering-length Gaussian.
    """
    if not 1 <= M <= 6 or any(N < 2 or N > 10 for N in N_list):
        raise InvalidState("the mode count must lie in [1, 6] and N values in [2, 10]")
    if pair_kind not in ("delta", "gaussian"):
        raise InvalidState(f"pair kind must be 'delta' or 'gaussian', got {pair_kind!r}")
    if modes is None:
        pairs = lowest_eigenpairs(spec, M)
    else:
        pairs = modes
    e = [p[0] for p in pairs]
    fields = [p[1] for p in pairs]
    W_gp = build_w_tensor(spec, fields, DeltaPair(g))
    e_gp = truncated_gp_minimum(e, W_gp)
    unit_gauss = unit_scattering_gaussian() if pair_kind == "gaussian" else None
    rows = []
    for N in N_list:
        a = g / N
        if pair_kind == "delta":
            W = build_w_tensor(spec, fields, DeltaPair(a))
        else:
            W = build_w_tensor(spec, fields, scale_potential(unit_gauss, a))
        problem = FockProblem(M, N, e, W)
        result = ground_state_bosonic(problem)
        e_abs = None
        if with_absolute and M**N <= _PRODUCT_CAP:
            e_abs = ground_state_absolute(problem)
        rows.append(
            ScanRow(
                N=N,
                a=a,
                E0_over_N=result.E0 / N,
                E_gp_truncated=e_gp,
                condensate_fraction=result.condensate_fraction,
                E_abs=e_abs,
            )
        )
    return rows


@dataclass
class CoherentReport:
    annihilation_error: float
    number_error: float
    completeness_error: float
    upper_symbol_error: float
    shifted_number_error: float


def coherent_vector(z, D):
    """Components c_n = z^n exp(-|z|^2/2)/sqrt(n!), n < D, on the truncated Fock space.

    ``z`` is one point or an array of points; the components run along a
    new first axis.  The recurrence |c_n| = |c_(n-1)| |z| / sqrt(n) runs in
    logs, so that exp(-|z|^2/2) cannot underflow for large |z| (|z| > 38.6)
    before the rising factors of the peak near n = |z|^2 make up for it.
    """
    z = np.asarray(z, dtype=complex)
    n = np.arange(D).reshape((D,) + (1,) * z.ndim)
    logs = np.empty((D,) + z.shape)
    logs[0] = -0.5 * np.abs(z) ** 2
    with np.errstate(divide="ignore"):  # log 0 = -inf: the vacuum at z = 0
        logs[1:] = np.log(np.abs(z)) - 0.5 * np.log(n[1:])
    return np.exp(np.cumsum(logs, axis=0)) * np.exp(1j * n * np.angle(z))


def annihilation_matrix(D):
    return np.diag(np.sqrt(np.arange(1, D)), k=1).astype(complex)


def coherent_state_checks(D=64, z=1 + 1j, Z=8.0, n_max=8,
                          radial_points=128, angular_points=256):
    """Numerical checks of the coherent-state identities.

    (i) <z|a|z> = z, (ii) <z|a+a|z> = |z|^2, (iii) the quadrature of
    |z><z| over |z| <= Z (measure dx dy / pi) is the identity on the span
    of the number states n <= n_max, (iv) the quadrature of
    (|z|^2 - 1)|z><z| reproduces a+a there.
    """
    if D < 32:
        raise ValueError("truncation must be at least 32")
    if abs(z) > Z / 4:
        raise ValueError("test amplitude must satisfy |z| <= Z/4")
    if n_max < 0 or radial_points < 1 or angular_points < 1:
        raise ValueError("n_max must be >= 0 and the quadrature point counts >= 1")
    a_mat = annihilation_matrix(D)
    v = coherent_vector(z, D)
    lower_a = np.vdot(v, a_mat @ v)
    lower_n = np.vdot(v, (a_mat.conj().T @ a_mat) @ v)
    # polar quadrature: midpoint radially, uniform angles (exact for the
    # angular integral of the finitely many modes involved)
    dr = Z / radial_points
    r = (np.arange(radial_points) + 0.5) * dr
    th = 2.0 * np.pi * np.arange(angular_points) / angular_points
    zz = np.outer(r, np.exp(1j * th)).reshape(-1)
    wts = np.repeat(r * dr, angular_points) * (2.0 * np.pi / angular_points) / np.pi
    comps = coherent_vector(zz, n_max + 1)
    nn = np.arange(n_max + 1)

    def symbol_error(symbol, want):
        """|quadrature of symbol(z) |z><z| - diag(want)| on the span, spectral norm."""
        quad = (comps * (symbol * wts)) @ np.conj(comps.T)
        return float(np.linalg.norm(quad - np.diag(want), 2))

    return CoherentReport(
        annihilation_error=float(abs(lower_a - z)),
        number_error=float(abs(lower_n - abs(z) ** 2)),
        completeness_error=symbol_error(1.0, np.ones(n_max + 1)),
        upper_symbol_error=symbol_error(np.abs(zz) ** 2 - 1.0, nn.astype(float)),
        shifted_number_error=symbol_error(np.abs(zz) ** 2, nn + 1.0),
    )
