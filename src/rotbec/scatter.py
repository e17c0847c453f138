"""Zero-energy scattering lengths of radial pair potentials.

The s-wave zero-energy radial equation in these units (hbar = 2m = 1, so
the two-body reduced problem carries a factor 1/2) is u'' = v(r) u / 2,
integrated outward with u(0) = 0; the scattering length is read off the
asymptote u(r) ~ r - a at the potential range.  The 1/2 is pinned by the
hard-sphere calibration: a hard sphere of radius R must give a = R
exactly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NonFiniteScatteringLength


@dataclass(frozen=True)
class HardSphere:
    radius: float

    def __post_init__(self):
        if not 0.0 < self.radius < math.inf:
            raise ValueError("hard-sphere radius must be positive and finite")

    @property
    def range(self):
        return self.radius

    def value(self, r):
        return np.where(np.asarray(r) <= self.radius, np.inf, 0.0)

    def scaled(self, a):
        return HardSphere(self.radius * a)


@dataclass(frozen=True)
class SquareWell:
    """v = depth inside r <= radius; depth < 0 is an attractive well."""

    depth: float
    radius: float

    def __post_init__(self):
        if not (0.0 < self.radius < math.inf and math.isfinite(self.depth)):
            raise ValueError("square well needs a finite depth and a positive finite radius")

    @property
    def range(self):
        return self.radius

    def value(self, r):
        return np.where(np.asarray(r) <= self.radius, self.depth, 0.0)

    def scaled(self, a):
        return SquareWell(self.depth / a**2, self.radius * a)


@dataclass(frozen=True)
class GaussianBump:
    amplitude: float
    width: float

    def __post_init__(self):
        if not (0.0 < self.width < math.inf and math.isfinite(self.amplitude)):
            raise ValueError("Gaussian needs a finite amplitude and a positive finite width")

    @property
    def range(self):
        # exp(-r^2/2w^2) < 1e-14 beyond ~8 widths
        return 8.0 * self.width

    def value(self, r):
        r = np.asarray(r)
        return self.amplitude * np.exp(-0.5 * (r / self.width) ** 2)

    def scaled(self, a):
        return GaussianBump(self.amplitude / a**2, self.width * a)


@dataclass(frozen=True)
class SoftShell:
    """Cosine-squared bump supported on [r_inner, r_outer].

    With amplitude = None the bump is normalized so that the full 3D
    integral of the potential is 4 pi.
    """

    r_inner: float
    r_outer: float
    amplitude: float = None

    def __post_init__(self):
        if not 0.0 <= self.r_inner < self.r_outer:
            raise ValueError("need 0 <= r_inner < r_outer")
        if self.amplitude is None:
            from scipy.integrate import quad

            norm = quad(lambda r: self._bump(r) * r * r, self.r_inner, self.r_outer,
                        epsabs=1e-14, epsrel=1e-13)[0]
            object.__setattr__(self, "amplitude", 1.0 / norm)

    def _bump(self, r):
        w = self.r_outer - self.r_inner
        mid = 0.5 * (self.r_inner + self.r_outer)
        inside = np.abs(np.asarray(r) - mid) <= 0.5 * w
        return np.where(inside, np.cos(np.pi * (np.asarray(r) - mid) / w) ** 2, 0.0)

    @property
    def range(self):
        return self.r_outer

    def value(self, r):
        return self.amplitude * self._bump(r)

    def scaled(self, a):
        return SoftShell(self.r_inner * a, self.r_outer * a, self.amplitude / a**2)


def volume_integral(v, upper=None):
    """Full 3D integral of a radial potential, 4 pi int v(r) r^2 dr."""
    from scipy.integrate import quad

    upper = v.range if upper is None else upper
    lower = v.radius if isinstance(v, HardSphere) else 0.0
    val = quad(lambda r: float(v.value(r)) * r * r, lower, upper,
               epsabs=1e-14, epsrel=1e-13, limit=400)[0]
    return 4.0 * math.pi * val


def scale_potential(w, a):
    """v_a(x) = a^-2 w(x/a); multiplies the scattering length by a."""
    # the potentials divide by a**2, which must neither underflow nor overflow
    if not (a > 0 and 0.0 < a * a < math.inf):
        raise ValueError(f"scale factor must be positive with a finite nonzero square, got {a!r}")
    return w.scaled(a)


def scattering_length(v, rtol=1e-12):
    """Zero-energy scattering length by outward radial integration.

    Hard spheres (a = R) and square wells return their closed forms.  Other
    potentials integrate u'' = v u / 2 from the origin and evaluate
    a = r - u/u' at the range; the result is checked to be stable to 1e-8
    under tightening of the integrator tolerance.  Raises
    NonFiniteScatteringLength at a zero-energy resonance (u' -> 0), and
    NoConvergence when the integrator stops short of the range.
    """
    if isinstance(v, HardSphere):
        return v.radius
    if isinstance(v, SquareWell):
        return _square_well_exact(v)
    from scipy.integrate import solve_ivp

    def run(rt):
        r0 = 1e-8 * v.range
        sol = solve_ivp(
            lambda r, y: [y[1], 0.5 * float(v.value(r)) * y[0]],
            (r0, v.range),
            [r0, 1.0],
            method="DOP853",
            rtol=rt,
            atol=1e-14,
        )
        if sol.status != 0 or sol.t[-1] != v.range:
            raise NoConvergence(f"radial integration stopped at r = {sol.t[-1]!r} "
                                f"of {v.range!r}: {sol.message}")
        u, du = sol.y[0][-1], sol.y[1][-1]
        if abs(du) < 1e-12 * max(1.0, abs(u) / v.range):
            raise NonFiniteScatteringLength("u' vanishes at the potential range")
        return v.range - u / du

    a1 = run(rtol)
    a2 = run(rtol * 0.1)
    scale = max(1.0, abs(a2))
    if abs(a1 - a2) > 1e-8 * scale:
        raise NonFiniteScatteringLength(
            f"integration not stable: {a1!r} vs {a2!r} under tolerance tightening"
        )
    return a2


def _square_well_exact(v):
    """Closed form for the uniform well/barrier (tan or tanh branch)."""
    R = v.radius
    if v.depth == 0.0:
        return 0.0
    kappa = math.sqrt(abs(v.depth) / 2.0)
    if v.depth < 0.0:
        t = math.tan(kappa * R)
        if abs(math.cos(kappa * R)) < 1e-14 or abs(t) > 1e12:
            raise NonFiniteScatteringLength("zero-energy resonance of the well")
        return R * (1.0 - t / (kappa * R))
    return R * (1.0 - math.tanh(kappa * R) / (kappa * R))


def born_check(shell, a_list):
    """Scattering length of 2 a U versus its leading-order value a.

    U must carry int U = 4 pi (checked); rows are (a, s(a), |s - a|/a),
    for a >= 0 (checked; a = 0 gives the row of zeros).  The deviation
    shrinks at least linearly as a decreases.
    """
    if not all(a >= 0 for a in a_list):
        raise ValueError(f"Born check needs a >= 0, got {list(a_list)!r}")
    total = volume_integral(shell)
    if abs(total - 4.0 * math.pi) > 1e-10:
        raise ValueError(f"int U = {total!r}, expected 4 pi")
    rows = []
    for a in a_list:
        if a == 0.0:
            rows.append((0.0, 0.0, 0.0))
            continue
        doubled = SoftShell(shell.r_inner, shell.r_outer, 2.0 * a * shell.amplitude)
        s = scattering_length(doubled)
        rows.append((a, s, abs(s - a) / a))
    return rows
