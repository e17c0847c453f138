"""Acceptance suite: every release criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to stream
them).  The symmetry-breaking sweep is shared through the session-scoped
``sweep_data`` fixture.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from rotbec.gp import _Flow, gp_gradient, minimize_gp, minimize_gp_family
from rotbec.lattice import Field, Grid, normalized
from rotbec.manybody import (
    DeltaPair,
    FockProblem,
    build_w_tensor,
    coherent_state_checks,
    gp_limit_scan,
    ground_state_absolute,
    ground_state_bosonic,
)
from rotbec.model import (
    HarmonicTrap,
    ModelSpec,
    RotationSpec,
    lowest_eigenpairs,
)
from rotbec.diagnostics import detect_vortices, density_l1_distance
from rotbec.scatter import (
    GaussianBump,
    HardSphere,
    SoftShell,
    SquareWell,
    born_check,
    scale_potential,
    scattering_length,
)
from conftest import noise_field
from test_model import oscillator_closed_form


def report(number, label, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {label} {detail}".rstrip())
    assert passed, f"criterion {number}: {label} {detail}"


def test_criterion_01_oscillator_pin_3d():
    start = time.perf_counter()
    grid = Grid((8.0,) * 3, (64,) * 3)
    spec = ModelSpec(grid, HarmonicTrap((1.0,) * 3), RotationSpec(0.0), 0.0)
    result = minimize_gp(spec, tol=1e-8, max_iter=20000, restarts=1, seed=1)
    elapsed = time.perf_counter() - start
    rel = abs(result.energy - 3.0) / 3.0
    report(1, "3D oscillator energy 3.0 (rel 1e-8), < 60 s",
           rel < 1e-8 and elapsed < 60.0,
           f"rel={rel:.2e} t={elapsed:.1f}s")


def test_criterion_02_rotating_linear_pin():
    start = time.perf_counter()
    grid = Grid((8.0, 8.0), (64, 64))
    spec = ModelSpec(grid, HarmonicTrap((1.0, 1.0)), RotationSpec(1.0), 0.0)
    result = minimize_gp(spec, tol=1e-8, max_iter=10000, restarts=2, seed=2)
    pairs = lowest_eigenpairs(spec, 3)
    elapsed = time.perf_counter() - start
    want = oscillator_closed_form(1.0, 3)  # closed-form oracle: (2, 3, 4)
    eig_ok = all(abs(e - w) < 1e-6 for (e, _), w in zip(pairs, want))
    energy_ok = abs(result.energy - 2.0) < 1e-6
    report(2, "rotating linear case: energy 2.0, eigenvalues per closed form, < 30 s",
           energy_ok and eig_ok and elapsed < 30.0,
           f"E={result.energy:.8f} eigs={[round(e, 6) for e, _ in pairs]} t={elapsed:.1f}s")


def test_criterion_03_gradient_correctness():
    rng = np.random.default_rng(3)
    grid = Grid((7.0, 7.0), (32, 32))
    worst = 0.0
    for _ in range(20):
        g_coupling = float(rng.uniform(0.0, 10.0))
        omega = float(rng.uniform(0.0, 1.5))
        spec = ModelSpec(grid, HarmonicTrap((1.0, 1.0)), RotationSpec(omega), g_coupling)
        flow = _Flow(spec)
        phi = normalized(Field(grid, noise_field(grid, rng)))
        psi = Field(grid, noise_field(grid, rng))

        def raw_energy(values):
            hpsi = flow.action.apply(values)
            dens = values.real**2 + values.imag**2
            e = float(np.vdot(values, hpsi).real) * flow.dV
            return e + 0.5 * flow.coeff * float(np.sum(dens * dens)) * flow.dV

        t = 1e-5
        fd = (raw_energy(phi.values + t * psi.values)
              - raw_energy(phi.values - t * psi.values)) / (2 * t)
        grad = gp_gradient(spec, phi)
        exact = 2.0 * float(np.vdot(psi.values, grad.values).real) * grid.cell_volume
        worst = max(worst, abs(fd - exact) / max(1.0, abs(exact)))
    report(3, "20 finite-difference gradient checks (rel 1e-6)",
           worst < 1e-6, f"worst={worst:.2e}")


def test_criterion_04_zero_rotation_uniqueness():
    grid = Grid((8.0, 8.0), (64, 64))
    spec = ModelSpec(grid, HarmonicTrap((1.0, 1.0)), RotationSpec(0.0), 10.0)
    rng = np.random.default_rng(4)
    starts = [noise_field(grid, rng) for _ in range(10)]
    family = minimize_gp_family(spec, tol=1e-8, max_iter=12000, starts=starts)
    energies = [r.energy for r in family]
    spread = max(energies) - min(energies)
    worst_l1 = 0.0
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            worst_l1 = max(worst_l1, density_l1_distance(family[i].phi, family[j].phi))
    report(4, "Omega=0 uniqueness: 10 restarts, spread < 1e-7, L1 < 1e-4",
           len(family) == 10 and spread < 1e-7 and worst_l1 < 1e-4,
           f"spread={spread:.2e} L1={worst_l1:.2e}")


def test_criterion_05_symmetry_breaking_sweep(sweep_data):
    elapsed = sweep_data.elapsed
    located = None
    for (g, omega), point in sweep_data.points.items():
        plus_one = sum(1 for _, w in point.vortices.vortices if w == 1)
        if (plus_one >= 2 and point.s_metric > 1e-2
                and point.clusters.n_distinct_minimizers >= 2):
            located = (g, omega, plus_one, point.s_metric,
                       point.clusters.n_distinct_minimizers)
            break
    report(5, "sweep locates a broken point (>=2 (+1) vortices, s > 1e-2, >=2 clusters), < 30 min",
           located is not None and elapsed < 1800.0,
           f"point={located} sweep_t={elapsed:.0f}s")


def test_criterion_06_dm_below_gp(sweep_data):
    broken = sweep_data.points[(20.0, 1.0)]
    e_gp, e_dm4 = broken.best.energy, broken.dm[1].energy
    weights = broken.dm[1].state.weights
    gap_ok = e_dm4 < e_gp - 1e-4
    weights_ok = int(np.sum(weights > 1e-3)) >= 2
    everywhere_ok = True
    rank_ok = True
    for point in sweep_data.points.values():
        dm2, dm4 = point.dm
        everywhere_ok &= dm2.energy <= point.best.energy + 1e-8
        everywhere_ok &= dm4.energy <= point.best.energy + 1e-8
        rank_ok &= dm4.energy <= dm2.energy + 1e-8
    report(6, "E_DM4 < E_GP - 1e-4 at the broken point; E_DM <= E_GP and E_DM4 <= E_DM2 on the sweep",
           gap_ok and weights_ok and everywhere_ok and rank_ok,
           f"gap={e_gp - e_dm4:.4f} "
           f"weights>{1e-3}: {int(np.sum(weights > 1e-3))}")


@pytest.fixture(scope="module")
def fock_modes():
    grid = Grid((7.0, 7.0), (48, 48))
    spec = ModelSpec(grid, HarmonicTrap((1.0, 1.0)), RotationSpec(0.0), 0.0)
    return spec, lowest_eigenpairs(spec, 4)


def test_criterion_07_gp_limit_trend(fock_modes):
    start = time.perf_counter()
    spec, modes = fock_modes
    trend_ok = True
    for g_coupling in (0.5, 2.0):
        rows = gp_limit_scan(spec, 4, g_coupling, [2, 4, 6, 8], modes=modes)
        gaps = [abs(r.E0_over_N - r.E_gp_truncated) for r in rows]
        trend_ok &= all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    cond = gp_limit_scan(spec, 4, 0.1, [8], modes=modes)[0].condensate_fraction
    W = np.full((1, 1, 1, 1), 0.37)
    closed = ground_state_bosonic(FockProblem(1, 8, (1.7,), W)).E0
    closed_ok = abs(closed - (8 * 1.7 + 0.5 * 8 * 7 * 0.37)) < 1e-10
    elapsed = time.perf_counter() - start
    report(7, "GP-limit trend nonincreasing; condensate >= 0.99 at g=0.1; M=1 closed form; < 10 min",
           trend_ok and cond >= 0.99 and closed_ok and elapsed < 600.0,
           f"cond={cond:.5f} t={elapsed:.0f}s")


def test_criterion_08_bosonic_vs_absolute():
    grid = Grid((7.0, 7.0), (48, 48))
    worst_eq = 0.0
    all_below = True
    for omega, g_pair in ((0.0, 0.4), (0.6, 0.5), (1.0, 0.8)):
        spec = ModelSpec(grid, HarmonicTrap((1.0, 1.0)), RotationSpec(omega), 0.0)
        pairs = lowest_eigenpairs(spec, 3)
        W = build_w_tensor(spec, [p[1] for p in pairs], DeltaPair(g_pair))
        problem = FockProblem(3, 3, [p[0] for p in pairs], W)
        e0 = ground_state_bosonic(problem).E0
        e_abs = ground_state_absolute(problem)
        if omega == 0.0:
            worst_eq = max(worst_eq, abs(e0 - e_abs))
        all_below &= e_abs <= e0 + 1e-10
    report(8, "M=3 N=3: |E_abs - E0| < 1e-10 at Omega=0; E_abs <= E0 everywhere",
           worst_eq < 1e-10 and all_below, f"|diff|={worst_eq:.2e}")


def test_criterion_09_coherent_identities():
    base = coherent_state_checks(D=64, z=1 + 1j, Z=8.0, n_max=8,
                                 radial_points=128, angular_points=256)
    fine = coherent_state_checks(D=64, z=1 + 1j, Z=8.0, n_max=8,
                                 radial_points=256, angular_points=256)
    ok = (base.annihilation_error < 1e-10 and base.number_error < 1e-10
          and base.completeness_error < 1e-3
          and fine.completeness_error < base.completeness_error
          and base.upper_symbol_error < 1e-3)
    report(9, "coherent-state identities: lower symbols 1e-10, quadratures < 1e-3 and refining",
           ok,
           f"compl={base.completeness_error:.2e}->{fine.completeness_error:.2e} "
           f"upper={base.upper_symbol_error:.2e}")


def test_criterion_10_scattering_suite():
    hs_ok = all(abs(scattering_length(HardSphere(r)) - r) < 1e-8
                for r in (0.07, 0.7, 7.0))
    kinds = [HardSphere(1.0), SquareWell(-1.5, 1.0), GaussianBump(2.0, 0.7),
             SoftShell(0.5, 1.5)]
    scale_ok = True
    for w in kinds:
        a0 = scattering_length(w)
        for s in (0.5, 2.0):
            scale_ok &= abs(scattering_length(scale_potential(w, s)) - s * a0) \
                <= 1e-6 * max(1.0, abs(s * a0))
    rows = born_check(SoftShell(0.5, 1.0), [0.2, 0.1, 0.05, 0.025])
    devs = [dev for _, _, dev in rows]
    born_ok = all(b <= 0.6 * a for a, b in zip(devs, devs[1:]))
    report(10, "scattering: hard sphere 1e-8, scaling law 1e-6 (4 kinds), Born ratio <= 0.6",
           hs_ok and scale_ok and born_ok,
           f"born ratios={[round(b / a, 3) for a, b in zip(devs, devs[1:])]}")


def test_criterion_11_vortex_detector():
    grid = Grid((8.0, 8.0), (64, 64))
    x, y = grid.meshes
    env = np.exp(-0.5 * grid.radius2_mesh)
    plus = detect_vortices(normalized(Field(grid, (x + 1j * y) * env)))
    minus = detect_vortices(normalized(Field(grid, (x - 1j * y) * env)))
    double = detect_vortices(normalized(Field(grid, (x - 1j * y) ** 2 * env)))
    synthetic_ok = (plus.total_winding == 1 and minus.total_winding == -1
                    and double.total_winding == -2
                    and abs(plus.Lz_expectation - 1.0) < 1e-8
                    and abs(double.Lz_expectation + 2.0) < 1e-8)
    rng = np.random.default_rng(11)
    invariance_ok = True
    for _ in range(50):
        k = int(rng.integers(1, 4))
        w = np.ones(grid.shape, dtype=complex)
        total = 0
        for _ in range(k):
            q = int(rng.choice([-1, 1]))
            a, b = rng.uniform(-1.8, 1.8, size=2)
            zz = (x - a) + 1j * (y - b)
            w = w * (zz if q > 0 else np.conj(zz))
            total += q
        phi = normalized(Field(grid, w * env))
        # a tail vortex can sit next to a corner whose density dips under
        # the default floor; completeness there is a floor question, so
        # pin a generous one and assert invariance at it
        floor = 1e-10 * float((np.abs(phi.values) ** 2).max())
        base = detect_vortices(phi, floor=floor)
        gauged = detect_vortices(
            Field(grid, np.exp(1j * rng.uniform(0, 2 * np.pi)) * phi.values),
            floor=floor,
        )
        rotated = detect_vortices(
            Field(grid, np.rot90(phi.values, axes=(1, 0)).copy()), floor=floor
        )
        invariance_ok &= (base.vortices == gauged.vortices)
        invariance_ok &= (rotated.total_winding == base.total_winding == total)
        want = sorted((round(py, 9), round(-px, 9)) for (px, py), _ in base.vortices)
        got = sorted((round(px, 9), round(py, 9)) for (px, py), _ in rotated.vortices)
        dx = grid.spacings[0]
        invariance_ok &= len(want) == len(got) and all(
            abs(wx - gx) <= dx and abs(wy - gy) <= dx
            for (wx, wy), (gx, gy) in zip(want, got)
        )
    report(11, "vortex detector: synthetic windings, gauge and quarter-turn invariance (50 fields)",
           synthetic_ok and invariance_ok)


def test_criterion_12_determinism(tmp_path):
    cfg = {
        "model": {"dim": 2, "half_width": 7.0, "points": 32,
                  "trap": {"kind": "harmonic", "nu": [1.0, 1.0]},
                  "omega": 0.0, "g": 3.0},
        "solver": {"tol": 1e-7, "max_iter": 6000, "restarts": 1, "seed": 12},
        "sweep": {"parameter": "omega_z", "values": [0.0, 0.5]},
        "dm": {"rank": 2},
        "outputs": {"directory": ""},
    }
    outdir = tmp_path / "out"
    cfg["outputs"]["directory"] = str(outdir)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    snapshots = []
    for _ in range(2):
        for sub in ("sweep", "gp-min"):
            proc = subprocess.run(
                [sys.executable, "-m", "rotbec.cli", sub, "--config", str(path)],
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr.decode()
        snapshots.append(
            ((outdir / "sweep.csv").read_bytes(),
             (outdir / "gp_result.json").read_bytes())
        )
    report(12, "repeated sweep + gp-min runs reproduce CSV/JSON byte-identically",
           snapshots[0] == snapshots[1])
