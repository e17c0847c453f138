"""The four benchmark workloads, their timed sections and correctness gates.

Each workload has ``setup()`` (untimed: grids, specs, cached meshes),
``solve(ctx, seed, tally)`` (the timed section) and
``check(ctx, seed, out, tally)`` (the gates, untimed).  ``tally`` counts
operations: solver restarts, solver calls and correctness checks.  Pinned
values come from the seed code's own output (see README.md).
"""

import json
import math
import os
import subprocess
import sys

import numpy as np

from rotbec import (Grid, HarmonicTrap, ModelSpec, RotationSpec, minimize_dm,
                    minimize_gp_family)
from rotbec.diagnostics import (detect_vortices, minimizer_family_analysis,
                                symmetry_breaking_metric)
from rotbec.errors import NoConvergence, Unstable
from rotbec.manybody import (FockProblem, coherent_state_checks, gp_limit_scan,
                             ground_state_bosonic)
from rotbec.model import lowest_eigenpairs
from rotbec.scatter import (GaussianBump, HardSphere, SoftShell, SquareWell,
                            born_check, scale_potential, scattering_length)


class Miss(Exception):
    """A solver call failed; the rest of the repetition cannot run."""


class Tally:
    """Attempted and failed operations of one run."""

    def __init__(self, descents):
        self.attempted = 0
        self.failed = 0
        self.misses = []
        self.descents = descents  # trust-region restarts counted from outside

    def check(self, label, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.misses.append(f"{label}: {detail}")

    def restarts(self, label, attempted, failed):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.misses.append(f"{label}: {failed} of {attempted} restarts did not converge")

    def call(self, label, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except (NoConvergence, Unstable) as exc:
            self.failed += 1
            self.misses.append(f"{label}: {type(exc).__name__}: {exc}")
            raise Miss(label) from exc

    def dm(self, label, spec, n, **kwargs):
        """minimize_dm, counting each restart it ran and each it dropped."""
        before = (self.descents.attempted, self.descents.failed)
        result = self.call(label, minimize_dm, spec, n, **kwargs)
        if self.descents.present:
            self.restarts(f"{label} restarts", self.descents.attempted - before[0],
                          self.descents.failed - before[1])
        return result


def noise_field(grid, rng):
    out = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return out * np.exp(-0.5 * grid.radius2_mesh)


def warm_meshes(grid):
    for name in ("meshes", "k_meshes", "ik_meshes", "k2_mesh", "radius2_mesh"):
        getattr(grid, name)


def gp_family(tally, label, spec, **kwargs):
    family = tally.call(label, minimize_gp_family, spec, **kwargs)
    used = family[0].restarts_used
    tally.restarts(label, used, used - len(family))
    return family


class Workload:
    """Repetition seeds shared by the solver workloads."""

    def rep_seed(self, seed, rep):
        """Even repetitions rerun the acceptance seed, odd ones fresh seeds.

        Solver work depends on the random starts, so a run's median time is
        steadier when most of its repetitions share one fixed seed; the
        others still check the gates on seeds derived from ``seed``.
        """
        return self.default_seed if rep % 2 == 0 else seed + 1000 * (rep // 2)


class Sweep2D(Workload):
    """One acceptance-sweep point, (g, Omega) = (20, 0.5) on 96^2, in process."""

    name = "sweep-2d"
    default_seed = 42
    min_reps = 3
    E_GP = 12.1887658429
    E_DM2 = 12.1132848042
    TOL = 1e-6  # the family energy_tol

    def setup(self):
        grid = Grid((9.0, 9.0), (96, 96))
        warm_meshes(grid)
        return ModelSpec(grid, HarmonicTrap((1.0, 1.0)), RotationSpec(0.5), 20.0)

    def solve(self, spec, seed, tally):
        family = gp_family(tally, "gp family", spec, tol=1e-8, max_iter=25000,
                           restarts=3, seed=seed)
        best = family[0]
        vortices = detect_vortices(best.phi)
        s_metric = symmetry_breaking_metric(best.phi)
        clusters = minimizer_family_analysis(family, energy_tol=1e-6, distance_tol=1e-3)
        dm2 = tally.dm("dm rank 2", spec, 2, tol=1e-6, max_iter=30000, restarts=0,
                       seed=seed, seed_fields=[best.phi])
        grid = spec.grid
        rng = np.random.default_rng(seed)
        pad = [np.sqrt(w) * phi.values
               for w, phi in zip(dm2.state.weights, dm2.state.orbitals)]
        while len(pad) < 4:
            pad.append(1e-6 * noise_field(grid, rng))
        rng = np.random.default_rng(seed + 1)
        gp_rows = [best.phi.values]
        while len(gp_rows) < 4:
            gp_rows.append(1e-6 * noise_field(grid, rng))
        dm4 = tally.dm("dm rank 4", spec, 4, tol=1e-6, max_iter=30000, seed=seed,
                       starts=[np.stack(pad), np.stack(gp_rows)])
        return {"E_gp": best.energy, "E_dm2": dm2.energy, "E_dm4": dm4.energy,
                "gp_restart_applications": [r.iterations for r in family],
                "dm_applications": [dm2.iterations, dm4.iterations],
                "vortices": vortices.count, "s_metric": s_metric,
                "clusters": clusters.n_distinct_minimizers}

    def check(self, spec, seed, out, tally):
        e_gp, e2, e4 = out["E_gp"], out["E_dm2"], out["E_dm4"]
        tally.check("E_GP pin", abs(e_gp - self.E_GP) <= self.TOL, f"{e_gp!r}")
        tally.check("E_DM2 pin", abs(e2 - self.E_DM2) <= self.TOL, f"{e2!r}")
        tally.check("E_DM4 <= E_DM2 + 1e-8 <= E_GP + 2e-8",
                    e4 <= e2 + 1e-8 and e2 + 1e-8 <= e_gp + 2e-8, f"{e4!r} {e2!r} {e_gp!r}")
        tally.check("diagnostics finite", math.isfinite(out["s_metric"])
                    and out["clusters"] >= 1, f"{out['s_metric']!r}")


class GP3D(Workload):
    """Acceptance criterion 1: the 64^3 isotropic oscillator."""

    name = "gp-3d"
    default_seed = 1
    min_reps = 3

    def setup(self):
        grid = Grid((8.0,) * 3, (64,) * 3)
        warm_meshes(grid)
        return ModelSpec(grid, HarmonicTrap((1.0,) * 3), RotationSpec(0.0), 0.0)

    def solve(self, spec, seed, tally):
        family = gp_family(tally, "gp family", spec, tol=1e-8, max_iter=20000,
                           restarts=1, seed=seed)
        return {"E": family[0].energy,
                "gp_restart_applications": [r.iterations for r in family]}

    def check(self, spec, seed, out, tally):
        rel = abs(out["E"] - 3.0) / 3.0
        tally.check("E = 3 (rel 1e-8)", rel < 1e-8, f"rel={rel:.2e}")


def _close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(b))


class FockScan:
    """Many-body and scattering cross-checks on 48^2 oscillator modes."""

    name = "fock-scan"
    default_seed = 7
    min_reps = 1
    # seed-code values; E0/N per N, and the truncated GP minimum of each scan
    PIN = {
        "delta4": ([2.815605168012075, 3.6854834658445386, 3.998585403345261,
                    4.162617485515594], 4.706159682219762),
        "delta6": ([3.981303960168836], 4.420814982775128),
        "gauss4": ([2.7658887189066603, 4.39862818775398], 4.706159682219762),
        "abs3": ([5.055706884068203], None),
    }
    E_ABS3 = 37.77525512860649
    SCATTER = {"square_well": -0.35770930472181184, "gaussian": 0.3205394828547865,
               "soft_shell": 0.3483240392224096}

    def setup(self):
        grid = Grid((7.0, 7.0), (48, 48))
        warm_meshes(grid)
        return ModelSpec(grid, HarmonicTrap((1.0, 1.0)), RotationSpec(0.0), 0.0)

    def rep_seed(self, seed, rep):
        # The eigensolver start picks one vector of the threefold 6.0 shell
        # as the fourth mode, and the M=4 energies depend on that choice;
        # the scan inputs therefore stay fixed whatever the seed.
        return self.default_seed

    def solve(self, spec, seed, tally):
        modes = tally.call("eigenpairs M=6", lowest_eigenpairs, spec, 6, seed=seed)
        out = {"eigenvalues": [e for e, _ in modes]}
        scans = {
            "delta4": dict(M=4, g=2.0, N_list=[2, 4, 6, 8], modes=modes[:4]),
            "delta6": dict(M=6, g=2.0, N_list=[10], modes=modes),
            "gauss4": dict(M=4, g=2.0, N_list=[2, 4], pair_kind="gaussian", modes=modes[:4]),
            "abs3": dict(M=3, g=2.0, N_list=[8], with_absolute=True, modes=modes[:3]),
        }
        for key, kw in scans.items():
            rows = tally.call(f"gp_limit_scan {key}", gp_limit_scan, spec, **kw)
            out[key] = [(r.E0_over_N, r.E_gp_truncated, r.E_abs) for r in rows]
        W = np.full((1, 1, 1, 1), 0.37)
        out["closed_form"] = tally.call("M=1 closed form", ground_state_bosonic,
                                        FockProblem(1, 8, (1.7,), W)).E0
        out["coherent"] = coherent_state_checks(D=64, z=1 + 1j, Z=8.0, n_max=8,
                                                radial_points=128, angular_points=256)
        out["hard_sphere"] = [scattering_length(HardSphere(r)) for r in (0.07, 0.7, 7.0)]
        kinds = {"hard_sphere_1": HardSphere(1.0), "square_well": SquareWell(-1.5, 1.0),
                 "gaussian": GaussianBump(2.0, 0.7), "soft_shell": SoftShell(0.5, 1.5)}
        out["scaling"] = {}
        for key, w in kinds.items():
            out["scaling"][key] = (scattering_length(w),
                                   [scattering_length(scale_potential(w, s)) for s in (0.5, 2.0)])
        out["born"] = born_check(SoftShell(0.5, 1.0), [0.2, 0.1, 0.05, 0.025])
        return out

    def check(self, spec, seed, out, tally):
        want = (2.0, 4.0, 4.0, 6.0, 6.0, 6.0)
        tally.check("eigenvalues", all(abs(e - w) < 1e-6 for e, w in zip(out["eigenvalues"], want)),
                    f"{out['eigenvalues']}")
        for key, (e0s, e_gp) in self.PIN.items():
            got = [r[0] for r in out[key]]
            tally.check(f"{key} E0/N pin", len(got) == len(e0s)
                        and all(_close(a, b, 1e-8) for a, b in zip(got, e0s)), f"{got}")
            if e_gp is not None:
                tally.check(f"{key} GP minimum pin", _close(out[key][0][1], e_gp, 1e-8),
                            f"{out[key][0][1]!r}")
        # criterion 7: the gap to the truncated GP minimum shrinks with N
        gaps = [abs(e0 - egp) for e0, egp, _ in out["delta4"]]
        tally.check("GP-limit trend", all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:])),
                    f"{gaps}")
        tally.check("M=1 closed form",
                    abs(out["closed_form"] - (8 * 1.7 + 0.5 * 8 * 7 * 0.37)) < 1e-10,
                    f"{out['closed_form']!r}")
        # criterion 8: the unrestricted ground state lies at or below the bosonic one
        e0_over_n, _, e_abs = out["abs3"][0]
        tally.check("E_abs <= E0", e_abs is not None and e_abs <= 8 * e0_over_n + 1e-10,
                    f"{e_abs!r} vs {8 * e0_over_n!r}")
        tally.check("E_abs pin", e_abs is not None and _close(e_abs, self.E_ABS3, 1e-8),
                    f"{e_abs!r}")
        c = out["coherent"]
        tally.check("coherent identities", c.annihilation_error < 1e-10
                    and c.number_error < 1e-10 and c.completeness_error < 1e-3
                    and c.upper_symbol_error < 1e-3, f"{c}")
        # criterion 10
        tally.check("hard sphere", all(abs(a - r) < 1e-8 for a, r in
                                       zip(out["hard_sphere"], (0.07, 0.7, 7.0))),
                    f"{out['hard_sphere']}")
        scale_ok = all(abs(a_s - s * a0) <= 1e-6 * max(1.0, abs(s * a0))
                       for a0, scaled in out["scaling"].values()
                       for s, a_s in zip((0.5, 2.0), scaled))
        tally.check("scaling law", scale_ok, f"{out['scaling']}")
        for key, a in self.SCATTER.items():
            got = out["scaling"][key][0]
            tally.check(f"{key} length pin", _close(got, a, 1e-8), f"{got!r}")
        devs = [dev for _, _, dev in out["born"]]
        tally.check("Born ratio <= 0.6", all(b <= 0.6 * a for a, b in zip(devs, devs[1:])),
                    f"{devs}")


class SweepCLI(Workload):
    """``rotbec sweep`` as a subprocess: 96^2, Omega = 0, g in {0, 20}."""

    name = "sweep-cli"
    default_seed = 42
    # Serial: with two pool workers, each asking scipy.fft and OpenBLAS for
    # every core, a sweep over Omega in {0, 0.5} drifted by a third between
    # two sets of runs on a 2-core host, beyond any bound the benchmark may set.
    WORKERS = 1
    # Three repetitions, so that the median absorbs one slow one; the
    # sweep is kept to about 6 s so that three fit in a run.
    min_reps = 3
    # seed-independent columns of sweep.csv: energy, mu, e_dm per g
    PIN = {0.0: (2.0, 2.0, 2.0),
           20.0: (12.1887658429, 18.0531703249, 12.1887658429)}
    TOL = 1e-6

    def __init__(self, root, src, work):
        self.root, self.src, self.work = root, src, work

    def setup(self):
        from rotbec.cli import load_config

        self.work.mkdir(parents=True, exist_ok=True)
        self.last = {}
        return load_config

    def config(self, seed):
        return {
            "model": {"dim": 2, "half_width": 9.0, "points": 96,
                      "trap": {"kind": "harmonic", "nu": [1.0, 1.0]},
                      "omega": 0.0, "g": 20.0},
            "solver": {"tol": 1e-8, "max_iter": 25000, "restarts": 3, "seed": seed},
            "sweep": {"parameter": "g", "values": [0.0, 20.0]},
            "dm": {"rank": 2},
            "outputs": {"directory": str(self.work / "cli-out"),
                        "emit_fields": False, "emit_images": False},
        }

    def command(self, seed, load_config, wrapper=None):
        path = self.work / f"cli-{seed}.json"
        path.write_text(json.dumps(self.config(seed)))
        load_config(str(path))
        head = [sys.executable, str(wrapper)] if wrapper else [sys.executable, "-m", "rotbec.cli"]
        return head + ["sweep", "--config", str(path), "--workers", str(self.WORKERS)]

    def solve(self, load_config, seed, tally, command=None):
        env = dict(os.environ, PYTHONPATH=str(self.src))
        cmd = command or self.command(seed, load_config)
        proc = subprocess.run(cmd, cwd=self.root, env=env, capture_output=True, timeout=170)
        tally.attempted += 1
        if proc.returncode != 0:
            tally.failed += 1
            tally.misses.append(f"rotbec sweep exit {proc.returncode}: "
                                f"{proc.stderr.decode(errors='replace')[-400:]}")
            raise Miss("rotbec sweep")
        return {"csv": (self.work / "cli-out" / "sweep.csv").read_bytes()}

    def check(self, load_config, seed, out, tally):
        text = out.pop("csv")
        lines = text.decode().splitlines()
        header = lines[1].split(",")
        rows = {float(r[0]): dict(zip(header, r)) for r in (ln.split(",") for ln in lines[2:])}
        out["rows"] = rows
        for g, pins in self.PIN.items():
            row = rows.get(g)
            got = tuple(float(row[k]) for k in ("energy", "mu", "e_dm")) if row else None
            tally.check(f"CSV pin g={g}", got is not None and all(
                abs(a - b) <= self.TOL for a, b in zip(got, pins)), f"{got}")
        if seed in self.last:
            tally.check("byte-identical rerun", self.last[seed] == text,
                        "sweep.csv differs between two runs of one seed")
        self.last[seed] = text
