"""Batch front end: JSON run configurations, subcommands, sweeps.

Every output file embeds the configuration hash and the seed, energies in
JSON/CSV are rounded to 12 significant digits, and files are written
atomically (temp + rename), so a rerun with the same configuration
reproduces outputs byte for byte.

Exit codes: 0 success, 2 configuration error, 3 no convergence,
4 unstable trap.
"""

import argparse
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

import numpy as np

from . import diagnostics
from .dm import minimize_dm
from .errors import ConfigError, InvalidState, NoConvergence, NonFiniteScatteringLength, Unstable
from .gp import minimize_gp_family
from .lattice import Grid, atomic_open, limit_threads, write_field_raw, write_field_text
from .manybody import coherent_state_checks, gp_limit_scan
from .model import HarmonicTrap, ModelSpec, QuarticTrap, RotationSpec, SampledTrap
from .scatter import (
    GaussianBump,
    HardSphere,
    SoftShell,
    SquareWell,
    born_check,
    scale_potential,
    scattering_length,
)

_SCHEMA = {
    "model": {"dim", "half_width", "points", "trap", "omega", "g"},
    "solver": {"tol", "max_iter", "restarts", "seed"},
    "sweep": {"parameter", "values"},
    "outputs": {"directory", "emit_fields", "emit_images"},
    "dm": {"rank"},
    "fock": {"modes", "g", "n_values", "pair", "with_absolute"},
    "coherent": {"truncation", "z", "quad_radius", "n_max",
                 "radial_points", "angular_points"},
    "scatter": {"potential", "scales", "born_a_values"},
}
# kind -> (constructor, argument keys); a trap's constructor takes the grid first
_TRAPS = {
    "harmonic": (lambda grid, nu: HarmonicTrap(nu), ("nu",)),
    "quartic": (lambda grid, nu, lam: QuarticTrap(nu, lam), ("nu", "lambda")),
    "sampled": (lambda grid, path: SampledTrap(np.loadtxt(path).reshape(grid.shape)),
                ("values_file",)),
}
_POTENTIALS = {
    "hard_sphere": (HardSphere, ("radius",)),
    "square_well": (SquareWell, ("depth", "radius")),
    "gaussian": (GaussianBump, ("amplitude", "width")),
    "soft_shell": (SoftShell, ("r_inner", "r_outer")),
}


@contextmanager
def _reading(where):
    """Report a bad value met while reading ``where`` as a ConfigError (exit 2).

    Only conversions and input construction run inside, never a solve, so
    an error raised by a solver keeps its own exit code.
    """
    try:
        yield
    except (KeyError, TypeError, ValueError, OSError) as exc:
        raise ConfigError(f"bad value in {where}: {type(exc).__name__}: {exc}") from exc


def _check_keys(mapping, allowed, where):
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _check_kind(obj, table, where):
    """An object with a known ``kind`` and exactly the keys that kind takes."""
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if not isinstance(kind, str) or kind not in table:
        raise ConfigError(f"{where} must be an object with kind in {sorted(table)}")
    keys = {"kind", *table[kind][1]}
    if set(obj) != keys:
        raise ConfigError(f"{where} of kind {kind!r} takes the keys {sorted(keys)}")


def load_config(path):
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(cfg, set(_SCHEMA), "config")
    for section, keys in _SCHEMA.items():
        if section in cfg:
            if not isinstance(cfg[section], dict):
                raise ConfigError(f"section {section!r} must be an object")
            _check_keys(cfg[section], keys, section)
    if "trap" in cfg.get("model", {}):
        _check_kind(cfg["model"]["trap"], _TRAPS, "model.trap")
    if "potential" in cfg.get("scatter", {}):
        _check_kind(cfg["scatter"]["potential"], _POTENTIALS, "scatter.potential")
    # outputs decides where files go and which are written, never their
    # contents, so it stays out of the hash
    hashed = {k: v for k, v in cfg.items() if k != "outputs"}
    digest = hashlib.sha256(
        json.dumps(hashed, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]
    return cfg, digest


def build_model(cfg):
    with _reading("model"):
        m = cfg["model"]
        dim = int(m["dim"])
        grid = Grid(_per_axis(m["half_width"], dim), _per_axis(m["points"], dim))
        make_trap, keys = _TRAPS[m["trap"]["kind"]]
        trap = make_trap(grid, *(m["trap"][k] for k in keys))
        return ModelSpec(grid, trap, RotationSpec(m["omega"]), float(m["g"]))


def _per_axis(value, dim):
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return (value,) * dim


def solver_options(cfg):
    with _reading("solver"):
        s = cfg.get("solver", {})
        return {
            "tol": float(s.get("tol", 1e-8)),
            "max_iter": int(s.get("max_iter", 200000)),
            "restarts": int(s.get("restarts", 4)),
            "seed": int(s.get("seed", 0)),
        }


def _dm_rank(cfg):
    with _reading("dm"):
        return int(cfg.get("dm", {}).get("rank", 2))


def sig12(x):
    """Round to 12 significant digits for byte-stable emission."""
    if x is None:
        return None
    return float(f"{float(x):.12g}")


def write_json(path, payload, digest, seed):
    payload = dict(payload)
    payload["config_hash"] = digest
    payload["seed"] = seed
    with atomic_open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_csv(path, header, rows, digest, seed):
    lines = [f"# config_hash={digest} seed={seed}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    with atomic_open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _gp_payload(result):
    return {
        "energy": sig12(result.energy),
        "mu": sig12(result.mu),
        "breakdown": {
            "kinetic": sig12(result.breakdown.kinetic),
            "potential": sig12(result.breakdown.potential),
            "rotational": sig12(result.breakdown.rotational),
            "interaction": sig12(result.breakdown.interaction),
        },
        "residual": sig12(result.residual),
        "iterations": result.iterations,
        "restarts_used": result.restarts_used,
    }


def _emit_field_artifacts(outdir, stem, phi, cfg, digest, seed):
    out = cfg.get("outputs", {})
    stamp = f"config_hash={digest} seed={seed}"
    if out.get("emit_fields"):
        write_field_text(os.path.join(outdir, stem + ".csv"), phi, extra=stamp)
        write_field_raw(os.path.join(outdir, stem + ".raw"), phi, extra=stamp)
    if out.get("emit_images") and phi.grid.dim == 2:
        dens = phi.values.real**2 + phi.values.imag**2
        diagnostics.write_pgm(os.path.join(outdir, stem + "_density.pgm"), dens,
                              comment=stamp)
        diagnostics.write_pgm(
            os.path.join(outdir, stem + "_phase.pgm"), np.angle(phi.values),
            kind="phase", comment=stamp,
        )


def _gp_point(spec, opts):
    """GP family, the vortex report of its best member, and s (axisymmetric only)."""
    family = minimize_gp_family(spec, **opts)
    best = family[0]
    report = diagnostics.detect_vortices(best.phi)
    s_metric = (
        diagnostics.symmetry_breaking_metric(best.phi) if spec.is_axisymmetric else None
    )
    return family, report, s_metric


def cmd_gp_min(cfg, digest, outdir, workers):
    spec = build_model(cfg)
    opts = solver_options(cfg)
    family, report, s_metric = _gp_point(spec, opts)
    best = family[0]
    payload = _gp_payload(best)
    payload["vortex_count"] = report.count
    payload["total_winding"] = report.total_winding
    payload["Lz"] = sig12(report.Lz_expectation)
    if s_metric is not None:
        payload["s_metric"] = sig12(s_metric)
    write_json(os.path.join(outdir, "gp_result.json"), payload, digest, opts["seed"])
    _emit_field_artifacts(outdir, "gp_phi", best.phi, cfg, digest, opts["seed"])
    return 0


def cmd_dm_min(cfg, digest, outdir, workers):
    spec = build_model(cfg)
    opts = solver_options(cfg)
    result = minimize_dm(spec, _dm_rank(cfg), **opts)
    payload = {
        "energy": sig12(result.energy),
        "weights": [sig12(w) for w in result.state.weights],
        "orbital_h0": [sig12(h) for h in result.orbital_energies],
        "residual": sig12(result.residual),
        "iterations": result.iterations,
        "restarts_used": result.restarts_used,
    }
    write_json(os.path.join(outdir, "dm_result.json"), payload, digest, opts["seed"])
    for i, phi in enumerate(result.state.orbitals):
        _emit_field_artifacts(outdir, f"dm_orbital_{i}", phi, cfg, digest, opts["seed"])
    return 0


def sweep_point(job):
    """One (cfg, parameter, value) sweep job: GP minimization, diagnostics, DM gap.

    Returns the job's ``sweep.csv`` row.
    """
    cfg, parameter, value = job
    cfg = json.loads(json.dumps(cfg))  # deep copy
    cfg["model"]["g" if parameter == "g" else "omega"] = value
    spec = build_model(cfg)
    opts = solver_options(cfg)
    family, report, s_metric = _gp_point(spec, opts)
    best = family[0]
    sym = diagnostics.minimizer_family_analysis(family)
    dm_result = minimize_dm(
        spec, _dm_rank(cfg), tol=max(opts["tol"], 1e-7), max_iter=opts["max_iter"],
        restarts=0, seed=opts["seed"], seed_fields=[best.phi],
    )
    return [sig12(value), sig12(best.energy), sig12(best.mu), report.count,
            report.total_winding, sig12(report.Lz_expectation), sig12(s_metric),
            sym.n_distinct_minimizers, sig12(dm_result.energy),
            sig12(dm_result.energy - best.energy)]


def cmd_sweep(cfg, digest, outdir, workers):
    sweep = cfg.get("sweep", {})
    parameter, values = sweep.get("parameter"), sweep.get("values")
    if parameter not in ("g", "omega_z") or not isinstance(values, list) or not values:
        raise ConfigError("sweep needs parameter 'g' or 'omega_z' and a nonempty values list")
    with _reading("sweep"):
        jobs = [(cfg, parameter, float(v)) for v in values]
    seed = solver_options(cfg)["seed"]
    workers = min(workers, len(jobs))  # a fork pool starts all its workers at once
    if workers > 1:
        # one thread per worker process: k workers on k cores, not k x k
        with ProcessPoolExecutor(max_workers=workers, initializer=limit_threads,
                                 initargs=(1,)) as pool:
            rows = list(pool.map(sweep_point, jobs))
    else:
        rows = [sweep_point(j) for j in jobs]
    header = [parameter, "energy", "mu", "vortex_count", "total_winding",
              "Lz", "s_metric", "n_clusters", "e_dm", "dm_gap"]
    write_csv(os.path.join(outdir, "sweep.csv"), header, rows, digest, seed)
    return 0


def cmd_fock(cfg, digest, outdir, workers):
    spec = build_model(cfg)
    seed = solver_options(cfg)["seed"]
    with _reading("fock"):
        f = cfg.get("fock", {})
        modes, g = int(f.get("modes", 4)), float(f.get("g", 0.5))
        n_values = [int(n) for n in f.get("n_values", [2, 4, 6, 8])]
        with_absolute = bool(f.get("with_absolute", False))
    rows = gp_limit_scan(spec, modes, g, n_values, pair_kind=f.get("pair", "delta"),
                         with_absolute=with_absolute)
    header = ["N", "a", "E0_over_N", "E_gp_truncated", "condensate_fraction", "E_abs"]
    table = [
        [r.N, sig12(r.a), sig12(r.E0_over_N), sig12(r.E_gp_truncated),
         sig12(r.condensate_fraction), sig12(r.E_abs)]
        for r in rows
    ]
    write_csv(os.path.join(outdir, "fock.csv"), header, table, digest, seed)
    return 0


def cmd_coherent(cfg, digest, outdir, workers):
    seed = solver_options(cfg)["seed"]
    # coherent_state_checks checks its inputs, then runs closed-form
    # quadratures (no solve), so a ValueError from it is a bad value
    with _reading("coherent"):
        c = cfg.get("coherent", {})
        z = c.get("z", [1.0, 1.0])
        report = coherent_state_checks(
            D=int(c.get("truncation", 64)),
            z=complex(float(z[0]), float(z[1])),
            Z=float(c.get("quad_radius", 8.0)),
            n_max=int(c.get("n_max", 8)),
            radial_points=int(c.get("radial_points", 128)),
            angular_points=int(c.get("angular_points", 256)),
        )
    payload = {
        "annihilation_error": sig12(report.annihilation_error),
        "number_error": sig12(report.number_error),
        "completeness_error": sig12(report.completeness_error),
        "upper_symbol_error": sig12(report.upper_symbol_error),
        "shifted_number_error": sig12(report.shifted_number_error),
    }
    write_json(os.path.join(outdir, "coherent.json"), payload, digest, seed)
    return 0


def cmd_scatter(cfg, digest, outdir, workers):
    seed = solver_options(cfg)["seed"]
    s = cfg.get("scatter", {})
    if "potential" not in s:
        raise ConfigError("scatter subcommand needs scatter.potential")
    with _reading("scatter"):
        make_potential, keys = _POTENTIALS[s["potential"]["kind"]]
        v = make_potential(*(float(s["potential"][k]) for k in keys))
        scaled = [(float(a), scale_potential(v, float(a))) for a in s.get("scales") or []]
        born_values = [float(a) for a in s.get("born_a_values") or []]
    if born_values and not isinstance(v, SoftShell):
        raise ConfigError("born_a_values requires a soft_shell potential")
    payload = {"scattering_length": sig12(scattering_length(v))}
    if scaled:
        payload["scaled"] = [
            {"scale": sig12(a), "scattering_length": sig12(scattering_length(va))}
            for a, va in scaled
        ]
    write_json(os.path.join(outdir, "scatter.json"), payload, digest, seed)
    if born_values:
        rows = born_check(v, born_values)
        write_csv(
            os.path.join(outdir, "born.csv"),
            ["a", "s_of_a", "rel_deviation"],
            [[sig12(a), sig12(sv), sig12(dev)] for a, sv, dev in rows],
            digest, seed,
        )
    return 0


_COMMANDS = {
    "gp-min": cmd_gp_min,
    "dm-min": cmd_dm_min,
    "sweep": cmd_sweep,
    "fock": cmd_fock,
    "coherent": cmd_coherent,
    "scatter": cmd_scatter,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="rotbec",
        description="Ground states of rotating dilute Bose gases: "
                    "GP/DM minimization, vortex diagnostics, many-body checks.",
    )
    parser.add_argument("subcommand", choices=list(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel sweep workers (default: ROTBEC_WORKERS or 1)")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    try:
        workers = args.workers
        if workers is None:
            with _reading("ROTBEC_WORKERS"):
                workers = int(os.environ.get("ROTBEC_WORKERS", "1"))
        cfg, digest = load_config(args.config)
        with _reading("outputs"):
            outdir = cfg.get("outputs", {}).get("directory", ".")
            os.makedirs(outdir, exist_ok=True)
        if args.verbose:
            print(f"rotbec {args.subcommand}: config {digest}, outputs in {outdir}",
                  file=sys.stderr)
        return _COMMANDS[args.subcommand](cfg, digest, outdir, workers)
    except (ConfigError, InvalidState, NonFiniteScatteringLength) as exc:
        # InvalidState: an input outside the library's invariants (rank, N, M);
        # NonFiniteScatteringLength: the configured potential is at resonance
        print(f"rotbec: config error: {exc}", file=sys.stderr)
        return 2
    except NoConvergence as exc:
        print(f"rotbec: no convergence: {exc}", file=sys.stderr)
        return 3
    except Unstable as exc:
        print(f"rotbec: unstable trap: {exc} (witness {exc.witness})", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
