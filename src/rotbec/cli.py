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
import tempfile
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import diagnostics
from .dm import minimize_dm
from .errors import ConfigError, NoConvergence, Unstable
from .gp import minimize_gp_family
from .lattice import Grid, limit_threads, write_field_raw, write_field_text
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
_TRAP_KEYS = {
    "harmonic": {"kind", "nu"},
    "quartic": {"kind", "nu", "lambda"},
    "sampled": {"kind", "values_file"},
}
_POTENTIAL_KEYS = {
    "hard_sphere": {"kind", "radius"},
    "square_well": {"kind", "depth", "radius"},
    "gaussian": {"kind", "amplitude", "width"},
    "soft_shell": {"kind", "r_inner", "r_outer"},
}


def _check_keys(mapping, allowed, where):
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


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
    if "model" in cfg and "trap" in cfg["model"]:
        trap = cfg["model"]["trap"]
        kind = trap.get("kind")
        if kind not in _TRAP_KEYS:
            raise ConfigError(f"unknown trap kind {kind!r}")
        _check_keys(trap, _TRAP_KEYS[kind], "model.trap")
    if "scatter" in cfg and "potential" in cfg["scatter"]:
        pot = cfg["scatter"]["potential"]
        kind = pot.get("kind")
        if kind not in _POTENTIAL_KEYS:
            raise ConfigError(f"unknown potential kind {kind!r}")
        _check_keys(pot, _POTENTIAL_KEYS[kind], "scatter.potential")
    # outputs decides where files go and which are written, never their
    # contents, so it stays out of the hash
    hashed = {k: v for k, v in cfg.items() if k != "outputs"}
    digest = hashlib.sha256(
        json.dumps(hashed, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]
    return cfg, digest


def build_model(cfg):
    try:
        m = cfg["model"]
        dim = int(m["dim"])
        grid = Grid(_per_axis(m["half_width"], dim), _per_axis(m["points"], dim))
        trap_cfg = m["trap"]
        kind = trap_cfg["kind"]
        if kind == "harmonic":
            trap = HarmonicTrap(trap_cfg["nu"])
        elif kind == "quartic":
            trap = QuarticTrap(trap_cfg["nu"], trap_cfg["lambda"])
        else:
            trap = SampledTrap(np.loadtxt(trap_cfg["values_file"]).reshape(grid.shape))
        rotation = RotationSpec(m["omega"])
        return ModelSpec(grid, trap, rotation, float(m["g"]))
    except Unstable:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad model section: {exc}") from exc


def _per_axis(value, dim):
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return (value,) * dim


def solver_options(cfg):
    s = dict(cfg.get("solver", {}))
    return {
        "tol": float(s.get("tol", 1e-8)),
        "max_iter": int(s.get("max_iter", 200000)),
        "restarts": int(s.get("restarts", 4)),
        "seed": int(s.get("seed", 0)),
    }


def sig12(x):
    """Round to 12 significant digits for byte-stable emission."""
    if x is None:
        return None
    return float(f"{float(x):.12g}")


def _atomic_write(path, data, mode="w"):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-rotbec-")
    try:
        with os.fdopen(fd, mode) as fh:
            fh.write(data)
        os.chmod(tmp, 0o644)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, payload, digest, seed):
    payload = dict(payload)
    payload["config_hash"] = digest
    payload["seed"] = seed
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_csv(path, header, rows, digest, seed):
    lines = [f"# config_hash={digest} seed={seed}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


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


def cmd_gp_min(cfg, digest, outdir):
    spec = build_model(cfg)
    opts = solver_options(cfg)
    family = minimize_gp_family(spec, **opts)
    best = family[0]
    report = diagnostics.detect_vortices(best.phi)
    payload = _gp_payload(best)
    payload["vortex_count"] = report.count
    payload["total_winding"] = report.total_winding
    payload["Lz"] = sig12(report.Lz_expectation)
    if spec.is_axisymmetric:
        payload["s_metric"] = sig12(diagnostics.symmetry_breaking_metric(best.phi))
    write_json(os.path.join(outdir, "gp_result.json"), payload, digest, opts["seed"])
    _emit_field_artifacts(outdir, "gp_phi", best.phi, cfg, digest, opts["seed"])
    return 0


def cmd_dm_min(cfg, digest, outdir):
    spec = build_model(cfg)
    opts = solver_options(cfg)
    rank = int(cfg.get("dm", {}).get("rank", 2))
    result = minimize_dm(
        spec, rank, tol=opts["tol"], max_iter=opts["max_iter"],
        restarts=opts["restarts"], seed=opts["seed"],
    )
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


def sweep_point(cfg, parameter, value):
    """One sweep point: GP minimization, diagnostics, DM gap."""
    cfg = json.loads(json.dumps(cfg))  # deep copy
    if parameter == "g":
        cfg["model"]["g"] = value
    else:
        cfg["model"]["omega"] = value
    spec = build_model(cfg)
    opts = solver_options(cfg)
    family = minimize_gp_family(spec, **opts)
    best = family[0]
    report = diagnostics.detect_vortices(best.phi)
    s_metric = (
        diagnostics.symmetry_breaking_metric(best.phi) if spec.is_axisymmetric else None
    )
    sym = diagnostics.minimizer_family_analysis(family)
    rank = int(cfg.get("dm", {}).get("rank", 2))
    dm_result = minimize_dm(
        spec, rank, tol=max(opts["tol"], 1e-7), max_iter=opts["max_iter"],
        restarts=0, seed=opts["seed"], seed_fields=[best.phi],
    )
    return {
        "value": value,
        "energy": best.energy,
        "mu": best.mu,
        "vortex_count": report.count,
        "total_winding": report.total_winding,
        "Lz": report.Lz_expectation,
        "s_metric": s_metric,
        "n_clusters": sym.n_distinct_minimizers,
        "e_dm": dm_result.energy,
        "dm_gap": dm_result.energy - best.energy,
    }


def _sweep_worker(args):
    cfg, parameter, value = args
    return sweep_point(cfg, parameter, value)


def cmd_sweep(cfg, digest, outdir, workers):
    if "sweep" not in cfg:
        raise ConfigError("sweep subcommand needs a sweep section")
    parameter = cfg["sweep"].get("parameter")
    if parameter not in ("g", "omega_z"):
        raise ConfigError("sweep parameter must be 'g' or 'omega_z'")
    values = cfg["sweep"].get("values")
    if not isinstance(values, list) or not values:
        raise ConfigError("sweep values must be a nonempty list")
    jobs = [(cfg, parameter, float(v)) for v in values]
    workers = min(workers, len(jobs))  # a fork pool starts all its workers at once
    if workers > 1:
        # one thread per worker process: k workers on k cores, not k x k
        with ProcessPoolExecutor(max_workers=workers, initializer=limit_threads,
                                 initargs=(1,)) as pool:
            rows = list(pool.map(_sweep_worker, jobs))
    else:
        rows = [_sweep_worker(j) for j in jobs]
    header = [parameter, "energy", "mu", "vortex_count", "total_winding",
              "Lz", "s_metric", "n_clusters", "e_dm", "dm_gap"]
    table = [
        [
            sig12(r["value"]), sig12(r["energy"]), sig12(r["mu"]),
            r["vortex_count"], r["total_winding"], sig12(r["Lz"]),
            sig12(r["s_metric"]) if r["s_metric"] is not None else None,
            r["n_clusters"], sig12(r["e_dm"]), sig12(r["dm_gap"]),
        ]
        for r in rows
    ]
    write_csv(os.path.join(outdir, "sweep.csv"), header, table, digest,
              solver_options(cfg)["seed"])
    return 0


def cmd_fock(cfg, digest, outdir):
    spec = build_model(cfg)
    f = cfg.get("fock", {})
    rows = gp_limit_scan(
        spec,
        int(f.get("modes", 4)),
        float(f.get("g", 0.5)),
        [int(n) for n in f.get("n_values", [2, 4, 6, 8])],
        pair_kind=f.get("pair", "delta"),
        with_absolute=bool(f.get("with_absolute", False)),
    )
    header = ["N", "a", "E0_over_N", "E_gp_truncated", "condensate_fraction", "E_abs"]
    table = [
        [r.N, sig12(r.a), sig12(r.E0_over_N), sig12(r.E_gp_truncated),
         sig12(r.condensate_fraction), sig12(r.E_abs) if r.E_abs is not None else None]
        for r in rows
    ]
    write_csv(os.path.join(outdir, "fock.csv"), header, table, digest,
              solver_options(cfg)["seed"])
    return 0


def cmd_coherent(cfg, digest, outdir):
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
    write_json(os.path.join(outdir, "coherent.json"), payload, digest,
               solver_options(cfg)["seed"])
    return 0


def _build_potential(cfg):
    pot = cfg.get("scatter", {}).get("potential")
    if pot is None:
        raise ConfigError("scatter subcommand needs scatter.potential")
    kind = pot["kind"]
    if kind == "hard_sphere":
        return HardSphere(float(pot["radius"]))
    if kind == "square_well":
        return SquareWell(float(pot["depth"]), float(pot["radius"]))
    if kind == "gaussian":
        return GaussianBump(float(pot["amplitude"]), float(pot["width"]))
    return SoftShell(float(pot["r_inner"]), float(pot["r_outer"]))


def cmd_scatter(cfg, digest, outdir):
    v = _build_potential(cfg)
    seed = solver_options(cfg)["seed"]
    s = cfg.get("scatter", {})
    payload = {"scattering_length": sig12(scattering_length(v))}
    scales = s.get("scales")
    if scales:
        payload["scaled"] = [
            {"scale": sig12(float(a)),
             "scattering_length": sig12(scattering_length(scale_potential(v, float(a))))}
            for a in scales
        ]
    write_json(os.path.join(outdir, "scatter.json"), payload, digest, seed)
    born_values = s.get("born_a_values")
    if born_values:
        if not isinstance(v, SoftShell):
            raise ConfigError("born_a_values requires a soft_shell potential")
        rows = born_check(v, [float(a) for a in born_values])
        write_csv(
            os.path.join(outdir, "born.csv"),
            ["a", "s_of_a", "rel_deviation"],
            [[sig12(a), sig12(sv), sig12(dev)] for a, sv, dev in rows],
            digest, seed,
        )
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="rotbec",
        description="Ground states of rotating dilute Bose gases: "
                    "GP/DM minimization, vortex diagnostics, many-body checks.",
    )
    parser.add_argument("subcommand",
                        choices=["gp-min", "dm-min", "sweep", "fock", "coherent", "scatter"])
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel sweep workers (default: ROTBEC_WORKERS or 1)")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    try:
        workers = args.workers
        if workers is None:
            try:
                workers = int(os.environ.get("ROTBEC_WORKERS", "1"))
            except ValueError as exc:
                raise ConfigError(f"ROTBEC_WORKERS is not an integer: {exc}") from exc
        cfg, digest = load_config(args.config)
        outdir = cfg.get("outputs", {}).get("directory", ".")
        os.makedirs(outdir, exist_ok=True)
        if args.verbose:
            print(f"rotbec {args.subcommand}: config {digest}, outputs in {outdir}",
                  file=sys.stderr)
        if args.subcommand == "gp-min":
            return cmd_gp_min(cfg, digest, outdir)
        if args.subcommand == "dm-min":
            return cmd_dm_min(cfg, digest, outdir)
        if args.subcommand == "sweep":
            return cmd_sweep(cfg, digest, outdir, workers)
        if args.subcommand == "fock":
            return cmd_fock(cfg, digest, outdir)
        if args.subcommand == "coherent":
            return cmd_coherent(cfg, digest, outdir)
        return cmd_scatter(cfg, digest, outdir)
    except ConfigError as exc:
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
