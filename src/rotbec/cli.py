"""Batch front end: JSON run configurations, subcommands, sweeps.

Every config value is read once, by the reader ``_SCHEMA`` names for it,
when the config is loaded.  Every output file embeds the configuration
hash and the seed, the writers round every float in JSON/CSV to 12
significant digits, and files are written atomically (temp + rename), so
a rerun with the same configuration reproduces outputs byte for byte.

Exit codes: 0 success, 2 configuration error, 3 no convergence,
4 unstable trap.
"""

import argparse
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, astuple, fields

import numpy as np

from . import diagnostics
from .dm import check_rank, minimize_dm
from .errors import ConfigError, InvalidState, NoConvergence, NonFiniteScatteringLength, Unstable
from .lattice import Grid, atomic_open, limit_threads, write_field_raw, write_field_text
from .manybody import ScanRow, coherent_state_checks, gp_limit_scan
from .model import HarmonicTrap, ModelSpec, QuarticTrap, RotationSpec, SampledTrap, per_axis
from .scatter import (
    GaussianBump,
    HardSphere,
    SoftShell,
    SquareWell,
    born_check,
    scale_potential,
    scattering_length,
)
from .sweep import solve_point


@contextmanager
def _reading(where):
    """Report a bad value met while reading ``where`` as a ConfigError (exit 2).

    Only conversions and input construction run inside, never a solve, so
    an error raised by a solver keeps its own exit code.
    """
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError, OSError) as exc:
        raise ConfigError(f"bad value in {where}: {type(exc).__name__}: {exc}") from exc


def _real(value):
    """A finite JSON number; an integer such as 2 is read as 2.0."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _integer(value):
    """A JSON integer, or a float with an integral value such as 2.0."""
    if not _real(value).is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _positive(value):
    """A finite JSON number above 0."""
    number = _real(value)
    if number <= 0:
        raise ValueError(f"expected a positive number, got {value!r}")
    return number


def _nonnegative(value):
    """A finite JSON number of at least 0."""
    number = _real(value)
    if number < 0:
        raise ValueError(f"expected a nonnegative number, got {value!r}")
    return number


def _at_least(low):
    """A reader for an integer (see ``_integer``) of at least ``low``."""
    def read_at_least(value):
        number = _integer(value)
        if number < low:
            raise ValueError(f"expected an integer of at least {low}, got {value!r}")
        return number
    return read_at_least


def _flag(value):
    """JSON true or false."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _string(value):
    """A JSON string."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _list(read, length=None):
    """A reader for a JSON list (of ``length`` entries, if given) of ``read`` values."""
    def read_list(value):
        if not isinstance(value, list) or length not in (None, len(value)):
            entries = f" of {length} entries" if length else ""
            raise TypeError(f"expected a list{entries}, got {value!r}")
        return tuple(read(v) for v in value)
    return read_list


def _one_or_list(read):
    """A reader for a list of ``read`` values, or for one value, read as a 1-tuple."""
    read_list = _list(read)
    return lambda value: read_list(value) if isinstance(value, list) else (read(value),)


def _kind(table):
    """A reader for an object with a ``kind`` from ``table`` and exactly its keys.

    Returns {"kind": kind, key: value, ...}, each value read by the kind's reader.
    """
    def read_kind(value):
        kind = value.get("kind") if isinstance(value, dict) else None
        if not isinstance(kind, str) or kind not in table:
            raise ValueError(f"expected an object with kind in {sorted(table)}, got {value!r}")
        readers = table[kind][1]
        if set(value) != {"kind", *readers}:
            raise ValueError(f"kind {kind!r} takes the keys {sorted({'kind', *readers})}")
        return {"kind": kind, **{key: read(value[key]) for key, read in readers.items()}}
    return read_kind


def _sampled_trap(grid, path):
    """A SampledTrap from a whitespace table with one row per line along the
    grid's last axis, in C order: shape (prod(points[:-1]), points[-1])."""
    table = np.loadtxt(path, ndmin=2)
    layout = (math.prod(grid.points[:-1]), grid.points[-1])
    if table.shape != layout:
        raise ValueError(f"{path} holds a {table.shape[0]}x{table.shape[1]} table; "
                         f"the grid needs {layout[0]}x{layout[1]}")
    return SampledTrap(table.reshape(grid.shape))


# kind -> (constructor, {argument key: reader}); a trap's constructor takes the grid first
_TRAPS = {
    "harmonic": (lambda grid, nu: HarmonicTrap(nu), {"nu": _one_or_list(_real)}),
    "quartic": (lambda grid, nu, lam: QuarticTrap(nu, lam),
                {"nu": _one_or_list(_real), "lambda": _real}),
    "sampled": (_sampled_trap, {"values_file": _string}),
}
_POTENTIALS = {
    "hard_sphere": (HardSphere, {"radius": _real}),
    "square_well": (SquareWell, {"depth": _real, "radius": _real}),
    "gaussian": (GaussianBump, {"amplitude": _real, "width": _real}),
    "soft_shell": (SoftShell, {"r_inner": _real, "r_outer": _real}),
}
# section -> key -> (reader, default); a key without a default (None) is
# absent unless given, and the subcommands that need it say so
_SCHEMA = {
    "model": {"dim": (_integer, None), "half_width": (_one_or_list(_real), None),
              "points": (_one_or_list(_integer), None), "trap": (_kind(_TRAPS), None),
              "omega": (_one_or_list(_real), None), "g": (_real, None)},
    "solver": {"tol": (_positive, 1e-8), "max_iter": (_at_least(1), 200000),
               "restarts": (_at_least(0), 4), "seed": (_at_least(0), 0)},
    "sweep": {"parameter": (_string, None), "values": (_list(_real), None)},
    "outputs": {"directory": (_string, "."), "emit_fields": (_flag, False),
                "emit_images": (_flag, False)},
    "dm": {"rank": (_integer, 2)},
    "fock": {"modes": (_integer, 4), "g": (_real, 0.5),
             "n_values": (_list(_integer), (2, 4, 6, 8)), "pair": (_string, "delta"),
             "with_absolute": (_flag, False)},
    "coherent": {"truncation": (_integer, 64), "z": (_list(_real, 2), (1.0, 1.0)),
                 "quad_radius": (_real, 8.0), "n_max": (_integer, 8),
                 "radial_points": (_integer, 128), "angular_points": (_integer, 256)},
    "scatter": {"potential": (_kind(_POTENTIALS), None), "scales": (_list(_real), ()),
                "born_a_values": (_list(_nonnegative), ())},
}


def load_config(path):
    """Read the JSON config at ``path``; returns (config, hash).

    Every value given is read by its schema reader and every absent key with
    a default gets it, so a bad value fails here, before any solve.
    """
    try:
        with open(path) as fh:
            given = json.loads(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(given, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(given) - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown keys in config: {sorted(unknown)}")
    cfg = {}
    for section, schema in _SCHEMA.items():
        values = given.get(section, {})
        if not isinstance(values, dict):
            raise ConfigError(f"section {section!r} must be an object")
        unknown = set(values) - set(schema)
        if unknown:
            raise ConfigError(f"unknown keys in {section}: {sorted(unknown)}")
        cfg[section] = {}
        for key, (read, default) in schema.items():
            if key in values:
                with _reading(f"{section}.{key}"):
                    cfg[section][key] = read(values[key])
            elif default is not None:
                cfg[section][key] = default
    # outputs decides where files go and which are written, never their
    # contents, so it stays out of the hash
    hashed = {k: v for k, v in given.items() if k != "outputs"}
    digest = hashlib.sha256(
        json.dumps(hashed, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]
    return cfg, digest


def build_model(m):
    """The ModelSpec of a read ``model`` section."""
    with _reading("model"):
        dim = m["dim"]
        grid = Grid(per_axis(m["half_width"], dim, "half widths"),
                    per_axis(m["points"], dim, "point counts"))
        make_trap, keys = _TRAPS[m["trap"]["kind"]]
        trap = make_trap(grid, *(m["trap"][k] for k in keys))
        return ModelSpec(grid, trap, RotationSpec(m["omega"]), m["g"])


def _rounded(value):
    """``value`` with every float in it, at any depth, rounded to 12 significant digits."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(v) for v in value]
    return value


def write_json(path, payload, digest, seed):
    payload = _rounded({**payload, "config_hash": digest, "seed": seed})
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


def _emit_field_artifacts(outdir, stem, phi, cfg, digest):
    seed = cfg["solver"]["seed"]
    stamp = f"config_hash={digest} seed={seed}"
    if cfg["outputs"]["emit_fields"]:
        write_field_text(os.path.join(outdir, stem + ".csv"), phi, extra=stamp)
        write_field_raw(os.path.join(outdir, stem + ".raw"), phi, extra=stamp)
    if cfg["outputs"]["emit_images"] and phi.grid.dim == 2:
        dens = phi.values.real**2 + phi.values.imag**2
        diagnostics.write_pgm(os.path.join(outdir, stem + "_density.pgm"), dens,
                              comment=stamp)
        diagnostics.write_pgm(
            os.path.join(outdir, stem + "_phase.pgm"), np.angle(phi.values),
            kind="phase", comment=stamp,
        )


def cmd_gp_min(cfg, digest, outdir, workers):
    opts = cfg["solver"]
    point = solve_point(build_model(cfg["model"]), (), None, **opts)  # no DM ranks, no DM tol
    best, report = point.best, point.vortices
    payload = {"energy": best.energy, "mu": best.mu, "breakdown": asdict(best.breakdown),
               "residual": best.residual, "iterations": best.iterations,
               "restarts_used": best.restarts_used, "vortex_count": report.count,
               "total_winding": report.total_winding, "Lz": report.Lz_expectation}
    if point.s_metric is not None:
        payload["s_metric"] = point.s_metric
    write_json(os.path.join(outdir, "gp_result.json"), payload, digest, opts["seed"])
    _emit_field_artifacts(outdir, "gp_phi", best.phi, cfg, digest)
    return 0


def cmd_dm_min(cfg, digest, outdir, workers):
    opts = cfg["solver"]
    result = minimize_dm(build_model(cfg["model"]), cfg["dm"]["rank"], **opts)
    payload = {
        "energy": result.energy,
        "weights": list(result.state.weights),
        "orbital_h0": list(result.orbital_energies),
        "residual": result.residual,
        "iterations": result.iterations,
        "restarts_used": result.restarts_used,
    }
    write_json(os.path.join(outdir, "dm_result.json"), payload, digest, opts["seed"])
    for i, phi in enumerate(result.state.orbitals):
        _emit_field_artifacts(outdir, f"dm_orbital_{i}", phi, cfg, digest)
    return 0


def _point_model(job):
    """The model of one (cfg, parameter, value) sweep job.

    An ``omega_z`` value replaces the last component of the base omega, so a
    tilted base rotation keeps its in-plane components.
    """
    cfg, parameter, value = job
    if parameter == "g":
        return build_model({**cfg["model"], "g": value})
    omega = cfg["model"].get("omega", (0.0,))
    return build_model({**cfg["model"], "omega": omega[:-1] + (value,)})


def sweep_point(job):
    """One (cfg, parameter, value) sweep job: GP minimization, diagnostics, DM gap.

    Returns the job's ``sweep.csv`` row.
    """
    cfg, value = job[0], job[2]
    opts = cfg["solver"]
    point = solve_point(_point_model(job), (cfg["dm"]["rank"],), max(opts["tol"], 1e-7),
                        **opts)
    best, report, (dm_result,) = point.best, point.vortices, point.dm
    return [value, best.energy, best.mu, report.count, report.total_winding,
            report.Lz_expectation, point.s_metric, point.clusters.n_distinct_minimizers,
            dm_result.energy, dm_result.energy - best.energy]


def cmd_sweep(cfg, digest, outdir, workers):
    parameter, values = cfg["sweep"].get("parameter"), cfg["sweep"].get("values")
    if parameter not in ("g", "omega_z") or not values:
        raise ConfigError("sweep needs parameter 'g' or 'omega_z' and a nonempty values list")
    jobs = [(cfg, parameter, v) for v in values]
    # a bad rank or a bad model at any point fails here, before the first
    # solve; the points rebuild their models, so no spec outlives its point
    check_rank(cfg["dm"]["rank"])
    for job in jobs:
        _point_model(job)
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
    write_csv(os.path.join(outdir, "sweep.csv"), header, rows, digest, cfg["solver"]["seed"])
    return 0


def cmd_fock(cfg, digest, outdir, workers):
    f = cfg["fock"]
    rows = gp_limit_scan(build_model(cfg["model"]), f["modes"], f["g"], f["n_values"],
                         pair_kind=f["pair"], with_absolute=f["with_absolute"])
    write_csv(os.path.join(outdir, "fock.csv"), [fl.name for fl in fields(ScanRow)],
              [astuple(r) for r in rows], digest, cfg["solver"]["seed"])
    return 0


def cmd_coherent(cfg, digest, outdir, workers):
    c = cfg["coherent"]
    # coherent_state_checks checks its inputs, then runs closed-form
    # quadratures (no solve), so a ValueError from it is a bad value
    with _reading("coherent"):
        report = coherent_state_checks(
            D=c["truncation"], z=complex(*c["z"]), Z=c["quad_radius"], n_max=c["n_max"],
            radial_points=c["radial_points"], angular_points=c["angular_points"],
        )
    write_json(os.path.join(outdir, "coherent.json"), asdict(report), digest,
               cfg["solver"]["seed"])
    return 0


def cmd_scatter(cfg, digest, outdir, workers):
    s, seed = cfg["scatter"], cfg["solver"]["seed"]
    if "potential" not in s:
        raise ConfigError("scatter subcommand needs scatter.potential")
    with _reading("scatter"):
        make_potential, keys = _POTENTIALS[s["potential"]["kind"]]
        v = make_potential(*(s["potential"][k] for k in keys))
        scaled = [(a, scale_potential(v, a)) for a in s["scales"]]
    if s["born_a_values"] and not isinstance(v, SoftShell):
        raise ConfigError("born_a_values requires a soft_shell potential")
    payload = {"scattering_length": scattering_length(v)}
    if scaled:
        payload["scaled"] = [{"scale": a, "scattering_length": scattering_length(va)}
                             for a, va in scaled]
    write_json(os.path.join(outdir, "scatter.json"), payload, digest, seed)
    if s["born_a_values"]:
        write_csv(os.path.join(outdir, "born.csv"), ["a", "s_of_a", "rel_deviation"],
                  born_check(v, s["born_a_values"]), digest, seed)
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
        if workers < 1:
            raise ConfigError(f"the worker count must be at least 1, got {workers}")
        cfg, digest = load_config(args.config)
        outdir = cfg["outputs"]["directory"]
        with _reading("outputs.directory"):
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
