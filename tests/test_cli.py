import json
import math
import subprocess
import sys

import numpy as np
import pytest

import rotbec.cli
import rotbec.scatter
import rotbec.sweep
from rotbec.cli import load_config, main
from rotbec.errors import ConfigError
from rotbec.lattice import read_field_raw, read_field_text
from conftest import stopping_halfway


def write_config(path, **overrides):
    cfg = {
        "model": {
            "dim": 2,
            "half_width": 8.0,
            "points": 32,
            "trap": {"kind": "harmonic", "nu": [1.0, 1.0]},
            "omega": 0.0,
            "g": 0.0,
        },
        "solver": {"tol": 1e-8, "max_iter": 5000, "restarts": 1, "seed": 3},
        "outputs": {"directory": str(path.parent / "out")},
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in cfg:
            cfg[key].update(value)
        else:
            cfg[key] = value
    path.write_text(json.dumps(cfg))
    return cfg


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    cfg = write_config(path)
    cfg["solver"]["typo_key"] = 1
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError):
        load_config(path)
    assert main(["gp-min", "--config", str(path)]) == 2


@pytest.mark.parametrize("trap", [{"kind": "harmonic", "nu": [1.0, 1.0]},
                                  {"kind": "quartic", "nu": [1.0, 1.0], "lambda": 0.1}])
def test_frequency_count_mismatch_is_config_error(tmp_path, trap):
    path = tmp_path / "cfg.json"
    write_config(path, model={"dim": 3, "points": 16, "trap": trap})
    assert main(["gp-min", "--config", str(path)]) == 2


_HARMONIC_16 = {"dim": 2, "half_width": 6.0, "points": 16,
                "trap": {"kind": "harmonic", "nu": [1.0, 1.0]}, "omega": 0.0, "g": 0.0}
_SOFT_SHELL = {"kind": "soft_shell", "r_inner": 0.5, "r_outer": 1.0}


@pytest.mark.parametrize("subcommand, overrides", [
    ("gp-min", {"model": {"trap": "harmonic"}}),
    ("gp-min", {"model": {"trap": {"kind": "sampled", "values_file": "no/such/file.txt"}}}),
    ("scatter", {"scatter": {"potential": {"kind": "hard_sphere"}}}),
    ("scatter", {"scatter": {"potential": {"kind": "soft_shell", "r_inner": 1.0,
                                           "r_outer": 1.0}}}),
    ("fock", {"model": _HARMONIC_16, "fock": {"modes": 2, "n_values": [1]}}),
    ("fock", {"model": _HARMONIC_16, "fock": {"modes": 7, "n_values": [2]}}),
    ("coherent", {"coherent": {"truncation": 8}}),
    ("gp-min", {"solver": {"restarts": "x"}}),
    ("dm-min", {"dm": {"rank": 9}}),
    ("sweep", {"sweep": {"parameter": "g", "values": ["a"]}}),
    ("scatter", {"scatter": {"potential": _SOFT_SHELL, "scales": [-1]}}),
    ("scatter", {"scatter": {"potential": {"kind": "square_well", "depth": -math.pi**2 / 2,
                                           "radius": 1.0}}}),
    ("gp-min", {"model": {"omega": [0.7, 0.0, 0.0]}}),
    ("fock", {"model": _HARMONIC_16, "fock": {"modes": 2, "n_values": [2], "pair": "dipole"}}),
    ("fock", {"model": _HARMONIC_16, "fock": {"modes": 0, "n_values": [2]}}),
    ("coherent", {"coherent": {"radial_points": 0}}),
    ("scatter", {"scatter": {"potential": {"kind": "hard_sphere", "radius": -1.0}}}),
    ("scatter", {"scatter": {"potential": {"kind": "gaussian", "amplitude": 1.0,
                                           "width": 0.0}}}),
    ("scatter", {"scatter": {"potential": {"kind": "square_well", "depth": 1.0,
                                           "radius": 0.0}}}),
    ("fock", {"model": _HARMONIC_16, "fock": {"modes": 2, "n_values": [2],
                                              "with_absolute": "false"}}),
    ("gp-min", {"outputs": {"emit_fields": "yes"}}),
    ("dm-min", {"dm": {"rank": 2.7}}),
    ("dm-min", {"dm": {"rank": "2"}}),
    ("gp-min", {"solver": {"max_iter": True}}),
    ("gp-min", {"solver": {"restarts": math.inf}}),
    ("gp-min", {"solver": {"seed": math.nan}}),
    ("gp-min", {"model": {"dim": 2.5}}),
    ("gp-min", {"model": {"points": 32.5}}),
    ("fock", {"model": _HARMONIC_16, "fock": {"modes": 2, "n_values": [2.5]}}),
    ("coherent", {"coherent": {"n_max": True}}),
    ("scatter", {"scatter": {"potential": {"kind": "square_well", "depth": -1.0,
                                           "radius": 1.0}, "scales": [1e-200]}}),
    ("scatter", {"scatter": {"potential": {"kind": "gaussian", "amplitude": 1.0,
                                           "width": 1.0}, "scales": [1e200]}}),
    ("scatter", {"scatter": {"potential": _SOFT_SHELL, "scales": [1e-200]}}),
    ("gp-min", {"model": {"g": True}}),
    ("gp-min", {"model": {"g": math.inf}}),
    ("gp-min", {"model": {"half_width": True}}),
    ("gp-min", {"model": {"omega": "0.5"}}),
    ("gp-min", {"model": {"omega": math.nan}}),
    ("gp-min", {"model": {"trap": {"kind": "harmonic", "nu": [True, True]}}}),
    ("gp-min", {"model": {"trap": {"kind": "quartic", "nu": 1.0, "lambda": "0.1"}}}),
    ("gp-min", {"solver": {"tol": "1e-8"}}),
    ("gp-min", {"solver": {"tol": math.nan}}),
    ("gp-min", {"solver": {"tol": 0.0}}),
    ("gp-min", {"solver": {"tol": -1.0}}),
    ("gp-min", {"solver": {"max_iter": 0}}),
    ("gp-min", {"solver": {"max_iter": -5}}),
    ("gp-min", {"solver": {"restarts": -2}}),
    ("gp-min", {"solver": {"seed": -1}}),
    ("sweep", {"sweep": {"parameter": "g", "values": [True]}}),
    ("fock", {"model": _HARMONIC_16, "fock": {"modes": 2, "g": "0.5", "n_values": [2]}}),
    ("coherent", {"coherent": {"z": ["1", "1"]}}),
    ("coherent", {"coherent": {"z": [1.0, 1.0, 1.0]}}),
    ("coherent", {"coherent": {"quad_radius": "8"}}),
    ("scatter", {"scatter": {"potential": {"kind": "hard_sphere", "radius": "0.7"}}}),
    ("scatter", {"scatter": {"potential": _SOFT_SHELL, "scales": ["2"]}}),
    ("scatter", {"scatter": {"potential": _SOFT_SHELL, "scales": None}}),
    ("scatter", {"scatter": {"potential": _SOFT_SHELL, "born_a_values": [True]}}),
    ("gp-min", {"model": {"dim": 3, "half_width": [6.0, 6.0], "points": [16, 16]}}),
    ("gp-min", {"model": {"dim": 2, "half_width": [6.0, 6.0, 6.0], "points": [16, 16, 16],
                          "trap": {"kind": "harmonic", "nu": 1.0}}}),
], ids=["trap-not-object", "sampled-file-missing", "hard-sphere-no-radius",
        "soft-shell-empty", "fock-N-1", "fock-M-7", "coherent-D-8", "restarts-not-int",
        "dm-rank-9", "sweep-value-not-number", "scale-negative", "square-well-resonance",
        "in-plane-omega-2d", "fock-pair-unknown", "fock-M-0",
        "coherent-no-radial-points", "hard-sphere-negative-radius", "gaussian-zero-width",
        "square-well-zero-radius", "fock-absolute-string", "emit-fields-string",
        "dm-rank-fraction", "dm-rank-string", "max-iter-true", "restarts-infinite",
        "seed-nan", "dim-fraction", "points-fraction", "fock-N-fraction", "coherent-n-max-true",
        "square-well-scale-underflow", "gaussian-scale-overflow", "soft-shell-scale-underflow",
        "g-true", "g-infinite", "half-width-true", "omega-string", "omega-nan", "nu-true",
        "lambda-string", "tol-string", "tol-nan", "tol-zero", "tol-negative", "max-iter-zero",
        "max-iter-negative", "restarts-negative", "seed-negative", "sweep-value-true",
        "fock-g-string",
        "coherent-z-strings", "coherent-z-three-entries", "quad-radius-string",
        "potential-radius-string", "scale-string", "scales-null", "born-a-true",
        "dim-3-two-entry-lists", "dim-2-three-entry-lists"])
def test_bad_value_exits_2_with_one_line(tmp_path, capsys, subcommand, overrides):
    path = tmp_path / "cfg.json"
    write_config(path, **overrides)
    assert main([subcommand, "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("rotbec: config error: "), err


def test_integer_options_take_integral_floats(tmp_path):
    path = tmp_path / "cfg.json"
    write_config(path, model={"dim": 2.0},
                 solver={"tol": 1e-8, "max_iter": 5000.0, "restarts": 1.0, "seed": 3.0})
    assert main(["gp-min", "--config", str(path)]) == 0


def test_integer_values_read_as_reals(tmp_path):
    """A JSON integer where a real is expected gives the bytes of the same float."""
    outputs = []
    for g, half_width, omega in [(2, [6, 6], 0), (2.0, [6.0, 6.0], 0.0)]:
        path = tmp_path / "cfg.json"
        outdir = tmp_path / f"out-{type(g).__name__}"
        write_config(path, model={"g": g, "half_width": half_width, "omega": omega},
                     outputs={"directory": str(outdir), "emit_fields": True})
        assert main(["gp-min", "--config", str(path)]) == 0
        digest = load_config(path)[1].encode()
        outputs.append({p.name: p.read_bytes().replace(digest, b"HASH")
                        for p in sorted(outdir.iterdir())})
    assert len(outputs[0]) == 4 and outputs[0] == outputs[1]


def test_solver_value_error_is_not_a_config_error(tmp_path, monkeypatch):
    def failing(*args, **kwargs):
        raise ValueError("inside the solve")

    monkeypatch.setattr(rotbec.sweep, "minimize_gp_family", failing)
    path = tmp_path / "cfg.json"
    write_config(path)
    with pytest.raises(ValueError, match="inside the solve"):
        main(["gp-min", "--config", str(path)])


def test_sampled_trap_runs(tmp_path):
    values = tmp_path / "trap.txt"
    x = (np.arange(32) + 0.5) * 0.5 - 8.0
    np.savetxt(values, x[:, None] ** 2 + x[None, :] ** 2)
    path = tmp_path / "cfg.json"
    write_config(path, model={"trap": {"kind": "sampled", "values_file": str(values)}})
    assert main(["gp-min", "--config", str(path)]) == 0
    payload = json.loads((tmp_path / "out" / "gp_result.json").read_text())
    assert abs(payload["energy"] - 2.0) < 1e-6


def test_sampled_trap_file_must_match_grid_layout(tmp_path, capsys):
    # 1024 values, but 16 rows of 64 where the 32^2 grid needs 32 rows of 32
    values = tmp_path / "trap.txt"
    np.savetxt(values, np.ones((16, 64)))
    path = tmp_path / "cfg.json"
    write_config(path, model={"trap": {"kind": "sampled", "values_file": str(values)}})
    assert main(["gp-min", "--config", str(path)]) == 2
    assert "16x64" in capsys.readouterr().err


def test_sampled_trap_runs_in_3d(tmp_path):
    # one row per line along the last axis: 8*8 rows of 8 values
    x = (np.arange(8) + 0.5) * 1.5 - 6.0
    r2 = x[:, None, None] ** 2 + x[None, :, None] ** 2 + x[None, None, :] ** 2
    values = tmp_path / "trap.txt"
    np.savetxt(values, r2.reshape(64, 8), fmt="%.17g")
    path = tmp_path / "cfg.json"
    write_config(path, model={"dim": 3, "half_width": 6.0, "points": 8,
                              "trap": {"kind": "sampled", "values_file": str(values)}})
    assert main(["gp-min", "--config", str(path)]) == 0
    payload = json.loads((tmp_path / "out" / "gp_result.json").read_text())
    harmonic = tmp_path / "harmonic.json"
    write_config(harmonic, model={"dim": 3, "half_width": 6.0, "points": 8,
                                  "trap": {"kind": "harmonic", "nu": 1.0}},
                 outputs={"directory": str(tmp_path / "harmonic")})
    assert main(["gp-min", "--config", str(harmonic)]) == 0
    want = json.loads((tmp_path / "harmonic" / "gp_result.json").read_text())
    assert payload["energy"] == want["energy"]


def test_sampled_trap_on_an_oblong_grid_runs(tmp_path):
    # axes 0 and 1 differ in points: the trap cannot be certified
    # axisymmetric, so the result has no s_metric (and the solve ends)
    x = (np.arange(32) + 0.5) * (14.0 / 32) - 7.0
    y = (np.arange(24) + 0.5) * (12.0 / 24) - 6.0
    values = tmp_path / "trap.txt"
    np.savetxt(values, x[:, None] ** 2 + y[None, :] ** 2, fmt="%.17g")
    path = tmp_path / "cfg.json"
    write_config(path, model={"half_width": [7.0, 6.0], "points": [32, 24], "omega": 0.5,
                              "g": 4.0, "trap": {"kind": "sampled", "values_file": str(values)}})
    assert main(["gp-min", "--config", str(path)]) == 0
    payload = json.loads((tmp_path / "out" / "gp_result.json").read_text())
    assert "s_metric" not in payload


def test_config_hash_ignores_outputs(tmp_path):
    path = tmp_path / "cfg.json"
    write_config(path)
    _, digest = load_config(path)
    write_config(path, outputs={"directory": str(tmp_path / "elsewhere"), "emit_fields": True})
    assert load_config(path)[1] == digest
    write_config(path, model={"g": 1.0})
    assert load_config(path)[1] != digest


def test_missing_config_is_config_error(tmp_path):
    assert main(["gp-min", "--config", str(tmp_path / "nope.json")]) == 2


def test_gp_min_oscillator_3d(tmp_path):
    path = tmp_path / "cfg.json"
    write_config(
        path,
        model={"dim": 3, "half_width": 8.0, "points": 32,
               "trap": {"kind": "harmonic", "nu": [1.0, 1.0, 1.0]},
               "omega": 0.0, "g": 0.0},
        outputs={"directory": str(tmp_path / "out"), "emit_fields": True,
                 "emit_images": False},
    )
    assert main(["gp-min", "--config", str(path)]) == 0
    payload = json.loads((tmp_path / "out" / "gp_result.json").read_text())
    assert abs(payload["energy"] - 3.0) < 1e-8
    assert "config_hash" in payload and payload["seed"] == 3
    # field dumps round-trip and carry the stamp
    text_field = read_field_text(tmp_path / "out" / "gp_phi.csv")
    raw_field = read_field_raw(tmp_path / "out" / "gp_phi.raw")
    assert np.abs(text_field.values - raw_field.values).max() < 1e-12
    header = (tmp_path / "out" / "gp_phi.csv").read_text().splitlines()[0]
    assert "config_hash=" in header and "seed=" in header


def test_unstable_exit_code(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    write_config(path, model={"dim": 2, "half_width": 8.0, "points": 32,
                              "trap": {"kind": "harmonic", "nu": [1.0, 1.0]},
                              "omega": 2.5, "g": 0.0})
    assert main(["gp-min", "--config", str(path)]) == 4
    assert capsys.readouterr().err.splitlines() == [
        "rotbec: unstable trap: trap does not confine at Omega=(0.0, 0.0, 2.5) "
        "(witness (7.75, 0.0))"]


def test_no_convergence_exit_code(tmp_path):
    path = tmp_path / "cfg.json"
    write_config(path, model={"dim": 2, "half_width": 8.0, "points": 32,
                              "trap": {"kind": "harmonic", "nu": [1.0, 1.0]},
                              "omega": 0.4, "g": 5.0},
                 solver={"tol": 1e-12, "max_iter": 3, "restarts": 1, "seed": 0})
    assert main(["gp-min", "--config", str(path)]) == 3


def test_dm_min_json(tmp_path):
    path = tmp_path / "cfg.json"
    write_config(path, model={"dim": 2, "half_width": 8.0, "points": 32,
                              "trap": {"kind": "harmonic", "nu": [1.0, 1.0]},
                              "omega": 0.0, "g": 2.0},
                 dm={"rank": 2},
                 solver={"tol": 1e-6, "max_iter": 6000, "restarts": 1, "seed": 1})
    assert main(["dm-min", "--config", str(path)]) == 0
    payload = json.loads((tmp_path / "out" / "dm_result.json").read_text())
    assert len(payload["weights"]) == 2
    assert abs(sum(payload["weights"]) - 1.0) < 1e-9


def test_sweep_vortex_count_nondecreasing(tmp_path):
    path = tmp_path / "cfg.json"
    cfg = write_config(
        path,
        model={"dim": 2, "half_width": 8.0, "points": 64,
               "trap": {"kind": "harmonic", "nu": [1.0, 1.0]},
               "omega": 0.0, "g": 8.0},
        solver={"tol": 1e-7, "max_iter": 12000, "restarts": 2, "seed": 11},
        sweep={"parameter": "omega_z", "values": [0.0, 0.4, 0.8, 1.1]},
        dm={"rank": 2},
    )
    assert main(["sweep", "--config", str(path)]) == 0
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    counts = [int(r["vortex_count"]) for r in rows]
    assert counts[0] == 0
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    # DM never rises above GP anywhere on the sweep
    for r in rows:
        assert float(r["dm_gap"]) <= 1e-8


def test_sweep_parallel_workers_env(tmp_path):
    import os

    path = tmp_path / "cfg.json"
    write_config(
        path,
        model={"dim": 2, "half_width": 7.0, "points": 32,
               "trap": {"kind": "harmonic", "nu": [1.0, 1.0]},
               "omega": 0.0, "g": 2.0},
        solver={"tol": 1e-7, "max_iter": 5000, "restarts": 1, "seed": 5},
        sweep={"parameter": "g", "values": [0.0, 2.0]},
        dm={"rank": 2},
    )
    csv = tmp_path / "out" / "sweep.csv"
    assert main(["sweep", "--config", str(path), "--workers", "1"]) == 0
    serial = csv.read_bytes()
    csv.unlink()
    proc = subprocess.run(
        [sys.executable, "-m", "rotbec.cli", "sweep", "--config", str(path)],
        capture_output=True, text=True,
        env={**os.environ, "ROTBEC_WORKERS": "2"},
    )
    assert proc.returncode == 0, proc.stderr
    lines = csv.read_text().splitlines()
    assert len(lines) == 4  # stamp + header + two rows
    assert lines[2].split(",")[0] == "0"
    assert csv.read_bytes() == serial


def _two_point_sweep(tmp_path):
    path = tmp_path / "cfg.json"
    write_config(path, solver={"tol": 1e-7, "max_iter": 5000, "restarts": 0, "seed": 5},
                 sweep={"parameter": "g", "values": [0.0, 2.0]}, dm={"rank": 2})
    return path


@pytest.mark.parametrize("argv, env", [([], "two"), ([], "-1"), ([], "0"),
                                       (["--workers", "0"], None), (["--workers", "-3"], None)],
                         ids=["env-two", "env-minus-1", "env-0", "flag-0", "flag-minus-3"])
def test_bad_worker_count_is_config_error(tmp_path, monkeypatch, capsys, argv, env):
    if env is not None:
        monkeypatch.setenv("ROTBEC_WORKERS", env)
    assert main(["sweep", "--config", str(_two_point_sweep(tmp_path)), *argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("rotbec: config error: "), err


@pytest.mark.parametrize("values, rank", [([0.0, 2.0], 9), ([0.0, -1.0], 2)],
                         ids=["dm-rank-9", "negative-g-at-second-point"])
def test_sweep_checks_rank_and_every_point_before_solving(tmp_path, monkeypatch, capsys,
                                                          values, rank):
    calls = []
    monkeypatch.setattr(rotbec.sweep, "minimize_gp_family",
                        lambda *args, **kwargs: calls.append(args))
    path = tmp_path / "cfg.json"
    write_config(path, sweep={"parameter": "g", "values": values}, dm={"rank": rank})
    assert main(["sweep", "--config", str(path), "--workers", "1"]) == 2
    assert calls == []
    assert "config error" in capsys.readouterr().err


def test_sweep_pool_has_no_more_workers_than_points(tmp_path, monkeypatch):
    sizes = []

    class RecordingPool:
        """Runs the jobs in this process and records the pool size asked for."""

        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(rotbec.cli, "ProcessPoolExecutor", RecordingPool)
    assert main(["sweep", "--config", str(_two_point_sweep(tmp_path)), "--workers", "8"]) == 0
    assert sizes == [2]


def test_fock_csv(tmp_path):
    path = tmp_path / "cfg.json"
    write_config(path, model={"dim": 2, "half_width": 7.0, "points": 48,
                              "trap": {"kind": "harmonic", "nu": [1.0, 1.0]},
                              "omega": 0.0, "g": 0.0},
                 fock={"modes": 2, "g": 0.5, "n_values": [2, 3],
                       "with_absolute": True})
    assert main(["fock", "--config", str(path)]) == 0
    lines = (tmp_path / "out" / "fock.csv").read_text().splitlines()
    assert lines[1] == "N,a,E0_over_N,E_gp_truncated,condensate_fraction,E_abs"
    assert len(lines) == 4


def test_coherent_json(tmp_path):
    path = tmp_path / "cfg.json"
    write_config(path, coherent={"truncation": 64, "z": [1.0, 1.0],
                                 "quad_radius": 8.0, "n_max": 8})
    assert main(["coherent", "--config", str(path)]) == 0
    payload = json.loads((tmp_path / "out" / "coherent.json").read_text())
    assert payload["annihilation_error"] < 1e-10
    assert payload["completeness_error"] < 1e-3


def test_scatter_outputs(tmp_path):
    path = tmp_path / "cfg.json"
    write_config(path, scatter={"potential": {"kind": "soft_shell",
                                              "r_inner": 0.5, "r_outer": 1.0},
                                "scales": [0.5, 2.0],
                                "born_a_values": [0.1, 0.05]})
    assert main(["scatter", "--config", str(path)]) == 0
    payload = json.loads((tmp_path / "out" / "scatter.json").read_text())
    assert "scattering_length" in payload
    lines = (tmp_path / "out" / "born.csv").read_text().splitlines()
    assert lines[1] == "a,s_of_a,rel_deviation"


def test_scatter_no_convergence_exit_code(tmp_path, monkeypatch):
    monkeypatch.setattr(rotbec.scatter, "solve_ivp", stopping_halfway(rotbec.scatter.solve_ivp))
    path = tmp_path / "cfg.json"
    write_config(path, scatter={"potential": {"kind": "gaussian", "amplitude": 2.0,
                                              "width": 0.7}})
    assert main(["scatter", "--config", str(path)]) == 3


def test_console_entry_point(tmp_path):
    path = tmp_path / "cfg.json"
    write_config(path, scatter={"potential": {"kind": "hard_sphere", "radius": 0.7}})
    proc = subprocess.run(
        [sys.executable, "-m", "rotbec.cli", "scatter", "--config", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    payload = json.loads((tmp_path / "out" / "scatter.json").read_text())
    assert payload["scattering_length"] == 0.7
