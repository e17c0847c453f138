"""Byte identity of every file the command line writes.

Each case runs one subcommand on a small configuration (32^2 or less,
fields and images on) and compares the sha256 of every file in its output
directory with a pinned digest.  A change to how values are read, how
payloads are built or how numbers are rounded must leave these bytes alone.
"""

import hashlib
import json

import numpy as np
import pytest

from rotbec.cli import main

_HARMONIC = {"dim": 2, "half_width": 7.0, "points": 32,
             "trap": {"kind": "harmonic", "nu": [1.0, 1.0]}, "omega": 0.5, "g": 4.0}
_SOLVER = {"tol": 1e-7, "max_iter": 6000, "restarts": 1, "seed": 7}
# the sampled case's values file, written by the test into the working
# directory under this relative name, so that the config hash is fixed
_SAMPLED_FILE = "sampled_trap.txt"


def write_sampled_trap(directory):
    """V = r^2 + 0.05 r^4 at the cell centres of _HARMONIC's 32^2 grid on [-7, 7)^2."""
    x = -7.0 + (np.arange(32) + 0.5) * (14.0 / 32)
    r2 = x[:, None] ** 2 + x[None, :] ** 2
    np.savetxt(directory / _SAMPLED_FILE, r2 + 0.05 * r2**2, fmt="%.17g")


CASES = {
    "gp-min-2d-vortex": ("gp-min", {"model": {**_HARMONIC, "omega": 0.8, "g": 15.0},
                                    "solver": _SOLVER}),
    "gp-min-3d-quartic": ("gp-min", {
        "model": {"dim": 3, "half_width": 6.0, "points": 16,
                  "trap": {"kind": "quartic", "nu": 1.0, "lambda": 0.1},
                  "omega": [0.0, 0.0, 0.3], "g": 2.0},
        "solver": _SOLVER}),
    # rotating, so the sampled trap's boundary-shell test runs
    "gp-min-2d-sampled": ("gp-min", {
        "model": {**_HARMONIC, "trap": {"kind": "sampled", "values_file": _SAMPLED_FILE}},
        "solver": _SOLVER}),
    # a rotation axis that is no grid axis
    "gp-min-3d-tilted": ("gp-min", {
        "model": {"dim": 3, "half_width": 6.0, "points": 16,
                  "trap": {"kind": "harmonic", "nu": 1.0},
                  "omega": [0.3, 0.0, 0.5], "g": 2.0},
        "solver": _SOLVER}),
    "dm-min": ("dm-min", {"model": _HARMONIC, "solver": _SOLVER, "dm": {"rank": 2}}),
    "sweep-g": ("sweep", {"model": {**_HARMONIC, "points": 24}, "solver": _SOLVER,
                          "sweep": {"parameter": "g", "values": [0.0, 3.0]},
                          "dm": {"rank": 2}}),
    "sweep-omega": ("sweep", {"model": {**_HARMONIC, "points": 24}, "solver": _SOLVER,
                              "sweep": {"parameter": "omega_z", "values": [0.0, 0.6]},
                              "dm": {"rank": 1}}),
    "fock": ("fock", {"model": {**_HARMONIC, "omega": 0.0, "g": 0.0},
                      "fock": {"modes": 3, "g": 0.5, "n_values": [2, 3],
                               "with_absolute": True}}),
    "coherent": ("coherent", {"coherent": {"truncation": 48, "z": [0.5, -1.0],
                                           "quad_radius": 7.0, "n_max": 6}}),
    "scatter": ("scatter", {"scatter": {
        "potential": {"kind": "soft_shell", "r_inner": 0.5, "r_outer": 1.0},
        "scales": [0.5, 2.0], "born_a_values": [0.1, 0.05]}}),
}

PINS = {
    "coherent": {
        "coherent.json":
            "a2aaf8c71a4cdb61c2b49b8b5151aea016323c2494db59ddc008755cb190e657",
    },
    "dm-min": {
        "dm_orbital_0.csv":
            "5f9444144aab235c1a0c4b5bac24c4ee9c6964bc3cebb55d3d07616586fa3620",
        "dm_orbital_0.raw":
            "9748b74ddb608cecddbcb3eccce56a8f95fd9e9fc9da0d5718dda8affd75fac3",
        "dm_orbital_0.raw.hdr":
            "54124c8840abe1b749ef4cde2a30e06af8b2e9f009d8e81c3bb9fcd4da035146",
        "dm_orbital_0_density.pgm":
            "204f78586e6f22a5f1acea912960100d162af34e5ef26b2dcda6157e01b38399",
        "dm_orbital_0_phase.pgm":
            "02a51b45e58294f9ac06a7e41826b9769af779b895d56c943f27df5fd70eeee6",
        "dm_orbital_1.csv":
            "cbcacf95d9d8ac4d3b1dc075eb611ea0b26f603c62814648b5897eb4788020ea",
        "dm_orbital_1.raw":
            "03e9fe473efc8f1e9d228eb29587661f754966b339bb0cbed13ff1d37ca1ae9d",
        "dm_orbital_1.raw.hdr":
            "54124c8840abe1b749ef4cde2a30e06af8b2e9f009d8e81c3bb9fcd4da035146",
        "dm_orbital_1_density.pgm":
            "70400edd3bf992cdf881839e59f997b2943cfb00c319ed03ee147858d500769b",
        "dm_orbital_1_phase.pgm":
            "ec85ec44d8978e0ba37d13c3a2c4878ee5cf7a6f2e6031b77288b8a8737de609",
        "dm_result.json":
            "06e1f40747d80a9331b407a0a5a132da52566750ac220fa74dc0fb5337df20c0",
    },
    "fock": {
        "fock.csv":
            "7d7d9caede16b5e856353b2ae848d95ed533a082b0557c6b000f947f85adf731",
    },
    "gp-min-2d-vortex": {
        "gp_phi.csv":
            "459caf072ae4d09a229e710f707b5486ac37bff9ef66aeb41b0f6cc45196a905",
        "gp_phi.raw":
            "e52f9bd1fb289a868db2a4e0df453839a701a23bd1c0bf62dae64fb2ac845e0d",
        "gp_phi.raw.hdr":
            "97e77f5d20bedc4c8dd50a636e7e20241e000a9583c9f0703789c0f34bfb16d5",
        "gp_phi_density.pgm":
            "cc78a463b80347d8168f6d21eb7d02c8f88ffea23ad40077b8e01598be86a97a",
        "gp_phi_phase.pgm":
            "bd756a0bfb27a632ceafbf4b160039b053b54eb63dc546052dcae79648e6b486",
        "gp_result.json":
            "88d93d442decd08fe274fefa288724b5a120fdf6aea2b512bf850ab41858e53d",
    },
    "gp-min-2d-sampled": {
        "gp_phi.csv":
            "047bff6c5d907eb5054fe35648741e217d9b2feeee7985b1e6e9bb71a5f7179f",
        "gp_phi.raw":
            "db657c8dd7d64ef83dc9d472747521b8c97791eae08b820d3655585beb545bd3",
        "gp_phi.raw.hdr":
            "05f457c91e085e26354e8666fe3e987b238293e4f1b6c876dd40b6f85228fbe9",
        "gp_phi_density.pgm":
            "d7cf9816cc49d351b179d2945e88506c8b35f7fae96481cbdbb43b4392bf64a5",
        "gp_phi_phase.pgm":
            "56d71a25bff3daebf2fcb7f8fd059b7b6c71a809258c60999df38c2617b70341",
        "gp_result.json":
            "7bf7f92b094b372ee91af97721c7396900de0eba94738298acb436702576c2a5",
    },
    "gp-min-3d-quartic": {
        "gp_phi.csv":
            "967dc55c03e336c8a3f86e3fc54735246e23c8681dd2e07d52aec7e8af7221c7",
        "gp_phi.raw":
            "84f4a92f1782f3482e6201763b567041deb28acb08d83a3368afa8e5cf3c0fc6",
        "gp_phi.raw.hdr":
            "139af4e3a4d636fe8197ad433142ece55dbfdf0d8c4e1738316daea276d9a328",
        "gp_result.json":
            "d05b60bf458c02b5bafd2af8bf118543f3c6d429ede245f337a957bb009aea68",
    },
    "gp-min-3d-tilted": {
        "gp_phi.csv":
            "e5dd11450bb93e2e6c85add52fda5f3bb4dade9d60dbacb5ae78224f5459d252",
        "gp_phi.raw":
            "f733ec24972dc661ceb5fff00af2e2d83a9c2ec60caeda790ebeb65f08ad5fcf",
        "gp_phi.raw.hdr":
            "a2145a0a5acf4807bfc52200a2a096d77c77693fe374ccdc4ea4c8a4a64a34d5",
        "gp_result.json":
            "a379a67c583e59e008434d72f1442d258635f86766502f6f1ab3d606e3176e84",
    },
    "scatter": {
        "born.csv":
            "c5a5b0656469099b21f9a2eb97800b1f326fbaf7f919ccfd60107e2e2c9902e5",
        "scatter.json":
            "85407f08ed64b3b87a9d995620859091138abda251c0bf9b6f350d6872795f1e",
    },
    "sweep-g": {
        "sweep.csv":
            "650fe10b4338de319cfdef2a4cde99bebbc20fb27f71717beeb693560b05f1d5",
    },
    "sweep-omega": {
        "sweep.csv":
            "752bd962c3d61def4e4ab12b0f84f2eaeb97b322ae5a9565620116470683b743",
    },
}


def run_case(name, outdir):
    """Run one case into ``outdir``; returns {file name: sha256}."""
    subcommand, cfg = CASES[name]
    cfg = {**cfg, "outputs": {"directory": str(outdir), "emit_fields": True,
                              "emit_images": True}}
    path = outdir.parent / f"{name}.json"
    path.write_text(json.dumps(cfg))
    assert main([subcommand, "--config", str(path), "--workers", "1"]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir())}


@pytest.mark.parametrize("name", list(CASES))
def test_outputs_are_byte_identical(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    write_sampled_trap(tmp_path)
    assert run_case(name, tmp_path / "out") == PINS[name]
