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
            "fefa80a8bff04d50f889207e7c2f26cf0863d5caeb9699c8f77d3dbbf1e0d98f",
        "dm_orbital_0.raw":
            "43cc001d7985c484d2e3249bc23751b5d5d2b016ac3dfba79af937bd2af3fd18",
        "dm_orbital_0.raw.hdr":
            "54124c8840abe1b749ef4cde2a30e06af8b2e9f009d8e81c3bb9fcd4da035146",
        "dm_orbital_0_density.pgm":
            "204f78586e6f22a5f1acea912960100d162af34e5ef26b2dcda6157e01b38399",
        "dm_orbital_0_phase.pgm":
            "8f1d0a4892cb95d59f1f82a89d1ca04dfe3b8c7dc30315753412c0051a181ec6",
        "dm_orbital_1.csv":
            "67dac4bcee17299b673e1aa23636dab7b6a020564083c2c7f1de8479451ae050",
        "dm_orbital_1.raw":
            "0baa27ece82929dd645808861d1c533fbe468522f6e2a8f78e93af15f2c80cca",
        "dm_orbital_1.raw.hdr":
            "54124c8840abe1b749ef4cde2a30e06af8b2e9f009d8e81c3bb9fcd4da035146",
        "dm_orbital_1_density.pgm":
            "70400edd3bf992cdf881839e59f997b2943cfb00c319ed03ee147858d500769b",
        "dm_orbital_1_phase.pgm":
            "4a7f6c68fe5254f76cba8c12fe4e144126eddc8c8f8d8a60687c6af039dda8ce",
        "dm_result.json":
            "b83da0410ac601603fa055e33e49023a07351a3e06d00abbb54744d8c8df01bb",
    },
    "fock": {
        "fock.csv":
            "7d7d9caede16b5e856353b2ae848d95ed533a082b0557c6b000f947f85adf731",
    },
    "gp-min-2d-vortex": {
        "gp_phi.csv":
            "e06d6670789f39d55dfedcf5b5c3ce503922efdde15699ffee9e36e6d24d521e",
        "gp_phi.raw":
            "dde2a6d3d73a6515662a77aa997fc61f4b7bcd98846560a3d3f79e7a014e46c0",
        "gp_phi.raw.hdr":
            "97e77f5d20bedc4c8dd50a636e7e20241e000a9583c9f0703789c0f34bfb16d5",
        "gp_phi_density.pgm":
            "cc78a463b80347d8168f6d21eb7d02c8f88ffea23ad40077b8e01598be86a97a",
        "gp_phi_phase.pgm":
            "b01f411df69d5c687e9696ca8634828689f733f8782c32c042e3e552a3e12e88",
        "gp_result.json":
            "b5e753cbc400b3d74a31ba18e175bf47934eae21c926729145ee7121e05bb2c9",
    },
    "gp-min-2d-sampled": {
        "gp_phi.csv":
            "7d548a6cf3f2305211508cdaac44302925d2d1e71a6252accd930c21c7fcff9c",
        "gp_phi.raw":
            "b6198baf1229222b4fc320610db5b4f669edc9fa651f0e9d53153d2ef9c32b2f",
        "gp_phi.raw.hdr":
            "05f457c91e085e26354e8666fe3e987b238293e4f1b6c876dd40b6f85228fbe9",
        "gp_phi_density.pgm":
            "d7cf9816cc49d351b179d2945e88506c8b35f7fae96481cbdbb43b4392bf64a5",
        "gp_phi_phase.pgm":
            "c7369ab8d09d67cd37e5f77269beecdffaf81e62420ca39f5fe0704b50263985",
        "gp_result.json":
            "ede5f292effe9592b5f0eac026d77299a9b68ccf984ecfc438dfc5b029fe09d0",
    },
    "gp-min-3d-quartic": {
        "gp_phi.csv":
            "5cff322881d98b9f423b88a6d1ebfc771ecf05e6e83b1a5353037b46188a4eaa",
        "gp_phi.raw":
            "7810e384824408f158543ac7d7f364713ae2ccc108b44dda83e5099c57b20b62",
        "gp_phi.raw.hdr":
            "139af4e3a4d636fe8197ad433142ece55dbfdf0d8c4e1738316daea276d9a328",
        "gp_result.json":
            "78c4a74471f04c0d5287e513f56e7d80fb5a75dbb065b23fd410de01467c6924",
    },
    "gp-min-3d-tilted": {
        "gp_phi.csv":
            "589b92aaec49856fe89598fe56548e5a6535ca32c9968740edd054cc04ba0823",
        "gp_phi.raw":
            "87518fc77ab326811ade0bc8a82326cf75c11de60f2e200324f0bfdf35988700",
        "gp_phi.raw.hdr":
            "a2145a0a5acf4807bfc52200a2a096d77c77693fe374ccdc4ea4c8a4a64a34d5",
        "gp_result.json":
            "6560db01be5aee9e423dd4321edea37144fbeb8f2bb63612dfdfabb3f9835427",
    },
    "scatter": {
        "born.csv":
            "c5a5b0656469099b21f9a2eb97800b1f326fbaf7f919ccfd60107e2e2c9902e5",
        "scatter.json":
            "85407f08ed64b3b87a9d995620859091138abda251c0bf9b6f350d6872795f1e",
    },
    "sweep-g": {
        "sweep.csv":
            "27a722ea316941814c62ddac45531dcd714ad46f28f3886abeea806f9d02b966",
    },
    "sweep-omega": {
        "sweep.csv":
            "c38fc1c06f9f20ceaf732b8e418341c7bcfba7dce34f166e5eca2f69af79420b",
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


def moved_texts(outdir, digests, pins):
    """The text of every .json or .csv output whose digest is not its pin."""
    return "".join(f"\n--- {name}\n{(outdir / name).read_text()}"
                   for name, digest in digests.items()
                   if name.endswith((".json", ".csv")) and digest != pins.get(name))


@pytest.mark.parametrize("name", list(CASES))
def test_outputs_are_byte_identical(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    write_sampled_trap(tmp_path)
    outdir = tmp_path / "out"
    digests = run_case(name, outdir)
    assert digests == PINS[name], moved_texts(outdir, digests, PINS[name])
