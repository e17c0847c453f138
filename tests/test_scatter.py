import math

import pytest

import rotbec.scatter
from rotbec.errors import NoConvergence, NonFiniteScatteringLength
from rotbec.scatter import (
    GaussianBump,
    HardSphere,
    SoftShell,
    SquareWell,
    born_check,
    scale_potential,
    scattering_length,
    volume_integral,
)
from conftest import stopping_halfway


def test_hard_sphere_exact_two_decades():
    for radius in (0.07, 0.21, 0.7, 2.1, 7.0):
        assert abs(scattering_length(HardSphere(radius)) - radius) < 1e-8


def test_zero_potential():
    assert scattering_length(GaussianBump(0.0, 1.0)) == pytest.approx(0.0, abs=1e-12)
    assert scattering_length(SquareWell(0.0, 1.0)) == 0.0


def test_square_well_closed_form():
    # attractive well below the first zero-energy resonance
    for depth, R in ((-2.0, 1.0), (-0.7, 1.4), (-4.0, 0.5)):
        kappa = math.sqrt(-depth / 2.0)
        closed = R * (1.0 - math.tan(kappa * R) / (kappa * R))
        assert abs(scattering_length(SquareWell(depth, R)) - closed) < 1e-7


def test_square_well_closed_form_runs_once(monkeypatch):
    calls = []
    exact = rotbec.scatter._square_well_exact
    monkeypatch.setattr(rotbec.scatter, "_square_well_exact",
                        lambda v: calls.append(v) or exact(v))
    well = SquareWell(-2.0, 1.0)
    assert scattering_length(well) == exact(well)
    assert calls == [well]


@pytest.mark.parametrize("make, args", [
    (HardSphere, (-1.0,)), (HardSphere, (0.0,)), (HardSphere, (math.inf,)),
    (SquareWell, (1.0, -1.0)), (SquareWell, (1.0, 0.0)), (SquareWell, (math.nan, 1.0)),
    (SquareWell, (-math.inf, 1.0)), (GaussianBump, (1.0, 0.0)), (GaussianBump, (1.0, -2.0)),
    (GaussianBump, (math.inf, 1.0)),
], ids=["sphere-negative", "sphere-zero", "sphere-infinite", "well-negative-radius",
        "well-zero-radius", "well-nan-depth", "well-infinite-depth", "gauss-zero-width",
        "gauss-negative-width", "gauss-infinite-amplitude"])
def test_potentials_reject_nonphysical_parameters(make, args):
    with pytest.raises(ValueError):
        make(*args)


def test_square_well_resonance_raises():
    # kappa R = pi/2 is the zero-energy resonance of the attractive well
    R = 1.0
    depth = -2.0 * (math.pi / 2.0) ** 2
    with pytest.raises(NonFiniteScatteringLength):
        scattering_length(SquareWell(depth, R))


def test_scaling_law_all_kinds():
    kinds = [
        HardSphere(1.0),
        SquareWell(-1.5, 1.0),
        GaussianBump(2.0, 0.7),
        SoftShell(0.5, 1.5),
    ]
    for w in kinds:
        a0 = scattering_length(w)
        for s in (0.25, 0.5, 2.0, 4.0):
            scaled = scattering_length(scale_potential(w, s))
            assert abs(scaled - s * a0) < 1e-6 * max(1.0, abs(s * a0))


def test_scale_identity_and_composition():
    w = GaussianBump(1.0, 1.0)
    assert scale_potential(w, 1.0) == w
    assert scale_potential(HardSphere(1.0), 0.3) == HardSphere(0.3)
    # a scale whose square underflows to 0 or overflows to inf is refused
    for a in (-1.0, 0.0, math.nan, 1e-200, 1e200):
        with pytest.raises(ValueError):
            scale_potential(w, a)


def test_monotonicity_in_potential_strength():
    # pointwise-larger nonnegative potentials scatter at least as strongly
    previous = 0.0
    for amp in (0.2, 0.5, 1.0, 2.0, 4.0):
        a = scattering_length(GaussianBump(amp, 1.0))
        assert a >= previous - 1e-12
        previous = a
    previous = 0.0
    for depth in (0.3, 1.0, 3.0, 9.0):
        a = scattering_length(SquareWell(depth, 1.0))  # repulsive barrier
        assert a >= previous - 1e-12
        previous = a


def test_soft_shell_normalization():
    shell = SoftShell(0.5, 1.0)
    assert abs(volume_integral(shell) - 4.0 * math.pi) < 1e-10


def test_born_check_linear_shrinkage():
    shell = SoftShell(0.5, 1.0)
    a_values = [0.2, 0.1, 0.05, 0.025, 0.0125]
    rows = born_check(shell, a_values)
    assert rows[0][0] == 0.2
    deviations = [dev for _, _, dev in rows]
    for first, second in zip(deviations, deviations[1:]):
        assert second <= 0.6 * first
    zero = born_check(shell, [0.0])
    assert zero[0] == (0.0, 0.0, 0.0)


def test_born_check_requires_normalized_shell():
    shell = SoftShell(0.5, 1.0, amplitude=2.0)
    with pytest.raises(ValueError):
        born_check(shell, [0.1])


def test_repulsive_barrier_tanh_form():
    for depth, R in ((2.0, 1.0), (10.0, 0.6)):
        kappa = math.sqrt(depth / 2.0)
        closed = R * (1.0 - math.tanh(kappa * R) / (kappa * R))
        assert abs(scattering_length(SquareWell(depth, R)) - closed) < 1e-10


def test_failed_radial_integration_raises(monkeypatch):
    monkeypatch.setattr(rotbec.scatter, "solve_ivp", stopping_halfway(rotbec.scatter.solve_ivp))
    with pytest.raises(NoConvergence, match="stopped at r"):
        scattering_length(GaussianBump(2.0, 0.7))
