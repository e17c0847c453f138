from rotbec import Grid, HarmonicTrap, ModelSpec, RotationSpec, solve_point

GRID = Grid((9.0, 9.0), (32, 32))


def test_dm_ladder_descends_from_gp():
    spec = ModelSpec(GRID, HarmonicTrap((1.0, 1.0)), RotationSpec(0.5), 20.0)
    point = solve_point(spec, (2, 4), 1e-6, tol=1e-8, max_iter=25000, restarts=3, seed=42)
    assert point.s_metric is not None
    assert len(point.dm) == 2
    dm2, dm4 = point.dm
    assert [r.start for r in dm2.restarts] == ["seeded", "vortex"]
    # the padded DM2 stack and the padded GP field
    assert [r.start for r in dm4.restarts] == ["given", "given"]
    assert dm4.energy <= dm2.energy + 1e-8 <= point.best.energy + 2e-8


def test_anisotropic_trap_has_no_s_metric():
    spec = ModelSpec(GRID, HarmonicTrap((1.0, 1.2)), RotationSpec(0.3), 10.0)
    point = solve_point(spec, (3,), 1e-6, tol=1e-7, max_iter=8000, restarts=1, seed=7)
    assert point.s_metric is None
    (dm3,) = point.dm
    assert dm3.state.rank == 3
    assert dm3.energy <= point.best.energy + 1e-8
