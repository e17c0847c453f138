from rotbec import Grid, HarmonicTrap, ModelSpec, RotationSpec, solve_point

GRID = Grid((9.0, 9.0), (32, 32))

# The ladder below, exactly: no golden output covers DM4, so a move of any
# of these (energies, applications per family member in energy order and
# per DM start, weights) must fail here and show its old and new values.
LADDER_PINS = {
    "E_GP": 12.188761618771888,
    "GP family applications": [420, 92, 521, 919, 706, 412, 99],
    "E_DM2": 12.113281845845975,
    "DM2 applications": [963, 165],
    "E_DM4": 12.113281845845968,
    "DM4 applications": [17, 813],
    "DM4 last two weights": [0.0, 0.0],
}


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
    got = {
        "E_GP": point.best.energy,
        "GP family applications": [r.iterations for r in point.family],
        "E_DM2": dm2.energy,
        "DM2 applications": [r.applications for r in dm2.restarts],
        "E_DM4": dm4.energy,
        "DM4 applications": [r.applications for r in dm4.restarts],
        "DM4 last two weights": [float(w) for w in dm4.state.weights[-2:]],
    }
    moved = {key: (pin, got[key]) for key, pin in LADDER_PINS.items() if got[key] != pin}
    assert not moved, f"DM ladder moved, pinned -> now: {moved!r}"


def test_anisotropic_trap_has_no_s_metric():
    spec = ModelSpec(GRID, HarmonicTrap((1.0, 1.2)), RotationSpec(0.3), 10.0)
    point = solve_point(spec, (3,), 1e-6, tol=1e-7, max_iter=8000, restarts=1, seed=7)
    assert point.s_metric is None
    (dm3,) = point.dm
    assert dm3.state.rank == 3
    assert dm3.energy <= point.best.energy + 1e-8
