"""Solvers and diagnostics for ground states of rotating dilute Bose gases."""

from .lattice import (
    Field,
    Grid,
    gradient_spectral,
    inner,
    integrate,
    laplacian_spectral,
    norm,
    normalized,
    read_field_raw,
    read_field_text,
    write_field_raw,
    write_field_text,
)
from .model import (
    HarmonicTrap,
    ModelSpec,
    QuarticTrap,
    RotationSpec,
    SampledTrap,
    apply_h0,
    check_stability,
    lowest_eigenpairs,
)
from .gp import (
    GPBreakdown,
    GPResult,
    Restart,
    chemical_potential,
    gp_energy,
    gp_gradient,
    minimize_gp,
    minimize_gp_family,
)
from .dm import DMResult, DMState, dm_energy, minimize_dm, minimize_weights
from .diagnostics import (
    SymmetryReport,
    VortexReport,
    detect_vortices,
    minimizer_family_analysis,
    symmetry_breaking_metric,
)
from .sweep import SweepPoint, solve_point
from .manybody import (
    DeltaPair,
    FockProblem,
    FockResult,
    build_w_tensor,
    coherent_state_checks,
    gp_limit_scan,
    ground_state_absolute,
    ground_state_bosonic,
)
from .scatter import (
    GaussianBump,
    HardSphere,
    SoftShell,
    SquareWell,
    born_check,
    scale_potential,
    scattering_length,
)

__all__ = [name for name in dir() if not name.startswith("_")]
