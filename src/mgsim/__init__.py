"""Anisotropic active scalar on the 3-torus: spectral simulation and eigenvalue analysis."""

__version__ = "0.1.0"

from .errors import (
    MGError,
    SingularSystemError,
    NoRootError,
    DegenerateTailError,
    RecurrenceOverflowError,
    TruncationError,
    BlowUpError,
    GrowthCapError,
    InvariantError,
    ConfigError,
    SnapshotFormatError,
)
from .symbol import PhysParams, eval_symbol, eval_denominator, balance_oracle
from .fields import (
    Grid,
    PlaneSpec,
    SpectralField,
    TORUS_VOLUME,
    cosine_mode,
    hs_norm,
    l2_norm,
    linf_norm,
    off_plane_norm,
    read_snapshot,
    sine_vertical,
    write_snapshot,
)
from .eigen import (
    EigenSolution,
    assemble_eigenfunction,
    closed_form_bounds,
    dense_sigma_star,
    illposedness_sweep,
    optimize_growth,
    sigma_bracket,
    solve_sigma_star,
)
from .solver import Diagnostics, SolverConfig, SourceSpec, growth_rate_fit, run
