"""High-level experiment drivers behind the command-line interface.

Each driver composes the eigenvalue machinery with the time integrator and
returns a plain report object; file output (CSV tables, manifests) lives in
small writer helpers so the drivers stay testable.
"""

import csv
import math
import platform
import sys
from dataclasses import dataclass, field, replace

import numpy as np
import scipy

from .eigen import (
    _closed_form_bounds,
    assemble_eigenfunction,
    continuum_lower_bound,
    optimize_growth,
    solve_sigma_star,
)
from .fields import (
    Grid, Sublattice, cosine_mode, l2_norm, sine_vertical,
)
from .solver import (
    Diagnostics,
    SolverConfig,
    SourceSpec,
    _fit_window,
    _record_times,
    growth_rate_fit,
    run,
)
from .symbol import PhysParams, PlaneSpec, plane_bound_scan

_PLANE_KMAX = 32  # the plane constant is the sup over |k_i| <= this


@dataclass
class InstabilityReport:
    """Outcome of the steady-state instability experiment."""

    params: PhysParams
    box: int
    k1: int
    k2: int
    sigma_star: float
    lb_max: float
    lb_argmax: tuple
    continuum_k: tuple
    continuum_lb: float
    fitted_rate: float
    r_squared: float
    fit_window: tuple
    seed_amplitude: float
    base_l2: float
    layout: Grid
    diag: Diagnostics = field(repr=False)
    table: np.ndarray = field(repr=False)


def instability(params, *, box=12, n=48, dt=0.01, t_end=8.0,
                seed_rel=1e-6, fit_start=1.0, record_every=10):
    """Seed the steady state with its most unstable eigenmode and time it.

    The steady profile sin(m x3) is held by its balancing source; the
    perturbation is the fastest-growing eigenmode over the integer box,
    scaled to ``seed_rel`` of the background L2 norm.  The departure from
    the steady state is fitted for an exponential rate, which the report
    pairs with the predicted sigma*.  The run steps on the seed's
    sublattice k1 Z x k2 Z x m Z, which holds the background, the source
    and every product of the eigenmode; ``layout`` records it.

    At eps_kappa = 0, with no continuum optimum, ``continuum_k`` and
    ``continuum_lb`` are inf.

    Raises NoRootError when no mode in the box is unstable (the steady
    state is then simply observed to hold), and ValueError before any
    solve when [fit_start, t_end] holds fewer than two record times.
    """
    cfg = SolverConfig(dt=dt, t_end=t_end, record_every=record_every,
                       source=SourceSpec("steady_balance"))
    _fit_window(_record_times(cfg), fit_start, t_end)
    opt = optimize_growth(params, box=box)
    sol = opt.solution
    grid = Grid(n, n, n)
    background = sine_vertical(grid, params.m)
    mode = assemble_eigenfunction(sol, grid)
    base_l2 = l2_norm(background)
    seed = seed_rel * base_l2 / l2_norm(mode)
    theta0 = background + seed * mode
    lattice = Sublattice.diag(opt.k1, opt.k2, params.m)
    _, diag = run(theta0, params, replace(cfg, lattice=lattice),
                  reference=background)

    # fit only while the departure is still small against the background
    # (past that the linearization, and hence the predicted rate, is moot)
    linear = diag.ref_l2 < 1e-2 * base_l2
    t_stop = float(diag.times[linear][-1]) if linear.any() else float(
        diag.times[-1])
    rate, r2 = growth_rate_fit(diag, fit_start, t_stop, series="ref_l2")

    return InstabilityReport(
        params=params, box=box, k1=opt.k1, k2=opt.k2,
        sigma_star=opt.sigma_star, lb_max=opt.lb_max,
        lb_argmax=opt.lb_argmax,
        continuum_k=(opt.continuum_k1, opt.continuum_k2),
        continuum_lb=(continuum_lower_bound(params)
                      if np.isfinite(opt.continuum_k1) else np.inf),
        fitted_rate=rate, r_squared=r2, fit_window=(fit_start, t_stop),
        seed_amplitude=seed, base_l2=base_l2,
        layout=replace(grid, lattice=lattice), diag=diag, table=opt.table,
    )


@dataclass
class PlaneArm:
    gamma: float
    diag: Diagnostics = field(repr=False)
    off_plane_max: float
    departure_factor: float


@dataclass
class PlaneDemoReport:
    """Contrast between plane-confined runs and a contaminated control."""

    plane: PlaneSpec
    plane_constant: float
    eps_kappa: float
    arms: list
    control: PlaneArm
    control_rate: float
    control_r2: float
    control_sigma_ref: float
    control_mode: tuple
    control_layout: Grid


def plane_demo(*, plane=PlaneSpec(1, 1), gammas=(0.3, 0.5, 0.8),
               eps_kappa=0.02, n2=1.0, m=1, n=24, dt=0.01, t_end=5.0,
               seed=1e-4, control_mode=(1, 2, 1), record_every=50):
    """Confinement to a bounded-multiplier plane versus leaking off it.

    Each arm, one per dissipation order, seeds the on-plane mode
    (q_den, q_num, 1): its off-plane content stays identically zero and its
    departure tame, even where the problem is ill posed off the plane.  The
    control seeds the off-plane mode (k1, k2, k3) at the smallest gamma,
    with k1, k2 >= 1 (sigma* is solved for them) and k3 != 0 (k3 = 0 modes
    carry no dynamics); its off-plane content grows over [t_end / 5, t_end]
    at the rate the eigenvalue problem predicts.  Every run steps on its
    seed's plane, the column (k1, k2) / gcd(k1, k2) with vertical stride
    gcd(k3, m), which holds the seed, the background, the source and all
    their products: for an arm, the demo's plane; ``control_layout``
    records the control's.
    """
    if len(gammas) == 0:
        raise ValueError("gammas must name at least one dissipation order")
    if len(set(gammas)) != len(gammas):
        raise ValueError(f"gammas repeat a dissipation order: {tuple(gammas)}")
    if len(control_mode) != 3:
        raise ValueError(f"control_mode must be (k1, k2, k3), got {control_mode!r}")
    ck = tuple(int(v) for v in control_mode)
    if ck[0] < 1 or ck[1] < 1:
        raise ValueError(f"control_mode {ck} needs k1, k2 >= 1")
    if plane.contains(ck[0], ck[1]):
        raise ValueError(f"control_mode {ck} lies on the plane {plane}")
    if ck[2] == 0:
        raise ValueError(f"control_mode {ck} needs k3 != 0 "
                         f"(k3 = 0 modes carry no dynamics)")
    cfg = SolverConfig(dt=dt, t_end=t_end, record_every=record_every,
                       plane=plane, source=SourceSpec("steady_balance"))
    _fit_window(_record_times(cfg), t_end / 5.0, t_end)
    grid = Grid(n, n, n)
    background = sine_vertical(grid, m)
    c_plane = plane_bound_scan(plane.q_num, plane.q_den, _PLANE_KMAX, n2)

    # an arm's departure is from the background, the control's off the plane
    arm_k = (plane.q_den, plane.q_num, 1)
    runs = []
    for gamma, k, series in ([(gamma, arm_k, "ref_l2") for gamma in gammas]
                             + [(gammas[0], ck, "off_plane")]):
        params = PhysParams(n2=n2, m=m, eps_kappa=eps_kappa, gamma=gamma)
        g = math.gcd(k[0], k[1])
        lattice = Sublattice(((k[0] // g, k[1] // g),), math.gcd(k[2], m))
        _, diag = run(background + cosine_mode(grid, k, seed), params,
                      replace(cfg, lattice=lattice), reference=background)
        growth = getattr(diag, series)
        runs.append(PlaneArm(
            gamma=gamma, diag=diag,
            off_plane_max=float(np.max(diag.off_plane)),
            departure_factor=float(growth[-1] / growth[0]),
        ))
    *arms, control = runs
    rate, r2 = growth_rate_fit(control.diag, t_end / 5.0, t_end,
                               series="off_plane")
    sigma_ref = solve_sigma_star(ck[0], ck[1], params).sigma_star

    return PlaneDemoReport(
        plane=plane, plane_constant=c_plane, eps_kappa=eps_kappa,
        arms=arms, control=control, control_rate=rate, control_r2=r2,
        control_sigma_ref=sigma_ref, control_mode=ck,
        control_layout=replace(grid, lattice=lattice),
    )


# ---------------------------------------------------------------------------
# file writers


def write_csv(path, header, rows):
    """Write a header line and rows whose entries are already formatted."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_diag_csv(diag, path):
    """Columns t and every ``Diagnostics`` series, to full precision."""
    cols = [diag.times] + [getattr(diag, name) for name in Diagnostics.SERIES]
    write_csv(path, ["t", *Diagnostics.SERIES],
              ([f"{v:.17g}" for v in row] for row in zip(*cols)))


def write_eigen_csv(table, params, path):
    """Unstable-mode table, rows (k1, k2, sigma_star, depth, residual).

    The closed-form bounds of each mode are recomputed for the
    ``lower_bound``/``upper_bound`` columns; every row names all four
    ``PhysParams`` fields, ``n2`` and ``m`` last so the columns of earlier
    tables keep their positions.
    """
    lowers, uppers = _closed_form_bounds([row[0] for row in table],
                                         [row[1] for row in table], params)
    write_csv(path, ["k1", "k2", "gamma", "eps_kappa", "sigma_star",
                     "lower_bound", "upper_bound", "depth", "residual", "n2",
                     "m"],
              ([k1, k2, f"{params.gamma:.17g}", f"{params.eps_kappa:.17g}",
                f"{sigma:.17g}", f"{lower:.17g}", f"{upper:.17g}", depth,
                f"{residual:.3g}", f"{params.n2:.17g}", params.m]
               for (k1, k2, sigma, depth, residual), lower, upper
               in zip(table, lowers, uppers)))


def write_sweep_csv(result, path):
    write_csv(path, ["j", "k1", "k2", "sigma_star", "bound", "certified"],
              ([row.j, row.k1, row.k2,
                "" if row.sigma_star is None else f"{row.sigma_star:.17g}",
                "" if row.bound is None else f"{row.bound:.17g}",
                int(row.certified)] for row in result.rows))


def write_manifest(path, resolved, *, wall_seconds, extras):
    """Plain-text record of what a run actually used.

    ``resolved`` maps flat keys (section.key) to their effective values,
    i.e. after defaults were applied; ``extras`` holds result headlines.
    """
    from . import __version__

    lines = ["# run manifest", "", f"argv = {' '.join(sys.argv)}",
             f"package_version = {__version__}",
             f"python = {platform.python_version()}",
             f"numpy = {np.__version__}", f"scipy = {scipy.__version__}",
             f"wall_seconds = {wall_seconds:.3f}"]
    for section, entries in (("resolved", resolved), ("results", extras)):
        lines += ["", f"[{section}]",
                  *(f"{key} = {entries[key]}" for key in sorted(entries))]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
