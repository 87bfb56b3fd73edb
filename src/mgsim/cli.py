"""Command-line interface.

Exit codes: 0 on success, 2 when an eigenvalue query finds no unstable
mode (a meaningful outcome, not a failure), 1 on any error.
"""

import csv
import math
import sys
import time
from pathlib import Path

import click

from . import __version__
from .errors import ConfigError, MGError, NoRootError
from .config import (
    get_bool, get_float, get_floats, get_int, get_ints, get_str, load_config,
)
from .symbol import PhysParams

_STABLE_EXIT = 2


def _phys_from_cfg(cfg):
    return PhysParams(
        n2=get_float(cfg, "phys.n2", 1.0),
        m=get_int(cfg, "phys.m", 1),
        eps_kappa=get_float(cfg, "phys.eps_kappa", 0.0),
        gamma=get_float(cfg, "phys.gamma", 1.0),
    )


def _grid_from_cfg(cfg):
    from .fields import Grid

    n = get_int(cfg, "grid.n", 32)
    return Grid(
        get_int(cfg, "grid.n1", n),
        get_int(cfg, "grid.n2", n),
        get_int(cfg, "grid.n3", n),
    )


def _parse_plane(text):
    from .fields import PlaneSpec

    try:
        num, _, den = text.partition("/")
        return PlaneSpec(int(num), int(den) if den else 1)
    except ValueError as exc:
        raise click.ClickException(
            f"bad plane ratio {text!r} (expected e.g. 1/1 or 2/1): {exc}")


def _wrap_errors(fn):
    """Convert library errors to CLI errors, NoRootError to exit code 2."""
    import functools

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except NoRootError as exc:
            click.echo(f"stable: {exc}")
            sys.exit(_STABLE_EXIT)
        except (MGError, ValueError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc

    return wrapper


@click.group()
@click.version_option(version=__version__, prog_name="mg")
def main():
    """Active scalar instability toolbox on the periodic 3-torus."""


# ---------------------------------------------------------------------------
# symbol-scan


@main.command("symbol-scan")
@click.option("--n2", type=float, default=1.0, show_default=True,
              help="Stratification-to-rotation parameter N^2.")
@click.option("--kmax", type=int, default=16, show_default=True,
              help="Scan the integer box |k_i| <= kmax.")
@click.option("--plane", "plane_txt", type=str, default=None,
              help="Restrict rows to a horizontal plane ratio, e.g. 1/1.")
@click.option("--out", type=click.Path(dir_okay=False), required=True,
              help="Destination CSV.")
@_wrap_errors
def symbol_scan(n2, kmax, plane_txt, out):
    """Tabulate the velocity multiplier over an integer wavenumber box."""
    from .symbol import scan_box

    plane = None
    if plane_txt is not None:
        spec = _parse_plane(plane_txt)
        plane = (spec.q_num, spec.q_den)
    nrows = 0
    max_ratio = 0.0
    arg = None
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k1", "k2", "k3", "m1", "m2", "m3", "abs",
                    "ratio_abs_over_k"])
        for row in scan_box(kmax, n2, plane=plane):
            w.writerow([row[0], row[1], row[2]] +
                       [f"{v:.17g}" for v in row[3:]])
            nrows += 1
            if row[7] > max_ratio:
                max_ratio, arg = row[7], (row[0], row[1], row[2])
    click.echo(f"wrote {nrows} rows to {out}")
    click.echo(f"max |M(k)|/|k| = {max_ratio:.6f} at k = {arg}")


# ---------------------------------------------------------------------------
# eigen


@main.command("eigen")
@click.option("--k1", type=int, default=None, help="Horizontal wavenumber 1.")
@click.option("--k2", type=int, default=None, help="Horizontal wavenumber 2.")
@click.option("--m", type=int, default=1, show_default=True,
              help="Vertical index of the steady profile sin(m x3).")
@click.option("--n2", type=float, default=1.0, show_default=True)
@click.option("--eps-kappa", type=float, default=0.0, show_default=True)
@click.option("--gamma", type=float, default=1.0, show_default=True)
@click.option("--depth", type=int, default=64, show_default=True,
              help="Starting truncation depth of the continued fraction.")
@click.option("--optimize", "box", type=int, default=None,
              help="Search the integer box [1, BOX]^2 for the fastest mode.")
@click.option("--sweep", "regime", type=str, default=None,
              help="Sweep the family (j^2, j): 'nondiffusive' or 'fractional'.")
@click.option("--j-min", type=int, default=2, show_default=True)
@click.option("--j-max", type=int, default=12, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Optional CSV destination.")
@_wrap_errors
def eigen_cmd(k1, k2, m, n2, eps_kappa, gamma, depth, box, regime,
              j_min, j_max, out):
    """Unstable eigenvalues of the linearization about sin(m x3)."""
    from .eigen import illposedness_sweep, optimize_growth, solve_sigma_star
    from .experiments import write_eigen_csv, write_sweep_csv

    params = PhysParams(n2=n2, m=m, eps_kappa=eps_kappa, gamma=gamma)
    single = k1 is not None or k2 is not None
    if (box is not None) + (regime is not None) + single != 1:
        raise click.ClickException(
            "choose exactly one of --k1/--k2, --optimize, or --sweep")

    if regime is not None:
        res = illposedness_sweep(regime, params, j_min=j_min, j_max=j_max,
                                 depth=depth)
        for row in res.rows:
            sig = "none" if row.sigma_star is None else f"{row.sigma_star:.9g}"
            bnd = "-" if row.bound is None else f"{row.bound:.6g}"
            tag = "certified" if row.certified else "uncertified"
            click.echo(f"j = {row.j:3d}  mode ({row.k1},{row.k2})  "
                       f"sigma* = {sig:<14} bound = {bnd:<12} {tag}")
        click.echo(f"verdict: {res.verdict} -- {res.reason}")
        if out:
            write_sweep_csv(res, out)
            click.echo(f"wrote {out}")
        return

    if box is not None:
        res = optimize_growth(params, box=box, depth=depth)
        click.echo(f"fastest mode in [1, {box}]^2: ({res.k1}, {res.k2})  "
                   f"sigma* = {res.sigma_star:.9g}")
        click.echo(f"certified bound argmax: {res.lb_argmax}  "
                   f"bound = {res.lb_max:.9g}")
        if math.isfinite(res.continuum_k1):
            click.echo(f"continuum argmax estimate: "
                       f"({res.continuum_k1:.3f}, {res.continuum_k2:.3f})")
        click.echo(f"unstable modes found: {res.n_unstable}")
        if out:
            write_eigen_csv(res.table, params, out)
            click.echo(f"wrote {out}")
        return

    if k1 is None or k2 is None:
        raise click.ClickException("single-mode query needs both --k1 and --k2")
    sol = solve_sigma_star(k1, k2, params, depth=depth)
    lower, upper = sol.bracket
    click.echo(f"mode ({k1}, {k2}): sigma* = {sol.sigma_star:.12g}")
    click.echo(f"closed-form bounds: [{lower:.9g}, {upper:.9g}]")
    click.echo(f"depth = {sol.depth}, residual = {sol.residual:.3g}, "
               f"recursion rows defect = {sol.recursion_residual:.3g}")
    if out:
        write_eigen_csv([(k1, k2, sol.sigma_star, sol.depth, sol.residual)],
                        params, out)
        click.echo(f"wrote {out}")


# ---------------------------------------------------------------------------
# evolve


def _read_snapshot_on(path, grid, prefix=""):
    from .fields import read_snapshot

    f = read_snapshot(path)
    if f.grid != grid:
        raise click.ClickException(
            f"{prefix}snapshot grid {f.grid.shape} does not match "
            f"run grid {grid.shape}")
    return f


def _source_from_cfg(cfg, grid):
    from .solver import SourceSpec

    kind = get_str(cfg, "source.kind", "none")
    if kind == "none":
        return SourceSpec("none")
    if kind == "steady_balance":
        return SourceSpec("steady_balance", m=get_int(cfg, "source.m", 1))
    if kind.startswith("snapshot:"):
        f = _read_snapshot_on(kind.partition(":")[2], grid, "source ")
        return SourceSpec("custom", custom=f)
    raise click.ClickException(f"unknown source kind {kind!r}")


def _initial_field(init, mode, grid, params):
    """Initial field, and the solution when ``mode`` = (k1, k2, depth)."""
    from .eigen import assemble_eigenfunction, solve_sigma_star
    from .fields import cosine_mode

    if init == "eigenfunction":
        k1, k2, depth = mode
        sol = solve_sigma_star(k1, k2, params, depth=depth)
        return assemble_eigenfunction(sol, grid), sol
    if init.startswith("snapshot:"):
        return _read_snapshot_on(init.partition(":")[2], grid), None
    if init.startswith("mode:"):
        parts = init.partition(":")[2].split(",")
        if len(parts) not in (3, 4):
            raise click.ClickException(
                "mode init expects mode:k1,k2,k3[,amp]")
        try:
            kvec = tuple(int(p) for p in parts[:3])
            amp = float(parts[3]) if len(parts) == 4 else 1.0
            if not math.isfinite(amp):
                raise ValueError(f"amplitude {amp} is not finite")
        except ValueError as exc:
            raise click.ClickException(f"bad mode init {init!r}: {exc}")
        if kvec[2] == 0:
            raise click.ClickException(
                "mode init requires k3 != 0 (k3 = 0 modes carry no dynamics)")
        return cosine_mode(grid, kvec, amp), None
    raise click.ClickException(
        f"unknown init {init!r}; use eigenfunction, snapshot:PATH, "
        f"or mode:k1,k2,k3[,amp]")


@main.command("evolve")
@click.option("--config", "config_path", type=click.Path(exists=True,
              dir_okay=False), required=True)
@click.option("--init", default="eigenfunction", show_default=True,
              help="eigenfunction | snapshot:PATH | mode:k1,k2,k3[,amp]")
@click.option("--plane", "plane_txt", type=str, default=None,
              help="Override the config plane ratio.")
@click.option("--out-diag", type=click.Path(dir_okay=False),
              default="diag.csv", show_default=True)
@click.option("--out-field", type=click.Path(dir_okay=False), default=None,
              help="Optional final-state snapshot destination.")
@_wrap_errors
def evolve(config_path, init, plane_txt, out_diag, out_field):
    """Integrate the scalar equation from a configured initial state."""
    from .experiments import write_diag_csv, write_manifest
    from .fields import write_snapshot
    from .solver import SolverConfig, run

    cfg = load_config(config_path)
    params = _phys_from_cfg(cfg)
    grid = _grid_from_cfg(cfg)
    plane_cfg = get_str(cfg, "plane.q", None)  # read even when overridden
    plane_txt = plane_cfg if plane_txt is None else plane_txt
    plane = _parse_plane(plane_txt) if plane_txt else None

    scfg = SolverConfig(
        dt=get_float(cfg, "run.dt"),
        t_end=get_float(cfg, "run.t_end"),
        scheme=get_str(cfg, "run.scheme", "if_rk4"),
        linearized=get_bool(cfg, "run.linearized", False),
        record_every=get_int(cfg, "run.record_every", 10),
        plane=plane,
        restrict_to_plane=get_bool(cfg, "plane.restrict", False),
        hs_order=get_float(cfg, "run.hs_order", 1.0),
        source=_source_from_cfg(cfg, grid),
    )
    mode = None
    if init == "eigenfunction":
        mode = (get_int(cfg, "mode.k1"), get_int(cfg, "mode.k2"),
                get_int(cfg, "mode.depth", 64))
    cfg.reject_unused()
    resolved = {**cfg.resolved, "plane.q": plane_txt, "init": init}
    theta0, sol = _initial_field(init, mode, grid, params)

    t0 = time.perf_counter()
    final, diag = run(theta0, params, scfg)
    wall = time.perf_counter() - t0

    Path(out_diag).parent.mkdir(parents=True, exist_ok=True)
    write_diag_csv(diag, out_diag)
    click.echo(f"wrote {out_diag} ({len(diag.times)} records)")
    if out_field:
        write_snapshot(final, out_field)
        click.echo(f"wrote {out_field}")

    extras = {
        "l2_final": f"{diag.l2[-1]:.12g}",
        "linf_final": f"{diag.linf[-1]:.12g}",
    }
    if sol is not None:
        extras["sigma_star"] = f"{sol.sigma_star:.12g}"
    manifest = Path(out_diag).with_name("manifest.txt")
    write_manifest(manifest, resolved, wall_seconds=wall, extras=extras)
    click.echo(f"wrote {manifest}")


# ---------------------------------------------------------------------------
# experiment commands


def _outdir(path):
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


@main.command("instability")
@click.option("--config", "config_path", type=click.Path(exists=True,
              dir_okay=False), required=True)
@click.option("--out", "out_dir", type=click.Path(file_okay=False),
              required=True)
@_wrap_errors
def instability_cmd(config_path, out_dir):
    """Grow the fastest eigenmode through the nonlinear dynamics."""
    from .experiments import (
        instability, write_diag_csv, write_eigen_csv, write_growth_csv,
        write_manifest,
    )

    cfg = load_config(config_path)
    params = _phys_from_cfg(cfg)
    kw = dict(
        box=get_int(cfg, "instability.box", 12),
        n=get_int(cfg, "instability.n", 48),
        dt=get_float(cfg, "instability.dt", 0.01),
        t_end=get_float(cfg, "instability.t_end", 8.0),
        seed_rel=get_float(cfg, "instability.seed_rel", 1e-6),
        fit_start=get_float(cfg, "instability.fit_start", 1.0),
        record_every=get_int(cfg, "instability.record_every", 10),
        depth=get_int(cfg, "instability.depth", 64),
    )
    cfg.reject_unused()
    out = _outdir(out_dir)

    t0 = time.perf_counter()
    rep = instability(params, **kw)
    wall = time.perf_counter() - t0

    write_eigen_csv(rep.table, params, out / "modes.csv")
    write_diag_csv(rep.diag, out / "diag.csv")
    write_growth_csv(rep.diag, out / "growth.csv")

    rel = abs(rep.fitted_rate - rep.sigma_star) / rep.sigma_star
    write_manifest(out / "manifest.txt", cfg.resolved, wall_seconds=wall, extras={
        "mode": f"({rep.k1}, {rep.k2})",
        "sigma_star": f"{rep.sigma_star:.12g}",
        "fitted_rate": f"{rep.fitted_rate:.12g}",
        "relative_mismatch": f"{rel:.3g}",
        "r_squared": f"{rep.r_squared:.9f}",
        "fit_window": f"[{rep.fit_window[0]:g}, {rep.fit_window[1]:g}]",
        "certified_bound_max": f"{rep.lb_max:.9g} at {rep.lb_argmax}",
        "continuum_argmax": f"({rep.continuum_k[0]:.3f}, "
                            f"{rep.continuum_k[1]:.3f})",
        "continuum_bound": f"{rep.continuum_lb:.9g}",
    })
    click.echo(f"mode ({rep.k1}, {rep.k2}): sigma* = {rep.sigma_star:.9g}, "
               f"fitted = {rep.fitted_rate:.9g} (rel {rel:.2e})")
    click.echo(f"wrote {out}/modes.csv diag.csv growth.csv manifest.txt")


@main.command("illposedness")
@click.option("--config", "config_path", type=click.Path(exists=True,
              dir_okay=False), required=True)
@click.option("--out", "out_dir", type=click.Path(file_okay=False),
              required=True)
@_wrap_errors
def illposedness_cmd(config_path, out_dir):
    """Sweep growth rates along the unbounded-wavenumber family."""
    from .eigen import illposedness_sweep
    from .experiments import write_manifest, write_sweep_csv

    cfg = load_config(config_path)
    params = _phys_from_cfg(cfg)
    regime = get_str(cfg, "illposedness.regime")
    j_min = get_int(cfg, "illposedness.j_min", 2)
    j_max = get_int(cfg, "illposedness.j_max", 12)
    depth = get_int(cfg, "illposedness.depth", 64)
    cfg.reject_unused()
    out = _outdir(out_dir)

    t0 = time.perf_counter()
    res = illposedness_sweep(regime, params, j_min=j_min, j_max=j_max,
                             depth=depth)
    wall = time.perf_counter() - t0

    write_sweep_csv(res, out / "sweep.csv")
    write_manifest(out / "manifest.txt", cfg.resolved, wall_seconds=wall,
                   extras={"verdict": res.verdict, "reason": res.reason})
    click.echo(f"verdict: {res.verdict} -- {res.reason}")
    click.echo(f"wrote {out}/sweep.csv manifest.txt")


@main.command("plane-demo")
@click.option("--config", "config_path", type=click.Path(exists=True,
              dir_okay=False), required=True)
@click.option("--out", "out_dir", type=click.Path(file_okay=False),
              required=True)
@_wrap_errors
def plane_demo_cmd(config_path, out_dir):
    """Plane-confined well-posedness against an off-plane control."""
    from .experiments import plane_demo, write_diag_csv, write_manifest

    cfg = load_config(config_path)
    plane_txt = get_str(cfg, "plane_demo.q", "1/1")
    gammas = get_floats(cfg, "plane_demo.gammas", (0.3, 0.5, 0.8))
    control = get_ints(cfg, "plane_demo.control_mode", (1, 2, 1))
    if len(control) != 3:
        raise ConfigError(
            f"config key 'plane_demo.control_mode': expected 3 integers "
            f"k1, k2, k3, got {len(control)}")
    kw = dict(
        plane=_parse_plane(plane_txt),
        gammas=gammas,
        eps_kappa=get_float(cfg, "phys.eps_kappa", 0.02),
        n2=get_float(cfg, "phys.n2", 1.0),
        m=get_int(cfg, "phys.m", 1),
        n=get_int(cfg, "plane_demo.n", 24),
        dt=get_float(cfg, "plane_demo.dt", 0.01),
        t_end=get_float(cfg, "plane_demo.t_end", 5.0),
        seed=get_float(cfg, "plane_demo.seed", 1e-4),
        control_mode=control,
        record_every=get_int(cfg, "plane_demo.record_every", 50),
    )
    cfg.reject_unused()
    out = _outdir(out_dir)

    t0 = time.perf_counter()
    rep = plane_demo(**kw)
    wall = time.perf_counter() - t0

    extras = {
        "plane": str(rep.plane),
        "plane_constant": f"{rep.plane_constant:.9g}",
        "control_mode": str(rep.control_mode),
        "control_off_plane_factor": f"{rep.control.departure_factor:.6g}",
        "control_fitted_rate": f"{rep.control_rate:.9g}",
        "control_sigma_star": f"{rep.control_sigma_ref:.9g}",
    }
    for arm in rep.arms:
        tag = f"gamma_{arm.gamma:g}"
        write_diag_csv(arm.diag, out / f"restricted_{tag}.csv")
        extras[f"restricted_{tag}_off_plane_max"] = f"{arm.off_plane_max:.3g}"
        extras[f"restricted_{tag}_departure_factor"] = (
            f"{arm.departure_factor:.6g}")
    write_diag_csv(rep.control.diag, out / "control.csv")

    write_manifest(out / "manifest.txt", cfg.resolved, wall_seconds=wall,
                   extras=extras)
    click.echo(f"plane {rep.plane}: constant = {rep.plane_constant:.6g}")
    click.echo(
        f"restricted off-plane max over arms: "
        f"{max(a.off_plane_max for a in rep.arms):.3g}; control off-plane "
        f"grew x{rep.control.departure_factor:.3g} "
        f"(rate {rep.control_rate:.4g} vs sigma* "
        f"{rep.control_sigma_ref:.4g})")
    click.echo(f"wrote {out}/restricted_*.csv control.csv manifest.txt")


if __name__ == "__main__":
    main()
