"""Command-line interface.

Each input has one way in.  ``symbol-scan`` and ``eigen`` read flags;
``evolve``, ``instability``, ``illposedness`` and ``plane-demo`` take
``--config FILE --out DIR``: they fail on any config key they do not read,
create ``DIR`` only once the run has succeeded, and list every key they
read in the ``[resolved]`` section of ``DIR/manifest.txt``.  ``evolve``'s
initial state is ``[init] kind``.  The sweep of ``illposedness`` takes its
regime from ``phys.eps_kappa``: nondiffusive at 0, fractional above.
Every CSV goes through ``experiments.write_csv``.

Exit codes: 0 on success, 3 when an eigenvalue query finds no unstable
mode (a meaningful outcome, not a failure), 1 on any error, and 2 on a
usage error such as a malformed flag (click's own code).

A run default is written once, in the library: every config key and
option with a library counterpart defaults to that function's default.
"""

import functools
import inspect
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import click

from . import __version__
from .errors import ConfigError, MGError, NoRootError
from .config import (
    get_bool, get_float, get_floats, get_int, get_ints, get_str, load_config,
    number_literal,
)
from .eigen import (
    assemble_eigenfunction, illposedness_sweep, optimize_growth,
    solve_sigma_star,
)
from .experiments import (
    instability, plane_demo, write_csv, write_diag_csv, write_eigen_csv,
    write_manifest, write_sweep_csv,
)
from .fields import (
    Grid, Sublattice, cosine_mode, l2_norm, off_plane_norm, read_snapshot,
    write_snapshot,
)
from .solver import SolverConfig, SourceSpec, run
from .symbol import PhysParams, PlaneSpec, scan_box

_STABLE_EXIT = 3

# a None default is an int the function works out from its other inputs
_GETTERS = {bool: get_bool, int: get_int, float: get_float, str: get_str,
            type(None): get_int}


def _default(fn, name):
    """The default of ``fn``'s parameter ``name``."""
    return inspect.signature(fn).parameters[name].default


def _read(cfg, fn, section, *names):
    """{name: value of key section.name}, each defaulting to ``fn``'s own.

    The getter is the one for the default's type (for a tuple, a list of
    its first entry's type); ``cfg.resolved`` records the default like a
    value read from the file.
    """
    out = {}
    for name in names:
        default = _default(fn, name)
        if isinstance(default, tuple):
            getter = get_ints if isinstance(default[0], int) else get_floats
        else:
            getter = _GETTERS[type(default)]
        out[name] = getter(cfg, f"{section}.{name}", default)
    return out


def _phys_from_cfg(cfg):
    return PhysParams(**_read(cfg, PhysParams, "phys",
                              "n2", "m", "eps_kappa", "gamma"))


def _grid_from_cfg(cfg):
    """``grid.n``: one integer for a cubic grid, or n1, n2, n3."""
    n = get_ints(cfg, "grid.n", (32,))
    if len(n) not in (1, 3):
        raise ConfigError(f"config key 'grid.n': expected 1 or 3 integers, "
                          f"got {len(n)}")
    return Grid(*(n * 3 if len(n) == 1 else n))


class _Literal(click.ParamType):
    """An int or float option, read by ``config.number_literal``."""

    def __init__(self, kind):
        self.kind, self.name = kind, kind.__name__

    def convert(self, value, param, ctx):
        try:  # str() of a default reads back as the same number exactly
            return number_literal(self.kind, str(value))
        except ValueError as exc:
            self.fail(str(exc), param, ctx)


INT, FLOAT = _Literal(int), _Literal(float)


def _parse_plane(text):
    try:
        num, slash, den = text.partition("/")
        if not num.strip() or (slash and not den.strip()):
            raise ValueError("empty numerator or denominator")
        return PlaneSpec(number_literal(int, num),
                         number_literal(int, den) if slash else 1)
    except ValueError as exc:
        raise click.ClickException(
            f"bad plane ratio {text!r} (expected e.g. 1/1 or 2/1): {exc}")


def _timed(fn, *args, **kwargs):
    """(fn(*args, **kwargs), its wall time in seconds)."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _wrap_errors(fn):
    """Convert library errors to CLI errors, NoRootError to exit code 3."""
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
@click.option("--n2", type=FLOAT, default=_default(PhysParams, "n2"),
              show_default=True,
              help="Stratification-to-rotation parameter N^2.")
@click.option("--kmax", type=INT, default=16, show_default=True,
              help="Scan the integer box |k_i| <= kmax.")
@click.option("--plane", "plane_txt", type=str, default=None,
              help="Restrict rows to a horizontal plane ratio, e.g. 1/1.")
@click.option("--out", type=click.Path(dir_okay=False), required=True,
              help="Destination CSV.")
@_wrap_errors
def symbol_scan(n2, kmax, plane_txt, out):
    """Tabulate the velocity multiplier over an integer wavenumber box."""
    PhysParams(n2=n2)  # its check of N^2, before the file is opened
    plane = None if plane_txt is None else _parse_plane(plane_txt)
    rows = list(scan_box(kmax, n2, plane=plane))
    write_csv(out, ["k1", "k2", "k3", "m1", "m2", "m3", "abs",
                    "ratio_abs_over_k"],
              ([*row[:3], *(f"{v:.17g}" for v in row[3:])] for row in rows))
    best = max(rows, key=lambda row: row[7])  # the first of equal ratios
    click.echo(f"wrote {len(rows)} rows to {out}")
    click.echo(f"max |M(k)|/|k| = {best[7]:.6f} at k = "
               f"{best[:3] if best[7] > 0.0 else None}")


# ---------------------------------------------------------------------------
# eigen


@main.command("eigen")
@click.option("--k1", type=INT, default=None, help="Horizontal wavenumber 1.")
@click.option("--k2", type=INT, default=None, help="Horizontal wavenumber 2.")
@click.option("--m", type=INT, default=_default(PhysParams, "m"),
              show_default=True,
              help="Vertical index of the steady profile sin(m x3).")
@click.option("--n2", type=FLOAT, default=_default(PhysParams, "n2"),
              show_default=True)
@click.option("--eps-kappa", type=FLOAT,
              default=_default(PhysParams, "eps_kappa"), show_default=True)
@click.option("--gamma", type=FLOAT, default=_default(PhysParams, "gamma"),
              show_default=True)
@click.option("--optimize", "box", type=INT, default=None,
              help="Search the integer box [1, BOX]^2 for the fastest mode.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Optional CSV destination.")
@_wrap_errors
def eigen_cmd(k1, k2, m, n2, eps_kappa, gamma, box, out):
    """Unstable eigenvalues of the linearization about sin(m x3)."""
    params = PhysParams(n2=n2, m=m, eps_kappa=eps_kappa, gamma=gamma)
    if (box is not None) == (k1 is not None or k2 is not None):
        raise click.ClickException(
            "choose exactly one of --k1/--k2 or --optimize")

    if box is not None:
        res = optimize_growth(params, box=box)
        click.echo(f"fastest mode in [1, {box}]^2: ({res.k1}, {res.k2})  "
                   f"sigma* = {res.sigma_star:.9g}")
        click.echo(f"certified bound argmax: {res.lb_argmax}  "
                   f"bound = {res.lb_max:.9g}")
        if math.isfinite(res.continuum_k1):
            click.echo(f"continuum argmax estimate: "
                       f"({res.continuum_k1:.3f}, {res.continuum_k2:.3f})")
        click.echo(f"unstable modes found: {res.n_unstable}")
        table = res.table
    else:
        if k1 is None or k2 is None:
            raise click.ClickException(
                "single-mode query needs both --k1 and --k2")
        sol = solve_sigma_star(k1, k2, params)
        lower, upper = sol.bracket
        click.echo(f"mode ({k1}, {k2}): sigma* = {sol.sigma_star:.12g}")
        click.echo(f"closed-form bounds: [{lower:.9g}, {upper:.9g}]")
        click.echo(f"depth = {sol.depth}, residual = {sol.residual:.3g}")
        table = [(k1, k2, sol.sigma_star, sol.depth, sol.residual)]
    if out:
        write_eigen_csv(table, params, out)
        click.echo(f"wrote {out}")


# ---------------------------------------------------------------------------
# evolve


def _read_snapshot_on(path, grid, prefix=""):
    f = read_snapshot(path)
    if f.grid != grid:
        raise click.ClickException(
            f"{prefix}snapshot grid {f.grid.shape} does not match "
            f"run grid {grid.shape}")
    return f


def _source_from_cfg(cfg, grid):
    kind = _read(cfg, SourceSpec, "source", "kind")["kind"]
    if kind in ("none", "steady_balance"):
        return SourceSpec(kind)
    if kind.startswith("snapshot:"):
        f = _read_snapshot_on(kind.partition(":")[2], grid, "source ")
        return SourceSpec("custom", custom=f)
    raise click.ClickException(f"unknown source kind {kind!r}")


def _initial_field(init, mode, grid, params):
    """Initial field, and the solution when ``mode`` = (k1, k2)."""
    if init == "eigenfunction":
        sol = solve_sigma_star(*mode, params)
        return assemble_eigenfunction(sol, grid), sol
    if init.startswith("snapshot:"):
        return _read_snapshot_on(init.partition(":")[2], grid), None
    if init.startswith("mode:"):
        parts = init.partition(":")[2].split(",")
        if len(parts) not in (3, 4):
            raise click.ClickException(
                "mode init expects mode:k1,k2,k3[,amp]")
        try:
            kvec = tuple(number_literal(int, p) for p in parts[:3])
            amp = (number_literal(float, parts[3]) if len(parts) == 4
                   else _default(cosine_mode, "amplitude"))
            if not math.isfinite(amp):
                raise ValueError(f"amplitude {amp} is not finite")
        except ValueError as exc:
            raise click.ClickException(f"bad mode init {init!r}: {exc}")
        if kvec[2] == 0:
            raise click.ClickException(
                "mode init requires k3 != 0 (k3 = 0 modes carry no dynamics)")
        return cosine_mode(grid, kvec, amp), None
    raise click.ClickException(
        f"unknown init kind {init!r}; use eigenfunction, snapshot:PATH, "
        f"or mode:k1,k2,k3[,amp]")


_CONFIG = click.option("--config", "config_path", required=True,
                       type=click.Path(exists=True, dir_okay=False))


def _outdir(path):
    """Create the output directory; called only once there is output."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _config_command(name):
    """Register a command that reads --config and writes into --out."""
    out = click.option("--out", "out_dir", required=True,
                       type=click.Path(file_okay=False))
    return lambda fn: main.command(name)(_CONFIG(out(_wrap_errors(fn))))


@_config_command("evolve")
def evolve(config_path, out_dir):
    """Integrate the scalar equation from a configured initial state."""
    cfg = load_config(config_path)
    params = _phys_from_cfg(cfg)
    grid = _grid_from_cfg(cfg)
    plane_txt = get_str(cfg, "plane.q", None)
    plane = _parse_plane(plane_txt) if plane_txt else None
    restrict = get_bool(cfg, "plane.restrict", False)
    if restrict and plane is None:
        raise ConfigError("config key 'plane.restrict' needs 'plane.q'")

    scfg = SolverConfig(
        dt=get_float(cfg, "run.dt"),
        t_end=get_float(cfg, "run.t_end"),
        **_read(cfg, SolverConfig, "run",
                "scheme", "linearized", "record_every"),
        plane=plane,
        lattice=Sublattice.of_plane(plane) if restrict else grid.lattice,
        source=_source_from_cfg(cfg, grid),
    )
    init = get_str(cfg, "init.kind", "eigenfunction")
    mode = ((get_int(cfg, "init.k1"), get_int(cfg, "init.k2"))
            if init == "eigenfunction" else None)
    cfg.reject_unused()
    theta0, sol = _initial_field(init, mode, grid, params)
    for what, f in (("initial state", theta0), ("source", scfg.source.custom)):
        if restrict and f is not None and (
                (off := off_plane_norm(f, plane)) > 1e-12 * l2_norm(f)):
            raise ConfigError(
                f"config key 'plane.restrict': {off / l2_norm(f):.3g} of the "
                f"{what}'s L2 norm lies off the plane {plane}, which a "
                f"restricted run would drop")

    (final, diag), wall = _timed(run, theta0, params, scfg)

    out = _outdir(out_dir)

    write_diag_csv(diag, out / "diag.csv")
    write_snapshot(final, out / "final.snap")
    extras = {"l2_final": f"{diag.l2[-1]:.12g}",
              "linf_final": f"{diag.linf[-1]:.12g}"}
    if sol is not None:
        extras["sigma_star"] = f"{sol.sigma_star:.12g}"
    if restrict:
        extras["layout"] = str(replace(grid, lattice=scfg.lattice))
    write_manifest(out / "manifest.txt", cfg.resolved, wall_seconds=wall,
                   extras=extras)
    click.echo(f"{len(diag.times)} records; "
               f"wrote {out}/diag.csv final.snap manifest.txt")


# ---------------------------------------------------------------------------
# experiment commands


@_config_command("instability")
def instability_cmd(config_path, out_dir):
    """Grow the fastest eigenmode through the nonlinear dynamics."""
    cfg = load_config(config_path)
    params = _phys_from_cfg(cfg)
    kw = _read(cfg, instability, "instability", "box", "n", "dt", "t_end",
               "seed_rel", "fit_start", "record_every")
    cfg.reject_unused()

    rep, wall = _timed(instability, params, **kw)

    out = _outdir(out_dir)

    write_eigen_csv(rep.table, params, out / "modes.csv")
    write_diag_csv(rep.diag, out / "diag.csv")

    rel = abs(rep.fitted_rate - rep.sigma_star) / rep.sigma_star
    extras = {
        "mode": f"({rep.k1}, {rep.k2})",
        "layout": str(rep.layout),
        "sigma_star": f"{rep.sigma_star:.12g}",
        "fitted_rate": f"{rep.fitted_rate:.12g}",
        "relative_mismatch": f"{rel:.3g}",
        "r_squared": f"{rep.r_squared:.9f}",
        "fit_window": f"[{rep.fit_window[0]:g}, {rep.fit_window[1]:g}]",
        "certified_bound_max": f"{rep.lb_max:.9g} at {rep.lb_argmax}",
        "continuum_argmax": f"({rep.continuum_k[0]:.3f}, "
                            f"{rep.continuum_k[1]:.3f})",
        "continuum_bound": f"{rep.continuum_lb:.9g}",
    }
    if math.isinf(rep.continuum_lb):  # no continuum optimum at eps_kappa = 0
        del extras["continuum_argmax"], extras["continuum_bound"]
    write_manifest(out / "manifest.txt", cfg.resolved, wall_seconds=wall,
                   extras=extras)
    click.echo(f"mode ({rep.k1}, {rep.k2}): sigma* = {rep.sigma_star:.9g}, "
               f"fitted = {rep.fitted_rate:.9g} (rel {rel:.2e})")
    click.echo(f"wrote {out}/modes.csv diag.csv manifest.txt")


@_config_command("illposedness")
def illposedness_cmd(config_path, out_dir):
    """Sweep growth rates along the unbounded-wavenumber family."""
    cfg = load_config(config_path)
    params = _phys_from_cfg(cfg)
    kw = _read(cfg, illposedness_sweep, "illposedness", "j_min", "j_max")
    cfg.reject_unused()

    regime = "fractional" if params.eps_kappa > 0.0 else "nondiffusive"
    res, wall = _timed(illposedness_sweep, regime, params, **kw)

    out = _outdir(out_dir)

    write_sweep_csv(res, out / "sweep.csv")
    # the j_min the sweep used, also when the key was absent
    write_manifest(out / "manifest.txt",
                   {**cfg.resolved, "illposedness.j_min": res.j_min},
                   wall_seconds=wall,
                   extras={"verdict": res.verdict, "reason": res.reason})
    for row in res.rows:
        sig = "none" if row.sigma_star is None else f"{row.sigma_star:.9g}"
        bnd = "-" if row.bound is None else f"{row.bound:.6g}"
        tag = "certified" if row.certified else "uncertified"
        click.echo(f"j = {row.j:3d}  mode ({row.k1},{row.k2})  "
                   f"sigma* = {sig:<14} bound = {bnd:<12} {tag}")
    click.echo(f"verdict: {res.verdict} -- {res.reason}")
    click.echo(f"wrote {out}/sweep.csv manifest.txt")


@_config_command("plane-demo")
def plane_demo_cmd(config_path, out_dir):
    """Plane-confined well-posedness against an off-plane control."""
    cfg = load_config(config_path)
    plane_txt = get_str(cfg, "plane_demo.q",
                        str(_default(plane_demo, "plane")))
    kw = _read(cfg, plane_demo, "plane_demo", "gammas", "control_mode")
    if len(kw["control_mode"]) != 3:
        raise ConfigError(
            f"config key 'plane_demo.control_mode': expected 3 integers "
            f"k1, k2, k3, got {len(kw['control_mode'])}")
    kw.update(plane=_parse_plane(plane_txt),
              **_read(cfg, plane_demo, "phys", "eps_kappa", "n2", "m"),
              **_read(cfg, plane_demo, "plane_demo", "n", "dt", "t_end",
                      "seed", "record_every"))
    cfg.reject_unused()

    rep, wall = _timed(plane_demo, **kw)

    out = _outdir(out_dir)

    extras = {
        "plane": str(rep.plane),
        "plane_constant": f"{rep.plane_constant:.9g}",
        "control_mode": str(rep.control_mode),
        "control_layout": str(rep.control_layout),
        "control_off_plane_factor": f"{rep.control.departure_factor:.6g}",
        "control_fitted_rate": f"{rep.control_rate:.9g}",
        "control_sigma_star": f"{rep.control_sigma_ref:.9g}",
    }
    for arm in rep.arms:
        tag = f"gamma_{float(arm.gamma)!r}"
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
