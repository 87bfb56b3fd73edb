"""Pseudo-spectral time integration of the active scalar equation.

The evolved quantity is the scalar theta on the periodic box, with the
velocity recovered mode-by-mode from the multiplier:

    d theta/dt + u . grad theta = -eps_kappa (-Lap)^gamma theta + S,
    u_hat(k) = M_hat(k) theta_hat(k).

Two steppers are provided.  ``if_rk4`` wraps classical RK4 in the exact
integrating factor of the dissipative part, so pure decay is reproduced to
rounding and the quartic error constant applies only to the transport term.
``imex_euler`` treats transport explicitly and dissipation implicitly; it is
first order and exists mainly as a cross-check.

The linearized right-hand side about Theta_0 = sin(m x3) is -m u3 cos(m x3).
Multiplying by cos(m x3) is an exact shift of +-m along k3, so that product
is formed by slicing the spectrum: a linearized step makes no transforms.

``run`` copies the initial coefficients (which, like every spectral array
of ``fields``, hold the dealias band and nothing else) into a private
stepper that builds every factor and buffer of the run once; each record
reads the stepper's state in place.  The advection product's buffers are
kept per grid and thread, as the transforms' work arrays are, so no call
builds them again.

A run restricted to a plane steps on the plane's own layout,
``fields.PlaneGrid``, with transforms over (s, x3), s = q_den x1 + q_num x2,
so off-plane content is never stored; each record scatters the state back
onto the grid's band.  The on-plane right-hand side is the grid's to
rounding, except that the in-band aliases a product puts off the plane
(on 2/1 at 24^3, (8, 16) lands on (8, -8)) are dropped.

The nonlinear transfer is projected onto modes with k3 != 0 each evaluation:
the velocity multiplier vanishes on the k3 = 0 plane, so those modes carry
no dynamics of their own and the evolution is kept on the zero-vertical-mean
subspace where the growth analysis lives.

Ill-posed regimes (no diffusion, or fractional dissipation of order <= 1/2)
admit mode growth rates that increase without bound in the wavenumber, so a
generic initial condition amplifies grid-scale content until the computation
is meaningless.  ``run`` estimates the largest resolvable growth rate in
advance and refuses runs whose requested horizon would amplify it beyond
e^30, unless the run is restricted to a horizontal-wavenumber plane: the
multiplier stays bounded there, and nothing off the plane is stored.
"""

import math
import threading
import time as _time
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .errors import BlowUpError, GrowthCapError
from .eigen import _closed_form_bounds
from .fields import (
    PlaneGrid,
    SpectralField,
    _conjugate_plane,
    forward,
    hs_norm,
    inverse,
    ksq_power,
    l2_norm,
    linf_norm,
    multiplier_arrays,
    off_plane_norm,
    parseval,
    sine_vertical,
    wavenumbers,
)
from .symbol import PhysParams, PlaneSpec

_GROWTH_CAP = 30.0  # refuse runs that would amplify any resolvable mode past e^30


@dataclass(frozen=True)
class SourceSpec:
    """Forcing term for the scalar equation.

    kind is one of "none", "steady_balance", "custom".  The steady balance
    source is the forcing that makes Theta_0 = sin(m x3), m = params.m, an
    exact steady state: that profile generates no velocity, so the source
    only has to offset its dissipation, S = eps_kappa m^(2 gamma) sin(m x3).
    """

    kind: str = "none"
    custom: SpectralField | None = None

    def __post_init__(self):
        if self.kind not in ("none", "steady_balance", "custom"):
            raise ValueError(f"unknown source kind {self.kind!r}")
        if self.kind == "custom" and self.custom is None:
            raise ValueError("custom source requires a field")

    def realize(self, grid, params):
        """Coefficient array of the source on a grid (None when absent)."""
        if self.kind == "none":
            return None
        if self.kind == "custom":
            if self.custom.grid != grid:
                raise ValueError("custom source lives on a different grid")
            return self.custom.c.copy()
        amp = params.eps_kappa * float(params.m) ** (2.0 * params.gamma)
        return None if amp == 0.0 else sine_vertical(grid, params.m, amp).c


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters.

    The recorded norms are fixed (see ``Diagnostics``); ``plane`` alone
    only adds the off-plane norm as a diagnostic column.
    With ``restrict_to_plane`` the run steps on the plane's own layout, so
    off-plane content is never stored (see the module docstring): the
    initial data and the source keep only their on-plane coefficients, and
    the growth cap does not apply.  The restriction is an exact invariant
    of the dynamics, but in ill-posed regimes rounding noise seeded off the
    plane would otherwise amplify at unbounded rates and bury the confined
    solution, so the invariant must be enforced rather than merely observed.
    """

    dt: float
    t_end: float
    scheme: str = "if_rk4"
    linearized: bool = False
    record_every: int = 10
    plane: PlaneSpec | None = None
    restrict_to_plane: bool = False
    source: SourceSpec = field(default_factory=SourceSpec)

    def __post_init__(self):
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not math.isfinite(self.t_end):
            raise ValueError(f"t_end must be finite, got {self.t_end}")
        if self.t_end < self.dt:
            raise ValueError("t_end must be at least one step")
        nsteps = round(self.t_end / self.dt)
        if abs(nsteps * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ValueError(
                f"t_end = {self.t_end:g} is not an integer multiple of "
                f"dt = {self.dt:g}; the nearest valid t_end is "
                f"{nsteps * self.dt:g}")
        if self.scheme not in ("if_rk4", "imex_euler"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not isinstance(self.record_every, int) or self.record_every < 1:
            raise ValueError("record_every must be a positive integer")
        if self.restrict_to_plane and self.plane is None:
            raise ValueError("restrict_to_plane requires a plane")


@dataclass
class Diagnostics:
    """Time series recorded during a run, one row per record step.

    ``hs`` is the H^1 seminorm; ``wall_seconds`` times the steps and records.
    """

    times: np.ndarray
    l2: np.ndarray
    linf: np.ndarray
    hs: np.ndarray
    off_plane: np.ndarray
    energy_residual: np.ndarray
    ref_l2: np.ndarray | None
    wall_seconds: float = 0.0

    SERIES = ("l2", "linf", "hs", "off_plane", "energy_residual", "ref_l2")


@lru_cache(maxsize=None)
def _advection_work(grid, thread):
    """The factors i k_j on the band, and one thread's buffers.

    ``spec`` takes one spectral product at a time; ``u``, ``grad`` and
    ``prod`` are the physical-space arrays of the advection product.  As
    with the transforms' work arrays, no function returns one of them.
    Nothing here depends on N^2, so a sweep over N^2 adds no buffers.
    """
    u, grad, prod = (np.empty(grid.shape) for _ in range(3))
    return SimpleNamespace(ik=tuple(1j * k for k in wavenumbers(grid)), u=u,
                           grad=grad, prod=prod,
                           spec=np.empty(grid.band_shape, dtype=np.complex128))


def velocity_max(grid, c, n2_phys):
    """Max-norm of each physical velocity component."""
    work = _advection_work(grid, threading.get_ident())
    umax = []
    for m in multiplier_arrays(grid, n2_phys):
        u = inverse(grid, np.multiply(m, c, out=work.spec), out=work.u)
        umax.append(float(max(u.max(), -u.min())))
    return tuple(umax)


def advection_coefficients(grid, c, n2_phys, out=None):
    """Dealiased coefficients of u . grad theta, restricted to k3 != 0.

    The result goes into ``out`` when given, else into a new array.  One
    velocity component at a time goes through the work buffers, so a call
    given ``out`` allocates no array of the grid's size.
    """
    work = _advection_work(grid, threading.get_ident())
    prod = work.prod
    prod.fill(0.0)
    for ik, m in zip(work.ik, multiplier_arrays(grid, n2_phys)):
        u = inverse(grid, np.multiply(m, c, out=work.spec), out=work.u)
        u *= inverse(grid, np.multiply(ik, c, out=work.spec), out=work.grad)
        prod += u
    out = forward(grid, prod, out=out)
    out[:, :, 0] = 0.0
    return out


def _cos_shift_sum(v, m, out):
    """out <- v(k3 - m) + v(k3 + m) on the band's k3 >= 0.

    These are the coefficients of 2 cos(m x3) times the field with
    coefficients v.  For k3 < m the entry v(k1, k2, k3 - m) is read from the
    conjugate mirror conj(v(-k1, -k2, m - k3)); wavevectors beyond the band
    contribute nothing.
    """
    n = v.shape[2]
    out.fill(0.0)
    if m < n:
        out[:, :, m:] = v[:, :, :n - m]
        out[:, :, :n - m] += v[:, :, m:]
    lo, hi = max(0, m - n + 1), min(m, n)
    if lo < hi:
        out[:, :, lo:hi] += _conjugate_plane(v[:, :, m - lo:m - hi:-1])
    return out


def energy_flux_residual(grid, c, n2_phys):
    """Relative defect of advective energy neutrality.

    Divergence-free transport is energy neutral, <u . grad theta, theta> = 0.
    Returns 2 <adv, theta> / ||theta||^2; for a resolved dealiased field this
    sits at the rounding floor.
    """
    nrm2 = parseval(grid, c, c)
    if nrm2 == 0.0:
        return 0.0
    adv = advection_coefficients(grid, c, n2_phys)
    return 2.0 * parseval(grid, adv, c) / nrm2


def _max_resolvable_growth(grid, params):
    """Largest closed-form upper bound on the growth rate over the band."""
    b1, b2, _ = grid.band
    k1s, k2s = np.meshgrid(np.arange(1, b1 + 1), np.arange(1, b2 + 1))
    upper = _closed_form_bounds(k1s, k2s, params)[1]
    return float(np.max(upper, initial=-math.inf))


def _growth_cap_check(theta0, params, config):
    if params.eps_kappa > 0.0 and params.gamma > 0.5:
        return  # dissipation dominates large wavenumbers; growth is bounded
    if config.restrict_to_plane:
        return  # off-plane modes are never stored; the plane's growth is tame
    sigma_max = _max_resolvable_growth(theta0.grid, params)
    if sigma_max > 0.0 and sigma_max * config.t_end > _GROWTH_CAP:
        raise GrowthCapError(
            f"requested horizon t_end = {config.t_end:g} would amplify "
            f"resolvable modes by up to e^{sigma_max * config.t_end:.1f} "
            f"(max growth rate ~ {sigma_max:.3g}); this regime is not "
            f"well-posed off a bounded-multiplier plane. Reduce t_end below "
            f"{_GROWTH_CAP / sigma_max:.3g} or confine the run to a plane.",
            sigma_max=sigma_max,
            t_max=_GROWTH_CAP / sigma_max,
        )


class _Stepper:
    """One run's time stepping on the band: state, factors and buffers.

    The state is a copy of the initial coefficients; a step writes every
    right-hand side and stage into the buffers built here, so it allocates
    no array of the grid's size.  A restricted run gathers the state and
    the source onto the plane's layout once and builds every factor there.
    """

    def __init__(self, grid, params, config, c):
        src = config.source.realize(grid, params)
        if config.linearized and src is not None:
            raise ValueError("a source term makes no sense in a linearized run")
        if config.restrict_to_plane:
            self.plane = grid = PlaneGrid(grid, config.plane)
            self.c = grid.gather(c)
            self.src = None if src is None else grid.gather(src)
        else:
            self.plane, self.c, self.src = None, c.copy(), src
        dt = self.dt = config.dt
        self.grid, self.n2p, self.scheme = grid, params.n2, config.scheme
        diss = params.eps_kappa * ksq_power(grid, params.gamma)
        if config.scheme == "if_rk4":
            self.E = E = np.exp(-dt * diss)
            self.E2 = E2 = np.exp(-0.5 * dt * diss)
            # IF-RK4 stage factors, fixed for the run
            self.half_E2, self.dt_E2 = 0.5 * dt * E2, dt * E2
            self.dt3_E2, self.dt6_E = (dt / 3.0) * E2, (dt / 6.0) * E
        else:
            self.implicit = 1.0 / (1.0 + dt * diss)
        self.linearized = config.linearized
        if config.linearized:
            # -m u3 cos(m x3) = v(k3 - m) + v(k3 + m), v = -(m/2) M3_hat theta_hat
            self.m = params.m
            self.v_scale = -0.5 * self.m * multiplier_arrays(
                grid, params.n2)[2]
            self.v = np.empty(grid.band_shape, dtype=np.complex128)
        # the four stage right-hand sides, then the stage input, E2 c and
        # the next state
        (*self.outs, self.stage, self.E2c, self.next) = (
            np.empty(grid.band_shape, dtype=np.complex128) for _ in range(7))

    def state(self):
        """The state on the grid's band (a new array for a restricted run)."""
        return self.c if self.plane is None else self.plane.scatter(self.c)

    def rhs(self, cc, out):
        """out <- the right-hand side at cc."""
        if self.linearized:
            _cos_shift_sum(np.multiply(self.v_scale, cc, out=self.v), self.m,
                           out)
            out[:, :, 0] = 0.0
            return out
        advection_coefficients(self.grid, cc, self.n2p, out=out)
        np.negative(out, out=out)
        if self.src is not None:
            out += self.src
        return out

    def step(self):
        c, nxt, dt, outs = self.c, self.next, self.dt, self.outs
        if self.scheme == "if_rk4":
            # stage inputs E2 c + dt/2 E2 n1, E2 c + dt/2 n2, E c + dt E2 n3;
            # c <- E c + dt/6 E n1 + dt/3 E2 (n2 + n3) + dt/6 n4
            E2c, stage = np.multiply(self.E2, c, out=self.E2c), self.stage
            np.multiply(self.E, c, out=nxt)
            n1 = self.rhs(c, outs[0])
            np.multiply(self.half_E2, n1, out=stage)
            stage += E2c
            n2 = self.rhs(stage, outs[1])
            np.multiply(n2, 0.5 * dt, out=stage)
            stage += E2c
            n3 = self.rhs(stage, outs[2])
            np.multiply(self.dt_E2, n3, out=stage)
            stage += nxt
            n4 = self.rhs(stage, outs[3])
            n2 += n3
            n2 *= self.dt3_E2
            n1 *= self.dt6_E
            n1 += n2
            n4 *= dt / 6.0
            n1 += n4
            nxt += n1
        else:  # imex_euler
            r = self.rhs(c, outs[0])
            r *= dt
            r += c
            np.multiply(self.implicit, r, out=nxt)
        self.c, self.next = nxt, c


def run(theta0, params, config, reference=None):
    """Integrate the scalar equation; returns (final field, diagnostics).

    Parameters
    ----------
    theta0 : SpectralField
        Initial data (never mutated).
    params : PhysParams
    config : SolverConfig
    reference : SpectralField, optional
        When given, the L2 distance to this fixed field is recorded as an
        extra diagnostic column (used to track the departure from a steady
        state).
    """
    grid = theta0.grid
    if reference is not None and reference.grid != grid:
        raise ValueError("reference field lives on a different grid")
    _growth_cap_check(theta0, params, config)

    dt = config.dt
    nsteps = round(config.t_end / dt)
    stepper = _Stepper(grid, params, config, theta0.c)
    n2p = params.n2

    rows = []  # per record: t, then the values of Diagnostics.SERIES

    def record(step):
        t = step * dt
        f = SpectralField(grid, stepper.state())
        l2 = l2_norm(f)
        if not math.isfinite(l2):
            raise BlowUpError(
                f"solution lost finiteness at t = {t:g} (step {step})",
                time=t,
                history=_finalize(rows, reference, 0.0),
            )
        rows.append((
            t, l2, linf_norm(f), hs_norm(f, 1.0),
            off_plane_norm(f, config.plane) if config.plane is not None
            else math.nan,
            math.nan if config.linearized
            else energy_flux_residual(grid, f.c, n2p),
            l2_norm(f - reference) if reference is not None else math.nan))
        if not config.linearized:
            umax = velocity_max(grid, f.c, n2p)
            cfl = dt * sum(u * b for u, b in zip(umax, grid.band))
            if cfl > 0.5:
                warnings.warn(
                    f"advective CFL number {cfl:.3g} exceeds 0.5 at "
                    f"t = {t:g}; consider reducing dt",
                    RuntimeWarning, stacklevel=2)

    wall0 = _time.perf_counter()
    record(0)
    for step in range(1, nsteps + 1):
        stepper.step()
        if step % config.record_every == 0 or step == nsteps:
            record(step)
    wall = _time.perf_counter() - wall0

    diag = _finalize(rows, reference, wall)
    return SpectralField(grid, stepper.state()), diag


def _finalize(rows, reference, wall):
    times, *cols = np.array(rows, dtype=np.float64).reshape(
        -1, 1 + len(Diagnostics.SERIES)).T
    series = dict(zip(Diagnostics.SERIES, cols))
    if reference is None:
        series["ref_l2"] = None
    return Diagnostics(times, **series, wall_seconds=wall)


def growth_rate_fit(diag, t_start, t_stop, series="l2"):
    """Exponential growth rate of a diagnostic series over a time window.

    Fits log(series) against t by least squares and returns
    (rate, r_squared).  Raises ValueError if the window holds fewer than two
    records or the series is not strictly positive there.
    """
    y = getattr(diag, series) if series in Diagnostics.SERIES else None
    if y is None:
        recorded = ", ".join(
            s for s in Diagnostics.SERIES if getattr(diag, s) is not None)
        raise ValueError(
            f"series {series!r} was not recorded; recorded: {recorded}")
    t = diag.times
    sel = (t >= t_start) & (t <= t_stop) & np.isfinite(y)
    if np.count_nonzero(sel) < 2:
        raise ValueError(
            f"fit window [{t_start}, {t_stop}] holds fewer than two records")
    ysel = y[sel]
    if np.any(ysel <= 0.0):
        raise ValueError("series must be strictly positive for a log fit")
    tsel = t[sel]
    logy = np.log(ysel)
    slope, intercept = np.polyfit(tsel, logy, 1)
    pred = slope * tsel + intercept
    ss_res = float(np.sum((logy - pred) ** 2))
    ss_tot = float(np.sum((logy - np.mean(logy)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), r2
