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

A run steps and records on the layout of its sublattice, a ``fields.Grid``:
the whole lattice by default, or one a run is restricted to (a plane, or
the k1 Z x k2 Z x m Z that a seeded eigenmode lives on, which holds every
product of its modes), so nothing off the lattice is stored.  ``run``
gathers the initial coefficients (which, like every spectral array of
``fields``, hold the dealias band and nothing else) into a private stepper
that builds every factor and buffer of the run once and records from its
own state and layout alone; only the final state is scattered back onto
the grid's band.  A sublattice's right-hand side is the grid's to rounding.
On a restricted layout the right-hand sides (and a record's energy flux)
transform on its band's own sizes, ``Grid.step_shape``, which dealias
every product exactly as the grid's sizes do; a record samples the state
for its L-infinity norm, and the velocity for its CFL number, on the
layout's ``shape``, where the grid samples, so both read what a run on
the whole grid reads.

A linearized run on the whole lattice steps on the diag sublattice its data
spans instead (``_span``): s1 and s2 the gcds of |k1| and |k2| over the
nonzero coefficients of the initial data and the reference (n1 or n2 when
all of them are 0 there: that axis takes one sample), s3 the gcd of m and
their k3.  The linearized operator couples
k3 only to k3 +- m within one column (k1, k2), so a coefficient off the
span is an exact zero at every stage of the whole-band run, and every one
on it goes through the same elementwise operations: the final state is the
whole-band run's bit for bit, and the records agree to rounding.

The advection product multiplies the field by its six spectral factors
(M1, M2, M3, i k1, i k2, i k3), stacked into one array kept per layout and
N^2, and makes one stacked inverse of the six products, whose x3 pass is
one matrix product for all six, and one forward of u . grad theta.  Its
buffers are kept per layout and thread, as the transforms' work arrays
are, so no call builds them again.

The nonlinear transfer is projected onto modes with k3 != 0 each evaluation:
the velocity multiplier vanishes on the k3 = 0 plane, so those modes carry
no dynamics of their own and the evolution is kept on the zero-vertical-mean
subspace where the growth analysis lives.

Ill-posed regimes (no diffusion, or fractional dissipation of order <= 1/2)
admit mode growth rates that increase without bound in the wavenumber, so a
generic initial condition amplifies grid-scale content until the computation
is meaningless.  The stepper bounds the growth rate of every mode on the
band in advance, by Gershgorin on the linearized operator it applies, and
refuses runs whose requested horizon would amplify it beyond e^30.  A run
is bounded on its layout's band, and a plane is exempt: the multiplier
stays bounded there, and nothing off the plane is stored.
"""

import math
import threading
import warnings
from dataclasses import dataclass, field, replace
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .errors import BlowUpError, GrowthCapError
from .fields import (
    WHOLE_LATTICE,
    Grid,
    SpectralField,
    Sublattice,
    _PerShape,
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
from .symbol import PhysParams, PlaneSpec, _validate_mode

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
        """Coefficient array of the source on a grid (None when absent);
        for a custom source, its own array, not a copy."""
        if self.kind == "none":
            return None
        if self.kind == "custom":
            if self.custom.grid != grid:
                raise ValueError("custom source lives on a different grid")
            return self.custom.c
        amp = params.eps_kappa * float(params.m) ** (2.0 * params.gamma)
        return None if amp == 0.0 else sine_vertical(grid, params.m, amp).c


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters.

    The recorded norms are fixed (see ``Diagnostics``); ``plane`` only
    adds the off-plane norm as a diagnostic column.  The run steps on the
    layout of ``lattice``, the whole lattice unless restricted: the initial
    data, the source and ``run``'s reference keep only their lattice
    coefficients.  A restriction is an exact invariant of the dynamics, but
    in ill-posed regimes rounding noise seeded off a plane would otherwise
    amplify at unbounded rates and bury the confined solution.  A
    linearized run on the whole lattice steps on the diag sublattice its
    initial data and reference span, which drops nothing but exact zeros
    (see the module docstring).
    """

    dt: float
    t_end: float
    scheme: str = "if_rk4"
    linearized: bool = False
    record_every: int = 10
    plane: PlaneSpec | None = None
    lattice: Sublattice = WHOLE_LATTICE
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
        _validate_mode(record_every=self.record_every)
        if self.linearized and self.source.kind != "none":
            raise ValueError("a source term makes no sense in a linearized run")


@dataclass
class Diagnostics:
    """Time series recorded during a run, one row per record step.

    ``hs`` is the H^1 seminorm; ``layout`` is the layout the run stepped on
    (its transforms ran on ``layout.step_shape``, its samples on ``shape``).
    Unrecorded series are all NaN: ``off_plane`` without a plane,
    ``energy_residual`` when linearized, ``ref_l2`` without a reference.
    """

    times: np.ndarray
    l2: np.ndarray
    linf: np.ndarray
    hs: np.ndarray
    off_plane: np.ndarray
    energy_residual: np.ndarray
    ref_l2: np.ndarray
    layout: Grid

    SERIES = ("l2", "linf", "hs", "off_plane", "energy_residual", "ref_l2")


@lru_cache(maxsize=None)
def _advection_factors(grid, n2_phys):
    """The six spectral factors (M1, M2, M3, i k1, i k2, i k3) on the band,
    stacked into one complex array of shape ``(6, *grid.band_shape)``."""
    ik = (1j * k for k in wavenumbers(grid))
    return np.stack(np.broadcast_arrays(*multiplier_arrays(grid, n2_phys),
                                        *ik))


@lru_cache(maxsize=None)
def _advection_work(grid, thread):
    """One thread's buffers of the advection product on a layout, one set
    per sample shape (``fields._PerShape``).

    ``spec`` takes the six spectral products of ``_advection_factors``
    with the field, and ``phys`` their samples, made by one stacked
    ``inverse``; the velocity is rows 0-2 and the gradient rows 3-5.  As
    with the transforms' work arrays, no function returns one of them.
    Nothing here depends on N^2, so a sweep over N^2 adds no buffers.
    """
    return _PerShape(lambda shape: SimpleNamespace(
        spec=np.empty((6, *grid.band_shape), dtype=np.complex128),
        phys=np.empty((6, *shape))))


def velocity_max(grid, c, n2_phys):
    """Max-norm of each physical velocity component."""
    work = _advection_work(grid, threading.get_ident())[grid.shape]
    spec = np.multiply(_advection_factors(grid, n2_phys)[:3], c,
                       out=work.spec[:3])
    u = inverse(grid, spec, out=work.phys[:3])
    return tuple(float(max(uj.max(), -uj.min())) for uj in u)


def advection_coefficients(grid, c, n2_phys, out=None):
    """Dealiased coefficients of u . grad theta, restricted to k3 != 0.

    The result goes into ``out`` when given, else into a new array.  The
    field times the six factors goes through one stacked ``inverse`` into
    the work buffers, so a call given ``out`` allocates no array of the
    grid's size; the product sums u_j d_j theta in the order j = 1, 2, 3.
    """
    work = _advection_work(grid, threading.get_ident())[grid.shape]
    spec = np.multiply(_advection_factors(grid, n2_phys), c, out=work.spec)
    p = inverse(grid, spec, out=work.phys)
    p[:3] *= p[3:]
    prod = np.add(p[0], p[1], out=p[0])
    prod += p[2]
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


def _growth_cap_check(layout, params, config):
    """GrowthCapError if the horizon could amplify a mode past e^_GROWTH_CAP.

    Scaled by M3_hat^(1/2), the linearized operator is symmetric with
    off-diagonal (m/2) (M3_hat(k) M3_hat(k +- m))^(1/2) and diagonal minus
    the dissipation, so its largest Gershgorin row over k3 >= 1 bounds the
    growth of every column and every residue class of k3 mod m.  M3_hat is
    even, so `_cos_shift_sum`'s mirror read is exact on the real array.
    The rows are those of the layout the run steps on.
    """
    if params.eps_kappa > 0.0 and params.gamma > 0.5:
        return  # dissipation dominates large wavenumbers; growth is bounded
    if layout.lattice.plane is not None:
        return  # a plane's multiplier is bounded; its growth is tame
    s = np.sqrt(multiplier_arrays(layout, params.n2)[2])
    rows = _cos_shift_sum(s, params.m // layout.lattice.s3, np.empty_like(s))
    rows *= 0.5 * params.m * s
    rows -= params.eps_kappa * ksq_power(layout, params.gamma)
    sigma_max = float(rows[:, :, 1:].max())
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
    """One run on a layout's band: state, factors, buffers and records.

    The state ``c``, the source ``src`` and the reference ``ref`` (None
    when absent) are the run's own arrays on ``layout``, the layout of the
    run's lattice, whose growth cap is checked first; every factor is built
    there, and a step writes every right-hand side and stage into the
    buffers built here, so it allocates no array of the layout's size.
    The right-hand sides and the record's energy flux transform on
    ``grid``, the layout's ``stepping``; a record samples the state and
    the velocity on ``layout``, the grid's sizes.
    """

    def __init__(self, layout, params, config, c, src, ref):
        _growth_cap_check(layout, params, config)
        self.c, self.src = c, src
        self.ref = None if ref is None else SpectralField(layout, ref)
        dt = self.dt = config.dt
        self.layout, self.grid = layout, layout.stepping
        self.n2p, self.scheme = params.n2, config.scheme
        self.plane, self.rows = config.plane, []
        # the CFL number weighs max|u_j| by the layout's largest |k_j|
        self.kmax = [int(np.abs(k).max()) for k in wavenumbers(layout)]
        diss = params.eps_kappa * ksq_power(layout, params.gamma)
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
            # (a shift by m / s3 indices on the layout)
            self.shift = params.m // layout.lattice.s3
            self.v_scale = -0.5 * params.m * multiplier_arrays(
                layout, params.n2)[2]
            self.v = np.empty(layout.band_shape, dtype=np.complex128)
        # the four stage right-hand sides, then the stage input, E2 c and
        # the next state
        (*self.outs, self.stage, self.E2c, self.next) = (
            np.empty(layout.band_shape, dtype=np.complex128) for _ in range(7))

    def rhs(self, cc, out):
        """out <- the right-hand side at cc."""
        if self.linearized:
            _cos_shift_sum(np.multiply(self.v_scale, cc, out=self.v),
                           self.shift, out)
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

    def record(self, step):
        """Append the state's row at ``step``; BlowUpError if not finite."""
        t = step * self.dt
        f = SpectralField(self.layout, self.c)
        l2 = l2_norm(f)
        if not math.isfinite(l2):
            raise BlowUpError(
                f"solution lost finiteness at t = {t:g} (step {step})",
                time=t, history=self.diagnostics())
        self.rows.append((
            t, l2, linf_norm(f), hs_norm(f, 1.0),
            math.nan if self.plane is None else off_plane_norm(f, self.plane),
            math.nan if self.linearized
            else energy_flux_residual(self.grid, self.c, self.n2p),
            math.nan if self.ref is None else l2_norm(f - self.ref)))
        if not self.linearized:
            umax = velocity_max(self.layout, self.c, self.n2p)
            cfl = self.dt * sum(u * k for u, k in zip(umax, self.kmax))
            if cfl > 0.5:
                warnings.warn(
                    f"advective CFL number {cfl:.3g} exceeds 0.5 at "
                    f"t = {t:g}; consider reducing dt",
                    RuntimeWarning, stacklevel=2)

    def diagnostics(self):
        """The rows recorded so far, on the layout."""
        times, *cols = np.array(self.rows, dtype=np.float64).reshape(
            -1, 1 + len(Diagnostics.SERIES)).T
        return Diagnostics(times, *cols, layout=self.layout)


def _record_steps(config):
    """A run's record steps: 0, every ``record_every``-th, and the last."""
    nsteps = round(config.t_end / config.dt)
    return np.union1d(np.arange(0, nsteps, config.record_every), nsteps)


def _span(grid, m, *coeffs):
    """diag(s1, s2, s3), the sublattice the nonzero entries of the whole
    band arrays ``coeffs`` span: s1 and s2 the gcds of |k1| and |k2| over
    them (n1 or n2 when every one is 0 there, an axis of one sample and
    band 0), s3 = gcd(m, their k3), so s3 divides m.
    """
    on = np.logical_or.reduce([c != 0 for c in coeffs])
    s1, s2, k3 = (np.gcd.reduce(np.abs(k), axis=None, where=on, initial=0)
                  for k in np.broadcast_arrays(*wavenumbers(grid)))
    return Sublattice.diag(int(s1) or grid.n1, int(s2) or grid.n2,
                           math.gcd(m, int(k3)))


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

    The initial data, the reference and a custom source live on the whole
    grid; they are gathered onto the layout of ``config.lattice`` (the
    whole lattice unless restricted), ``diagnostics.layout``, and the final
    state is scattered back.  A linearized run on the whole lattice is
    gathered onto the layout of the diag sublattice that the initial data
    and the reference span instead, on which its final state is the whole
    band's bit for bit.  The steps transform on the layout's ``stepping``.
    """
    grid, lattice = theta0.grid, config.lattice
    if grid.lattice != WHOLE_LATTICE:
        raise ValueError(f"initial data lives on the layout {grid}, not on "
                         f"the whole grid")
    if reference is not None and reference.grid != grid:
        raise ValueError("reference field lives on a different grid")
    if params.m % lattice.s3:
        raise ValueError(f"the lattice's vertical stride {lattice.s3} does "
                         f"not divide m = {params.m}")
    if config.linearized and lattice == WHOLE_LATTICE:
        lattice = _span(grid, params.m, *(
            f.c for f in (theta0, reference) if f is not None))
    layout = replace(grid, lattice=lattice)
    src = config.source.realize(grid, params)
    stepper = _Stepper(
        layout, params, config, layout.gather(theta0.c),
        None if src is None else layout.gather(src),
        None if reference is None else layout.gather(reference.c))

    steps = _record_steps(config).tolist()
    for last, step in zip([0] + steps, steps):
        for _ in range(step - last):
            stepper.step()
        stepper.record(step)
    final = SpectralField(grid, layout.scatter(stepper.c))
    return final, stepper.diagnostics()


def _fit_window(times, t_start, t_stop):
    """Mask of ``times`` in [t_start, t_stop]; ValueError if under two."""
    sel = (times >= t_start) & (times <= t_stop)
    if np.count_nonzero(sel) < 2:
        raise ValueError(
            f"fit window [{t_start}, {t_stop}] holds fewer than two records")
    return sel


def growth_rate_fit(diag, t_start, t_stop, series="l2"):
    """Exponential growth rate of a diagnostic series over a time window.

    Fits log(series) against t by least squares and returns
    (rate, r_squared).  Raises ValueError if the series holds no finite
    value (it was not recorded), if the window holds fewer than two finite
    records, or if the series is not strictly positive there.
    """
    recorded = [s for s in Diagnostics.SERIES
                if np.isfinite(getattr(diag, s)).any()]
    if series not in recorded:
        raise ValueError(f"series {series!r} was not recorded; "
                         f"recorded: {', '.join(recorded)}")
    y = getattr(diag, series)
    t = np.where(np.isfinite(y), diag.times, np.nan)
    sel = _fit_window(t, t_start, t_stop)
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
