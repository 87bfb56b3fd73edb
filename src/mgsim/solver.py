"""Pseudo-spectral time integration of the active scalar equation.

The evolved quantity is the scalar theta on the periodic box, with the
velocity recovered mode-by-mode from the multiplier:

    d theta/dt + u . grad theta = -eps_kappa (-Lap)^gamma theta + S,
    u_hat(k) = M_hat(k) theta_hat(k).

Two steppers are provided.  ``if_rk4`` wraps classical RK4 in the exact
integrating factor of the dissipative part, so pure decay is reproduced to
rounding and the quartic error constant applies only to the transport term.
``imex_euler`` treats transport explicitly and dissipation implicitly; it is
first order and exists mainly as a cross-check.  Their factors are stored
complex, as the state, so no step casts a real operand.

A run steps and records on the layout of its sublattice, a ``fields.Grid``:
the whole lattice by default, or one a run is restricted to (a plane, or
the k1 Z x k2 Z x m Z that a seeded eigenmode lives on, which holds every
product of its modes), so nothing off the lattice is stored.
``run_stack`` gathers the initial coefficients (which, like every
spectral array of ``fields``, hold the dealias band and nothing else) into
a private stepper that builds every factor and buffer of the run once and
records from its own states and layout alone; only the final states are
scattered back onto the grid's band.  A sublattice's right-hand side is
the grid's to rounding: a restricted layout samples on its band's own
sizes, which dealias every product exactly as the grid's sizes do.  A
record reads the same samples (see ``Diagnostics``).

Every run is a stack: ``run_stack`` steps runs that share a layout as
one, their states and buffers on a leading member axis, so numpy's
per-call cost, most of a small layout's step, is paid once for all of
them; each member's output is its own run's bit for bit, and ``run`` is
the one-member stack (README, "Numerical notes").

The linearized right-hand side about Theta_0 = sin(m x3), -m u3 cos(m x3),
is an exact shift of +-m along k3, sliced with no transform, that couples k3
only within a column (k1, k2) and its conjugate mirror.  A linearized run
reads its step as real p3 x p3 matrices per column (``step_map``), sparse
(a step moves a spike at most 4 shifts along k3, 1 for IMEX, so only
within its class +-k3 mod the shift), so one step probes every k3 whose
rows do not meet, and at shift 1, where the map is real, one state
probes two such groups, one in each part; it goes from record to record by
the map's powers, to rounding of its steps.  On the whole lattice it runs
on the diag sublattice its data spans (``_span``): s1, s2 the gcds of
|k1|, |k2| over the nonzero coefficients of the initial data and the
reference (n1 or n2 when all are 0: that axis takes one sample), s3 the
gcd of m and their k3.  Off the span a whole-band step holds exact zeros
and on it the same operations: the map's columns are the whole band's,
bitwise.

The advection product multiplies the field by its six spectral factors
(M1, M2, M3, i k1, i k2, i k3), held in one array, and makes one
inverse pass of the six products as a stack, whose x3 pass is one matrix
product for all six, and one forward pass of u . grad theta.  The product
(``_Advection``) owns its factors, buffers and passes; a run builds one,
and a record reads its energy flux and velocity maxima from one more call
of it, and samples each member for its L-inf norm into a gradient row
that call leaves free.

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

import copy
import math
import sys
import warnings
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .errors import BlowUpError, GrowthCapError
from .fields import (
    WHOLE_LATTICE,
    Grid,
    SpectralField,
    Sublattice,
    _Passes,
    _conjugate_plane,
    _mirror,
    hs_norm,
    ksq_power,
    l2_norm,
    linf_norm,
    multiplier_arrays,
    off_plane_norm,
    parseval,
    sine_vertical,
    wavenumbers,
)
from .symbol import PlaneSpec, _validate_mode

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
    amplify at unbounded rates and bury the confined solution.
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

    ``hs`` is the H^1 seminorm; ``layout`` is the layout the run stepped on.
    ``linf``, and the velocity maxima behind the CFL warning (the velocity
    rows of the advection product behind ``energy_residual``), read the
    samples the steps transform, so on a restricted layout they can read
    below the grid's maxima (by up to 4.9 %; README, "Numerical notes").
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


def _advection_factors(grid, n2_phys):
    """The six spectral factors (M1, M2, M3, i k1, i k2, i k3) on the band,
    as one complex array of shape ``(6, *grid.band_shape)``."""
    ik = (1j * k for k in wavenumbers(grid))
    return np.stack(np.broadcast_arrays(*multiplier_arrays(grid, n2_phys),
                                        *ik))


class _Advection:
    """The advection product on a layout at N^2 = ``n2_phys``, of one field
    or, with ``lead`` (S,), of a stack of S, with its own ``factors``
    (``_advection_factors``), passes and buffers: ``spec`` takes the field
    times the factors and ``phys`` their samples, in one pass, the
    factor axis ahead of the members so that each row is contiguous; u_j
    d_j theta overwrites the gradient rows 3-5, so ``u`` (rows 0-2) keeps
    u's samples.  The forward pass skips ``forward``'s Hermitian fix: it
    zeroes k3 = 0.
    """

    def __init__(self, grid, n2_phys, lead=()):
        self.factors = _advection_factors(grid, n2_phys).reshape(
            6, *(1 for _ in lead), *grid.band_shape)
        self.spec = np.empty((6, *lead, *grid.band_shape), np.complex128)
        self.phys = p = np.empty((6, *lead, *grid.shape))
        self.u, self.grad, self.g0, self.g1, self.g2 = p[:3], p[3:], *p[3:]
        self.stack = _Passes(grid, (6, *lead))
        self.field = _Passes(grid, lead)

    def __call__(self, c, out):
        self.stack.to_samples(np.multiply(self.factors, c, out=self.spec),
                              self.phys)
        self.grad *= self.u
        np.add(self.g0, self.g1, out=self.g0)
        self.g0 += self.g2
        self.field.to_band(self.g0, out)
        out[..., 0] = 0.0
        return out


def velocity_max(u):
    """Max-norm of each velocity component, from its samples ``u``."""
    return tuple(float(max(uj.max(), -uj.min())) for uj in u)


def advection_coefficients(grid, c, n2_phys):
    """Dealiased coefficients of u . grad theta, restricted to k3 != 0, in a
    new array, by an ``_Advection`` built for the call."""
    return _Advection(grid, n2_phys)(
        c, np.empty(grid.band_shape, np.complex128))


def _cos_shift_sum(v, s, out):
    """out <- v(k3 - s) + v(k3 + s) on the band's k3 >= 1, and 0 at k3 = 0.

    These are the coefficients of 2 cos(s x3) times the field (or stack,
    on its last axes) v, off the k3 = 0 plane that no caller reads.  For
    1 <= k3 < s the entry v(k1, k2, k3 - s) is read from the conjugate
    mirror conj(v(-k1, -k2, s - k3)), so shift 1 reads no mirror;
    wavevectors beyond the band contribute nothing.
    """
    n = v.shape[-1]
    out[..., :min(s, n)] = 0.0
    if s < n:
        out[..., s:] = v[..., :n - s]
        out[..., 1:n - s] += v[..., s + 1:]
    lo, hi = max(1, s - n + 1), min(s, n)
    if lo < hi:
        out[..., lo:hi] += _conjugate_plane(v[..., s - lo:s - hi:-1])
    return out


def energy_flux_residual(grid, c, adv):
    """Relative defect of advective energy neutrality.

    Divergence-free transport is energy neutral, <u . grad theta, theta> = 0.
    Returns 2 <adv, theta> / ||theta||^2 for theta = ``c`` and its product
    ``adv``; for a resolved dealiased field this sits at the rounding floor.
    """
    nrm2 = parseval(grid, c, c)
    return 0.0 if nrm2 == 0.0 else 2.0 * parseval(grid, adv, c) / nrm2


def _growth_cap_check(layout, params, config):
    """GrowthCapError if the horizon could amplify a mode past e^_GROWTH_CAP.

    Scaled by M3_hat^(1/2), the linearized operator is symmetric with
    off-diagonal (m/2) (M3_hat(k) M3_hat(k +- m))^(1/2) and diagonal minus
    the dissipation, so its largest Gershgorin row over k3 >= 1 bounds the
    growth of every column and every residue class of k3 mod m.  M3_hat is
    even, so `_cos_shift_sum`'s mirror read is exact on the real array; the
    rows read are its k3 >= 1, where it is defined, on the layout the run
    steps on.
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


def _compose(f, g, out, prod):
    """The step map g after f, each (A, B) of ``_Stepper.step_map``, into
    ``out``, with ``prod`` for the mirror products; the (k1, k2) axes are
    read from the end, so a stack's maps compose member by member."""
    (A1, B1), (A2, B2), (A, B) = f, g, out
    np.matmul(A2, A1, out=A)
    if B1 is None:
        return A, None
    i1, i2 = _mirror(*A1.shape[-4:-2])
    A += np.matmul(B2, B1[..., i1, i2, :, :], out=prod)
    np.matmul(A2, B1, out=B)
    B += np.matmul(B2, A1[..., i1, i2, :, :], out=prod)
    return A, B


def _map_power(f, g):
    """The g-th power (g >= 1) of the step map f, by binary powering into
    two maps of its own, in turn."""
    power, prod = f, None if f[1] is None else np.empty_like(f[0])
    out, spare = ([None if x is None else np.empty_like(x) for x in f]
                  for _ in range(2))
    for bit in bin(g)[3:]:  # from the leading bit of g down
        power = _compose(power, power, out, prod)
        out, spare = spare, out
        if bit == "1":
            power = _compose(power, f, out, prod)
            out, spare = spare, out
    return power


def _pairs(c):
    """The (re, im) pairs of a complex array, a real view (*c.shape, 2)."""
    return c.view(np.float64).reshape(*c.shape, 2)


@lru_cache(maxsize=None)
def _probe_plan(p3, shift, hops, channels):
    """The steps that probe a linearized step map of ``hops`` right-hand
    sides, each a shift by ``shift``, on p3 k3 rows, each (spike, rows,
    cols, parts): a unit spike on the k3 of at most ``channels`` groups,
    1 on the first and 1j on the second, and the (row, column) entries of
    the map read from the response's real (part 0) or imaginary (1) part.
    Spike q reaches the rows |q + j shift|, |j| <= hops, in the band (a row
    below 0 is read from the mirror), so only rows = +-q mod shift; the
    groups take q in turn into the first group whose rows it does not
    meet."""
    groups = []  # [rows reached, rows read, columns read]
    for q in range(p3):
        rows = sorted({r for j in range(-hops, hops + 1)
                       if (r := abs(q + j * shift)) < p3})
        group = next((g for g in groups if g[0].isdisjoint(rows)), None)
        if group is None:
            groups.append(group := [set(), [], []])
        group[0].update(rows)
        group[1] += rows
        group[2] += [q] * len(rows)
    probes = []
    for i in range(0, len(groups), channels):
        spike, rows, cols, parts = np.zeros(p3, np.complex128), [], [], []
        for part, (_, read, spiked) in enumerate(groups[i:i + channels]):
            spike[spiked] = (1.0, 1j)[part]
            rows += read
            cols += spiked
            parts += [part] * len(read)
        probes.append((spike, *map(np.array, (rows, cols, parts))))
    return probes


class _Stepper:
    """A stack of runs on a layout's band: state, factors, buffers, records.

    With a sequence of S ``params`` it steps S members (``run_stack``):
    the state ``c``, the source ``src`` and the dissipation and stage
    factors hold them on a leading axis, which the shared advection
    factors and ``v_scale`` broadcast over, and each member has its growth
    cap, rows and messages, and its distance to the one reference ``ref``
    (None when absent).  Every array is the run's own on ``layout``, the
    layout of the run's lattice; every factor is built there, and a step
    writes every right-hand side and stage into the buffers built here,
    only those its scheme and path read, so it allocates no array of the
    layout's size.  A linearized run, which only applies its step map
    (``advance``), binds ``next`` alone, and steps through a copy from
    ``stepping``.  Every factor is complex128.  A nonlinear run's
    right-hand sides and records run the one ``_Advection`` built here,
    which goes with the run.
    """

    def __init__(self, layout, params, config, c, src, ref):
        members = list(params)
        # how a message names each member: a one-member run's, not at all
        self.named = [f" in member {i}" if len(members) > 1 else ""
                      for i in range(len(members))]
        for member in members:
            _growth_cap_check(layout, member, config)
        shared = members[0]  # N^2 and m, which the members share
        self.src = src
        self.ref = None if ref is None else SpectralField(layout, ref)
        dt = self.dt = config.dt
        self.layout, self.scheme = layout, config.scheme
        self.plane, self.rows = config.plane, [[] for _ in members]
        # the CFL number weighs max|u_j| by the layout's largest |k_j|
        self.kmax = [int(np.abs(k).max()) for k in wavenumbers(layout)]

        disss = [p.eps_kappa * ksq_power(layout, p.gamma) for p in members]

        def factor(f):  # each member's factor, computed on its own
            return np.stack([f(diss).astype(np.complex128) for diss in disss])

        if config.scheme == "if_rk4":
            self.E = E = factor(lambda diss: np.exp(-dt * diss))
            self.E2 = E2 = factor(lambda diss: np.exp(-0.5 * dt * diss))
            # IF-RK4 stage factors, fixed for the run
            self.half_E2, self.dt_E2 = 0.5 * dt * E2, dt * E2
            self.dt3_E2, self.dt6_E = (dt / 3.0) * E2, (dt / 6.0) * E
        else:
            self.implicit = factor(lambda diss: 1.0 / (1.0 + dt * diss))
        self.linearized = config.linearized
        if not config.linearized:
            self.advect = _Advection(layout, shared.n2, (len(members),))
        else:
            # -m u3 cos(m x3) = v(k3 - m) + v(k3 + m), v = -(m/2) M3_hat theta_hat
            # (a shift by m / s3 indices on the layout), v_scale with a member
            # axis of 1, by which numpy multiplies a stack faster than without
            self.shift = shared.m // layout.lattice.s3
            self.v_scale = (-0.5 * shared.m * multiplier_arrays(
                layout, shared.n2)[2]).astype(np.complex128)[None]
            # a step moves a spike a shift per right-hand side; at shift 1
            # the map is real, so one state probes a group in each part
            self.probes = _probe_plan(
                layout.band_shape[2], self.shift,
                4 if config.scheme == "if_rk4" else 1,
                2 if self.shift == 1 else 1)
            self.powers = {}  # steps -> the step map's power (advance)
        # L-inf reads one member at a time, a nonlinear run's samples into a
        # gradient row of the advection product, free at record time
        self.passes = _Passes(layout, ())
        self.samples = (np.empty(layout.shape) if config.linearized
                        else self.advect.g0[0])
        # a linearized run only applies its map (advance), into ``next``
        self._bind(c, stepping=not config.linearized)

    def _bind(self, c, stepping=True):
        """Hold the stack ``c`` with new buffers shaped like it: those its
        scheme and path read to ``step`` it, or, not ``stepping``, only
        ``next`` (no right-hand side buffer in ``outs``)."""
        self.c, rk4 = c, self.scheme == "if_rk4"
        made = ([True] * (4 if rk4 else 1) + [rk4, rk4, True, self.linearized]
                if stepping else [False, False, True, False])
        *self.outs, self.stage, self.E2c, self.next, self.v = (
            np.empty_like(c, dtype=np.complex128) if m else None for m in made)

    def stepping(self, c):
        """A copy of this stepper that steps the stack ``c`` in buffers of
        its own: how a linearized run's map is probed, and how a caller
        steps a linearized run."""
        stepper = copy.copy(self)
        stepper._bind(c)
        return stepper

    def rhs(self, cc, out):
        """out <- the right-hand side at cc.  The advection product and
        the linearized sum (`_cos_shift_sum`) are both 0 at k3 = 0."""
        if self.linearized:
            return _cos_shift_sum(np.multiply(self.v_scale, cc, out=self.v),
                                  self.shift, out)
        self.advect(cc, out)
        if self.src is None:
            return np.negative(out, out=out)
        return np.subtract(self.src, out, out=out)

    def step_map(self):
        """(A, B), a linearized step c_j <- A_j c_j + B_j conj(c_mirror(j))
        in real p3 x p3 matrices per column j (B None when 0), probed in
        the steps of ``probes`` (``_probe_plan``).  A group spikes its k3
        in every column at once, and column q is read on the rows its own
        spike reaches, which no other spike of its step reaches (Curtis,
        Powell & Reid 1974), and 0 off them.  From shift 2 on a step is a
        2-state stack, a real and an imaginary unit spike, and column q is
        (R +- I) / 2 of the responses R and I.  At shift 1 (no mirror, B
        0) every factor of a step has an imaginary part of exactly 0, so a
        state's real and imaginary parts step apart: it spikes one group
        with 1 and one with 1j, and column q is the response's part of its
        own group."""
        p3, real = self.c.shape[-1], self.shift == 1
        spikes = self.stepping(np.empty(
            self.c.shape if real else (2, *self.c.shape), np.complex128))
        A = np.zeros((*self.c.shape, p3))
        B = None if real else np.zeros_like(A)
        for spike, rows, cols, parts in self.probes:
            if real:
                spikes.c[...] = spike
                spikes.step()
                A[..., rows, cols] = _pairs(spikes.c)[..., rows, parts]
            else:
                spikes.c[0], spikes.c[1] = spike, 1j * spike
                spikes.step()
                R, I = spikes.c[0].real[..., rows], spikes.c[1].imag[..., rows]
                A[..., rows, cols] = (R + I) / 2.0
                B[..., rows, cols] = (R - I) / 2.0
        return A, B if B is not None and B.any() else None

    def advance(self, steps):
        """Make ``steps`` steps; a linearized run applies its step map's
        power (one per distinct ``steps``) as batched real matmuls."""
        if not self.linearized:
            for _ in range(steps):
                self.step()
        elif steps:
            if not self.powers:
                self.powers[1] = self.step_map()
            if steps not in self.powers:
                self.powers[steps] = _map_power(self.powers[1], steps)
            (A, B), c = self.powers[steps], self.c
            nxt = np.matmul(A, _pairs(c), out=_pairs(self.next))
            if B is not None:
                nxt += B @ _pairs(_conjugate_plane(c))
            self.c, self.next = self.next, self.c

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
        """Append each member's row at ``step``, reading one call of the
        run's advection product when nonlinear; BlowUpError, with that
        member's rows, if a member's state is not finite."""
        t = step * self.dt
        fields = [SpectralField(self.layout, c) for c in self.c]
        l2s = [l2_norm(f) for f in fields]
        for i, l2 in enumerate(l2s):
            if not math.isfinite(l2):
                raise BlowUpError(
                    f"solution lost finiteness{self.named[i]} at t = {t:g} "
                    f"(step {step})", time=t, history=self.diagnostics(i))
        fluxes, cfls = [math.nan] * len(fields), [0.0] * len(fields)
        if not self.linearized:  # into the next buffer, free between steps
            advs = self.advect(self.c, self.next)
            for i, (f, adv) in enumerate(zip(fields, advs)):
                fluxes[i] = energy_flux_residual(self.layout, f.c, adv)
                umax = velocity_max(self.advect.u[:, i])
                cfls[i] = self.dt * sum(u * k for u, k in zip(umax, self.kmax))
        for i, (f, rows) in enumerate(zip(fields, self.rows)):
            rows.append((
                t, l2s[i], linf_norm(f, self.passes, self.samples),
                hs_norm(f, 1.0),
                math.nan if self.plane is None else off_plane_norm(
                    f, self.plane),
                fluxes[i],
                math.nan if self.ref is None else l2_norm(f - self.ref)))
            if cfls[i] > 0.5:  # pointed at the first caller outside mgsim
                level, frame = 1, sys._getframe()
                while (frame.f_back is not None and frame.f_globals.get(
                        "__name__", "").startswith(f"{__package__}.")):
                    level, frame = level + 1, frame.f_back
                warnings.warn(
                    f"advective CFL number {cfls[i]:.3g} exceeds 0.5 at "
                    f"t = {t:g}{self.named[i]}; consider reducing dt",
                    RuntimeWarning, stacklevel=level)

    def diagnostics(self, member=0):
        """The rows of ``member`` recorded so far, on the layout."""
        times, *cols = np.array(self.rows[member], dtype=np.float64).reshape(
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

    This is ``run_stack`` of one member, which says where it steps.
    """
    return run_stack([theta0], [params], config, reference)[0]


def run_stack(thetas, params, config, reference=None):
    """Integrate several runs on one layout as one stack; returns one
    (final field, diagnostics) pair per member, in order.

    The initial data, the reference and a custom source live on the whole
    grid; they are gathered onto the layout of ``config.lattice`` (the
    whole lattice unless restricted), ``diagnostics.layout``, and the final
    states are scattered back.  A linearized run on the whole lattice is
    gathered onto the layout of the diag sublattice that every member's
    initial data and the reference span instead, and every linearized run
    advances by powers of its one-step map, to rounding of its steps
    (module docstring).

    Member i is ``run(thetas[i], params[i], config, reference)``, bit for
    bit where that run steps on the stack's layout.  The members share the
    grid, N^2 and m (ValueError otherwise) and may differ in eps_kappa,
    gamma and initial data.  A ``BlowUpError`` carries its member's rows,
    and in a stack of several names that member.
    """
    thetas, params = list(thetas), list(params)
    if not thetas or len(params) != len(thetas):
        raise ValueError(f"a stack takes one PhysParams per initial field, "
                         f"got {len(params)} for {len(thetas)}")
    grid, lattice = thetas[0].grid, config.lattice
    if grid.lattice != WHOLE_LATTICE:
        raise ValueError(f"initial data lives on the layout {grid}, not on "
                         f"the whole grid")
    if any(theta.grid != grid for theta in thetas):
        raise ValueError("the members' initial data live on different grids")
    if reference is not None and reference.grid != grid:
        raise ValueError("reference field lives on a different grid")
    shared = sorted({(p.n2, p.m) for p in params})
    if len(shared) > 1:
        raise ValueError(f"the members of a stack share N^2 and m, got "
                         f"(n2, m) = {', '.join(map(str, shared))}")
    m = params[0].m
    if m % lattice.s3:
        raise ValueError(f"the lattice's vertical stride {lattice.s3} does "
                         f"not divide m = {m}")
    if config.linearized and lattice == WHOLE_LATTICE:
        lattice = _span(grid, m, *(
            f.c for f in (*thetas, reference) if f is not None))
    layout = replace(grid, lattice=lattice)
    srcs = [config.source.realize(grid, p) for p in params]
    # a member without a source subtracts -0, and -0 - x is -x to the bit
    src = None if all(s is None for s in srcs) else np.stack([
        np.full(layout.band_shape, complex(-0.0, -0.0)) if s is None
        else layout.gather(s) for s in srcs])
    stepper = _Stepper(
        layout, params, config,
        np.stack([layout.gather(theta.c) for theta in thetas]), src,
        None if reference is None else layout.gather(reference.c))

    steps = _record_steps(config).tolist()
    for last, step in zip([0] + steps, steps):
        stepper.advance(step - last)
        stepper.record(step)
    return [(SpectralField(grid, layout.scatter(c)), stepper.diagnostics(i))
            for i, c in enumerate(stepper.c)]


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
