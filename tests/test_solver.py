"""Tests for the time integrator: exactness, invariants, guard rails."""

import collections
import copy
import gc
import math
import re
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mgsim.errors import BlowUpError, GrowthCapError
from mgsim.symbol import PhysParams, symbol_components
import mgsim.fields
import mgsim.solver
from mgsim.fields import (
    WHOLE_LATTICE, Grid, PlaneSpec, SpectralField, Sublattice, cosine_mode,
    dealias_mask, forward, inverse, ksq_array, l2_norm, linf_norm,
    multiplier_arrays, off_plane_norm, plane_mask, sine_vertical, wavenumbers,
)
from mgsim.eigen import (
    _closed_form_bounds, assemble_eigenfunction, optimize_growth,
    solve_sigma_star,
)
from mgsim.solver import (
    Diagnostics,
    SolverConfig,
    SourceSpec,
    _Advection,
    _Stepper,
    _advection_factors,
    _cos_shift_sum,
    _growth_cap_check,
    _record_steps,
    advection_coefficients,
    energy_flux_residual,
    growth_rate_fit,
    run,
    run_stack,
    velocity_max,
)

G16 = Grid(16, 16, 16)
G24 = Grid(24, 24, 24)


def _rich_field(grid, seed=7):
    """A zero-vertical-mean multi-mode field for nonlinear exercises."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(grid.shape)
    f = SpectralField(grid, forward(grid, v))
    f.c[:, :, 0] = 0.0
    return f


class TestSourceSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SourceSpec("bogus")
        with pytest.raises(ValueError):
            SourceSpec("custom")

    def test_steady_balance_coefficient(self):
        par = PhysParams(m=2, eps_kappa=0.1, gamma=0.5)
        src = SourceSpec("steady_balance").realize(G16, par)
        # amplitude eps * m^(2 gamma) = 0.1 * 2, spectral entry -i/2 of that
        assert src[0, 0, 2] == -0.5j * 0.2
        assert np.count_nonzero(src) == 1

    def test_steady_balance_without_dissipation_is_empty(self):
        assert SourceSpec("steady_balance").realize(G16, PhysParams()) is None


class TestSolverConfig:
    @pytest.mark.parametrize("kw", [
        dict(dt=0.0, t_end=1.0),
        dict(dt=0.1, t_end=0.05),
        dict(dt=0.1, t_end=1.0, scheme="rk99"),
        dict(dt=0.1, t_end=1.0, record_every=0),
        dict(dt=math.nan, t_end=1.0),
        dict(dt=0.1, t_end=math.inf),
    ])
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            SolverConfig(**kw)

    def test_rejects_fractional_step_count(self):
        # 1.0 / 0.3 steps used to be rounded silently to 3, ending at 0.9
        with pytest.raises(ValueError, match="nearest valid t_end is 0.9"):
            SolverConfig(dt=0.3, t_end=1.0)

    def test_accepts_step_count_up_to_rounding(self):
        # 0.1 * 3 != 0.3 in binary; the step count is still exactly 3
        assert SolverConfig(dt=0.1, t_end=0.3).t_end == 0.3


@pytest.mark.parametrize("make", [
    lambda: PhysParams(m=True),
    lambda: PlaneSpec(True, 1),
    lambda: SolverConfig(dt=0.1, t_end=1.0, record_every=True),
    lambda: optimize_growth(PhysParams(), box="3"),
], ids=["m", "plane", "record_every", "box"])
def test_integer_inputs_refuse_bool_and_str(make):
    with pytest.raises(ValueError):
        make()


class TestVelocity:
    def test_divergence_free_and_real(self):
        f = _rich_field(G16)
        K1, K2, K3 = wavenumbers(G16)
        u1, u2, u3 = (m * f.c for m in multiplier_arrays(G16, 1.0))
        div = K1 * u1 + K2 * u2 + K3 * u3
        scale = max(np.max(np.abs(u1)), np.max(np.abs(u3)))
        assert np.max(np.abs(div)) < 1e-13 * (1.0 + scale) * 16


def _reference_advection(grid, c, n2):
    """u . grad theta through unpruned numpy transforms."""
    mask = dealias_mask(grid)

    def inv(a):  # the band embedded in numpy's full rfftn layout
        full = np.zeros(grid.spectral_shape, dtype=np.complex128)
        full[mask] = a.ravel()
        return np.fft.irfftn(full, s=grid.shape, axes=(0, 1, 2),
                             norm="forward")
    prod = sum(inv(m * c) * inv(1j * k * c) for k, m in
               zip(wavenumbers(grid), multiplier_arrays(grid, n2)))
    out = np.fft.rfftn(prod, norm="forward")[mask].reshape(grid.band_shape)
    out[:, :, 0] = 0.0  # the k3 = 0 plane is dropped, symmetric or not
    return out


@pytest.mark.parametrize("shape", [(16, 32, 24), (8, 10, 30), (48, 48, 48)])
def test_advection_matches_unpruned_reference(shape):
    grid = Grid(*shape)
    c = _rich_field(grid).c
    ref = _reference_advection(grid, c, 1.3)
    got = advection_coefficients(grid, c, 1.3)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_warm_step_allocates_no_grid_array():
    # a stepper's IF-RK4 step writes every right-hand side and stage into
    # buffers it holds, and the six factors' products and samples go
    # through its advection product's buffers; the buffer numpy's multiply
    # takes for the broadcast field has a fixed size (about 116 KB), well
    # under one array of the grid at 48^3
    grid = Grid(48, 48, 48)
    stepper = _Stepper(grid, [PhysParams(eps_kappa=0.02)],
                       SolverConfig(dt=0.01, t_end=0.01),
                       _rich_field(grid).c[None], None, None)
    stepper.step()  # warms numpy's own buffers
    tracemalloc.start()
    try:
        stepper.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < np.empty(grid.shape).nbytes


@pytest.mark.parametrize("members", [1, 3], ids=["run", "stack3"])
def test_run_leaves_no_scratch_behind(members):
    # a run's passes, advection product and buffers go with it, a stack's
    # too: what a whole-grid nonlinear run at 48^3 leaves allocated is the
    # caches of read-only arrays (the DFT matrices, the multipliers), about
    # one array of the grid's samples, not its work arrays (16 MB, three
    # times that for a stack of 3); every cache of fields and solver
    # starts empty, so all of it is traced
    grid = Grid(48, 48, 48)
    thetas = [_rich_field(grid, seed=7 + i) * 0.1 for i in range(members)]
    params = [PhysParams(eps_kappa=0.02 * (i + 1)) for i in range(members)]
    for module in (mgsim.fields, mgsim.solver):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        run_stack(thetas, params, SolverConfig(dt=0.01, t_end=0.02))
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 2.5e6, retained


@pytest.mark.parametrize("grid, lattice, shape", [
    (G16, WHOLE_LATTICE, (16, 16, 16)),
    (G24, Sublattice.of_plane(PlaneSpec(1, 1)), (24, 1, 24)),
    (G24, Sublattice(((1, 2),)), (10, 1, 24)),
    (Grid(48, 48, 48), Sublattice.diag(9, 4), (4, 10, 48)),
], ids=["whole16", "plane1_1", "column1_2", "diag9_4"])
@pytest.mark.parametrize("source", [False, True], ids=["bare", "source"])
def test_stepper_rhs_is_the_advection_product(grid, lattice, shape, source):
    # the stepper binds its advection product once; its right-hand side is
    # src - advection_coefficients on the layout, bit for bit and k3 = 0
    # plane included, from data whose k3 = 0 plane is not zero
    par = PhysParams(eps_kappa=0.02, gamma=0.8)
    layout = replace(grid, lattice=lattice)
    assert layout.shape == shape
    rng = np.random.default_rng(5)
    c = layout.gather(forward(grid, rng.standard_normal(grid.shape)))
    src = (layout.gather(SourceSpec("steady_balance").realize(grid, par))
           if source else None)
    stepper = _Stepper(layout, [par], SolverConfig(dt=0.01, t_end=0.01),
                       c[None].copy(), None if src is None else src[None],
                       None)
    got = stepper.rhs(c[None], np.empty((1, *layout.band_shape),
                                        dtype=np.complex128))
    adv = advection_coefficients(layout, c, par.n2)
    assert np.any(adv != 0.0)
    assert np.array_equal(got[0], -adv if src is None else src - adv)


@pytest.mark.parametrize("grid, lattice", [
    (G16, WHOLE_LATTICE),
    (G24, Sublattice.of_plane(PlaneSpec(1, 1))),
    (Grid(48, 48, 48), Sublattice.diag(9, 4)),
], ids=["whole16", "plane1_1", "diag9_4"])
def test_advection_keeps_the_velocity_samples(grid, lattice):
    # the products u_j d_j theta are written over the gradient rows, so
    # after a call the velocity rows still hold the samples of the
    # velocity factors' own inverse, which a record's CFL number reads,
    # and the product is the per-component one, summed in the order
    # j = 1, 2, 3, to the bit
    layout = replace(grid, lattice=lattice)
    rng = np.random.default_rng(3)
    c = layout.gather(forward(grid, rng.standard_normal(grid.shape)))
    factors = _advection_factors(layout, 1.3)
    u = inverse(layout, factors[:3] * c)
    prod = inverse(layout, factors[3:] * c)
    prod *= u
    ref = forward(layout, (prod[0] + prod[1]) + prod[2])
    ref[:, :, 0] = 0.0
    advect = _Advection(layout, 1.3)
    got = advect(c, np.empty(layout.band_shape, np.complex128))
    assert np.array_equal(advect.u, u)
    assert got.tobytes() == ref.tobytes()


def test_runs_from_threads_match_runs_in_turn():
    # a stepper binds its thread's passes and buffers once: four runs at
    # once, two plane arms and two on the whole 16^3 grid, record what the
    # same runs record one after another, bit for bit
    plane = PlaneSpec(1, 1)
    arm = SolverConfig(dt=0.01, t_end=0.3, record_every=5, plane=plane,
                       lattice=Sublattice.of_plane(plane),
                       source=SourceSpec("steady_balance"))
    whole = SolverConfig(dt=0.01, t_end=0.3, record_every=5)
    seed = sine_vertical(G24, 1) + cosine_mode(G24, (1, 1, 1), 1e-2)
    cases = [(seed, PhysParams(eps_kappa=0.02, gamma=0.3), arm),
             (seed, PhysParams(eps_kappa=0.02, gamma=0.8), arm),
             (_rich_field(G16, seed=1) * 0.1, PhysParams(eps_kappa=0.02),
              whole),
             (_rich_field(G16, seed=2) * 0.1, PhysParams(eps_kappa=0.05),
              whole)]

    def arrays(case):
        final, diag = run(*case)
        return [final.c, diag.times,
                *(getattr(diag, s) for s in Diagnostics.SERIES)]

    expected = [arrays(case) for case in cases]
    got = [None] * len(cases)

    def worker(i):
        got[i] = arrays(cases[i])

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(len(cases))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for want, have in zip(expected, got):
        assert have is not None
        assert all(np.array_equal(a, b, equal_nan=True)
                   for a, b in zip(want, have))


class TestExactness:
    def test_pure_decay_is_exact_rk4(self):
        # a single mode self-advects to zero, so only dissipation acts and
        # the integrating factor reproduces the decay to the last bit
        par = PhysParams(eps_kappa=0.3, gamma=0.7)
        f0 = cosine_mode(G16, (2, 1, 3))
        _, diag = run(f0, par, SolverConfig(dt=0.01, t_end=1.0))
        exact = math.exp(-0.3 * 14.0 ** 0.7)
        assert abs(diag.l2[-1] / diag.l2[0] - exact) < 1e-13 * exact

    def test_pure_decay_imex_matches_its_own_formula(self):
        par = PhysParams(eps_kappa=0.3, gamma=1.0)
        f0 = cosine_mode(G16, (2, 1, 3))
        nsteps, dt = 50, 0.01
        _, diag = run(f0, par, SolverConfig(dt=dt, t_end=nsteps * dt,
                                            scheme="imex_euler"))
        per_step = 1.0 / (1.0 + dt * 0.3 * 14.0)
        assert diag.l2[-1] / diag.l2[0] == pytest.approx(
            per_step ** nsteps, rel=1e-12)

    def test_steady_state_is_preserved(self):
        par = PhysParams(eps_kappa=0.05)
        theta0 = sine_vertical(G16, 1)
        cfg = SolverConfig(dt=0.01, t_end=2.0, record_every=50,
                           source=SourceSpec("steady_balance"))
        _, diag = run(theta0, par, cfg, reference=theta0)
        assert np.max(diag.ref_l2) < 1e-12


class TestLinearized:
    def test_eigenmode_grows_at_sigma_star(self):
        par = PhysParams(eps_kappa=0.01)
        sol = solve_sigma_star(1, 1, par)
        g = Grid(32, 32, 32)
        phi = assemble_eigenfunction(sol, g)
        cfg = SolverConfig(dt=0.01, t_end=1.0, record_every=25,
                           linearized=True)
        _, diag = run(phi, par, cfg)
        rate, r2 = growth_rate_fit(diag, 0.0, 1.0, "l2")
        assert abs(rate - sol.sigma_star) < 1e-9 * sol.sigma_star
        assert r2 > 0.999999
        assert np.all(np.isnan(diag.energy_residual))

    @pytest.mark.parametrize("shape", [(16, 16, 16), (16, 32, 24)])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_rhs_equals_pseudo_spectral_product(self, shape, m):
        # below m = n3 - 2 b3 the physical-space product does not alias, so
        # the exact +-m shift along k3 must reproduce it to rounding
        grid = Grid(*shape)
        assert m < grid.n3 - 2 * grid.band[2]
        par = PhysParams(m=m)
        f0 = SpectralField(grid, forward(
            grid, np.random.default_rng(m).standard_normal(grid.shape)))
        m3 = multiplier_arrays(grid, par.n2)[2]
        cos_m = np.cos(m * grid.axes()[2])[None, None, :]
        prod = forward(grid, -m * inverse(grid, m3 * f0.c) * cos_m)
        prod[:, :, 0] = 0.0
        cfg = SolverConfig(dt=1.0, t_end=1.0, scheme="imex_euler",
                           linearized=True)
        f1, _ = run(f0, par, cfg)
        expected = f0.c + prod
        err = np.max(np.abs(f1.c - expected))
        assert err <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("m", [1, 4, 9, 16, 20, 25, 29])
    def test_rhs_is_exact_shift_for_any_m(self, m):
        # per-mode reference: the coefficient of -m u3 cos(m x3) at k is
        # v(k - m e3) + v(k + m e3), v = -(m/2) u3_hat, read through the
        # conjugate symmetry of SpectralField.coeff; covers m beyond the
        # rfftn half-spectrum k3 <= n3 / 2, where a grid product would alias
        grid = Grid(8, 10, 30)
        par = PhysParams(m=m)
        f0 = SpectralField(grid, forward(
            grid, np.random.default_rng(m).standard_normal(grid.shape)))
        v = SpectralField(
            grid, -0.5 * m * multiplier_arrays(grid, par.n2)[2] * f0.c)
        K1, K2, _ = wavenumbers(grid)
        expected = f0.c.copy()
        for i, j, k3 in np.ndindex(*grid.band_shape):
            k1, k2 = int(K1[i, 0, 0]), int(K2[0, j, 0])
            if k3 > 0:
                expected[i, j, k3] += (v.coeff(k1, k2, k3 - m)
                                       + v.coeff(k1, k2, k3 + m))
        cfg = SolverConfig(dt=1.0, t_end=1.0, scheme="imex_euler",
                           linearized=True)
        f1, _ = run(f0, par, cfg)
        assert np.max(np.abs(f1.c - expected)) <= 1e-14 * np.max(
            np.abs(expected))

    @pytest.mark.parametrize("p3s, offset", [
        (0, 1), (0, 2), (0, 3), (1, -1), (1, 0), (1, 2),
    ], ids=["1", "2", "3", "p3-1", "p3", "p3+2"])
    def test_cos_shift_sum_is_the_dense_shift_sum(self, p3s, offset):
        # v(k3 - s) + v(k3 + s) on k3 >= 1, read through SpectralField.coeff
        # (the mirror for k3 - s < 0, 0 beyond the band), and 0 at k3 = 0
        grid = Grid(8, 10, 30)
        shift = p3s * grid.band_shape[2] + offset
        rng = np.random.default_rng(shift)
        v = SpectralField(grid, rng.standard_normal(grid.band_shape)
                          + 1j * rng.standard_normal(grid.band_shape))
        K1, K2, _ = wavenumbers(grid)
        expected = np.zeros(grid.band_shape, dtype=np.complex128)
        for i, j, k3 in np.ndindex(*grid.band_shape):
            k1, k2 = int(K1[i, 0, 0]), int(K2[0, j, 0])
            if k3 > 0:
                expected[i, j, k3] = (v.coeff(k1, k2, k3 - shift)
                                      + v.coeff(k1, k2, k3 + shift))
        out = np.full(grid.band_shape, np.nan, dtype=np.complex128)
        assert _cos_shift_sum(v.c, shift, out) is out
        assert np.array_equal(out, expected)

    def test_warm_step_at_m_1_allocates_no_array(self):
        # shift 1 reads no conjugate mirror, so a warm IF-RK4 step makes no
        # array; numpy's ufuncs take iteration buffers of up to getbufsize()
        # elements per strided or cast operand, shrunk here to their least
        grid = Grid(48, 48, 48)
        rng = np.random.default_rng(1)
        c = (rng.standard_normal((1, *grid.band_shape))
             + 1j * rng.standard_normal((1, *grid.band_shape)))
        stepper = _Stepper(grid, [PhysParams(eps_kappa=0.01)], SolverConfig(
            dt=0.01, t_end=0.01, linearized=True), c, None, None).stepping(c)
        stepper.step()  # warm
        bufsize = np.setbufsize(16)
        tracemalloc.start()
        try:
            stepper.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            np.setbufsize(bufsize)
        assert peak < stepper.c[..., 0].nbytes

    def test_steps_make_no_transforms(self, monkeypatch):
        theta0 = _rich_field(G16)
        counts = _counting_transforms(monkeypatch)
        cfg = SolverConfig(dt=0.01, t_end=0.2, record_every=5,
                           linearized=True)
        _, diag = run(theta0, PhysParams(eps_kappa=0.01), cfg)
        # only the L-infinity norm of each record leaves spectral space
        assert len(diag.times) == 5
        assert counts == {"forward": 0, "inverse": len(diag.times)}

    def test_source_rejected(self):
        # refused by the config itself: at eps_kappa = 0 the steady balance
        # is zero, so a check of the realized source would let it through
        for eps_kappa in (0.0, 0.1):
            with pytest.raises(ValueError, match="linearized run"):
                cfg = SolverConfig(dt=0.01, t_end=0.1, linearized=True,
                                   source=SourceSpec("steady_balance"))
                run(sine_vertical(G16, 1), PhysParams(eps_kappa=eps_kappa),
                    cfg)


def _counting_transforms(monkeypatch, grid=None):
    """Count the transforms made, as calls of the passes every transform
    runs: ``to_band`` as forward, ``to_samples`` as inverse.

    With ``grid`` given, only the passes on that layout are counted.
    """
    counts = {"forward": 0, "inverse": 0}

    def counting(name, fn):
        def wrapped(passes, *args, **kwargs):
            if grid is None or passes.layout == grid:
                counts[name] += 1
            return fn(passes, *args, **kwargs)
        return wrapped

    for name, method in (("forward", "to_band"), ("inverse", "to_samples")):
        fn = getattr(mgsim.fields._Passes, method)
        monkeypatch.setattr(mgsim.fields._Passes, method, counting(name, fn))
    return counts


class TestNonlinearStep:
    """One IF-RK4 step against the formula written out on whole arrays."""

    @staticmethod
    def _formula_step(c, par, dt, src, pmask):
        grid = G24
        ksq = ksq_array(grid)
        d = np.where(ksq > 0.0, par.eps_kappa * np.where(
            ksq > 0.0, ksq, 1.0) ** par.gamma, 0.0)
        E, E2 = np.exp(-dt * d), np.exp(-0.5 * dt * d)

        def N(a):
            out = -advection_coefficients(grid, a, par.n2)
            return out if src is None else out + src

        n1 = N(c)
        n2 = N(E2 * c + 0.5 * dt * E2 * n1)
        n3 = N(E2 * c + 0.5 * dt * n2)
        n4 = N(E * c + dt * E2 * n3)
        c1 = E * c + dt / 6.0 * (E * n1 + 2.0 * E2 * (n2 + n3) + n4)
        return c1 if pmask is None else c1 * pmask

    @pytest.mark.parametrize("restrict", [False, True])
    def test_one_step_matches_formula(self, restrict):
        par = PhysParams(eps_kappa=0.05, gamma=0.8)
        plane = PlaneSpec(1, 1)
        pert = _rich_field(G24, seed=9)
        theta0 = sine_vertical(G24, 1) + 0.05 * pert
        cfg = SolverConfig(dt=0.01, t_end=0.01, plane=plane,
                           lattice=Sublattice.of_plane(plane) if restrict
                           else WHOLE_LATTICE,
                           source=SourceSpec("steady_balance"))
        pmask = plane_mask(G24, plane) if restrict else None
        c0 = theta0.c if pmask is None else theta0.c * pmask
        expected = self._formula_step(
            c0, par, cfg.dt, cfg.source.realize(G24, par), pmask)
        got, _ = run(theta0, par, cfg)
        assert np.max(np.abs(got.c - expected)) <= 1e-14 * np.max(
            np.abs(expected))
        # the step moved the state well beyond rounding
        assert np.max(np.abs(expected - c0)) > 1e-6 * np.max(np.abs(c0))
        if restrict:  # projected after the step, not only at t = 0
            assert off_plane_norm(got, plane) == 0.0

    def test_transform_counts(self, monkeypatch):
        # one stacked inverse of the six factors and 1 forward per
        # right-hand side; 2 inverse (L-inf and the advection product's
        # stacked six, whose velocity rows give the CFL number) and 1
        # forward per record
        theta0 = _rich_field(G16, seed=4) * 0.1
        counts = _counting_transforms(monkeypatch)
        cfg = SolverConfig(dt=0.01, t_end=0.05, record_every=2)
        _, diag = run(theta0, PhysParams(eps_kappa=0.02), cfg)
        S, R = 5, len(diag.times)
        assert R == 4  # t = 0, 0.02, 0.04 and the last step
        assert counts == {"forward": 4 * S + R, "inverse": 4 * S + 2 * R}

    @pytest.mark.parametrize("shape, lattice, seed", [
        ((48, 48, 48), Sublattice.diag(9, 4), (9, 4, 1)),
        ((24, 24, 24), Sublattice(((1, 2),)), (1, 2, 1)),
    ], ids=["criterion09_diag9_4", "plane_control_1_2"])
    def test_one_sample_shape_per_run(self, monkeypatch, shape, lattice,
                                      seed):
        # every transform of a restricted nonlinear run, a right-hand
        # side's or a record's, is on the layout's one sample shape, with
        # the counts of test_transform_counts
        seen = collections.Counter()

        def counting(name, fn, samples):
            def wrapped(passes, *args):
                seen[name, args[samples].shape[-3:]] += 1
                return fn(passes, *args)
            return wrapped

        for name, method, samples in (("forward", "to_band", 0),
                                      ("inverse", "to_samples", 1)):
            fn = getattr(mgsim.fields._Passes, method)
            monkeypatch.setattr(mgsim.fields._Passes, method,
                                counting(name, fn, samples))
        grid = Grid(*shape)
        cfg = SolverConfig(dt=0.01, t_end=0.05, record_every=2,
                           lattice=lattice,
                           source=SourceSpec("steady_balance"))
        _, diag = run(sine_vertical(grid, 1) + cosine_mode(grid, seed, 1e-2),
                      PhysParams(eps_kappa=0.01), cfg)
        S, R, n = 5, len(diag.times), diag.layout.shape
        assert diag.layout == replace(grid, lattice=lattice)
        assert seen == {("forward", n): 4 * S + R,
                        ("inverse", n): 4 * S + 2 * R}

    def test_restricted_steps_make_no_grid_transforms(self, monkeypatch):
        # a restricted run steps and records on the plane's layout: it
        # makes no transform on the grid and builds none of its passes
        theta0 = sine_vertical(G24, 1) + cosine_mode(G24, (2, 2, 1), 0.1)
        counts = _counting_transforms(monkeypatch, grid=G24)
        built = set()

        def init(passes, layout, lead, _fn=mgsim.fields._Passes.__init__):
            built.add(layout)
            _fn(passes, layout, lead)

        monkeypatch.setattr(mgsim.fields._Passes, "__init__", init)
        plane = PlaneSpec(1, 1)
        cfg = SolverConfig(dt=0.01, t_end=0.05, record_every=2, plane=plane,
                           lattice=Sublattice.of_plane(plane))
        _, diag = run(theta0, PhysParams(eps_kappa=0.02), cfg)
        assert len(diag.times) == 4
        assert counts == {"forward": 0, "inverse": 0}
        assert built == {diag.layout} and diag.layout != G24

    def test_whole_lattice_run_shares_the_grid_caches(self):
        # the whole lattice is the grid: equal, hashed alike, moved by exact
        # copies, and an unrestricted run fills the multiplier cache a
        # lookup for the grid then hits, so no second copy is built
        whole = Grid(24, 24, 24, Sublattice.diag(1, 1))
        assert G24 == whole and hash(G24) == hash(whole)
        assert (whole.shape, whole.band) == ((24, 24, 24), (7, 7, 7))
        c = _rich_field(G24, seed=6).c
        c[:, :, 0] = -0.0
        for moved in (whole.gather(c), whole.scatter(c)):
            assert moved is not c and moved.tobytes() == c.tobytes()
        cache = mgsim.fields.multiplier_arrays
        cache.cache_clear()
        par = PhysParams(eps_kappa=0.02)
        run(_rich_field(G24, seed=4) * 0.1, par,
            SolverConfig(dt=0.01, t_end=0.02))
        info = cache.cache_info()
        cache(Grid(24, 24, 24), par.n2)
        assert cache.cache_info().hits == info.hits + 1
        assert cache.cache_info().misses == info.misses


def test_run_refuses_data_on_a_restricted_layout():
    # a layout's coefficients sit at lattice coordinates: stepped on a
    # layout of that layout they would be read as the wrong wavevectors,
    # so initial data, a reference and a custom source must live on the
    # whole grid
    grid, lattice = G24, Sublattice.diag(2, 2)
    layout = replace(grid, lattice=lattice)
    theta0 = (cosine_mode(grid, (2, 2, 1), 0.3)
              + cosine_mode(grid, (4, 2, 2), 0.2) + sine_vertical(grid, 1))
    on_layout = SpectralField(layout, layout.gather(theta0.c))
    par = PhysParams(eps_kappa=0.1)
    cfg = SolverConfig(dt=0.01, t_end=0.1, lattice=lattice)
    for config in (cfg, replace(cfg, lattice=WHOLE_LATTICE)):
        with pytest.raises(ValueError,
                           match=re.escape(f"on the layout {layout},")):
            run(on_layout, par, config)
    with pytest.raises(ValueError, match="reference field"):
        run(theta0, par, cfg, reference=on_layout)
    with pytest.raises(ValueError, match="custom source"):
        run(theta0, par, replace(cfg, source=SourceSpec("custom", on_layout)))
    got, _ = run(theta0, par, cfg)
    want, _ = run(theta0, par, replace(cfg, lattice=WHOLE_LATTICE))
    assert np.max(np.abs(got.c - want.c)) <= 1e-14 * np.max(np.abs(want.c))


def test_real_coefficients_evolve_like_complex():
    # a real cosine mode given as float64 coefficients runs, bit for bit,
    # like its complex128 copy
    par = PhysParams(eps_kappa=0.02)
    theta = (cosine_mode(G16, (1, 2, 1), 0.3) + cosine_mode(G16, (2, 1, 2))
             + cosine_mode(G16, (0, 1, 1), 0.5))
    real = theta.c.real.copy()
    assert np.array_equal(real, theta.c)
    cfg = SolverConfig(dt=0.01, t_end=0.05, record_every=2)
    got, gdiag = run(SpectralField(G16, real), par, cfg)
    want, wdiag = run(SpectralField(G16, real.astype(np.complex128)), par, cfg)
    assert np.array_equal(got.c.view(np.uint64), want.c.view(np.uint64))
    for col in ("l2", "linf", "hs", "energy_residual"):
        assert np.array_equal(getattr(gdiag, col), getattr(wdiag, col))


class TestEnergyNeutrality:
    def test_advection_orthogonal_to_state(self):
        f = _rich_field(G16)
        res = energy_flux_residual(
            G16, f.c, advection_coefficients(G16, f.c, 1.0))
        assert abs(res) < 1e-12

    @pytest.mark.parametrize("n", [24, 30, 48])
    def test_advection_orthogonal_where_3_divides_n(self, n):
        # a product of two band modes reaches 2b and aliases to 2b - n,
        # which stays out of the band only when b < n / 3
        grid = Grid(n, n, n)
        f = _rich_field(grid)
        adv = advection_coefficients(grid, f.c, 1.0)
        assert abs(energy_flux_residual(grid, f.c, adv)) < 1e-14

    def test_residual_recorded_small_along_run(self):
        par = PhysParams(eps_kappa=0.02)
        f0 = _rich_field(G16, seed=12)
        cfg = SolverConfig(dt=0.005, t_end=0.1, record_every=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _, diag = run(f0, par, cfg)
        assert np.nanmax(np.abs(diag.energy_residual)) < 1e-10

    def test_vertical_mean_stays_zero(self):
        par = PhysParams(eps_kappa=0.02)
        f0 = _rich_field(G16, seed=12)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            final, _ = run(f0, par, SolverConfig(dt=0.005, t_end=0.1))
        assert np.max(np.abs(final.c[:, :, 0])) == 0.0


class TestSchemeAgreement:
    def test_rk4_and_imex_converge_to_each_other(self):
        par = PhysParams(eps_kappa=0.05)
        f0 = sine_vertical(G16, 1) + cosine_mode(G16, (1, 1, 1), 0.05)
        cfg_a = SolverConfig(dt=0.002, t_end=0.5,
                             source=SourceSpec("steady_balance"))
        cfg_b = SolverConfig(dt=0.002, t_end=0.5, scheme="imex_euler",
                             source=SourceSpec("steady_balance"))
        fa, _ = run(f0, par, cfg_a)
        fb, _ = run(f0, par, cfg_b)
        rel = l2_norm(fa - fb) / l2_norm(fa)
        assert rel < 5e-3


class TestGuards:
    def test_growth_cap_refuses_generic_illposed_run(self):
        par = PhysParams(eps_kappa=0.0)
        with pytest.raises(GrowthCapError) as exc:
            run(cosine_mode(Grid(24, 24, 24), (1, 2, 1)), par,
                SolverConfig(dt=0.01, t_end=50.0))
        assert exc.value.sigma_max > 0.0
        assert exc.value.t_max < 50.0

    def test_growth_cap_exempts_plane_restricted(self):
        par = PhysParams(eps_kappa=0.0)
        cfg = SolverConfig(dt=0.01, t_end=50.0, plane=PlaneSpec(2, 1),
                           lattice=Sublattice.of_plane(PlaneSpec(2, 1)),
                           record_every=10 ** 6)
        # would be refused unrestricted; must start when confined.
        # integrate only a handful of steps worth of horizon by bailing
        # out via a short t_end in the actual call below
        cfg_short = SolverConfig(dt=0.01, t_end=0.05, plane=PlaneSpec(2, 1),
                                 lattice=Sublattice.of_plane(PlaneSpec(2, 1)))
        _, diag = run(cosine_mode(Grid(24, 24, 24), (1, 2, 1)), par, cfg_short)
        assert np.max(diag.off_plane) == 0.0
        # and the long-horizon config itself passes the pre-check
        from mgsim.solver import _growth_cap_check
        _growth_cap_check(Grid(24, 24, 24, cfg.lattice), par, cfg)

    def test_growth_cap_exempts_restricted_run_with_off_plane_source(self):
        # the restricted stepper keeps only the source's on-plane part, so
        # the off-plane growth the cap guards against never starts
        par = PhysParams(eps_kappa=0.0)
        theta0 = cosine_mode(G16, (1, 1, 1), 1e-3)
        src = SourceSpec("custom", custom=cosine_mode(G16, (1, 2, 1), 1e-3))
        from mgsim.solver import _growth_cap_check
        with pytest.raises(GrowthCapError):
            _growth_cap_check(G16, par, SolverConfig(
                dt=0.01, t_end=50.0, plane=PlaneSpec(1, 1), source=src))
        kw = dict(dt=0.01, plane=PlaneSpec(1, 1),
                  lattice=Sublattice.of_plane(PlaneSpec(1, 1)), source=src)
        _growth_cap_check(replace(G16, lattice=kw["lattice"]), par,
                          SolverConfig(t_end=50.0, **kw))
        _, diag = run(theta0, par,
                      SolverConfig(t_end=0.05, record_every=1, **kw))
        assert np.max(diag.off_plane) == 0.0

    def test_well_posed_regime_never_capped(self):
        par = PhysParams(eps_kappa=0.01, gamma=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _, diag = run(cosine_mode(G16, (1, 1, 1)), par,
                          SolverConfig(dt=0.5, t_end=1000.0,
                                       record_every=2000))
        assert math.isfinite(diag.l2[-1])

    def test_blow_up_detected(self):
        par = PhysParams(eps_kappa=0.0)
        f0 = cosine_mode(G16, (1, 2, 1), 1e100)
        cfg = SolverConfig(dt=0.1, t_end=1.0, record_every=1)
        with pytest.raises(BlowUpError) as exc:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                run(f0, par, cfg)
        assert exc.value.time <= 1.0
        assert isinstance(exc.value.history, Diagnostics)
        assert len(exc.value.history.times) >= 1

    def test_cfl_advisory(self):
        par = PhysParams(eps_kappa=0.0)
        f0 = cosine_mode(G16, (1, 2, 1), 50.0)
        with pytest.warns(RuntimeWarning, match="CFL"):
            run(f0, par, SolverConfig(dt=0.1, t_end=0.2, record_every=1))

    def test_blow_up_history_is_on_the_stepped_layout(self):
        lattice = Sublattice(((1, 2),), 1)
        f0 = cosine_mode(G16, (1, 2, 1), 1e100)
        cfg = SolverConfig(dt=0.1, t_end=1.0, record_every=1, lattice=lattice)
        with pytest.raises(BlowUpError) as exc:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                run(f0, PhysParams(eps_kappa=0.0), cfg)
        assert exc.value.history.layout == replace(G16, lattice=lattice)

    def test_cfl_number_weighs_the_layout_wavenumbers(self):
        # the plane of the column (1, 2) on 16^3 holds |k_j| <= (2, 4, 5),
        # under the grid's band (5, 5, 5): weighed by the grid's band, this
        # field's CFL number would pass 0.5; by the layout's, it stays under
        par = PhysParams(eps_kappa=0.0)
        f0 = cosine_mode(G16, (1, 2, 1), 0.6)
        cfg = SolverConfig(dt=0.1, t_end=0.1, record_every=1)
        lattice = Sublattice(((1, 2),), 1)
        layout = replace(G16, lattice=lattice)
        kmax = [int(np.abs(k).max()) for k in wavenumbers(layout)]
        assert kmax == [2, 4, 5]
        umax = velocity_max(inverse(layout, _advection_factors(
            layout, par.n2)[:3] * layout.gather(f0.c)))
        assert cfg.dt * sum(u * k for u, k in zip(umax, kmax)) < 0.5
        assert cfg.dt * sum(u * b for u, b in zip(umax, G16.band)) > 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            run(f0, par, replace(cfg, lattice=lattice))
        # on the whole lattice the largest |k_j| is the grid's band
        cfl = cfg.dt * sum(u * b for u, b in zip(velocity_max(inverse(
            G16, _advection_factors(G16, par.n2)[:3] * f0.c)), G16.band))
        with pytest.warns(RuntimeWarning) as caught:
            run(f0, par, cfg)
        assert len(caught) == 2
        assert caught[0].filename == __file__  # the caller of run
        assert str(caught[0].message) == (
            f"advective CFL number {cfl:.3g} exceeds 0.5 at t = 0; "
            f"consider reducing dt")


@pytest.mark.parametrize("t_end, dt, record_every, steps, linearized", [
    (0.05, 0.01, 1, [0, 1, 2, 3, 4, 5], True),
    (0.07, 0.01, 3, [0, 3, 6, 7], True),
    (0.6, 0.1, 2, [0, 2, 4, 6], False),
    (0.3, 0.1, 10, [0, 3], True),
])
def test_run_records_at_the_record_steps(t_end, dt, record_every, steps,
                                         linearized):
    # the drivers check their fit windows against these times before a run
    cfg = SolverConfig(dt=dt, t_end=t_end, record_every=record_every,
                       linearized=linearized)
    assert _record_steps(cfg).tolist() == steps
    _, diag = run(cosine_mode(G16, (1, 2, 1), 0.1),
                  PhysParams(eps_kappa=0.02), cfg)
    assert diag.times.tobytes() == (_record_steps(cfg) * dt).tobytes()


@pytest.mark.parametrize("lattice", [
    WHOLE_LATTICE, Sublattice.of_plane(PlaneSpec(1, 1)),
    Sublattice.diag(9, 4)], ids=["whole", "plane_1_1", "diag_9_4"])
def test_diagnostics_name_the_stepped_layout(lattice):
    grid = Grid(32, 32, 32)
    theta0 = sine_vertical(grid, 1) + cosine_mode(grid, (9, 4, 1), 1e-3)
    _, diag = run(theta0, PhysParams(eps_kappa=0.01),
                  SolverConfig(dt=0.01, t_end=0.02, lattice=lattice))
    assert diag.layout == replace(grid, lattice=lattice)


def _band_top_eigenvalue(grid, par, strides=(1, 1, 1)):
    """Largest eigenvalue over the band's (k1, k2) columns, 0 <= k_i <= b_i,
    of the linearized operator on each column's k3-chain over [-b3, b3],
    written densely from the multiplier: row k3 holds -(m/2) M3(k3 -+ m) at
    k3 -+ m and the dissipation on the diagonal.  With ``strides``
    (s1, s2, s3) only the sublattice diag(s1, s2) x s3 Z is taken."""
    (s1, s2, s3), m = strides, par.m
    b1, b2, b3 = (b // s for b, s in zip(grid.band, strides))
    j1, j2, j3 = np.ogrid[0:b1 + 1, 0:b2 + 1, -b3:b3 + 1]
    k1, k2, k3 = s1 * j1, s2 * j2, s3 * j3
    M3 = symbol_components(k1, k2, k3, par.n2)[2]
    d = m // s3  # the shift in chain indices
    n, i = 2 * b3 + 1, np.arange(2 * b3 + 1 - d)
    A = np.zeros(M3.shape + (n,))
    A[..., i, i + d] = -0.5 * m * M3[..., d:]
    A[..., i + d, i] = -0.5 * m * M3[..., :n - d]
    ksq = (k1 * k1 + k2 * k2 + k3 * k3).astype(np.float64)
    A[..., np.arange(n), np.arange(n)] = -par.eps_kappa * ksq ** par.gamma
    return float(np.linalg.eigvals(A).real.max())


@pytest.mark.parametrize("shape, par", [
    ((16, 16, 16), PhysParams(m=2)),
    ((32, 32, 32), PhysParams(m=2)),
    ((24, 24, 24), PhysParams(m=3, eps_kappa=0.01, gamma=0.5)),
    ((24, 16, 32), PhysParams(m=2, n2=0.5)),
    ((24, 24, 24), PhysParams(m=1)),
    ((24, 24, 24), PhysParams(m=1, eps_kappa=0.02, gamma=0.3)),
    ((48, 48, 48), PhysParams(m=1)),
])
def test_growth_cap_bounds_every_column_and_class(shape, par):
    # the guard's rate is at least the top eigenvalue of every column,
    # k1 = 0 and every residue class of k3 mod m included; at m = 1 it is
    # no stricter than the class-0 bound 2/alpha_1 - e_1 over k1, k2 >= 1
    grid = Grid(*shape)
    with pytest.raises(GrowthCapError) as exc:
        _growth_cap_check(grid, par, SolverConfig(dt=1.0, t_end=1e6))
    sigma_max = exc.value.sigma_max
    assert sigma_max >= _band_top_eigenvalue(grid, par)
    if par.m == 1:
        b1, b2, _ = grid.band
        k1s, k2s = np.meshgrid(np.arange(1, b1 + 1), np.arange(1, b2 + 1))
        assert sigma_max <= _closed_form_bounds(k1s, k2s, par)[1].max()


@pytest.mark.parametrize("shape, strides, par", [
    ((48, 48, 48), (9, 4, 1), PhysParams(eps_kappa=0.0)),
    ((32, 32, 32), (1, 1, 2), PhysParams(m=2)),
    ((24, 24, 48), (2, 3, 3), PhysParams(m=3, eps_kappa=0.01, gamma=0.5)),
])
def test_growth_cap_bounds_a_sublattice_over_its_own_band(shape, strides,
                                                          par):
    # a diag sublattice, the (9, 4) seed's included, is capped by its own
    # columns: at least their top eigenvalue, at most the whole grid's rate,
    # and exactly the grid's Gershgorin rows at the lattice's wavevectors
    grid, rates = Grid(*shape), []
    for lattice in (Sublattice.diag(*strides), WHOLE_LATTICE):
        with pytest.raises(GrowthCapError) as exc:
            _growth_cap_check(replace(grid, lattice=lattice), par,
                              SolverConfig(dt=1.0, t_end=1e6,
                                           lattice=lattice))
        rates.append(exc.value.sigma_max)
    assert _band_top_eigenvalue(grid, par, strides) <= rates[0] <= rates[1]
    (s1, s2, s3), m, (b1, b2, b3) = strides, par.m, grid.band
    k1, k2, k3 = np.ogrid[0:b1 + 1:s1, 0:b2 + 1:s2, s3:b3 + 1:s3]

    def root_m3(k3):  # sqrt(M3_hat) on the band, 0 beyond it
        m3 = symbol_components(k1, k2, np.abs(k3), par.n2)[2]
        return np.where(np.abs(k3) <= b3, np.sqrt(m3), 0.0)

    rows = 0.5 * m * root_m3(k3) * (root_m3(k3 - m) + root_m3(k3 + m))
    rows -= par.eps_kappa * (k1 * k1 + k2 * k2 + k3 * k3) ** par.gamma
    assert rates[0] == pytest.approx(rows.max(), rel=1e-12)


def test_run_refuses_a_stride_that_does_not_divide_m():
    with pytest.raises(ValueError, match="stride 2 does not divide m = 3"):
        run(sine_vertical(G16, 3), PhysParams(m=3, eps_kappa=0.1),
            SolverConfig(dt=0.01, t_end=0.01,
                         lattice=Sublattice.diag(1, 1, 2)))


def _whole_band_run(theta0, par, cfg, reference=None, mapped=False):
    """``run`` stepped on the whole band of theta0's grid, whatever the
    data spans: the reference a sublattice run is measured against.  Its
    steps are made one by one, or with ``mapped`` by ``_Stepper.advance``,
    which a linearized run advances by powers of its step map."""
    grid = theta0.grid
    src = cfg.source.realize(grid, par)
    stepper = _Stepper(grid, [par], cfg, grid.gather(theta0.c)[None],
                       None if src is None else grid.gather(src)[None],
                       None if reference is None else reference.c)
    if not mapped:
        stepper = stepper.stepping(stepper.c)
    steps = _record_steps(cfg).tolist()
    for last, step in zip([0] + steps, steps):
        if mapped:
            stepper.advance(step - last)
        else:
            for _ in range(step - last):
                stepper.step()
        stepper.record(step)
    return SpectralField(grid, stepper.c[0]), stepper.diagnostics()


def _assert_final_linf(diag, final):
    """The last ``linf`` row of a run on ``diag.layout`` is ``linf_norm`` of
    the whole-band final state ``final`` gathered onto that layout: a
    record samples the layout, not the grid."""
    layout = diag.layout
    want = linf_norm(SpectralField(layout, layout.gather(final.c)))
    assert np.isclose(diag.linf[-1], want, rtol=1e-13, atol=0.0)


# (grid shape, mode, m): the instability configuration at (9, 4), and at
# m = 2 the fastest mode of box 6 on a grid whose band holds its profile
SUBLATTICE_CASES = [((48, 48, 48), (9, 4), 1), ((24, 24, 64), (6, 5), 2)]


@pytest.mark.parametrize("shape, mode, m", SUBLATTICE_CASES)
@pytest.mark.parametrize("linearized", [False, True])
def test_sublattice_run_matches_grid_run(shape, mode, m, linearized):
    # the seeded steady state lives on k1 Z x k2 Z x m Z: the run on that
    # lattice's layout is the whole-band run with the rounding off it
    # removed (a linearized run on the whole lattice steps on that layout
    # too, so the reference is stepped on the whole band directly)
    grid, par = Grid(*shape), PhysParams(eps_kappa=0.01, m=m)
    background = sine_vertical(grid, m)
    phi = assemble_eigenfunction(solve_sigma_star(*mode, par), grid)
    pert = 1e-2 * l2_norm(background) / l2_norm(phi) * phi
    theta0 = pert if linearized else background + pert
    cfg = SolverConfig(dt=0.01, t_end=0.2, record_every=5,
                       linearized=linearized,
                       source=SourceSpec("none" if linearized
                                         else "steady_balance"))
    lattice = Sublattice.diag(*mode, m)
    got, gdiag = run(theta0, par, replace(cfg, lattice=lattice),
                     reference=background)
    want, wdiag = _whole_band_run(theta0, par, cfg, reference=background)
    if linearized:
        _, sdiag = run(theta0, par, cfg, reference=background)
        assert sdiag.layout == gdiag.layout
    scale = np.max(np.abs(want.c))
    assert np.max(np.abs(got.c - want.c)) <= 1e-14 * scale
    assert l2_norm(want - theta0) > 0.05 * l2_norm(pert)  # it grew
    for col in ("l2", "hs", "ref_l2"):
        assert np.allclose(getattr(gdiag, col), getattr(wdiag, col),
                           rtol=1e-13, atol=0.0)
    _assert_final_linf(gdiag, want)
    K1, K2, K3 = wavenumbers(grid)
    on = (K1 % mode[0] == 0) & (K2 % mode[1] == 0) & (K3 % m == 0)
    assert not np.any(got.c[~np.broadcast_to(on, grid.band_shape)])


# (grid shape, m, initial data, reference, the span's (s1, s2, s3)); each
# maker takes the grid and m
SPAN_CASES = {
    "eigen_6_4_m1": ((48, 48, 48), 1, lambda g, m: assemble_eigenfunction(
        solve_sigma_star(6, 4, PhysParams(eps_kappa=0.01, m=m)), g),
        None, (6, 4, 1)),
    "eigen_6_5_m2": ((24, 24, 64), 2, lambda g, m: assemble_eigenfunction(
        solve_sigma_star(6, 5, PhysParams(eps_kappa=0.01, m=m)), g),
        lambda g, m: sine_vertical(g, m), (6, 5, 2)),
    "no_k1": ((16, 16, 16), 1, lambda g, m: cosine_mode(g, (0, 2, 1)),
              None, (16, 2, 1)),
    "zero": ((16, 16, 16), 2, lambda g, m: SpectralField.zeros(g),
             None, (16, 16, 2)),
    "reference_off_span": (
        (24, 24, 24), 2, lambda g, m: cosine_mode(g, (2, 2, 2), 0.1),
        lambda g, m: cosine_mode(g, (3, 0, 1)), (1, 2, 1)),
    "rich": ((16, 16, 16), 1, lambda g, m: _rich_field(g), None, (1, 1, 1)),
}


@pytest.mark.parametrize("case", SPAN_CASES.values(), ids=SPAN_CASES.keys())
def test_linearized_run_steps_on_its_span(case):
    # a linearized run on the whole lattice steps on the diag sublattice its
    # data and reference span, and reproduces the whole-band run there
    shape, m, make_theta0, make_reference, strides = case
    grid, par = Grid(*shape), PhysParams(eps_kappa=0.01, m=m)
    theta0 = make_theta0(grid, m)
    reference = None if make_reference is None else make_reference(grid, m)
    cfg = SolverConfig(dt=0.01, t_end=0.2, record_every=5, linearized=True)
    got, gdiag = run(theta0, par, cfg, reference=reference)
    want, wdiag = _whole_band_run(theta0, par, cfg, reference=reference)
    assert gdiag.layout == replace(grid, lattice=Sublattice.diag(*strides))
    assert np.max(np.abs(got.c - want.c)) <= 1e-14 * np.max(np.abs(want.c))
    for col in ("l2", "hs", "ref_l2"):
        assert np.allclose(getattr(gdiag, col), getattr(wdiag, col),
                           rtol=1e-13, atol=0.0, equal_nan=True)
    _assert_final_linf(gdiag, want)
    if strides == (6, 4, 1):  # the criterion-13 configuration, bit for bit
        assert str(gdiag.layout) == (
            "8x10x48 on Sublattice(basis=((6, 0), (0, 4)), s3=1)")
        mapped, _ = _whole_band_run(theta0, par, cfg, mapped=True)
        assert np.array_equal(got.c, mapped.c)


def test_linearized_eigenfunction_run_makes_no_grid_transform(monkeypatch):
    # the (6, 4) eigenfunction at 48^3 steps on its span: one inverse per
    # record (the L-infinity norm), every one on that layout, no forward
    seen = []
    for name, method in (("forward", "to_band"), ("inverse", "to_samples")):
        def counted(passes, *args, _name=name,
                    _fn=getattr(mgsim.fields._Passes, method), **kwargs):
            seen.append((_name, passes.layout))
            return _fn(passes, *args, **kwargs)
        monkeypatch.setattr(mgsim.fields._Passes, method, counted)
    par = PhysParams(eps_kappa=0.01)
    phi = assemble_eigenfunction(solve_sigma_star(6, 4, par),
                                 Grid(48, 48, 48))
    _, diag = run(phi, par, SolverConfig(dt=0.01, t_end=0.2, record_every=5,
                                         linearized=True))
    assert diag.layout == Grid(48, 48, 48, Sublattice.diag(6, 4))
    assert seen == [("inverse", diag.layout)] * len(diag.times)


# (grid shape, lattice, m, scheme): criterion 13's span at shift 1, whole
# lattices at shifts 2 and 3 (whose maps read the conjugate mirror), a
# plane, and the first-order scheme
STEP_MAP_CASES = {
    "span_6_4_m1": ((48, 48, 48), Sublattice.diag(6, 4), 1, "if_rk4"),
    "whole_m2": ((16, 16, 24), WHOLE_LATTICE, 2, "if_rk4"),
    "whole_m3": ((16, 16, 24), WHOLE_LATTICE, 3, "if_rk4"),
    "plane_1_1": ((24, 24, 24), Sublattice.of_plane(PlaneSpec(1, 1)), 1,
                  "if_rk4"),
    "imex_m2": ((16, 16, 24), WHOLE_LATTICE, 2, "imex_euler"),
}


@pytest.mark.parametrize("case", STEP_MAP_CASES.values(),
                         ids=STEP_MAP_CASES.keys())
def test_step_map_is_the_step(case):
    # the map, applied 7 times or as its 7th power, is 7 sequential steps
    # to rounding, on the whole state and on the self-mirror column (0, 0)
    shape, lattice, m, scheme = case
    layout = replace(Grid(*shape), lattice=lattice)
    c = forward(layout, np.random.default_rng(m).standard_normal(
        layout.shape))
    applied, powered, stepped = (_Stepper(
        layout, [PhysParams(eps_kappa=0.01, m=m)], SolverConfig(
            dt=0.01, t_end=0.07, scheme=scheme, linearized=True),
        c[None].copy(), None, None) for _ in range(3))
    A, B = stepped.step_map()
    stepped = stepped.stepping(stepped.c)
    assert A.shape == (1, *layout.band_shape, layout.band_shape[2])
    assert (B is None) == (m == 1)  # only shifts of 2 or more read mirrors
    for _ in range(7):
        applied.advance(1)
        stepped.step()
    powered.advance(7)
    assert list(powered.powers) == [1, 7]
    want = stepped.c
    assert np.max(np.abs(want - c)) > 1e-3 * np.max(np.abs(c))  # it moved
    for got in (applied.c, powered.c):
        for part in (np.s_[...], np.s_[:, 0, 0]):
            assert np.max(np.abs(got[part] - want[part])) <= 1e-14 * np.max(
                np.abs(want[part]))


def test_stepper_steps_a_stack_as_its_fields():
    # a stepper given a stack of states, each with the member axis (as a
    # probe's spikes), steps each one bit for bit as a stepper of that state
    # alone, the conjugate-mirror reads included
    layout, par = Grid(16, 16, 24), PhysParams(eps_kappa=0.01, m=3)
    cfg = SolverConfig(dt=0.01, t_end=0.01, linearized=True)
    rng = np.random.default_rng(5)
    stack = (rng.standard_normal((2, 1, *layout.band_shape))
             + 1j * rng.standard_normal((2, 1, *layout.band_shape)))
    stacked = _Stepper(layout, [par], cfg, stack, None, None).stepping(
        stack.copy())
    stacked.step()
    for c, got in zip(stack, stacked.c):
        alone = _Stepper(layout, [par], cfg, c, None, None).stepping(c.copy())
        alone.step()
        assert np.array_equal(got.view(np.uint64), alone.c.view(np.uint64))


def _per_column_map(stepper):
    """``_Stepper.step_map`` probed one k3 column q at a time: a real and
    an imaginary unit spike at k3 = q in every column, (R +- I) / 2."""
    p3 = stepper.c.shape[-1]
    spikes = stepper.stepping(np.empty((2, *stepper.c.shape), np.complex128))
    A, B = (np.empty((*stepper.c.shape, p3)) for _ in range(2))
    for q in range(p3):
        spikes.c[...] = 0.0
        spikes.c[0, ..., q], spikes.c[1, ..., q] = 1.0, 1j
        spikes.step()
        R, I = spikes.c[0].real, spikes.c[1].imag
        A[..., q], B[..., q] = (R + I) / 2.0, (R - I) / 2.0
    return A, B


def _linearized_stepper(layout, params, scheme):
    """A linearized stepper of a stack of zero states on ``layout``, one
    for each of ``params``."""
    return _Stepper(
        layout, params, SolverConfig(
            dt=0.01, t_end=0.01, scheme=scheme, linearized=True),
        np.zeros((len(params), *layout.band_shape), np.complex128), None,
        None)


# (grid shape, lattice, m, scheme, members, probe steps): criterion 13's
# span, whole lattices whose maps read the mirror (at m = 4 the classes of
# k3 mod 4 are {0}, {2} and {1, 3}), the first-order scheme (at m = 1 its
# 3 groups leave the last state a real group alone), a plane, a span with
# p3 = 32, and a 2-member stack at shift 1
GROUPED_MAP_CASES = {
    "span_6_4_m1": ((48, 48, 48), Sublattice.diag(6, 4), 1, "if_rk4", 1, 5),
    "whole48_m2": ((48, 48, 48), WHOLE_LATTICE, 2, "if_rk4", 1, 8),
    "whole48_m4": ((48, 48, 48), WHOLE_LATTICE, 4, "if_rk4", 1, 8),
    "whole32_m3": ((32, 32, 32), WHOLE_LATTICE, 3, "if_rk4", 1, 7),
    "imex32_m2": ((32, 32, 32), WHOLE_LATTICE, 2, "imex_euler", 1, 3),
    "imex32_m1": ((32, 32, 32), WHOLE_LATTICE, 1, "imex_euler", 1, 2),
    "plane_1_1": ((24, 24, 24), Sublattice.of_plane(PlaneSpec(1, 1)), 1,
                  "if_rk4", 1, 4),
    "span96_m1": ((96, 96, 96), Sublattice.diag(12, 8), 1, "if_rk4", 1, 5),
    "stack_span_m1": ((48, 48, 48), Sublattice.diag(6, 4), 1, "if_rk4", 2,
                      5),
}


@pytest.mark.parametrize("case", GROUPED_MAP_CASES.values(),
                         ids=GROUPED_MAP_CASES.keys())
def test_grouped_step_map_is_the_per_column_map(case):
    # probing every k3 column of a step's groups at once gives the map that
    # one column a step gives, bit for bit, zeros off the band too
    shape, lattice, m, scheme, members, steps = case
    stepper = _linearized_stepper(
        replace(Grid(*shape), lattice=lattice),
        [PhysParams(eps_kappa=0.01 * (i + 1), m=m) for i in range(members)],
        scheme)
    assert len(stepper.probes) == steps
    A, B = stepper.step_map()
    want_A, want_B = _per_column_map(stepper)
    assert np.array_equal(A.view(np.uint64), want_A.view(np.uint64))
    if B is None:
        assert m == 1 and not want_B.any()
    else:
        assert np.array_equal(B.view(np.uint64), want_B.view(np.uint64))


@pytest.mark.parametrize("members", [1, 2], ids=["lone", "stack"])
@pytest.mark.parametrize("scheme", ["if_rk4", "imex_euler"])
def test_linearized_step_factors_are_real(scheme, members):
    # at shift 1 a lone probe state steps one group in its real part and
    # one in its imaginary part, which stay apart only while every factor a
    # linearized step multiplies by has an imaginary part of exactly 0
    stepper = _linearized_stepper(
        Grid(48, 48, 48, Sublattice.diag(6, 4)),
        [PhysParams(eps_kappa=0.01 * (i + 1), gamma=0.5 + 0.25 * i)
         for i in range(members)], scheme)
    names = (("E", "E2", "half_E2", "dt_E2", "dt3_E2", "dt6_E")
             if scheme == "if_rk4" else ("implicit",)) + ("v_scale",)
    for name in names:
        factor = getattr(stepper, name)
        assert factor.dtype == np.complex128, name
        assert not factor.imag.any(), name


@pytest.mark.parametrize("scheme, linearized, count", [
    ("if_rk4", False, 7), ("if_rk4", True, 8), ("imex_euler", False, 2),
    ("imex_euler", True, 3)])
def test_stepper_binds_only_the_buffers_its_step_reads(
        scheme, linearized, count):
    # one buffer per right-hand side, IF-RK4's stage and E2 c, the next
    # state, and the linearized v, each shaped like the state bound; a
    # linearized run, which only applies its map, binds ``next`` alone
    stepper = _Stepper(G16, [PhysParams(eps_kappa=0.02)], SolverConfig(
        dt=0.01, t_end=0.01, scheme=scheme, linearized=linearized),
        _rich_field(G16).c[None], None, None)
    c, sizes = stepper.c.copy(), []
    for stepping in (True, False):
        bound = copy.copy(stepper)
        tracemalloc.start()
        try:
            bound._bind(c, stepping)
            sizes.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
    assert [round(size / c.nbytes) for size in sizes] == [count, 1]
    assert (stepper.outs == []) == linearized
    bound = stepper.stepping(c)
    bound.step()  # every buffer a step reads is bound
    if linearized:
        stepper = stepper.stepping(stepper.c)
    stepper.step()
    assert np.array_equal(bound.c, stepper.c)


def test_linearized_run_binds_no_step_buffer():
    # a linearized run only applies its step map's powers, whose matmul
    # writes into ``next``: at whole 48^3 its stepper holds no right-hand
    # side, stage, E2 c or v, the 7 state-sized buffers (1.7 MB) that it
    # traced with them (22.6 states), which a stepping copy binds
    grid = Grid(48, 48, 48)
    c = np.zeros((1, *grid.band_shape), np.complex128)
    par = [PhysParams(eps_kappa=0.01)]
    cfg = SolverConfig(dt=0.01, t_end=0.01, linearized=True)
    _Stepper(grid, par, cfg, c, None, None)  # warm the caches
    gc.collect()
    tracemalloc.start()
    try:
        stepper = _Stepper(grid, par, cfg, c, None, None)
        built, _ = tracemalloc.get_traced_memory()
        stepping = stepper.stepping(c)
        bound = tracemalloc.get_traced_memory()[0] - built
    finally:
        tracemalloc.stop()
    assert round(bound / c.nbytes) == 8 and stepping.v is not None
    assert built < 16 * c.nbytes, built / c.nbytes


@pytest.mark.parametrize("mode", [(6, 4), (9, 4)])
def test_step_map_grows_its_column_at_sigma_star(mode):
    # the top |mu| of the mode's column map on its span gives the growth
    # rate log|mu| / dt of the discrete IF-RK4 step: sigma* to 1e-8 at
    # dt = 0.01, and its gap to sigma* falls at fourth order in dt
    par = PhysParams(eps_kappa=0.01)
    sigma = solve_sigma_star(*mode, par).sigma_star
    layout = Grid(48, 48, 48, Sublattice.diag(*mode))
    gaps = []
    for dt in (0.01, 0.005):
        stepper = _Stepper(layout, [par], SolverConfig(
            dt=dt, t_end=dt, linearized=True),
            np.zeros((1, *layout.band_shape), np.complex128), None, None)
        A, B = stepper.step_map()
        assert B is None
        mu = np.max(np.abs(np.linalg.eigvals(A[0, 1, 1])))  # column (k1, k2)
        gaps.append(math.log(mu) / dt - sigma)
    assert abs(gaps[0]) < 1e-8
    assert 12.8 < gaps[0] / gaps[1] < 19.2


@pytest.mark.parametrize("nsteps", [40, 400])
def test_linearized_run_steps_only_to_build_its_map(monkeypatch, nsteps):
    # a linearized run makes the steps of its probe plan, 5 on this span
    # (p3 = 16 at shift 1: 9 groups of spikes 9 apart, two to a state of
    # its one member, one in each part), however many steps it advances by
    # powers of the map they build
    calls = []

    def counted(stepper, _fn=_Stepper.step):
        calls.append(stepper.c.shape)
        _fn(stepper)

    monkeypatch.setattr(_Stepper, "step", counted)
    par = PhysParams(eps_kappa=0.01)
    phi = assemble_eigenfunction(solve_sigma_star(6, 4, par),
                                 Grid(48, 48, 48))
    _, diag = run(phi, par, SolverConfig(dt=0.01, t_end=0.01 * nsteps,
                                         record_every=20, linearized=True))
    band = diag.layout.band_shape
    assert round(diag.times[-1] / 0.01) == nsteps
    assert band[2] == 16
    assert calls == [(1, *band)] * 5


def _run_peak(m, linearized=True, steps=40):
    """The traced peak of a warm whole-lattice 48^3 run of ``steps`` steps
    at ``m``, recording every 10, linearized or not (of data a tenth as
    large, whose CFL number stays under 0.5)."""
    grid = Grid(48, 48, 48)
    theta0 = _rich_field(grid) * (1.0 if linearized else 0.1)
    par = PhysParams(eps_kappa=0.01, m=m)
    cfg = SolverConfig(dt=0.01, t_end=0.01 * steps, record_every=10,
                       linearized=linearized)
    run(theta0, par, cfg)  # warm the caches
    gc.collect()
    tracemalloc.start()
    try:
        run(theta0, par, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_whole_lattice_linearized_run_memory():
    # a whole-lattice 48^3 run at m = 2, whose map reads the conjugate
    # mirror, holds its map and one power beside the state: its traced peak
    # stays under 5 times the 5.06 MB of the same run stepped one by one
    peak = _run_peak(2)
    assert peak < 5 * 5.06e6, peak


def test_whole_lattice_linearized_run_memory_at_shift_1():
    # at m = 1 the map is probed in one state, not a 2-state stack of
    # spikes with its own buffers: the traced peak reads 10.1 MB, under the
    # 11.2 MB it read with the stack
    peak = _run_peak(1)
    assert peak < 10.6e6, peak


def test_whole_lattice_nonlinear_run_memory():
    # a one-member nonlinear run of 10 steps at 48^3 holds its stack's
    # buffers and advection product, and one-field passes for its records,
    # whose samples go into a gradient row of the product, free at record
    # time: its traced peak reads 20.10 MB, and 20.98 MB with an array of
    # their own
    peak = _run_peak(1, linearized=False, steps=10)
    assert peak < 20.2e6, peak


@pytest.mark.parametrize("linearized", [False, True],
                         ids=["nonlinear", "linearized"])
def test_records_read_linf_through_the_run_passes(monkeypatch, linearized):
    # a run builds its passes once (the advection product's two, for its
    # stack of one member, and one-field passes for its records' L-infinity
    # norms), however many records it makes, and a record's L-infinity
    # norm is linf_norm's own, bit for bit
    built = []

    def init(passes, layout, lead, _fn=mgsim.fields._Passes.__init__):
        built.append(lead)
        _fn(passes, layout, lead)

    monkeypatch.setattr(mgsim.fields._Passes, "__init__", init)
    theta0 = _rich_field(G16, seed=4) * 0.1
    counts = []
    for record_every in (1, 5):
        built.clear()
        final, diag = run(theta0, PhysParams(eps_kappa=0.02), SolverConfig(
            dt=0.01, t_end=0.1, record_every=record_every,
            linearized=linearized))
        counts.append(list(built))
        built.clear()
        layout = diag.layout
        assert diag.linf[-1] == linf_norm(
            SpectralField(layout, layout.gather(final.c)))
    assert counts[0] == counts[1] == (
        [()] if linearized else [(6, 1), (1,), ()])


def test_linearized_run_is_capped_on_its_span():
    # at eps_kappa = 0 a horizon past the cap is refused at the rate of the
    # span's rows, which is at most the whole grid's
    grid, par = Grid(48, 48, 48), PhysParams(eps_kappa=0.0)
    phi = assemble_eigenfunction(solve_sigma_star(6, 4, par), grid)
    cfg = SolverConfig(dt=0.01, t_end=100.0, linearized=True)
    with pytest.raises(GrowthCapError) as exc:
        run(phi, par, cfg)
    rates = []
    for lattice in (Sublattice.diag(6, 4), WHOLE_LATTICE):
        with pytest.raises(GrowthCapError) as cap:
            _growth_cap_check(replace(grid, lattice=lattice), par, cfg)
        rates.append(cap.value.sigma_max)
    assert exc.value.sigma_max == rates[0] <= rates[1]


# (grid shape, plane q_num/q_den): J = 0 for 9/1 at 24^3; on 2/1 at 24^3
# the grid's product aliases (8, 16) onto (8, -8), in band and off the plane
PLANE_RHS_CASES = [
    ((24, 24, 24), (1, 1)), ((24, 24, 24), (2, 1)), ((24, 24, 24), (1, 2)),
    ((24, 24, 24), (0, 1)), ((24, 24, 24), (-1, 1)), ((24, 24, 24), (9, 1)),
    ((24, 32, 24), (1, 1)), ((24, 32, 24), (-2, 3)),
]


@pytest.mark.parametrize("shape, ratio", PLANE_RHS_CASES)
def test_plane_rhs_matches_grid_rhs_on_the_plane(shape, ratio):
    grid = Grid(*shape)
    layout = replace(grid, lattice=Sublattice.of_plane(PlaneSpec(*ratio)))
    rng = np.random.default_rng(3)
    c = forward(layout, rng.standard_normal(layout.shape))
    got = advection_coefficients(layout, c, 1.3)
    ref = layout.gather(advection_coefficients(grid, layout.scatter(c), 1.3))
    assert np.max(np.abs(got - ref)) <= 1e-14 * max(np.max(np.abs(ref)),
                                                    1e-300)
    if ratio in ((0, 1), (9, 1)):  # no transport along the plane
        assert np.max(np.abs(ref)) == 0.0
    else:
        assert np.max(np.abs(ref)) > 0.1 * np.max(np.abs(c))


@pytest.mark.parametrize("shape, ratio", [((24, 24, 24), (1, 1)),
                                          ((32, 32, 32), (1, 2)),
                                          ((24, 24, 24), (2, 1))])
@pytest.mark.parametrize("scheme, linearized", [
    ("if_rk4", False), ("imex_euler", False), ("if_rk4", True)])
def test_restricted_run_matches_grid_run(shape, ratio, scheme, linearized):
    # on-plane data evolved on the grid stays on the plane, since no product
    # aliases back into the band (with b = n // 3 the product (8, 16) on 2/1
    # at 24^3 would land on (8, -8)), so the grid run is the reference
    grid, plane = Grid(*shape), PlaneSpec(*ratio)
    par = PhysParams(eps_kappa=0.05, gamma=0.8)
    k1, k2 = ratio[1], ratio[0]
    theta0 = (cosine_mode(grid, (k1, k2, 1), 0.3)
              + cosine_mode(grid, (2 * k1, 2 * k2, 2), 0.2)
              + cosine_mode(grid, (-k1, -k2, 3), 0.1))
    if not linearized:
        theta0 = theta0 + sine_vertical(grid, 1)
    common = dict(dt=0.01, t_end=0.05, record_every=2, scheme=scheme,
                  linearized=linearized, plane=plane)
    got, gdiag = run(theta0, par, SolverConfig(
        lattice=Sublattice.of_plane(plane), **common))
    want, wdiag = _whole_band_run(theta0, par, SolverConfig(**common))
    scale = np.max(np.abs(want.c))
    assert np.max(np.abs(got.c - want.c)) <= 1e-14 * scale
    assert np.max(np.abs(want.c - theta0.c)) > 1e-4 * scale  # it moved
    assert np.max(gdiag.off_plane) == 0.0
    assert np.max(wdiag.off_plane) <= 1e-15 * scale
    for col in ("l2", "hs"):
        assert np.allclose(getattr(gdiag, col), getattr(wdiag, col),
                           rtol=1e-13, atol=0.0)
    _assert_final_linf(gdiag, want)
    if not linearized:  # the plane's own right-hand side is energy neutral
        assert np.max(np.abs(gdiag.energy_residual)) < 1e-13


class TestRestriction:
    def test_projection_enforced_every_step(self):
        par = PhysParams(eps_kappa=0.02, gamma=0.3)
        g = Grid(24, 24, 24)
        pl = PlaneSpec(1, 1)
        theta0 = sine_vertical(g, 1) + cosine_mode(g, (1, 1, 1), 1e-3)
        cfg = SolverConfig(dt=0.01, t_end=0.5, record_every=10, plane=pl,
                           lattice=Sublattice.of_plane(pl),
                           source=SourceSpec("steady_balance"))
        final, diag = run(theta0, par, cfg)
        assert np.max(diag.off_plane) == 0.0
        assert off_plane_norm(final, pl) == 0.0

    def test_restriction_keeps_the_on_plane_part_of_the_reference(self):
        # the reference is gathered onto the plane's layout like the
        # initial data: its off-plane part never enters ref_l2
        par = PhysParams(eps_kappa=0.05)
        pl = PlaneSpec(1, 1)
        theta0 = sine_vertical(G16, 1) + cosine_mode(G16, (1, 1, 1), 0.1)
        cfg = SolverConfig(dt=0.01, t_end=0.02, record_every=1, plane=pl,
                           lattice=Sublattice.of_plane(pl))
        _, diag = run(theta0, par, cfg,
                      reference=theta0 + cosine_mode(G16, (1, 2, 1), 0.5))
        _, want = run(theta0, par, cfg, reference=theta0)
        assert diag.ref_l2[0] == 0.0
        assert np.array_equal(diag.ref_l2, want.ref_l2)
        assert want.ref_l2[-1] > 0.0

    def test_restriction_projects_initial_data(self):
        par = PhysParams(eps_kappa=0.05)
        g = Grid(16, 16, 16)
        pl = PlaneSpec(1, 1)
        theta0 = cosine_mode(g, (2, 2, 1)) + cosine_mode(g, (1, 2, 1), 0.5)
        cfg = SolverConfig(dt=0.01, t_end=0.02, record_every=1, plane=pl,
                           lattice=Sublattice.of_plane(pl))
        _, diag = run(theta0, par, cfg)
        on_l2 = l2_norm(cosine_mode(g, (2, 2, 1)))
        assert diag.l2[0] == pytest.approx(on_l2, rel=1e-12)


class TestGrowthRateFit:
    def test_requires_recorded_series(self):
        par = PhysParams(eps_kappa=0.1)
        _, diag = run(cosine_mode(G16, (1, 1, 1)), par,
                      SolverConfig(dt=0.01, t_end=0.1))
        with pytest.raises(ValueError):
            growth_rate_fit(diag, 0.0, 1.0, series="ref_l2")

    @pytest.mark.parametrize("series", ["bogus", "hs_order", "plane",
                                        "times", "ref_l2", "off_plane"])
    def test_unknown_series_names_the_recorded_ones(self, series):
        # a run without a plane or a reference records neither off_plane
        # nor ref_l2: both are all NaN
        par = PhysParams(eps_kappa=0.1)
        _, diag = run(cosine_mode(G16, (1, 1, 1)), par,
                      SolverConfig(dt=0.01, t_end=0.1))
        with pytest.raises(ValueError, match=(
                f"series '{series}' was not recorded; recorded: l2, linf, "
                f"hs, energy_residual$")):
            growth_rate_fit(diag, 0.0, 1.0, series=series)

    def test_requires_two_records(self):
        par = PhysParams(eps_kappa=0.1)
        _, diag = run(cosine_mode(G16, (1, 1, 1)), par,
                      SolverConfig(dt=0.01, t_end=0.1, record_every=100))
        with pytest.raises(ValueError):
            growth_rate_fit(diag, 0.05, 0.06)

    def test_recovers_exact_exponential(self):
        par = PhysParams(eps_kappa=0.2, gamma=1.0)
        _, diag = run(cosine_mode(G16, (2, 1, 1)), par,
                      SolverConfig(dt=0.01, t_end=1.0, record_every=10))
        rate, r2 = growth_rate_fit(diag, 0.0, 1.0)
        assert rate == pytest.approx(-0.2 * 6.0, rel=1e-10)
        assert r2 == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("lattice", [
    WHOLE_LATTICE, Sublattice.of_plane(PlaneSpec(1, 1))], ids=["whole", "plane"])
def test_run_leaves_a_custom_source_unchanged(lattice):
    # realize hands run the source's own array, which run only gathers
    par = PhysParams(eps_kappa=0.01)
    src = SourceSpec("custom", custom=cosine_mode(G16, (1, 1, 1), 1e-3))
    before = src.custom.c.tobytes()
    assert src.realize(G16, par) is src.custom.c
    run(cosine_mode(G16, (2, 2, 1), 1e-3), par,
        SolverConfig(dt=0.01, t_end=0.05, record_every=1, lattice=lattice,
                     source=src))
    assert src.custom.c.tobytes() == before


def test_zero_field_records_no_flux_defect_and_refuses_a_log_fit():
    # a zero field's energy-flux defect is 0, not 0 / 0, and its l2 series
    # is all zeros, which a log fit refuses
    _, diag = run(SpectralField.zeros(G16), PhysParams(eps_kappa=0.01),
                  SolverConfig(dt=0.01, t_end=0.02, record_every=1))
    assert np.all(diag.energy_residual == 0.0) and np.all(diag.l2 == 0.0)
    with pytest.raises(ValueError,
                       match="series must be strictly positive for a log fit"):
        growth_rate_fit(diag, 0.0, 0.02, "l2")


def _assert_runs_alike(got, want):
    """Two (final, diagnostics) pairs are the same run, bit for bit."""
    (gfinal, gdiag), (wfinal, wdiag) = got, want
    assert gdiag.layout == wdiag.layout
    assert gfinal.c.tobytes() == wfinal.c.tobytes()
    for name in ("times", *Diagnostics.SERIES):
        assert getattr(gdiag, name).tobytes() == getattr(
            wdiag, name).tobytes(), name


def _plane_arms():
    """Criterion 12's three arms on the 1/1 plane at 24^3, to t = 0.5."""
    plane = PlaneSpec(1, 1)
    background = sine_vertical(G24, 1)
    theta0 = background + cosine_mode(G24, (1, 1, 1), 1e-4)
    cfg = SolverConfig(dt=0.01, t_end=0.5, record_every=10, plane=plane,
                       lattice=Sublattice.of_plane(plane),
                       source=SourceSpec("steady_balance"))
    return ([theta0] * 3, [PhysParams(eps_kappa=0.02, gamma=g)
                           for g in (0.3, 0.5, 0.8)], cfg, background)


def _seed_ladder():
    """Criterion 09's seed, the (9, 4) eigenmode at 1e-2, 1e-4 and 1e-6 of
    the background, each on its own eps_kappa, on diag(9, 4) at 48^3."""
    grid = Grid(48, 48, 48)
    background = sine_vertical(grid, 1)
    params = [PhysParams(eps_kappa=e) for e in (0.01, 0.011, 0.012)]
    phi = assemble_eigenfunction(solve_sigma_star(9, 4, params[0]), grid)
    scale = l2_norm(background) / l2_norm(phi)
    cfg = SolverConfig(dt=0.01, t_end=0.3, record_every=10,
                       lattice=Sublattice.diag(9, 4),
                       source=SourceSpec("steady_balance"))
    return ([background + delta * scale * phi for delta in (1e-2, 1e-4, 1e-6)],
            params, cfg, background)


def _linearized_stack():
    """Linearized runs of one rich field at m = 2 on the whole 16x16x24
    grid (its map reads the conjugate mirror), three amplitudes and
    dissipations, advancing by powers of the map."""
    thetas = [_rich_field(Grid(16, 16, 24), seed=3) * a for a in (1, 2, 3)]
    params = [PhysParams(eps_kappa=e, gamma=g, m=2)
              for e, g in ((0.01, 1.0), (0.02, 0.8), (0.0, 0.5))]
    cfg = SolverConfig(dt=0.01, t_end=0.11, record_every=5, linearized=True)
    return thetas, params, cfg, None


def _unforced_member():
    """Two plane arms, the first at eps_kappa = 0, where the balancing
    source is absent: the stack subtracts -0 for it."""
    thetas, params, cfg, background = _plane_arms()
    return (thetas[:2], [PhysParams(eps_kappa=0.0, gamma=0.3), params[2]],
            cfg, background)


@pytest.mark.parametrize("make", [_plane_arms, _seed_ladder,
                                  _linearized_stack, _unforced_member],
                         ids=["plane_gammas", "ladder_9_4", "linearized_m2",
                              "unforced_member"])
def test_stack_members_are_their_own_runs(make):
    # a stack steps each member as its own run would, on the same layout:
    # final state and every recorded series, bit for bit
    thetas, params, cfg, reference = make()
    got = run_stack(thetas, params, cfg, reference=reference)
    assert len(got) == len(thetas)
    for pair, theta0, par in zip(got, thetas, params):
        _assert_runs_alike(pair, run(theta0, par, cfg, reference=reference))
    assert got[0][0].c.tobytes() != got[1][0].c.tobytes()


def test_linearized_stack_steps_on_the_span_of_all_its_members():
    # on the whole lattice a linearized stack steps on the diag sublattice
    # that every member's data spans together
    grid = Grid(24, 24, 24)
    thetas = [cosine_mode(grid, (2, 4, 1)), cosine_mode(grid, (6, 2, 1))]
    cfg = SolverConfig(dt=0.01, t_end=0.02, linearized=True)
    (_, diag), _ = run_stack(thetas, [PhysParams(eps_kappa=0.01)] * 2, cfg)
    assert diag.layout == replace(grid, lattice=Sublattice.diag(2, 2))


@pytest.mark.parametrize("params, match", [
    ([PhysParams(n2=1.0), PhysParams(n2=2.0)], r"share N\^2 and m"),
    ([PhysParams(m=1), PhysParams(m=2)], r"share N\^2 and m"),
    ([PhysParams()], "one PhysParams per initial field, got 1 for 2"),
])
def test_stack_refuses_members_that_do_not_share_a_layout(params, match):
    thetas = [cosine_mode(G16, (1, 2, 1), 0.1)] * 2
    with pytest.raises(ValueError, match=match):
        run_stack(thetas, params, SolverConfig(dt=0.01, t_end=0.01))
    with pytest.raises(ValueError, match="different grids"):
        run_stack([thetas[0], cosine_mode(G24, (1, 2, 1), 0.1)],
                  [PhysParams()] * 2, SolverConfig(dt=0.01, t_end=0.01))


def test_stack_blow_up_names_its_member():
    # member 1 loses finiteness; the error names it and carries its rows,
    # the rows its own run's error carries, and its CFL warnings name it
    par = PhysParams(eps_kappa=0.0)
    thetas = [cosine_mode(G16, (1, 2, 1), a) for a in (1e-3, 1e100)]
    cfg = SolverConfig(dt=0.1, t_end=1.0, record_every=1)
    errors = []
    for call in (lambda: run_stack(thetas, [par] * 2, cfg),
                 lambda: run(thetas[1], par, cfg)):
        with pytest.raises(BlowUpError) as exc:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                call()
        errors.append((exc.value, [str(w.message) for w in caught]))
    (stacked, warned), (alone, _) = errors
    assert str(stacked) == str(alone).replace(
        "finiteness at", "finiteness in member 1 at")
    assert stacked.time == alone.time
    cfl = [w for w in warned if "CFL" in w]
    assert cfl and all(" in member 1;" in w for w in cfl)
    for name in ("times", *Diagnostics.SERIES):
        assert getattr(stacked.history, name).tobytes() == getattr(
            alone.history, name).tobytes()
