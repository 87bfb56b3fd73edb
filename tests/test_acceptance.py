"""Acceptance suite: one test per headline claim, pinned tolerances.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Each docstring states the claim and the tolerance; the
expected numbers are frozen from the independent oracles (dense matrix
pencil, hand evaluation, closed-form bounds) and must not drift.
"""

import math
import warnings

import numpy as np
import pytest

from mgsim.symbol import (
    PhysParams,
    balance_oracle,
    eval_denominator,
    eval_symbol,
    growth_scan,
    plane_bound_scan,
)
from mgsim.eigen import (
    assemble_eigenfunction,
    closed_form_bounds,
    continuum_lower_bound,
    continuum_optimum,
    dense_sigma_star,
    illposedness_sweep,
    optimize_growth,
    sigma_bracket,
    sigma_shifted,
    solve_sigma_star,
)
from mgsim.fields import Grid, PlaneSpec, cosine_mode, l2_norm, sine_vertical
from mgsim.solver import SolverConfig, SourceSpec, growth_rate_fit, run
from mgsim.experiments import instability, plane_demo


# ---------------------------------------------------------------------------
# shared expensive computations


@pytest.fixture(scope="module")
def opt_eps001():
    return optimize_growth(PhysParams(eps_kappa=0.01), box=12)


@pytest.fixture(scope="module")
def instability_report():
    params = PhysParams(eps_kappa=0.01)
    return instability(params, box=12, n=48, dt=0.01, t_end=8.0,
                       record_every=20, fit_start=1.0)


@pytest.fixture(scope="module")
def plane_demo_report():
    return plane_demo(plane=PlaneSpec(1, 1), gammas=(0.3, 0.5, 0.8),
                      eps_kappa=0.02, n=24, dt=0.01, t_end=5.0, seed=1e-4,
                      control_mode=(1, 2, 1))


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_multiplier_matches_hand_values():
    """Multiplier components reproduce hand evaluation; zero convention
    on {k3 = 0} and at the origin (exact equality)."""
    assert eval_denominator((1, 1, 1), 1.0) == 4.0
    assert eval_symbol((1, 1, 1), 1.0) == (0.5, -1.0, 0.5)
    assert eval_denominator((1, 2, 3), 2.0) == 520.0
    assert eval_symbol((3, -2, 5), 1.0) == pytest.approx(
        balance_oracle((3, -2, 5), 1.0).real, abs=1e-13)
    assert eval_symbol((5, 7, 0), 1.0) == (0.0, 0.0, 0.0)
    assert eval_symbol((0, 0, 0), 1.0) == (0.0, 0.0, 0.0)


def test_criterion_02_linear_growth_sharp_uniformly_in_n2():
    """|M(k)| <= |k| everywhere (tol 1e-12) and the constant 1 is sharp
    (ratio > 0.99 within |k|_inf <= 24) for N^2 over two decades."""
    ks = np.arange(-24, 25)
    K1, K2, K3 = np.meshgrid(ks, ks, ks, indexing="ij")
    kmag = np.sqrt(K1 ** 2 + K2 ** 2 + K3 ** 2)
    for n2 in (0.25, 1.0, 4.0, 16.0):
        from mgsim.symbol import symbol_components

        m1, m2, m3 = symbol_components(K1, K2, K3, n2)
        mag = np.sqrt(m1 ** 2 + m2 ** 2 + m3 ** 2)
        ratio = np.where(kmag > 0, mag / np.where(kmag > 0, kmag, 1.0), 0.0)
        assert ratio.max() <= 1.0 + 1e-12, f"bound violated at N^2 = {n2}"
        assert ratio.max() > 0.99, f"bound not sharp at N^2 = {n2}"
        i = np.unravel_index(np.argmax(ratio), ratio.shape)
        assert K2[i] == 0, "sharpness should be approached on the k2 = 0 line"


def test_criterion_03_balance_system_reproduces_multiplier():
    """Solving the full linear balance system mode-by-mode returns the
    closed-form multiplier (tol 1e-12) and is singular iff k2 = k3 = 0."""
    from mgsim.errors import SingularSystemError

    rng = np.random.default_rng(0)
    for n2 in (0.5, 1.0, 2.0):
        for _ in range(40):
            k = tuple(int(v) for v in rng.integers(-6, 7, size=3))
            if k[2] == 0:
                continue
            direct = np.array(eval_symbol(k, n2))
            solved = balance_oracle(k, n2)
            assert np.max(np.abs(solved.imag)) < 1e-12 * (1 + np.abs(solved).max())
            assert np.max(np.abs(solved.real - direct)) < 1e-12 * (
                1.0 + np.abs(direct).max()), (k, n2)
    with pytest.raises(SingularSystemError):
        balance_oracle((3, 0, 0), 1.0)


def test_criterion_04_plane_constant_and_off_plane_growth():
    """On the k2 = k1 plane the multiplier is bounded by 2 N^2 (within 1%,
    plateau under box doubling < 1%), while off-plane it grows linearly."""
    c32, c64 = plane_bound_scan(1, 1, 32, 1.0), plane_bound_scan(1, 1, 64, 1.0)
    assert 1.95 < c64 <= 2.0 and abs(c64 - c32) / c64 < 0.01
    d32, d64 = plane_bound_scan(1, 1, 32, 2.0), plane_bound_scan(1, 1, 64, 2.0)
    assert 3.9 < d64 <= 4.0 and abs(d64 - d32) / d64 < 0.01
    rows = growth_scan(32, 1.0)
    j, kmag, mmag = rows[-1]
    assert mmag > 0.69 * kmag, "off-plane family must grow like |k|"
    assert mmag > 100.0 * c64


def test_criterion_05_canonical_eigenvalue_against_dense_oracle():
    """sigma*(1,1) without dissipation equals 0.1019869392585389 by both the
    continued fraction and the dense pencil oracle (tol 1e-12), inside the
    product-lemma bracket [1/10, sqrt(2)/10]."""
    par = PhysParams()
    frozen = 0.1019869392585389
    sol = solve_sigma_star(1, 1, par)
    assert abs(sol.sigma_star - frozen) < 1e-12
    assert abs(dense_sigma_star(1, 1, par) - frozen) < 1e-12
    lo, hi = sigma_bracket(1, 1, par)
    assert abs(lo - 0.1) < 1e-15 and abs(hi - math.sqrt(2.0) / 10.0) < 1e-15
    assert lo < sol.sigma_star < hi
    lower, upper = closed_form_bounds(1, 1, par)
    assert (lower, upper) == (pytest.approx(0.04), pytest.approx(0.5))
    assert lower < sol.sigma_star < upper
    s1 = sigma_shifted(sol.sigma_star, 1, 1, 1, par)
    s2 = sigma_shifted(sol.sigma_star, 2, 1, 1, par)
    assert 0.01 < s1 * s2 < 0.02  # 1/(alpha_1 alpha_2), 2/(alpha_1 alpha_2)


def test_criterion_06_discrete_optimum_tracks_continuum(opt_eps001):
    """At eps_kappa = 0.01 the argmax of the certified bound over [1,12]^2
    is within +-2 of the continuum prediction (6.25, 3.54); the fastest
    mode is (9,4) with sigma* = 0.835569518 (tol 1e-9) >= bound max
    0.306666667 (tol 1e-9)."""
    res = opt_eps001
    ck1, ck2 = continuum_optimum(PhysParams(eps_kappa=0.01))
    assert abs(ck1 - 6.25) < 1e-12 and abs(ck2 - math.sqrt(12.5)) < 1e-12
    assert abs(res.lb_argmax[0] - ck1) <= 2.0
    assert abs(res.lb_argmax[1] - ck2) <= 2.0
    assert res.lb_argmax == (6, 4)
    assert abs(res.lb_max - 0.30666666666666664) < 1e-9
    assert (res.k1, res.k2) == (9, 4)
    assert abs(res.sigma_star - 0.8355695179489937) < 1e-9
    assert res.sigma_star >= res.lb_max
    clb = continuum_lower_bound(PhysParams(eps_kappa=0.01))
    assert abs(res.lb_max - clb) < 0.05


def test_criterion_07_sweep_verdicts_across_regimes():
    """The (j^2, j) family: without dissipation rates grow like j (certified,
    sigma_j >= j/26); at gamma = 1/2 the certificate survives below the
    threshold diffusivity and fails above it while roots persist; at
    gamma = 3/4 unstable modes stop at finite j; at gamma = 1/4 diverging."""
    res = illposedness_sweep("nondiffusive", PhysParams(), 2, 12)
    assert res.verdict == "diverging"
    rates = [r.sigma_star for r in res.rows]
    assert all(r.certified and r.sigma_star >= r.j / 26.0 for r in res.rows)
    assert rates == sorted(rates)

    below = illposedness_sweep(
        "fractional", PhysParams(eps_kappa=0.02, gamma=0.5), 2, 10)
    assert below.verdict == "diverging"
    above = illposedness_sweep(
        "fractional", PhysParams(eps_kappa=0.1, gamma=0.5), 2, 10)
    assert above.verdict == "terminated" and "non-positive" in above.reason
    assert all(r.sigma_star is not None and not r.certified
               for r in above.rows)

    strong = illposedness_sweep(
        "fractional", PhysParams(eps_kappa=0.02, gamma=0.75), 2, 12)
    assert strong.verdict == "terminated"
    found = [r.j for r in strong.rows if r.sigma_star is not None]
    assert found and max(found) == 8

    weak = illposedness_sweep(
        "fractional", PhysParams(eps_kappa=0.01, gamma=0.25), 2, 8)
    assert weak.verdict == "diverging"


def test_criterion_08_linearized_dynamics_confirm_sigma_star():
    """Evolving the (1,1) eigenmode with the linearized integrator at
    eps_kappa = 0.01 reproduces sigma* = 0.05714564320543115 to rel 1e-9."""
    par = PhysParams(eps_kappa=0.01)
    sol = solve_sigma_star(1, 1, par)
    assert abs(sol.sigma_star - 0.05714564320543115) < 1e-12
    phi = assemble_eigenfunction(sol, Grid(32, 32, 32))
    cfg = SolverConfig(dt=0.005, t_end=2.0, record_every=40, linearized=True)
    _, diag = run(phi, par, cfg)
    rate, r2 = growth_rate_fit(diag, 0.0, 2.0, "l2")
    assert abs(rate - sol.sigma_star) < 1e-9 * sol.sigma_star
    assert r2 > 1.0 - 1e-12
    amp = diag.l2[-1] / diag.l2[0]
    assert abs(amp - math.exp(2.0 * sol.sigma_star)) < 1e-9


def test_criterion_09_nonlinear_growth_matches_prediction(instability_report):
    """Seeding the steady state with the fastest eigenmode (9,4) at
    eps_kappa = 0.01 grows at the predicted sigma* to rel 1e-4 (r^2 >
    0.9999) through the nonlinear dynamics on a 48^3 grid."""
    rep = instability_report
    assert (rep.k1, rep.k2) == (9, 4)
    rel = abs(rep.fitted_rate - rep.sigma_star) / rep.sigma_star
    assert rel < 1e-4, f"fitted {rep.fitted_rate} vs {rep.sigma_star}"
    assert rep.r_squared > 0.9999
    assert rep.diag.ref_l2[-1] > 50.0 * rep.diag.ref_l2[0]


def test_criterion_10_steady_state_holds():
    """With the balancing source at eps_kappa = 0.05 (every mode stable),
    sin(x3) is preserved: departure below 1e-12 over five time units."""
    par = PhysParams(eps_kappa=0.05)
    g = Grid(24, 24, 24)
    theta0 = sine_vertical(g, 1)
    cfg = SolverConfig(dt=0.01, t_end=5.0, record_every=100,
                       source=SourceSpec("steady_balance"))
    _, diag = run(theta0, par, cfg, reference=theta0)
    assert np.max(diag.ref_l2) < 1e-12


def test_criterion_11_conservation_and_structure_diagnostics():
    """Along a nonlinear multi-mode run recorded every step, the advective
    energy-neutrality defect stays below 1e-10, the vertical mean stays
    exactly zero, and stored spectra remain exactly conjugate-symmetric."""
    par = PhysParams(eps_kappa=0.01)
    g = Grid(32, 32, 32)
    sol = solve_sigma_star(1, 1, par)
    theta0 = (sine_vertical(g, 1) + 0.1 * assemble_eigenfunction(sol, g)
              + cosine_mode(g, (2, 1, 2), 0.05))
    cfg = SolverConfig(dt=0.01, t_end=0.3, record_every=1,
                       source=SourceSpec("steady_balance"))
    final, diag = run(theta0, par, cfg)
    assert np.nanmax(np.abs(diag.energy_residual)) < 1e-10
    assert np.max(np.abs(final.c[:, :, 0])) == 0.0
    rev = (-np.arange(final.c.shape[0])) % final.c.shape[0]
    plane = final.c[:, :, 0]
    assert np.array_equal(plane, np.conj(plane[np.ix_(rev, rev)]))
    assert np.all(np.diff(diag.times) > 0)


def test_criterion_12_plane_confinement_versus_contamination(plane_demo_report):
    """Restricting to the k2 = k1 plane keeps off-plane content exactly
    zero for gamma in {0.3, 0.5, 0.8} while the unrestricted control's
    off-plane seed grows by > 2.5x over t = 5 at the rate sigma*(1,2)
    (rel 0.15); the plane constant matches 2 N^2 within 1%."""
    rep = plane_demo_report
    assert abs(rep.plane_constant - 2.0) / 2.0 < 0.01
    assert [a.gamma for a in rep.arms] == [0.3, 0.5, 0.8]
    for arm in rep.arms:
        assert arm.off_plane_max == 0.0, f"leak at gamma = {arm.gamma}"
        assert arm.departure_factor < 2.0, "confined growth should stay tame"
    assert rep.control.departure_factor > 2.5
    rel = abs(rep.control_rate - rep.control_sigma_ref) / rep.control_sigma_ref
    assert rel < 0.15, (rep.control_rate, rep.control_sigma_ref)


def test_criterion_13_temporal_convergence_orders():
    """Against the exact eigenmode solution e^(sigma T) phi at (6,4),
    halving dt cuts the if_rk4 error by 12.8x-19.2x (4th order; frozen
    ratio 15.6) and the imex_euler error by 1.7x-2.3x (1st order)."""
    par = PhysParams(eps_kappa=0.01)
    sol = solve_sigma_star(6, 4, par)
    g = Grid(48, 48, 48)
    phi = assemble_eigenfunction(sol, g)
    T = 2.0
    amp = math.exp(sol.sigma_star * T)

    def error(dt, scheme):
        cfg = SolverConfig(dt=dt, t_end=T, record_every=10 ** 6,
                           linearized=True, scheme=scheme)
        final, _ = run(phi, par, cfg)
        return l2_norm(final - amp * phi) / (amp * l2_norm(phi))

    e_coarse, e_fine = error(0.05, "if_rk4"), error(0.025, "if_rk4")
    assert e_coarse < 1e-6 and e_fine < 1e-7
    ratio = e_coarse / e_fine
    assert 12.8 < ratio < 19.2, f"if_rk4 ratio {ratio}"
    i_coarse, i_fine = error(0.02, "imex_euler"), error(0.01, "imex_euler")
    ratio1 = i_coarse / i_fine
    assert 1.7 < ratio1 < 2.3, f"imex ratio {ratio1}"
