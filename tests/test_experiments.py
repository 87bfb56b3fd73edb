"""Tests for the experiment drivers' argument checks and table writers."""

import csv
import itertools
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mgsim
import mgsim.experiments
from mgsim.eigen import closed_form_bounds, optimize_growth
from mgsim.errors import GrowthCapError
from mgsim.experiments import instability, plane_demo, write_eigen_csv
from mgsim.fields import WHOLE_LATTICE, Grid, PlaneSpec, Sublattice
from mgsim.solver import SolverConfig, _growth_cap_check, run
from mgsim.symbol import PhysParams


@pytest.mark.parametrize("kwargs, match", [
    (dict(gammas=()), "gammas"),
    (dict(control_mode=(1, 2)), "control_mode"),
    (dict(control_mode=(1, 2, 1, 4)), "control_mode"),
    (dict(control_mode=(2, 2, 1)), "control_mode .* lies on the plane"),
    (dict(gammas=(0.3, 0.5, 0.3)), "gammas repeat"),
    (dict(control_mode=(1, 2, 0)), "control_mode .* needs k3 != 0"),
    # the control fit window [t_end / 5, t_end] holds only the record at 1
    (dict(t_end=1.0, record_every=100),
     r"fit window \[0.2, 1.0\] holds fewer than two records"),
    (dict(control_mode=(0, 2, 1)), r"control_mode .* needs k1, k2 >= 1"),
    (dict(control_mode=(-1, 2, 1)), r"control_mode .* needs k1, k2 >= 1"),
    (dict(control_mode=(1, -2, 1)), r"control_mode .* needs k1, k2 >= 1"),
])
def test_plane_demo_rejects_bad_arguments_before_any_run(monkeypatch, kwargs,
                                                         match):
    def no_run(*args, **kw):
        raise AssertionError("plane_demo ran before checking its arguments")

    monkeypatch.setattr(mgsim.experiments, "run", no_run)
    with pytest.raises(ValueError, match=match):
        plane_demo(plane=PlaneSpec(1, 1), n=8, **kwargs)


def test_instability_rejects_fit_window_before_any_solve(monkeypatch):
    def no_solve(*args, **kw):
        raise AssertionError("instability solved before checking its window")

    for name in ("optimize_growth", "run"):
        monkeypatch.setattr(mgsim.experiments, name, no_solve)
    with pytest.raises(ValueError, match=(
            r"fit window \[1.0, 0.5\] holds fewer than two records")):
        instability(PhysParams(eps_kappa=0.01), box=2, n=32, dt=0.01,
                    t_end=0.5, fit_start=1.0, record_every=5)


def test_importing_experiments_leaves_out_scipy_linalg():
    # only the dense oracle needs scipy.linalg, which is slow to import
    code = "import sys, mgsim.experiments; print('scipy.linalg' in sys.modules)"
    src = str(Path(mgsim.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_eigen_csv_recomputes_closed_form_bounds(tmp_path):
    par = PhysParams(eps_kappa=0.02, n2=0.5, m=2)
    res = optimize_growth(par, box=4)
    path = tmp_path / "modes.csv"
    write_eigen_csv(res.table, par, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k1", "k2", "gamma", "eps_kappa", "sigma_star",
                       "lower_bound", "upper_bound", "depth", "residual",
                       "n2", "m"]
    assert len(rows) - 1 == res.n_unstable > 0
    for row, (k1, k2, sigma, depth, _) in zip(rows[1:], res.table):
        lower, upper = closed_form_bounds(k1, k2, par)
        assert (int(row[0]), int(row[1]), int(row[7])) == (k1, k2, depth)
        assert float(row[4]) == sigma
        assert (float(row[5]), float(row[6])) == (lower, upper)
        assert (float(row[9]), int(row[10])) == (0.5, 2)


def test_instability_at_zero_eps_kappa_reports_no_continuum():
    # there is no continuum optimum at eps_kappa = 0: absent, as inf
    rep = instability(PhysParams(), box=1, n=32, dt=0.01, t_end=0.2,
                      record_every=5, fit_start=0.0)
    assert rep.continuum_k == (math.inf, math.inf)
    assert rep.continuum_lb == math.inf
    assert rep.fitted_rate == pytest.approx(rep.sigma_star, rel=1e-6)


def _count_transforms(monkeypatch):
    """Patch forward and inverse to append each call's grid to a list."""
    seen = []
    originals = {name: getattr(mgsim.fields, name)
                 for name in ("forward", "inverse")}
    for module in (mgsim.fields, mgsim.solver):
        for name, fn in originals.items():
            def counted(grid, *args, _fn=fn, **kwargs):
                seen.append(grid)
                return _fn(grid, *args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    return seen


def test_instability_steps_only_on_the_seed_sublattice(monkeypatch):
    # the run gathers onto the (9, 4) seed's layout once: no transform on
    # the 48^3 grid, every transform on the layout the report names
    seen = _count_transforms(monkeypatch)
    rep = instability(PhysParams(eps_kappa=0.01), box=12, n=48, dt=0.01,
                      t_end=0.1, record_every=5, fit_start=0.0)
    assert rep.layout == Grid(48, 48, 48, Sublattice.diag(9, 4))
    assert str(rep.layout) == (
        "16x12x48 on Sublattice(basis=((9, 0), (0, 4)), s3=1)")
    assert seen and set(seen) == {rep.layout}
    assert rep.fitted_rate == pytest.approx(rep.sigma_star, rel=1e-3)


@pytest.mark.parametrize("plane, m, control_mode, control_layout", [
    (PlaneSpec(1, 1), 1, (1, 2, 1),
     "24x1x24 on Sublattice(basis=((1, 2),), s3=1)"),
    (PlaneSpec(2, 1), 1, (1, 1, 1),
     "24x1x24 on Sublattice(basis=((1, 1),), s3=1)"),
    (PlaneSpec(-1, 1), 2, (1, 2, 1),
     "24x1x24 on Sublattice(basis=((1, 2),), s3=1)"),
], ids=["defaults", "plane2_control111", "plane-1_m2"])
def test_plane_demo_steps_only_on_plane_layouts(monkeypatch, plane, m,
                                                control_mode, control_layout):
    # every run steps on its seed's plane: the arms on the demo's plane,
    # then the control on its own, and no transform on the 24^3 grid
    seen = _count_transforms(monkeypatch)
    rep = plane_demo(plane=plane, m=m, control_mode=control_mode, n=24,
                     dt=0.01, t_end=0.5, record_every=10)
    assert str(rep.control_layout) == control_layout
    arm_layout = Grid(24, 24, 24, Sublattice.of_plane(plane))
    assert [grid for grid, _ in itertools.groupby(seen)] == [
        arm_layout, rep.control_layout]


@pytest.mark.parametrize("m, control_mode, layout", [
    (1, (1, 2, 1), "24x1x24 on Sublattice(basis=((1, 2),), s3=1)"),
    (2, (1, 3, 2), "24x1x12 on Sublattice(basis=((1, 3),), s3=2)"),
    (2, (2, 4, 1), "24x1x24 on Sublattice(basis=((1, 2),), s3=1)"),
], ids=["m1", "m2_stride2", "m2_gcd2"])
def test_plane_demo_control_matches_the_grid_control(monkeypatch, m,
                                                     control_mode, layout):
    # the seed, sin(m x3) and the source all lie on the seed's plane, so
    # the control there is the grid control without its rounding off it
    calls = []

    def recorded(theta0, params, config, reference=None):
        out = run(theta0, params, config, reference=reference)
        calls.append((theta0, params, config, reference, out))
        return out

    monkeypatch.setattr(mgsim.experiments, "run", recorded)
    rep = plane_demo(gammas=(0.3,), m=m, n=24, dt=0.01, t_end=1.0,
                     control_mode=control_mode, record_every=10)
    assert str(rep.control_layout) == layout
    theta0, params, config, reference, (got, gdiag) = calls[-1]
    assert gdiag is rep.control.diag
    assert config.lattice == rep.control_layout.lattice
    want, wdiag = run(theta0, params, replace(config, lattice=WHOLE_LATTICE),
                      reference=reference)
    assert np.max(np.abs(got.c - want.c)) <= 1e-14 * np.max(np.abs(want.c))
    assert np.array_equal(gdiag.times, wdiag.times)
    for name in ("l2", "linf", "hs", "off_plane", "ref_l2"):
        np.testing.assert_allclose(getattr(gdiag, name),
                                   getattr(wdiag, name), rtol=1e-13, atol=0,
                                   err_msg=name)


def test_plane_demo_control_runs_past_the_grid_growth_cap():
    # a plane layout is exempt from the growth cap, the control's too; on
    # the whole 24^3 grid this horizon is refused
    params = PhysParams(eps_kappa=0.02, gamma=0.3)
    with pytest.raises(GrowthCapError) as exc:
        _growth_cap_check(Grid(24, 24, 24), params,
                          SolverConfig(dt=0.05, t_end=20.0))
    assert exc.value.t_max == pytest.approx(15.56, abs=0.01)
    rep = plane_demo(eps_kappa=0.02, n=24, dt=0.05, t_end=20.0,
                     record_every=20)
    assert rep.control.diag.times[-1] == pytest.approx(20.0)
    assert np.isfinite(rep.control.diag.off_plane).all()
    assert rep.control_rate == pytest.approx(rep.control_sigma_ref, rel=0.05)
