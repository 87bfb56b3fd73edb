"""Tests for the experiment drivers' argument checks and table writers."""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mgsim
import mgsim.experiments
from mgsim.eigen import closed_form_bounds, optimize_growth
from mgsim.experiments import instability, plane_demo, write_eigen_csv
from mgsim.fields import Grid, PlaneSpec, Sublattice
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


def test_instability_steps_only_on_the_seed_sublattice(monkeypatch):
    # the run gathers onto the (9, 4) seed's layout once: no transform on
    # the 48^3 grid, every transform on the layout the report names
    seen = []
    originals = {name: getattr(mgsim.fields, name)
                 for name in ("forward", "inverse")}
    for module in (mgsim.fields, mgsim.solver):
        for name, fn in originals.items():
            def counted(grid, *args, _fn=fn, **kwargs):
                seen.append(grid)
                return _fn(grid, *args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    rep = instability(PhysParams(eps_kappa=0.01), box=12, n=48, dt=0.01,
                      t_end=0.1, record_every=5, fit_start=0.0)
    assert rep.layout == Grid(48, 48, 48, Sublattice.diag(9, 4))
    assert str(rep.layout) == (
        "16x12x48 on Sublattice(basis=((9, 0), (0, 4)), s3=1)")
    assert seen and set(seen) == {rep.layout}
    assert rep.fitted_rate == pytest.approx(rep.sigma_star, rel=1e-3)
