"""Tests for the experiment drivers' argument checks and table writers."""

import csv

import pytest

import mgsim.experiments
from mgsim.eigen import closed_form_bounds, optimize_growth
from mgsim.experiments import plane_demo, write_eigen_csv
from mgsim.fields import PlaneSpec
from mgsim.symbol import PhysParams


@pytest.mark.parametrize("kwargs, match", [
    (dict(gammas=()), "gammas"),
    (dict(control_mode=(1, 2)), "control_mode"),
    (dict(control_mode=(1, 2, 1, 4)), "control_mode"),
    (dict(control_mode=(2, 2, 1)), "control_mode .* lies on the plane"),
])
def test_plane_demo_rejects_bad_arguments_before_any_run(monkeypatch, kwargs,
                                                         match):
    def no_run(*args, **kw):
        raise AssertionError("plane_demo ran before checking its arguments")

    monkeypatch.setattr(mgsim.experiments, "run", no_run)
    with pytest.raises(ValueError, match=match):
        plane_demo(plane=PlaneSpec(1, 1), n=8, **kwargs)


def test_eigen_csv_recomputes_closed_form_bounds(tmp_path):
    par = PhysParams(eps_kappa=0.02)
    res = optimize_growth(par, box=4)
    path = tmp_path / "modes.csv"
    write_eigen_csv(res.table, par, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k1", "k2", "gamma", "eps_kappa", "sigma_star",
                       "lower_bound", "upper_bound", "depth", "residual"]
    assert len(rows) - 1 == res.n_unstable
    for row, (k1, k2, sigma, depth, _) in zip(rows[1:], res.table):
        lower, upper = closed_form_bounds(k1, k2, par)
        assert (int(row[0]), int(row[1]), int(row[7])) == (k1, k2, depth)
        assert float(row[4]) == sigma
        assert (float(row[5]), float(row[6])) == (lower, upper)
