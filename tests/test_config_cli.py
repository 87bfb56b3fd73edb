"""Tests for config parsing and the command-line interface."""

import csv
import dataclasses
import functools
import inspect
import re
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from mgsim.errors import ConfigError
from mgsim.config import (
    get_bool, get_float, get_floats, get_int, get_ints, get_str, load_config,
    parse_config,
)
from mgsim import cli
from mgsim.cli import _Literal, _initial_field, _parse_plane, main
from mgsim.fields import (
    Grid, PlaneSpec, cosine_mode, read_snapshot, write_snapshot,
)
from mgsim.symbol import PhysParams


class TestParseConfig:
    def test_sections_and_comments(self):
        cfg = parse_config(
            "top = 1\n"
            "[phys]\n"
            "eps_kappa = 0.01  # diffusivity\n"
            "\n"
            "# whole-line comment\n"
            "[run]\n"
            "dt = 0.5\n"
            "scheme = if_rk4\n"
        )
        assert cfg == {"top": "1", "phys.eps_kappa": "0.01",
                       "run.dt": "0.5", "run.scheme": "if_rk4"}

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_config("[a]\nx = 1\nx = 2\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config("[a]\njust some words\n")

    def test_empty_section(self):
        with pytest.raises(ConfigError):
            parse_config("[]\n")

    def test_typed_getters(self):
        cfg = parse_config(
            "[a]\nx = 3\ny = 2.5\nz = true\nw = hello\n"
            "fs = 0.3, 0.5\nis = 1,2,3\n")
        assert get_int(cfg, "a.x") == 3
        assert get_float(cfg, "a.y") == 2.5
        assert get_bool(cfg, "a.z") is True
        assert get_str(cfg, "a.w") == "hello"
        assert get_floats(cfg, "a.fs") == (0.3, 0.5)
        assert get_ints(cfg, "a.is") == (1, 2, 3)
        assert get_int(cfg, "a.missing", 7) == 7
        assert get_str(cfg, "a.missing", None) is None

    def test_typed_getter_errors(self):
        cfg = parse_config("[a]\nx = notanint\nb = maybe\nn = nan\n")
        with pytest.raises(ConfigError):
            get_int(cfg, "a.x")
        with pytest.raises(ConfigError):
            get_bool(cfg, "a.b")
        with pytest.raises(ConfigError):
            get_float(cfg, "a.n")
        with pytest.raises(ConfigError):
            get_float(cfg, "a.absent")
        cfg = parse_config("[a]\ne = ,\nf = 0.3, x\ni = 1, 2.5\n")
        for getter, key in [(get_floats, "a.e"), (get_ints, "a.e"),
                            (get_floats, "a.f"), (get_ints, "a.i")]:
            with pytest.raises(ConfigError, match=key):
                getter(cfg, key)

    @pytest.mark.parametrize("getter, text", [
        (get_int, "1_6"), (get_int, "１６"), (get_float, "0.0_5"),
        (get_float, "０.５"), (get_ints, "1, 1_6"), (get_floats, "0.1, 0.0_5"),
    ])
    def test_getters_reject_non_ascii_and_underscore_literals(self, getter,
                                                              text):
        # int() and float() read both; no config of this package holds them
        cfg = parse_config(f"[a]\nx = {text}\n")
        with pytest.raises(ConfigError, match=r"'a\.x'.*not an? "):
            getter(cfg, "a.x")

    def test_reject_unused_names_exactly_the_unread_keys(self):
        cfg = parse_config(
            "[a]\nx = 3\ny = 2.5\nz = true\nw = hello\nfs = 0.3, 0.5\n")
        assert get_int(cfg, "a.x") == 3
        assert get_floats(cfg, "a.fs") == (0.3, 0.5)
        assert get_int(cfg, "a.missing", 7) == 7
        assert get_str(cfg, "a.none", None) is None
        assert cfg.resolved == {"a.x": 3, "a.fs": (0.3, 0.5),
                                "a.missing": 7, "a.none": None}
        assert type(cfg.resolved["a.x"]) is int
        for key, getter in [("a.y", get_float), ("a.z", get_bool),
                            ("a.w", get_str)]:
            with pytest.raises(ConfigError,
                               match=f"^unused config key '{key}'"):
                cfg.reject_unused()
            getter(cfg, key)
        cfg.reject_unused()
        assert cfg.resolved["a.y"] == 2.5 and cfg.resolved["a.z"] is True

    def test_reject_unused_suggests_a_close_key(self):
        cfg = parse_config("[phys]\neps_kapa = 0.05\n[other]\nzzz = 1\n")
        assert get_float(cfg, "phys.eps_kappa", 0.0) == 0.0
        with pytest.raises(ConfigError) as exc:
            cfg.reject_unused()
        assert str(exc.value) == ("unused config key 'phys.eps_kapa'; "
                                  "did you mean 'phys.eps_kappa'?")
        get_float(cfg, "phys.eps_kapa")
        with pytest.raises(ConfigError) as exc:
            cfg.reject_unused()
        assert str(exc.value) == "unused config key 'other.zzz'"

    @pytest.mark.parametrize("text, read, message", [
        # a shared section is not a close name
        ("[illposedness]\nregime = nondiffusive\n",
         ["illposedness.j_min", "illposedness.j_max"],
         "unused config key 'illposedness.regime'"),
        ("[instability]\ndepth = 64\n",
         ["instability.n", "instability.box", "instability.dt"],
         "unused config key 'instability.depth'"),
        ("[phys]\neps_kapa = 0.05\n", ["phys.eps_kappa", "phys.gamma"],
         "unused config key 'phys.eps_kapa'; did you mean 'phys.eps_kappa'?"),
        # a misspelled section still finds the key by its name
        ("[phy]\neps_kappa = 0.05\n", ["phys.eps_kappa", "phys.gamma"],
         "unused config key 'phy.eps_kappa'; did you mean 'phys.eps_kappa'?"),
        # of two keys named 'kind', the one in the key's own section
        ("[source]\nknd = none\n", ["source.kind", "init.kind"],
         "unused config key 'source.knd'; did you mean 'source.kind'?"),
    ], ids=["regime", "depth", "eps_kapa", "phy", "same-name"])
    def test_reject_unused_hint_matches_the_key_name(self, text, read,
                                                     message):
        cfg = parse_config(text)
        for key in read:
            get_float(cfg, key, 1.0)
        with pytest.raises(ConfigError) as exc:
            cfg.reject_unused()
        assert str(exc.value) == message


@given(text=st.text())
@settings(max_examples=200, deadline=None)
def test_parse_config_fuzz_raises_only_config_error(text):
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert all(isinstance(k, str) and isinstance(v, str)
               for k, v in cfg.items())


@given(data=st.binary(max_size=200) | st.text().map(str.encode))
@settings(max_examples=100, deadline=None)
def test_load_config_fuzz_raises_only_config_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_bytes(data)
    try:
        load_config(path)
    except ConfigError:
        pass


def test_load_config_rejects_non_utf8(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"[phys]\neps_kappa = 0.01 # \xff\xfe\n")
    with pytest.raises(ConfigError, match="run.cfg"):
        load_config(path)


def _manifest(path):
    """[resolved] section of a manifest as {key: value text}."""
    text = path.read_text().split("[resolved]\n", 1)[1].split("\n\n", 1)[0]
    return dict(line.split(" = ", 1) for line in text.splitlines())


EVOLVE_CFG = """
[phys]
eps_kappa = 0.05
gamma = 1.0

[grid]
n = 16

[run]
dt = 0.02
t_end = 0.1
record_every = 1
"""

MODE_INIT = "[init]\nkind = mode:1,1,2,0.5\n"


def _evolve(tmp_path, text, *extra):
    """Run ``mg evolve`` on config ``text`` with ``--out tmp_path/out``."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return CliRunner().invoke(main, ["evolve", "--config", str(cfg),
                                     "--out", str(tmp_path / "out"), *extra])


class TestCli:
    def setup_method(self):
        self.runner = CliRunner()

    def test_version(self):
        res = self.runner.invoke(main, ["--version"])
        assert res.exit_code == 0
        assert "mg" in res.output

    def test_symbol_scan(self, tmp_path):
        out = tmp_path / "scan.csv"
        res = self.runner.invoke(
            main, ["symbol-scan", "--kmax", "4", "--out", str(out)])
        assert res.exit_code == 0, res.output
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k1", "k2", "k3", "m1", "m2", "m3", "abs",
                           "ratio_abs_over_k"]
        # every k in the box except the origin (k3 = 0 rows carry zeros)
        assert len(rows) - 1 == 9 ** 3 - 1
        assert "max |M(k)|/|k|" in res.output

    def test_symbol_scan_plane_filter(self, tmp_path):
        out = tmp_path / "scan.csv"
        res = self.runner.invoke(
            main, ["symbol-scan", "--kmax", "4", "--plane", "1/1",
                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        with open(out) as fh:
            rows = list(csv.reader(fh))[1:]
        assert all(r[0] == r[1] for r in rows)

    def test_eigen_single_mode(self):
        res = self.runner.invoke(main, ["eigen", "--k1", "1", "--k2", "1"])
        assert res.exit_code == 0, res.output
        assert "sigma* = 0.101986939259" in res.output

    def test_eigen_flat_weight_mode_is_unstable(self):
        # (1, 7) lies above the product-identity endpoints; the dense
        # oracle gives sigma* = 0.16507090341
        res = self.runner.invoke(
            main, ["eigen", "--k1", "1", "--k2", "7", "--eps-kappa", "0.01"])
        assert res.exit_code == 0, res.output
        assert "sigma* = 0.165070903412" in res.output
        assert "closed-form bounds: [" in res.output

    def test_eigen_large_weight_mode(self):
        # one ulp of sigma moves this mode's residual by more than 1e-12;
        # tridiagonal oracle at depth 256: 0.0010088627719053304
        res = self.runner.invoke(main, ["eigen", "--n2", "0.001", "--k1", "1",
                                        "--k2", "10", "--eps-kappa", "0"])
        assert res.exit_code == 0, res.output
        assert "sigma* = 0.00100886277191" in res.output

    def test_eigen_stable_exits_2(self):
        res = self.runner.invoke(
            main, ["eigen", "--k1", "2", "--k2", "2", "--eps-kappa", "0.05"])
        assert res.exit_code == 3
        assert "stable" in res.output

    def test_usage_error_is_not_a_stable_result(self):
        # click exits 2 on a usage error; a stable result must not share it
        usage = self.runner.invoke(main, ["eigen", "--k1", "abc", "--k2", "1"])
        assert usage.exit_code == 2
        assert "Invalid value for '--k1'" in usage.output
        stable = self.runner.invoke(
            main, ["eigen", "--k1", "2", "--k2", "2", "--eps-kappa", "0.05"])
        assert stable.exit_code == 3
        assert "stable:" in stable.output

    @pytest.mark.parametrize("n2", ["nan", "inf", "-1", "0"])
    def test_symbol_scan_rejects_bad_n2(self, tmp_path, n2):
        out = tmp_path / "scan.csv"
        res = self.runner.invoke(main, [
            "symbol-scan", "--kmax", "2", "--n2", n2, "--out", str(out)])
        assert res.exit_code == 1, res.output
        assert "n2 must be a positive finite number" in res.output
        assert not out.exists()

    def test_eigen_requires_a_mode_choice(self):
        res = self.runner.invoke(main, ["eigen"])
        assert res.exit_code == 1
        assert "choose exactly one" in res.output

    def test_eigen_k2_counts_as_a_mode_choice(self):
        res = self.runner.invoke(
            main, ["eigen", "--optimize", "4", "--k2", "3",
                   "--eps-kappa", "0.02"])
        assert res.exit_code == 1
        assert "choose exactly one" in res.output

    def test_eigen_optimize(self, tmp_path):
        out = tmp_path / "modes.csv"
        res = self.runner.invoke(
            main, ["eigen", "--optimize", "6", "--eps-kappa", "0.02",
                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert "fastest mode in [1, 6]^2: (4, 3)" in res.output
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "k1"
        assert float(rows[1][4]) == pytest.approx(0.3139239187, rel=1e-9)

    def test_eigen_sweep(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[illposedness]\nj_max = 5\n")
        res = self.runner.invoke(main, [
            "illposedness", "--config", str(cfg),
            "--out", str(tmp_path / "out")])
        assert res.exit_code == 0, res.output
        assert re.search(r"^j =   2  mode \(4,2\)  sigma\* = \S+ +bound = "
                         r"\S+ +certified$", res.output, re.M), res.output
        assert "verdict: diverging" in res.output

    def test_evolve_roundtrip(self, tmp_path):
        text = EVOLVE_CFG.replace("n = 16", "n = 16, 32, 24") + MODE_INIT
        res = _evolve(tmp_path, text)
        assert res.exit_code == 0, res.output
        out = tmp_path / "out"
        assert sorted(p.name for p in out.iterdir()) == [
            "diag.csv", "final.snap", "manifest.txt"]
        with open(out / "diag.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "l2", "linf", "hs", "off_plane",
                           "energy_residual", "ref_l2"]
        assert len(rows) - 1 == 6  # t = 0 plus 5 recorded steps
        assert {row[6] for row in rows[1:]} == {"nan"}  # no reference
        manifest = (out / "manifest.txt").read_text()
        assert "run.dt = 0.02" in manifest
        assert "wall_seconds" in manifest
        resolved = _manifest(out / "manifest.txt")
        assert resolved["grid.n"] == "(16, 32, 24)"
        assert resolved["init.kind"] == "mode:1,1,2,0.5"
        assert "init" not in resolved
        # the written snapshot reloads as a valid init on the same grid
        res2 = _evolve(tmp_path, text.replace("mode:1,1,2,0.5",
                                              f"snapshot:{out}/final.snap"))
        assert res2.exit_code == 0, res2.output
        assert read_snapshot(out / "final.snap").grid == Grid(16, 32, 24)

    @pytest.mark.parametrize("flag, value", [
        ("--init", "mode:1,1,2"), ("--out-diag", "diag.csv"),
        ("--out-field", "final.snap")])
    def test_evolve_retired_flags_are_usage_errors(self, tmp_path, flag,
                                                   value):
        res = _evolve(tmp_path, EVOLVE_CFG + MODE_INIT, flag, value)
        assert res.exit_code == 2, res.output
        assert "No such option" in res.output and flag in res.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, key", [
        (MODE_INIT + "[grid]\nn1 = 16\n", "grid.n1"),
        ("[init]\nkind = mode:1,1,2\n[mode]\nk1 = 1\nk2 = 1\n", "mode.k1"),
    ], ids=["grid.n1", "mode"])
    def test_evolve_retired_keys_are_unused(self, tmp_path, text, key):
        res = _evolve(tmp_path, EVOLVE_CFG + text)
        assert res.exit_code == 1, res.output
        assert f"unused config key '{key}'" in res.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n", ["16, 16", "16, 16, 16, 16"])
    def test_evolve_grid_n_takes_one_or_three_integers(self, tmp_path, n):
        res = _evolve(tmp_path,
                      EVOLVE_CFG.replace("n = 16", f"n = {n}") + MODE_INIT)
        assert res.exit_code == 1, res.output
        assert (f"config key 'grid.n': expected 1 or 3 integers, got "
                f"{n.count(',') + 1}") in res.output
        assert not (tmp_path / "out").exists()

    def test_evolve_mode_requires_vertical(self, tmp_path):
        res = _evolve(tmp_path, EVOLVE_CFG + "[init]\nkind = mode:1,1,0\n")
        assert res.exit_code == 1
        assert "k3 != 0" in res.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("amp", ["nan", "inf"])
    def test_evolve_mode_rejects_non_finite_amplitude(self, tmp_path, amp):
        res = _evolve(tmp_path,
                      EVOLVE_CFG + f"[init]\nkind = mode:1,1,2,{amp}\n")
        assert res.exit_code == 1
        assert f"bad mode init 'mode:1,1,2,{amp}'" in res.output
        assert "not finite" in res.output

    @pytest.mark.parametrize("source", [False, True])
    def test_evolve_rejects_snapshot_on_another_grid(self, tmp_path, source):
        snap = tmp_path / "small.snap"
        write_snapshot(cosine_mode(Grid(8, 8, 8), (1, 1, 1), 0.5), snap)
        if source:
            text = (f"[source]\nkind = snapshot:{snap}\n"
                    f"[init]\nkind = mode:1,1,2\n")
        else:
            text = f"[init]\nkind = snapshot:{snap}\n"
        res = _evolve(tmp_path, EVOLVE_CFG + text)
        assert res.exit_code == 1
        prefix = "source " if source else ""
        assert (f"Error: {prefix}snapshot grid (8, 8, 8) does not match run "
                f"grid (16, 16, 16)") in res.output

    def test_evolve_plane_from_config(self, tmp_path):
        res = _evolve(tmp_path, EVOLVE_CFG + MODE_INIT + "[plane]\nq = 1/1\n")
        assert res.exit_code == 0, res.output
        resolved = _manifest(tmp_path / "out" / "manifest.txt")
        assert resolved["plane.q"] == "1/1"
        assert resolved["init.kind"] == "mode:1,1,2,0.5"
        # keys read through a default are recorded with the value used
        assert resolved["grid.n"] == "(16,)"
        assert resolved["phys.m"] == "1"
        assert resolved["source.kind"] == "none"

    def test_evolve_restricted_records_its_layout(self, tmp_path):
        res = _evolve(tmp_path, EVOLVE_CFG + MODE_INIT
                      + "[plane]\nq = 1/1\nrestrict = true\n")
        assert res.exit_code == 0, res.output
        text = (tmp_path / "out" / "manifest.txt").read_text()
        assert ("\nlayout = 16x1x16 on Sublattice(basis=((1, 1),), s3=1)\n"
                in text)
        with open(tmp_path / "out" / "diag.csv") as fh:
            rows = list(csv.reader(fh))
        assert all(float(row[4]) == 0.0 for row in rows[1:])  # off_plane

    def test_evolve_restrict_needs_a_plane(self, tmp_path):
        res = _evolve(tmp_path, EVOLVE_CFG + MODE_INIT
                      + "[plane]\nrestrict = true\n")
        assert res.exit_code == 1, res.output
        assert "config key 'plane.restrict'" in res.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, dropped", [
        ("[init]\nkind = mode:1,2,1,0.5\n", "1 of the initial state's"),
        # sin(x1) sin(x2) holds (1, 1) and (1, -1) alike
        ("[init]\nk1 = 1\nk2 = 1\n", "0.707 of the initial state's"),
        (MODE_INIT + "[source]\nkind = snapshot:{snap}\n",
         "0.447 of the source's"),
    ], ids=["init", "eigenfunction", "source"])
    def test_evolve_restricted_refuses_data_off_the_plane(self, tmp_path,
                                                          text, dropped):
        # a restricted run keeps only the plane's coefficients; data with
        # any content off it would be cut silently
        snap = tmp_path / "mixed.snap"
        grid = Grid(32, 32, 32)
        write_snapshot(cosine_mode(grid, (1, 1, 1))
                       + cosine_mode(grid, (1, 2, 1), 0.5), snap)
        # the (1, 1) eigenfunction exists at eps_kappa = 0.01 and fits n = 32
        base = EVOLVE_CFG.replace("eps_kappa = 0.05", "eps_kappa = 0.01")
        base = base.replace("n = 16", "n = 32")
        res = _evolve(tmp_path, base + text.format(snap=snap)
                      + "[plane]\nq = 1/1\nrestrict = true\n")
        assert res.exit_code == 1, res.output
        assert (f"config key 'plane.restrict': {dropped} L2 norm lies off "
                f"the plane 1/1") in res.output
        assert not (tmp_path / "out").exists()

    def test_evolve_restricted_takes_a_restricted_runs_final_state(
            self, tmp_path):
        # its off-plane coefficients are exact zeros, as initial state and
        # as source alike
        first = tmp_path / "first"
        first.mkdir()
        plane = "[plane]\nq = 1/1\nrestrict = true\n"
        assert _evolve(first, EVOLVE_CFG + MODE_INIT + plane).exit_code == 0
        snap = first / "out" / "final.snap"
        res = _evolve(tmp_path, EVOLVE_CFG + f"[init]\nkind = snapshot:{snap}"
                      f"\n[source]\nkind = snapshot:{snap}\n" + plane)
        assert res.exit_code == 0, res.output

    def test_evolve_unrestricted_records_no_layout(self, tmp_path):
        res = _evolve(tmp_path, EVOLVE_CFG + MODE_INIT + "[plane]\nq = 1/1\n")
        assert res.exit_code == 0, res.output
        assert "layout" not in (tmp_path / "out" / "manifest.txt").read_text()

    def test_evolve_init_k1_needs_eigenfunction_kind(self, tmp_path):
        res = _evolve(tmp_path, EVOLVE_CFG
                      + "[init]\nkind = mode:1,1,2\nk1 = 1\nk2 = 1\n")
        assert res.exit_code == 1
        assert "unused config key 'init.k1'" in res.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, text, bad, good", [
        ("illposedness", "[phys]\neps_kapa = 0.05\n",
         "phys.eps_kapa", "phys.eps_kappa"),
        ("evolve", EVOLVE_CFG + "[init]\nk1 = 1\nk2 = 1\n"
         "[source]\nknd = none\n", "source.knd", "source.kind"),
        ("instability", "[instability]\nbox = 4\nseed = 1e-6\n",
         "instability.seed", "instability.seed_rel"),
        ("plane-demo", "[plane_demo]\nn = 8\ngamma = 0.5\n",
         "plane_demo.gamma", "plane_demo.gammas"),
    ], ids=["illposedness", "evolve", "instability", "plane-demo"])
    def test_misspelled_key_fails_before_any_output(self, tmp_path, command,
                                                     text, bad, good):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        res = self.runner.invoke(
            main, [command, "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 1, res.output
        assert (f"unused config key '{bad}'; did you mean '{good}'?"
                in res.output)
        assert not out.exists()

    def test_evolve_missing_required_key(self, tmp_path):
        res = _evolve(tmp_path, "[grid]\nn = 16\n[init]\nkind = mode:1,1,1\n")
        assert res.exit_code == 1
        assert "run.dt" in res.output

    def test_evolve_eigenfunction_init(self, tmp_path):
        res = _evolve(
            tmp_path,
            "[phys]\neps_kappa = 0.01\n[grid]\nn = 32\n"
            "[run]\ndt = 0.02\nt_end = 0.1\nlinearized = true\n"
            "[init]\nk1 = 1\nk2 = 1\n")
        assert res.exit_code == 0, res.output
        manifest = (tmp_path / "out" / "manifest.txt").read_text()
        assert "sigma_star = 0.0571456432" in manifest
        resolved = _manifest(tmp_path / "out" / "manifest.txt")
        assert {k: resolved[k] for k in ("init.kind", "init.k1", "init.k2")
                } == {"init.kind": "eigenfunction", "init.k1": "1",
                      "init.k2": "1"}

    def test_evolve_manifest_records_source(self, tmp_path):
        res = _evolve(tmp_path, EVOLVE_CFG + MODE_INIT + "[phys]\nm = 2\n"
                      "[source]\nkind = steady_balance\n")
        assert res.exit_code == 0, res.output
        resolved = _manifest(tmp_path / "out" / "manifest.txt")
        assert resolved["source.kind"] == "steady_balance"
        assert resolved["phys.m"] == "2"
        assert not {"init.k1", "init.k2"} & set(resolved)

    def test_source_index_is_the_phys_index(self, tmp_path):
        # the steady balance holds sin(phys.m x3); a second index is unread
        res = _evolve(tmp_path, EVOLVE_CFG + MODE_INIT
                      + "[source]\nkind = steady_balance\nm = 2\n")
        assert res.exit_code == 1
        assert "unused config key 'source.m'" in res.output
        assert not (tmp_path / "out").exists()

    def test_instability_stable_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[phys]\neps_kappa = 0.05\n[instability]\nbox = 4\n")
        res = self.runner.invoke(main, [
            "instability", "--config", str(cfg),
            "--out", str(tmp_path / "out")])
        assert res.exit_code == 3
        assert "stable" in res.output

    def test_failed_run_leaves_no_out_directory(self, tmp_path):
        # the box-4 optimum needs k3 = 13 on a grid whose band stops at 5
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[instability]\nbox = 4\nn = 16\n")
        out = tmp_path / "out"
        res = self.runner.invoke(main, [
            "instability", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 1, res.output
        assert "does not fit the dealias band" in res.output
        assert not out.exists()

    def test_illposedness_command(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[phys]\neps_kappa = 0.02\ngamma = 0.75\n"
            "[illposedness]\nj_max = 9\n")
        out = tmp_path / "out"
        res = self.runner.invoke(main, [
            "illposedness", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert "terminated" in res.output
        with open(out / "sweep.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["j", "k1", "k2", "sigma_star", "bound",
                           "certified"]
        assert (out / "manifest.txt").exists()

    def test_illposedness_regime_key_is_unused(self, tmp_path):
        # the regime follows phys.eps_kappa; the key is not read
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[illposedness]\nregime = nondiffusive\n")
        out = tmp_path / "out"
        res = self.runner.invoke(main, [
            "illposedness", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 1, res.output
        assert "unused config key 'illposedness.regime'" in res.output
        assert "did you mean" not in res.output
        assert not out.exists()

    def test_instability_depth_key_gets_no_hint(self, tmp_path):
        # no read key is named like 'depth'; 'instability.n' shares only
        # the section
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[phys]\neps_kappa = 0.01\n[instability]\ndepth = 64\n")
        out = tmp_path / "out"
        res = self.runner.invoke(main, [
            "instability", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 1, res.output
        assert "unused config key 'instability.depth'" in res.output
        assert "did you mean" not in res.output
        assert not out.exists()

    def test_illposedness_j_min_defaults_to_2m(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[phys]\nm = 2\n[illposedness]\nj_max = 6\n")
        out = tmp_path / "out"
        res = self.runner.invoke(main, [
            "illposedness", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 0, res.output
        with open(out / "sweep.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [int(r[0]) for r in rows] == [4, 5, 6]
        assert _manifest(out / "manifest.txt")["illposedness.j_min"] == "4"

    def test_instability_needs_positive_eps_kappa(self, tmp_path):
        # at eps_kappa = 0 the growth cap, bounded on the (12, 5) seed's
        # layout, allows horizons up to about 9.1 at the default sizes
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[instability]\nt_end = 10\n")
        out = tmp_path / "out"
        res = self.runner.invoke(main, [
            "instability", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 1, res.output
        assert "requested horizon t_end = 10 would amplify" in res.output
        assert not out.exists()

    def test_instability_manifest_records_the_layout(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[phys]\neps_kappa = 0.01\n[instability]\nn = 48\n"
                       "t_end = 0.1\nrecord_every = 5\nfit_start = 0\n")
        out = tmp_path / "out"
        res = self.runner.invoke(main, [
            "instability", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 0, res.output
        text = (out / "manifest.txt").read_text()
        assert "\nmode = (9, 4)\n" in text
        assert ("\nlayout = 16x12x48 on Sublattice(basis=((9, 0), (0, 4)), "
                "s3=1)\n" in text)

    def test_plane_demo_manifest_records_the_control_layout(self, tmp_path):
        # the (1, 2, 1) control steps on its seed's plane, not on 24^3
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[plane_demo]\ndt = 0.05\nt_end = 0.5\n"
                       "record_every = 1\n")
        out = tmp_path / "out"
        res = self.runner.invoke(main, [
            "plane-demo", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 0, res.output
        text = (out / "manifest.txt").read_text()
        assert "\ncontrol_mode = (1, 2, 1)\n" in text
        assert ("\ncontrol_layout = 24x1x24 on Sublattice(basis=((1, 2),), "
                "s3=1)\n" in text)

    def test_instability_at_zero_eps_kappa_has_no_continuum(self, tmp_path):
        # a horizon short of the growth cap runs; there is no continuum
        # optimum at eps_kappa = 0, so its manifest lines are left out
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[instability]\nbox = 1\nn = 32\nt_end = 0.2\n"
                       "record_every = 5\nfit_start = 0\n")
        out = tmp_path / "out"
        res = self.runner.invoke(main, [
            "instability", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert sorted(p.name for p in out.iterdir()) == [
            "diag.csv", "manifest.txt", "modes.csv"]
        assert "continuum" not in (out / "manifest.txt").read_text()
        with open(out / "diag.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][-1] == "ref_l2"
        assert all(float(row[-1]) > 0.0 for row in rows[1:])

    @pytest.mark.parametrize("line, message", [
        ("gammas = ,", "'plane_demo.gammas': ',' is an empty list"),
        ("control_mode = 1, 2", "'plane_demo.control_mode': expected 3"),
    ])
    def test_plane_demo_rejects_bad_lists(self, tmp_path, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[plane_demo]\n{line}\n")
        res = self.runner.invoke(main, [
            "plane-demo", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert message in res.output

    def test_plane_demo_manifest_records_keys_read(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[phys]\neps_kappa = 0.03\nn2 = 1.5\n"
            "[plane_demo]\nn = 8\ndt = 0.05\nt_end = 0.5\n"
            "record_every = 1\ngammas = 0.5\n")
        out = tmp_path / "o"
        res = self.runner.invoke(main, [
            "plane-demo", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 0, res.output
        resolved = _manifest(out / "manifest.txt")
        assert resolved["phys.eps_kappa"] == "0.03"
        assert resolved["phys.n2"] == "1.5"
        assert resolved["phys.m"] == "1"
        assert resolved["plane_demo.n"] == "8"
        assert resolved["plane_demo.q"] == str(PlaneSpec(1, 1))
        assert not {"plane_demo.eps_kappa", "plane_demo.n2",
                    "plane_demo.m"} & set(resolved)

    def test_bad_plane_ratio(self, tmp_path):
        out = tmp_path / "scan.csv"
        res = self.runner.invoke(
            main, ["symbol-scan", "--plane", "x/y", "--out", str(out)])
        assert res.exit_code == 1

    @pytest.mark.parametrize("ratio", ["2/", "/2", "2/ ", "/"])
    def test_plane_ratio_needs_both_parts(self, tmp_path, ratio):
        # an empty part must not default to 1: "2/" is not the plane 2/1
        res = self.runner.invoke(main, [
            "symbol-scan", "--kmax", "2", "--plane", ratio,
            "--out", str(tmp_path / "scan.csv")])
        assert res.exit_code == 1
        assert "empty numerator or denominator" in res.output
        res = _evolve(tmp_path,
                      EVOLVE_CFG + MODE_INIT + f"[plane]\nq = {ratio}\n")
        assert res.exit_code == 1
        assert "empty numerator or denominator" in res.output

    @pytest.mark.parametrize("ratio", ["1_0/3", "１/２", "1/3_0"])
    def test_plane_ratio_is_ascii_without_underscores(self, ratio):
        with pytest.raises(click.ClickException, match="bad plane ratio"):
            _parse_plane(ratio)

    @pytest.mark.parametrize("args", [
        ["eigen", "--k1", "1_0", "--k2", "1"],
        ["eigen", "--k1", "1", "--k2", "\uff11"],
        ["eigen", "--k1", "1", "--k2", "1", "--eps-kappa", "0.0_1"],
        ["eigen", "--optimize", "1_2"],
        ["symbol-scan", "--kmax", "1_6", "--out", "scan.csv"],
        ["symbol-scan", "--n2", "\uff12.0", "--out", "scan.csv"],
    ])
    def test_numeric_flags_are_ascii_without_underscores(self, args):
        with self.runner.isolated_filesystem():
            res = self.runner.invoke(main, args)
            assert not Path("scan.csv").exists()
        assert res.exit_code == 2  # click's usage error
        assert "is not an ASCII" in res.output

    @pytest.mark.parametrize("init", [
        "mode:1_0,2,1_0", "mode:\uff11,2,1", "mode:1,1,2,0.5_0"])
    def test_mode_init_is_ascii_without_underscores(self, init):
        with pytest.raises(click.ClickException, match="bad mode init"):
            _initial_field(init, None, Grid(16, 16, 16), None)

    def test_plane_demo_arm_files_keep_nearby_gammas_apart(self, tmp_path):
        # "{:g}" formats both gammas as 0.5, so one arm's file would
        # overwrite the other's
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[plane_demo]\nn = 8\ndt = 0.05\nt_end = 0.5\n"
                       "record_every = 1\ngammas = 0.5, 0.5000001\n")
        out = tmp_path / "o"
        res = self.runner.invoke(main, [
            "plane-demo", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert sorted(p.name for p in out.glob("restricted_*.csv")) == [
            "restricted_gamma_0.5.csv", "restricted_gamma_0.5000001.csv"]
        text = (out / "manifest.txt").read_text()
        assert "restricted_gamma_0.5_off_plane_max" in text
        assert "restricted_gamma_0.5000001_off_plane_max" in text

    def test_plane_demo_rejects_repeated_gamma(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[plane_demo]\nn = 8\ngammas = 0.3, 0.5, 0.3\n")
        out = tmp_path / "o"
        res = self.runner.invoke(main, [
            "plane-demo", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 1
        assert "gammas repeat a dissipation order" in res.output
        assert not out.exists()


def test_every_numeric_option_reads_number_literals():
    # click's INT and FLOAT (also inferred from a numeric default) read 1_0
    # and non-ASCII digits; every numeric flag must read them as configs do
    numeric = {f"{name} {p.opts[0]}": type(p.type)
               for name, cmd in main.commands.items() for p in cmd.params
               if isinstance(p.type, (_Literal, click.types.IntParamType,
                                      click.types.FloatParamType))}
    assert len(numeric) == 9
    assert set(numeric.values()) == {_Literal}, numeric


class _Stop(Exception):
    """Raised by a stubbed library function once it has its arguments."""


@pytest.mark.parametrize("command, name, text, phys_keys", [
    ("instability", "instability", "", ()),
    ("illposedness", "illposedness_sweep", "[illposedness]\n", ()),
    ("plane-demo", "plane_demo", "", ("eps_kappa", "n2", "m")),
])
def test_absent_keys_pass_the_library_defaults(tmp_path, monkeypatch, command,
                                               name, text, phys_keys):
    """With no optional key set, a command passes the function's defaults.

    ``phys_keys`` are the function's parameters read from [phys]; its
    other defaulted parameters are read from the command's own section.
    """
    real = getattr(cli, name)
    sig = inspect.signature(real)
    calls, configs = [], []

    @functools.wraps(real)  # keeps the signature the defaults come from
    def stub(*args, **kwargs):
        calls.append(sig.bind(*args, **kwargs).arguments)
        raise _Stop

    def load(path):
        configs.append(load_config(path))
        return configs[-1]

    monkeypatch.setattr(cli, name, stub)
    monkeypatch.setattr(cli, "load_config", load)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    res = CliRunner().invoke(main, [command, "--config", str(cfg),
                                    "--out", str(tmp_path / "o")])
    assert isinstance(res.exception, _Stop), res.output
    (args,), (config,) = calls, configs
    section = command.replace("-", "_")
    defaulted = {n: p.default for n, p in sig.parameters.items()
                 if p.default is not p.empty}
    if "plane" in defaulted:  # plane_demo.q is the ratio's text
        assert args.pop("plane") == defaulted.pop("plane") == PlaneSpec(1, 1)
        assert config.resolved["plane_demo.q"] == "1/1"
    for key, default in defaulted.items():
        assert args[key] == default, key
        where = "phys" if key in phys_keys else section
        assert config.resolved[f"{where}.{key}"] == default, key
    if "params" in args:
        assert args["params"] == PhysParams()
        for f in dataclasses.fields(PhysParams):
            assert config.resolved[f"phys.{f.name}"] == f.default, f.name


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_configs():
    """The README's config blocks: evolve, its [plane] snippet, illposedness.

    A block added to the README fails here until a test runs it.
    """
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 3, blocks
    evolve_cfg, plane_cfg, sweep_cfg = blocks
    assert "[init]" in evolve_cfg and plane_cfg.startswith("[plane]")
    assert "[illposedness]" in sweep_cfg
    return blocks


@pytest.mark.parametrize("with_plane", [False, True])
def test_readme_evolve_config_runs(tmp_path, with_plane):
    """The README's `mg evolve` config, alone and with its [plane] snippet."""
    evolve_cfg, plane_cfg, _ = _readme_configs()
    res = _evolve(tmp_path, evolve_cfg + (plane_cfg if with_plane else ""))
    assert res.exit_code == 0, res.output
    resolved = _manifest(tmp_path / "out" / "manifest.txt")
    assert resolved["plane.q"] == ("1/1" if with_plane else "None")


def test_readme_illposedness_config_runs(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_readme_configs()[2])
    res = CliRunner().invoke(main, [
        "illposedness", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert res.exit_code == 0, res.output
    assert "verdict: terminated" in res.output
