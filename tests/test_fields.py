"""Tests for half-complex field storage, norms, projections and snapshots."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from mgsim.errors import SnapshotFormatError, TruncationError
from mgsim.symbol import PhysParams
from mgsim.eigen import assemble_eigenfunction, solve_sigma_star
from mgsim.fields import (
    Grid,
    PlaneSpec,
    SpectralField,
    TORUS_VOLUME,
    cosine_mode,
    dealias_mask,
    forward,
    hs_norm,
    inverse,
    l2_norm,
    linf_norm,
    off_plane_norm,
    plane_mask,
    project_plane,
    read_snapshot,
    shell_spectrum,
    sine_vertical,
    write_snapshot,
    zero_vertical_mean,
)

G16 = Grid(16, 16, 16)


def _random_band_limited(grid, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(grid.shape)
    return SpectralField(grid, forward(grid, v))


def reference_forward(grid, v):
    """Unpruned forward transform: full rfftn, mask, k3 = 0 symmetrization."""
    c = np.fft.rfftn(v, norm="forward") * dealias_mask(grid)
    rev1 = (-np.arange(grid.n1)) % grid.n1
    rev2 = (-np.arange(grid.n2)) % grid.n2
    plane = c[:, :, 0]
    c[:, :, 0] = 0.5 * (plane + np.conj(plane[np.ix_(rev1, rev2)]))
    return c


def reference_inverse(grid, c):
    """Unpruned inverse transform: full irfftn over the stored spectrum."""
    return np.fft.irfftn(c, s=grid.shape, axes=(0, 1, 2), norm="forward")


REFERENCE_GRIDS = [Grid(16, 32, 24), Grid(8, 10, 30), Grid(48, 48, 48)]


class TestGrid:
    def test_properties(self):
        g = Grid(16, 32, 8)
        assert g.shape == (16, 32, 8)
        assert g.spectral_shape == (16, 32, 5)
        assert g.ntot == 16 * 32 * 8
        assert g.band == (5, 10, 2)

    @pytest.mark.parametrize("bad", [(6, 16, 16), (16, 15, 16),
                                     (16, 16, 16.0), (16, 16, 0)])
    def test_rejects_bad_sizes(self, bad):
        with pytest.raises(ValueError):
            Grid(*bad)


class TestTransforms:
    def test_round_trip(self):
        f = _random_band_limited(G16)
        v = f.values()
        again = forward(G16, v)
        assert np.max(np.abs(again - f.c)) < 1e-15

    def test_forward_dealiases(self):
        x1, x2, x3 = np.meshgrid(*G16.axes(), indexing="ij")
        v = np.cos(7.0 * x1)  # band is |k1| <= 5 on a 16-point axis
        c = forward(G16, v)
        assert np.max(np.abs(c)) < 1e-15

    def test_kzero_plane_exactly_hermitian(self):
        f = _random_band_limited(G16, seed=3)
        plane = f.c[:, :, 0]
        rev = (-np.arange(16)) % 16
        assert np.array_equal(plane, np.conj(plane[np.ix_(rev, rev)]))

    def test_mean_mode_is_real(self):
        f = _random_band_limited(G16, seed=5)
        assert f.c[0, 0, 0].imag == 0.0

    # the pruned transforms against full numpy transforms: a consistent
    # index slip would survive the round-trip and idempotence checks
    @pytest.mark.parametrize("grid", REFERENCE_GRIDS, ids=str)
    def test_forward_matches_unpruned(self, grid):
        v = np.random.default_rng(1).standard_normal(grid.shape)
        ref = reference_forward(grid, v)
        assert np.max(np.abs(forward(grid, v) - ref)) <= 1e-14 * np.max(
            np.abs(ref))

    @pytest.mark.parametrize("grid", REFERENCE_GRIDS, ids=str)
    def test_inverse_matches_unpruned(self, grid):
        c = reference_forward(
            grid, np.random.default_rng(2).standard_normal(grid.shape))
        ref = reference_inverse(grid, c)
        assert np.max(np.abs(inverse(grid, c) - ref)) <= 1e-14 * np.max(
            np.abs(ref))


class TestModesAndNorms:
    def test_vertical_sine_coefficient(self):
        f = sine_vertical(G16, 1)
        assert f.coeff(0, 0, 1) == -0.5j
        assert f.coeff(0, 0, -1) == 0.5j
        x3 = G16.axes()[2]
        assert np.max(np.abs(f.values()[0, 0, :] - np.sin(x3))) < 1e-14

    def test_vertical_sine_l2(self):
        f = sine_vertical(G16, 2, amplitude=3.0)
        assert l2_norm(f) == pytest.approx(3.0 * math.sqrt(TORUS_VOLUME / 2.0),
                                           rel=1e-14)
        assert linf_norm(f) == pytest.approx(3.0, rel=1e-12)

    def test_cosine_mode_matches_pointwise(self):
        x1, x2, x3 = np.meshgrid(*G16.axes(), indexing="ij")
        for kvec in [(1, 2, 3), (2, -1, 1), (1, 2, 0), (0, 3, 0)]:
            f = cosine_mode(G16, kvec, amplitude=0.7)
            ref = 0.7 * np.cos(kvec[0] * x1 + kvec[1] * x2 + kvec[2] * x3)
            assert np.max(np.abs(f.values() - ref)) < 1e-13, kvec

    def test_cosine_mode_negative_k3_normalized(self):
        f = cosine_mode(G16, (1, 2, -3))
        assert f.coeff(-1, -2, 3) == 0.5

    def test_parseval_against_physical_quadrature(self):
        f = _random_band_limited(G16, seed=11)
        v = f.values()
        phys = math.sqrt(TORUS_VOLUME * float(np.mean(v * v)))
        assert l2_norm(f) == pytest.approx(phys, rel=1e-12)

    def test_hs_norm_single_mode(self):
        f = cosine_mode(G16, (2, 1, 2))  # |k|^2 = 9
        assert hs_norm(f, 1.0) == pytest.approx(3.0 * l2_norm(f), rel=1e-13)
        assert hs_norm(f, 0.0) == pytest.approx(l2_norm(f), rel=1e-14)

    def test_hs_norm_drops_mean(self):
        f = SpectralField.zeros(G16)
        f.c[0, 0, 0] = 2.0
        assert hs_norm(f, 1.0) == 0.0
        assert l2_norm(f) > 0.0

    def test_shell_spectrum_single_mode(self):
        f = cosine_mode(G16, (2, 1, 2))
        shells, energy = shell_spectrum(f)
        assert energy[3] == pytest.approx(l2_norm(f) ** 2, rel=1e-13)
        assert np.sum(energy) == pytest.approx(energy[3], rel=1e-13)

    def test_field_arithmetic(self):
        a = cosine_mode(G16, (1, 0, 1))
        b = cosine_mode(G16, (0, 1, 2))
        s = a + 2.0 * b
        assert s.coeff(1, 0, 1) == 0.5
        assert s.coeff(0, 1, 2) == 1.0
        d = s - a
        assert d.coeff(1, 0, 1) == 0.0

    def test_coeff_out_of_band_is_zero(self):
        f = sine_vertical(G16, 1)
        assert f.coeff(40, 0, 0) == 0.0

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match=r"shape \(16, 16, 8\)"):
            SpectralField(G16, np.zeros((16, 16, 8), dtype=complex))

    def test_rejects_out_of_band_coefficient(self):
        # k3 = 7 is stored in the 16^3 half-spectrum but outside its band of 5
        c = np.zeros(G16.spectral_shape, dtype=complex)
        c[1, 0, 2] = 1.0
        c[-2, 3, 7] = 1e-300
        with pytest.raises(ValueError, match=r"\(-2,3,7\) outside"):
            SpectralField(G16, c)

    def test_set_coeff_validates(self):
        f = SpectralField.zeros(G16)
        with pytest.raises(ValueError):
            f.set_coeff(0, 0, 7, 1.0)  # band is 5
        with pytest.raises(ValueError):
            f.set_coeff(6, 0, 1, 1.0)


class TestProjections:
    def test_zero_vertical_mean(self):
        f = cosine_mode(G16, (1, 2, 0)) + sine_vertical(G16, 1)
        g = zero_vertical_mean(f)
        assert g.coeff(1, 2, 0) == 0.0
        assert g.coeff(0, 0, 1) == -0.5j

    def test_plane_spec_membership(self):
        p = PlaneSpec(1, 1)
        assert p.contains(3, 3) and not p.contains(3, 2)
        assert p.contains(0, 0)
        half = PlaneSpec(1, 2)
        assert half.contains(2, 1) and not half.contains(1, 1)

    def test_plane_spec_validation(self):
        with pytest.raises(ValueError):
            PlaneSpec(2, 4)
        with pytest.raises(ValueError):
            PlaneSpec(1, 0)

    def test_project_and_off_plane_norm(self):
        p = PlaneSpec(1, 1)
        on = cosine_mode(G16, (2, 2, 1))
        off = cosine_mode(G16, (1, 2, 1))
        both = on + off
        assert off_plane_norm(on, p) == 0.0
        assert off_plane_norm(both, p) == pytest.approx(l2_norm(off), rel=1e-13)
        proj = project_plane(both, p)
        assert np.max(np.abs(proj.c - on.c)) == 0.0

    def test_plane_mask_includes_all_k3(self):
        mask = plane_mask(G16, PlaneSpec(1, 1))
        assert mask[1, 1, :].all()
        assert not mask[1, 2, :].any()


class TestSnapshots:
    def test_round_trip_bit_exact(self, tmp_path):
        f = (cosine_mode(G16, (1, 2, 3), 0.123456789012345678)
             + sine_vertical(G16, 2, -0.5)
             + cosine_mode(G16, (3, 1, 0), 1e-8))
        path = tmp_path / "field.txt"
        write_snapshot(f, path)
        g = read_snapshot(path)
        assert g.grid == G16
        assert np.array_equal(f.c, g.c)

    def test_drops_negligible_entries(self, tmp_path):
        f = cosine_mode(G16, (1, 1, 1), 1e-20)
        path = tmp_path / "tiny.txt"
        write_snapshot(f, path)
        assert read_snapshot(path).coeff(1, 1, 1) == 0.0

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("NOTAFIELD v1 16 16 16\n")
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)

    def test_bad_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("MGFIELD v1 16 16 16\n1 2 3 0.5\n")
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)

    def test_out_of_range_wavevector(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("MGFIELD v1 16 16 16\n1 2 12 0.5 0.0\n")
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)

    def test_out_of_band_wavevector(self, tmp_path):
        # inside the stored half-spectrum of 8^3, outside its band of 2
        path = tmp_path / "bad.txt"
        path.write_text("MGFIELD v1 8 8 8\n1 1 1 0.5 0.0\n3 3 4 0.5 0.0\n")
        with pytest.raises(SnapshotFormatError, match=r":3: .*\(3,3,4\)"):
            read_snapshot(path)

    @pytest.mark.parametrize("re_im", ["nan 0.0", "0.5 inf", "-inf nan"])
    def test_non_finite_coefficient(self, tmp_path, re_im):
        path = tmp_path / "bad.txt"
        path.write_text(f"MGFIELD v1 16 16 16\n\n1 2 3 {re_im}\n")
        with pytest.raises(SnapshotFormatError, match=":3: non-finite"):
            read_snapshot(path)

    def test_repeated_wavevector(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("MGFIELD v1 16 16 16\n1 2 3 0.5 0.0\n"
                        "0 0 1 0.0 -0.5\n1 2 3 0.25 0.0\n")
        with pytest.raises(SnapshotFormatError, match=":4: .*repeats line 2"):
            read_snapshot(path)

    @pytest.mark.parametrize("lines,match", [
        # coeff(-1,-1,0) would load as 0: spectral L2 8.80, physical L2 6.23
        ("1 1 0 0.5 0.25", r":2: .*\(1,1,0\).*no conjugate mirror"),
        ("0 0 1 0.0 -0.5\n1 -2 0 0.5 0.25\n-1 2 0 0.5 0.25",
         r":3: .*not the conjugate.* line 4"),
        ("0 0 0 1.0 1e-300", r":2: .*is not real"),
    ])
    def test_kzero_plane_not_symmetric(self, tmp_path, lines, match):
        path = tmp_path / "bad.txt"
        path.write_text(f"MGFIELD v1 8 8 8\n{lines}\n")
        with pytest.raises(SnapshotFormatError, match=match):
            read_snapshot(path)

    def test_round_trip_bit_exact_dense_field(self, tmp_path):
        # every in-band mode populated, up to the band edges
        rng = np.random.default_rng(3)
        f = SpectralField.from_values(G16, rng.standard_normal(G16.shape))
        path = tmp_path / "dense.txt"
        write_snapshot(f, path)
        assert np.array_equal(read_snapshot(path).c, f.c)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)


    def test_non_utf8_bytes(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"MGFIELD v1 8 8 8\n0 0 1 0.5 \xff\n")
        with pytest.raises(SnapshotFormatError, match="UTF-8"):
            read_snapshot(path)


# Fuzzing of the snapshot reader on a small non-cubic grid, band (2, 3, 4).
G_FUZZ = Grid(8, 10, 12)
_B1, _B2, _B3 = G_FUZZ.band
_ENTRIES = st.lists(st.tuples(
    st.integers(-_B1, _B1), st.integers(-_B2, _B2), st.integers(0, _B3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False)), max_size=30)
_JUNK = st.binary(max_size=40) | st.text(
    alphabet="0123456789-+.e inf\t", max_size=40).map(str.encode)


def _fuzz_field(entries):
    """A valid in-band field: k3 = 0 entries get their conjugate mirror,
    (0, 0, 0) is real, and values the writer would drop are skipped."""
    f = SpectralField.zeros(G_FUZZ)
    n1, n2 = G_FUZZ.n1, G_FUZZ.n2
    for k1, k2, k3, re, im in entries:
        v = complex(re, 0.0 if (k1, k2, k3) == (0, 0, 0) else im)
        if np.abs(v) < 1e-16:
            continue
        if k3 == 0:
            f.c[-k1 % n1, -k2 % n2, 0] = v.conjugate()
        f.c[k1 % n1, k2 % n2, k3] = v
    return f


def _read_or_format_error(path):
    try:
        g = read_snapshot(path)
    except SnapshotFormatError:
        return None
    assert isinstance(g, SpectralField)
    return g


@given(entries=_ENTRIES)
@settings(max_examples=60, deadline=None)
def test_snapshot_fuzz_round_trip_bit_exact(tmp_path_factory, entries):
    f = _fuzz_field(entries)
    path = tmp_path_factory.mktemp("snap") / "f.txt"
    write_snapshot(f, path)
    g = read_snapshot(path)
    assert g.grid == G_FUZZ
    assert np.array_equal(g.c.view(np.uint64), f.c.view(np.uint64))
    again = path.with_name("g.txt")
    write_snapshot(g, again)
    assert again.read_bytes() == path.read_bytes()


@given(entries=_ENTRIES, edits=st.lists(
    st.tuples(st.integers(0, 64), st.booleans(), _JUNK), min_size=1,
    max_size=4))
@settings(max_examples=150, deadline=None)
def test_snapshot_fuzz_corrupt_body(tmp_path_factory, entries, edits):
    # the header stays valid, so every failure must come from the body
    path = tmp_path_factory.mktemp("snap") / "f.txt"
    write_snapshot(_fuzz_field(entries), path)
    lines = path.read_bytes().split(b"\n")
    for pos, insert, junk in edits:
        i = 1 + pos % len(lines)
        lines[i:i if insert else i + 1] = [junk]
    path.write_bytes(b"\n".join(lines))
    _read_or_format_error(path)


@given(data=st.binary(max_size=200) | st.text(max_size=200).map(str.encode)
       | st.tuples(st.sampled_from(["8", "10", "7", "0", "-8", "x", "8.0", ""]),
                   st.sampled_from(["8", "12", "9", "1e1"]),
                   _JUNK).map(lambda t: f"MGFIELD v1 {t[0]} 8 {t[1]}\n"
                                        .encode() + t[2]))
@settings(max_examples=150, deadline=None)
def test_snapshot_fuzz_arbitrary_input(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("snap") / "f.txt"
    path.write_bytes(data)
    _read_or_format_error(path)


class TestAssembleEigenfunction:
    def test_matches_separable_profile(self):
        par = PhysParams()
        sol = solve_sigma_star(1, 1, par)
        grid = Grid(32, 32, 32)
        f = assemble_eigenfunction(sol, grid)
        x1, x2, x3 = np.meshgrid(*grid.axes(), indexing="ij")
        ref = np.zeros(grid.shape)
        for p, cp in enumerate(sol.c, start=1):
            if abs(cp) > 1e-14:
                ref += cp * np.sin(p * x3)
        ref *= np.sin(x1) * np.sin(x2)
        assert np.max(np.abs(f.values() - ref)) < 1e-12 * np.max(np.abs(ref))

    def test_l2_identity(self):
        par = PhysParams(eps_kappa=0.01)
        sol = solve_sigma_star(6, 4, par)
        grid = Grid(48, 48, 48)
        f = assemble_eigenfunction(sol, grid)
        kept = sol.c[np.abs(sol.c) > 1e-14]
        expected = math.sqrt(TORUS_VOLUME / 8.0 * float(np.sum(kept ** 2)))
        assert l2_norm(f) == pytest.approx(expected, rel=1e-13)

    def test_coefficients_purely_imaginary(self):
        sol = solve_sigma_star(1, 1, PhysParams())
        f = assemble_eigenfunction(sol, Grid(32, 32, 32))
        assert np.max(np.abs(f.c.real)) == 0.0

    def test_too_small_grid_raises(self):
        sol = solve_sigma_star(6, 4, PhysParams(eps_kappa=0.01))
        with pytest.raises(TruncationError):
            assemble_eigenfunction(sol, Grid(32, 32, 32))


@given(hnp.arrays(np.float64, (8, 8, 8),
                  elements=st.floats(-5, 5, allow_nan=False)))
@settings(max_examples=25, deadline=None)
def test_forward_properties(v):
    g = Grid(8, 8, 8)
    c = forward(g, v)
    # conjugate symmetry on the k3 = 0 plane is exact
    rev = (-np.arange(8)) % 8
    plane = c[:, :, 0]
    assert np.array_equal(plane, np.conj(plane[np.ix_(rev, rev)]))
    # the physical realization is real and transforming back is idempotent
    w = inverse(g, c)
    assert np.isrealobj(w)
    assert np.max(np.abs(forward(g, w) - c)) < 1e-12
