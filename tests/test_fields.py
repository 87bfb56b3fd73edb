"""Tests for band field storage, norms, projections and snapshots."""

import itertools
import math
import re
import sys
import threading
from pathlib import Path

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
    Sublattice,
    TORUS_VOLUME,
    cosine_mode,
    dealias_mask,
    forward,
    hs_norm,
    inverse,
    l2_norm,
    linf_norm,
    multiplier_arrays,
    off_plane_norm,
    plane_mask,
    read_snapshot,
    sine_vertical,
    wavenumbers,
    write_snapshot,
)
from mgsim.solver import advection_coefficients

G16 = Grid(16, 16, 16)
SNAPSHOT_16x32x24 = Path(__file__).parent / "data" / "snapshot_16x32x24.txt"
SNAPSHOT_16x32x24_BAND7 = SNAPSHOT_16x32x24.with_name(
    "snapshot_16x32x24_band5x10x7.txt")


def _random_band_limited(grid, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(grid.shape)
    return SpectralField(grid, forward(grid, v))


def extract_band(grid, full):
    """The band of a full numpy ``rfftn`` array."""
    return full[dealias_mask(grid)].reshape(grid.band_shape)


def embed_band(grid, band):
    """A full numpy ``rfftn`` array holding the band, zero elsewhere."""
    full = np.zeros(grid.spectral_shape, dtype=np.complex128)
    full[dealias_mask(grid)] = band.ravel()
    return full


def reference_forward(grid, v):
    """Unpruned forward transform: full rfftn, k3 = 0 symmetrization, band."""
    c = np.fft.rfftn(v, norm="forward")
    n1, n2, _ = grid.shape
    rev1 = (-np.arange(n1)) % n1
    rev2 = (-np.arange(n2)) % n2
    plane = c[:, :, 0]
    c[:, :, 0] = 0.5 * (plane + np.conj(plane[np.ix_(rev1, rev2)]))
    return extract_band(grid, c)


def reference_inverse(grid, c):
    """Unpruned inverse transform: full irfftn over the embedded band."""
    return np.fft.irfftn(embed_band(grid, c), s=grid.shape, axes=(0, 1, 2),
                         norm="forward")


# odd and short axes: the steps of criterion 12's control (10x1x24) and of
# criterion 09 (4x10x48); 96^3, where a dense pass sums the most terms
REFERENCE_GRIDS = [Grid(16, 32, 24), Grid(8, 10, 30), Grid(48, 48, 48),
                   Grid(24, 24, 24, Sublattice(((1, 2),))),
                   Grid(48, 48, 48, Sublattice.diag(9, 4)),
                   Grid(96, 96, 96)]


class TestGrid:
    def test_properties(self):
        g = Grid(16, 32, 8)
        assert g.shape == (16, 32, 8)
        assert g.spectral_shape == (16, 32, 5)
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
        rev = (-np.arange(plane.shape[0])) % plane.shape[0]
        assert np.array_equal(plane, np.conj(plane[np.ix_(rev, rev)]))

    def test_mean_mode_is_real(self):
        f = _random_band_limited(G16, seed=5)
        assert f.c[0, 0, 0].imag == 0.0

    # the dense transforms against full numpy transforms: a consistent
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


def _bits(a):
    return a.view(np.uint64)


@pytest.mark.parametrize("grid", REFERENCE_GRIDS, ids=str)
def test_transform_layout_parity(grid):
    # the transforms reuse per-grid work arrays; successive calls on
    # different inputs, into new arrays and into ``out``, catch an entry
    # left over from the call before
    for seed in (3, 4, 5):
        v = np.random.default_rng(seed).standard_normal(grid.shape)
        c = forward(grid, v)
        assert c.shape == grid.band_shape and c.dtype == np.complex128
        band = np.empty(grid.band_shape, dtype=np.complex128)
        assert forward(grid, v, out=band) is band
        assert np.array_equal(_bits(band), _bits(c))
        ref_c = reference_forward(grid, v)
        assert np.max(np.abs(c - ref_c)) <= 1e-14 * np.max(np.abs(ref_c))

        new = inverse(grid, c)
        out = np.empty(grid.shape)
        assert inverse(grid, band, out=out) is out
        assert np.array_equal(_bits(new), _bits(out))
        ref_v = reference_inverse(grid, c)
        assert np.max(np.abs(out - ref_v)) <= 1e-14 * np.max(np.abs(ref_v))


# the whole grid, a plane (its x2 pass of length one is skipped) and a
# diag sublattice
STACK_LAYOUTS = [Grid(24, 24, 24),
                 Grid(24, 24, 24, Sublattice.of_plane(PlaneSpec(1, 1))),
                 Grid(48, 48, 48, Sublattice.diag(9, 4))]


@pytest.mark.parametrize("grid", STACK_LAYOUTS, ids=str)
def test_stacked_inverse_is_the_per_field_inverse(grid):
    # a stack's passes run on its last three axes: each field's samples are
    # those of a call of its own, to the bit, whatever the leading axes
    rng = np.random.default_rng(9)
    stack = np.stack([forward(grid, rng.standard_normal(grid.shape))
                      for _ in range(6)])
    for lead in ((6,), (2, 3)):
        coeffs = stack.reshape(lead + grid.band_shape)
        out = np.empty(lead + grid.shape)
        assert inverse(grid, coeffs, out=out) is out
        new = inverse(grid, coeffs)
        assert new.shape == lead + grid.shape
        for i in np.ndindex(lead):
            assert out[i].tobytes() == inverse(grid, coeffs[i]).tobytes()
            assert new[i].tobytes() == out[i].tobytes()
    with pytest.raises(ValueError, match="does not match the band"):
        inverse(grid, stack[..., :-1])
    # the x3 pass writes through a 2-D view of ``out``, which a copy would
    # silently drop
    with pytest.raises(ValueError, match="C-contiguous"):
        inverse(grid, stack, out=np.empty((6, *grid.shape))[:, ::-1])


@pytest.mark.parametrize("grid", STACK_LAYOUTS, ids=str)
def test_advection_is_the_per_component_product(grid):
    # one stacked inverse of the six factors gives, to the bit, the product
    # of one velocity and one gradient component at a time, summed in the
    # order j = 1, 2, 3
    rng = np.random.default_rng(5)
    c = forward(grid, rng.standard_normal(grid.shape))
    prod = np.zeros(grid.shape)
    for k, m in zip(wavenumbers(grid), multiplier_arrays(grid, 1.3)):
        u = inverse(grid, m * c)
        u *= inverse(grid, 1j * k * c)
        prod += u
    ref = forward(grid, prod)
    ref[:, :, 0] = 0.0
    assert advection_coefficients(grid, c, 1.3).tobytes() == ref.tobytes()


@pytest.mark.parametrize("grid", STACK_LAYOUTS, ids=str)
def test_transforms_from_threads(grid):
    # the work arrays of the transforms and of the advection product are
    # kept per grid and per thread; threads sharing one set would read each
    # other's passes
    rng = np.random.default_rng(8)
    inputs = [rng.standard_normal(grid.shape) for _ in range(4)]
    expected = [inverse(grid, forward(grid, v)) for v in inputs]
    coeffs = [forward(grid, v) for v in inputs]
    expected_adv = [advection_coefficients(grid, c, 1.0) for c in coeffs]
    wrong = []

    def worker(i):
        for _ in range(50):
            if not np.array_equal(inverse(grid, forward(grid, inputs[i])),
                                  expected[i]):
                wrong.append(i)
            if not np.array_equal(advection_coefficients(grid, coeffs[i], 1.0),
                                  expected_adv[i]):
                wrong.append(i)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_band_layout_geometry():
    grid = Grid(16, 32, 24)  # band (5, 10, 7): |k_i| < n_i / 3
    assert grid.band_shape == (11, 21, 8)
    K1, K2, K3 = wavenumbers(grid)
    assert K1.ravel().tolist() == [0, 1, 2, 3, 4, 5, -5, -4, -3, -2, -1]
    assert K2.ravel()[[0, 10, 11, 20]].tolist() == [0, 10, -10, -1]
    assert K3.ravel().tolist() == list(range(8))
    f = _random_band_limited(grid, seed=6)
    full = embed_band(grid, f.c)  # full index -4 on axis 1 is k2 = -4
    assert full[3, -4, 2] == f.coeff(3, -4, 2) != 0.0
    assert full[-5, 10, 0] == f.coeff(-5, 10, 0) != 0.0


@pytest.mark.parametrize("grid", [Grid(48, 48, 48), Grid(24, 24, 24),
                                  Grid(16, 32, 24)], ids=str)
def test_dealias_mask_extracts_the_band(grid):
    # the full rfftn wavenumbers, taken through the mask, are the band's
    n1, n2, p3 = grid.spectral_shape
    full = np.meshgrid(np.fft.fftfreq(n1, 1.0 / n1), np.fft.fftfreq(n2, 1.0 / n2),
                       np.arange(p3), indexing="ij")
    for k_full, k_band in zip(full, wavenumbers(grid)):
        assert np.array_equal(extract_band(grid, k_full),
                              np.broadcast_to(k_band, grid.band_shape))


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
        # (16, 16, 9) is numpy's full rfftn layout of the 16^3 grid
        for shape in [(16, 16, 8), G16.spectral_shape]:
            with pytest.raises(ValueError, match=rf"shape \({shape[0]}, "
                                                 rf"{shape[1]}, {shape[2]}\)"):
                SpectralField(G16, np.zeros(shape, dtype=complex))

    def test_coefficients_are_complex128(self):
        c = np.zeros(G16.band_shape, dtype=np.complex128)
        assert SpectralField(G16, c).c is c  # no copy
        real = np.zeros(G16.band_shape)
        real[1, 2, 3] = 0.5
        f = SpectralField(G16, real)
        assert f.c.dtype == np.complex128 and f.coeff(1, 2, 3) == 0.5
        with pytest.raises(ValueError, match="not numeric"):
            SpectralField(G16, np.zeros(G16.band_shape, dtype=object))

    def test_set_coeff_validates(self):
        f = SpectralField.zeros(G16)
        with pytest.raises(ValueError):
            f.set_coeff(0, 0, 7, 1.0)  # band is 5
        with pytest.raises(ValueError):
            f.set_coeff(6, 0, 1, 1.0)

    def test_set_coeff_broadcasts(self):
        f = SpectralField.zeros(G16)
        f.set_coeff(np.array([[1], [-2]]), 3, np.array([1, 5]),
                    np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert [f.coeff(k1, 3, k3) for k1 in (1, -2) for k3 in (1, 5)] == [
            1.0, 2.0, 3.0, 4.0]
        assert np.count_nonzero(f.c) == 4
        # the error names the first out-of-band wavevector; nothing is set
        g = SpectralField.zeros(G16)
        with pytest.raises(ValueError, match=r"^wavevector \(2,0,6\) "):
            g.set_coeff([1, 2, 3], 0, [5, 6, 7], 1.0)
        assert not g.c.any()


class TestProjections:
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
        layout = Grid(16, 16, 16, Sublattice.of_plane(p))
        proj = layout.scatter(layout.gather(both.c))
        assert np.max(np.abs(proj - on.c)) == 0.0

    def test_plane_mask_includes_all_k3(self):
        mask = plane_mask(G16, PlaneSpec(1, 1))
        assert mask[1, 1, :].all()
        assert not mask[1, 2, :].any()


# (grid shape, plane q_num/q_den, N_s, J): N_s points take the plane's
# coordinate on the grid, which caps the layout's samples; on 14^3 the cap
# binds, below the 5-smooth 16
PLANE_LAYOUTS = [
    ((24, 24, 24), (1, 1), 24, 7),
    ((24, 24, 24), (2, 1), 24, 3),
    ((32, 32, 32), (1, 2), 32, 5),
    ((24, 24, 24), (0, 1), 24, 7),
    ((24, 24, 24), (-1, 1), 24, 7),
    ((24, 24, 24), (9, 1), 24, 0),
    ((24, 32, 24), (1, 1), 96, 7),
    ((24, 32, 24), (-2, 3), 16, 2),
    ((14, 14, 14), (1, 1), 14, 4),
]


def _plane_layout(shape, ratio):
    return Grid(*shape, Sublattice.of_plane(PlaneSpec(*ratio)))


def _five_smooth(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def _assert_sample_sizes(layout, caps):
    # a restricted layout samples on sizes of its own band: one sample for
    # b = 0, else the smallest even 5-smooth n > 3 b, which dealiases the
    # band exactly, capped at the number of values its coordinate takes on
    # the grid
    for n, cap, b in zip(layout.shape, caps, layout.band):
        smooth = next(k for k in itertools.count(3 * b + 1)
                      if k % 2 == 0 and _five_smooth(k))
        assert n == (1 if b == 0 else min(cap, smooth)), layout.shape


def _assert_samples_are_the_direct_sum(layout):
    # against an independent oracle: the layout's samples are the direct
    # sum over its band of c(k) exp(i k . x) at points x whose lattice
    # coordinates are the layout's, and its coefficients survive a round
    # trip through the whole grid
    rng = np.random.default_rng(5)
    c = forward(layout, rng.standard_normal(layout.shape))
    y = np.stack(np.meshgrid(*layout.axes(), indexing="ij"), axis=-1)
    cols = np.array([list(col) for col in layout.lattice.basis], float)
    x = np.concatenate([y[..., :len(cols)] @ np.linalg.pinv(cols).T,
                        y[..., 2:] / layout.lattice.s3], axis=-1)
    K = np.stack([np.broadcast_to(k, layout.band_shape).ravel()
                  for k in wavenumbers(layout)])
    w = np.where(K[2] > 0, 2.0, 1.0) * c.ravel()
    direct = (np.exp(1j * (x @ K)) @ w).real
    assert np.max(np.abs(inverse(layout, c) - direct)) <= 1e-13
    grid = layout.whole
    assert np.max(np.abs(layout.gather(
        forward(grid, inverse(grid, layout.scatter(c)))) - c)) <= 1e-15


class TestPlaneGrid:
    """The layout of a plane's sublattice."""

    @pytest.mark.parametrize("shape, ratio, n_s, j_max", PLANE_LAYOUTS)
    def test_geometry(self, shape, ratio, n_s, j_max):
        layout = _plane_layout(shape, ratio)
        grid, plane = layout.whole, layout.lattice.plane
        _assert_sample_sizes(layout, (n_s, 1, shape[2]))
        assert layout.band_shape == (2 * j_max + 1, 1, grid.band[2] + 1)
        K1, K2, K3 = (np.broadcast_to(k, layout.band_shape)
                      for k in wavenumbers(layout))
        b1, b2, _ = grid.band
        assert plane.contains(K1, K2).all()
        assert (np.abs(K1) <= b1).all() and (np.abs(K2) <= b2).all()
        assert np.array_equal(K3[0, 0], np.arange(grid.band[2] + 1))
        # the layout holds every on-plane wavevector of the band, once
        mask = plane_mask(grid, plane)
        assert np.count_nonzero(mask) == K1.size
        c = np.zeros(grid.band_shape, dtype=np.complex128)
        c[mask] = np.arange(1, K1.size + 1)
        assert np.array_equal(layout.scatter(layout.gather(c)), c)

    @pytest.mark.parametrize("shape, ratio, n_s, j_max", PLANE_LAYOUTS)
    def test_samples_are_the_direct_sum(self, shape, ratio, n_s, j_max):
        _assert_samples_are_the_direct_sum(_plane_layout(shape, ratio))


# (grid shape, strides s1, s2, s3, N_s, layout band); a band-0 axis last
DIAG_LAYOUTS = [
    ((48, 48, 48), (9, 4, 1), (16, 12, 48), (1, 3, 15)),
    ((24, 24, 64), (6, 5, 2), (4, 24, 32), (1, 1, 10)),
    ((32, 16, 24), (3, 2, 3), (32, 8, 8), (3, 2, 2)),
    ((48, 48, 48), (48, 4, 1), (1, 12, 48), (0, 3, 15)),
]


class TestSublattice:
    @pytest.mark.parametrize("basis, s3", [
        (((1, 2), (0, 3)), 1), (((1, 0), (1, 3)), 1), (((2, 4),), 1),
        (((1, 0), (0, 0)), 1), (((1, 1),), 0), ((), 1),
        (((1, 0), (0, 1), (0, 0)), 1), (((1, 2, 3),), 1)])
    def test_refuses_other_bases(self, basis, s3):
        with pytest.raises(ValueError):
            Sublattice(basis, s3)

    @pytest.mark.parametrize("lattice", [None, ((1, 0), (0, 1)), 1])
    def test_grid_refuses_a_lattice_that_is_not_a_sublattice(self, lattice):
        with pytest.raises(ValueError, match="must be a Sublattice"):
            Grid(16, 16, 16, lattice)

    def test_names(self):
        assert Sublattice.of_plane(PlaneSpec(-2, 3)).basis == ((3, -2),)
        assert Sublattice.of_plane(PlaneSpec(1, 1)).plane == PlaneSpec(1, 1)
        assert Sublattice.diag(9, 4, 2).plane is None
        layout = Grid(48, 48, 48, Sublattice.diag(9, 4))
        assert str(layout) == (
            "4x10x48 on Sublattice(basis=((9, 0), (0, 4)), s3=1)")
        layout = Grid(24, 24, 24, Sublattice(((1, 2),), 3))
        assert str(layout) == "10x1x8 on Sublattice(basis=((1, 2),), s3=3)"

    @pytest.mark.parametrize("lookup", [
        lambda g: cosine_mode(g, (2, 2, 1)),
        lambda g: sine_vertical(g, 1),
        lambda g: assemble_eigenfunction(solve_sigma_star(1, 1, PhysParams()),
                                         g),
        lambda g: SpectralField.zeros(g).coeff(4, 4, 1),
        lambda g: SpectralField.zeros(g).coeff(4, 4, -1),
        lambda g: SpectralField.zeros(g).set_coeff(4, 4, 1, 1.0),
    ], ids=["cosine_mode", "sine_vertical", "assemble_eigenfunction", "coeff",
            "coeff_mirror", "set_coeff"])
    def test_wavevector_lookup_refuses_a_restricted_layout(self, lookup):
        # a layout stores lattice coordinates: on diag(2, 2), (2, 2, 1)
        # would land at the wavevector (4, 4, 1), and a lookup of (4, 4, 1)
        # would read (8, 8, 1)
        layout = Grid(48, 48, 48, Sublattice.diag(2, 2))
        with pytest.raises(ValueError, match=re.escape(
                f"wavevector lookup on the layout {layout};")):
            lookup(layout)
        lookup(layout.whole)  # the whole lattice addresses wavevectors

    @pytest.mark.parametrize("shape, strides, n_layout, band", DIAG_LAYOUTS)
    def test_diag_layout_geometry_and_samples(self, shape, strides, n_layout,
                                              band):
        grid = Grid(*shape)
        layout = Grid(*shape, Sublattice.diag(*strides))
        assert layout.band == band
        _assert_sample_sizes(layout, n_layout)
        K = [np.broadcast_to(k, layout.band_shape)
             for k in wavenumbers(layout)]
        for k, s, b in zip(K, strides, grid.band):
            assert (k % s == 0).all() and (np.abs(k) <= b).all()
        # every lattice wavevector of the band, once
        on = np.ones(grid.band_shape, dtype=bool)
        for k, s in zip(wavenumbers(grid), strides):
            on &= k % s == 0
        assert np.count_nonzero(on) == K[0].size
        _assert_samples_are_the_direct_sum(layout)


# (grid shape, sublattice, sample shape): the first three diag layouts
# above, two planes and a layout with a band-0 axis
STEP_LAYOUTS = [
    *((shape, Sublattice.diag(*strides), steps) for (shape, strides, _, _),
      steps in zip(DIAG_LAYOUTS, [(4, 10, 48), (4, 4, 32), (10, 8, 8)])),
    ((24, 24, 24), Sublattice.of_plane(PlaneSpec(2, 1)), (10, 1, 24)),
    ((32, 32, 32), Sublattice.of_plane(PlaneSpec(1, 2)), (16, 1, 32)),
    ((48, 48, 48), Sublattice.diag(48, 4), (1, 10, 48)),
]


@pytest.mark.parametrize("shape, lattice, steps", STEP_LAYOUTS,
                         ids=lambda v: str(v).replace(" ", ""))
def test_stepping_sizes_dealias_the_band_exactly(shape, lattice, steps):
    # a restricted layout steps and samples on sizes of its own band, and
    # prints them; no cap binds on these grids
    layout = Grid(*shape, lattice)
    assert layout.shape == steps
    assert str(layout) == f"{'x'.join(map(str, steps))} on {lattice}"
    _assert_sample_sizes(layout, shape)


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
        # inside the rfftn half-spectrum of 8^3, outside its band of 2
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

    @pytest.mark.parametrize("text,match", [
        # int() and float() accept all of these; the writer never emits them
        ("MGFIELD v1 1_6 16 16\n", r"bad grid in header: '1_6' is not an "
                                    r"ASCII int literal"),
        ("MGFIELD v1 \uff11\uff16 16 16\n", r"bad grid in header: .* is "
                                             r"not an ASCII int literal"),
        ("MGFIELD v1 16 16 16\n0_1 1 1 0.5 0.0\n",
         r":2: '0_1' is not an ASCII int literal"),
        ("MGFIELD v1 16 16 16\n0 0 1 0.0 -0.5\n1 2 3 1_0.5 0.0\n",
         r":3: '1_0.5' is not an ASCII float literal"),
        ("MGFIELD v1 16 16 16\n1 \u0662 3 0.5 0.0\n",
         r":2: .* is not an ASCII int literal"),
        ("MGFIELD v1 16 16 16\n1 2 3 0.5 \uff10.5\n",
         r":2: .* is not an ASCII float literal"),
    ])
    def test_rejects_numbers_the_writer_never_writes(self, tmp_path, text,
                                                     match):
        path = tmp_path / "bad.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SnapshotFormatError, match=match):
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

    def test_pinned_file_round_trip_byte_exact(self, tmp_path):
        # a dense random 16x32x24 field with a k3 = 0 plane: the file of the
        # next test, written by an earlier version of the format's writer,
        # without its k3 = 8 lines; the line order is the C order of the band
        f = read_snapshot(SNAPSHOT_16x32x24_BAND7)
        assert f.grid == Grid(16, 32, 24)
        assert np.count_nonzero(f.c[:, :, 0]) > 0
        path = tmp_path / "again.txt"
        write_snapshot(f, path)
        assert path.read_bytes() == SNAPSHOT_16x32x24_BAND7.read_bytes()

    def test_file_written_under_the_wider_band_is_refused(self):
        # written under a band of n // 3, which held k3 = 8 on n3 = 24
        with pytest.raises(SnapshotFormatError,
                           match=r":10: wavevector \(0,0,8\) outside the "
                                 r"dealias band \(5, 10, 7\)"):
            read_snapshot(SNAPSHOT_16x32x24)
        old = SNAPSHOT_16x32x24.read_text().splitlines(keepends=True)
        assert (SNAPSHOT_16x32x24_BAND7.read_text()
                == "".join(line for line in old if line.split()[2] != "8"))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)

    @pytest.mark.parametrize("body,match", [
        # a valid body: the 7 PiB grid itself cannot be allocated
        ("0 0 1 0.0 -0.5\n", r"header 'MGFIELD v1 100000 100000 100000'.*"
                             r"too large"),
        ("", r"header 'MGFIELD v1 100000 100000 100000'.*too large"),
        # a bad body is reported before any allocation is tried
        ("1 1 0 0.5 0.25\n", r":2: .*no conjugate mirror"),
        ("0 0 1 nan 0.0\n", r":2: non-finite"),
    ])
    def test_huge_header_grid(self, tmp_path, body, match):
        path = tmp_path / "huge.txt"
        path.write_text("MGFIELD v1 100000 100000 100000\n" + body)
        with pytest.raises(SnapshotFormatError, match=match):
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
    for k1, k2, k3, re, im in entries:
        v = complex(re, 0.0 if (k1, k2, k3) == (0, 0, 0) else im)
        if np.abs(v) < 1e-16:
            continue
        if k3 == 0:
            f.set_coeff(-k1, -k2, 0, v.conjugate())
        f.set_coeff(k1, k2, k3, v)
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
                                        .encode() + t[2])
       # a grid no machine can allocate, under a junk or a valid body
       | st.sampled_from([b"", b"0 0 1 0.0 -0.5\n"]).flatmap(
           lambda body: _JUNK.map(
               lambda junk: b"MGFIELD v1 100000 100000 100000\n" + body
               + junk)))
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
    rev = (-np.arange(c.shape[0])) % c.shape[0]
    plane = c[:, :, 0]
    assert np.array_equal(plane, np.conj(plane[np.ix_(rev, rev)]))
    # the physical realization is real and transforming back is idempotent
    w = inverse(g, c)
    assert np.isrealobj(w)
    assert np.max(np.abs(forward(g, w) - c)) < 1e-12


@pytest.mark.parametrize("call, match", [
    (lambda: forward(G16, np.zeros((16, 16, 8))),
     r"values shape \(16, 16, 8\) does not match grid \(16, 16, 16\)"),
    (lambda: SpectralField.zeros(G16) + SpectralField.zeros(Grid(8, 8, 8)),
     "fields live on different grids"),
    (lambda: cosine_mode(G16, (0, 0, 0)),
     "cosine mode requires a nonzero wavevector"),
    (lambda: sine_vertical(G16, 0),
     "vertical mode index must be >= 1, got 0"),
    (lambda: cosine_mode(G16, (1.5, 2, 1)),
     r"wavenumbers must be integers, got \(1.5, 2, 1\)"),
    (lambda: cosine_mode(G16, (1, True, 1)),
     r"wavenumbers must be integers, got \(1, True, 1\)"),
    (lambda: sine_vertical(G16, 2.7),
     "vertical mode index must be an integer, got 2.7"),
    (lambda: sine_vertical(G16, True),
     "vertical mode index must be an integer, got True"),
    (lambda: forward(Grid(8, 8, 8), (1 + 1j) * np.ones((8, 8, 8))),
     "samples of dtype complex128 are not real"),
    (lambda: forward(Grid(8, 8, 8), np.full((8, 8, 8), "1")),
     "samples of dtype <U1 are not real"),
], ids=["forward_shape", "add_across_grids", "cosine_zero", "sine_m0",
        "cosine_float", "cosine_bool", "sine_float", "sine_bool",
        "forward_complex", "forward_str"])
def test_field_operations_refuse_bad_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_transforms_take_array_likes():
    # nested lists go through np.asarray, as arrays do
    g = Grid(8, 8, 8)
    v = np.random.default_rng(2).standard_normal(g.shape)
    c = forward(g, v)
    assert np.array_equal(forward(g, v.tolist()), c)
    assert np.array_equal(inverse(g, c.tolist()), inverse(g, c))
