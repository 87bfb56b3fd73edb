"""Tests for the constitutive velocity multiplier and its balance oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mgsim.errors import SingularSystemError
from mgsim.symbol import (
    PhysParams,
    PlaneSpec,
    balance_oracle,
    balance_oracle_batch,
    eval_denominator,
    eval_symbol,
    growth_scan,
    plane_bound_scan,
    scan_box,
    symbol_components,
)


class TestDenominator:
    def test_hand_values(self):
        assert eval_denominator((1, 1, 1), 1.0) == 4.0
        assert eval_denominator((0, 2, 0), 1.0) == 16.0
        assert eval_denominator((7, 0, 0), 1.0) == 0.0

    def test_general_n2(self):
        # N^4 |k|^2 k3^2 + k2^4 at k=(1,2,3), N^2=2 -> 4*14*9 + 16 = 520
        assert eval_denominator((1, 2, 3), 2.0) == 520.0


class TestSymbol:
    def test_hand_triple(self):
        assert eval_symbol((1, 1, 1), 1.0) == (0.5, -1.0, 0.5)

    def test_zero_on_horizontal_plane_and_origin(self):
        assert eval_symbol((5, -3, 0), 1.0) == (0.0, 0.0, 0.0)
        assert eval_symbol((0, 0, 0), 1.0) == (0.0, 0.0, 0.0)
        assert eval_symbol((12, 0, 0), 3.0) == (0.0, 0.0, 0.0)

    def test_even_under_reflection(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            k = tuple(int(x) for x in rng.integers(-32, 33, size=3))
            mk = eval_symbol(k, 2.5)
            mneg = eval_symbol((-k[0], -k[1], -k[2]), 2.5)
            assert mk == mneg, f"symbol not even at k={k}"

    def test_divergence_free(self):
        rng = np.random.default_rng(11)
        for n2 in (0.25, 1.0, 4.0):
            for _ in range(200):
                k = tuple(int(x) for x in rng.integers(-32, 33, size=3))
                m = eval_symbol(k, n2)
                div = k[0] * m[0] + k[1] * m[1] + k[2] * m[2]
                knorm = math.sqrt(sum(c * c for c in k))
                mnorm = math.sqrt(sum(c * c for c in m))
                assert abs(div) <= 1e-14 * (1.0 + knorm * mnorm), (
                    f"k . M = {div} at k={k}, n2={n2}"
                )

    def test_linear_growth_bound_uniform_in_n2(self):
        # |M(k)| <= |k| on the whole lattice, with a constant that does not
        # degrade as N^2 varies; the bound is saturated (ratio -> 1) along
        # k2 = 0, |k1| >> |k3|, where the multiplier is N-free.
        rng = np.arange(-24, 25)
        K1, K2, K3 = np.meshgrid(rng, rng, rng, indexing="ij")
        keep = ~((K1 == 0) & (K2 == 0) & (K3 == 0))
        kn = np.sqrt((K1[keep] ** 2 + K2[keep] ** 2 + K3[keep] ** 2).astype(float))
        for n2 in (0.25, 1.0, 4.0, 16.0):
            m1, m2, m3 = symbol_components(K1[keep], K2[keep], K3[keep], n2)
            ratio = np.sqrt(m1 ** 2 + m2 ** 2 + m3 ** 2) / kn
            assert ratio.max() <= 1.0 + 1e-12
            assert ratio.max() > 0.99, f"sharpness lost at n2={n2}: {ratio.max()}"


class TestBalanceOracle:
    def test_matches_hand_solution(self):
        u = balance_oracle((1, 1, 1), 1.0)
        assert np.allclose(u, [0.5, -1.0, 0.5], rtol=0, atol=1e-14)

    def test_imaginary_parts_vanish(self):
        u = balance_oracle((0, 1, 1), 4.0)
        assert np.abs(u.imag).max() < 1e-14

    def test_singular_modes_raise(self):
        with pytest.raises(SingularSystemError):
            balance_oracle((0, 0, 0), 1.0)
        with pytest.raises(SingularSystemError):
            balance_oracle((5, 0, 0), 1.0)

    def test_agrees_with_closed_form(self):
        # independent route: dense solve of the raw balance system vs the
        # explicit rational multiplier, every mode off the k3 = 0 plane
        kmax = 8
        rng = np.arange(-kmax, kmax + 1)
        K1, K2, K3 = np.meshgrid(rng, rng, rng, indexing="ij")
        keep = K3 != 0
        kvecs = np.stack([K1[keep], K2[keep], K3[keep]], axis=1)
        for n2 in (0.25, 1.0, 4.0):
            u = balance_oracle_batch(kvecs, n2)
            assert np.abs(u.imag).max() < 1e-12
            m1, m2, m3 = symbol_components(kvecs[:, 0], kvecs[:, 1], kvecs[:, 2], n2)
            ref = np.stack([m1, m2, m3], axis=1)
            scale = 1.0 + np.abs(ref).max(axis=1, keepdims=True)
            err = np.abs(u.real - ref) / scale
            assert err.max() < 1e-12, f"oracle mismatch {err.max()} at n2={n2}"

    def test_divergence_free_velocity(self):
        for k in [(3, -2, 1), (0, 4, -5), (7, 1, 2)]:
            u = balance_oracle(k, 2.0)
            div = k[0] * u[0] + k[1] * u[1] + k[2] * u[2]
            assert abs(div) < 1e-12


class TestPlaneBound:
    def test_plateau_under_box_doubling(self):
        c16 = plane_bound_scan(1, 1, 16, 1.0)
        c32 = plane_bound_scan(1, 1, 32, 1.0)
        c64 = plane_bound_scan(1, 1, 64, 1.0)
        assert abs(c32 - c16) / c16 < 0.01
        assert abs(c64 - c32) / c32 < 0.01

    def test_known_plane_constant(self):
        # on the plane k2 = k1 the third component saturates at 2 N^2
        c = plane_bound_scan(1, 1, 64, 1.0)
        assert 1.95 < c <= 2.0
        c4 = plane_bound_scan(1, 1, 64, 2.0)
        assert 3.9 < c4 <= 4.0
        assert plane_bound_scan(np.int64(1), np.int64(1), 64, 1.0) == c

    def test_plane_bounded_while_offplane_grows(self):
        c = plane_bound_scan(1, 2, 32, 1.0)
        rows = growth_scan(12, 1.0)
        _, _, mnorm = rows[-1]
        assert mnorm > 10 * c, "off-plane family should dwarf the plane constant"

    def test_invalid_plane_rejected(self):
        with pytest.raises(ValueError):
            plane_bound_scan(2, 4, 8, 1.0)
        with pytest.raises(ValueError):
            plane_bound_scan(1, 0, 8, 1.0)
        for plane in [(2, 4), (1, 0), (1, -1)]:
            with pytest.raises(ValueError):
                next(scan_box(4, 1.0, plane=PlaneSpec(*plane)))


class TestGrowthScan:
    def test_ratio_bracket(self):
        rows = growth_scan(64, 1.0)
        for j, knorm, mnorm in rows:
            ratio = mnorm / knorm
            assert ratio > 0.1, f"growth ratio collapsed at j={j}"
            if j >= 4:
                assert 0.6 < ratio < 0.75, f"ratio {ratio} escaped bracket at j={j}"

    def test_vertical_component_limit(self):
        # M3(j^2, j, 1) / |k| -> 1/2 for N^2 = 1
        j = 64
        k = (j * j, j, 1)
        knorm = math.sqrt(k[0] ** 2 + k[1] ** 2 + k[2] ** 2)
        m3 = eval_symbol(k, 1.0)[2]
        assert abs(m3 / knorm - 0.5) < 1e-5


class TestScanBox:
    def test_row_count_and_plane_filter(self):
        rows = list(scan_box(2, 1.0))
        assert len(rows) == 5 ** 3 - 1
        plane_rows = list(scan_box(4, 1.0, plane=PlaneSpec(1, 1)))
        assert all(r[1] == r[0] for r in plane_rows)
        assert all((r[0], r[1], r[2]) != (0, 0, 0) for r in plane_rows)

    def test_rows_match_eval(self):
        for r in scan_box(2, 2.0):
            k = (r[0], r[1], r[2])
            assert eval_symbol(k, 2.0) == (r[3], r[4], r[5])


class TestPhysParams:
    def test_accepts_valid(self):
        p = PhysParams(n2=2.0, m=3, eps_kappa=0.1, gamma=0.5)
        assert p.n2 == 2.0 and p.m == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n2": 0.0},
            {"n2": -1.0},
            {"m": 0},
            {"m": 2.5},
            {"eps_kappa": -0.01},
            {"gamma": 0.0},
            {"gamma": 1.5},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            PhysParams(**kwargs)


@given(
    k1=st.integers(-40, 40),
    k2=st.integers(-40, 40),
    k3=st.integers(-40, 40),
    n2=st.floats(0.1, 10.0),
)
@settings(max_examples=200, deadline=None)
def test_symbol_properties(k1, k2, k3, n2):
    k = (k1, k2, k3)
    m = eval_symbol(k, n2)
    # vertical component never negative: M3 = N^2 k2^2 (k1^2 + k2^2) / D
    assert m[2] >= 0.0
    # even
    assert eval_symbol((-k1, -k2, -k3), n2) == m
    # divergence-free
    div = k1 * m[0] + k2 * m[1] + k3 * m[2]
    knorm = math.sqrt(k1 * k1 + k2 * k2 + k3 * k3)
    mnorm = math.sqrt(sum(c * c for c in m))
    assert abs(div) <= 1e-13 * (1.0 + knorm * mnorm)
    # convention plane
    if k3 == 0:
        assert m == (0.0, 0.0, 0.0)
