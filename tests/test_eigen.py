"""Tests for the continued-fraction eigenvalue machinery.

Expected values marked "frozen" were computed from the independent dense
matrix oracle (`dense_sigma_star`) and hand checks on the recursion weights,
then pinned here.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from mgsim import eigen
from mgsim.errors import DegenerateTailError, InvariantError, NoRootError
from mgsim.symbol import PhysParams, eval_symbol
from mgsim.eigen import (
    _LANES,
    _START_DEPTH,
    _cf_residuals,
    _certify,
    _closed_form_bounds,
    _multisect,
    _weights,
    alpha,
    backward_coefficients,
    cf_residual,
    closed_form_bounds,
    continuum_optimum,
    dense_sigma_star,
    illposedness_sweep,
    optimize_growth,
    sigma_bracket,
    sigma_shifted,
    solve_sigma_star,
    HALF_LAPLACIAN_THRESHOLD,
    SweepRow,
    _sweep_verdict,
)

CANON = PhysParams(n2=1.0, m=1, eps_kappa=0.0, gamma=1.0)
# frozen: canonical mode (1,1), no diffusion; dense oracle agrees to 16 digits
SIGMA_CANON = 0.1019869392585389


def _root_at(depth, k1s, k2s, par):
    """Each mode's principal root of the residual truncated at `depth`,
    multisected on the bracket `solve_sigma_star` uses."""
    lower, upper = _closed_form_bounds(k1s, k2s, par)
    a, e = _weights(depth, k1s, k2s, par)
    return _multisect(a, e, np.maximum(lower * (1.0 - 1e-9), upper * 1e-9),
                      upper * (1.0 + 1e-9))[0]


def _scalar_residual(sigma, a, e, close):
    """(x_1 - 1/T_2, [T_2, ..., T_P]) by a plain-float loop over the weights
    a, e of one mode, closed with T_P = x_P - close; the residual is NaN
    unless every tail is above the floor."""
    def recip(t):
        return 1.0 / t if t else math.copysign(math.inf, t)

    sigma, a, e = float(sigma), a.tolist(), e.tolist()
    P = len(a)
    tails = [(sigma + e[P - 1]) * a[P - 1] - close]
    for p in range(P - 2, 0, -1):
        tails.insert(0, (sigma + e[p]) * a[p] - recip(tails[0]))
    r = (sigma + e[0]) * a[0] - recip(tails[0])
    return (r if all(t > eigen._TAIL_FLOOR for t in tails) else math.nan,
            tails)


class TestAlpha:
    def test_hand_values(self):
        assert alpha(1, 1, 1, CANON) == 4.0
        assert alpha(2, 1, 1, CANON) == 25.0

    def test_matches_vertical_multiplier(self):
        # 1/alpha_p = (m/2) M3(k1, k2, m p): the recursion weights are the
        # multiplier's vertical component sampled on the mode ladder
        for (k1, k2, m, p) in [(1, 1, 1, 1), (1, 1, 1, 4), (3, 2, 2, 5),
                               (6, 4, 1, 3), (9, 4, 3, 7)]:
            par = PhysParams(n2=1.5, m=m)
            lhs = 1.0 / alpha(p, k1, k2, par)
            rhs = 0.5 * m * eval_symbol((k1, k2, m * p), 1.5)[2]
            assert abs(lhs - rhs) < 1e-15 * (1.0 + abs(rhs))

    def test_quartic_growth(self):
        # canonical weights grow like p^4 with unit prefactor
        a100 = alpha(100, 1, 1, CANON)
        assert abs(a100 / 100 ** 4 - 1.0) < 1e-3

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            alpha(1, 0, 1, CANON)
        with pytest.raises(ValueError):
            alpha(0, 1, 1, CANON)

    @pytest.mark.parametrize("p", [1.5, 2.0, "2"])
    def test_rejects_non_integer_p(self, p):
        # a fractional p must not be rounded to a neighbouring depth
        with pytest.raises(ValueError, match="p must be a positive integer"):
            alpha(p, 1, 1, CANON)
        with pytest.raises(ValueError, match="p must be a positive integer"):
            sigma_shifted(0.0, p, 1, 1, CANON)


class TestSigmaShifted:
    def test_laplacian_shift(self):
        par = PhysParams(eps_kappa=0.1, gamma=1.0)
        assert sigma_shifted(0.0, 1, 1, 1, par) == pytest.approx(0.3, abs=1e-15)

    def test_fractional_shift(self):
        par = PhysParams(eps_kappa=0.1, gamma=0.5)
        assert sigma_shifted(0.0, 1, 2, 1, par) == pytest.approx(
            0.1 * math.sqrt(6.0), abs=1e-15)


class TestBrackets:
    def test_canonical_bracket(self):
        lo, hi = sigma_bracket(1, 1, CANON)
        assert lo == pytest.approx(0.1, abs=1e-15)
        assert hi == pytest.approx(math.sqrt(2.0) / 10.0, abs=1e-15)

    def test_canonical_closed_forms(self):
        lower, upper = closed_form_bounds(1, 1, CANON)
        assert lower == pytest.approx(1.0 / 25.0, abs=1e-15)
        assert upper == pytest.approx(2.0 / 4.0, abs=1e-15)

    def test_64_diffusive_closed_lower(self):
        # frozen: 1/alpha_2 - e_2 at (6,4), eps_kappa = 0.01
        par = PhysParams(eps_kappa=0.01)
        lower, upper = closed_form_bounds(6, 4, par)
        assert lower == pytest.approx(0.3066666666666666, abs=1e-12)
        assert upper > lower


class TestCfResidual:
    def test_sign_change_across_bracket(self):
        lo, hi = sigma_bracket(1, 1, CANON)
        assert cf_residual(lo * 1.0000001, 1, 1, CANON) < 0.0
        assert cf_residual(hi, 1, 1, CANON) > 0.0

    def test_degenerate_tail_below_branch(self):
        with pytest.raises(DegenerateTailError):
            cf_residual(0.01, 1, 1, CANON)

    def test_residual_tiny_at_root(self):
        assert abs(cf_residual(SIGMA_CANON, 1, 1, CANON, depth=128)) < 1e-12

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            cf_residual(0.1, 1, 1, CANON, depth=1)

    @pytest.mark.parametrize("depth", [2, 3, 65])
    @pytest.mark.parametrize("close", [0.0, 1.0, "lanes"])
    @pytest.mark.parametrize("order", ["F", "C"])
    def test_kernel_is_the_scalar_loop_bit_for_bit(self, depth, close, order):
        # the monotone-rounding argument of the module docstring holds for
        # the scalar operation order; every point of the kernel must run it,
        # also closed per point with an infinite tail or x_P - 1
        _check_kernel(PhysParams(n2=0.7, m=2, eps_kappa=0.01, gamma=0.5),
                      depth, close, order)

    @pytest.mark.parametrize("depth", [2, 3, 65])
    @pytest.mark.parametrize("close", [0.0, 1.0, "lanes"])
    def test_kernel_without_dissipation_weights_is_the_scalar_loop(
            self, depth, close):
        # at eps_kappa = 0 a batch passes no weights e, and the kernel forms
        # x_p = sigma alpha_p, the scalar loop's (sigma + 0) alpha_p
        _check_kernel(PhysParams(n2=0.7, m=2, eps_kappa=0.0), depth, close,
                      "F", weights=False)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64).tolist()


def _check_kernel(par, depth, close, order, weights=True):
    """`_cf_residuals` against `_scalar_residual` at every point, bit for
    bit: the residuals of 2 and of 9 points per mode (non-contiguous
    columns, some off the branch) and the tails of each mode's first
    point.  close "lanes" closes the points in turn with an infinite tail
    (close -inf) and with x_P - 1."""
    k1s, k2s = [1, 6, 24, 3], [1, 4, 7, 20]
    a, e = (np.asarray(w, order=order)
            for w in _weights(depth, k1s, k2s, par))
    upper = _closed_form_bounds(k1s, k2s, par)[1]
    xs = np.linspace(-1.5 * upper, 1.5 * upper, 11, axis=1)
    for sigma in (xs[:, -3:-1], xs[:, 1:-1]):
        n = sigma.shape[1]
        closes = (np.resize([-np.inf, 1.0], n) if close == "lanes"
                  else np.full(n, close))
        tails = np.full((len(k1s), depth), np.nan)
        got = _cf_residuals(sigma, a, e if weights else None, tails,
                            closes if close == "lanes" else close)
        want = [[_scalar_residual(s, a[i], e[i], c)
                 for s, c in zip(row, closes)] for i, row in enumerate(sigma)]
        assert _bits(got) == _bits([[r for r, _ in row] for row in want])
        assert _bits(tails[:, 1:]) == _bits([row[0][1] for row in want])
    assert (sigma < 0.0).any() and np.isnan(got).any()  # off the branch
    assert np.isfinite(got).any()


class TestSolve:
    def test_canonical_root_frozen(self):
        sol = solve_sigma_star(1, 1, CANON)
        assert sol.sigma_star == pytest.approx(SIGMA_CANON, abs=1e-12)
        assert sol.residual < 1e-12
        lo, hi = sol.bracket
        assert lo <= sol.sigma_star <= hi

    def test_matches_dense_oracle(self):
        assert dense_sigma_star(1, 1, CANON, 64) == pytest.approx(
            SIGMA_CANON, abs=1e-12)
        # (1, 7): the alpha_p are nearly flat in p and sigma* lies above
        # the product-identity endpoints of sigma_bracket
        for (k1, k2, eps) in [(2, 3, 0.0), (6, 4, 0.01), (1, 2, 0.0),
                              (5, 5, 0.005), (3, 1, 0.01), (1, 7, 0.01)]:
            par = PhysParams(eps_kappa=eps)
            sol = solve_sigma_star(k1, k2, par)
            ref = dense_sigma_star(k1, k2, par, depth=64)
            assert abs(sol.sigma_star - ref) < 1e-9, (k1, k2, eps)
            assert sol.bracket == closed_form_bounds(k1, k2, par)

    def test_product_lemma(self):
        # on these modes the principal root satisfies sigma_1 sigma_2 in
        # [1/(alpha_1 alpha_2), 2/(alpha_1 alpha_2)]; not on all, see (1, 7)
        # in test_matches_dense_oracle
        for (k1, k2, eps) in [(1, 1, 0.0), (6, 4, 0.01), (2, 5, 0.002)]:
            par = PhysParams(eps_kappa=eps)
            sol = solve_sigma_star(k1, k2, par)
            a1, a2 = alpha(1, k1, k2, par), alpha(2, k1, k2, par)
            s1 = sigma_shifted(sol.sigma_star, 1, k1, k2, par)
            s2 = sigma_shifted(sol.sigma_star, 2, k1, k2, par)
            prod = s1 * s2
            assert 1.0 / (a1 * a2) * (1 - 1e-10) <= prod <= 2.0 / (a1 * a2) * (1 + 1e-10)

    def test_frozen_diffusive_roots(self):
        par = PhysParams(eps_kappa=0.01)
        assert solve_sigma_star(6, 4, par).sigma_star == pytest.approx(
            0.7310367787565613, abs=1e-10)
        assert solve_sigma_star(1, 1, par).sigma_star == pytest.approx(
            0.05714564320543115, abs=1e-10)

    def test_depth_doubling_from_coarse_start(self):
        # at depth 64, (1,100) at N^2 = 0.3 is not certified within 1e-12 of
        # the untruncated root; (2,130) is, but its profile has not decayed
        for k1, k2, n2, checks in [(1, 100, 0.3, (False, False)),
                                  (2, 130, 1.0, (True, False))]:
            par = PhysParams(n2=n2)
            a, e = _weights(_START_DEPTH + 1, k1, k2, par)
            sigma = _root_at(_START_DEPTH, k1, k2, par)
            certified, _, decayed, _, _ = _certify(sigma, a, e, [k1], [k2])
            assert (certified[0], decayed[0]) == checks
            sol = solve_sigma_star(k1, k2, par)
            assert sol.depth == 2 * _START_DEPTH  # doubling actually engaged
            assert abs(sol.sigma_star - dense_sigma_star(k1, k2, par, 2048)) < 1e-12

    @pytest.mark.parametrize("depth, certified", [(8, False), (16, True)])
    def test_truncation_certificate_is_not_vacuous(self, depth, certified):
        # the depth-8 root of (1,7) is 2.5e-7 below the untruncated root
        a, e = _weights(depth + 1, 1, 7, CANON)
        sigma = _root_at(depth, 1, 7, CANON)
        assert _certify(sigma, a, e, [1], [7])[0][0] == certified
        assert (abs(sigma[0] - dense_sigma_star(1, 7, CANON, 2048)) < 1e-12
                ) == certified

    @pytest.mark.parametrize("depth, certified", [(64, False), (128, True)])
    def test_truncation_certificate_needs_the_closing_x_at_least_2(
            self, depth, certified):
        # at N^2 = 1e-9 the depth-64 root of (1,4) has G_P >= 0 at
        # s = sigma + 1e-12, yet sigma* lies above s: x_{P+1}(s) < 2, so the
        # tails beyond the cut need not stay at least 1, and only that half
        # of the certificate refuses it; at depth 128 both halves hold, and
        # s bounds sigma* (the oracle at depth 4096)
        par = PhysParams(n2=1e-9, eps_kappa=0.0)
        a, e = _weights(depth + 1, 1, 4, par)
        sigma = _root_at(depth, 1, 4, par)
        s = sigma + 1e-12
        g = _cf_residuals(s[:, None], a, e, close=1.0)[0, 0]
        assert g >= 0.0
        assert ((s[0] + e[0, depth]) * a[0, depth] >= 2.0) == certified
        assert _certify(sigma, a, e, [1], [4])[0][0] == certified
        assert (dense_sigma_star(1, 4, par, 4096) <= s[0]) == certified

    def test_oracle_agrees_to_rounding(self):
        # the tridiagonal oracle bisects to rounding, not to eps times the
        # chain's 1-norm, which the dissipation e_p inflates at depth 256
        par = PhysParams(eps_kappa=0.01, gamma=1.0)
        ks = np.arange(1, 25)
        k1s, k2s = np.repeat(ks, 24), np.tile(ks, 24)
        roots = _root_at(256, k1s, k2s, par)
        assert np.count_nonzero(~np.isnan(roots)) >= 50
        for k1, k2, root in zip(k1s, k2s, roots):
            ref = dense_sigma_star(int(k1), int(k2), par, 256)
            if np.isnan(root):
                assert ref <= 0.0, (k1, k2)
            else:
                assert abs(root - ref) <= 1e-13 * root, (k1, k2)

    def test_root_with_residual_above_1e_12_is_accepted(self):
        # at N^2 = 1e-3 the alpha_p are so large that one ulp of sigma moves
        # g by more than 1e-12, so the root's |g| need not fall below it;
        # it is accepted against g's change over 8 ulps instead
        par = PhysParams(n2=1e-3, eps_kappa=0.0)
        sol = solve_sigma_star(1, 10, par)
        assert sol.residual >= 1e-12  # the scale-free test is what passed
        ref = dense_sigma_star(1, 10, par, sol.depth)
        assert abs(sol.sigma_star - ref) <= 4 * np.spacing(ref)

    @pytest.mark.parametrize("n2", [1e-3, 1e-4], ids=["n2_1e-3", "n2_1e-4"])
    def test_box_with_large_weights_is_solved(self, n2):
        # each root is converged in depth, not only a root of its own
        # truncation: the oracle at twice its depth agrees too
        par = PhysParams(n2=n2, eps_kappa=0.0)
        res = optimize_growth(par, box=16)
        assert res.table["residual"].max() >= 1e-12
        for k1, k2, sigma, depth, _ in res.table:
            for d in (depth, 2 * depth):
                ref = dense_sigma_star(int(k1), int(k2), par, int(d))
                assert abs(sigma - ref) <= 4 * np.spacing(ref), (k1, k2, d)

    @pytest.mark.parametrize("k1, k2, n2", [(1, 10, 1e-3), (1, 1, 1.0)])
    def test_perturbed_root_is_refused(self, k1, k2, n2):
        par = PhysParams(n2=n2, eps_kappa=0.0)
        sol = solve_sigma_star(k1, k2, par)
        a, e = _weights(sol.depth + 1, k1, k2, par)
        _certify(np.array([sol.sigma_star]), a, e, [k1], [k2])
        with pytest.raises(InvariantError, match="root has residual"):
            _certify(np.array([sol.sigma_star * (1 + 1e-8)]), a, e, [k1], [k2])

    def test_stable_mode_raises_no_root(self):
        # all integer modes are stable at this diffusivity; the bracket is
        # positive but the residual never changes sign
        with pytest.raises(NoRootError):
            solve_sigma_star(2, 2, PhysParams(eps_kappa=0.05))

    def test_certified_stable_raises_with_bracket(self):
        with pytest.raises(NoRootError) as exc:
            solve_sigma_star(1, 1, PhysParams(eps_kappa=1.0))
        assert exc.value.hi is not None and exc.value.hi <= 0.0

    def test_monotone_in_diffusivity(self):
        rates = []
        for eps in (0.0, 0.002, 0.01, 0.02):
            rates.append(solve_sigma_star(1, 1, PhysParams(eps_kappa=eps)).sigma_star)
        assert all(a > b for a, b in zip(rates, rates[1:]))


class TestCoefficients:
    def test_normalization_and_signs(self):
        sol = solve_sigma_star(1, 1, CANON)
        c = sol.c
        assert c[0] == 4.0  # c_1 = alpha_1 exactly
        assert c[1] == pytest.approx(-SIGMA_CANON * 25.0 * 4.0, rel=1e-12)
        nz = np.abs(c) > 0
        signs = np.sign(c[nz])
        assert (signs[::2] > 0).all() and (signs[1::2] < 0).all()

    def test_superexponential_decay(self):
        sol = solve_sigma_star(1, 1, CANON)
        mags = np.abs(sol.c[:10])
        ratios = mags[3:] / mags[2:-1]
        assert (ratios < 0.15).all(), "tail should collapse faster than 0.15^p"

    def test_underflowed_tail_is_zero_not_junk(self):
        sigma = solve_sigma_star(1, 1, CANON).sigma_star
        c = backward_coefficients(sigma, 1, 1, CANON, depth=256)
        assert c[0] == 4.0
        # deep tail underflows cleanly to zero
        assert (np.abs(c[200:]) == 0.0).all()

    def test_deepest_profile_is_finite(self):
        # the running product of tail ratios needs no rescaling at _MAX_DEPTH
        sigma = solve_sigma_star(1, 1, CANON).sigma_star
        c = backward_coefficients(sigma, 1, 1, CANON, depth=1024)
        assert c.shape == (1024,) and c[0] == 4.0
        assert np.isfinite(c).all()
        assert (c[199:] == 0.0).all()

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("eps", [0.0, 0.01])
    @pytest.mark.parametrize("k1, k2", [(1, 1), (9, 4), (1, 7)])
    def test_profile_is_the_oracle_eigenvector(self, k1, k2, eps, m):
        # c_p = sqrt(alpha_p) y_p for the top eigenvector y of the symmetric
        # tridiagonal chain, scaled to c_1 = alpha_1
        par = PhysParams(m=m, eps_kappa=eps)
        try:
            sol = solve_sigma_star(k1, k2, par)
        except NoRootError:
            # (1,1) at m = 2, 3 and (9,4) at m = 3 are stable at eps 0.01
            assert eps > 0.0 and dense_sigma_star(k1, k2, par, 128) <= 0.0
            return
        (a,), (e,) = _weights(sol.depth, k1, k2, par)
        top = (sol.depth - 1, sol.depth - 1)
        _, y = scipy.linalg.eigh_tridiagonal(
            -e, -1.0 / np.sqrt(a[:-1] * a[1:]), select="i", select_range=top)
        c = np.sqrt(a) * y[:, 0]
        c *= a[0] / c[0]
        big = np.abs(sol.c) > 1e-8 * abs(sol.c[0])
        assert sol.c[0] == a[0] and big.sum() >= 6
        assert (np.abs(c - sol.c)[big] <= 1e-10 * np.abs(sol.c[big])).all()

    @pytest.mark.parametrize("n2, eps, gamma, m, box, deep", [
        (1.0, 0.0, 1.0, 1, 32, (2, 130)), (0.3, 0.0, 1.0, 1, 4, (1, 100)),
        (1.0, 0.01, 1.0, 1, 12, None), (2.0, 0.005, 1.0, 2, 20, None),
        (0.5, 0.02, 0.8, 1, 16, None), (1.0, 0.01, 0.4, 3, 10, None)])
    def test_solution_profile_is_the_one_acceptance_walked(
            self, monkeypatch, n2, eps, gamma, m, box, deep):
        # the profile of a box's best mode and of lone modes (one accepted
        # at depth 128 where given) is the one their acceptance walked,
        # backward_coefficients' bit for bit, without a call of it
        par = PhysParams(n2=n2, m=m, eps_kappa=eps, gamma=gamma)
        with monkeypatch.context() as patch:
            patch.setattr(eigen, "backward_coefficients", None)
            res = optimize_growth(par, box)
            rows = res.table[[0, len(res.table) // 2, -1]]
            lone = [(int(k1), int(k2)) for k1, k2, *_ in rows]
            sols = [res.solution] + [solve_sigma_star(*mode, par) for mode in (
                lone if deep is None else lone + [deep])]
        if deep is not None:
            assert sols[-1].depth == 2 * _START_DEPTH
        assert (res.k1, res.k2) == (rows[0].k1, rows[0].k2)
        for sol in sols:
            want = backward_coefficients(sol.sigma_star, sol.k1, sol.k2, par,
                                         sol.depth)
            assert np.array_equal(sol.c.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("depth", [0, -3, 1, 2.5, 2.0, True, "64", None])
@pytest.mark.parametrize("call", [
    lambda d: cf_residual(0.11, 1, 1, CANON, depth=d),
    lambda d: backward_coefficients(SIGMA_CANON, 1, 1, CANON, depth=d),
    lambda d: dense_sigma_star(1, 1, CANON, depth=d),
], ids=["cf_residual", "backward_coefficients", "dense_sigma_star"])
def test_depth_must_be_an_integer_of_at_least_2(call, depth):
    with pytest.raises(ValueError, match="depth must be an integer >= 2"):
        call(depth)
    call(2)
    call(np.int64(64))


class TestOptimize:
    def test_small_box_consistency(self):
        par = PhysParams(eps_kappa=0.02)
        res = optimize_growth(par, box=8)
        assert res.sigma_star >= res.lb_max
        assert res.table.dtype.names == ("k1", "k2", "sigma_star", "depth",
                                         "residual")
        assert res.table[0][2] == res.sigma_star
        # frozen: sigma argmax (4,3), certified-bound argmax (2,3)
        assert (res.k1, res.k2) == (4, 3)
        assert res.lb_argmax == (2, 3)
        assert res.solution.bracket[0] == closed_form_bounds(res.k1, res.k2, par)[0]

    def test_box_counts_every_unstable_mode(self):
        # all 256 modes of [1,16]^2 are unstable without dissipation, by the
        # dense oracle; every one must be tabulated with the oracle's rate
        par = PhysParams()
        res = optimize_growth(par, box=16)
        oracle = {(k1, k2): dense_sigma_star(k1, k2, par, depth=128)
                  for k1 in range(1, 17) for k2 in range(1, 17)}
        assert sum(s > 0.0 for s in oracle.values()) == 256
        assert len(res.table) == 256
        for k1, k2, sigma, _, _ in res.table:
            assert abs(sigma - oracle[k1, k2]) < 1e-9 * oracle[k1, k2]

    def test_continuum_prediction(self):
        k1, k2 = continuum_optimum(PhysParams(eps_kappa=0.01))
        assert k1 == pytest.approx(6.25)
        assert k2 == pytest.approx(math.sqrt(1.0 / 0.08))

    def test_no_unstable_modes(self):
        with pytest.raises(NoRootError):
            optimize_growth(PhysParams(eps_kappa=10.0), box=4)

    @pytest.mark.parametrize("box", [0, 32768])
    def test_box_outside_table_range_rejected(self, box):
        # table records store k1 and k2 as int16
        with pytest.raises(ValueError, match="box must be in"):
            optimize_growth(PhysParams(), box=box)

    @pytest.mark.parametrize("box", [True, 2.5, 3.0])
    def test_box_must_be_an_integer(self, box):
        with pytest.raises(ValueError, match="box must be a positive integer"):
            optimize_growth(PhysParams(), box=box)

    @pytest.mark.parametrize("eps, gamma, m", [(0.01, 1.0, 1), (0.005, 0.5, 2)])
    def test_box_matches_single_mode_solves(self, eps, gamma, m):
        # a box of 144 modes gives each bracket its interpolated point and a
        # few uniform ones per round, a lone mode about _LANES points; both
        # must find the same unstable modes at the same depths
        par = PhysParams(m=m, eps_kappa=eps, gamma=gamma)
        res = optimize_growth(par, box=12)
        single = {}
        for k1 in range(1, 13):
            for k2 in range(1, 13):
                try:
                    single[k1, k2] = solve_sigma_star(k1, k2, par)
                except NoRootError:
                    pass
        assert single and {(k1, k2) for k1, k2, *_ in res.table} == set(single)
        for k1, k2, sigma, depth, residual in res.table:
            sol = single[k1, k2]
            assert depth == sol.depth, (k1, k2)
            assert abs(sigma - sol.sigma_star) <= 8 * np.spacing(sol.sigma_star)
            assert residual < 1e-12

    def test_one_lane_batch_matches_many_lane_solves(self):
        # 552 of these 576 modes are unstable, so every bracket gets its
        # interpolated point alone until fewer than _LANES // 2 are left;
        # a lone mode's bracket gets _LANES points a round.  The sample
        # includes every unstable mode with lower bound <= 0, and modes
        # whose left end is off the principal branch.
        par = PhysParams(m=2, eps_kappa=0.02, gamma=0.5)
        res = optimize_growth(par, box=24)
        assert len(res.table) > _LANES // 2
        rows = {(int(k1), int(k2)): (s, d) for k1, k2, s, d, _ in res.table}
        low = [k for k in rows if closed_form_bounds(*k, par)[0] <= 0.0]
        assert len(low) >= 10
        off = 0
        sample = low + list(rows)[::25]
        for k1, k2 in sample:
            sol = solve_sigma_star(k1, k2, par)
            sigma, depth = rows[k1, k2]
            assert depth == sol.depth, (k1, k2)
            assert abs(sigma - sol.sigma_star) <= 8 * np.spacing(sol.sigma_star)
            left = max(sol.bracket[0] * (1 - 1e-9), sol.bracket[1] * 1e-9)
            off += np.isnan(_cf_residuals(np.array([[left]]),
                                          *_weights(_START_DEPTH, k1, k2, par))[0, 0])
        assert off >= 10

    @pytest.mark.parametrize("box, most, rounds", [(32, 18, 13),
                                                   (16, 13, 11)])
    def test_box_needs_few_kernel_calls(self, monkeypatch, box, most, rounds):
        # one kernel call per round.  Splitting every bracket at uniform
        # points alone took 58 calls at box 32 (1024 brackets, 1 point
        # each) and 37 at box 16 (256 brackets, 2 points each); with the
        # interpolated points it takes the rounds, one call for the
        # endpoints and one per 256-mode certify block.  At box 16 the
        # midpoint is also a uniform point, so a's outer neighbour must
        # skip it.  The batch counts the calls and rounds it makes.
        calls = []
        kernel = eigen._cf_residuals

        def counted(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(eigen, "_cf_residuals", counted)
        res = optimize_growth(PhysParams(eps_kappa=0.0), box=box)
        assert len(res.table) == box * box
        assert len(calls) <= most
        assert (res.kernel_calls, res.rounds) == (len(calls), rounds)

    def test_box_without_dissipation_weights_is_the_zero_weight_box(
            self, monkeypatch):
        # at eps_kappa = 0 the batch passes no weights e; passing explicit
        # zero weights instead gives the same table and best profile, bit
        # for bit, on a box whose roots are accepted at depths 64 to 512,
        # some by the 8-ulp residual scale
        par = PhysParams(n2=1e-3, eps_kappa=0.0)
        want = optimize_growth(par, box=16)
        passed = []

        def zeros(fn, at):
            def call(*args):
                args = list(args)
                passed.append(args[at] is None)
                if args[at] is None:
                    args[at] = np.zeros_like(args[at - 1])
                return fn(*args)
            return call

        monkeypatch.setattr(eigen, "_multisect", zeros(eigen._multisect, 1))
        monkeypatch.setattr(eigen, "_certify", zeros(eigen._certify, 2))
        got = optimize_growth(par, box=16)
        assert passed and all(passed)
        assert len(set(want.table["depth"])) == 4
        assert want.table["residual"].max() >= 1e-12
        assert got.table.tobytes() == want.table.tobytes()
        assert got.solution.c.tobytes() == want.solution.c.tobytes()
        assert (got.kernel_calls, got.rounds) == (want.kernel_calls,
                                                  want.rounds)

    @pytest.mark.parametrize("eps", [0.01, 0.005, 0.0025, 0.00125])
    def test_box_optimum_meets_continuum_growth_bound(self, eps):
        # sigma >= 1/(2^8 eps_kappa) - 8 m^2 eps_kappa near k1 = 1/(16 eps_kappa)
        # (Friedlander, Rusin & Vicol 2012), on a box half again as wide
        par = PhysParams(eps_kappa=eps)
        box = math.ceil(1.5 * continuum_optimum(par)[0]) + 2
        res = optimize_growth(par, box=box)
        assert res.sigma_star >= 1.0 / (2 ** 8 * eps) - 8 * par.m ** 2 * eps
        assert 1 < res.k1 < box and 1 < res.k2 < box


class TestSweep:
    def test_nondiffusive_diverges(self):
        res = illposedness_sweep("nondiffusive", CANON, 2, 10)
        assert res.verdict == "diverging"
        for row in res.rows:
            assert row.k1 == row.j ** 2 and row.k2 == row.j
            assert row.certified
            assert row.sigma_star >= row.j / 26.0
        rates = [r.sigma_star for r in res.rows]
        assert rates == sorted(rates)

    def test_half_laplacian_below_threshold_diverges(self):
        res = illposedness_sweep(
            "fractional", PhysParams(eps_kappa=0.02, gamma=0.5), 2, 10)
        assert res.verdict == "diverging"
        for row in res.rows:
            assert row.sigma_star >= row.bound > 0.0

    def test_half_laplacian_above_threshold_terminates(self):
        assert 0.1 > HALF_LAPLACIAN_THRESHOLD
        res = illposedness_sweep(
            "fractional", PhysParams(eps_kappa=0.1, gamma=0.5), 2, 10)
        assert res.verdict == "terminated"
        assert "non-positive" in res.reason
        # the certificate failed, but the computed rates are still reported
        assert all(r.sigma_star is not None for r in res.rows)
        assert all(not r.certified for r in res.rows)

    def test_strong_dissipation_terminates_at_finite_j(self):
        res = illposedness_sweep(
            "fractional", PhysParams(eps_kappa=0.02, gamma=0.75), 2, 12)
        assert res.verdict == "terminated"
        found = [r.j for r in res.rows if r.sigma_star is not None]
        missing = [r.j for r in res.rows if r.sigma_star is None]
        assert found and missing, "expected growth at small j, none at large j"
        assert max(found) < min(missing) or min(missing) > res.j_min

    def test_small_gamma_diverges(self):
        res = illposedness_sweep(
            "fractional", PhysParams(eps_kappa=0.01, gamma=0.25), 2, 8)
        assert res.verdict == "diverging"

    @pytest.mark.parametrize("eps, gamma", [(0.02, 0.75), (0.05, 1.0)])
    def test_rows_match_single_mode_solves(self, eps, gamma):
        # both kinds of NoRootError note appear: no sign change in the
        # bracket, and certified stable (upper bound <= 0)
        par = PhysParams(eps_kappa=eps, gamma=gamma)
        res = illposedness_sweep("fractional", par, 2, 12)
        for row in res.rows:
            try:
                sol = solve_sigma_star(row.k1, row.k2, par)
            except NoRootError as exc:
                assert row.sigma_star is None and row.note == str(exc)
                continue
            assert row.note == ""
            assert abs(row.sigma_star - sol.sigma_star) <= 8 * np.spacing(
                sol.sigma_star)

    def test_j_min_defaults_to_2m(self):
        res = illposedness_sweep("nondiffusive", PhysParams(m=2), j_max=6)
        assert res.j_min == 4
        assert [r.j for r in res.rows] == [4, 5, 6]

    @pytest.mark.parametrize("j_min, j_max", [(2.5, 6), (2, 5.5), (True, 4),
                                              (2, 4.0)])
    def test_family_range_must_be_integers(self, j_min, j_max):
        with pytest.raises(ValueError, match="j_m.. must be a positive integer"):
            illposedness_sweep("nondiffusive", CANON, j_min, j_max)

    def test_regime_validation(self):
        with pytest.raises(ValueError):
            illposedness_sweep("nondiffusive", PhysParams(eps_kappa=0.1), 2, 4)
        with pytest.raises(ValueError):
            illposedness_sweep("fractional", PhysParams(), 2, 4)
        with pytest.raises(ValueError):
            illposedness_sweep("bogus", PhysParams(), 2, 4)
        with pytest.raises(ValueError):
            illposedness_sweep("nondiffusive", PhysParams(m=3), 2, 8)


@given(
    k1=st.integers(1, 8),
    k2=st.integers(1, 8),
    eps=st.floats(0.0, 0.02),
)
@example(k1=1, k2=7, eps=0.01)
@settings(max_examples=30, deadline=None)
def test_root_properties(k1, k2, eps):
    par = PhysParams(eps_kappa=eps)
    try:
        sol = solve_sigma_star(k1, k2, par)
    except NoRootError:
        # a mode reported stable must be stable by the independent oracle
        assert dense_sigma_star(k1, k2, par, depth=128) <= 0.0
        return
    assert sol.sigma_star > 0.0
    assert sol.residual < 1e-12
    assert sol.c[0] == alpha(1, k1, k2, par)
    ref = dense_sigma_star(k1, k2, par, depth=sol.depth)
    assert abs(sol.sigma_star - ref) < 1e-9


@given(
    k1=st.integers(1, 24),
    k2=st.integers(1, 24),
    eps=st.floats(0.0, 0.02),
    gamma=st.sampled_from([0.25, 0.5, 0.75, 1.0]),
    m=st.sampled_from([1, 2, 3]),
    depth=st.sampled_from([64, 128]),
)
@settings(max_examples=60, deadline=None)
def test_residual_changes_sign_at_most_once(k1, k2, eps, gamma, m, depth):
    # the premise of bisecting the bracket directly: the off-branch points
    # (counted negative) form a left interval, the residual is
    # non-decreasing to their right, so it changes sign at most once
    par = PhysParams(m=m, eps_kappa=eps, gamma=gamma)
    upper = closed_form_bounds(k1, k2, par)[1]
    U = 1.5 * max(abs(upper), sigma_bracket(k1, k2, par)[1])

    # one call of the batch kernel; off-branch points come back as NaN
    vals = _cf_residuals(np.linspace(-U, U, 512)[None, :],
                         *_weights(depth, k1, k2, par))[0]
    off = np.isnan(vals)
    n_off = int(off.sum())
    assert not off[n_off:].any(), "off-branch points are not a left interval"
    assert (np.diff(vals[n_off:]) >= 0.0).all(), "residual decreases on the branch"
    neg = off | (vals < 0.0)
    assert not neg[-1], "window stops short of the root"
    assert np.count_nonzero(np.diff(neg)) <= 1


@given(
    k1=st.integers(1, 24),
    k2=st.integers(1, 24),
    eps=st.sampled_from([0.0, 0.005, 0.02]),
    gamma=st.sampled_from([0.25, 0.5, 1.0]),
    n2=st.sampled_from([0.3, 1.0, 2.0]),
    m=st.sampled_from([1, 2, 3]),
)
@example(k1=1, k2=100, eps=0.0, gamma=1.0, n2=0.3, m=1)  # doubles, rule (i)
@example(k1=2, k2=130, eps=0.0, gamma=1.0, n2=1.0, m=1)  # doubles, rule (ii)
@example(k1=1, k2=7, eps=0.0, gamma=1.0, n2=1.0, m=1)
@example(k1=3, k2=20, eps=0.005, gamma=1.0, n2=2.0, m=2)  # 10 ulps apart
@example(k1=15, k2=9, eps=0.005, gamma=1.0, n2=0.3, m=2)  # 81 ulps apart
@example(k1=20, k2=3, eps=0.005, gamma=1.0, n2=1.0, m=1)  # 54 ulps apart
@settings(max_examples=40, deadline=None)
def test_accepted_root_is_within_1e_12_below_the_untruncated_root(
        k1, k2, eps, gamma, n2, m):
    # the truncation certificate: sigma*_P <= sigma*_inf <= sigma*_P + 1e-12
    # at the accepted depth P, with the oracle at depth 4P standing in for
    # sigma*_inf.  Both solvers round row 1 in absolute terms, about
    # eps (|sigma*| + e_1) each, so the slack is that on top of a few ulps.
    par = PhysParams(n2=n2, m=m, eps_kappa=eps, gamma=gamma)
    try:
        sol = solve_sigma_star(k1, k2, par)
    except NoRootError:
        assert dense_sigma_star(k1, k2, par, 4 * _START_DEPTH) <= 0.0
        return
    top = dense_sigma_star(k1, k2, par, 4 * sol.depth)
    e1 = _weights(1, k1, k2, par)[1][0, 0]
    slack = (4 * np.spacing(sol.sigma_star)
             + 4 * np.finfo(float).eps * (abs(sol.sigma_star) + e1))
    assert sol.sigma_star - slack <= top <= sol.sigma_star + 1e-12 + slack


@pytest.mark.parametrize("call, match", [
    (lambda: illposedness_sweep("nondiffusive", CANON, j_min=4, j_max=3),
     "j_max must be >= j_min"),
    (lambda: continuum_optimum(CANON),
     "continuum optimum requires eps_kappa > 0"),
], ids=["sweep_j_max_below_j_min", "continuum_without_diffusion"])
def test_eigen_refuses_inputs_with_no_answer(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def _sweep_row(j, sigma, certified=True):
    return SweepRow(j=j, k1=j * j, k2=j, sigma_star=sigma, bound=0.1,
                    certified=certified)


@pytest.mark.parametrize("rows, reason", [
    ([_sweep_row(2, None, False), _sweep_row(3, 0.5)],
     "no unstable mode at j = 2"),
    ([_sweep_row(2, 0.5), _sweep_row(3, 0.05, False)],
     "computed rate below certified bound at j = 3"),
    ([_sweep_row(2, 0.5), _sweep_row(3, 0.4)],
     "rates are not increasing across the range"),
], ids=["no_root", "below_bound", "not_increasing"])
def test_sweep_verdict_terminates_on_each_failed_check(rows, reason):
    # every bound is positive, so each case reaches a check after the bound's
    assert _sweep_verdict(rows, CANON) == ("terminated", reason)
