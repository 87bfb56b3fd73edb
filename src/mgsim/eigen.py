"""Unstable eigenvalues of the scalar linearized about a steady vertical profile.

Linearizing the active scalar equation about the steady state
Theta0 = sin(m x3) (maintained by its matching source) couples, for fixed
horizontal numbers (k1, k2), the vertical modes sin(m p x3), p = 1, 2, ....
Seeking a growing separable solution

    theta = exp(sigma t) sin(k1 x1) sin(k2 x2) sum_p c_p sin(m p x3)

turns the eigenvalue problem into a three-term recursion

    sigma_p c_p + c_{p+1} / alpha_{p+1} + c_{p-1} / alpha_{p-1} = 0   (p >= 2)
    sigma_1 c_1 + c_2 / alpha_2 = 0,

where sigma_p = sigma + eps_kappa (k1^2 + k2^2 + (m p)^2)^gamma shifts the
rate by the dissipation of each vertical mode, and the interaction weights

    2 / alpha_p = m N^2 k2^2 (k1^2 + k2^2)
                  / (N^4 (m p)^2 (k1^2 + k2^2 + (m p)^2) + k2^4)

are m times the vertical multiplier component at (k1, k2, m p): 1/alpha_p is
(m/2) M3(k1, k2, m p).  In the normalized variables d_p = c_p / alpha_p,
x_p = sigma_p alpha_p the recursion is symmetric,
x_p d_p + d_{p+1} + d_{p-1} = 0, and the decaying (minimal) solution exists
exactly when sigma solves the continued-fraction equation

    x_1 = 1 / (x_2 - 1 / (x_3 - 1 / (x_4 - ... ))).

`cf_residual` evaluates the truncated residual of that equation,
`solve_sigma_star` multisects its principal root on the certified bracket
1/alpha_2 - e_2 <= sigma* <= 2/alpha_1 - e_1 (`closed_form_bounds`), and
`dense_sigma_star` cross-checks it independently as the top eigenvalue of
the same truncation written as a symmetric tridiagonal matrix.
All positive roots are simple and real: conjugating by the alternating sign
pattern makes the recursion matrix symmetric with positive off-diagonal,
so the principal branch carries a Perron-type largest eigenvalue.  The
tails T_p are ratios of the minimal solution, d_p / d_{p-1} = -1/T_p
(Gautschi 1967), so the profile (`backward_coefficients`) is a running
product of the tails the residual walks: the only recurrence evaluated.

Each truncation certifies itself.  Only sigma > 0 is solved, and there
x_p = (sigma + e_p) alpha_p increases with p (alpha_p grows like p^4, e_p
is non-decreasing).  If x_{P+1}(sigma) >= 2, every x_p beyond the cut is
at least 2, so every tail of the infinite fraction beyond P is at least 1
(the Sleszynski-Pringsheim condition; Jones & Thron 1980): T_{P+1} >=
x_{P+1} - 1, and the exact closing tail T_P lies in
[x_P - 1/(x_{P+1} - 1), x_P).  The residual increases with each tail, so
the infinite residual lies between F_P, the depth-P residual, and G_P, the
depth-(P+1) residual with its closing tail x_{P+1} lowered by 1.  Hence
sigma*_P <= sigma*, and if also G_P >= 0 at s = sigma*_P + 1e-12, then
sigma* <= s.  A root is accepted at the first depth P where this holds
and its profile has decayed, |c_P| <= _COEFF_CUTOFF |c_1|.

The residual changes sign at most once on any sigma interval, so a bracket
with a negative and a non-negative endpoint cannot lose the root.  Each
x_p grows with sigma (alpha_p > 0), so by induction from T_depth = x_depth
every tail T_p = x_p - 1/T_{p+1} grows with sigma wherever T_{p+1} > 0, and
so does the residual x_1 - 1/T_2.  The principal branch (all tails above a
small positive floor) is therefore a right half-line on which the residual
increases; counting the off-branch points to its left as negative leaves a
single possible sign change.  Rounding keeps this: each step is a monotone
floating-point operation, so the computed residual is non-decreasing too.

One kernel serves every caller: `_cf_residuals` walks the tails once over p
for a (modes x sigma-points) array, and `_Batch` drives all modes in
lockstep, giving each bracket still wider than _WIDTH_ULPS ulps an
interpolated point and max(1, _LANES // n) - 1 uniform points per round (a
box evaluates one point per mode, a lone mode _LANES); the public
single-mode functions are batches of one (README, "Numerical notes").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateTailError,
    InvariantError,
    NoRootError,
    RecurrenceOverflowError,
    TruncationError,
)
from .fields import SpectralField
from .symbol import PhysParams, _denominator, _validate_mode

# Tail values at or below this are treated as off the principal branch.
_TAIL_FLOOR = 1e-13

# Multisection stops when the bracket width is this many ulps of the endpoint.
_WIDTH_ULPS = 8.0

# Sigma points per multisection round, shared by the modes still bracketing
# their root; a round costs about the same at any size below a few hundred.
_LANES = 512

# Truncation depth where every solve starts; a mode whose truncation is not
# certified there (module docstring) doubles it, up to _MAX_DEPTH.
_START_DEPTH = 64
_MAX_DEPTH = 1024

_COEFF_CUTOFF = 1e-14  # vertical modes below this (with c_1 = alpha_1) are dropped

# Accepted roots are certified this many modes at a time, which bounds the
# memory of their tails and profiles.
_CERTIFY_BLOCK = 256


def _weights(P: int, k1s, k2s, params: PhysParams) -> tuple[np.ndarray, np.ndarray]:
    """(alpha_p, e_p) of `alpha` and `sigma_shifted` for p = 1..P, per mode.

    (modes x P) arrays, stored p-major so `_cf_residuals` reads each p
    contiguously; real-valued k1, k2 are accepted.
    """
    n2, m = params.n2, params.m
    k1 = np.asarray(k1s, dtype=np.float64).reshape(1, -1)
    k2 = np.asarray(k2s, dtype=np.float64).reshape(1, -1)
    mp = m * np.arange(1, P + 1, dtype=np.float64)[:, None]
    ksq, a = _denominator(k1, k2, mp, n2)  # |k|^2 and D at (k1, k2, m p)
    a *= 2.0
    a /= m * n2 * (k2 * k2) * (k1 * k1 + k2 * k2)
    if params.eps_kappa == 0.0:
        return a.T, np.zeros_like(a.T)
    return a.T, (params.eps_kappa * ksq ** params.gamma).T


def alpha(p: int, k1: int, k2: int, params: PhysParams) -> float:
    """Interaction weight alpha_p > 0 of the vertical mode p.

    alpha_p = 2 (N^4 (mp)^2 (k1^2 + k2^2 + (mp)^2) + k2^4)
              / (m N^2 k2^2 (k1^2 + k2^2)),  growing like p^4.
    """
    _validate_mode(k1=k1, k2=k2, p=p)
    return float(_weights(p, k1, k2, params)[0][0, -1])


def sigma_shifted(sigma: float, p: int, k1: int, k2: int, params: PhysParams) -> float:
    """Dissipation-shifted rate sigma_p = sigma + eps_kappa |k_p|^(2 gamma)."""
    _validate_mode(k1=k1, k2=k2, p=p)
    return sigma + float(_weights(p, k1, k2, params)[1][0, -1])


def _cf_residuals(sigma: np.ndarray, a: np.ndarray, e: np.ndarray,
                  tails: np.ndarray | None = None,
                  close: float = 0.0) -> np.ndarray:
    """Truncated residual x_1 - 1/T_2 at every (mode, sigma) point.

    sigma is (modes x points), a and e the (modes x P) weights.  Walks the
    tail T_P = x_P - close, T_p = x_p - 1/T_{p+1}, x_p = (sigma + e_p) alpha_p,
    once over p in the scalar operation order; points whose tails are not all
    above _TAIL_FLOOR are off the principal branch and get NaN.  Given one
    point per mode, `tails` (modes x P) receives T_2..T_P in columns 1..P-1.
    """
    P = a.shape[1]
    T = (sigma + e[:, P - 1:]) * a[:, P - 1:] - close
    low = T.copy()
    if tails is not None:
        tails[:, P - 1:] = T
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for p in range(P - 2, 0, -1):
            T = (sigma + e[:, p:p + 1]) * a[:, p:p + 1] - 1.0 / T
            np.minimum(low, T, out=low)
            if tails is not None:
                tails[:, p:p + 1] = T
        r = (sigma + e[:, :1]) * a[:, :1] - 1.0 / T
    r[~(low > _TAIL_FLOOR)] = np.nan
    return r


def cf_residual(sigma: float, k1: int, k2: int, params: PhysParams,
                depth: int = _START_DEPTH) -> float:
    """Residual F(sigma) = x_1 - 1/(x_2 - 1/(x_3 - ...)) truncated at `depth`.

    The truncation closes the fraction with tail T_depth = x_depth, which is
    the same as imposing c_{depth+1} = 0.  A root of F is an eigenvalue of
    the truncated problem; roots converge superexponentially in depth.

    Raises
    ------
    DegenerateTailError
        If any partial tail T_p drops to or below a small positive floor,
        meaning sigma lies off the principal (all-tails-positive) branch.
    """
    _validate_mode(depth, k1=k1, k2=k2)
    r = _cf_residuals(np.array([[sigma]], dtype=np.float64),
                      *_weights(depth, k1, k2, params))[0, 0]
    if math.isnan(r):
        raise DegenerateTailError(f"a tail is non-positive at sigma={sigma}")
    return float(r)


def sigma_bracket(k1: int, k2: int, params: PhysParams) -> tuple[float, float]:
    """Roots lo, hi of (sigma + e_1)(sigma + e_2) = c for c = 1, 2 / (alpha_1 alpha_2).

    The product identity lo <= sigma* <= hi holds at (1,1) but not in
    general: when k2 is large next to k1 the alpha_p are nearly flat in p
    and sigma* lies above `hi`.  This is neither a bracket nor a stability
    certificate; `solve_sigma_star` uses `closed_form_bounds`.
    """
    _validate_mode(k1=k1, k2=k2)
    (a,), (e,) = _weights(2, k1, k2, params)
    prod = a[0] * a[1]
    s, d = e[0] + e[1], e[0] - e[1]
    lo = 0.5 * (-s + math.sqrt(d * d + 4.0 / prod))
    hi = 0.5 * (-s + math.sqrt(d * d + 8.0 / prod))
    return lo, hi


def _closed_form_bounds(k1s, k2s, params: PhysParams) -> tuple[np.ndarray, np.ndarray]:
    """`closed_form_bounds` of each mode, as arrays (lower, upper)."""
    a, e = _weights(2, k1s, k2s, params)
    return 1.0 / a[:, 1] - e[:, 1], 2.0 / a[:, 0] - e[:, 0]


def closed_form_bounds(k1: int, k2: int, params: PhysParams) -> tuple[float, float]:
    """Certified closed-form bounds 1/alpha_2 - e_2 <= sigma* <= 2/alpha_1 - e_1.

    The lower form is the quantity whose lattice supremum drives the
    optimal-growth estimate; either side may be negative, in which case it
    carries no information (lower) or certifies stability (upper).
    """
    _validate_mode(k1=k1, k2=k2)
    (lower,), (upper,) = _closed_form_bounds(k1, k2, params)
    return float(lower), float(upper)


def dense_sigma_star(k1: int, k2: int, params: PhysParams,
                     depth: int = _START_DEPTH) -> float:
    """Largest eigenvalue of the truncated recursion, by a matrix eigensolver.

    Writing the truncated recursion (c_{P+1} = 0) in d_p = c_p / alpha_p
    gives sigma diag(alpha_p) d = -(T1 + diag(e_p alpha_p)) d, T1 the
    tridiagonal matrix of ones.  In y_p = alpha_p^(1/2) d_p this is the
    symmetric tridiagonal chain with diagonal -e_p and off-diagonal
    -1/sqrt(alpha_p alpha_{p+1}), whose top eigenvalue (non-positive for
    stable modes) LAPACK bisects to rounding independently of the continued
    fraction (its default tolerance, eps times the chain's 1-norm, is not).
    """
    import scipy.linalg  # only the oracle needs it, and it is slow to import
    _validate_mode(depth, k1=k1, k2=k2)
    (a,), (e,) = _weights(depth, k1, k2, params)
    return float(scipy.linalg.eigh_tridiagonal(
        -e, -1.0 / np.sqrt(a[:-1] * a[1:]), eigvals_only=True,
        select="i", select_range=(depth - 1, depth - 1),
        tol=2 * np.finfo(float).tiny)[0])


def _require(ok: np.ndarray, k1s, k2s, error: type, what) -> None:
    """Raise `error`, worded by `what(i)`, for the first mode i not `ok`."""
    if not ok.all():
        i = int(np.argmin(ok))
        raise error(f"{what(i)} for mode ({k1s[i]},{k2s[i]})")


def _walk(sigma: np.ndarray, a: np.ndarray, e: np.ndarray,
          k1s, k2s) -> tuple[np.ndarray, np.ndarray]:
    """|Residual| and profile (modes x P) of each mode at its sigma, from one
    walk of the tails: c_p = alpha_p d_p, d_1 = 1, d_p = d_{p-1} (-1/T_p)."""
    c = np.empty_like(a)
    r = _cf_residuals(sigma[:, None], a, e, c)[:, 0]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(-1.0, c[:, 1:], out=c[:, 1:])
        c[:, 0] = 1.0
        np.cumprod(c, axis=1, out=c)
    c *= a  # c_1 = alpha_1 exactly
    _require(np.isfinite(c).all(axis=1), k1s, k2s, RecurrenceOverflowError,
             lambda i: "coefficient profile is not finite")
    return np.abs(r), c


def backward_coefficients(sigma: float, k1: int, k2: int, params: PhysParams,
                          depth: int = _START_DEPTH) -> np.ndarray:
    """Minimal-solution coefficients c_1..c_depth at an eigenvalue sigma.

    Row p of the recursion gives d_p / d_{p-1} = -1/T_p for the tails T_p
    of the continued fraction, so the profile is their running product,
    normalized to c_1 = alpha_1; the deep tail underflows to exact zeros.

    Returns an array of length `depth` (index 0 corresponds to p = 1).

    Raises
    ------
    RecurrenceOverflowError
        If a tail vanishes or the product overflows.
    """
    _validate_mode(depth, k1=k1, k2=k2)
    a, e = _weights(depth, k1, k2, params)
    return _walk(np.array([sigma], dtype=np.float64), a, e, [k1], [k2])[1][0]


@dataclass(frozen=True)
class EigenSolution:
    """A computed unstable eigenvalue with its vertical mode profile.

    Attributes
    ----------
    k1, k2 : int
        Horizontal mode pair of the separable ansatz.
    params : PhysParams
    sigma_star : float
        Largest positive root of the truncated continued-fraction equation.
    depth : int
        The first depth whose truncation is certified.
    c : ndarray
        Coefficients c_1..c_depth (index 0 <-> p = 1), normalized to
        c_1 = alpha_1; signs alternate and the tail decays superexponentially.
    residual : float
        |cf_residual(sigma_star)| at the accepted depth.
    bracket : (float, float)
        Closed-form bounds (1/alpha_2 - e_2, 2/alpha_1 - e_1) multisected in.
    """

    k1: int
    k2: int
    params: PhysParams
    sigma_star: float
    depth: int
    c: np.ndarray = field(repr=False)
    residual: float
    bracket: tuple[float, float]


def _multisect(a: np.ndarray, e: np.ndarray,
               lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Principal root of each mode's residual g at depth P in [lo, hi], lo > 0,
    for (modes x P) weights a, e.

    NaN for a mode without g(lo) < 0 <= g(hi); off-branch points count as
    -1, so g changes sign at most once (module docstring).  Each round
    evaluates every bracket wider than _WIDTH_ULPS ulps at its point x and
    max(1, _LANES // n) - 1 uniform points (n brackets, one kernel call),
    keeps the first sign change, and takes the next x from Chandrupatla's
    (1997) safeguarded inverse-quadratic step (README, "Numerical notes").
    A guarded secant step polishes each final bracket.
    """
    fa, fb = np.nan_to_num(_cf_residuals(np.stack([lo, hi], axis=1), a, e),
                           nan=-1.0).T.copy()
    lo, hi = lo.copy(), hi.copy()
    ok = (fa < 0.0) & (0.0 <= fb)
    act = np.arange(lo.size)
    x, w2 = 0.5 * (lo + hi), hi - lo  # next point; width two rounds back
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(256):  # <= 3 rounds a halving, < 80 if lo >= 1e-9 hi
            l, h = lo[act], hi[act]
            wide = ok[act] & (h - l > _WIDTH_ULPS * np.spacing(h))
            if not wide.all():
                act, l, h, x, w2 = act[wide], l[wide], h[wide], x[wide], w2[wide]
                a = a[wide]  # one array at a time, to bound memory
                e = e[wide]
            if act.size == 0:
                break
            k = max(1, _LANES // act.size)
            xs = np.sort(np.column_stack([x, np.linspace(l, h, k + 1, axis=1)]), 1)
            g = np.nan_to_num(_cf_residuals(xs[:, 1:-1], a, e), nan=-1.0)
            gs = np.column_stack([fa[act], g, fb[act]])
            j = np.argmax(gs[:, 1:] >= 0.0, axis=1) + 1  # gs[:, -1] = g(hi) >= 0
            r = np.arange(act.size)
            w2, halved = h - l, xs[r, j] - xs[r, j - 1] <= 0.5 * w2
            lo[act], hi[act] = l, h = xs[r, j - 1], xs[r, j]
            fa[act], fb[act] = gl, gh = gs[r, j - 1], gs[r, j]
            left = (j > 1) & ((j > k) | (np.abs(gl) < np.abs(gh)))  # a is lo
            xa, xb, ga, gb = np.where(left, [l, h, gl, gh], [h, l, gh, gl])
            c = np.clip(np.where(left, (xs < xa[:, None]).sum(1) - 1,
                                 (xs <= xa[:, None]).sum(1)), 0, k + 1)
            xc, gc = xs[r, c], gs[r, c]  # a's nearest distinct outer neighbour
            xi, phi = (xa - xb) / (xc - xb), (ga - gb) / (gc - gb)
            t = (ga / (gb - ga) * gc / (gb - gc)
                 + (xc - xa) / (xb - xa) * ga / (gc - ga) * gb / (gc - gb))
            iqi = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi) & halved
            t_lim = np.minimum(0.5, 4.0 * np.spacing(h) / (h - l))
            x = xa + np.clip(np.where(iqi, t, 0.5), t_lim, 1 - t_lim) * (xb - xa)
        s = hi - fb * (hi - lo) / (fb - fa)
    sigma = np.where((fb != fa) & (lo <= s) & (s <= hi), s, 0.5 * (lo + hi))
    sigma[~ok] = np.nan
    return sigma


def _truncation_certified(sigma: np.ndarray, a: np.ndarray,
                          e: np.ndarray) -> np.ndarray:
    """Whether each mode's untruncated root lies in [sigma, sigma + 1e-12],
    for its root sigma at depth P and (modes x P+1) weights (module docstring)."""
    s = sigma[:, None] + 1e-12
    return (((s + e[:, -1:]) * a[:, -1:] >= 2.0)
            & (_cf_residuals(s, a, e, close=1.0) >= 0.0))[:, 0]


def _certify(sigma: np.ndarray, a: np.ndarray, e: np.ndarray,
             k1s: np.ndarray, k2s: np.ndarray) -> tuple[np.ndarray, ...]:
    """Acceptance residual and profile decay (|c_P| <= _COEFF_CUTOFF |c_1|)
    of roots at depth P, for (modes x P) weights a, e, from one walk of the
    tails; InvariantError names the first mode whose residual is above both
    1e-12 and g(sigma + 4 ulps) - g(sigma - 4 ulps).  The profile is the
    running product of the tails the residual walks, so the recursion rows
    hold by construction; the oracle's eigenvector checks it independently
    (tests).
    """
    r, c = _walk(sigma, a, e, k1s, k2s)
    ok = r < 1e-12
    if not ok.all():  # the 8-ulp scale costs a kernel call: only if needed
        s = sigma[~ok, None] + np.spacing(sigma[~ok, None]) * [-4.0, 4.0]
        ok[~ok] = r[~ok] <= np.diff(_cf_residuals(s, a[~ok], e[~ok]))[:, 0]
    _require(ok, k1s, k2s, InvariantError, lambda i: (
        f"root has residual {r[i]:.3g} >= 1e-12 and > its change over 8 ulps"))
    return r, np.abs(c[:, -1]) <= _COEFF_CUTOFF * np.abs(c[:, 0])


class _Batch:
    """Principal roots of a batch of modes, solved in lockstep.

    Every mode with a positive upper bound is multisected once at
    `_START_DEPTH` and accepted there when its truncation is certified
    and its profile has decayed (module docstring); only the other modes
    are solved again at doubled depth, up to `_MAX_DEPTH`.  Per mode this
    keeps sigma (NaN without a root), the accepted depth and the acceptance
    residual; the first mode that fails the residual check of `_certify`
    raises InvariantError.
    """

    def __init__(self, k1s, k2s, params: PhysParams):
        self.k1 = k1s = np.asarray(k1s, dtype=np.int64).ravel()
        self.k2 = k2s = np.asarray(k2s, dtype=np.int64).ravel()
        self.params = params
        self.lower, self.upper = _closed_form_bounds(k1s, k2s, params)
        # the interval multisected, slightly wider than the bounds
        self.left = np.maximum(self.lower * (1.0 - 1e-9), self.upper * 1e-9)
        self.right = self.upper * (1.0 + 1e-9)
        self.sigma, self.residual = np.full((2, k1s.size), np.nan)
        self.depth = np.zeros(k1s.size, dtype=np.int64)
        todo = np.flatnonzero(self.upper > 0.0)
        d = _START_DEPTH
        while todo.size:
            a, e = _weights(d + 1, k1s[todo], k2s[todo], params)
            sigma = _multisect(a[:, :d], e[:, :d],
                               self.left[todo], self.right[todo])
            ok = np.flatnonzero(_truncation_certified(sigma, a, e))
            for b in range(0, ok.size, _CERTIFY_BLOCK):
                i = ok[b:b + _CERTIFY_BLOCK]
                r, decayed = _certify(sigma[i], a[i, :d], e[i, :d],
                                      k1s[todo[i]], k2s[todo[i]])
                j = todo[i[decayed]]
                self.sigma[j], self.depth[j] = sigma[i[decayed]], d
                self.residual[j] = r[decayed]
            todo = todo[(self.depth[todo] != d) & ~np.isnan(sigma)]
            if todo.size and d >= _MAX_DEPTH:
                raise InvariantError(
                    f"root of mode ({k1s[todo[0]]},{k2s[todo[0]]}) not "
                    f"certified by depth {_MAX_DEPTH}")
            d *= 2

    def error(self, i: int) -> NoRootError:
        """Why mode i has no root."""
        k1, k2 = int(self.k1[i]), int(self.k2[i])
        lower, upper = float(self.lower[i]), float(self.upper[i])
        if upper <= 0.0:
            return NoRootError(
                f"mode ({k1},{k2}) is certified stable: upper bound "
                f"2/alpha_1 - e_1 = {upper:.6g} <= 0", lo=lower, hi=upper)
        lo, hi = float(self.left[i]), float(self.right[i])
        return NoRootError(
            f"no unstable root for mode ({k1},{k2}) in bracket "
            f"[{lo:.6g}, {hi:.6g}]", lo=lo, hi=hi)

    def solution(self, i: int) -> EigenSolution:
        """Mode i's root with its coefficient profile."""
        k1, k2, depth = int(self.k1[i]), int(self.k2[i]), int(self.depth[i])
        sigma = float(self.sigma[i])
        return EigenSolution(
            k1=k1, k2=k2, params=self.params, sigma_star=sigma, depth=depth,
            c=backward_coefficients(sigma, k1, k2, self.params, depth),
            residual=float(self.residual[i]),
            bracket=(float(self.lower[i]), float(self.upper[i])))


def solve_sigma_star(k1: int, k2: int, params: PhysParams) -> EigenSolution:
    """Largest unstable eigenvalue of a horizontal mode pair.

    Brackets the principal root with `closed_form_bounds` and multisects
    the truncated residual on the bracket to machine width; the residual
    changes sign at most once there, so a sign change at the endpoints is
    the root.  It is accepted at the first depth from `_START_DEPTH`, by
    doubling, whose truncation is certified within 1e-12 (module
    docstring), and gets its coefficient profile from
    `backward_coefficients`.  This is `optimize_growth`'s batch on one mode.

    Raises
    ------
    NoRootError
        If the upper bound 2/alpha_1 - e_1 certifies stability (<= 0) or
        the residual does not change sign on the admissible bracket.
    """
    _validate_mode(k1=k1, k2=k2)
    batch = _Batch(k1, k2, params)
    if math.isnan(batch.sigma[0]):
        raise batch.error(0)
    return batch.solution(0)


def assemble_eigenfunction(sol: EigenSolution, grid):
    """Realize an eigenmode solution as a spectral field on a grid.

    The separable profile

        sin(k1 x1) sin(k2 x2) sum_p c_p sin(m p x3)

    expands into eight complex exponentials per vertical index; the four
    stored representatives (k3 = m p > 0) carry coefficient
    (i/8) s1 s2 c_p for sign choices s1, s2 of the horizontal wavenumbers.

    Raises
    ------
    TruncationError
        If any vertical mode with |c_p| above the retention cutoff falls
        outside the grid's dealias band, i.e. the grid cannot hold the
        eigenfunction without visibly clipping it.
    """
    k1, k2, m = sol.k1, sol.k2, sol.params.m
    keep = np.nonzero(np.abs(sol.c) > _COEFF_CUTOFF)[0]
    ps = keep + 1
    b1, b2, b3 = grid.band
    p_max = int(ps.max()) if ps.size else 0
    if k1 > b1 or k2 > b2 or m * p_max > b3:
        raise TruncationError(
            f"eigenmode ({k1},{k2}) with vertical extent k3 = {m * p_max} "
            f"does not fit the dealias band {grid.band} of grid {grid.shape}"
        )
    f = SpectralField.zeros(grid)
    s1, s2 = np.array([[1], [1], [-1], [-1]]), np.array([[1], [-1], [1], [-1]])
    f.set_coeff(s1 * k1, s2 * k2, m * ps, 0.125j * (s1 * s2) * sol.c[keep])
    return f


@dataclass(frozen=True)
class SweepRow:
    """One entry of an ill-posedness sweep along the family k = (j^2, j)."""

    j: int
    k1: int
    k2: int
    sigma_star: float | None
    bound: float | None
    certified: bool
    note: str = ""


@dataclass(frozen=True)
class SweepResult:
    """Outcome of an ill-posedness sweep.

    verdict is 'diverging' when every j in range carries a positive
    certified lower bound that the computed rate meets, with the rates
    increasing overall; otherwise 'terminated', with `reason` naming the
    first failure (certificate non-positive, or no unstable mode).
    """

    regime: str
    params: PhysParams
    j_min: int
    j_max: int
    rows: list
    verdict: str
    reason: str


# Certified-growth threshold for the half-Laplacian regime: the j^2 display
# bound stays positive only for eps_kappa below this value.
HALF_LAPLACIAN_THRESHOLD = 1.0 / (26.0 * math.sqrt(3.0))


def _sweep_bound(j: int, params: PhysParams) -> float | None:
    """Displayed certified lower bound for sigma*_j along k = (j^2, j).

    nondiffusive:      j m N^2 / (24 N^4 m^2 + 2)
    gamma < 1/2:       j^(2 gamma) (j^(1 - 2 gamma) m N^2 / (24 N^4 m^2 + 2)
                                    - 3 eps_kappa)
    gamma = 1/2:       j^2 N^-2 (1/26 - sqrt(3) eps_kappa)
                       (constant calibrated to the m = N^2 = 1 family)
    gamma > 1/2:       None -- dissipation beats the certified growth at
                       large j and no divergence certificate exists.
    """
    n2, m, eps, gamma = params.n2, params.m, params.eps_kappa, params.gamma
    c = m * n2 / (24.0 * n2 * n2 * m * m + 2.0)
    if eps == 0.0:
        return j * c
    if gamma < 0.5:
        return j ** (2.0 * gamma) * (j ** (1.0 - 2.0 * gamma) * c - 3.0 * eps)
    if gamma == 0.5:
        return j * j / n2 * (1.0 / 26.0 - math.sqrt(3.0) * eps)
    return None


def illposedness_sweep(regime: str, params: PhysParams,
                       j_min: int | None = None,
                       j_max: int = 12) -> SweepResult:
    """Walk the unbounded-growth family k = (j^2, j) and certify divergence.

    Computes sigma*_j for each j (recording failures per j rather than
    aborting) alongside the regime's displayed lower bound, then delivers a
    verdict: 'diverging' when every j is certified (positive bound met by
    the computed rate, rates increasing), 'terminated' otherwise.  In the
    half-Laplacian case gamma = 1/2 the certificate changes sign at
    eps_kappa = 1/(26 sqrt(3)): below it the sweep certifies divergence,
    above it the sweep terminates even though unstable modes may well
    persist -- it is the certificate, not the instability, that is lost.

    Parameters
    ----------
    regime : {'nondiffusive', 'fractional'}
        'nondiffusive' requires eps_kappa = 0; 'fractional' requires
        eps_kappa > 0 (any gamma in (0, 1]).
    params : PhysParams
    j_min, j_max : int
        Range of the family parameter; j_min must be at least 2 m for the
        displayed constants to be valid, and defaults to 2 m.
    """
    if regime not in ("nondiffusive", "fractional"):
        raise ValueError(f"unknown regime {regime!r}")
    if regime == "nondiffusive" and params.eps_kappa != 0.0:
        raise ValueError("nondiffusive regime requires eps_kappa = 0")
    if regime == "fractional" and params.eps_kappa <= 0.0:
        raise ValueError("fractional regime requires eps_kappa > 0")
    if j_min is None:
        j_min = 2 * params.m
    _validate_mode(j_min=j_min, j_max=j_max)
    if j_min < 2 * params.m:
        raise ValueError(f"j_min must be >= 2 m = {2 * params.m}, got {j_min}")
    if j_max < j_min:
        raise ValueError("j_max must be >= j_min")

    js = np.arange(j_min, j_max + 1)
    batch = _Batch(js * js, js, params)
    rows = []
    for i, j in enumerate(range(j_min, j_max + 1)):
        bound = _sweep_bound(j, params)
        found = not math.isnan(batch.sigma[i])
        sigma = float(batch.sigma[i]) if found else None
        certified = (bound is not None and bound > 0.0
                     and sigma is not None and sigma >= bound)
        rows.append(SweepRow(j=j, k1=j * j, k2=j, sigma_star=sigma,
                             bound=bound, certified=certified,
                             note="" if found else str(batch.error(i))))

    verdict, reason = _sweep_verdict(rows, params)
    return SweepResult(regime=regime, params=params, j_min=j_min, j_max=j_max,
                       rows=rows, verdict=verdict, reason=reason)


def _sweep_verdict(rows: list, params: PhysParams) -> tuple[str, str]:
    if params.eps_kappa > 0.0 and params.gamma > 0.5:
        last = None
        for r in rows:
            if r.sigma_star is not None:
                last = r.j
        tail = (f"unstable modes stop after j = {last}" if last is not None
                else "no unstable modes anywhere in range")
        return "terminated", f"no divergence certificate for gamma > 1/2; {tail}"
    bad_bound = next((r for r in rows if r.bound is None or r.bound <= 0.0), None)
    if bad_bound is not None:
        extra = ""
        if params.gamma == 0.5:
            extra = (f" (eps_kappa = {params.eps_kappa} >= threshold "
                     f"{HALF_LAPLACIAN_THRESHOLD:.6f})")
        return "terminated", (
            f"certified bound non-positive at j = {bad_bound.j}{extra}"
        )
    no_root = next((r for r in rows if r.sigma_star is None), None)
    if no_root is not None:
        return "terminated", f"no unstable mode at j = {no_root.j}"
    violated = next((r for r in rows if not r.certified), None)
    if violated is not None:
        return "terminated", (
            f"computed rate below certified bound at j = {violated.j}"
        )
    if rows[-1].sigma_star <= rows[0].sigma_star and len(rows) > 1:
        return "terminated", "rates are not increasing across the range"
    return "diverging", "every j certified; rates increase without bound"


# One record of an `OptimizeResult.table`: 22 bytes, so that callers that
# keep the tables of many calls (a benchmark keeps one per repetition) hold
# little memory; int16 bounds box and depth at 32767.
_TABLE_ROW = np.dtype([("k1", np.int16), ("k2", np.int16),
                       ("sigma_star", np.float64), ("depth", np.int16),
                       ("residual", np.float64)])


@dataclass(frozen=True)
class OptimizeResult:
    """Outcome of the integer growth optimization over a box."""

    k1: int
    k2: int
    sigma_star: float
    lower_bound_at_opt: float
    solution: EigenSolution = field(repr=False)
    lb_argmax: tuple[int, int]
    lb_max: float
    continuum_k1: float
    continuum_k2: float
    n_unstable: int
    table: np.ndarray = field(repr=False)


def continuum_optimum(params: PhysParams) -> tuple[float, float]:
    """Continuum argmax (k1, k2) of the closed-form growth bound.

    For small eps_kappa the certified lower bound is maximized near
    k1 = 1/(16 eps_kappa), k2 = N sqrt(m / (8 eps_kappa)), where it reaches
    at least 1/(2^8 eps_kappa) - 8 m^2 eps_kappa.
    """
    if params.eps_kappa <= 0.0:
        raise ValueError("continuum optimum requires eps_kappa > 0")
    k1 = 1.0 / (16.0 * params.eps_kappa)
    k2 = math.sqrt(params.n2) * math.sqrt(params.m / (8.0 * params.eps_kappa))
    return k1, k2


def continuum_lower_bound(params: PhysParams) -> float:
    """Certified lower bound evaluated at the real-valued continuum optimum.

    The alpha weights are algebraic in (k1, k2), so they extend off the
    integer lattice; this evaluates 1/alpha_2 - e_2 at the continuum argmax,
    giving the growth rate the discrete optimization should approach as
    eps_kappa -> 0.
    """
    k1, k2 = continuum_optimum(params)
    return float(_closed_form_bounds(k1, k2, params)[0][0])


def optimize_growth(params: PhysParams, box: int) -> OptimizeResult:
    """Best unstable pair over the integer box [1, box]^2.

    Solves all box**2 mode pairs in one lockstep batch, returning the pair
    with the largest sigma*, together with the pair maximizing the certified
    closed-form lower bound and the continuum prediction for context.  The
    `table` has one record (k1, k2, sigma_star, depth, residual) per
    unstable pair, ordered by descending sigma_star: a structured array
    whose records index and unpack like tuples.

    Raises
    ------
    NoRootError
        If no pair in the box is unstable.
    """
    if (isinstance(box, (int, np.integer))
            and not 1 <= box <= np.iinfo(np.int16).max):
        raise ValueError(f"box must be in [1, 32767], got {box}")
    _validate_mode(box=box)  # refuses a bool, a float or a string
    ks = np.arange(1, box + 1)
    k1s, k2s = np.repeat(ks, box), np.tile(ks, box)  # k1-major order
    batch = _Batch(k1s, k2s, params)
    unstable = np.flatnonzero(~np.isnan(batch.sigma))
    if unstable.size == 0:
        raise NoRootError(f"no unstable modes in box [1, {box}]^2")
    # descending sigma*; ties keep k1-major order, so the first row is the
    # first mode of largest sigma*
    order = unstable[np.argsort(-batch.sigma[unstable], kind="stable")]
    table = np.rec.fromarrays(
        [k1s[order], k2s[order], batch.sigma[order], batch.depth[order],
         batch.residual[order]], dtype=_TABLE_ROW)
    best = batch.solution(order[0])
    lb = int(np.argmax(batch.lower))
    if params.eps_kappa > 0.0:
        ck1, ck2 = continuum_optimum(params)
    else:
        ck1, ck2 = math.inf, math.inf
    return OptimizeResult(
        k1=best.k1, k2=best.k2, sigma_star=best.sigma_star,
        lower_bound_at_opt=best.bracket[0], solution=best,
        lb_argmax=(int(k1s[lb]), int(k2s[lb])), lb_max=float(batch.lower[lb]),
        continuum_k1=ck1, continuum_k2=ck2,
        n_unstable=len(table), table=table,
    )
