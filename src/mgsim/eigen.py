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

are (m/2) times the vertical multiplier component at (k1, k2, m p).  In the
normalized variables d_p = c_p / alpha_p, x_p = sigma_p alpha_p the recursion
is symmetric, x_p d_p + d_{p+1} + d_{p-1} = 0, and the decaying (minimal)
solution exists exactly when sigma solves the continued-fraction equation

    x_1 = 1 / (x_2 - 1 / (x_3 - 1 / (x_4 - ... ))).

`cf_residual` evaluates the truncated residual of that equation,
`solve_sigma_star` bisects its principal root on a bracket, and
`dense_sigma_star` is an independent cross-check that solves the same
truncated problem as a generalized symmetric-definite matrix eigenproblem.
All positive roots are simple and real: conjugating by the alternating sign
pattern makes the recursion matrix symmetric with positive off-diagonal,
so the principal branch carries a Perron-type largest eigenvalue.

The residual changes sign at most once on any sigma interval, so bisecting
between a negative and a non-negative endpoint cannot miss a root.  Each
x_p grows with sigma (alpha_p > 0), so by induction from T_depth = x_depth
every tail T_p = x_p - 1/T_{p+1} grows with sigma wherever T_{p+1} > 0, and
so does the residual x_1 - 1/T_2.  The principal branch (all tails above a
small positive floor) is therefore a right half-line on which the residual
increases; counting the off-branch points to its left as negative leaves a
single possible sign change.  Rounding keeps this: each step is a monotone
floating-point operation, so the computed residual is non-decreasing too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    DegenerateTailError,
    InvariantError,
    NoRootError,
    RecurrenceOverflowError,
    TruncationError,
)
from .symbol import PhysParams

# Tail values at or below this are treated as off the principal branch.
_TAIL_FLOOR = 1e-13

# Bisection stops when the bracket width is this many ulps of the endpoint.
_WIDTH_ULPS = 8.0

_MAX_DEPTH = 1024


def _validate_mode(k1: int, k2: int, p: int = 1):
    if not (isinstance(k1, (int, np.integer)) and k1 >= 1):
        raise ValueError(f"k1 must be a positive integer, got {k1}")
    if not (isinstance(k2, (int, np.integer)) and k2 >= 1):
        raise ValueError(f"k2 must be a positive integer, got {k2}")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")


def alpha(p: int, k1: int, k2: int, params: PhysParams) -> float:
    """Interaction weight alpha_p > 0 of the vertical mode p.

    alpha_p = 2 (N^4 (mp)^2 (k1^2 + k2^2 + (mp)^2) + k2^4)
              / (m N^2 k2^2 (k1^2 + k2^2)),  growing like p^4.
    """
    _validate_mode(k1, k2, p)
    return float(_alphas(p, k1, k2, params)[-1])


def _alphas(P: int, k1: int, k2: int, params: PhysParams) -> np.ndarray:
    """alpha_p for p = 1..P as a vector (index 0 <-> p = 1)."""
    n2, m = params.n2, params.m
    ksq = float(k1 * k1 + k2 * k2)
    p = np.arange(1, P + 1, dtype=np.float64)
    mp2 = (m * p) ** 2
    return 2.0 * (n2 * n2 * mp2 * (ksq + mp2) + float(k2) ** 4) / (
        m * n2 * float(k2 * k2) * ksq
    )


def _dissipation_shifts(P: int, k1: int, k2: int, params: PhysParams) -> np.ndarray:
    """e_p = eps_kappa (k1^2 + k2^2 + (mp)^2)^gamma for p = 1..P."""
    ksq = float(k1 * k1 + k2 * k2)
    p = np.arange(1, P + 1, dtype=np.float64)
    lam = ksq + (params.m * p) ** 2
    if params.eps_kappa == 0.0:
        return np.zeros(P)
    return params.eps_kappa * lam ** params.gamma


def sigma_shifted(sigma: float, p: int, k1: int, k2: int, params: PhysParams) -> float:
    """Dissipation-shifted rate sigma_p = sigma + eps_kappa |k_p|^(2 gamma)."""
    _validate_mode(k1, k2, p)
    return sigma + float(_dissipation_shifts(p, k1, k2, params)[-1])


def cf_residual(sigma: float, k1: int, k2: int, params: PhysParams,
                depth: int = 64) -> float:
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
    _validate_mode(k1, k2)
    if depth < 2:
        raise ValueError(f"depth must be >= 2, got {depth}")
    a = _alphas(depth, k1, k2, params)
    e = _dissipation_shifts(depth, k1, k2, params)
    x = (sigma + e) * a
    T = x[depth - 1]
    for p in range(depth - 2, 0, -1):  # p indexes x[p] = x_{p+1}
        if T <= _TAIL_FLOOR:
            raise DegenerateTailError(
                f"tail T_{p + 2} = {T} non-positive at sigma={sigma} "
                f"for mode ({k1},{k2})"
            )
        T = x[p] - 1.0 / T
    if T <= _TAIL_FLOOR:
        raise DegenerateTailError(
            f"tail T_2 = {T} non-positive at sigma={sigma} for mode ({k1},{k2})"
        )
    return x[0] - 1.0 / T


def sigma_bracket(k1: int, k2: int, params: PhysParams) -> tuple[float, float]:
    """Two-sided bracket for the principal root from the product identity.

    The principal root satisfies 1/(alpha_1 alpha_2) <= sigma_1 sigma_2
    <= 2/(alpha_1 alpha_2); solving (sigma + e_1)(sigma + e_2) = c for the
    two endpoints gives

        lo, hi = (-(e1 + e2) + sqrt((e1 - e2)^2 + 4 c)) / 2,  c = 1, 2 over
        alpha_1 alpha_2.

    `hi <= 0` certifies that no unstable (positive) root exists.
    """
    _validate_mode(k1, k2)
    a = _alphas(2, k1, k2, params)
    e = _dissipation_shifts(2, k1, k2, params)
    prod = a[0] * a[1]
    s, d = e[0] + e[1], e[0] - e[1]
    lo = 0.5 * (-s + math.sqrt(d * d + 4.0 / prod))
    hi = 0.5 * (-s + math.sqrt(d * d + 8.0 / prod))
    return lo, hi


def closed_form_bounds(k1: int, k2: int, params: PhysParams) -> tuple[float, float]:
    """Certified closed-form bounds 1/alpha_2 - e_2 <= sigma* <= 2/alpha_1 - e_1.

    The lower form is the quantity whose lattice supremum drives the
    optimal-growth estimate; either side may be negative, in which case it
    carries no information (lower) or certifies stability (upper).
    """
    _validate_mode(k1, k2)
    a = _alphas(2, k1, k2, params)
    e = _dissipation_shifts(2, k1, k2, params)
    return 1.0 / a[1] - e[1], 2.0 / a[0] - e[0]


def dense_sigma_star(k1: int, k2: int, params: PhysParams, depth: int = 64) -> float:
    """Largest eigenvalue of the truncated recursion, by dense linear algebra.

    Writing the truncated recursion (c_{P+1} = 0) in d_p = c_p / alpha_p
    gives sigma B d = M d with B = diag(alpha_p) positive definite and
    M = -(T1 + diag(e_p alpha_p)), T1 the tridiagonal matrix of ones.  This
    is solved with a symmetric-definite dense eigensolver, independently of
    the continued-fraction evaluation, and returns the largest eigenvalue
    (which may be non-positive for stable modes).
    """
    _validate_mode(k1, k2)
    if depth < 2:
        raise ValueError(f"depth must be >= 2, got {depth}")
    a = _alphas(depth, k1, k2, params)
    e = _dissipation_shifts(depth, k1, k2, params)
    M = np.diag(-e * a)
    off = -np.ones(depth - 1)
    M += np.diag(off, 1) + np.diag(off, -1)
    B = np.diag(a)
    w = scipy.linalg.eigh(M, B, eigvals_only=True,
                          subset_by_index=[depth - 1, depth - 1])
    return float(w[0])


def backward_coefficients(sigma: float, k1: int, k2: int, params: PhysParams,
                          depth: int = 64) -> np.ndarray:
    """Minimal-solution coefficients c_1..c_depth at an eigenvalue sigma.

    Runs the recursion backward from a unit seed at p = depth (the direction
    in which the minimal solution is dominant, so the iteration is stable),
    rescaling by exact powers of two whenever entries threaten to overflow,
    and normalizes to the convention c_1 = alpha_1.

    Returns an array of length `depth` (index 0 corresponds to p = 1).

    Raises
    ------
    RecurrenceOverflowError
        If the normalizing entry vanishes or overflows despite rescaling.
    """
    _validate_mode(k1, k2)
    a = _alphas(depth, k1, k2, params)
    e = _dissipation_shifts(depth, k1, k2, params)
    x = (sigma + e) * a
    d = np.zeros(depth + 1)
    d[depth - 1] = 1.0  # seed at p = depth; d[depth] stands for d_{P+1} = 0
    for i in range(depth - 1, 0, -1):
        d[i - 1] = -x[i] * d[i] - d[i + 1]
        mag = abs(d[i - 1])
        if mag > 2.0 ** 900:
            d[i - 1:] *= 2.0 ** -1000
        if not math.isfinite(d[i - 1]):
            raise RecurrenceOverflowError(
                f"backward recursion overflowed at p={i} for mode ({k1},{k2})"
            )
    if d[0] == 0.0:
        raise RecurrenceOverflowError(
            f"cannot normalize: leading coefficient vanished for mode ({k1},{k2})"
        )
    # divide d by d[0] first so c_1 = alpha_1 holds exactly in floating point
    return a * (d[:depth] / d[0])


def forward_coefficients(sigma: float, k1: int, k2: int, params: PhysParams,
                         depth: int = 64) -> np.ndarray:
    """Forward-recursed coefficients from the p = 1 line (c_1 = alpha_1).

    The forward direction is numerically unstable for the minimal solution:
    rounding seeds the dominant solution, which takes over after a few
    steps.  Exposed for exactly that demonstration; `backward_coefficients`
    is the reliable construction.
    """
    _validate_mode(k1, k2)
    a = _alphas(depth, k1, k2, params)
    e = _dissipation_shifts(depth, k1, k2, params)
    c = np.zeros(depth)
    c[0] = a[0]
    # p = 1 line: sigma_1 c_1 + c_2 / alpha_2 = 0
    c[1] = -(sigma + e[0]) * c[0] * a[1]
    for p in range(2, depth):  # filling c[p] = c_{p+1}
        c[p] = -a[p] * ((sigma + e[p - 1]) * c[p - 1] + c[p - 2] / a[p - 2])
        if not math.isfinite(c[p]):
            c[p:] = np.inf
            break
    return c


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
        Truncation depth at which the root was accepted.
    c : ndarray
        Coefficients c_1..c_depth (index 0 <-> p = 1), normalized to
        c_1 = alpha_1; signs alternate and the tail decays superexponentially.
    residual : float
        |cf_residual(sigma_star)| at the accepted depth.
    bracket : (float, float)
        Two-sided bracket the root was located in.
    recursion_residual : float
        Largest relative defect of the interior recursion rows.
    """

    k1: int
    k2: int
    params: PhysParams
    sigma_star: float
    depth: int
    c: np.ndarray = field(repr=False)
    residual: float
    bracket: tuple[float, float]
    recursion_residual: float


def _recursion_rows_residual(sigma: float, c: np.ndarray, k1: int, k2: int,
                             params: PhysParams) -> float:
    """Max relative defect of rows p = 2..P-1 of the recursion at (sigma, c).

    Rows whose terms sit more than ~220 decades below the largest row are
    excluded: the superexponential tail of the minimal solution underflows
    to subnormals/zero long before that, and relative arithmetic there is
    meaningless (the coefficients themselves are far below any use).
    """
    P = len(c)
    a = _alphas(P, k1, k2, params)
    e = _dissipation_shifts(P, k1, k2, params)
    t1 = (sigma + e[1:P - 1]) * c[1:P - 1]
    t2 = c[2:P] / a[2:P]
    t3 = c[0:P - 2] / a[0:P - 2]
    scale = np.maximum(np.abs(t1), np.maximum(np.abs(t2), np.abs(t3)))
    keep = scale > scale.max() * 1e-220
    if not keep.any():
        return 0.0
    defect = np.abs(t1 + t2 + t3)[keep] / scale[keep]
    return float(defect.max())


def _bisect(k1: int, k2: int, params: PhysParams, depth: int,
            lo: float, hi: float) -> float:
    """Principal root of the truncated residual in [lo, hi], by bisection.

    Off-branch points count as negative, so the residual changes sign at
    most once on any interval (module docstring).  Raises NoRootError unless
    g(lo) < 0 <= g(hi).
    """
    def g(s: float) -> float:
        try:
            return cf_residual(s, k1, k2, params, depth)
        except DegenerateTailError:
            return -1.0

    a, b = lo, hi
    fa, fb = g(a), g(b)
    if not fa < 0.0 <= fb:
        raise NoRootError(
            f"no unstable root for mode ({k1},{k2}) in bracket "
            f"[{lo:.6g}, {hi:.6g}]", lo=lo, hi=hi,
        )
    for _ in range(200):
        if b - a <= _WIDTH_ULPS * np.spacing(max(abs(a), abs(b))):
            break
        mid = 0.5 * (a + b)
        fm = g(mid)
        if fm < 0.0:
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    # one guarded secant polish inside the final bracket
    sigma = 0.5 * (a + b)
    if fb != fa:
        s = b - fb * (b - a) / (fb - fa)
        if a <= s <= b:
            sigma = s
    return sigma


def solve_sigma_star(k1: int, k2: int, params: PhysParams,
                     depth: int = 64) -> EigenSolution:
    """Largest unstable eigenvalue of a horizontal mode pair.

    Brackets the principal root with `sigma_bracket` and bisects the
    truncated residual on the bracket to machine width; the residual
    changes sign at most once there, so a sign change at the endpoints is
    the root.  The truncation depth then doubles until the root moves by
    less than 1e-12, and the accepted root gets its coefficient profile
    from `backward_coefficients`.

    Raises
    ------
    NoRootError
        If the bracket certifies stability (upper endpoint <= 0) or the
        residual does not change sign on the admissible bracket.
    """
    _validate_mode(k1, k2)
    lo, hi = sigma_bracket(k1, k2, params)
    if hi <= 0.0:
        raise NoRootError(
            f"mode ({k1},{k2}) is certified stable: bracket upper endpoint "
            f"{hi:.6g} <= 0", lo=lo, hi=hi,
        )
    left = max(lo * (1.0 - 1e-9), hi * 1e-9)
    right = hi * (1.0 + 1e-9)
    sigma = _bisect(k1, k2, params, depth, left, right)
    depth_used = depth
    while depth_used < _MAX_DEPTH:
        depth_used *= 2
        refined = _bisect(k1, k2, params, depth_used, left, right)
        moved = abs(refined - sigma)
        sigma = refined
        if moved < 1e-12:
            break
    else:
        raise InvariantError(
            f"root of mode ({k1},{k2}) did not settle by depth {_MAX_DEPTH}"
        )
    resid = abs(cf_residual(sigma, k1, k2, params, depth_used))
    if resid >= 1e-12:
        raise InvariantError(
            f"accepted root has residual {resid:.3g} >= 1e-12 for mode ({k1},{k2})"
        )
    c = backward_coefficients(sigma, k1, k2, params, depth_used)
    rows = _recursion_rows_residual(sigma, c, k1, k2, params)
    if rows >= 1e-10:
        raise InvariantError(
            f"recursion rows defect {rows:.3g} >= 1e-10 for mode ({k1},{k2})"
        )
    return EigenSolution(
        k1=k1, k2=k2, params=params, sigma_star=sigma, depth=depth_used,
        c=c, residual=resid, bracket=(lo, hi),
        recursion_residual=rows,
    )


_COEFF_CUTOFF = 1e-14  # vertical modes below this (with c_1 = alpha_1) are dropped


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
    from .fields import SpectralField

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
    n1, n2 = grid.n1, grid.n2
    for p in ps:
        cp = float(sol.c[p - 1])
        for s1 in (1, -1):
            for s2 in (1, -1):
                f.c[(s1 * k1) % n1, (s2 * k2) % n2, m * p] = (
                    0.125j * s1 * s2 * cp)
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


def illposedness_sweep(regime: str, params: PhysParams, j_min: int = 2,
                       j_max: int = 12, depth: int = 64) -> SweepResult:
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
        displayed constants to be valid.
    """
    if regime not in ("nondiffusive", "fractional"):
        raise ValueError(f"unknown regime {regime!r}")
    if regime == "nondiffusive" and params.eps_kappa != 0.0:
        raise ValueError("nondiffusive regime requires eps_kappa = 0")
    if regime == "fractional" and params.eps_kappa <= 0.0:
        raise ValueError("fractional regime requires eps_kappa > 0")
    if j_min < 2 * params.m:
        raise ValueError(f"j_min must be >= 2 m = {2 * params.m}, got {j_min}")
    if j_max < j_min:
        raise ValueError("j_max must be >= j_min")

    rows = []
    for j in range(j_min, j_max + 1):
        k1, k2 = j * j, j
        bound = _sweep_bound(j, params)
        note = ""
        try:
            sol = solve_sigma_star(k1, k2, params, depth=depth)
            sigma = sol.sigma_star
        except NoRootError as e:
            sigma = None
            note = str(e)
        certified = (bound is not None and bound > 0.0
                     and sigma is not None and sigma >= bound)
        rows.append(SweepRow(j=j, k1=k1, k2=k2, sigma_star=sigma, bound=bound,
                             certified=certified, note=note))

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
    table: list = field(repr=False)


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
    n4 = params.n2 * params.n2
    mp = 2.0 * params.m
    ksum = k1 * k1 + k2 * k2
    a2 = 2.0 * (n4 * mp * mp * (ksum + mp * mp) + k2 ** 4) / (
        params.m * params.n2 * k2 * k2 * ksum)
    e2 = params.eps_kappa * (ksum + mp * mp) ** params.gamma
    return 1.0 / a2 - e2


def optimize_growth(params: PhysParams, box: int, depth: int = 64) -> OptimizeResult:
    """Best unstable pair over the integer box [1, box]^2.

    Solves every mode pair whose bracket admits a root, returning the pair
    with the largest sigma*, together with the pair maximizing the certified
    closed-form lower bound and the continuum prediction for context.  The
    `table` rows are (k1, k2, sigma_star, lower, upper, depth, residual) for
    every unstable pair, ordered by descending sigma_star.

    Raises
    ------
    NoRootError
        If no pair in the box is unstable.
    """
    if box < 1:
        raise ValueError(f"box must be >= 1, got {box}")
    best: EigenSolution | None = None
    best_bounds = (math.nan, math.nan)
    lb_argmax = (0, 0)
    lb_max = -math.inf
    rows = []
    for k1 in range(1, box + 1):
        for k2 in range(1, box + 1):
            lower, upper = closed_form_bounds(k1, k2, params)
            if lower > lb_max:
                lb_max, lb_argmax = lower, (k1, k2)
            try:
                sol = solve_sigma_star(k1, k2, params, depth=depth)
            except NoRootError:
                continue
            rows.append((k1, k2, sol.sigma_star, lower, upper,
                         sol.depth, sol.residual))
            if best is None or sol.sigma_star > best.sigma_star:
                best = sol
                best_bounds = (lower, upper)
    if best is None:
        raise NoRootError(f"no unstable modes in box [1, {box}]^2")
    rows.sort(key=lambda r: -r[2])
    if params.eps_kappa > 0.0:
        ck1, ck2 = continuum_optimum(params)
    else:
        ck1, ck2 = math.inf, math.inf
    return OptimizeResult(
        k1=best.k1, k2=best.k2, sigma_star=best.sigma_star,
        lower_bound_at_opt=best_bounds[0], solution=best,
        lb_argmax=lb_argmax, lb_max=lb_max,
        continuum_k1=ck1, continuum_k2=ck2,
        n_unstable=len(rows), table=rows,
    )
