"""Constitutive Fourier multiplier of the scalar-to-velocity map.

The scalar theta drives a velocity u = M[theta] obtained by solving the
linear balance between rotation, pressure, the imposed vertical-mean
magnetic field B0 = e2, and buoyancy.  Mode by mode the balance reduces to
an explicit rational multiplier: for wavevector k = (k1, k2, k3) on the
integer lattice and stratification parameter N^2,

    M1(k) = (N^4 k2 k3 |k|^2 - N^2 k1 k2^2 k3) / D(k)
    M2(k) = (-N^4 k1 k3 |k|^2 - N^2 k2^3 k3) / D(k)
    M3(k) = (N^2 k1^2 k2^2 + N^2 k2^4) / D(k)

with denominator

    D(k) = N^4 |k|^2 k3^2 + k2^4.

By convention the multiplier vanishes identically on the horizontal plane
{k3 = 0} and at k = 0: the scalar is advected with zero vertical mean and
the balance is only inverted off that plane.  The multiplier is even,
divergence-free (k . M(k) = 0), and grows linearly (|M(k)| <= C |k|) with
the rate saturated along curved families such as k = (j^2, j, 1).

`PlaneSpec` names the rational planes q_den k2 = q_num k1, on which the
multiplier stays bounded; the plane and box scans filter one lattice
helper through it.

`balance_oracle` solves the original 7x7 mode-wise balance system directly
(velocity, perturbation field, pressure) with dense linear algebra and is
kept deliberately independent of the closed forms above so each can check
the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularSystemError

Wavevector = tuple[int, int, int]


def _integers(*values) -> bool:
    """True when every value is an int or a numpy integer (no bool)."""
    return all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
               for v in values)


def _validate_mode(depth: int = 2, **positive: int):
    """ValueError unless every `positive` value is an integer >= 1 and
    depth an integer >= 2 (no bool)."""
    for name, v in (*positive.items(), ("depth", depth)):
        least = 2 if name == "depth" else 1
        if not _integers(v) or v < least:
            what = "a positive integer" if least == 1 else "an integer >= 2"
            raise ValueError(f"{name} must be {what}, got {v!r}")


@dataclass(frozen=True)
class PhysParams:
    """Physical parameters shared across the package.

    Attributes
    ----------
    n2 : float
        Squared stratification/rotation ratio N^2 (> 0).
    m : int
        Vertical wavenumber of the steady background profile sin(m x3).
    eps_kappa : float
        Diffusivity epsilon_kappa (>= 0; 0 switches diffusion off).
    gamma : float
        Fractional dissipation exponent, in (0, 1]; 1 is the Laplacian.
    """

    n2: float = 1.0
    m: int = 1
    eps_kappa: float = 0.0
    gamma: float = 1.0

    def __post_init__(self):
        if not (self.n2 > 0.0 and math.isfinite(self.n2)):
            raise ValueError(f"n2 must be a positive finite number, got {self.n2}")
        _validate_mode(m=self.m)
        if not (self.eps_kappa >= 0.0 and math.isfinite(self.eps_kappa)):
            raise ValueError(f"eps_kappa must be >= 0, got {self.eps_kappa}")
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma}")


@dataclass(frozen=True)
class PlaneSpec:
    """The family of wavevectors with q_den * k2 = q_num * k1 (all k3).

    The ratio is held in lowest terms; q_den >= 1.
    """

    q_num: int
    q_den: int

    def __post_init__(self):
        if not _integers(self.q_num, self.q_den):
            raise ValueError("plane ratio components must be integers")
        if self.q_den < 1:
            raise ValueError(f"q_den must be >= 1, got {self.q_den}")
        if math.gcd(abs(self.q_num), self.q_den) != 1:
            raise ValueError(
                f"plane ratio {self.q_num}/{self.q_den} is not in lowest terms")

    def contains(self, k1, k2):
        return k2 * self.q_den == self.q_num * k1

    def __str__(self):
        return f"{self.q_num}/{self.q_den}"


def _denominator(K1, K2, K3, n2: float):
    """(|k|^2, D(k) = N^4 |k|^2 k3^2 + k2^4) on floats or float arrays."""
    ksq = K1 * K1 + K2 * K2 + K3 * K3
    return ksq, n2 * n2 * ksq * K3 * K3 + K2 ** 4


def eval_denominator(k: Wavevector, n2: float) -> float:
    """Denominator D(k) = N^4 |k|^2 k3^2 + k2^4 of the multiplier."""
    return float(_denominator(*(float(v) for v in k), n2)[1])


def eval_symbol(k: Wavevector, n2: float) -> tuple[float, float, float]:
    """Multiplier M(k) at one wavevector; (0, 0, 0) on the plane k3 = 0."""
    return tuple(float(c) for c in symbol_components(k[0], k[1], k[2], n2))


def symbol_components(K1, K2, K3, n2: float):
    """Vectorized multiplier on integer wavenumber arrays.

    Parameters
    ----------
    K1, K2, K3 : ndarray of int (broadcastable to a common shape)
    n2 : float

    Returns
    -------
    (M1, M2, M3) : float ndarrays of the broadcast shape, with the
        convention value 0 on {k3 = 0}.
    """
    K1, K2, K3 = (np.asarray(K, dtype=np.float64) for K in (K1, K2, K3))
    ksq, d = _denominator(K1, K2, K3, n2)
    n4 = n2 * n2
    # D vanishes only where k2 = k3 = 0; those entries are zeroed below
    # along with the rest of the k3 = 0 plane.
    safe = np.where(d == 0.0, 1.0, d)
    m1 = (n4 * K2 * K3 * ksq - n2 * K1 * K2 ** 2 * K3) / safe
    m2 = (-n4 * K1 * K3 * ksq - n2 * K2 ** 3 * K3) / safe
    m3 = (n2 * K1 ** 2 * K2 ** 2 + n2 * K2 ** 4) / safe
    plane = K3 == 0.0
    return tuple(np.where(plane, 0.0, comp) for comp in (m1, m2, m3))


def balance_oracle(k: Wavevector, n2: float) -> np.ndarray:
    """Velocity response of the raw balance system at one mode.

    For real parameters the result must be real (up to rounding) and,
    off the plane {k3 = 0}, must reproduce `eval_symbol` exactly.  Raises
    SingularSystemError where k2 = k3 = 0 (see `balance_oracle_batch`).
    """
    return balance_oracle_batch([k], n2)[0]


def balance_oracle_batch(kvecs: np.ndarray, n2: float) -> np.ndarray:
    """Solve the raw 7x7 balance system at each row of an (M, 3) mode array.

    Unknown ordering: (u1, u2, u3, b1, b2, b3, P).  Rows: three momentum
    components (rotation + pressure gradient + field tension + buoyancy),
    three induction components (stretching against dissipation), and
    incompressibility of u.  The solenoidality of b holds automatically.
    The forcing is a unit scalar; returns an (M, 3) complex array of
    velocity triples.

    Raises
    ------
    SingularSystemError
        When some mode has no unique solution (k2 = k3 = 0, which
        includes k = 0).
    """
    kvecs = np.asarray(kvecs, dtype=np.int64)
    if kvecs.ndim != 2 or kvecs.shape[1] != 3:
        raise ValueError("kvecs must have shape (M, 3)")
    singular = (kvecs[:, 1] == 0) & (kvecs[:, 2] == 0)
    if singular.any():
        k = tuple(int(v) for v in kvecs[np.argmax(singular)])
        raise SingularSystemError(f"balance system is singular at k={k}")
    M = kvecs.shape[0]
    A = np.zeros((M, 7, 7), dtype=np.complex128)
    k1 = kvecs[:, 0].astype(np.float64)
    k2 = kvecs[:, 1].astype(np.float64)
    k3 = kvecs[:, 2].astype(np.float64)
    ksq = k1 * k1 + k2 * k2 + k3 * k3
    # momentum, component 1:  N^2 u2 + i k1 P - i k2 b1 = 0
    A[:, 0, 1] = n2
    A[:, 0, 3] = -1j * k2
    A[:, 0, 6] = 1j * k1
    # momentum, component 2: -N^2 u1 + i k2 P - i k2 b2 = 0
    A[:, 1, 0] = -n2
    A[:, 1, 4] = -1j * k2
    A[:, 1, 6] = 1j * k2
    # momentum, component 3:  i k3 P - i k2 b3 = N^2 (buoyancy source)
    A[:, 2, 5] = -1j * k2
    A[:, 2, 6] = 1j * k3
    # induction: i k2 u_j - |k|^2 b_j = 0
    for j in range(3):
        A[:, 3 + j, j] = 1j * k2
        A[:, 3 + j, 3 + j] = -ksq
    # incompressibility: i k . u = 0
    A[:, 6, 0] = 1j * k1
    A[:, 6, 1] = 1j * k2
    A[:, 6, 2] = 1j * k3
    rhs = np.zeros((M, 7), dtype=np.complex128)
    rhs[:, 2] = n2
    sol = np.linalg.solve(A, rhs[..., None])[..., 0]
    return sol[:, :3]


def _lattice(kmax: int, plane: PlaneSpec | None = None):
    """Flat (k1, k2, k3) of the nonzero lattice points with |k|_inf <= kmax
    (on ``plane`` when given), in C order."""
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    rng = np.arange(-kmax, kmax + 1, dtype=np.int64)
    K1, K2, K3 = rng[:, None, None], rng[None, :, None], rng[None, None, :]
    keep = (K1 != 0) | (K2 != 0) | (K3 != 0)
    if plane is not None:
        keep &= plane.contains(K1, K2)
    return tuple(rng[i] for i in np.nonzero(keep))


def plane_bound_scan(q_num: int, q_den: int, kmax: int, n2: float) -> float:
    """Empirical sup of max_j |M_j| over the rational vertical plane.

    The plane P_q consists of lattice modes with k2 * q_den = q_num * k1.
    On any such plane the multiplier components are uniformly bounded;
    the returned value is the maximum of max_j |M_j(k)| over the plane
    intersected with the box |k|_inf <= kmax, and for kmax past a modest
    threshold it plateaus at the plane's sharp constant.
    """
    comps = symbol_components(*_lattice(kmax, PlaneSpec(q_num, q_den)), n2)
    return float(max(np.abs(m).max() for m in comps))


def growth_scan(j_max: int, n2: float) -> list[tuple[int, float, float]]:
    """Sample the linear-growth family k = (j^2, j, 1).

    Returns rows (j, |k|, |M(k)|) for j = 2 .. j_max.  Along this family
    the ratio |M(k)| / |k| stays inside a fixed positive bracket, which is
    how the sharpness of the linear bound shows up on the lattice.
    """
    if j_max < 2:
        raise ValueError(f"j_max must be >= 2, got {j_max}")
    js = range(2, j_max + 1)
    m1, m2, m3 = symbol_components([j * j for j in js], js, 1, n2)
    mnorm = np.sqrt(m1 * m1 + m2 * m2 + m3 * m3)
    return [(j, math.sqrt(float(j ** 4 + j * j + 1)), float(m))
            for j, m in zip(js, mnorm)]


def scan_box(kmax: int, n2: float, plane: PlaneSpec | None = None):
    """Tabulate the multiplier over the box |k|_inf <= kmax.

    Yields one row per nonzero lattice point (on ``plane`` when given):

        (k1, k2, k3, M1, M2, M3, |M|, |M| / |k|)

    This backs the ``symbol-scan`` command's CSV output.
    """
    k1, k2, k3 = _lattice(kmax, plane)
    m1, m2, m3 = symbol_components(k1, k2, k3, n2)
    mnorm = np.sqrt(m1 * m1 + m2 * m2 + m3 * m3)
    knorm = np.sqrt((k1 * k1 + k2 * k2 + k3 * k3).astype(np.float64))
    ratio = mnorm / knorm
    for i in range(k1.size):
        yield (int(k1[i]), int(k2[i]), int(k3[i]),
               float(m1[i]), float(m2[i]), float(m3[i]),
               float(mnorm[i]), float(ratio[i]))
