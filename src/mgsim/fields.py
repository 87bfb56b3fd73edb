"""Real scalar fields on the periodic box [0, 2*pi)^3 in half-complex storage.

A field is represented by its Fourier coefficients c(k) with

    theta(x) = sum_k c(k) exp(i k . x),        c(-k) = conj(c(k)),

stored in the numpy ``rfftn`` layout of shape ``(n1, n2, n3 // 2 + 1)``:
the last axis keeps only the representatives k3 >= 0, and the first two
axes carry signed wavenumbers in fft order.  Coefficients here are the
mathematical ones (``rfftn`` output divided by the number of grid points).

Fields are band-limited by construction: a :class:`SpectralField` refuses
any nonzero coefficient outside the two-thirds dealias band
``|k_i| <= n_i // 3``, so every field carries only in-band modes.  The
transforms rely on that.  Each 1-D pass skips the rows, columns and planes
the band leaves zero ("pruned" transforms): :func:`inverse` reads only the
band, and :func:`forward` keeps only the band.
The k3 = 0 plane is symmetrized exactly on the way in: evenness checks and
conjugate-pair lookups then hold to the last bit, not merely to rounding.

Norms are computed spectrally via Parseval with the conjugate-pair weight
(2 for k3 > 0, 1 on the k3 = 0 and Nyquist planes).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SnapshotFormatError
from .symbol import symbol_components

TORUS_VOLUME = (2.0 * np.pi) ** 3

_SNAPSHOT_MAGIC = "MGFIELD"
_SNAPSHOT_VERSION = "v1"
_SNAPSHOT_DROP = 1e-16  # coefficients below this magnitude are not written


@dataclass(frozen=True)
class Grid:
    """Uniform grid sizes for the three periodic directions.

    Sizes must be even and at least 8 so that the two-thirds dealias band
    is non-trivial in every direction.
    """

    n1: int
    n2: int
    n3: int

    def __post_init__(self):
        for name in ("n1", "n2", "n3"):
            n = getattr(self, name)
            if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
                raise ValueError(f"{name} must be an integer, got {n!r}")
            if n < 8 or n % 2 != 0:
                raise ValueError(f"{name} must be even and >= 8, got {n}")

    @property
    def shape(self):
        return (self.n1, self.n2, self.n3)

    @property
    def spectral_shape(self):
        return (self.n1, self.n2, self.n3 // 2 + 1)

    @property
    def ntot(self):
        return self.n1 * self.n2 * self.n3

    @property
    def band(self):
        """Largest retained wavenumber in each direction (two-thirds rule)."""
        return (self.n1 // 3, self.n2 // 3, self.n3 // 3)

    def axes(self):
        return tuple(
            np.arange(n) * (2.0 * np.pi / n) for n in self.shape
        )


@lru_cache(maxsize=None)
def wavenumbers(grid):
    """Integer wavenumber arrays (K1, K2, K3) broadcast over spectral shape."""
    k1 = np.fft.fftfreq(grid.n1, d=1.0 / grid.n1).astype(np.int64)
    k2 = np.fft.fftfreq(grid.n2, d=1.0 / grid.n2).astype(np.int64)
    k3 = np.arange(grid.n3 // 2 + 1, dtype=np.int64)
    return (
        k1[:, None, None],
        k2[None, :, None],
        k3[None, None, :],
    )


@lru_cache(maxsize=None)
def ksq_array(grid):
    K1, K2, K3 = wavenumbers(grid)
    return (K1 * K1 + K2 * K2 + K3 * K3).astype(np.float64)


@lru_cache(maxsize=None)
def dealias_mask(grid):
    K1, K2, K3 = wavenumbers(grid)
    b1, b2, b3 = grid.band
    return (np.abs(K1) <= b1) & (np.abs(K2) <= b2) & (np.abs(K3) <= b3)


@lru_cache(maxsize=None)
def mode_weights(grid):
    """Conjugate-pair multiplicity of each stored representative."""
    _, _, K3 = wavenumbers(grid)
    w = np.full(grid.spectral_shape, 2.0)
    w[:, :, 0] = 1.0
    if grid.n3 % 2 == 0:
        w[:, :, -1] = 1.0
    return w


@lru_cache(maxsize=None)
def multiplier_arrays(grid, n2_phys):
    """The three multiplier components sampled on the stored wavenumbers."""
    K1, K2, K3 = wavenumbers(grid)
    return symbol_components(
        K1.astype(np.float64), K2.astype(np.float64), K3.astype(np.float64),
        n2_phys,
    )


def _conjugate_plane(grid, plane):
    """conj of a k3 plane (or a stack of them) evaluated at (-k1, -k2)."""
    rev1 = (-np.arange(grid.n1)) % grid.n1
    rev2 = (-np.arange(grid.n2)) % grid.n2
    return np.conj(plane[np.ix_(rev1, rev2)])


@lru_cache(maxsize=None)
def _band_index(grid):
    """In-band k1 rows, in-band k2 columns and in-band k3 plane count.

    Rows and columns are fft-order indices of ``|k| <= band``; the planes
    are the leading ``b3 + 1`` of the half-spectrum.
    """
    b1, b2, b3 = grid.band
    r1 = np.r_[:b1 + 1, grid.n1 - b1:grid.n1]
    r2 = np.r_[:b2 + 1, grid.n2 - b2:grid.n2]
    r1.flags.writeable = r2.flags.writeable = False  # shared by every caller
    return r1, r2, b3 + 1


def forward(grid, values):
    """Physical samples -> dealiased mathematical coefficients.

    The x3 pass keeps the in-band planes, the x2 pass the in-band columns,
    and the x1 pass runs on those columns only and keeps the in-band rows.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape != grid.shape:
        raise ValueError(
            f"values shape {values.shape} does not match grid {grid.shape}")
    r1, r2, p3 = _band_index(grid)
    a = np.fft.rfft(values, axis=2, norm="forward")[:, :, :p3]
    a = np.fft.fft(a, axis=1, norm="forward")[:, r2]
    a = np.fft.fft(a, axis=0, norm="forward")[r1]
    c = np.zeros(grid.spectral_shape, dtype=np.complex128)
    c[r1[:, None], r2, :p3] = a
    plane = c[:, :, 0]
    c[:, :, 0] = 0.5 * (plane + _conjugate_plane(grid, plane))
    return c


def inverse(grid, coeffs):
    """Mathematical coefficients -> physical samples.

    Only the dealias band of ``coeffs`` is read, which is exact for the
    band-limited fields this module builds.  The x2 pass runs on the
    in-band rows and planes, the x1 pass on the in-band planes, and the
    x3 pass zero-pads k3 beyond the band.
    """
    r1, _, p3 = _band_index(grid)
    a = np.zeros((grid.n1, grid.n2, p3), dtype=np.complex128)
    a[r1] = np.fft.ifft(coeffs[r1, :, :p3], axis=1, norm="forward")
    np.fft.ifft(a, axis=0, norm="forward", out=a)  # in place: numpy >= 2.0
    return np.fft.irfft(a, n=grid.n3, axis=2, norm="forward")


@dataclass
class SpectralField:
    """A real scalar field held as half-complex coefficients on a grid.

    Construction rejects an array of the wrong shape and any nonzero
    coefficient outside the dealias band; the transforms depend on it.
    """

    grid: Grid
    c: np.ndarray

    def __post_init__(self):
        grid = self.grid
        if np.shape(self.c) != grid.spectral_shape:
            raise ValueError(
                f"coefficient array of shape {np.shape(self.c)} does not "
                f"match the spectral shape {grid.spectral_shape} of grid "
                f"{grid.shape}")
        outside = np.argwhere((self.c != 0) & ~dealias_mask(grid))
        if outside.size:
            i, j, k = outside[0]
            K1, K2, _ = wavenumbers(grid)
            raise ValueError(
                f"nonzero coefficient at wavevector ({K1[i, 0, 0]},"
                f"{K2[0, j, 0]},{k}) outside the dealias band {grid.band} "
                f"of grid {grid.shape}")

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.spectral_shape, dtype=np.complex128))

    @classmethod
    def from_values(cls, grid, values):
        return cls(grid, forward(grid, values))

    def values(self):
        return inverse(self.grid, self.c)

    def copy(self):
        return SpectralField(self.grid, self.c.copy())

    def coeff(self, k1, k2, k3):
        """Mathematical coefficient at an arbitrary integer wavevector.

        Wavevectors with k3 < 0 are resolved through conjugate symmetry.
        Out-of-band wavevectors simply return 0.
        """
        if k3 < 0:
            return np.conj(self.coeff(-k1, -k2, -k3))
        n1, n2, n3 = self.grid.shape
        if k3 > n3 // 2 or abs(k1) > n1 // 2 or abs(k2) > n2 // 2:
            return 0.0 + 0.0j
        return complex(self.c[k1 % n1, k2 % n2, k3])

    def set_coeff(self, k1, k2, k3, value):
        """Set the coefficient at a wavevector with k3 >= 0 (in band).

        The caller is responsible for the conjugate entry when k3 = 0.
        """
        n1, n2, n3 = self.grid.shape
        b1, b2, b3 = self.grid.band
        if k3 < 0 or k3 > b3 or abs(k1) > b1 or abs(k2) > b2:
            raise ValueError(f"wavevector ({k1},{k2},{k3}) outside dealias band")
        self.c[k1 % n1, k2 % n2, k3] = value

    def __add__(self, other):
        self._check(other)
        return SpectralField(self.grid, self.c + other.c)

    def __sub__(self, other):
        self._check(other)
        return SpectralField(self.grid, self.c - other.c)

    def __mul__(self, scalar):
        return SpectralField(self.grid, self.c * float(scalar))

    __rmul__ = __mul__

    def _check(self, other):
        if not isinstance(other, SpectralField) or other.grid != self.grid:
            raise ValueError("fields live on different grids")


def l2_norm(field):
    w = mode_weights(field.grid)
    return math.sqrt(TORUS_VOLUME * float(np.sum(w * np.abs(field.c) ** 2)))


def linf_norm(field):
    return float(np.max(np.abs(field.values())))


def hs_norm(field, s):
    """Homogeneous Sobolev seminorm of order s (s = 0 recovers the L2 norm)."""
    w = mode_weights(field.grid)
    ksq = ksq_array(field.grid)
    if s == 0:
        weight = np.ones_like(ksq)
    else:
        weight = np.where(ksq > 0.0, ksq, 1.0) ** s
        weight = np.where(ksq > 0.0, weight, 0.0)
    return math.sqrt(
        TORUS_VOLUME * float(np.sum(w * weight * np.abs(field.c) ** 2)))


def zero_vertical_mean(field):
    """Project out all modes with k3 = 0 (the vertical average)."""
    out = field.copy()
    out.c[:, :, 0] = 0.0
    return out


@dataclass(frozen=True)
class PlaneSpec:
    """The family of wavevectors with q_den * k2 = q_num * k1 (all k3).

    The ratio is held in lowest terms; q_den >= 1.
    """

    q_num: int
    q_den: int

    def __post_init__(self):
        if not (isinstance(self.q_num, int) and isinstance(self.q_den, int)):
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


@lru_cache(maxsize=None)
def plane_mask(grid, plane):
    K1, K2, _ = wavenumbers(grid)
    return np.broadcast_to(
        plane.contains(K1, K2), grid.spectral_shape).copy()


def project_plane(field, plane):
    out = field.copy()
    out.c *= plane_mask(field.grid, plane)
    return out


def off_plane_norm(field, plane):
    """L2 norm of the component supported off the plane."""
    w = mode_weights(field.grid)
    mask = ~plane_mask(field.grid, plane)
    return math.sqrt(
        TORUS_VOLUME * float(np.sum(w * mask * np.abs(field.c) ** 2)))


def cosine_mode(grid, kvec, amplitude=1.0):
    """amplitude * cos(k . x) as a spectral field.

    For k3 = 0 both stored representatives of the +-k pair get half the
    amplitude; for k3 > 0 the mirror lives implicitly in the layout.
    """
    k1, k2, k3 = (int(k) for k in kvec)
    if (k1, k2, k3) == (0, 0, 0):
        raise ValueError("cosine mode requires a nonzero wavevector")
    if k3 < 0:
        k1, k2, k3 = -k1, -k2, -k3
    f = SpectralField.zeros(grid)
    f.set_coeff(k1, k2, k3, 0.5 * amplitude)
    if k3 == 0:
        f.set_coeff(-k1, -k2, 0, 0.5 * amplitude)
    return f


def sine_vertical(grid, m, amplitude=1.0):
    """amplitude * sin(m x3) as a spectral field."""
    m = int(m)
    if m < 1:
        raise ValueError(f"vertical mode index must be >= 1, got {m}")
    f = SpectralField.zeros(grid)
    f.set_coeff(0, 0, m, -0.5j * amplitude)
    return f


def shell_spectrum(field):
    """Energy per integer wavenumber shell; returns (shells, energies)."""
    w = mode_weights(field.grid)
    kmag = np.rint(np.sqrt(ksq_array(field.grid))).astype(np.int64)
    energy = TORUS_VOLUME * w * np.abs(field.c) ** 2
    nshell = int(kmag.max()) + 1
    out = np.zeros(nshell)
    np.add.at(out, kmag.ravel(), energy.ravel())
    return np.arange(nshell), out


def write_snapshot(field, path):
    """Write the nonzero representatives as a plain-text table."""
    grid = field.grid
    K1, K2, K3 = (np.broadcast_to(a, grid.spectral_shape)
                  for a in wavenumbers(grid))
    keep = np.abs(field.c) >= _SNAPSHOT_DROP
    idx = np.argwhere(keep)
    lines = [f"{_SNAPSHOT_MAGIC} {_SNAPSHOT_VERSION} "
             f"{grid.n1} {grid.n2} {grid.n3}"]
    for i, j, k in idx:
        c = field.c[i, j, k]
        lines.append(
            f"{K1[i, j, k]} {K2[i, j, k]} {K3[i, j, k]} "
            f"{c.real:.17g} {c.imag:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_snapshot(path):
    """Read a field written by :func:`write_snapshot`.

    Every line must name a distinct in-band wavevector with k3 >= 0 and a
    finite coefficient, and the k3 = 0 plane must be exactly
    conjugate-symmetric: each entry (k1, k2, 0) needs its mirror
    (-k1, -k2, 0) holding exactly its conjugate, and (0, 0, 0) must be real.
    Anything else raises :class:`SnapshotFormatError` with the offending
    line number.
    """
    with open(path) as fh:
        raw = [(lineno, ln.strip()) for lineno, ln in enumerate(fh, start=1)
               if ln.strip()]
    if not raw:
        raise SnapshotFormatError(f"{path}: empty snapshot")
    head = raw[0][1].split()
    if len(head) != 5 or head[0] != _SNAPSHOT_MAGIC or head[1] != _SNAPSHOT_VERSION:
        raise SnapshotFormatError(f"{path}: bad header {raw[0][1]!r}")
    try:
        n1, n2, n3 = (int(t) for t in head[2:])
        grid = Grid(n1, n2, n3)
    except ValueError as exc:
        raise SnapshotFormatError(f"{path}: bad grid in header: {exc}") from exc
    b1, b2, b3 = grid.band
    f = SpectralField.zeros(grid)
    seen = {}
    for lineno, line in raw[1:]:
        parts = line.split()
        if len(parts) != 5:
            raise SnapshotFormatError(
                f"{path}:{lineno}: expected 'k1 k2 k3 re im', got {line!r}")
        try:
            k1, k2, k3 = int(parts[0]), int(parts[1]), int(parts[2])
            re, im = float(parts[3]), float(parts[4])
        except ValueError as exc:
            raise SnapshotFormatError(f"{path}:{lineno}: {exc}") from exc
        if k3 < 0 or k3 > b3 or abs(k1) > b1 or abs(k2) > b2:
            raise SnapshotFormatError(
                f"{path}:{lineno}: wavevector ({k1},{k2},{k3}) outside the "
                f"dealias band {grid.band} (k3 >= 0) of grid {grid.shape}")
        if not (math.isfinite(re) and math.isfinite(im)):
            raise SnapshotFormatError(
                f"{path}:{lineno}: non-finite coefficient {re!r} {im!r}")
        if (k1, k2, k3) in seen:
            raise SnapshotFormatError(
                f"{path}:{lineno}: wavevector ({k1},{k2},{k3}) repeats "
                f"line {seen[k1, k2, k3]}")
        seen[k1, k2, k3] = lineno
        f.c[k1 % n1, k2 % n2, k3] = complex(re, im)
    for (k1, k2, k3), lineno in seen.items():
        if k3 != 0:
            continue
        value = f.c[k1 % n1, k2 % n2, 0]
        where = f"{path}:{lineno}: k3 = 0 entry ({k1},{k2},0) = {value}"
        if (k1, k2) == (0, 0):
            if value.imag != 0.0:
                raise SnapshotFormatError(f"{where} is not real")
        elif (-k1, -k2, 0) not in seen:
            raise SnapshotFormatError(
                f"{where} has no conjugate mirror ({-k1},{-k2},0)")
        elif f.c[-k1 % n1, -k2 % n2, 0] != np.conj(value):
            raise SnapshotFormatError(
                f"{where} is not the conjugate of its mirror ({-k1},{-k2},0) "
                f"on line {seen[-k1, -k2, 0]}")
    return f
