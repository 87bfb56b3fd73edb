"""Real scalar fields on the periodic box [0, 2*pi)^3, stored on the dealias band.

A field is represented by its Fourier coefficients c(k) with

    theta(x) = sum_k c(k) exp(i k . x),        c(-k) = conj(c(k)),

and every field is band-limited under the two-thirds rule |k_i| < n_i / 3,
``|k_i| <= b_i = (n_i - 1) // 3``: a product of two band modes reaches
2 b_i, which aliases on n_i points to 2 b_i - n_i < -b_i, outside the band,
so products are dealiased exactly.  The coefficients live in the band layout of
shape ``grid.band_shape`` = ``(2 b1 + 1, 2 b2 + 1, b3 + 1)``: the last axis
keeps only the representatives 0 <= k3 <= b3, and the first two axes carry
signed wavenumbers in fft order (0, 1, ..., b, -b, ..., -1).  The band and
nothing else is stored, so no coefficient outside it can exist.  The
conjugate mirror (-k1, -k2) is the index map i -> -i modulo the axis
length.  Coefficients are the mathematical ones (numpy's ``rfftn`` output
divided by the number of grid points); :func:`dealias_mask` marks the band
on the ``rfftn`` layout, so ``full[dealias_mask(grid)].reshape(
grid.band_shape)`` is the band of a full ``rfftn`` array.

Each 1-D pass of the transforms is one product with a dense DFT matrix,
cached per axis size and band length, from an axis's samples straight to
its band entries (:func:`forward`) or back (:func:`inverse`); its entries
come from the exact integer phase 2 pi ((k l) mod n) / n, and the x3 pass
is a real product on the interleaved (re, im) view of the band.  The
k3 = 0 plane is symmetrized exactly on the way in: evenness checks and
conjugate-pair lookups then hold to the last bit, not merely to rounding.
:func:`inverse` also takes a stack of fields, an array of shape
``(..., *band_shape)``: its passes run on the last three axes, so a stack
costs one call, not one per field, and each field's samples are the ones
a call of its own gives, bit for bit.  Both transforms write through work
arrays kept per grid, stack shape and thread.

A :class:`Grid` is the layout of a field confined to a :class:`Sublattice`
(a plane, or diag(s1, s2) with a vertical stride); ``Grid(n1, n2, n3)`` is
the whole lattice diag(1, 1) with stride 1, the grid itself, and every
other layout runs through the same transforms and cached wavenumber arrays;
a pass of length one, such as a plane's x2 pass, is skipped.  A layout
samples where the grid does, and a restricted one steps on sizes of its
own band (see :class:`Grid`).

Norms and inner products are computed spectrally by one Parseval kernel,
:func:`parseval`, with the conjugate-pair weight (2 for k3 > 0, 1 on the
k3 = 0 plane; the band never reaches the Nyquist plane k3 = n3 / 2) and
|k|^(2 s) from :func:`ksq_power`.  :class:`PlaneSpec` lives in ``symbol``
and is re-exported here.
"""

import copy
import math
import threading
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from types import SimpleNamespace

import numpy as np

from .config import number_literal
from .errors import SnapshotFormatError
from .symbol import PlaneSpec, _validate_mode, symbol_components

TORUS_VOLUME = (2.0 * np.pi) ** 3

_SNAPSHOT_MAGIC = "MGFIELD"
_SNAPSHOT_VERSION = "v1"
_SNAPSHOT_DROP = 1e-16  # coefficients below this magnitude are not written


@dataclass(frozen=True)
class Sublattice:
    """The wavevectors j1 c1 + j2 c2 + (0, 0, s3 j3), j integer.

    ``basis`` holds the horizontal columns c: one, (q_den, q_num), for the
    plane q_den k2 = q_num k1, or the two of diag(s1, s2).  Any other
    basis, and a stride below 1, raise ValueError.
    """

    basis: tuple
    s3: int = 1

    def __post_init__(self):
        cols = tuple(map(tuple, self.basis))
        object.__setattr__(self, "basis", cols)
        _validate_mode(s3=self.s3)
        if [len(c) for c in cols] == [2]:
            PlaneSpec(cols[0][1], cols[0][0])  # its checks of the ratio
        elif [len(c) for c in cols] != [2, 2] or cols[0][1] or cols[1][0]:
            raise ValueError(f"sublattice basis {cols!r} is neither one "
                             f"plane column (q_den, q_num) nor diag(s1, s2)")
        else:
            _validate_mode(s1=cols[0][0], s2=cols[1][1])

    @classmethod
    def of_plane(cls, plane):
        return cls(((plane.q_den, plane.q_num),))

    @classmethod
    def diag(cls, s1, s2, s3=1):
        return cls(((s1, 0), (0, s2)), s3)

    @property
    def plane(self):
        """The plane of a one-column basis, else None."""
        (q_den, q_num), *diag = self.basis
        return None if diag else PlaneSpec(q_num, q_den)


WHOLE_LATTICE = Sublattice.diag(1, 1)


def _axis(sizes, bands, col):
    """(size, band) of a layout axis along the basis column ``col``: the
    number of values its coordinate takes on the grid, lcm over c_i != 0 of
    n_i / gcd(n_i, c_i), and min b_i // |c_i|.  The size is where the
    layout samples; it steps on ``_step_size`` of the two."""
    axis = [(n, b, abs(c)) for n, b, c in zip(sizes, bands, col) if c]
    return (math.lcm(*(n // math.gcd(n, c) for n, _, c in axis)),
            min(b // c for _, b, c in axis))


def _step_size(size, band):
    """The smallest even 5-smooth n > 3 band, which dealiases the band
    exactly, capped at ``size``; one sample for band 0."""
    if band == 0:
        return 1
    n = 3 * band + 2 - band % 2
    while pow(30, n, n):  # n divides 30^n iff its primes are 2, 3 and 5
        n += 2
    return min(n, size)


@dataclass(frozen=True)
class Grid:
    """The layout of a field on the grid n1 x n2 x n3 confined to a
    :class:`Sublattice`; by default the whole lattice, the grid itself.

    Sizes must be even and at least 8 so that the two-thirds dealias band
    is non-trivial in every direction.  The coefficient at lattice
    coordinates (j1, j2, j3) is stored at that index, and
    :func:`wavenumbers` returns the basis images, so every kernel runs
    unchanged on any layout (a plane keeps its x2 axis, with length one).
    Each coordinate takes ``_axis``'s number of values on the grid, each
    equally often; ``shape`` holds those sizes, so the grid's samples are
    the layout's repeated and the grid's forward coefficient at an in-band
    lattice wavevector is the layout's, aliases included.  ``gather`` and
    ``scatter`` move the lattice's coefficients to and from the band of
    the whole lattice.

    A restricted layout steps on sizes of its own band, ``step_shape``
    (``_step_size`` on each axis): its dealiasing needs no more, and
    products are exact there as on ``shape``.  ``stepping`` is the layout
    sampled on those sizes; it holds the same coefficients, so it equals
    the layout, and it is the layout itself where the sizes agree (always
    on the whole lattice).  Caches whose arrays have a sample shape keep
    one entry per shape (``_PerShape``).
    """

    n1: int
    n2: int
    n3: int
    lattice: Sublattice = WHOLE_LATTICE
    shape: tuple = field(init=False, repr=False, compare=False)
    band: tuple = field(init=False, repr=False, compare=False)
    step_shape: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("n1", "n2", "n3"):
            n = getattr(self, name)
            if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
                raise ValueError(f"{name} must be an integer, got {n!r}")
            if n < 8 or n % 2 != 0:
                raise ValueError(f"{name} must be even and >= 8, got {n}")
        if not isinstance(self.lattice, Sublattice):
            raise ValueError(f"lattice must be a Sublattice, "
                             f"got {self.lattice!r}")
        sizes = (self.n1, self.n2, self.n3)
        b1, b2, b3 = ((n - 1) // 3 for n in sizes)
        axes = [_axis(sizes[:2], (b1, b2), c) for c in self.lattice.basis]
        axes = [*axes, (1, 0)][:2] + [_axis(sizes[2:], (b3,),
                                            (self.lattice.s3,))]
        object.__setattr__(self, "shape", tuple(n for n, _ in axes))
        object.__setattr__(self, "band", tuple(b for _, b in axes))
        object.__setattr__(self, "step_shape", self.shape
                           if self.lattice == WHOLE_LATTICE
                           else tuple(_step_size(n, b) for n, b in axes))

    def __str__(self):
        if self.lattice == WHOLE_LATTICE:
            return f"Grid(n1={self.n1}, n2={self.n2}, n3={self.n3})"
        return f"{'x'.join(map(str, self.shape))} on {self.lattice}"

    @property
    def whole(self):
        """The layout of the whole lattice on the same grid."""
        return replace(self, lattice=WHOLE_LATTICE)

    @cached_property
    def stepping(self):
        """This layout sampled on ``step_shape`` (see the class docstring);
        a copy, so ``replace`` and ``whole`` build layouts that sample."""
        if self.shape == self.step_shape:
            return self
        stepping = copy.copy(self)
        object.__setattr__(stepping, "shape", self.step_shape)
        return stepping

    @property
    def spectral_shape(self):
        """Shape of numpy's full ``rfftn`` layout (see :func:`dealias_mask`)."""
        return (*self.shape[:2], self.shape[2] // 2 + 1)

    @property
    def band_shape(self):
        """Shape of the coefficient arrays (see the module docstring)."""
        b1, b2, b3 = self.band
        return (2 * b1 + 1, 2 * b2 + 1, b3 + 1)

    def axes(self):
        return tuple(
            np.arange(n) * (2.0 * np.pi / n) for n in self.shape
        )

    @cached_property
    def index(self):
        """Flat indices on the whole band of the layout's wavevectors."""
        r1, r2, p3 = self.whole.band_shape
        K1, K2, K3 = wavenumbers(self)
        return (K1 % r1 * r2 + K2 % r2) * p3 + K3

    def gather(self, c):
        """A new array of the lattice coefficients of the whole band ``c``."""
        return np.take(c, self.index)

    def scatter(self, c):
        """A new band array of the whole lattice holding this layout's ``c``."""
        out = np.zeros(self.whole.band_shape, dtype=np.complex128)
        np.put(out, self.index, c)
        return out


@lru_cache(maxsize=None)
def wavenumbers(grid):
    """Integer wavenumber arrays (K1, K2, K3) broadcast over the band: the
    basis images of the layout's own (j1, j2, j3)."""
    r1, r2, p3 = grid.band_shape
    j1 = np.fft.fftfreq(r1, d=1.0 / r1).astype(np.int64)[:, None, None]
    j2 = np.fft.fftfreq(r2, d=1.0 / r2).astype(np.int64)[None, :, None]
    j3 = np.arange(p3, dtype=np.int64)[None, None, :]
    (a1, a2), *diag = grid.lattice.basis
    return (a1 * j1, diag[0][1] * j2 if diag else a2 * j1,
            grid.lattice.s3 * j3)


@lru_cache(maxsize=None)
def ksq_array(grid):
    K1, K2, K3 = wavenumbers(grid)
    return (K1 * K1 + K2 * K2 + K3 * K3).astype(np.float64)


@lru_cache(maxsize=None)
def ksq_power(grid, s):
    """|k|^(2 s) on the band, 0 at k = 0."""
    ksq = ksq_array(grid)
    return np.where(ksq > 0.0, np.where(ksq > 0.0, ksq, 1.0) ** s, 0.0)


def dealias_mask(grid):
    """The band on numpy's full ``rfftn`` layout ``grid.spectral_shape``
    (not cached: it has the layout's sample shape)."""
    n1, n2, p3 = grid.spectral_shape
    b1, b2, b3 = grid.band
    k1 = np.abs(np.fft.fftfreq(n1, d=1.0 / n1)) <= b1
    k2 = np.abs(np.fft.fftfreq(n2, d=1.0 / n2)) <= b2
    k3 = np.arange(p3) <= b3
    return k1[:, None, None] & k2[None, :, None] & k3[None, None, :]


@lru_cache(maxsize=None)
def mode_weights(grid):
    """Conjugate-pair multiplicity of each stored representative."""
    w = np.full(grid.band_shape, 2.0)
    w[:, :, 0] = 1.0
    return w


@lru_cache(maxsize=None)
def multiplier_arrays(grid, n2_phys):
    """The three multiplier components sampled on the stored wavenumbers."""
    return symbol_components(*wavenumbers(grid), n2_phys)


@lru_cache(maxsize=None)
def _mirror(r1, r2):
    """The index of (-k1, -k2) on an r1 x r2 plane, for ``_conjugate_plane``."""
    return np.ix_((-np.arange(r1)) % r1, (-np.arange(r2)) % r2)


def _conjugate_plane(plane):
    """conj of a k3 plane (or a stack of them) evaluated at (-k1, -k2)."""
    return np.conj(plane[_mirror(*plane.shape[:2])])


class _PerShape(dict):
    """Arrays keyed by sample shape, built by ``build(shape)`` on first use.

    A layout and its stepping layout are equal, so a cache keyed by the
    layout returns one of these and each looks up its own ``grid.shape``.
    """

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, shape):
        self[shape] = arrays = self.build(shape)
        return arrays


@lru_cache(maxsize=None)
def _axis_dft(n, r):
    """(to_band, to_samples) of an x1 or x2 pass between n samples l and r
    band entries k (fft order): exp(-2 pi i k l / n) / n at [k, l] and
    exp(2 pi i k l / n) at [l, k], each from the exact phase (k l) mod n."""
    phase = np.arange(n)[:, None] * ((np.arange(r) + r // 2) % r - r // 2)
    to_samples = np.exp(1j * (2.0 * np.pi * (phase % n) / n))
    return to_samples.conj().T / n, to_samples


@lru_cache(maxsize=None)
def _x3_dft(n, p):
    """(to_band, to_samples) of the x3 pass between n real samples and the
    entries k3 = 0, ..., p - 1 as interleaved (re, im) pairs, of shapes
    (n, 2 p) and (2 p, n).  ``to_samples`` counts each k3 > 0 twice (for
    its conjugate) and drops the imaginary part at k3 = 0."""
    e = _axis_dft(n, 2 * p - 1)[1][:, :p]
    pairs = np.stack([e.real, -e.imag], axis=-1).reshape(n, 2 * p)
    return pairs / n, (pairs * np.where(np.arange(2 * p) > 1, 2.0, 1.0)).T


@lru_cache(maxsize=None)
def _work(grid, thread, *lead):
    """The arrays the passes of both transforms write into, on the band in
    k3 (``band3``) or in k1 and k3 (``band13``): of one field, or with the
    leading axes ``lead`` of a stack; one set per sample shape
    (``_PerShape``) and thread, and no transform returns one of them."""
    r1, _, p3 = grid.band_shape
    return _PerShape(lambda shape: SimpleNamespace(
        band3=np.empty(lead + (*shape[:2], p3), dtype=np.complex128),
        band13=np.empty(lead + (r1, shape[1], p3), dtype=np.complex128)))


def forward(grid, values, out=None):
    """Physical samples -> dealiased mathematical coefficients, into
    ``out`` when given: the x3 (real), x1 and x2 passes, in that order.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape != grid.shape:
        raise ValueError(
            f"values shape {values.shape} does not match grid {grid.shape}")
    w = _work(grid, threading.get_ident())[grid.shape]
    (r1, r2, p3), (n1, n2, n3) = grid.band_shape, grid.shape
    if out is None:
        out = np.empty(grid.band_shape, dtype=np.complex128)
    np.matmul(values.reshape(n1 * n2, n3), _x3_dft(n3, p3)[0],
              out=w.band3.view(np.float64).reshape(n1 * n2, 2 * p3))
    x1 = out[:, 0, :] if n2 == 1 else w.band13.reshape(r1, n2 * p3)
    np.matmul(_axis_dft(n1, r1)[0], w.band3.reshape(n1, n2 * p3), out=x1)
    if n2 > 1:  # a pass of length one is the identity
        np.matmul(_axis_dft(n2, r2)[0], w.band13, out=out)
    plane = out[:, :, 0]
    out[:, :, 0] = 0.5 * (plane + _conjugate_plane(plane))
    return out


def inverse(grid, coeffs, out=None):
    """Mathematical coefficients on the band -> physical samples.

    ``coeffs`` holds one field, of shape ``grid.band_shape``, or a stack of
    them, of shape ``(..., *grid.band_shape)``; the samples have shape
    ``(..., *grid.shape)``, into ``out`` when given (C-contiguous).  The
    passes are x2, x1 and x3, one real product over the whole stack.
    """
    lead = coeffs.shape[:-3]
    if coeffs.shape[-3:] != grid.band_shape:
        raise ValueError(
            f"coefficient array of shape {coeffs.shape} does not match the "
            f"band {grid.band_shape} of grid {grid.shape}")
    out = np.empty(lead + grid.shape) if out is None else out
    if out.shape != lead + grid.shape or not out.flags.c_contiguous:
        raise ValueError(f"out of shape {out.shape} is not a C-contiguous "
                         f"array of shape {lead + grid.shape}")
    w = _work(grid, threading.get_ident(), *lead)[grid.shape]
    (r1, r2, p3), (n1, n2, n3) = grid.band_shape, grid.shape
    if n2 > 1:  # a pass of length one is the identity
        coeffs = np.matmul(_axis_dft(n2, r2)[1], coeffs, out=w.band13)
    np.matmul(_axis_dft(n1, r1)[1], coeffs.reshape(*lead, r1, n2 * p3),
              out=w.band3.reshape(*lead, n1, n2 * p3))
    np.matmul(w.band3.view(np.float64).reshape(-1, 2 * p3),
              _x3_dft(n3, p3)[1], out=out.reshape(-1, n3))
    return out


@dataclass
class SpectralField:
    """A real scalar field held as its coefficients on the dealias band.

    Construction rejects an array of any shape but ``grid.band_shape`` and
    a non-numeric array; ``c`` is converted to complex128 (without a copy
    when it already is).
    """

    grid: Grid
    c: np.ndarray

    def __post_init__(self):
        grid, c = self.grid, np.asarray(self.c)
        if c.shape != grid.band_shape:
            raise ValueError(
                f"coefficient array of shape {c.shape} does not match the "
                f"band {grid.band_shape} of grid {grid.shape}")
        if not np.issubdtype(c.dtype, np.number):
            raise ValueError(
                f"coefficient array of dtype {c.dtype} is not numeric")
        self.c = c.astype(np.complex128, copy=False)

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.band_shape, dtype=np.complex128))

    @classmethod
    def from_values(cls, grid, values):
        return cls(grid, forward(grid, values))

    def values(self):
        return inverse(self.grid, self.c)

    def _index(self, k1, k2, k3):
        """Array index of broadcast wavevectors, and which are in band.

        Only the whole lattice stores a wavevector at its own index, so a
        restricted layout raises ValueError naming it.
        """
        if self.grid.lattice != WHOLE_LATTICE:
            raise ValueError(f"wavevector lookup on the layout {self.grid}; "
                             f"coefficients are addressed by wavevector only "
                             f"on the whole grid")
        (b1, b2, b3), (r1, r2, _) = self.grid.band, self.c.shape
        k1, k2, k3 = np.broadcast_arrays(k1, k2, k3)
        inband = ((0 <= k3) & (k3 <= b3) & (np.abs(k1) <= b1)
                  & (np.abs(k2) <= b2))
        return (k1 % r1, k2 % r2, k3), inband

    def coeff(self, k1, k2, k3):
        """Mathematical coefficient at an arbitrary integer wavevector.

        Wavevectors with k3 < 0 are resolved through conjugate symmetry.
        Out-of-band wavevectors simply return 0.
        """
        if k3 < 0:
            return np.conj(self.coeff(-k1, -k2, -k3))
        index, inband = self._index(k1, k2, k3)
        return complex(self.c[index]) if inband else 0.0 + 0.0j

    def set_coeff(self, k1, k2, k3, value):
        """Set coefficients at in-band wavevectors with k3 >= 0.

        The components and ``value`` broadcast together; ValueError names
        the first wavevector outside the band.  The caller is responsible
        for the conjugate entry when k3 = 0.
        """
        ks = np.broadcast_arrays(k1, k2, k3)
        index, inband = self._index(*ks)
        if not inband.all():
            k1, k2, k3 = (int(k[~inband][0]) for k in ks)
            raise ValueError(f"wavevector ({k1},{k2},{k3}) outside dealias band")
        self.c[index] = value

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


def parseval(grid, a, b=None, weight=1.0):
    """Parseval sum (2 pi)^3 sum_k weight(k) Re(a(k) conj(b(k))) over all k.

    With ``b`` absent the summand is |a|^2 (not rounded as Re(a conj(a))).
    """
    prod = np.abs(a) ** 2 if b is None else (a * np.conj(b)).real
    return TORUS_VOLUME * float(np.sum(mode_weights(grid) * weight * prod))


def l2_norm(field):
    return math.sqrt(parseval(field.grid, field.c))


def linf_norm(field):
    v = field.values()
    return float(max(v.max(), -v.min()))


def hs_norm(field, s):
    """Homogeneous Sobolev seminorm of order s (s = 0 recovers the L2 norm)."""
    weight = 1.0 if s == 0 else ksq_power(field.grid, s)
    return math.sqrt(parseval(field.grid, field.c, weight=weight))


@lru_cache(maxsize=None)
def plane_mask(grid, plane):
    K1, K2, _ = wavenumbers(grid)
    return np.broadcast_to(plane.contains(K1, K2), grid.band_shape).copy()


def off_plane_norm(field, plane):
    """L2 norm of the component supported off the plane."""
    return math.sqrt(parseval(field.grid, field.c,
                              weight=~plane_mask(field.grid, plane)))


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


def write_snapshot(field, path):
    """Write the nonzero representatives as a plain-text table."""
    grid = field.grid
    K1, K2, K3 = (np.broadcast_to(a, grid.band_shape)
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
    line number.  The header's grid is allocated only once every line has
    passed; a grid too large to allocate raises it too, naming the header.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = [(lineno, ln.strip()) for lineno, ln in enumerate(fh, start=1)
                   if ln.strip()]
    except UnicodeDecodeError as exc:
        raise SnapshotFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    if not raw:
        raise SnapshotFormatError(f"{path}: empty snapshot")
    head = raw[0][1].split()
    if len(head) != 5 or head[0] != _SNAPSHOT_MAGIC or head[1] != _SNAPSHOT_VERSION:
        raise SnapshotFormatError(f"{path}: bad header {raw[0][1]!r}")
    try:
        n1, n2, n3 = (number_literal(int, t) for t in head[2:])
        grid = Grid(n1, n2, n3)
    except ValueError as exc:
        raise SnapshotFormatError(f"{path}: bad grid in header: {exc}") from exc
    b1, b2, b3 = grid.band
    seen = {}  # wavevector -> (line number, coefficient)
    for lineno, line in raw[1:]:
        parts = line.split()
        if len(parts) != 5:
            raise SnapshotFormatError(
                f"{path}:{lineno}: expected 'k1 k2 k3 re im', got {line!r}")
        try:
            k1, k2, k3 = (number_literal(int, t) for t in parts[:3])
            re, im = (number_literal(float, t) for t in parts[3:])
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
                f"line {seen[k1, k2, k3][0]}")
        seen[k1, k2, k3] = lineno, complex(re, im)
    for (k1, k2, k3), (lineno, value) in seen.items():
        if k3 != 0:
            continue
        where = f"{path}:{lineno}: k3 = 0 entry ({k1},{k2},0) = {value}"
        if (k1, k2) == (0, 0):
            if value.imag != 0.0:
                raise SnapshotFormatError(f"{where} is not real")
        elif (-k1, -k2, 0) not in seen:
            raise SnapshotFormatError(
                f"{where} has no conjugate mirror ({-k1},{-k2},0)")
        elif seen[-k1, -k2, 0][1] != value.conjugate():
            raise SnapshotFormatError(
                f"{where} is not the conjugate of its mirror ({-k1},{-k2},0) "
                f"on line {seen[-k1, -k2, 0][0]}")
    try:  # only now, with every line valid, is the grid allocated
        f = SpectralField.zeros(grid)
    except MemoryError as exc:
        raise SnapshotFormatError(
            f"{path}: header {raw[0][1]!r} names a grid too large to "
            f"allocate") from exc
    f.set_coeff(*np.array(list(seen), dtype=int).reshape(-1, 3).T,
                [value for _, value in seen.values()])
    return f
