"""Schwinger su(2) collective observables and the double-well Bose-Hubbard Hamiltonian.

Every sector operator comes from :func:`ladder`, the band of a monomial.  The observables
are tridiagonal in the ascending Fock basis of :mod:`modefisher.fock`: a
:class:`CollectiveObservable` holds the J_z or number diagonal and the J_+ band, applies
itself to a vector in O(N) and builds the dense matrix only when `.matrix` is read.
:func:`apply_u2` applies the sector's image Gamma(U) of a 2x2 mode mixing U in U(2) to a
vector, from U's determinant phase and Euler angles and the real eigenbasis V of J_x, and
:func:`u2_image` forms Gamma(U) from the same angles with one product of V: every frame
change, rotation at one angle and J_n's eigenbasis (:func:`eigenbasis`) go through them.
:class:`Propagator` applies exp(i theta J_n), built from the axis n, without forming a matrix.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

DIRECTION_NORM_TOL = 1e-6
# how far from 1 an entry of U^dag U may be for a 2x2 mode mixing U to be taken as unitary
UNITARITY_TOL = 1e-12


@dataclass(frozen=True)
class Direction:
    """Unit vector picking the rotation generator n_x Jx + n_y Jy + n_z Jz.

    Components within 1e-6 of unit norm are renormalized on construction;
    anything further off, or any non-finite component, is rejected.
    """

    n_x: float
    n_y: float
    n_z: float

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.n_x, self.n_y, self.n_z)):
            raise ValueError("direction components must be finite")
        try:
            norm = math.sqrt(self.n_x ** 2 + self.n_y ** 2 + self.n_z ** 2)
        except OverflowError:  # a component past 1e154, nowhere near unit norm
            norm = math.inf
        if abs(norm - 1.0) > DIRECTION_NORM_TOL:
            raise ValueError(f"direction must be a unit vector, got norm {norm:.8g}")
        object.__setattr__(self, "n_x", self.n_x / norm)
        object.__setattr__(self, "n_y", self.n_y / norm)
        object.__setattr__(self, "n_z", self.n_z / norm)

    @classmethod
    def in_plane(cls, phi: float) -> "Direction":
        """n = (cos phi, sin phi, 0), the xy-plane direction at azimuth phi."""
        return cls(math.cos(phi), math.sin(phi), 0.0)

    def as_array(self) -> np.ndarray:
        return np.array([self.n_x, self.n_y, self.n_z])

    @property
    def in_plane_weight(self) -> float:
        """n_x^2 + n_y^2, the prefactor of the diagonal-state Fisher information."""
        return self.n_x ** 2 + self.n_y ** 2


def frozen(values, dtype) -> np.ndarray:
    """`values` as a read-only array of `dtype`.

    An array that owns its data, is read-only and has that dtype is kept as it is: the
    caller handed it over, as this package's own builders do.  Anything else, a caller's
    writable array included, is copied, so a later write to it does not reach the copy.
    """
    if (isinstance(values, np.ndarray) and values.base is None and not values.flags.writeable
            and values.dtype == dtype):
        return values
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class CollectiveObservable:
    """A Hermitian tridiagonal (N+1)x(N+1) operator held as its two bands.

    `diagonal` (real, length N+1) is the main diagonal; entry k of `lower` (complex,
    length N) takes |k> to |k+1>, and the band above is its conjugate, so the operator
    is Hermitian by construction.  Both are stored read-only.
    """

    diagonal: np.ndarray
    lower: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.diagonal):
            raise ValueError("the diagonal of a Hermitian observable must be real")
        diagonal, lower = frozen(self.diagonal, float), frozen(self.lower, complex)
        if diagonal.ndim != 1 or lower.shape != (diagonal.size - 1,):
            raise ValueError(f"bands must have lengths N+1 and N, got {diagonal.shape} "
                             f"and {lower.shape}")
        object.__setattr__(self, "diagonal", diagonal)
        object.__setattr__(self, "lower", lower)

    @property
    def n_particles(self) -> int:
        return self.diagonal.size - 1

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The dense matrix: the two bands placed, built on first read and read-only."""
        mat = np.diag(self.diagonal.astype(complex))
        k = np.arange(self.n_particles)
        mat[k + 1, k] = self.lower
        mat[k, k + 1] = self.lower.conj()
        mat.setflags(write=False)
        return mat

    def apply(self, c) -> np.ndarray:
        """The operator times c in O(N) from the two bands, without forming the matrix.

        c is one vector of shape (N+1,) or rows of shape (..., N+1), each multiplied.
        """
        c = np.asarray(c, dtype=complex)
        if c.shape[-1:] != self.diagonal.shape:
            raise ValueError(f"vectors must have shape (..., {self.n_particles + 1}), "
                             f"got {c.shape}")
        out = self.diagonal * c
        out[..., 1:] += self.lower * c[..., :-1]
        out[..., :-1] += self.lower.conj() * c[..., 1:]
        return out


LADDER_CHUNK = 16


def ladder(n_particles: int, m: int, n: int, r: int, s: int) -> np.ndarray:
    """Band of (a1^dag)^m a1^n (a2^dag)^r a2^s on the N-particle sector.

    Entry k is the coefficient taking |k, N-k> to |k-n+m, N-k-s+r>, the square
    root of k(k-1)...(k-n+1) (k-n+1)...(k-n+m) times the same product for mode 2
    from N-k; it is zero where an annihilation empties a mode.  The integer
    factors are multiplied in float LADDER_CHUNK at a time and the square roots
    of these partial products multiplied, so a coefficient is finite whenever
    its value fits in a double; past that this raises ValueError.
    """
    if n_particles < 0:
        raise ValueError(f"n_particles must be >= 0, got {n_particles}")
    if min(m, n, r, s) < 0:
        raise ValueError("monomial exponents must be nonnegative")
    k = np.arange(n, n_particles - s + 1, dtype=float)
    rest = n_particles - k
    # one row per integer factor; the leading row of ones keeps reduceat defined without factors
    factors = np.vstack([np.ones_like(k), k - np.arange(n)[:, None],
                         k - n + np.arange(1, m + 1)[:, None], rest - np.arange(s)[:, None],
                         rest - s + np.arange(1, r + 1)[:, None]])
    with np.errstate(over="ignore"):
        chunks = np.multiply.reduceat(factors, np.arange(0, len(factors), LADDER_CHUNK), axis=0)
        coeff = np.sqrt(chunks).prod(axis=0)
    if not np.isfinite(coeff).all():
        raise ValueError(f"ladder coefficient of (a1^dag)^{m} a1^{n} (a2^dag)^{r} a2^{s} "
                         f"at N={n_particles} exceeds double range")
    band = np.zeros(n_particles + 1)
    band[n:n + len(k)] = coeff
    return band


class _Sector:
    """The direction-free data of the N-particle sector, every array read-only.

    `k` is 0..N; `jz` is the J_z diagonal k - N/2, which is exactly the spectrum of every
    J_n; `raising` is the J_+ = a1^dag a2 subdiagonal sqrt((k+1)(N-k)).  `jx_eigenvectors`
    is built on first read, so a caller that needs only the bands runs no `eigh`.  :func:`_sector` caches one per N
    below PROPAGATOR_MIN_N and hands the same arrays to every caller.
    """

    def __init__(self, n_particles: int):
        if n_particles < 0:
            raise ValueError(f"n_particles must be >= 0, got {n_particles}")
        self.n_particles = n_particles
        self.k = np.arange(n_particles + 1)
        # exact integer products below 2^53, so the same bits as `ladder`'s band
        self.raising = np.sqrt((self.k[:-1] + 1.0) * (n_particles - self.k[:-1]))
        self.jz = self.k - n_particles / 2.0
        for band in (self.raising, self.k, self.jz):
            band.setflags(write=False)

    @functools.cached_property
    def jx_eigenvectors(self) -> np.ndarray:
        """Real orthogonal V with J_x = V diag(k - N/2) V^T, from one real `eigh`.

        J_x commutes with the mode swap k -> N - k, under which column k has parity (-1)^(N-k);
        imposing it exactly removes the rounding of the other parity, about half of
        max|J_n Q - Q Lambda|.
        """
        v = np.linalg.eigh(np.diag(0.5 * self.raising, -1))[1]
        parity = (-1.0) ** (self.n_particles - self.k)
        v = 0.5 * (v + parity * v[::-1])
        v.setflags(write=False)
        return v


# an entry is three arrays of at most 250 entries and, once read, V of at most 0.5 MB, so
# the cache holds at most 4 MB
_cached_sector = functools.lru_cache(maxsize=8)(_Sector)


def _sector(n_particles: int) -> _Sector:
    """The sector's data: cached below PROPAGATOR_MIN_N, built per call from it on."""
    return (_Sector if uses_propagator(n_particles) else _cached_sector)(n_particles)


def su2_bands(n_particles: int) -> tuple[np.ndarray, np.ndarray]:
    """The J_z diagonal (2k-N)/2 and the J_+ = a1^dag a2 subdiagonal sqrt((k+1)(N-k)),
    read-only; cached below PROPAGATOR_MIN_N."""
    sector = _sector(n_particles)
    return sector.jz, sector.raising


def schwinger(n_particles: int):
    """The collective pseudo-spin triple (Jx, Jy, Jz) on the N-particle sector."""
    return tuple(direction_generator(n_particles, Direction(*axis))
                 for axis in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))


def direction_generator(n_particles: int, n: Direction) -> CollectiveObservable:
    """J_n = n_x Jx + n_y Jy + n_z Jz: the diagonal n_z J_z and the lower band
    (n_x - i n_y) J_+ / 2."""
    jz, raising = su2_bands(n_particles)
    bands = n.n_z * jz, (n.n_x - 1j * n.n_y) * (0.5 * raising)
    for band in bands:  # new arrays, handed over read-only rather than copied
        band.setflags(write=False)
    return CollectiveObservable(*bands)


def _euler_phases(u, sector: _Sector):
    """The diagonals e^{i(a+b) J_z}, e^{-i beta J_z} and e^{i chi N} e^{i(a-b) J_z} of the 2x2
    unitary U's reading on the sector, and beta.

    U = e^{i chi} u, chi = arg(det U)/2, u in SU(2), so Gamma(U) = e^{i chi N} Gamma(u), and
    Gamma(u) = e^{-i alpha J_z} e^{-i beta J_x} e^{-i gamma J_z}: u_00 = e^{-i(alpha+gamma)/2}
    cos(beta/2) and i u_10 = e^{i(alpha-gamma)/2} sin(beta/2) give beta in [0, pi] by atan2 and
    alpha -+ gamma by their phases a and b, so U = -1 gives (-1)^N.  Every angle is an atan2, so
    nothing is normalised; a rotation's det U is real and positive to the bit, and chi = 0.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"u must be a 2x2 unitary, got shape {u.shape}")
    u00, u01, u10, u11 = u.ravel().tolist()
    # U^dag U - 1 of a frame change U_new U_old^dag is within 4 UNITARITY_TOL plus rounding, as
    # ModeFrame's mixings are within UNITARITY_TOL (3.15e-12 in 2000 pairs 0.98e-12 off); NaN fails
    if not (abs(abs(u00) ** 2 + abs(u10) ** 2 - 1.0) <= 5.0 * UNITARITY_TOL
            and abs(abs(u01) ** 2 + abs(u11) ** 2 - 1.0) <= 5.0 * UNITARITY_TOL
            and abs(u00.conjugate() * u01 + u10.conjugate() * u11) <= 5.0 * UNITARITY_TOL):
        raise ValueError("u must be a 2x2 unitary")
    chi = 0.5 * cmath.phase(u00 * u11 - u01 * u10)
    # the phases of u_00 and i u_10: alpha = b - a, gamma = -a - b
    a, b = math.atan2(u00.imag, u00.real) - chi, math.atan2(u10.real, -u10.imag) - chi
    beta = 2.0 * math.atan2(abs(u10), abs(u00))
    phases = np.multiply.outer((1j * (a + b), -1j * beta, 1j * (a - b)), sector.jz)
    phases[2] += 1j * chi * sector.n_particles
    right, tilt, left = np.exp(phases, out=phases)
    return right, tilt, left, beta


def apply_u2(u, c) -> np.ndarray:
    """Gamma(U) c for a 2x2 unitary U, without forming Gamma(U); c is one vector of N+1
    amplitudes, and the result a new array.

    Gamma(U) = e^{i chi N} e^{-i alpha J_z} V e^{-i beta Lambda} V^T e^{-i gamma J_z} from U's
    determinant phase and ZXZ Euler angles (:func:`_euler_phases`), with the sector's real
    J_x = V Lambda V^T: two real products of V, cached below PROPAGATOR_MIN_N, with the
    (N+1, 2) real view of a column, O(N^2).  From PROPAGATOR_MIN_N on the middle factor
    e^{-i beta J_x} comes from :func:`propagate` instead: about beta N/2 + 30 banded O(N)
    products with the in-plane J_x, and no (N+1)^2 array.
    """
    c = np.asarray(c, dtype=complex)
    if c.ndim != 1 or not c.size:
        raise ValueError(f"c must be a vector of N+1 amplitudes, got shape {c.shape}")
    n_particles = len(c) - 1
    sector = _sector(n_particles)
    right, tilt, left, beta = _euler_phases(u, sector)
    if uses_propagator(n_particles):
        return left * propagate(n_particles, Direction(1.0, 0.0, 0.0), right * c, -beta)
    v = sector.jx_eigenvectors
    x = np.multiply(right, c).reshape(-1, 1).view(float)  # one column's (N+1, 2) real view
    y = (v.T @ x).view(complex) * tilt[:, None]
    return left * (v @ y.view(float)).view(complex)[:, 0]


def u2_image(u, n_particles: int) -> np.ndarray:
    """Gamma(U), the (N+1)x(N+1) image of a 2x2 unitary U on the N-particle sector, a new
    array, unitary to rounding at any N.

    From the reading of :func:`apply_u2`, Gamma(U) = diag(left) V (e^{-i beta Lambda}
    V^T diag(right)): the bracket scales V^T's rows and columns, and one real
    (N+1) x (N+1) x 2(N+1) product with V forms the rest, O(N^3) time, O(N^2) memory.
    """
    sector = _sector(n_particles)  # raises for N < 0
    right, tilt, left, _ = _euler_phases(u, sector)
    v = sector.jx_eigenvectors
    scaled = np.multiply(v.T, np.multiply.outer(tilt, right), order="C")
    image = (v @ scaled.view(float)).view(complex)
    image *= left[:, None]
    return image


def _su2(u00: complex, u10: complex) -> np.ndarray:
    """The SU(2) matrix [[u_00, -conj(u_10)], [u_10, conj(u_00)]] of first column (u_00, u_10)."""
    return np.array((u00, -u10.conjugate(), u10, u00.conjugate())).reshape(2, 2)


def su2_rotation(n: Direction, theta: float) -> np.ndarray:
    """exp(i theta n.sigma/2) = cos(theta/2) + i sin(theta/2) n.sigma, whose image on the
    sector is exp(i theta J_n)."""
    cos, sin = math.cos(0.5 * theta), math.sin(0.5 * theta)
    return _su2(complex(cos, sin * n.n_z), complex(-sin * n.n_y, sin * n.n_x))


def eigenbasis(n_particles: int, n: Direction) -> np.ndarray:
    """Q with J_n = Q diag(k - N/2) Q^dag: the image of w = e^{-i phi sigma_z/2}
    e^{-i beta sigma_y/2}, which takes z to n, for beta and phi the polar and azimuthal
    angles of n.  Its first column is (e^{-i phi/2} cos(beta/2), e^{i phi/2} sin(beta/2)),
    and :func:`u2_image` forms Q from w."""
    # atan2 keeps beta accurate near the poles, where arccos(n_z) loses digits
    beta = math.atan2(math.hypot(n.n_x, n.n_y), n.n_z)
    phi = math.atan2(n.n_y, n.n_x)
    half = complex(math.cos(0.5 * phi), math.sin(0.5 * phi))
    return u2_image(_su2(half.conjugate() * math.cos(0.5 * beta), half * math.sin(0.5 * beta)),
                    n_particles)


# Pure states of at least this many particles are moved by `apply_u2` propagating about x,
# and rotated over arrays of angles by the Propagator about n, rather than through V; the
# sector's data is no longer cached.  Dense images (`u2_image`) take one product with V at
# every N.  The threshold follows an estimate's crossover (3 trials x 10^4 shots about x, one
# BLAS thread; tables in CHANGES.md).  One move costs two O(N^2) products through V against
# about beta N/2 + 30 banded O(N) products propagated; the step is open in ROADMAP.md.
PROPAGATOR_MIN_N = 250
BESSEL_CUTOFF = 1e-17
CHEBYSHEV_CHUNK = 64


def uses_propagator(n_particles: int) -> bool:
    """Whether a pure state of N particles is rotated matrix-free."""
    return n_particles >= PROPAGATOR_MIN_N


def _bessel_j(x: np.ndarray) -> np.ndarray:
    """J_k(x_i) for k = 0..K-1 by Miller's backward recurrence, one row per x_i.

    The recurrence J_{k-1} = (2k/x) J_k - J_{k+1} starts from 1 just past the order
    K ~ |x| + 11.5 |x|^{1/3} where J_k(x) falls below BESSEL_CUTOFF, and is normalized by
    J_0 + 2 sum J_{2k} = 1.  K is the first order from which every |J_k(x_i)| stays below
    the cutoff.  For |x| < 1e-8 the recurrence would overflow, and the series
    J_0 = 1 - x^2/4, J_1 = x/2, J_2 = x^2/8 is exact in double precision.
    """
    x = np.asarray(x, dtype=float)
    tiny = np.abs(x) < 1e-8
    # each row starts at its own order: a small x started as high as a large one overflows
    starts = (np.abs(x) + 14.0 * np.abs(x) ** (1.0 / 3.0)).astype(int) + 24
    top = int(starts.max(initial=24))
    ratio = np.divide.outer(2.0 * np.arange(top + 1), np.where(tiny, 1.0, x))
    j = np.zeros((top + 2, len(x)))
    j[starts, np.arange(len(x))] = 1.0
    for k in range(top, 0, -1):
        j[k - 1] += ratio[k] * j[k] - j[k + 1]
    j /= j[0] + 2.0 * j[2::2].sum(axis=0)
    j[:, tiny] = 0.0
    j[:3, tiny] = [1.0 - x[tiny] ** 2 / 4, x[tiny] / 2, x[tiny] ** 2 / 8]
    return j[:1 + np.flatnonzero((np.abs(j) >= BESSEL_CUTOFF).any(axis=1)).max(initial=0)].T


class Propagator:
    """exp(i theta J_n) applied to vectors without a matrix, in O(N |theta| N) time, O(N) memory.

    The spectrum of J_n is exactly {-N/2, ..., N/2}, so with A = 2 J_n / N and x = theta N/2
    the Jacobi-Anger series exp(i x A) = J_0(x) + 2 sum_k i^k J_k(x) T_k(A) converges on
    A's spectrum, and each Chebyshev vector T_k(A) c is one banded product with the bands
    of `generator`, J_n as :func:`direction_generator` builds it from (N, n) (Tal-Ezer &
    Kosloff, J. Chem. Phys. 81, 3967 (1984)).  theta is first reduced mod 2 pi with
    exp(2 pi i J_n) = (-1)^N, so a call costs about |theta| N/2 + 30 banded products for
    |theta| <= pi.  Coefficients are computed once per set of angles by :meth:`coefficients`
    and can be reused for every call with those angles.  The series and the reduction rest
    on J_n's spectrum, which is why the propagator takes the axis n and not bands.
    """

    def __init__(self, n_particles: int, n: Direction):
        self.n_particles = n_particles
        self.generator = generator = direction_generator(n_particles, n)
        scale = 4.0 / max(n_particles, 1)  # the bands of 2A
        # an in-plane J_n has a zero diagonal: skipping it saves two of six passes per product
        self._diagonal = generator.diagonal * scale if generator.diagonal.any() else None
        self._lower = generator.lower * scale
        self._upper = self._lower.conj()

    def coefficients(self, theta) -> np.ndarray:
        """Series coefficients (-1)^{Nq} eps_k i^k J_k(x) per angle: shape theta.shape + (K,)."""
        theta = np.asarray(theta, dtype=float)
        if not np.isfinite(theta).all():
            raise ValueError("rotation angles must be finite")
        turns = np.round(theta / (2.0 * math.pi))
        reduced = theta - 2.0 * math.pi * turns
        sign = np.where(np.mod(turns * (self.n_particles % 2), 2.0) == 1.0, -1.0, 1.0)
        bessel = _bessel_j(reduced.ravel() * (0.5 * self.n_particles))
        order = np.arange(bessel.shape[1])
        coef = bessel * np.where(order == 0, 1.0, 2.0) * np.array([1, 1j, -1, -1j])[order % 4]
        return coef.reshape(theta.shape + order.shape) * sign[..., None]

    def apply(self, c, coef) -> np.ndarray:
        """sum_k coef[..., k] T_k(A) c.

        A vector c of shape (N+1,) is rotated to every angle of `coef` (shape S + (K,)),
        giving S + (N+1,); rows c of shape (R, N+1) are each rotated to their own angle
        (coef shape (R, K)), giving (R, N+1).
        """
        c = np.asarray(c, dtype=complex)
        rows = c.reshape(-1, self.n_particles + 1)
        shape = coef.shape[:-1] + (self.n_particles + 1,) if c.ndim == 1 else c.shape
        coef = coef.reshape(len(rows), -1, coef.shape[-1])
        result = np.zeros(shape, dtype=complex)
        out = result.reshape(len(rows), coef.shape[1], self.n_particles + 1)  # a view
        # slots 0 and 1 carry T_{k-2} c and T_{k-1} c into each chunk of Chebyshev vectors
        chunk = np.empty((len(rows), min(CHEBYSHEV_CHUNK, coef.shape[-1]) + 2,
                          self.n_particles + 1), dtype=complex)
        band = np.empty((len(rows), self.n_particles), dtype=complex)
        full = np.empty((len(rows), self.n_particles + 1), dtype=complex)
        for start in range(0, coef.shape[-1], CHEBYSHEV_CHUNK):
            stop = min(start + CHEBYSHEV_CHUNK, coef.shape[-1])
            for k in range(start, stop):
                w, prev = chunk[:, k - start + 2], chunk[:, k - start + 1]
                if k == 0:
                    w[...] = rows
                    continue
                np.multiply(self._lower, prev[:, :-1], out=w[:, 1:])
                w[:, 0] = 0.0
                w[:, :-1] += np.multiply(self._upper, prev[:, 1:], out=band)
                if self._diagonal is not None:
                    w += np.multiply(self._diagonal, prev, out=full)
                if k == 1:
                    w *= 0.5
                else:
                    w -= chunk[:, k - start]
            out += coef[..., start:stop] @ chunk[:, 2:stop - start + 2]
            chunk[:, :2] = chunk[:, stop - start:stop - start + 2]
        return result


def propagate(n_particles: int, n: Direction, c, theta) -> np.ndarray:
    """exp(i theta J_n) c without forming a matrix; see :meth:`Propagator.apply` for shapes."""
    propagator = Propagator(n_particles, n)
    return propagator.apply(c, propagator.coefficients(theta))


def commutator_residual(n_particles: int) -> float:
    """Max-norm residual of the three su(2) relations [J_a, J_b] = i J_c."""
    jx, jy, jz = (o.matrix for o in schwinger(n_particles))
    residual = 0.0
    for a, b, c in ((jx, jy, jz), (jy, jz, jx), (jz, jx, jy)):
        comm = a @ b - b @ a - 1j * c
        if comm.size:
            residual = max(residual, float(np.abs(comm).max()))
    return residual


def bose_hubbard(n_particles: int, eps1: float, eps2: float, u: float, j: float) -> CollectiveObservable:
    """Double-well Bose-Hubbard Hamiltonian with well depths eps1, eps2,
    on-site repulsion u and hopping amplitude j (hopping enters with sign -j).
    """
    if not all(math.isfinite(x) for x in (eps1, eps2, u, j)):
        raise ValueError("couplings must be finite")
    _, raising = su2_bands(n_particles)
    k = np.arange(n_particles + 1)
    diagonal = eps1 * k + eps2 * (n_particles - k) + u * (k ** 2 + (n_particles - k) ** 2)
    return CollectiveObservable(diagonal, -j * raising)  # hopping -j (J_+ + J_-)
