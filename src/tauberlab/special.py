"""Zeta-family evaluators on the half-plane Re(s) > 1, and the one other
special function the package needs.

Everything the transform layer needs reduces to six functions: the Riemann
zeta function and its derivative, the prime zeta function ("sum of p^{-s}
over primes") and its derivative, and the two pole-subtracted remainders

    psi(s)   = zeta(s)/s - 1/(s-1)          (entire through s = 1)
    psi_P(s) = pzeta(s)/s + log(s-1)        (analytic near s = 1)

zeta and zeta' come together from one Euler-Maclaurin summation with four
Bernoulli correction terms, zeta' from the term-differentiated sum. The
Cauchy-circle bound on the derivative's remainder is one power of the
truncation point, c N^{-q}, so its smallest N >= 10 below the requested
tolerance has a closed form (_choose_N; PrecisionError past the term
budget). At equal N that bound is at least the value's, so both numbers
of a batch are certified. The integral tail, half term and Bernoulli
terms together are N^{-s} (N/(s-1) + p_N(s)), with p_N the degree-7
polynomial 1/2 + sum_k B_2k/(2k)! N^{1-2k} s(s+1)...(s+2k-2): its
coefficients and those of p_N' are built once per batch (_em_tail_poly),
and each point takes the one power N^{-s} and two Horner evaluations.

Every batch is an OuterGrid, a list of outer-sum blocks: block g holds
the P x Q points s = a_j + b_i, and a plain array is the one block
a = its points, b = [0]. Since n^{-s} = n^{-a_j} n^{-b_i}, each block
takes the power matrices A of n^{-a} = e^{-a ln n} (P columns) and B of
n^{-b} = e^{-b ln n} (Q columns), which is P + Q exps per n, and one
matrix product A^T [B | -ln n B] gives both power sums, sum n^{-s} and
-sum ln n n^{-s}, at every point; N^{-s} per point likewise comes from
N^{-a} and N^{-b}. The quadrature nodes of the kernel route are one such
grid (a plain block of graded head nodes, and per body gap a block of
panel midpoints plus one scaled Gauss-Legendre rule), and the transforms
hand it through unchanged.
Everything else is chosen once for the whole grid from all its points:
the truncation N of each order, the peel cap M and the Moebius orders.
So a grid's N is the one its largest |t| needs, for every block in it,
and the blocks change no N and no certificate. Every batch builds A and
B in _em_orders, once per block, at the largest N of its orders k (plain
zeta is the one order k = 1, prime_zeta_pair takes its Moebius orders,
below), and gives order k the elementwise k-th powers of their first
N_k - 1 rows: n^{-ka} = (n^{-a})^k, and k s is the grid (k a, k b).
The logs of prime zeta and of psi_P are taken in real arithmetic,
log|w| + i atan2(Im w, Re w) (_log): the principal branch at a tenth of
the cost of numpy's complex log.

prime zeta peels the primes p <= M off the Moebius-log identity
sum_k mu(k)/k * log zeta(ks) (H. Cohen, "High precision computation of
Hardy-Littlewood constants", 1998). With zeta_{>M}(w) = zeta(w) *
prod_{p<=M} (1 - p^{-w}), whose log is sum_{p>M} -log(1 - p^{-w}),

    P(s)  = sum_{p<=M} p^{-s} + sum_{k<=K} mu(k)/k * log zeta_{>M}(ks),
    P'(s) = -sum_{p<=M} ln p p^{-s}
            + sum_{k<=K} mu(k) [zeta'/zeta(ks) + sum_{p<=M} ln p p^{-ks}/(1 - p^{-ks})].

One matrix of p^{-s} = p^{-a} p^{-b} serves every k: p^{-ks} = (p^{-s})^k.
The primes and mu come from a cached sieve of Eratosthenes (_sieve).
M is the smallest of 13, 100, 10^4, 10^5 that certifies the k = 1
logarithm: |Im log zeta_{>M}(s)| <= log zeta_{>M}(sigma) = log zeta(sigma)
+ sum_{p<=M} log(1 - p^{-sigma}), and below pi the principal log of
zeta_{>M}(s) is the branch that is real on (1, oo). M = 13 certifies from
sigma ~ 1.0105 on; closer to 1 than sigma ~ 1.0027 not even M = 10^5
does, and the principal branch is used best-effort with a logged warning.
For k >= 2 the same bound is at most log zeta_{>13}(2) = 0.0166, so the
principal log is the branch. The tail: for Re w >= sigma_w, with
a = M + 1 and x0 = a^{-sigma_w},

    |log zeta_{>M}(w)|, |(log zeta_{>M})'(w)|
        <= x0 (ln a + a (ln a/(sigma_w - 1) + 1/(sigma_w - 1)^2)) / (1 - x0),

of order (M+1)^{1-k sigma} at w = ks, and each term at most (M+1)^{-sigma}
times the one before. K is the smallest order whose dropped terms sum
below abs_tol/2. At sigma = 1.05 and abs_tol 1e-10, M = 13 leaves K = 9,
so the squarefree k = 1, 2, 3, 5, 6, 7, where the unpeeled 2^{-k sigma}
tails needed 22 Moebius terms. A larger M takes fewer orders but peels
more primes. On the 1,184 points of the pnt kernel route (sigma = 1.05)
M = 11 and 13 cost least of the caps from 5 to 100, with the same six
zeta batches (medians over 12 alternating rounds of the best of 5 calls,
on a 2-CPU host, one BLAS thread: 2.27 and 2.30 ms per prime_zeta_pair,
against 3.34 at M = 5, 2.36 at 17 and 3.06 at 100). 11 leads 13 by less
than the spread, and it certifies only from sigma ~ 1.0115, so the cap
stays 13, with 36 (prime, order) pairs. Every call computes P and P'
together (prime_zeta, prime_zeta_deriv and psi_prime_part each take
their part of prime_zeta_pair): the log and zeta'/zeta at each k share
one zeta batch, and at k = 1 it is truncated where the zeta'/zeta
tolerance needs, which also meets the tolerance of the log
(_k1_tolerance). Each order k >= 2 is summed to abs_tol/(8K), so P' is
good to abs_tol, not to rounding: at the 48 head nodes of the pnt kernel
route (sigma = 1.05, |t| <= 0.35, |P'| <= 19) it errs by 4.5e-13 against
30-digit mpmath, and P by 1.6e-14.

Near s = 1, psi switches to its Taylor form from the Stieltjes expansion
of zeta; the constants below were computed once by a float128
Euler-Maclaurin limit at N = 10^7 (sum of log^n k / k minus
log^{n+1} N/(n+1), with tail corrections), not copied from memory.

All evaluators accept a complex scalar, an ndarray (a result of its
shape) or an OuterGrid (a flat result, one value per point), and respect
the Schwarz reflection F(conj s) = conj F(s).

The other one: exp_e1 gives e^w E1(w) on Re w >= 0, w != 0, vectorized,
for the slow_approach transform and for the operators' exact tail,
int_X^inf e^{-w x} / (x - d) dx = e^{-w X} exp_e1(w (X - d)) (from
Abramowitz-Stegun 5.1.1). It sums the power series of E1 for |w| <= 2
and evaluates the continued fraction
e^w E1(w) = 1/(w + 1 - 1^2/(w + 3 - 2^2/(w + 5 - ...))) backward beyond,
each point to the depth its own |w| needs; the fraction also takes
1.25 < |w| <= 2 with |arg w| < 1.2, where the series cancels. Against
30-digit mpmath, on about 11,000 random points of |w| <= 60, it errs by
at most 1.5e-15 relative where the series runs (the worst near |w| = 2
just past arg w = 1.2) and 1.1e-15 where the fraction runs (the worst
near |w| = 1.25).
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import ContractError, DomainError, PrecisionError

__all__ = [
    "OuterGrid",
    "EvalTolerance",
    "DEFAULT_TOL",
    "zeta",
    "zeta_deriv",
    "prime_zeta",
    "prime_zeta_deriv",
    "psi_entire",
    "psi_prime_part",
    "prime_zeta_pair",
    "exp_e1",
]

logger = logging.getLogger(__name__)

# Stieltjes constants, frozen from the dev-time Euler-Maclaurin limit oracle
# (float128, N = 1e7; agrees with the classical values to ~1e-14).
GAMMA_0 = 0.5772156649015329
GAMMA_1 = -0.0728158454836767
GAMMA_2 = -0.009690363192872422
GAMMA_3 = 0.002053834420316883

# B_{2k}/(2k)! for k = 1..4, then the |B_10/10!| constant of the remainder.
_BERN = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0)
_B10_OVER_FACT = 5.0 / 66.0 / 3628800.0

_PSI_SERIES_RADIUS = 1e-3

# peel caps M for the prime-zeta Moebius sum, smallest first (_peel_cap)
_PEEL_CAPS = (13, 100, 10_000, 100_000)

# cells (primes x points) per block of _peel: 16,384 complex values, 256 KB
_PEEL_CELLS = 16_384

# cells of one power-matrix build (_em_orders, every Euler-Maclaurin batch),
# block of _peel or of a step source's sum (transform.source_steps): about
# 4M complex values, 64 MB
_POWER_CELLS = 4_000_000

# hard budget of Euler-Maclaurin terms per evaluation (_choose_N)
_MAX_TERMS = 1_000_000

# e^w E1(w) (exp_e1): the series up to this |w|, its coefficients
# (-1)^{k+1}/(k k!) for k = 25 down to 1 (at w = 2 the k = 25 term is
# 1.8e-18 of E1(2)), and the largest continued-fraction depth
_E1_SERIES_RADIUS = 2.0
# |w| in (1.25, 2] with |arg w| < 1.2 takes the continued fraction: the
# series cancels there (2.3e-15 on (1.25, 1.5]), the fraction at depth 100
# errs by at most 1.1e-15
_E1_SEAM_RADIUS = 1.25
_E1_SEAM_ARG = 1.2
_E1_SERIES = tuple((-1.0) ** (k + 1) / (k * math.factorial(k)) for k in range(25, 0, -1))
_E1_CF_DEPTH_CAP = 100


@dataclass(frozen=True)
class EvalTolerance:
    """Absolute-accuracy request; the term budget is fixed at _MAX_TERMS."""

    abs_tol: float = 1e-10

    def __post_init__(self):
        if not (0.0 < self.abs_tol <= 1e-4):
            raise ContractError("abs_tol must lie in (0, 1e-4]")


DEFAULT_TOL = EvalTolerance()


class OuterGrid:
    """Points given as blocks of outer sums: block g holds the P x Q points
    a[j] + b[i] of its pair (a, b), row j holding a[j] + b, and `points`
    holds every block's points, block after block, flat; a plain array of
    points is the one block (points, [0]). `offsets[g]` is where block g's
    points start in `points`.

    np.asarray gives the flat points, so a closed form written for arrays
    takes a grid unchanged, while the zeta family builds its powers from
    each block's a and b and makes every other choice once over all the
    points (module docstring). Adding a scalar shifts every a; multiplying
    by one scales every a and b."""

    __array_ufunc__ = None  # numpy defers scalar arithmetic to the methods below

    def __init__(self, blocks):
        self.blocks = tuple((np.ravel(a), np.ravel(b)) for a, b in blocks)
        sizes = [a.size * b.size for a, b in self.blocks]
        self.offsets = tuple(itertools.accumulate(sizes[:-1], initial=0))
        self.points = np.concatenate([np.add.outer(a, b).ravel() for a, b in self.blocks] or [np.empty(0)])

    @property
    def shape(self) -> tuple:
        return self.points.shape

    @property
    def size(self) -> int:
        return self.points.size

    def __array__(self, dtype=None, copy=None):
        return self.points.astype(dtype or self.points.dtype)

    def __add__(self, c):
        return OuterGrid((a + c, b) for a, b in self.blocks)

    def __mul__(self, c):
        return OuterGrid((a * c, b * c) for a, b in self.blocks)

    __radd__ = __add__
    __rmul__ = __mul__


def _prep(s):
    """The points of s as a complex OuterGrid (an array as the one block of
    its flattened points) and the shape to restore, () for a scalar;
    enforces the finite, sigma > 1 domain."""
    if isinstance(s, OuterGrid):
        grid, shape = OuterGrid((a.astype(complex), b.astype(complex)) for a, b in s.blocks), s.shape
    else:
        arr = np.asarray(s, dtype=complex)
        grid, shape = OuterGrid([(arr, [0.0])]), arr.shape
    flat = grid.points
    if flat.size:
        if not (np.all(np.isfinite(flat.real)) and np.all(np.isfinite(flat.imag))):
            raise DomainError("s must be finite")
        if np.any(flat.real <= 1.0):
            raise DomainError("evaluation requires Re(s) > 1")
    return grid, shape


def _restore(vals, shape):
    return complex(vals[0]) if shape == () else vals.reshape(shape)


# ---------------------------------------------------------------------------
# Euler-Maclaurin core
# ---------------------------------------------------------------------------


def _remainder_bound(sig_pow: float, sig_prod: float, t: float, N: int) -> float:
    """Rigorous bound on the Euler-Maclaurin remainder after the B_8 term.

    |R| <= |B_10/10!| * |s(s+1)...(s+8)| * N^(-sigma-9) * |s+9|/(sigma+9),
    maximized over a batch via sig_pow = min Re(s) (controls the N power)
    and sig_prod = max Re(s), t = max |Im(s)| (control the products).
    """
    prod = 1.0
    for j in range(9):
        prod *= math.hypot(sig_prod + j, t)
    last = math.hypot(sig_prod + 9.0, t) / (sig_pow + 9.0)
    return _B10_OVER_FACT * prod * last * N ** (-(sig_pow + 9.0))


def _choose_N(flat: np.ndarray, abs_tol: float) -> int:
    """The smallest N >= 10 whose derivative remainder bound meets abs_tol at
    every point of the batch. The bound goes through the Cauchy circle of
    radius 1/2 around each s: twice the value bound at the smallest sigma
    less 1/2 (the N power), the largest sigma plus 1/2 and the largest |t|
    plus 1/2 (the products). At equal N that is at least the value bound, so
    the N certifies zeta and zeta' alike. The bound is c N^{-q}, q = sigma_min
    + 8.5 and c = bound(1), so N = max(10, ceil((c/abs_tol)^{1/q})), the root
    taken in logarithms and moved one step where rounding misplaced it.
    PrecisionError past _MAX_TERMS terms, or once c overflows (|t| ~ 1e31).
    """
    sig_min, sig_max = float(np.min(flat.real)), float(np.max(flat.real))
    t_max = float(np.max(np.abs(flat.imag)))

    def bound(n):
        return 2.0 * _remainder_bound(sig_min - 0.5, sig_max + 0.5, t_max + 0.5, n)

    c = bound(1)  # inf once |t| passes about 1e31, and so then is root
    root = math.exp((math.log(c) - math.log(abs_tol)) / (sig_min + 8.5))
    N = max(10, math.ceil(min(root, _MAX_TERMS)))
    if bound(N) > abs_tol and N < _MAX_TERMS:
        N += 1
    elif N > 10 and bound(N - 1) <= abs_tol:
        N -= 1
    achieved = bound(N) if c < math.inf else c  # inf times an underflowed N^{-q} is NaN
    if achieved > abs_tol:
        raise PrecisionError(
            f"term budget {_MAX_TERMS} cannot push the Euler-Maclaurin remainder "
            f"below {abs_tol:.3g} (achieved {achieved:.3g})",
            achieved=achieved,
        )
    return N


class _Sieve(NamedTuple):
    """The primes up to n, rising, and mu[m] for m = 0..n."""

    primes: np.ndarray
    mu: np.ndarray


@functools.lru_cache(maxsize=16)
def _sieve(n: int) -> _Sieve:
    """The sieve of Eratosthenes to n, with mu from the primes p <= sqrt(n)
    alone: each of them flips the sign of its multiples and zeroes those of
    p^2, and an m whose product of such p falls short of m has exactly one
    prime factor above sqrt(n), which flips its sign once more."""
    m = np.arange(n + 1)
    is_prime = m >= 2
    mu = np.ones(n + 1, dtype=np.int8)
    prod = np.ones(n + 1, dtype=np.int64)
    for p in range(2, math.isqrt(n) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
            mu[p::p] *= -1
            mu[p * p :: p * p] = 0
            prod[p::p] *= p
    mu[prod < m] *= -1
    mu[0] = 0
    return _Sieve(np.flatnonzero(is_prime), mu)


def _powers(z: np.ndarray, N: int) -> np.ndarray:
    """The (N - 1) x z.size matrix whose row n - 1 is n^{-z} = e^{-z ln n},
    n = 1..N-1, one exp per entry."""
    return np.exp(-np.multiply.outer(np.log(np.arange(1.0, N)), z))


@functools.lru_cache(maxsize=256)
def _em_tail_poly(N: int) -> tuple:
    """Coefficients, lowest power first, of the Euler-Maclaurin tail
    polynomial p_N(s) = 1/2 + sum_{k<=4} B_{2k}/(2k)! N^{1-2k} s(s+1)...(s+2k-2)
    (degree 7) and of its derivative p_N'(s), as two tuples."""
    poly = np.zeros(8)
    poly[0] = 0.5
    rising = np.array([0.0, 1.0])  # s(s+1)...(s+2k-2), rising powers
    for k, c in enumerate(_BERN, start=1):
        poly[: rising.size] += c * float(N) ** (1 - 2 * k) * rising
        rising = np.convolve(np.convolve(rising, [2 * k - 1, 1.0]), [2 * k, 1.0])
    return tuple(poly.tolist()), tuple((poly[1:] * np.arange(1, 8)).tolist())


def _horner(coef: tuple, s: np.ndarray) -> np.ndarray:
    """sum_j coef[j] s^j at every point of s, by Horner's rule."""
    acc = np.full(s.shape, coef[-1], dtype=complex)
    for c in coef[-2::-1]:
        acc *= s
        acc += c
    return acc


def _em_sums(A: np.ndarray, B: np.ndarray):
    """The power sums sum n^{-s} and -sum ln n n^{-s}, n < N, at the points
    of one block's rows, row by row, from their power matrices A of n^{-a} and
    B of n^{-b} (N - 1 rows each): one product A^T [B | -ln n B]."""
    Q = B.shape[1]
    ln_all = np.log(np.arange(1, B.shape[0] + 1, dtype=float))
    sums = A.T @ np.concatenate([B, -ln_all[:, None] * B], axis=1)
    return sums[:, :Q].ravel(), sums[:, Q:].ravel()


def _em_tail(s: OuterGrid, N: int):
    """The Euler-Maclaurin tail of (zeta, zeta') at N on a grid, integral
    plus half-term plus Bernoulli corrections: N^{-s} (N/(s-1) + p_N(s)),
    p_N of _em_tail_poly, and its derivative N^{-s} (p_N'(s) - N/(s-1)^2 -
    ln N (N/(s-1) + p_N(s))). N^{-s} = N^{-a} N^{-b} from P + Q exps per
    block, p_N and p_N' by Horner's rule per point."""
    lnN = math.log(N)
    poly, dpoly = _em_tail_poly(N)
    z = s.points
    NmS = np.concatenate([np.multiply.outer(np.exp(-a * lnN), np.exp(-b * lnN)).ravel() for a, b in s.blocks])
    pole = N / (z - 1.0)
    tail = pole + _horner(poly, z)
    return NmS * tail, NmS * (_horner(dpoly, z) - pole / (z - 1.0) - lnN * tail)


def _em_orders(s: OuterGrid, ks: list, Ns: list):
    """zeta(ks) and zeta'(ks) on a grid for each order k of ks (rising
    from 1), summed at the N of Ns: out[0, i] and out[1, i].

    The one place the power matrices are built: per block of the grid,
    n^{-a} and n^{-b} once, at the largest N, and each order takes the
    elementwise k-th powers of their first N_k - 1 rows (_kth_powers):
    n^{-ka} = (n^{-a})^k, and k s is the grid (k a, k b). A block's a runs
    in chunks of about _POWER_CELLS cells, each chunk's power sums written
    in place (_em_sums); then each order adds its tail over the whole grid
    at once (_em_tail)."""
    n_max, rows = max(Ns), [N - 1 for N in Ns]
    out = np.empty((2, len(ks), s.size), dtype=complex)
    block = max(1, _POWER_CELLS // n_max)
    with np.errstate(under="ignore"):
        for (a, b), c0 in zip(s.blocks, s.offsets):
            P, Q = a.size, b.size
            Bk = list(_kth_powers(_powers(b, n_max), ks, rows))
            for r0 in range(0, P, block):
                cells = slice(c0 + r0 * Q, c0 + min(r0 + block, P) * Q)
                Ak = _kth_powers(_powers(a[r0 : r0 + block], n_max), ks, rows)
                for i, (A, B) in enumerate(zip(Ak, Bk)):
                    out[0, i, cells], out[1, i, cells] = _em_sums(A, B)
        for i, (k, N) in enumerate(zip(ks, Ns)):
            val, der = _em_tail(s if k == 1 else k * s, N)
            out[0, i] += val
            out[1, i] += der
    return out


def _zeta_core(s: OuterGrid, abs_tol: float):
    """(zeta, zeta') on a grid, both to abs_tol: the one order k = 1 of
    _em_orders, summed at the N that _choose_N picks for its points."""
    if s.size == 0:
        empty = np.empty(0, dtype=complex)
        return empty, empty
    return _em_orders(s, [1], [_choose_N(s.points, abs_tol)])[:, 0]


def zeta(s, tol: Optional[EvalTolerance] = None):
    """Riemann zeta on Re(s) > 1, accurate to tol.abs_tol (absolute)."""
    grid, shape = _prep(s)
    return _restore(_zeta_core(grid, (tol or DEFAULT_TOL).abs_tol)[0], shape)


def zeta_deriv(s, tol: Optional[EvalTolerance] = None):
    """zeta'(s) on Re(s) > 1 via the term-differentiated summation."""
    grid, shape = _prep(s)
    return _restore(_zeta_core(grid, (tol or DEFAULT_TOL).abs_tol)[1], shape)


# ---------------------------------------------------------------------------
# prime zeta via Moebius-log
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=256)
def _real_zeta_triple(sigma: float) -> tuple:
    """zeta(sigma), zeta(2 sigma) and zeta'(sigma), to 1e-9, from one batch,
    kept per sigma: every pnt op asks for the same sigma_min."""
    v, d = _zeta_core(OuterGrid([(np.array([sigma, 2.0 * sigma], dtype=complex), [0.0])]), 1e-9)
    return float(v[0].real), float(v[1].real), float(d[0].real)


def _peel_cap(sig_min: float, log_zeta_sig: float) -> int:
    """The smallest M in _PEEL_CAPS whose peeled k = 1 logarithm is certified.

    |Im log zeta_{>M}(s)| <= log zeta_{>M}(sigma) = log zeta(sigma) +
    sum_{p<=M} log(1 - p^{-sigma}), and under pi the principal log of
    zeta_{>M}(s) is the branch that is real on (1, oo)."""
    for M in _PEEL_CAPS:
        primes = _sieve(M).primes.astype(float)
        if log_zeta_sig + float(np.sum(np.log1p(-np.power(primes, -sig_min)))) < math.pi - 0.2:
            return M
    logger.warning(
        "sigma = %r is too close to 1 to certify the logarithm branch; "
        "using the principal branch best-effort",
        sig_min,
    )
    return _PEEL_CAPS[-1]


def _peeled_tail_bound(M: int, sigma: float) -> float:
    """Bound on |d/dw log zeta_{>M}(w)| for Re w >= sigma > 1, with a = M + 1
    and x0 = a^{-sigma}:

        sum_{p>M} ln p p^{-sigma}/(1 - p^{-sigma})
            <= x0 (ln a + a (ln a/(sigma-1) + 1/(sigma-1)^2)) / (1 - x0),

    the sum over p > M bounded by the sum over all n > M, that by its first
    term plus the integral from a (ln t t^{-sigma} decreases there, as
    sigma ln a > 1), and 1/(1-x) <= 1/(1-x0) for x <= x0. The same argument
    with t^{-sigma} and -log(1-x) <= x/(1-x0) gives |log zeta_{>M}(w)| <=
    x0 (1 + a/(sigma-1)) / (1 - x0), which this bound exceeds term by term
    because ln a > 1 for a = M + 1 >= 14; so it bounds both."""
    a = M + 1.0
    x0 = a ** -sigma
    la = math.log(a)
    return x0 * (la + a * (la / (sigma - 1.0) + 1.0 / (sigma - 1.0) ** 2)) / (1.0 - x0)


def _peel(s: OuterGrid, primes: np.ndarray, ks: list):
    """Sums over the peeled primes p <= M, from one matrix x = p^{-s} per
    block of the grid, formed as p^{-a} p^{-b}, and its powers x^k = p^{-ks}: sum_p x
    and sum_p ln p x, then per k in ks the product prod_p (1 - x^k) and
    sum_p ln p x^k/(1 - x^k)."""
    npts = s.size
    head = np.zeros(npts, dtype=complex)
    head_d = np.zeros(npts, dtype=complex)
    prod = np.ones((len(ks), npts), dtype=complex)
    dlog = np.zeros((len(ks), npts), dtype=complex)
    lnp_all = np.log(primes.astype(float))
    block = max(1, _POWER_CELLS // npts)
    with np.errstate(under="ignore"):
        for lo in range(0, lnp_all.size, block):
            lnp = lnp_all[lo : lo + block]
            for (a, b), c0 in zip(s.blocks, s.offsets):
                P, Q = a.size, b.size
                xb = np.exp(-np.multiply.outer(lnp, b))
                # rows of the block in runs of about _PEEL_CELLS cells, whose
                # arrays stay in cache through the passes over x and its powers
                rows = max(1, _PEEL_CELLS // (lnp.size * Q))
                for r0 in range(0, P, rows):
                    c = slice(c0 + r0 * Q, c0 + min(r0 + rows, P) * Q)
                    xa = np.exp(-np.multiply.outer(lnp, a[r0 : r0 + rows]))
                    x = (xa[:, :, None] * xb[:, None, :]).reshape(lnp.size, -1)
                    head[c] += x.sum(axis=0)
                    head_d[c] += lnp @ x
                    for i, xk in enumerate(_kth_powers(x, ks, [lnp.size] * len(ks))):
                        one_minus = 1.0 - xk
                        prod[i, c] *= one_minus.prod(axis=0)
                        dlog[i, c] += lnp @ (xk / one_minus)
    return head, head_d, prod, dlog


def _k1_tolerance(abs_tol: float, zeta_sig: float, zeta_2sig: float, zeta_d_sig: float) -> float:
    """Inner tolerance of the k = 1 zeta batch, in [1e-15, 1e-5]. On
    Re s = sigma, |zeta(s)| >= z = zeta(2 sigma)/zeta(sigma) and
    |zeta'(s)| <= -zeta'(sigma), so an error d in zeta and in zeta' moves
    zeta'/zeta, to first order, by at most d (1 + |zeta'|/z)/z, and log zeta
    by at most d/z. The tolerance holds the first to abs_tol/3, and so the
    second too."""
    zmag_low = zeta_2sig / zeta_sig
    zd_mag = -zeta_d_sig
    return max(min(abs_tol * zmag_low / (3.0 * (1.0 + zd_mag / zmag_low)), 1e-5), 1e-15)


def _prime_zeta_core(s: OuterGrid, abs_tol: float):
    """(P, P') on a grid (module docstring)."""
    if s.size == 0:
        empty = np.empty(0, dtype=complex)
        return empty, empty
    sig_min = float(np.min(s.points.real))
    zeta_sig, zeta_2sig, zeta_d_sig = _real_zeta_triple(sig_min)
    M = _peel_cap(sig_min, math.log(zeta_sig))

    # K: the dropped terms k > K sum below abs_tol/2. The k-th term of either
    # sum is below _peeled_tail_bound(M, k sigma), and each is at most
    # (M+1)^{-sigma} times the one before, so the dropped terms sum to at
    # most the first over 1 - (M+1)^{-sigma}.
    geometric = 1.0 - (M + 1.0) ** -sig_min
    K = 1
    while _peeled_tail_bound(M, (K + 1) * sig_min) / geometric >= abs_tol / 2.0 and K < 512:
        K += 1
    mu = _sieve(K).mu
    ks = [k for k in range(1, K + 1) if mu[k] != 0]
    val, head_d, prod, dlog = _peel(s, _sieve(M).primes, ks)
    der = -head_d

    tol_1 = _k1_tolerance(abs_tol, zeta_sig, zeta_2sig, zeta_d_sig)
    inner = max(abs_tol / (8.0 * K), 1e-15)
    Ns = [_choose_N(k * s.points, tol_1 if k == 1 else inner) for k in ks]
    zvs, zds = _em_orders(s, ks, Ns)
    for i, (k, zv, zd) in enumerate(zip(ks, zvs, zds)):
        # zeta_{>M}(ks) = zeta(ks) prod_{p<=M} (1 - p^{-ks}); its principal
        # log is the analytic branch (certified at k = 1; at k >= 2 and
        # every M >= 13, |log| <= log zeta_{>13}(2) = 0.0166)
        val += (mu[k] / k) * _log(zv * prod[i])
        der += mu[k] * (zd / zv + dlog[i])
    return val, der


def _kth_powers(x: np.ndarray, ks: list, rows: list):
    """Yield x[:r] ** k for each (k, r) of (ks, rows), ks rising from 1, by
    repeated products over the rows that the orders still to come need."""
    xk, k_at = x, 1
    for i, (k, r) in enumerate(zip(ks, rows)):
        need = max(rows[i:])
        for _ in range(k - k_at):
            xk = xk[:need] * x[:need]
        k_at = k
        yield xk[:r]


def _log(w: np.ndarray) -> np.ndarray:
    """The principal log of complex w in real arithmetic, log|w| +
    i atan2(Im w, Re w): np.log's branch, cut on the negative real axis with
    the sign of a zero imaginary part choosing the side, at about a tenth of
    np.log's cost on complex arrays."""
    out = np.empty(w.shape, dtype=complex)
    out.real = np.log(np.abs(w))
    out.imag = np.arctan2(w.imag, w.real)
    return out


def prime_zeta(s, tol: Optional[EvalTolerance] = None):
    """Prime zeta P(s) = sum over primes of p^{-s}, Re(s) > 1; the P of
    prime_zeta_pair.

    Computed from the Moebius-log identity with the primes p <= M peeled
    (module docstring); the peeled primes come from a cached sieve.
    """
    return prime_zeta_pair(s, tol)[0]


def prime_zeta_deriv(s, tol: Optional[EvalTolerance] = None):
    """P'(s) = sum_k mu(k) * zeta'(ks)/zeta(ks), Re(s) > 1; the P' of
    prime_zeta_pair."""
    return prime_zeta_pair(s, tol)[1]


def prime_zeta_pair(s, tol: Optional[EvalTolerance] = None):
    """(P(s), P'(s)) sharing the zeta evaluations between the two sums."""
    grid, shape = _prep(s)
    val, der = _prime_zeta_core(grid, (tol or DEFAULT_TOL).abs_tol)
    return _restore(val, shape), _restore(der, shape)


# ---------------------------------------------------------------------------
# pole-subtracted remainders
# ---------------------------------------------------------------------------


def psi_entire(s, tol: Optional[EvalTolerance] = None):
    """psi(s) = zeta(s)/s - 1/(s-1), the entire remainder at the pole.

    Inside |s-1| < 1e-3 the subtraction is replaced by the Stieltjes series
    psi(s) = (gamma_0 - 1 - gamma_1 w + gamma_2 w^2/2 - gamma_3 w^3/6)/(1+w)
    with w = s-1, avoiding the ~|s-1|^{-1} cancellation; zeta takes the
    other points as one flat batch."""
    grid, shape = _prep(s)
    flat = grid.points
    out = np.empty(flat.size, dtype=complex)
    w = flat - 1.0
    near = np.abs(w) < _PSI_SERIES_RADIUS
    wn, sf = w[near], flat[~near]
    series = GAMMA_0 - 1.0 - GAMMA_1 * wn + (GAMMA_2 / 2.0) * wn**2 - (GAMMA_3 / 6.0) * wn**3
    out[near] = series / (1.0 + wn)
    out[~near] = _zeta_core(OuterGrid([(sf, [0.0])]), (tol or DEFAULT_TOL).abs_tol)[0] / sf - 1.0 / (sf - 1.0)
    return _restore(out, shape)


def psi_prime_part(s, tol: Optional[EvalTolerance] = None):
    """psi_P(s) = P(s)/s + log(s-1), principal log (Re(s-1) > 0)."""
    grid, shape = _prep(s)
    flat = grid.points
    out = _prime_zeta_core(grid, (tol or DEFAULT_TOL).abs_tol)[0] / flat + _log(flat - 1.0)
    return _restore(out, shape)


# ---------------------------------------------------------------------------
# exponential integral
# ---------------------------------------------------------------------------


def exp_e1(w):
    """e^w E1(w) on Re w >= 0, w != 0, elementwise, in the shape of w.

    |w| <= 2 (_E1_SERIES_RADIUS) takes the power series
    E1(w) = -gamma - ln w - sum_{k>=1} (-w)^k / (k k!), Horner over
    the 25 terms of _E1_SERIES, times e^w, except where |w| > 1.25 and
    |arg w| < 1.2 (_E1_SEAM_RADIUS, _E1_SEAM_ARG): the series loses digits
    to cancellation there. Those points and every |w| > 2 take the
    continued fraction

        e^w E1(w) = 1/(w + 1 - 1^2/(w + 3 - 2^2/(w + 5 - ...))),

    evaluated backward from the depth each point's |w| = r needs:
    min(_E1_CF_DEPTH_CAP, 6 + ceil(200/r)). It converges slowest on
    the imaginary axis, where 30-digit mpmath puts the depth that reaches
    3e-16 relative near 3 + 180/r (92 at r = 2, 11 at r = 6 pi). A
    DomainError for Re w < 0 or w = 0, the pole of E1."""
    w = np.asarray(w, dtype=complex)
    if np.any((w.real < 0.0) | (w == 0.0)):
        raise DomainError("exp_e1 requires Re(w) >= 0 and w != 0")
    flat = w.ravel()
    r = np.abs(flat)
    seam = (r > _E1_SEAM_RADIUS) & (np.abs(np.angle(flat)) < _E1_SEAM_ARG)
    near = (r <= _E1_SERIES_RADIUS) & ~seam
    out = np.empty_like(flat)
    # an empty batch still costs each evaluator its fixed work
    for mask, f in ((near, _e1_series), (~near, _e1_fraction)):
        if mask.any():
            out[mask] = f(flat[mask])
    return out.reshape(w.shape)[()]


def _e1_series(z: np.ndarray) -> np.ndarray:
    """e^z E1(z) from the power series of E1 (exp_e1); not in place, where
    numpy rounds a one-point product apart from a batch's."""
    acc = np.zeros_like(z)
    for c in _E1_SERIES:
        acc = (acc + c) * z
    return np.exp(z) * (acc - GAMMA_0 - np.log(z))


def _e1_fraction(z: np.ndarray) -> np.ndarray:
    """e^z E1(z) from the continued fraction, each point backward from the
    depth its own |z| needs, min(_E1_CF_DEPTH_CAP, 6 + ceil(200/|z|))
    (exp_e1). Sorted by falling depth, the points still running at step k
    are a prefix, so the batch takes one pass of _E1_CF_DEPTH_CAP steps at
    most and each point only the steps of its depth."""
    r = np.abs(z)
    order = np.argsort(r, kind="stable")  # rising |z|, falling depth
    zs = z[order]
    ds = np.minimum(_E1_CF_DEPTH_CAP, 6 + np.ceil(200.0 / r[order])).astype(np.intp)
    f = zs + (2 * ds + 1)
    depth = int(ds.max(initial=0))  # ds[0], or 0 for an empty batch
    # running[k - 1]: how many points have depth >= k
    running = np.searchsorted(-ds, -np.arange(1, depth + 1), side="right")
    for k in range(depth, 0, -1):
        fk = f[: running[k - 1]]
        np.divide(k * k, fk, out=fk)
        np.subtract(zs[: fk.size] + (2 * k - 1), fk, out=fk)
    np.divide(1.0, f, out=f)
    out = np.empty_like(z)
    out[order] = f
    return out

