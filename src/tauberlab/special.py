"""Zeta-family evaluators on the half-plane Re(s) > 1.

Everything the transform layer needs reduces to six functions: the Riemann
zeta function and its derivative, the prime zeta function ("sum of p^{-s}
over primes") and its derivative, and the two pole-subtracted remainders

    psi(s)   = zeta(s)/s - 1/(s-1)          (entire through s = 1)
    psi_P(s) = pzeta(s)/s + log(s-1)        (analytic near s = 1)

zeta is computed by Euler-Maclaurin summation with four Bernoulli
correction terms; the truncation point starts at the standard
N = max(10, ceil|t| + 10) and doubles until the rigorous remainder bound
drops below the requested tolerance (PrecisionError past the term budget).
The derivative uses the term-differentiated sum with a Cauchy-circle bound
on the remainder. The power sums use that n^{-s} is completely
multiplicative: one complex exp per prime n < N, then each composite as
spf(n)^{-s} * (n/spf(n))^{-s} (spf the smallest prime factor), one
vectorized gather-multiply per layer of equal Omega(n) (prime factors with
multiplicity), so at most log2 N of them. The tail and Bernoulli terms
all come from the one power N^{-s}. The smallest-prime-factor sieve behind
this plan is cached per power of two, each N taking a prefix of the
next one up, and also supplies the Moebius function and the small primes
used below.

prime zeta peels the primes p <= M off the Moebius-log identity
sum_k mu(k)/k * log zeta(ks) (H. Cohen, "High precision computation of
Hardy-Littlewood constants", 1998). With zeta_{>M}(w) = zeta(w) *
prod_{p<=M} (1 - p^{-w}), whose log is sum_{p>M} -log(1 - p^{-w}),

    P(s)  = sum_{p<=M} p^{-s} + sum_{k<=K} mu(k)/k * log zeta_{>M}(ks),
    P'(s) = -sum_{p<=M} ln p p^{-s}
            + sum_{k<=K} mu(k) [zeta'/zeta(ks) + sum_{p<=M} ln p p^{-ks}/(1 - p^{-ks})].

One block of p^{-s} serves every k: p^{-ks} = (p^{-s})^k. M is the
smallest of 100, 10^4, 10^5 that certifies the k = 1 logarithm:
|Im log zeta_{>M}(s)| <= log zeta_{>M}(sigma) = log zeta(sigma) +
sum_{p<=M} log(1 - p^{-sigma}), and below pi the principal log of
zeta_{>M}(s) is the branch that is real on (1, oo). Closer to 1 than
sigma ~ 1.0027 not even M = 10^5 certifies, and the principal branch is
used best-effort with a logged warning. For k >= 2 the same bound is below
0.02, so the principal log is the branch. The tail: for Re w >= sigma_w,
with a = M + 1 and x0 = a^{-sigma_w},

    |log zeta_{>M}(w)|      <= x0 (1 + a/(sigma_w - 1)) / (1 - x0),
    |(log zeta_{>M})'(w)|   <= x0 (ln a + a (ln a/(sigma_w - 1)
                                             + 1/(sigma_w - 1)^2)) / (1 - x0),

of order (M+1)^{1-k sigma} at w = ks, and each term at most (M+1)^{-sigma}
times the one before. K is the smallest order whose dropped terms sum
below abs_tol/2 (P and P' each get their own K). At sigma = 1.05 and abs_tol
1e-10, M = 100 leaves k = 1, 2, 3, 5, where the unpeeled 2^{-k sigma} tails
needed 22 Moebius terms. The sum runs in two modes: P alone (prime_zeta,
psi_prime_part), or P and P' together (prime_zeta_pair, whose P' is
prime_zeta_deriv). In the second the log and zeta'/zeta at each k share one
zeta batch; at k = 1 it is truncated where the zeta'/zeta tolerance needs,
which also meets the tolerance of the log (_k1_tolerances).

Near s = 1, psi switches to its Taylor form from the Stieltjes expansion
of zeta; the constants below were computed once by a float128
Euler-Maclaurin limit at N = 10^7 (sum of log^n k / k minus
log^{n+1} N/(n+1), with tail corrections), not copied from memory.

All evaluators accept a complex scalar or ndarray and respect the Schwarz
reflection F(conj s) = conj F(s).
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import ContractError, DomainError, PrecisionError

__all__ = [
    "EvalTolerance",
    "DEFAULT_TOL",
    "zeta",
    "zeta_deriv",
    "prime_zeta",
    "prime_zeta_deriv",
    "psi_entire",
    "psi_prime_part",
    "prime_zeta_pair",
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
_PEEL_CAPS = (100, 10_000, 100_000)

# hard budget of Euler-Maclaurin terms per evaluation (_choose_N)
_MAX_TERMS = 1_000_000


@dataclass(frozen=True)
class EvalTolerance:
    """Absolute-accuracy request; the term budget is fixed at _MAX_TERMS."""

    abs_tol: float = 1e-10

    def __post_init__(self):
        if not (0.0 < self.abs_tol <= 1e-4):
            raise ContractError("abs_tol must lie in (0, 1e-4]")


DEFAULT_TOL = EvalTolerance()


def _prep(s):
    """Coerce to a 1-d complex array; enforce the sigma > 1 domain."""
    arr = np.asarray(s, dtype=complex)
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr).ravel()
    if flat.size:
        if not (np.all(np.isfinite(flat.real)) and np.all(np.isfinite(flat.imag))):
            raise DomainError("s must be finite")
        if np.any(flat.real <= 1.0):
            raise DomainError("evaluation requires Re(s) > 1")
    return flat, scalar, arr.shape


def _restore(vals, scalar, shape):
    if scalar:
        return complex(vals[0])
    return vals.reshape(shape)


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


def _choose_N(flat: np.ndarray, abs_tol, deriv=False, tight=False):
    """Smallest truncation N = max(10, ceil|t|+10) * 2^j whose remainder bound
    meets abs_tol at every point of the batch: the bound is taken at the
    smallest sigma (the N power), the largest sigma and the largest |t| (the
    products). deriv=True bounds the derivative's remainder instead, through
    the Cauchy circle of radius 1/2 around each s. PrecisionError when even
    _MAX_TERMS terms miss abs_tol.

    tight=True starts the doubling search at N = 10 instead; used for the
    interior Moebius terms where sigma >= 2 makes tiny N sufficient even at
    large |t|, so the default |t|-proportional rule would waste terms.
    """
    sig_min, sig_max = float(np.min(flat.real)), float(np.max(flat.real))
    t_max = float(np.max(np.abs(flat.imag)))

    def bound(n):
        if deriv:
            return 2.0 * _remainder_bound(sig_min - 0.5, sig_max + 0.5, t_max + 0.5, n)
        return _remainder_bound(sig_min, sig_max, t_max, n)

    N = min(10 if tight else max(10, int(math.ceil(t_max)) + 10), _MAX_TERMS)
    while bound(N) > abs_tol and N < _MAX_TERMS:
        N = min(2 * N, _MAX_TERMS)
    achieved = bound(N)
    if achieved > abs_tol:
        raise PrecisionError(
            f"term budget {_MAX_TERMS} cannot push the Euler-Maclaurin remainder "
            f"below {abs_tol:.3g} (achieved {achieved:.3g})",
            achieved=achieved,
        )
    return N


class _FactorPlan(NamedTuple):
    """mu[n] for n <= n_max, and layers[j] = (rows, spf, cof): the n <= n_max
    with Omega(n) = j + 1 prime factors (with multiplicity) in increasing
    order, their smallest prime factors and their cofactors n/spf(n). The
    cofactors of layer j lie in layer j - 1, and layer 0 is the primes."""

    mu: np.ndarray
    layers: tuple

    @property
    def primes(self) -> np.ndarray:
        return self.layers[0][0]


@functools.lru_cache(maxsize=32)
def _sieve_plan(bits: int) -> _FactorPlan:
    """The plan of 0..2^bits from one sieve of smallest prime factors:
    mu(n) = 0 when spf(n) divides n/spf(n), else mu(n) = -mu(n/spf(n))."""
    n_max = 1 << bits
    n = np.arange(n_max + 1)
    spf = n.copy()  # stays n where no smaller prime marks it
    for p in range(2, math.isqrt(n_max) + 1):
        if spf[p] == p:
            multiples = spf[p * p :: p]
            multiples[multiples == n[p * p :: p]] = p
    cof = np.ones_like(n)
    cof[2:] = n[2:] // spf[2:]
    mu = np.zeros(n_max + 1, dtype=np.int8)
    mu[1] = 1
    layers = []
    rows = np.flatnonzero(spf == n)[2:]  # the primes
    while rows.size:
        p, c = spf[rows], cof[rows]
        mu[rows] = np.where(c % p == 0, 0, -mu[c])
        layers.append((rows, p, c))
        in_layer = np.zeros(n_max + 1, dtype=bool)
        in_layer[rows] = True
        rows = np.flatnonzero(in_layer[cof])
    return _FactorPlan(mu, tuple(layers))


@functools.lru_cache(maxsize=256)
def _factor_plan(n_max: int) -> _FactorPlan:
    """The plan of 0..n_max, cut from the cached plan of the next power of
    two, so a sweep over many N builds only a few sieves; the cut holds
    views, so caching it costs no copy. Each layer's rows increase, so the
    rows <= n_max are a prefix, and their cofactors, being smaller, stay in
    the cut layer below."""
    full = _sieve_plan(max(int(n_max), 1).bit_length())
    layers = []
    for rows, p, c in full.layers:
        j = int(np.searchsorted(rows, n_max, side="right"))
        if j == 0:
            break
        layers.append((rows[:j], p[:j], c[:j]))
    return _FactorPlan(full.mu[: n_max + 1], tuple(layers))


def _em_eval(s: np.ndarray, N: int, want: str):
    """Euler-Maclaurin evaluation of zeta (and/or its derivative) at fixed N.

    want is one of "value", "deriv", "both". Returns (value, deriv) with the
    unrequested slot None. The (terms x points) power matrix is built by
    complete multiplicativity: one complex exp per prime n < N, then one
    gather-multiply n^{-s} = spf(n)^{-s} (n/spf(n))^{-s} per Omega layer of
    composites. Points are chunked to keep the matrix near 4M cells.
    """
    npts = s.size
    need_v = want in ("value", "both")
    need_d = want in ("deriv", "both")
    val = np.zeros(npts, dtype=complex) if need_v else None
    der = np.zeros(npts, dtype=complex) if need_d else None
    plan = _factor_plan(N - 1)
    ln_all = np.log(np.arange(1, N, dtype=float))
    ln_p = ln_all[plan.primes - 1]
    lnN = math.log(N)
    pblock = max(1, 4_000_000 // N)
    with np.errstate(under="ignore"):
        for lo in range(0, npts, pblock):
            sb = s[lo : lo + pblock]
            pw = np.empty((N, sb.size), dtype=complex)  # row n is n^{-s}; row 0 unused
            pw[1] = 1.0
            pw[plan.primes] = np.exp(-np.multiply.outer(ln_p, sb))
            for rows, p, c in plan.layers[1:]:
                pw[rows] = pw[p] * pw[c]
            if need_v:
                val[lo : lo + pblock] = pw[1:].sum(axis=0)
            if need_d:
                der[lo : lo + pblock] = -(ln_all @ pw[1:])
            del pw
        # integral tail, half-term and Bernoulli corrections, all from N^{-s}
        NmS = np.exp(-s * lnN)
        N1mS = N * NmS
        tailA = N1mS / (s - 1.0)
        if need_v:
            val += tailA + 0.5 * NmS
        if need_d:
            der += tailA * (-lnN) - N1mS / (s - 1.0) ** 2
            der += -lnN * 0.5 * NmS
        P = s.copy()  # running product s(s+1)...(s+2k-2)
        H = 1.0 / s  # running sum of reciprocals of those factors
        for k, c in enumerate(_BERN, start=1):
            Npow = NmS * float(N) ** -(2 * k - 1)  # N^{-s-(2k-1)}
            if need_v:
                val += c * P * Npow
            if need_d:
                der += c * Npow * (P * H - lnN * P)
            if k < len(_BERN):
                f1 = s + (2 * k - 1)
                f2 = s + (2 * k)
                P = P * f1 * f2
                H = H + 1.0 / f1 + 1.0 / f2
    return val, der


def _zeta_core(flat: np.ndarray, tol: EvalTolerance, want: str, tight: bool = False):
    if flat.size == 0:
        empty = np.empty(0, dtype=complex)
        return empty, empty
    N = _choose_N(flat, tol.abs_tol, want != "value", tight)
    return _em_eval(flat, N, want)


def zeta(s, tol: Optional[EvalTolerance] = None):
    """Riemann zeta on Re(s) > 1, accurate to tol.abs_tol (absolute)."""
    tol = tol or DEFAULT_TOL
    flat, scalar, shape = _prep(s)
    val, _ = _zeta_core(flat, tol, "value")
    return _restore(val, scalar, shape)


def zeta_deriv(s, tol: Optional[EvalTolerance] = None):
    """zeta'(s) on Re(s) > 1 via the term-differentiated summation."""
    tol = tol or DEFAULT_TOL
    flat, scalar, shape = _prep(s)
    _, der = _zeta_core(flat, tol, "deriv")
    return _restore(der, scalar, shape)


# ---------------------------------------------------------------------------
# prime zeta via Moebius-log
# ---------------------------------------------------------------------------


def _real_zeta_triple(sigma: float) -> tuple:
    """zeta(sigma), zeta(2 sigma) and zeta'(sigma), to 1e-9, from one batch."""
    v, d = _zeta_core(np.array([sigma, 2.0 * sigma], dtype=complex), EvalTolerance(1e-9), "both")
    return float(v[0].real), float(v[1].real), float(d[0].real)


def _peel_cap(sig_min: float, log_zeta_sig: float) -> int:
    """The smallest M in _PEEL_CAPS whose peeled k = 1 logarithm is certified.

    |Im log zeta_{>M}(s)| <= log zeta_{>M}(sigma) = log zeta(sigma) +
    sum_{p<=M} log(1 - p^{-sigma}), and under pi the principal log of
    zeta_{>M}(s) is the branch that is real on (1, oo)."""
    for M in _PEEL_CAPS:
        primes = _factor_plan(M).primes.astype(float)
        if log_zeta_sig + float(np.sum(np.log1p(-np.power(primes, -sig_min)))) < math.pi - 0.2:
            return M
    logger.warning(
        "sigma = %.6g is too close to 1 to certify the logarithm branch; "
        "using the principal branch best-effort",
        sig_min,
    )
    return _PEEL_CAPS[-1]


def _peeled_tail_bound(M: int, sigma: float, deriv: bool) -> float:
    """Bound on |log zeta_{>M}(w)| (or on |d/dw log zeta_{>M}(w)| when deriv)
    for Re w >= sigma > 1, with a = M + 1 and x0 = a^{-sigma}:

        sum_{p>M} -log(1 - p^{-sigma})      <= x0 (1 + a/(sigma-1)) / (1 - x0),
        sum_{p>M} ln p p^{-sigma}/(1 - p^{-sigma})
            <= a^{-sigma} (ln a + a (ln a/(sigma-1) + 1/(sigma-1)^2)) / (1 - x0),

    each sum over p > M bounded by the sum over all n > M, that by its first
    term plus the integral from a (t^{-sigma} and ln t t^{-sigma} decrease
    there, as sigma ln a > 1), and -log(1-x) <= x/(1-x0) for x <= x0."""
    a = M + 1.0
    x0 = a ** -sigma
    if deriv:
        la = math.log(a)
        head = x0 * (la + a * (la / (sigma - 1.0) + 1.0 / (sigma - 1.0) ** 2))
    else:
        head = x0 * (1.0 + a / (sigma - 1.0))
    return head / (1.0 - x0)


def _peel(flat: np.ndarray, primes: np.ndarray, ks: list, need_d: bool):
    """Sums over the peeled primes p <= M, from one block x = p^{-s} and its
    powers x^k = p^{-ks}: sum_p x and sum_p ln p x, then per k in ks the
    product prod_p (1 - x^k) and (need_d) sum_p ln p x^k/(1 - x^k)."""
    npts = flat.size
    head = np.zeros(npts, dtype=complex)
    head_d = np.zeros(npts, dtype=complex)
    prod = np.ones((len(ks), npts), dtype=complex)
    dlog = np.zeros((len(ks), npts), dtype=complex) if need_d else None
    lnp_all = np.log(primes.astype(float))
    block = max(1, 4_000_000 // npts)
    with np.errstate(under="ignore"):
        for lo in range(0, lnp_all.size, block):
            lnp = lnp_all[lo : lo + block]
            x = np.exp(-np.multiply.outer(lnp, flat))
            head += x.sum(axis=0)
            head_d += lnp @ x
            xk, k_at = x, 1
            for i, k in enumerate(ks):
                for _ in range(k - k_at):
                    xk = xk * x
                k_at = k
                one_minus = 1.0 - xk
                prod[i] *= one_minus.prod(axis=0)
                if need_d:
                    dlog[i] += lnp @ (xk / one_minus)
    return head, head_d, prod, dlog


def _k1_tolerances(abs_tol: float, zeta_sig: float, zeta_2sig: float, zeta_d_sig: float) -> tuple:
    """Inner tolerances (inner_v, inner_d) of the k = 1 zeta batch, for the
    log zeta term of P and the zeta'/zeta term of P', each held to abs_tol/3.
    On Re s = sigma, |zeta(s)| >= zeta(2 sigma)/zeta(sigma) and |zeta'(s)|
    <= -zeta'(sigma), so an error d in zeta and in zeta' moves log zeta by
    at most d zeta(sigma)/zeta(2 sigma), and zeta'/zeta, to first order, by
    at most d (1 + |zeta'|/|zeta|)/|zeta|. Both lie in [1e-15, 1e-5], and
    inner_d <= inner_v."""
    inv_zeta_bound = zeta_sig / zeta_2sig
    inner_v = max(min(abs_tol / (3.0 * inv_zeta_bound), 1e-5), 1e-15)
    zmag_low = zeta_2sig / zeta_sig
    zd_mag = -zeta_d_sig
    inner_d = max(min(abs_tol * zmag_low / (3.0 * (1.0 + zd_mag / zmag_low)), 1e-5), 1e-15)
    return inner_v, inner_d


def _prime_zeta_core(flat: np.ndarray, tol: EvalTolerance, deriv: bool):
    """(P, P') on a batch, P' None unless deriv (module docstring)."""
    if flat.size == 0:
        empty = np.empty(0, dtype=complex)
        return empty, empty
    abs_tol = tol.abs_tol
    sig_min = float(np.min(flat.real))
    zeta_sig, zeta_2sig, zeta_d_sig = _real_zeta_triple(sig_min)
    M = _peel_cap(sig_min, math.log(zeta_sig))

    def truncation(of_deriv: bool) -> int:
        """The K whose dropped terms k > K sum below abs_tol/2: the k-th term
        is below _peeled_tail_bound(M, k sigma)/k (no 1/k for zeta'/zeta),
        and each term is at most (M+1)^{-sigma} times the one before, so the
        dropped terms sum to at most the first over 1 - (M+1)^{-sigma}."""
        geometric = 1.0 - (M + 1.0) ** -sig_min
        K = 1
        while (
            _peeled_tail_bound(M, (K + 1) * sig_min, of_deriv) / ((1 if of_deriv else K + 1) * geometric)
            >= abs_tol / 2.0
            and K < 512
        ):
            K += 1
        return K

    K_v = truncation(False)
    K = truncation(True) if deriv else K_v
    mu = _factor_plan(K).mu
    ks = [k for k in range(1, K + 1) if mu[k] != 0]
    val, head_d, prod, dlog = _peel(flat, _factor_plan(M).primes, ks, deriv)
    der = -head_d if deriv else None
    want = "both" if deriv else "value"

    # One k = 1 batch serves the log and zeta'/zeta at the zeta'/zeta
    # tolerance: inner_d <= inner_v, the Cauchy-circle bound is at least the
    # value bound at equal N, and both searches start at the same N, so the
    # N that meets inner_d also meets inner_v.
    inner_v, inner_d = _k1_tolerances(abs_tol, zeta_sig, zeta_2sig, zeta_d_sig)
    tol_1 = EvalTolerance(inner_d if deriv else inner_v)
    inner = EvalTolerance(max(abs_tol / (8.0 * K), 1e-15))
    for i, k in enumerate(ks):
        zv, zd = _zeta_core(k * flat, tol_1 if k == 1 else inner, want, tight=k > 1)
        # zeta_{>M}(ks) = zeta(ks) prod_{p<=M} (1 - p^{-ks}); its principal
        # log is the analytic branch (certified at k = 1, |log| < 0.02 at k >= 2)
        if k <= K_v:
            val += (mu[k] / k) * np.log(zv * prod[i])
        if deriv:
            der += mu[k] * (zd / zv + dlog[i])
    return val, der


def prime_zeta(s, tol: Optional[EvalTolerance] = None):
    """Prime zeta P(s) = sum over primes of p^{-s}, Re(s) > 1.

    Computed from the Moebius-log identity with the primes p <= M peeled
    (module docstring); the peeled primes come from a cached sieve.
    """
    tol = tol or DEFAULT_TOL
    flat, scalar, shape = _prep(s)
    val, _ = _prime_zeta_core(flat, tol, False)
    return _restore(val, scalar, shape)


def prime_zeta_deriv(s, tol: Optional[EvalTolerance] = None):
    """P'(s) = sum_k mu(k) * zeta'(ks)/zeta(ks), Re(s) > 1; the P' of
    prime_zeta_pair."""
    return prime_zeta_pair(s, tol)[1]


def prime_zeta_pair(s, tol: Optional[EvalTolerance] = None):
    """(P(s), P'(s)) sharing the zeta evaluations between the two sums."""
    tol = tol or DEFAULT_TOL
    flat, scalar, shape = _prep(s)
    val, der = _prime_zeta_core(flat, tol, True)
    return _restore(val, scalar, shape), _restore(der, scalar, shape)


# ---------------------------------------------------------------------------
# pole-subtracted remainders
# ---------------------------------------------------------------------------


def psi_entire(s, tol: Optional[EvalTolerance] = None):
    """psi(s) = zeta(s)/s - 1/(s-1), the entire remainder at the pole.

    Inside |s-1| < 1e-3 the subtraction is replaced by the Stieltjes series
    psi(s) = (gamma_0 - 1 - gamma_1 w + gamma_2 w^2/2 - gamma_3 w^3/6)/(1+w)
    with w = s-1, avoiding the ~|s-1|^{-1} cancellation."""
    tol = tol or DEFAULT_TOL
    flat, scalar, shape = _prep(s)
    out = np.empty(flat.size, dtype=complex)
    w = flat - 1.0
    near = np.abs(w) < _PSI_SERIES_RADIUS
    if np.any(near):
        wn = w[near]
        series = GAMMA_0 - 1.0 - GAMMA_1 * wn + (GAMMA_2 / 2.0) * wn**2 - (GAMMA_3 / 6.0) * wn**3
        out[near] = series / (1.0 + wn)
    if np.any(~near):
        sf = flat[~near]
        zv, _ = _zeta_core(sf, tol, "value")
        out[~near] = zv / sf - 1.0 / (sf - 1.0)
    return _restore(out, scalar, shape)


def psi_prime_part(s, tol: Optional[EvalTolerance] = None):
    """psi_P(s) = P(s)/s + log(s-1), principal log (Re(s-1) > 0)."""
    tol = tol or DEFAULT_TOL
    flat, scalar, shape = _prep(s)
    val, _ = _prime_zeta_core(flat, tol, False)
    out = val / flat + np.log(flat - 1.0)
    return _restore(out, scalar, shape)
