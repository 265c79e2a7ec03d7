"""Zeta family: independent oracles, reflection, derivatives, the log identity."""

import math

import numpy as np
import pytest
import scipy.special

from tauberlab import special, transform
from tauberlab.errors import ContractError, DomainError, PrecisionError
from tauberlab.special import (
    EvalTolerance,
    prime_zeta,
    prime_zeta_deriv,
    prime_zeta_pair,
    psi_entire,
    psi_prime_part,
    zeta,
    zeta_deriv,
)

_ALL_OPS = None  # filled lazily; prime ops need the table fixture


def _eta_oracle(s, n=60):
    """Alternating zeta via Chebyshev-accelerated summation.

    Converges like (3+sqrt(8))^{-n} for Re(s) >= 1/2, which at n = 60 is
    far below anything these tests resolve. zeta follows from
    eta(s) = (1 - 2^{1-s}) zeta(s).
    """
    d = np.zeros(n + 1)
    acc = 0.0
    fact = 1.0
    for j in range(n + 1):
        # d_k partial sums of n (n+j-1)! 4^j / ((n-j)! (2j)!)
        if j > 0:
            fact *= (n + j - 1) * (n - j + 1) * 4.0 / ((2 * j) * (2 * j - 1))
        else:
            fact = 1.0
        acc += fact
        d[j] = acc
    d *= n
    k = np.arange(n)
    terms = (-1.0) ** k * (d[k] - d[n]) / np.power(k + 1.0, s)
    eta = -terms.sum() / d[n]
    return eta / (1.0 - 2.0 ** (1.0 - s))


def test_zeta_against_scipy_on_real_axis(rng):
    sig = rng.uniform(1.05, 6.0, size=40)
    ours = zeta(sig)
    theirs = scipy.special.zeta(sig)
    assert np.max(np.abs(ours - theirs)) < 1e-9


def test_zeta_closed_forms():
    assert zeta(2.0) == pytest.approx(math.pi**2 / 6, abs=1e-12)
    assert zeta(4.0) == pytest.approx(math.pi**4 / 90, abs=1e-12)


def test_zeta_complex_against_eta_oracle(rng):
    for _ in range(15):
        s = complex(rng.uniform(1.1, 3.0), rng.uniform(-10.0, 10.0))
        assert abs(zeta(s) - _eta_oracle(s)) < 1e-9, s


def test_zeta_is_vectorized():
    s = np.array([2.0 + 0j, 3.0 + 1j, 1.5 - 2j])
    v = zeta(s)
    assert v.shape == s.shape
    assert v[0] == pytest.approx(zeta(2.0 + 0j))


def test_domain_and_tolerance_contracts():
    with pytest.raises(DomainError):
        zeta(0.5)
    with pytest.raises(DomainError):
        zeta(1.0)
    with pytest.raises(DomainError):
        zeta(complex(float("nan"), 0.0))
    with pytest.raises(ContractError):
        EvalTolerance(abs_tol=0.0)


def test_term_budget_exhaustion_is_a_precision_error():
    """At |t| = 2e6 even the full term budget leaves the Euler-Maclaurin
    remainder above the default tolerance."""
    with pytest.raises(PrecisionError) as ei:
        zeta(1.5 + 2e6j)
    assert "term budget" in str(ei.value)
    assert ei.value.achieved > special.DEFAULT_TOL.abs_tol


def test_reflection_symmetry(rng):
    """F(conj s) = conj F(s) for every operation in the module."""
    ops = [zeta, zeta_deriv, prime_zeta, prime_zeta_deriv, psi_entire, psi_prime_part]
    sigma = rng.uniform(1.0 + 1e-6, 3.0, size=100)
    t = rng.uniform(-50.0, 50.0, size=100)
    for op in ops:
        s = sigma + 1j * t
        a = np.asarray(op(s))
        b = np.asarray(op(np.conj(s)))
        assert np.max(np.abs(b - np.conj(a))) < 1e-9


def test_derivatives_match_central_differences(rng):
    h = 1e-5
    pts = rng.uniform(1.2, 3.0, size=50) + 1j * rng.uniform(-20.0, 20.0, size=50)
    dz = zeta_deriv(pts)
    fd = (zeta(pts + h) - zeta(pts - h)) / (2 * h)
    assert np.max(np.abs(dz - fd)) < 1e-6
    dp = prime_zeta_deriv(pts)
    fdp = (prime_zeta(pts + h) - prime_zeta(pts - h)) / (2 * h)
    assert np.max(np.abs(dp - fdp)) < 1e-6


def test_prime_zeta_against_direct_sum(small_table, rng):
    """At sigma >= 3 the tail beyond 1e5 is < 1e-11: brute force suffices."""
    primes = small_table.primes_in(1, 100_000).astype(float)
    for _ in range(10):
        s = complex(rng.uniform(3.0, 5.0), rng.uniform(-10, 10))
        direct = np.sum(primes ** (-s))
        assert abs(prime_zeta(s) - direct) < 1e-10
    # lower sigma: the brute sum is only good to its own integral tail bound
    s = 2.5 + 1.0j
    tail = 100_000 ** (1 - 2.5) / (2.5 - 1)  # sum_{n > X} n^-sigma, crude
    assert abs(prime_zeta(s) - np.sum(primes ** (-s))) < tail + 1e-10


def test_log_euler_product_identity(rng):
    """log zeta(s) = sum_k prime_zeta(k s)/k, the module-level version."""
    for _ in range(20):
        s = complex(rng.uniform(1.5, 3.0), rng.uniform(-10, 10))
        total = 0.0 + 0.0j
        k = 1
        while True:
            term = prime_zeta(k * s) / k
            total += term
            k += 1
            if abs(term) < 1e-13 and k > 3:
                break
        assert abs(np.log(zeta(s)) - total) < 1e-8


def test_prime_zeta_pair_consistent():
    s = 1.8 + 2.2j
    v, d = prime_zeta_pair(s)
    assert v == pytest.approx(prime_zeta(s), abs=1e-12)
    assert d == pytest.approx(prime_zeta_deriv(s), abs=1e-12)


def test_psi_cancellation_safety():
    """psi(1+eps) walks monotonically into gamma - 1, ~10x closer per decade."""
    target = np.euler_gamma - 1.0
    eps = [1e-2, 1e-3, 1e-4]
    gaps = [abs(psi_entire(1.0 + e) - target) for e in eps]
    assert gaps[0] > gaps[1] > gaps[2]
    assert 5.0 < gaps[0] / gaps[1] < 20.0
    assert 5.0 < gaps[1] / gaps[2] < 20.0


def test_psi_away_from_pole_is_plain_subtraction():
    s = 2.0
    expect = zeta(2.0) / 2.0 - 1.0
    assert psi_entire(s) == pytest.approx(expect, abs=1e-12)


def test_psi_prime_part_log_singularity():
    """psi_P(1+eps) drifts like log eps: it is NOT entire, just log-regular."""
    a = psi_prime_part(1.0 + 1e-2)
    b = psi_prime_part(1.0 + 1e-3)
    assert (a - b).real == pytest.approx(0.0, abs=0.5)  # log-slow drift
    assert abs(a.imag) < 1e-12 and abs(b.imag) < 1e-12


def _mobius(k):
    """mu(k) by trial division."""
    mu, p = 1, 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if k > 1 else mu


@pytest.mark.parametrize("sigma", [1.01, 1.03, 1.1, 1.3])
def test_prime_zeta_deriv_against_mpmath(sigma):
    """P'(s) = sum_k mu(k) zeta'(ks)/zeta(ks) at 30 digits, within the default
    abs_tol 1e-10. The reference stops once 2^{-k sigma} < 1e-16; each dropped
    term is below 3 * 2^{-k sigma}, so its tail is below 1e-15."""
    mpmath = pytest.importorskip("mpmath")
    for t in (0.0, 5.0, 20.0):
        with mpmath.workdps(30):
            z = mpmath.mpc(sigma, t)
            ref = mpmath.mpf(0)
            k = 1
            while 2.0 ** (-k * sigma) >= 1e-16:
                mu = _mobius(k)
                if mu:
                    ref += mu * mpmath.zeta(k * z, derivative=1) / mpmath.zeta(k * z)
                k += 1
        assert abs(prime_zeta_deriv(complex(sigma, t)) - complex(ref)) <= 1e-10, t


def _em_direct(s, N):
    """Euler-Maclaurin zeta and zeta' at truncation N, every power n^{-s}
    from its own exp: the form the multiplicative build must reproduce."""
    ln = np.log(np.arange(1, N, dtype=float))
    pw = np.exp(-np.multiply.outer(s, ln))
    lnN = math.log(N)
    head = np.exp((1.0 - s) * lnN) / (s - 1.0)
    val = pw.sum(axis=1) + head + 0.5 * np.exp(-s * lnN)
    der = -(pw * ln).sum(axis=1) - lnN * head - head / (s - 1.0) - 0.5 * lnN * np.exp(-s * lnN)
    P, H = s.copy(), 1.0 / s
    bern = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0)
    for k, c in enumerate(bern, start=1):
        Npow = np.exp(-(s + (2 * k - 1)) * lnN)
        val = val + c * P * Npow
        der = der + c * Npow * (P * H - lnN * P)
        f1, f2 = s + (2 * k - 1), s + 2 * k
        P, H = P * f1 * f2, H + 1.0 / f1 + 1.0 / f2
    return val, der


@pytest.mark.parametrize("N, npts", [(10, 64), (72, 64), (288, 64), (4096, 64), (100_000, 1)])
def test_em_eval_matches_the_direct_powers(N, npts, rng):
    s = rng.uniform(1.05, 3.0, size=npts) + 1j * rng.uniform(-40.0, 40.0, size=npts)
    val, der = special._em_eval(s, N, "both")
    ref_v, ref_d = _em_direct(s, N)
    assert np.max(np.abs(val - ref_v)) <= 1e-13 * np.max(np.abs(ref_v))
    assert np.max(np.abs(der - ref_d)) <= 1e-13 * np.max(np.abs(ref_d))


def test_prime_zeta_pair_runs_one_k1_zeta_batch(monkeypatch):
    """The log branch and zeta'/zeta share the k = 1 Euler-Maclaurin batch."""
    s = np.array([1.05 + 0.5j, 1.05 + 3.0j, 1.2 - 7.0j])
    batches = []
    em_eval = special._em_eval

    def counted(pts, N, want):
        batches.append(np.array(pts))
        return em_eval(pts, N, want)

    monkeypatch.setattr(special, "_em_eval", counted)
    prime_zeta_pair(s)
    assert sum(np.array_equal(pts, s) for pts in batches) == 1


def test_factor_plan_against_trial_division():
    plan = special._factor_plan(10_000)
    assert [_mobius(k) for k in range(1, 10_001)] == plan.mu[1:].tolist()
    assert plan.mu[0] == 0
    primes = [n for n in range(2, 10_001) if all(n % d for d in range(2, math.isqrt(n) + 1))]
    assert plan.primes.tolist() == primes
    # the plan is cut from the 2^14 sieve: its layers still cover 2..10^4
    # once each, and every row is spf * cofactor with the cofactor one layer down
    rows = np.concatenate([r for r, _, _ in plan.layers])
    assert np.array_equal(np.sort(rows), np.arange(2, 10_001))
    for j, (r, p, c) in enumerate(plan.layers):
        assert np.array_equal(r, p * c)
        assert np.isin(c, plan.layers[j - 1][0] if j else [1]).all()


# sigma in [1.001, 1.5], |t| <= 40, one point per (sigma, t) stratum
_ORACLE_POINTS = [
    complex(1.001, 0.5),
    complex(1.001, -37.0),
    complex(1.01, 12.3),
    complex(1.05, -25.0),
    complex(1.1, 40.0),
    complex(1.2, 3.3),
    complex(1.35, -8.8),
    complex(1.5, 31.4),
]


@pytest.mark.parametrize("s", _ORACLE_POINTS)
def test_zeta_family_against_mpmath(s):
    """zeta, zeta', P and P' (alone and from prime_zeta_pair) against 30-digit
    mpmath at abs 1e-10. P' is sum_k mu(k) zeta'(ks)/zeta(ks), stopped once
    2^{-k sigma} < 1e-16 (each dropped term is below 3 2^{-k sigma})."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        z = mpmath.mpc(s.real, s.imag)
        ref_z = complex(mpmath.zeta(z))
        ref_zd = complex(mpmath.zeta(z, derivative=1))
        ref_p = complex(mpmath.primezeta(z))
        ref_pd = mpmath.mpf(0)
        k = 1
        while 2.0 ** (-k * s.real) >= 1e-16:
            if _mobius(k):
                ref_pd += _mobius(k) * mpmath.zeta(k * z, derivative=1) / mpmath.zeta(k * z)
            k += 1
        ref_pd = complex(ref_pd)
    p, pd = prime_zeta_pair(s)
    assert abs(zeta(s) - ref_z) <= 1e-10
    assert abs(zeta_deriv(s) - ref_zd) <= 1e-10
    assert abs(prime_zeta(s) - ref_p) <= 1e-10
    assert abs(p - ref_p) <= 1e-10
    assert abs(pd - ref_pd) <= 1e-10


def test_prime_zeta_deriv_is_the_pair_derivative():
    for s in [*_ORACLE_POINTS, np.array(_ORACLE_POINTS)]:
        assert np.array_equal(prime_zeta_deriv(s), prime_zeta_pair(s)[1])


def test_prime_zeta_pair_on_the_pnt_kernel_points_runs_few_zeta_batches(monkeypatch):
    """With the primes p <= M peeled from the Moebius sum, P and P' on the
    8,048 kernel-route points of the pnt run (sigma = 1.05, eps = 0.05,
    L = 8 pi, N = 72) take at most six Euler-Maclaurin batches on the point
    array: the k = 1 batch and a few squarefree k >= 2. Without the peel the
    2^{-k sigma} tails need 22 Moebius terms."""
    L = 8.0 * math.pi
    edges = np.linspace(0.0, L, int(math.ceil(L / 0.05)) + 1)
    xs, _ = transform._gl_nodes_on(edges[:-1], edges[1:])
    s = 1.05 + 1j * xs
    assert s.size == 8048
    sizes = []
    em_eval = special._em_eval

    def counted(pts, N, want):
        sizes.append(pts.size)
        return em_eval(pts, N, want)

    monkeypatch.setattr(special, "_em_eval", counted)
    prime_zeta_pair(s)
    assert 2 <= sizes.count(s.size) <= 6
