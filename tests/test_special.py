"""Zeta family: independent oracles, reflection, derivatives, the log identity."""

import math

import numpy as np
import pytest
import scipy.special

from tauberlab import special, transform
from tauberlab.errors import ContractError, DomainError, PrecisionError
from tauberlab.special import (
    EvalTolerance,
    OuterGrid,
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


def test_choose_N_steps_onto_the_exact_truncation():
    """At abs_tol = bound(n) the truncation is n, and at the next float
    below it n + 1, over a grid on which the root in logarithms lands one
    above the answer (the N - 1 step) and one below it (the N + 1 step)."""
    steps = {-1: 0, 1: 0}
    for sigma in (1.001, 1.05, 1.5, 3.0):
        for t in (0.0, 25.0, 1000.0):
            s = np.array([complex(sigma, t)])

            def bound(n):
                return 2.0 * special._remainder_bound(sigma - 0.5, sigma + 0.5, t + 0.5, n)

            for n in range(11, 400, 7):
                for tol, want in ((bound(n), n), (math.nextafter(bound(n), 0.0), n + 1)):
                    assert special._choose_N(s, tol) == want, (sigma, t, n, tol)
                    root = math.exp((math.log(bound(1)) - math.log(tol)) / (sigma + 8.5))
                    first = max(10, math.ceil(root))
                    if first != want:
                        steps[want - first] += 1
    assert steps[-1] > 0 and steps[1] > 0, steps


@pytest.mark.parametrize(
    "fn", [prime_zeta, prime_zeta_deriv, psi_prime_part, transform.transform_weighted_primes]
)
def test_prime_zeta_family_on_an_empty_batch(fn):
    """An empty array or grid gives an empty complex array of its shape."""
    for s in (np.empty(0, dtype=complex), np.empty((0, 3), dtype=complex), OuterGrid(np.empty(0), np.empty(0))):
        out = fn(s)
        assert out.shape == np.shape(s) and out.dtype == complex


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


@pytest.mark.parametrize("near_pole", [False, True])
def test_psi_on_an_outer_grid_is_psi_on_its_points(near_pole, rng):
    """psi_entire hands zeta the flat points of a grid as of an array, so the
    two agree bit for bit, with or without points in the series disc."""
    a = rng.uniform(1.02, 2.5, size=6) + 1j * rng.uniform(-30.0, 30.0, size=6)
    if near_pole:
        a[0] = 1.0 + 2e-4
    grid = OuterGrid(a, np.array([0.0, 1e-4j, -0.5j]))
    assert np.array_equal(psi_entire(grid), psi_entire(np.asarray(grid)))


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


def _mp_prime_zeta_deriv(mpmath, z):
    """P'(z) = sum_k mu(k) zeta'(kz)/zeta(kz) in mpmath, at its working
    precision, stopped once 2^{-k sigma} < 1e-16; each dropped term is below
    3 * 2^{-k sigma}, so the dropped tail is below 1e-15."""
    ref, k = mpmath.mpf(0), 1
    while 2.0 ** (-k * float(z.real)) >= 1e-16:
        if _mobius(k):
            ref += _mobius(k) * mpmath.zeta(k * z, derivative=1) / mpmath.zeta(k * z)
        k += 1
    return ref


@pytest.mark.parametrize("sigma", [1.01, 1.03, 1.1, 1.3])
def test_prime_zeta_deriv_against_mpmath(sigma):
    """P'(s) against 30-digit mpmath, within the default abs_tol 1e-10."""
    mpmath = pytest.importorskip("mpmath")
    for t in (0.0, 5.0, 20.0):
        with mpmath.workdps(30):
            ref = complex(_mp_prime_zeta_deriv(mpmath, mpmath.mpc(sigma, t)))
        assert abs(prime_zeta_deriv(complex(sigma, t)) - ref) <= 1e-10, t


@pytest.mark.parametrize("sigma", [1.02, 1.05, 1.3])
def test_prime_zeta_deriv_and_weighted_primes_transform_at_1e13(sigma):
    """The point path of P' and of G(s) = (P(s) - s P'(s))/s^2, the weighted
    primes' transform, at EvalTolerance(1e-13) against 30-digit mpmath:
    within 1e-13 plus 4 ulp of |ref|, so a 1e-12 relative error fails
    (|P'| is about 1/(sigma - 1) near s = 1). Measured worst: 2.1e-14
    absolute, 1.7e-14 relative."""
    mpmath = pytest.importorskip("mpmath")
    tol = EvalTolerance(1e-13)
    for t in (0.0, 5.0, 20.0, -13.0):
        s = complex(sigma, t)
        with mpmath.workdps(30):
            z = mpmath.mpc(sigma, t)
            ref_pd = _mp_prime_zeta_deriv(mpmath, z)
            ref_g = complex((mpmath.primezeta(z) - z * ref_pd) / z**2)
            ref_pd = complex(ref_pd)
        for got, ref in ((prime_zeta_deriv(s, tol), ref_pd), (transform.transform_weighted_primes(s, tol), ref_g)):
            assert abs(got - ref) <= 1e-13 + 4 * np.finfo(float).eps * abs(ref), (t, got, ref)


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
    grid = OuterGrid(s)
    val, der = special._em_eval(grid, N, special._powers(grid.a, N), special._powers(grid.b, N))
    ref_v, ref_d = _em_direct(s, N)
    assert np.max(np.abs(val - ref_v)) <= 1e-13 * np.max(np.abs(ref_v))
    assert np.max(np.abs(der - ref_d)) <= 1e-13 * np.max(np.abs(ref_d))


@pytest.mark.parametrize("N, P, Q", [(10, 64, 16), (288, 64, 16), (4096, 1000, 2)])
def test_em_eval_on_an_outer_grid_matches_the_direct_powers(N, P, Q, rng):
    """The product of the n^{-a} and n^{-b} power matrices against a per-term
    exp at every point a_j + b_i."""
    a = rng.uniform(1.05, 3.0, size=P) + 1j * rng.uniform(-30.0, 30.0, size=P)
    b = 1j * rng.uniform(-2.0, 2.0, size=Q)
    val, der = special._em_eval(OuterGrid(a, b), N, special._powers(a, N), special._powers(b, N))
    ref_v, ref_d = _em_direct(np.add.outer(a, b).ravel(), N)
    assert np.max(np.abs(val - ref_v)) <= 1e-13 * np.max(np.abs(ref_v))
    assert np.max(np.abs(der - ref_d)) <= 1e-13 * np.max(np.abs(ref_d))


@pytest.mark.parametrize("k", [2, 3, 5])
def test_em_eval_on_kth_power_matrices_matches_the_direct_powers(k, rng):
    """The k >= 2 batches of prime_zeta_pair: the elementwise k-th powers of
    n^{-a} and n^{-b}, built once at a larger N and cut to N - 1 rows, are
    the power matrices of the grid k s = (k a, k b)."""
    N, N_build = 83, 154
    a = rng.uniform(1.05, 3.0, size=40) + 1j * rng.uniform(-30.0, 30.0, size=40)
    b = 1j * rng.uniform(-2.0, 2.0, size=8)
    A = special._powers(a, N_build)[: N - 1] ** k
    B = special._powers(b, N_build)[: N - 1] ** k
    val, der = special._em_eval(OuterGrid(k * a, k * b), N, A, B)
    ref_v, ref_d = _em_direct(k * np.add.outer(a, b).ravel(), N)
    assert np.max(np.abs(val - ref_v)) <= 1e-13 * np.max(np.abs(ref_v))
    assert np.max(np.abs(der - ref_d)) <= 1e-13 * np.max(np.abs(ref_d))


def _em_eval_recurrence(grid, N, A, B):
    """_em_eval with the tail's Bernoulli terms from the running product
    s(s+1)...(s+2k-2) and the running sum of its factors' reciprocals, in
    place of the Horner polynomials: the form _em_eval replaced."""
    ln_all = np.log(np.arange(1, N, dtype=float))
    lnN = math.log(N)
    with np.errstate(under="ignore"):
        sums = A.T @ np.concatenate([B, -ln_all[:, None] * B], axis=1)
        val = sums[:, : grid.b.size].ravel()
        der = sums[:, grid.b.size :].ravel()
        s = grid.points
        NmS = np.multiply.outer(np.exp(-grid.a * lnN), np.exp(-grid.b * lnN)).ravel()
        tail = N * NmS / (s - 1.0)
        val += tail + 0.5 * NmS
        der += -lnN * tail - N * NmS / (s - 1.0) ** 2 - lnN * 0.5 * NmS
        P, H = s.copy(), 1.0 / s
        for k, c in enumerate(special._BERN, start=1):
            Npow = NmS * float(N) ** -(2 * k - 1)
            val += c * P * Npow
            der += c * Npow * (P * H - lnN * P)
            f1, f2 = s + (2 * k - 1), s + 2 * k
            P, H = P * f1 * f2, H + 1.0 / f1 + 1.0 / f2
    return val, der


def _em_tail_magnitudes(s, N):
    """|N^{-s}| times the sum of the magnitudes of the tail's terms, for
    zeta and for zeta': N/|s-1| + 1/2 + sum_k |B_{2k}/(2k)!| N^{1-2k} r_k(|s|)
    with r_k(x) = x(x+1)...(x+2k-2), which bounds both |s(s+1)...(s+2k-2)|
    and the sum of the magnitudes of its monomials, and for zeta' the same
    with N/|s-1|^2 and r_k'(|s|), plus ln N times the first."""
    m, lnN = np.abs(s), math.log(N)
    val, der = N / np.abs(s - 1.0) + 0.5, N / np.abs(s - 1.0) ** 2
    r, dr = m, np.ones_like(m)
    for k, c in enumerate(special._BERN, start=1):
        val, der = val + abs(c) * N ** (1.0 - 2 * k) * r, der + abs(c) * N ** (1.0 - 2 * k) * dr
        for j in (2 * k - 1, 2 * k):
            r, dr = r * (m + j), dr * (m + j) + r
    scale = np.exp(-s.real * lnN)
    return scale * val, scale * (der + lnN * val)


@pytest.mark.parametrize("t_max", [1.0, 40.0, 2000.0])
@pytest.mark.parametrize("k", [1, 2, 3, 7])
@pytest.mark.parametrize("N", [10, 43, 154, 4096])
def test_em_eval_horner_tail_matches_the_recurrence(N, k, t_max, rng):
    """On random grids up to |t| = 2000 (the Bernoulli terms far past
    convergence there), and on the k-th power matrices of the Moebius
    orders, the Horner tail of _em_eval and the running-product recurrence
    share the power sums and differ by the rounding of the tail alone: at
    most 8 ulps of its term magnitudes plus the sum's own (2.4 seen)."""
    a = rng.uniform(1.01, 3.0, size=20) + 1j * rng.uniform(-t_max, t_max, size=20)
    b = rng.uniform(0.0, 0.5, size=4) + 1j * rng.uniform(-2.0, 2.0, size=4)
    A = special._powers(a, max(N, 154))[: N - 1] ** k
    B = special._powers(b, max(N, 154))[: N - 1] ** k
    grid = OuterGrid(k * a, k * b)
    val, der = special._em_eval(grid, N, A, B)
    ref_v, ref_d = _em_eval_recurrence(grid, N, A, B)
    mag_v, mag_d = _em_tail_magnitudes(grid.points, N)
    eps = np.finfo(float).eps
    assert np.all(np.abs(val - ref_v) <= 8.0 * eps * (mag_v + np.abs(ref_v)))
    assert np.all(np.abs(der - ref_d) <= 8.0 * eps * (mag_d + np.abs(ref_d)))


def test_real_arithmetic_log_is_numpys_principal_log(rng):
    edge = np.array([-1.0, -2.5, -1e-300, -1e300])
    unit = np.exp(1j * rng.uniform(-np.pi, np.pi, size=64))
    rand = rng.normal(size=10_000) + 1j * rng.normal(size=10_000)
    w = np.concatenate(
        [
            edge + 0.0j,  # the negative real axis, +0.0 imaginary part
            np.array([complex(x, -0.0) for x in edge]),  # and -0.0
            unit * (1.0 + 1e-12),
            unit * (1.0 - 1e-12),
            unit * 1e-300,
            unit * 1e300,
            1j * np.array([1e-300, 0.5, 1.0, 7.0, 1e300]),  # the imaginary axis
            -1j * np.array([1e-300, 0.5, 1.0, 7.0, 1e300]),
            rand * np.exp(rng.uniform(-30.0, 30.0, size=rand.size)),
        ]
    )
    ref = np.log(w)
    got = special._log(w)
    assert np.all(np.abs(got - ref) <= 4.5e-16 * np.maximum(1.0, np.abs(ref)))
    # the cut: the sign of a zero imaginary part picks the side, as in np.log
    assert np.array_equal(np.signbit(got.imag), np.signbit(ref.imag))


def _pnt_kernel_points():
    """The 4,032 kernel-route points 1 + eps + i x of the pnt run (eps = 0.05,
    L = 8 pi, N = 72): 252 panel midpoints times 16 Gauss-Legendre offsets."""
    L, eps, N = 8.0 * math.pi, 0.05, 72
    P = int(math.ceil(L / min(2 * eps, 0.1, L / (3 * N))))
    h = L / (2 * P)
    xi = np.polynomial.legendre.leggauss(16)[0]
    return 1.05 + 1j * OuterGrid((2 * np.arange(P) + 1) * h, h * xi)


def test_prime_zeta_pair_on_the_pnt_kernel_points_builds_its_powers_once(monkeypatch):
    """Every Moebius order of one prime_zeta_pair call takes its power
    matrices from one build of n^{-a} and one of n^{-b}, at the largest N
    (154); the other two builds are the 2-point real zeta batch that sets
    the peel cap, which a second call at the same sigma_min takes from its
    memo. The batch Ns are 154, 87, 82, 60, 50 and 43."""
    special._real_zeta_triple.cache_clear()
    s = _pnt_kernel_points()
    builds, batches = [], []
    powers, em_eval = special._powers, special._em_eval

    def counted_powers(z, N):
        builds.append((z.copy(), N))
        return powers(z, N)

    def counted_em_eval(grid, N, A, B):
        batches.append((grid.size, N))
        return em_eval(grid, N, A, B)

    monkeypatch.setattr(special, "_powers", counted_powers)
    monkeypatch.setattr(special, "_em_eval", counted_em_eval)
    prime_zeta_pair(s)
    assert sum(np.array_equal(z, s.a) for z, _ in builds) == 1
    assert sum(np.array_equal(z, s.b) for z, _ in builds) == 1
    assert len(builds) == 4
    assert [N for z, N in builds if z.size > 2] == [154, 154]
    assert [N for size, N in batches if size == s.size] == [154, 87, 82, 60, 50, 43]
    builds.clear()
    prime_zeta_pair(s)
    assert len(builds) == 2


def test_prime_zeta_pair_in_power_blocks_matches_one_block(monkeypatch, rng):
    """Past _POWER_CELLS cells the grid's a runs in blocks, each with its
    own build; the values match the one-block call up to the rounding of
    the power sums (|zeta| ~ 20 here), whose summation order the block
    shape may change."""
    a = rng.uniform(1.05, 2.0, size=30) + 1j * rng.uniform(-30.0, 30.0, size=30)
    grid = OuterGrid(a, 1j * rng.uniform(-0.5, 0.5, size=4))
    whole = prime_zeta_pair(grid)
    monkeypatch.setattr(special, "_POWER_CELLS", 1000)  # blocks of 1000 // N rows
    for got, ref in zip(prime_zeta_pair(grid), whole):
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_zeta_in_power_blocks_matches_one_block(monkeypatch, rng):
    """zeta and zeta' take the one power build of the Moebius orders, a in
    blocks past _POWER_CELLS cells; the values match the one-block call up
    to the rounding of the power sums."""
    a = rng.uniform(1.05, 2.0, size=30) + 1j * rng.uniform(-30.0, 30.0, size=30)
    grid = OuterGrid(a, 1j * rng.uniform(-0.5, 0.5, size=4))
    whole = zeta(grid), zeta_deriv(grid)
    monkeypatch.setattr(special, "_POWER_CELLS", 1000)  # blocks of 1000 // N rows
    blocks = []
    em_eval = special._em_eval

    def counted(grid, N, A, B):
        blocks.append(grid.a.size)
        return em_eval(grid, N, A, B)

    monkeypatch.setattr(special, "_em_eval", counted)
    for f, ref in zip((zeta, zeta_deriv), whole):
        got = f(grid)
        assert got.shape == (30, 4)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert len(blocks) > 2 and sum(blocks) == 2 * a.size  # several blocks per call


def test_prime_zeta_pair_runs_one_k1_zeta_batch(monkeypatch):
    """The log branch and zeta'/zeta share the k = 1 Euler-Maclaurin batch."""
    s = np.array([1.05 + 0.5j, 1.05 + 3.0j, 1.2 - 7.0j])
    batches = []
    em_eval = special._em_eval

    def counted(grid, N, A, B):
        batches.append(grid.points)
        return em_eval(grid, N, A, B)

    monkeypatch.setattr(special, "_em_eval", counted)
    prime_zeta_pair(s)
    assert sum(np.array_equal(pts, s) for pts in batches) == 1


def test_factor_plan_against_trial_division():
    plan = special._factor_plan(10_000)
    assert [_mobius(k) for k in range(1, 10_001)] == plan.mu[1:].tolist()
    assert plan.mu[0] == 0
    primes = [n for n in range(2, 10_001) if all(n % d for d in range(2, math.isqrt(n) + 1))]
    assert plan.primes.tolist() == primes
    # the layers cover 2..10^4 once each, and every row is spf * cofactor
    # with the cofactor one layer down
    rows = np.concatenate([r for r, _, _ in plan.layers])
    assert np.array_equal(np.sort(rows), np.arange(2, 10_001))
    for j, (r, p, c) in enumerate(plan.layers):
        assert np.array_equal(r, p * c)
        assert np.isin(c, plan.layers[j - 1][0] if j else [1]).all()


@pytest.mark.parametrize("n_max", [0, 1, 2, 9, 13, 153, 1024, 1025])
def test_factor_plan_of_each_n_is_its_own_sieve(n_max):
    """Every n_max, a power of two or not and the three a pnt op asks for
    among them, gets the plan of exactly 0..n_max, and a second call returns
    the cached plan."""
    plan = special._factor_plan(n_max)
    assert plan is special._factor_plan(n_max)
    assert plan.mu.size == n_max + 1 and plan.mu[0] == 0
    assert plan.mu[1:].tolist() == [_mobius(k) for k in range(1, n_max + 1)]
    rows = np.concatenate([r for r, _, _ in plan.layers] or [np.empty(0, dtype=int)])
    assert np.array_equal(np.sort(rows), np.arange(2, n_max + 1))
    if n_max >= 2:
        primes = [n for n in range(2, n_max + 1) if all(n % d for d in range(2, math.isqrt(n) + 1))]
        assert plan.primes.tolist() == primes


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
    mpmath at abs 1e-10 (P' from _mp_prime_zeta_deriv)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        z = mpmath.mpc(s.real, s.imag)
        ref_z = complex(mpmath.zeta(z))
        ref_zd = complex(mpmath.zeta(z, derivative=1))
        ref_p = complex(mpmath.primezeta(z))
        ref_pd = complex(_mp_prime_zeta_deriv(mpmath, z))
    p, pd = prime_zeta_pair(s)
    assert abs(zeta(s) - ref_z) <= 1e-10
    assert abs(zeta_deriv(s) - ref_zd) <= 1e-10
    assert abs(prime_zeta(s) - ref_p) <= 1e-10
    assert abs(p - ref_p) <= 1e-10
    assert abs(pd - ref_pd) <= 1e-10


def test_zeta_and_prime_zeta_on_an_outer_grid_against_mpmath():
    """One 3 x 4 grid s = a_j + b_i against 30-digit mpmath at abs 1e-10."""
    mpmath = pytest.importorskip("mpmath")
    grid = OuterGrid([1.03 + 2.0j, 1.2 - 15.0j, 1.6 + 30.0j], [0.0, 0.01 + 0.3j, 0.02 - 0.7j, 0.5j])
    z, (p, _) = zeta(grid), prime_zeta_pair(grid)
    assert z.shape == p.shape == (3, 4)
    with mpmath.workdps(30):
        for (j, i), s in np.ndenumerate(np.asarray(grid)):
            w = mpmath.mpc(s.real, s.imag)
            assert abs(z[j, i] - complex(mpmath.zeta(w))) <= 1e-10
            assert abs(p[j, i] - complex(mpmath.primezeta(w))) <= 1e-10


def test_prime_zeta_deriv_is_the_pair_derivative():
    for s in [*_ORACLE_POINTS, np.array(_ORACLE_POINTS)]:
        assert np.array_equal(prime_zeta(s), prime_zeta_pair(s)[0])
        assert np.array_equal(prime_zeta_deriv(s), prime_zeta_pair(s)[1])


def test_prime_zeta_pair_on_the_pnt_kernel_points_runs_few_zeta_batches(monkeypatch):
    """With the primes p <= M peeled from the Moebius sum, P and P' on the
    4,032 kernel-route points of the pnt run (sigma = 1.05, eps = 0.05,
    L = 8 pi, N = 72: 252 panel midpoints, panels min(2 eps, 0.1, L/(3N))
    wide, plus 16 Gauss-Legendre offsets) take at most six Euler-Maclaurin
    batches on the point grid: the k = 1 batch and a few squarefree k >= 2.
    Without the peel the 2^{-k sigma} tails need 22 Moebius terms. The six
    primes p <= 13 certify the k = 1 log branch at sigma = 1.05, and leave
    k = 1, 2, 3, 5, 6, 7, whose batches stop at the smallest certified N:
    154, 87, 82, 60, 50 and 43."""
    s = _pnt_kernel_points()
    assert s.size == 4032
    batches = []
    em_eval = special._em_eval

    def counted(grid, N, A, B):
        batches.append((grid.size, N))
        return em_eval(grid, N, A, B)

    monkeypatch.setattr(special, "_em_eval", counted)
    prime_zeta_pair(s)
    on_grid = [N for size, N in batches if size == s.size]
    assert 2 <= len(on_grid) <= 6
    assert on_grid == [154, 87, 82, 60, 50, 43]


def test_prime_zeta_pair_on_the_pnt_kernel_points_against_mpmath():
    """P and P' at 16 of the 4,032 pnt kernel-route points, spread over the
    panels and the Gauss-Legendre offsets, against 30-digit mpmath at the
    default abs_tol 1e-10. The whole grid is one batch, so the sampled
    points take the peel cap, orders and truncations of the pnt run; each
    takes another panel and another of the 16 offsets (P' from
    _mp_prime_zeta_deriv)."""
    mpmath = pytest.importorskip("mpmath")
    grid = _pnt_kernel_points()
    p, pd = (v.ravel() for v in prime_zeta_pair(grid))
    P, Q = grid.shape
    for i in np.linspace(0, P - 1, 16).astype(int) * Q + np.arange(Q):  # panel row, offset
        s = grid.points[i]
        with mpmath.workdps(30):
            z = mpmath.mpc(s.real, s.imag)
            ref_p = complex(mpmath.primezeta(z))
            ref_pd = complex(_mp_prime_zeta_deriv(mpmath, z))
        assert abs(p[i] - ref_p) <= 1e-10, s
        assert abs(pd[i] - ref_pd) <= 1e-10, s


@pytest.mark.parametrize("abs_tol", [1e-10, 1e-12])
@pytest.mark.parametrize("s", [complex(5.25, 2000.0), complex(10.0, 126.0)])
def test_zeta_below_the_height_against_mpmath(s, abs_tol):
    """Where the smallest certified N lies below |t| (323 at 5.25 + 2000i,
    17 at 10 + 126i, abs_tol 1e-10), zeta and zeta' still meet abs_tol
    against 30-digit mpmath. At abs_tol 1e-14 and |t| >= 500 the rounding
    of the float sums alone misses zeta' by 2-6x, whatever N, so abs_tol
    stays >= 1e-12 here."""
    mpmath = pytest.importorskip("mpmath")
    assert special._choose_N(np.array([s]), abs_tol) < abs(s.imag)
    with mpmath.workdps(30):
        z = mpmath.mpc(s.real, s.imag)
        ref_z, ref_zd = complex(mpmath.zeta(z)), complex(mpmath.zeta(z, derivative=1))
    tol = EvalTolerance(abs_tol)
    assert abs(zeta(s, tol) - ref_z) <= abs_tol
    assert abs(zeta_deriv(s, tol) - ref_zd) <= abs_tol


# ---------------------------------------------------------------------------
# exponential integral and Lambert W
# ---------------------------------------------------------------------------

_E1_ANGLES = np.linspace(-math.pi / 2, math.pi / 2, 41)
# the eps = 0 frozen tail at X = pi (N + 3) (the pnt grid, N = 72), at the
# uncapped X = pi N + 500, and at X = 11 pi with k up to 8: 2 (X -+ pi k)
_TAIL_X = [(math.pi * 75, 73), (math.pi * 72 + 500.0, 73), (math.pi * 11, 9)]

# region: (points, bound on the relative error against 30-digit mpmath). The
# bounds are about twice the worst error measured on each set, batch or alone:
# 5.0e-16, 2.8e-16, 9.0e-16, 2.1e-16, 3.2e-16, 3.7e-16, 2.5e-16 and 2.8e-16.
# seam_off_axis and seam_off_axis_inner hold points of 1.5 < |w| <= 2 and
# 1.25 < |w| <= 1.5 with |arg w| < 1.2, which the continued fraction takes;
# the power series erred by up to 3.2e-15 on the inner set.
_E1_REGIONS = {
    "battery_nodes": (0.05 + 1j * np.linspace(0.0, 8.0 * math.pi, 161), 1e-15),
    "near_imaginary_axis": (
        1e-6 + 1j * np.concatenate([-np.geomspace(1e-3, 100.0, 40), np.geomspace(1e-3, 100.0, 40)]),
        6e-16,
    ),
    "seam_inside": ((2.0 - np.geomspace(1e-12, 1e-2, 41)) * np.exp(1j * _E1_ANGLES), 2e-15),
    "seam_outside": ((2.0 + np.geomspace(1e-12, 1e-2, 41)) * np.exp(1j * _E1_ANGLES), 5e-16),
    "seam_off_axis": (
        np.outer(np.linspace(1.5, 2.0, 21)[1:], np.exp(1j * np.linspace(-1.1, 1.1, 12))).ravel(),
        7e-16,
    ),
    "seam_off_axis_inner": (
        np.outer(np.linspace(1.25, 1.5, 21)[1:], np.exp(1j * np.linspace(-1.1, 1.1, 12))).ravel(),
        8e-16,
    ),
    "positive_real_axis": (np.geomspace(1e-6, 60.0, 81) + 0j, 5e-16),
    "frozen_tail": (
        np.concatenate([2j * (X + sign * math.pi * np.arange(n)) for X, n in _TAIL_X for sign in (-1, 1)]),
        6e-16,
    ),
}


@pytest.mark.parametrize("region", list(_E1_REGIONS))
def test_exp_e1_against_mpmath(region):
    """e^w E1(w) against 30-digit mpmath, relative, on each region as one
    batch and one point at a time (each point takes the continued-fraction
    depth its own |w| needs either way)."""
    mpmath = pytest.importorskip("mpmath")
    w, bound = _E1_REGIONS[region]
    with mpmath.workdps(30):
        ref = np.array([complex(mpmath.exp(mpmath.mpc(z)) * mpmath.e1(mpmath.mpc(z))) for z in w])
    batch = special.exp_e1(w)
    assert batch.shape == w.shape
    assert np.max(np.abs(batch - ref) / np.abs(ref)) <= bound
    alone = np.array([special.exp_e1(z) for z in w])
    assert np.max(np.abs(alone - ref) / np.abs(ref)) <= bound


def test_exp_e1_fraction_runs_each_point_at_its_own_depth():
    """Where the continued fraction runs, a batch gives each point exactly
    its value alone: the depth follows the point's own |w|, not the batch's
    smallest, which would run the frozen-tail arguments at the depth of
    |w| = 2."""
    w = np.concatenate([_E1_REGIONS[name][0] for name in ("battery_nodes", "frozen_tail")])
    w = w[np.abs(w) > 2.0]
    assert np.array_equal(special.exp_e1(w), np.array([special.exp_e1(z) for z in w]))


@pytest.mark.parametrize("kind", ["series", "fraction", "mixed", "empty"])
def test_exp_e1_batch_equals_its_points(kind):
    """One masked dispatch serves every batch: all-series, all-fraction,
    mixed and empty batches give each point exactly its value alone."""
    w = np.concatenate([region for region, _ in _E1_REGIONS.values()])
    r = np.abs(w)
    series = (r <= 2.0) & ~((r > 1.25) & (np.abs(np.angle(w)) < 1.2))
    w = {"series": w[series], "fraction": w[~series], "mixed": w, "empty": w[:0]}[kind]
    batch = special.exp_e1(w)
    assert batch.shape == w.shape
    assert np.array_equal(batch, np.array([special.exp_e1(z) for z in w], dtype=complex))


def test_exp_e1_keeps_the_shape_and_refuses_the_left_half_plane():
    w = np.array([[0.5 + 1j, 3.0 - 4.0j], [1e-3j, 20.0 + 0j]])
    assert special.exp_e1(w).shape == (2, 2)
    assert np.array_equal(special.exp_e1(w).ravel(), special.exp_e1(w.ravel()))
    assert np.ndim(special.exp_e1(2.5 + 1j)) == 0
    with pytest.raises(DomainError):
        special.exp_e1(np.array([1.0 + 0j, -1e-9 + 1j]))


@pytest.mark.parametrize("w", [0.0, 0j, np.array([1.0 + 0j, 0.0, 2j])])
def test_exp_e1_refuses_the_pole_at_zero(w):
    """E1 has its log pole at w = 0: a zero, alone or in a batch, is a
    DomainError, not an inf or a NaN from log(0)."""
    with pytest.raises(DomainError, match="w != 0"):
        special.exp_e1(w)


def test_sine_and_cosine_integrals_from_exp_e1_against_scipy():
    """E1(ix) = -Ci(x) + i (Si(x) - pi/2) on x in [1e-3, 1e4] against
    scipy.special.sici, absolute 1e-15 (Ci near its log singularity,
    relative); and the exact tail of the constant 1 against the sici form
    of the same integrals at the pnt X = 75 pi,

        int_X^inf sin^2 x / (x - c)^2 dx = sin^2 z / z + pi/2 - Si(2z),
        int_X^inf sin^2 x (1/(x - pi k) - 1/(x + pi k)) dx
            = ln(z+ / z-)/2 - (Ci(2z+) - Ci(2z-))/2,

    z = X - c, z-+ = X -+ pi k (Abramowitz-Stegun 5.2)."""
    x = np.geomspace(1e-3, 1e4, 400)
    e1 = np.exp(-1j * x) * special.exp_e1(1j * x)
    si, ci = scipy.special.sici(x)
    assert np.max(np.abs(math.pi / 2 + e1.imag - si)) <= 1e-15
    assert np.max(np.abs(-e1.real - ci) / np.maximum(1.0, np.abs(ci))) <= 1e-15

    from tauberlab import operators

    X, ks = math.pi * 75, math.pi * np.arange(73)
    zm, zp = X - ks, X + ks
    si_m, ci_m = scipy.special.sici(2.0 * zm)
    si_p, ci_p = scipy.special.sici(2.0 * zp)
    F_ref = 0.5 * (np.log(zp / zm) - (ci_p - ci_m))
    D_ref = np.sin(zm) ** 2 / zm + np.sin(zp) ** 2 / zp + math.pi - si_m - si_p
    F, D = operators._tail_integrals(X, 72, [(0, 1.0, 0.0, None)], 1)
    assert np.max(np.abs(F[:, 0] - F_ref)) <= 1e-15
    assert np.max(np.abs(D[:, 0] - D_ref)) <= 1e-15


def test_the_package_runs_without_scipy():
    """A fresh interpreter imports tauberlab.tauber and tauberlab.cli, builds
    the slow_approach kernel route at eps = 0.05 (e^w E1) and its eps = 0
    diagonals (the exact tail), and has loaded no scipy module; no file of
    the package imports scipy."""
    import subprocess
    import sys
    from pathlib import Path

    import tauberlab

    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import tauberlab.tauber, tauberlab.cli\n"
        "from tauberlab import transform\n"
        "from tauberlab.operators import IntervalSpec, assemble_kernel_route, diagonal_sequence\n"
        "S, I = transform.source_slow_approach(), IntervalSpec(8.0 * 3.141592653589793)\n"
        "assemble_kernel_route([S], I, 0.05, 8)\n"
        "diagonal_sequence([S], I, 0.0, 8)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    package = Path(tauberlab.__file__).resolve().parent
    done = subprocess.run(
        [sys.executable, "-c", code, str(package.parent)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.strip() == "[]"
    for path in package.glob("*.py"):
        text = path.read_text()
        assert "import scipy" not in text and "from scipy" not in text, path.name


def test_uncertified_branch_warning_shows_sigma_in_full(caplog):
    """sigma = 1.0000001 is past every peel cap: the warning names it to
    the last digit, not rounded to 1, and keeps the word "certify" that
    perfbench counts the warnings by."""
    with caplog.at_level("WARNING", logger="tauberlab.special"):
        special.prime_zeta(1.0000001)
    assert "sigma = 1.0000001 is too close to 1 to certify" in caplog.text
