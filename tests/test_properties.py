"""Property tests: Schwarz reflection of the zeta family, the closed-form
Euler-Maclaurin truncation, the outer-grid path against plain point
arrays, symmetry and positive semi-definiteness of W on both routes across
the battery, the spectrum from its parity blocks, the closed form for A*,
the direct sums of the windowed integrals, the prime count against a
dense sieve, the declared jumps of the step sources against their values,
and the two routes on random step sources."""

import functools
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tauberlab import operators, special, tauber, transform
from tauberlab.operators import IntervalSpec, assemble_frequency_route, assemble_kernel_route
from tauberlab.special import OuterGrid, prime_zeta_pair, zeta, zeta_deriv
from tauberlab.tauber import battery_members
from test_transform import steps_times_log

sigmas = st.floats(1.01, 3.0)
ts = st.floats(-50.0, 50.0)


def _reflected(f, s):
    """|f(conj s) - conj f(s)|, relative to max(1, |f(s)|)."""
    v, w = complex(f(s)), complex(f(s.conjugate()))
    return abs(w - v.conjugate()) / max(1.0, abs(v))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(sigmas, ts)
def test_schwarz_reflection(sigma, t):
    s = complex(sigma, t)
    assert _reflected(zeta, s) < 1e-12
    assert _reflected(zeta_deriv, s) < 1e-12
    assert _reflected(lambda z: prime_zeta_pair(z)[0], s) < 1e-12
    assert _reflected(lambda z: prime_zeta_pair(z)[1], s) < 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(st.floats(1.001, 3.0), st.floats(-200.0, 200.0)), min_size=1, max_size=3),
    st.floats(-14.0, -4.0),
    st.sampled_from(special._PEEL_CAPS),
    st.floats(1.0, 20.0, exclude_min=True),
)
def test_derivative_bounds_also_certify_the_values(points, log_tol, M, sigma):
    """Every batch is truncated for zeta' and every Moebius sum cut for
    zeta'/zeta: the N must also meet the value's remainder bound, and the
    zeta'/zeta tail bound must cover the log tail x0 (1 + a/(sigma-1))/(1 - x0)."""
    s = np.array([complex(sig, t) for sig, t in points])
    tol = 10.0**log_tol
    N = special._choose_N(s, tol)
    assert special._remainder_bound(s.real.min(), s.real.max(), np.abs(s.imag).max(), N) <= tol
    a = M + 1.0
    x0 = a**-sigma
    assert special._peeled_tail_bound(M, sigma) >= x0 * (1.0 + a / (sigma - 1.0)) / (1.0 - x0)


def _doubling_N(bound, start, tol):
    """The search the closed form replaced: N = start * 2^j, capped at the
    term budget, until bound(N) meets tol."""
    N = min(start, special._MAX_TERMS)
    while bound(N) > tol and N < special._MAX_TERMS:
        N = min(2 * N, special._MAX_TERMS)
    return N


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(st.floats(1.0, 20.0, exclude_min=True), st.floats(-1e4, 1e4)),
        min_size=1,
        max_size=3,
    ),
    st.floats(-15.0, -4.0),
)
def test_choose_N_is_the_smallest_certified_truncation(points, log_tol):
    """_choose_N is the smallest N >= 10 whose Cauchy-circle bound meets
    abs_tol, so it is no larger than what the doubling search gave from
    either of its starts: max(10, ceil|t| + 10), and 10 for the Moebius
    k >= 2 batches."""
    s = np.array([complex(sig, t) for sig, t in points])
    tol = 10.0**log_tol
    sig_min, sig_max, t_max = s.real.min(), s.real.max(), np.abs(s.imag).max()

    def bound(n):
        return 2.0 * special._remainder_bound(sig_min - 0.5, sig_max + 0.5, t_max + 0.5, n)

    N = special._choose_N(s, tol)
    assert bound(N) <= tol
    assert N == 10 or bound(N - 1) > tol
    assert N <= _doubling_N(bound, max(10, math.ceil(t_max) + 10), tol)
    assert N <= _doubling_N(bound, 10, tol)


_GRID_FUNCTIONS = {
    "zeta": zeta,
    "zeta_deriv": zeta_deriv,
    "prime_zeta": lambda s: prime_zeta_pair(s)[0],
    "prime_zeta_deriv": lambda s: prime_zeta_pair(s)[1],
    "psi_entire": special.psi_entire,
    "transform_integers": transform.transform_integers,
    "transform_weighted_primes": transform.transform_weighted_primes,
}


# the largest Moebius order _term_sums models
_MAX_ORDER = 7


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.floats(1.02, 3.0))
def test_term_sums_cover_every_moebius_order(sigma):
    """Every order of a prime_zeta_pair batch with sigma_min in [1.02, 3],
    the real parts of test_outer_grid_matches_its_points, is at most
    _MAX_ORDER."""
    orders = []
    em_orders = special._em_orders

    def recorded(s, ks, Ns):
        orders.extend(ks)
        return em_orders(s, ks, Ns)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(special, "_em_orders", recorded)
        prime_zeta_pair(np.array([complex(sigma, 3.0), complex(sigma + 0.5, -20.0)]))
    assert 1 in orders and max(orders) <= _MAX_ORDER


def _term_sums(s):
    """Per function of _GRID_FUNCTIONS, a bound at the points s on the sum
    of |term| * k over the terms that the powers n^{-ks} feed, k <= 7 (at
    the default tolerance every sigma >= 1.02 peels the primes p <= 13 and
    takes the Moebius orders k = 1, 2, 3, 5, 6, 7 at most;
    test_term_sums_cover_every_moebius_order).
    With sigma = Re s, Z_k = zeta(k sigma) and D_k = -zeta'(k sigma):

    - zeta sums n^{-s}, to Z_1, and zeta' sums ln n n^{-s}, to D_1; psi
      and zeta(s)/s divide the first by |s|.
    - P adds the peeled p^{-s}, to P(sigma), and for each order k, with
      weight 1/k, the log of zeta(ks) prod_p (1 - p^{-ks}): a relative
      change d of the order's powers moves log zeta(ks) by at most
      d Z_k/|zeta(ks)| and the product's log by d (Z_k - 1).
    - P' adds ln p p^{-s}, to -P'(sigma), and per order, with weight 1,
      zeta'(ks)/zeta(ks), moved by d (D_k + Z_k |zeta'/zeta|(ks))/|zeta(ks)|,
      and ln p x/(1 - x) at x = p^{-ks}, moved by d D_k/(1 - 2^{-k sigma})^2
      <= 4 d D_k.
    - (P - s P')/s^2 adds the two, the second times |s|, over |s|^2."""
    sig, m = s.real, np.abs(s)
    k = np.arange(1, _MAX_ORDER + 1).reshape(-1, *[1] * s.ndim)
    Z, D = zeta(k * sig).real, -zeta_deriv(k * sig).real
    z_ks, zd_ks = np.abs(zeta(k * s)), np.abs(zeta_deriv(k * s))
    pz, pzd = (v.real for v in prime_zeta_pair(sig))
    t_pz = pz + np.sum(Z / z_ks + Z - 1.0, axis=0)
    t_pzd = -pzd + np.sum(k * ((D + Z * zd_ks / z_ks) / z_ks + 4.0 * D), axis=0)
    return {
        "zeta": Z[0],
        "zeta_deriv": D[0],
        "prime_zeta": t_pz,
        "prime_zeta_deriv": t_pzd,
        "psi_entire": Z[0] / m,
        "transform_integers": Z[0] / m,
        "transform_weighted_primes": (t_pz + m * t_pzd) / m**2,
    }


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(
            st.lists(st.tuples(st.floats(1.02, 2.5), st.floats(-38.0, 38.0)), min_size=1, max_size=5),
            st.one_of(
                st.just([(0.0, 0.0)]),  # a plain block, as the kernel route's head
                st.lists(st.tuples(st.floats(0.0, 0.5), st.floats(-2.0, 2.0)), min_size=1, max_size=4),
            ),
        ),
        min_size=1,
        max_size=3,
    )
)
def test_outer_grid_matches_its_points(blocks):
    """On one to three blocks s = a_j + b_i (sigma in [1.02, 3], |t| <= 40)
    the grid path, which forms n^{-s} as n^{-a} n^{-b} per block, agrees
    with the same functions on the flat point array to within the rounding
    of the two orders, plus 1e-13.

    The two paths share everything but the powers. The points form a power
    as exp(-s ln n), the grid as exp(-a ln n) exp(-b ln n), from the same
    ln n. Rounding the exponents' products moves them by at most
    eps ln n (|s| + |a| + |b|) <= 2 eps ln n (|a| + |b|) together, and the
    three complex exps (3 eps each) and the grid's product (sqrt 5 eps) add
    under 12 eps. So a power n^{-s} with n below the term budget _MAX_TERMS
    differs between the paths by a relative

        rho <= eps (ln _MAX_TERMS (2 (|a| + |b|) + 24) + 3),

    its k-th power by k rho, and the function by at most rho times the sum
    of |term| * k over what the powers feed (_term_sums), to first order."""
    grid = OuterGrid([([complex(*z) for z in a], [complex(*z) for z in b]) for a, b in blocks])
    pts = np.asarray(grid)
    absab = np.concatenate([np.add.outer(np.abs(a), np.abs(b)).ravel() for a, b in grid.blocks])
    eps = np.finfo(float).eps
    rho = eps * (math.log(special._MAX_TERMS) * (2.0 * absab + 24.0) + 3.0)
    sums = _term_sums(pts)
    for name, f in _GRID_FUNCTIONS.items():
        on_grid = f(grid)
        assert on_grid.shape == pts.shape
        assert np.all(np.abs(on_grid - f(pts)) <= rho * sums[name] + 1e-13), name


_MEMBERS = [m[0] for m in battery_members()]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from(range(len(_MEMBERS))),
    st.sampled_from([2.0 * math.pi, 8.0 * math.pi]),
    st.floats(0.05, 0.4),
    st.integers(0, 8),
    st.sampled_from(["kernel", "frequency"]),
)
def test_W_is_symmetric_positive_semidefinite(member, L, eps, N, route):
    """W's kernel is the Fourier transform of g(|u|) e^{-eps |u|} >= 0, so
    W is positive semi-definite on either route."""
    S, I = _MEMBERS[member], IntervalSpec(L)
    assemble = assemble_kernel_route if route == "kernel" else assemble_frequency_route
    W = assemble([S], I, eps, N)[0]
    assert np.array_equal(W.entries, W.entries.T)
    assert np.linalg.eigvalsh(W.entries).min() >= -1e-8, (S.label, eps, N, route)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 40), st.integers(0, 2**32 - 1), st.floats(-6.0, 6.0))
def test_spectrum_from_the_parity_blocks_is_the_full_spectrum(N, seed, log_scale):
    """A truncation of random moments: the eigenvalues of the even and odd
    blocks built from them are those of the full matrix M, to 1e-13 of
    ||M||_2, sorted by |lambda|."""
    odd, diag = np.random.default_rng(seed).standard_normal((2, N + 1)) * 10.0**log_scale
    W = operators.OperatorTruncation(
        interval=IntervalSpec(8.0 * math.pi), epsilon=0.05, odd=odd, diag=diag, source="random", route="test"
    )
    full = np.linalg.eigvalsh(W.entries)
    vals = operators.spectrum(W)
    norm = np.abs(full).max()
    assert np.all(np.abs(np.sort(vals) - full) <= 1e-13 * norm)
    assert np.all(np.abs(vals[:-1]) >= np.abs(vals[1:]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(st.floats(-2.0, 8.0), min_size=1, max_size=40),
    st.integers(0, 39),
    st.floats(0.5, 6.0),
)
def test_a_star_is_the_clipped_band_midrange(diag, lo, hi_a):
    """The worst band deviation max(max b - a, a - min b) is V-shaped in a,
    so A* is the band midrange clipped into [0, hi_a], and no a on a
    1,001-point grid of [0, hi_a] has a smaller worst deviation."""
    diag = np.asarray(diag)
    lo = min(lo, diag.size - 1)
    band = diag[lo:]
    a_star = tauber._minimax_a(diag, lo, diag.size - 1, hi_a)
    assert a_star == min(max(0.5 * (band.max() + band.min()), 0.0), hi_a)
    grid = np.linspace(0.0, hi_a, 1001)
    worst_on_grid = np.max(np.abs(band[None, :] - grid[:, None]), axis=1)
    assert np.max(np.abs(band - a_star)) <= worst_on_grid.min()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(0, 12),
    st.lists(
        st.tuples(st.integers(0, 50), st.integers(1, 48)),
        min_size=1,
        max_size=12,
        unique_by=lambda bin_count: bin_count[0],
    ),
    st.integers(0, 2**32 - 1),
)
def test_direct_sums_match_the_dense_sum(k_max, bins, seed):
    """Node sets of crowded and sparse unit bins, plus nodes exactly on
    bin edges, on pi k, on pi k +- 1 and on the edges of the bins 3 below
    and 4 above pi k's own, sorted as _half_line_integrals requires, with
    weights of both signs in two columns, as two sources of one batch:
    _half_line_integrals against the dense reference, and each column
    against its single-column call, within 64 roundings (test_operators)."""
    from test_operators import assert_direct_sums_match_the_dense_sums

    rng = np.random.default_rng(seed)
    j, n = (np.array(v) for v in zip(*bins))
    ks = math.pi * np.arange(k_max + 1)
    home = np.floor(ks)  # the bin of pi k
    xs = np.concatenate(
        [
            np.repeat(j, n) + rng.random(n.sum()),  # n nodes inside bin j
            j.astype(float),
            ks,
            ks + 1.0,
            np.abs(ks - 1.0),
            np.maximum(home - 3.0, 0.0),
            home + 4.0,
        ]
    )
    xs.sort()
    wv = rng.normal(scale=0.05, size=xs.size)
    wv = np.column_stack([wv, rng.normal(scale=0.05, size=xs.size)])
    assert_direct_sums_match_the_dense_sums(xs, wv, k_max)


# pi(10^5) and pi(10^8), from the classical tables: the counts at the edges
# of the two session tables
PI_AT_LIMIT = {10**5: 9592, 10**8: 5761455}


def _is_prime(lo, hi):
    """Is-prime flags of the integers lo..hi (0 <= lo <= hi), by a plain
    dense sieve of Eratosthenes over that range alone."""
    flags = np.ones(hi - lo + 1, dtype=bool)
    flags[: max(0, 2 - lo)] = False
    for p in range(2, math.isqrt(hi) + 1):
        start = max(p * p, -(-lo // p) * p)
        flags[start - lo :: p] = False
    return flags


@functools.lru_cache(maxsize=None)
def _dense_pi(limit):
    """pi(k) on [0, min(limit, 2^19)] and on [limit - 1000, limit], from
    dense sieves and pi(limit), never from a table's prime array."""
    low = np.cumsum(_is_prime(0, min(limit, 2**19)))
    flags = _is_prime(limit - 1000, limit)
    # pi(k) = pi(limit) minus the primes in (k, limit]
    return low, PI_AT_LIMIT[limit] - (np.cumsum(flags[::-1])[::-1] - flags)


def _pi_oracle(keys, limit):
    low, high = _dense_pi(limit)
    in_low = keys < low.size
    assert np.all(in_low | (keys >= limit - 1000))
    return np.where(in_low, low[np.minimum(keys, low.size - 1)],
                    high[np.maximum(keys - (limit - 1000), 0)])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from(["small", "big"]),
    st.lists(
        st.tuples(st.sampled_from(range(5)), st.floats(-300.0, 300.0)),
        min_size=1,
        max_size=32,
    ),
)
def test_prime_count_matches_a_dense_sieve(small_table, big_table, which, points):
    """PrimeTable.count gives pi(floor(x)) as intp around 0, 2^18, the first
    prime past 2^18, the last prime and the table edge, for the 1e5 table
    (whose every key lies below 2^18) and the 1e8 table: the oracle is
    the cumulative sum of a dense sieve, tied at the top to pi(limit)."""
    table = small_table if which == "small" else big_table
    last = table.primes_in(table.limit - 1000, table.limit)[-1]
    past = table.primes_in(2**18, 2**18 + 100) if table.limit >= 2**18 + 100 else np.empty(0)
    anchor = [0, 2**18, past[0] if past.size else last, last, table.limit]
    x = np.array([min(float(anchor[a]) + d, table.limit) for a, d in points])
    keys = np.floor(np.maximum(x, 0.0)).astype(np.int64)
    expect = _pi_oracle(keys, table.limit)
    got = table.count(x)
    assert got.dtype == np.intp and np.array_equal(got, expect)
    assert table.count(x[0]) == int(expect[0])


@st.composite
def _step_functions(draw):
    """A step source with 1 to 40 jumps in [1, 1e5], the first possibly at 1."""
    xs = draw(st.lists(st.floats(1.0, 1e5), min_size=1, max_size=40, unique=True))
    if draw(st.booleans()):
        xs[0] = 1.0
    xs = np.unique(xs)
    jumps = draw(st.lists(st.floats(1e-3, 1e3), min_size=xs.size, max_size=xs.size))
    return transform.source_steps(xs, jumps, "steps")


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.sampled_from(["integer_count", "weighted_primes", "single_jump", "single_jump_at_1",
                     "step_function", "steps_ln"]),
    _step_functions(),
    st.lists(st.floats(1.0, 1e5), min_size=1, max_size=20),
)
# a breakpoint that e^{ln 7} rounds below, inside and at the edge: g reads S
# at e^u there, and the tail starts past ln 7
@example("step_function", transform.source_steps([7.0, 11.0], [1.0, 1.0], "steps"), [7.0])
@example("step_function", transform.source_steps([7.0], [1.0], "s"), [7.0])
def test_declared_jumps_reproduce_the_source(small_table, which, step, xs):
    """The GrowthFunction contract the product-integration weights rely on:
    S(x) = sum over x_j <= x of (da_j + db_j ln x) on [1, hi] for the jumps
    (x_j, da_j, db_j) = jumps_upto(hi), at random x in [1, 1e5], to 1e-13
    relative."""
    S = {
        "integer_count": transform.source_integers,
        "weighted_primes": lambda: transform.source_primes_weighted(small_table),
        "single_jump": transform.source_single_jump,
        "single_jump_at_1": lambda: transform.source_single_jump(2.0, 1.0),
        "step_function": lambda: step,
        "steps_ln": steps_times_log,
    }[which]()
    u = np.log(np.array(xs + [1.0, 1e5]))
    x = np.exp(u)
    xj, da, db = S.jumps_upto(1e5)
    assert np.all((xj > 0.0) & (xj <= 1e5)) and da.shape == db.shape == xj.shape
    below = xj[None, :] <= x[:, None]
    declared = below @ da + (below @ db) * np.log(x)
    v = x * S.g(u)
    assert np.all(np.abs(declared - v) <= 1e-13 * np.maximum(1.0, np.abs(v)))


@st.composite
def _step_sources(draw):
    """A step source with 1 to 60 jumps in [1, 1e4] of heights in [0.1, 5]."""
    xs = np.unique(draw(st.lists(st.floats(1.0, 1e4), min_size=1, max_size=60)))
    hs = draw(st.lists(st.floats(0.1, 5.0), min_size=xs.size, max_size=xs.size))
    return transform.source_steps(xs, hs, "random_steps")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_step_sources(), st.sampled_from([2.0 * math.pi, 8.0 * math.pi]), st.sampled_from([8, 32]))
def test_the_routes_agree_on_random_step_sources(S, L, N):
    """The frequency route, its jumps resolved up to the tail's u_t and the
    stated tail past it, against the kernel route on the exact step sum:
    every entry within 1e-13 max |W| at eps = 0.05, plus the kernel
    route's rounding, 64 ulp of int_0^L |K|. The kernel route sums K
    against the phases, so it rounds at about 2^-53 int |K|, which a
    kernel that cancels lifts far above max |W|: for one jump of 1 at
    x = 108 (L = 8 pi, N = 8), max |W| = 8.7e-6 and int |K| = 5.7e-3, and
    against 30-digit mpmath the kernel route errs by 1.9e-18, the
    frequency route by 2.6e-20."""
    I = IntervalSpec(L)
    Wk = assemble_kernel_route([S], I, 0.05, N)[0].entries
    Wf = assemble_frequency_route([S], I, 0.05, N)[0].entries
    edges = np.linspace(0.0, L, 65)
    xs, ws = operators._gl_nodes_on(edges[:-1], edges[1:])
    mass = np.sum(np.abs(operators.kernel(S, 0.05, xs)) * ws)
    assert np.max(np.abs(Wf - Wk)) <= 1e-13 * np.max(np.abs(Wk)) + 64 * 2.0**-53 * mass
