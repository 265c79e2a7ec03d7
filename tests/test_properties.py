"""Property tests: Schwarz reflection of the zeta family, its outer-grid
path against plain point arrays, symmetry and positive semi-definiteness
of W on both routes across the battery, the closed forms for A* and the
damped cutoff, and the near/far proxy split of the windowed integrals."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from tauberlab import operators, special, tauber, transform
from tauberlab.operators import IntervalSpec, assemble_frequency_route, assemble_kernel_route
from tauberlab.special import OuterGrid, prime_zeta_pair, zeta, zeta_deriv
from tauberlab.tauber import battery_members

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


_GRID_FUNCTIONS = {
    "zeta": zeta,
    "zeta_deriv": zeta_deriv,
    "prime_zeta": lambda s: prime_zeta_pair(s)[0],
    "prime_zeta_deriv": lambda s: prime_zeta_pair(s)[1],
    "psi_entire": special.psi_entire,
    "transform_integers": transform.transform_integers,
    "transform_weighted_primes": transform.transform_weighted_primes,
}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(st.floats(1.02, 2.5), st.floats(-38.0, 38.0)), min_size=1, max_size=5),
    st.lists(st.tuples(st.floats(0.0, 0.5), st.floats(-2.0, 2.0)), min_size=1, max_size=4),
)
def test_outer_grid_matches_its_points(a, b):
    """On s = a_j + b_i (sigma in [1.02, 3], |t| <= 40) the grid path, which
    forms n^{-s} as n^{-a} n^{-b}, agrees with the same functions on the
    (P, Q) point array to 1e-13."""
    grid = OuterGrid([complex(*z) for z in a], [complex(*z) for z in b])
    pts = np.asarray(grid)
    for name, f in _GRID_FUNCTIONS.items():
        on_grid = f(grid)
        assert on_grid.shape == pts.shape
        assert np.max(np.abs(on_grid - f(pts))) <= 1e-13, name


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
    W = assemble(S, I, eps, N)
    assert np.array_equal(W.entries, W.entries.T)
    assert np.linalg.eigvalsh(W.entries).min() >= -1e-8, (S.label, eps, N, route)


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
    st.floats(0.5, 4.0),
    st.floats(1e-3, 0.4),
    st.floats(2.0 * math.pi, 16.0 * math.pi),
    st.integers(0, 256),
    st.floats(-12.0, -2.0),
)
def test_damped_cutoff_solves_its_equation(C, eps, L, N, log_target):
    """y = X - pi N solves C e^{-r y} / (pi y) = target, r = 2 eps / L, to
    relative 1e-12 past the lobe floor 3 _LOBE_HALF_WIDTH; where the floor
    binds, the bound there already meets the target. Targets up to 1e-2
    reach W0(r C / (pi target)) < 1, where a fixed-point iteration on the
    same equation stalls at the floor with the bound above the target."""
    target = 10.0**log_target
    X = operators._cutoff_damped(C, eps, L, N, target)
    y = X - math.pi * N
    ratio = C * math.exp(-2.0 * eps / L * y) / (math.pi * y) / target
    if X > math.pi * N + 3.0 * operators._LOBE_HALF_WIDTH:
        assert abs(ratio - 1.0) <= 1e-12
    else:
        assert ratio <= 1.0


def _cutoff_by_fixed_point(C, eps, L, N, target):
    """The damped cutoff as 40 fixed-point steps from X = pi N + 50."""
    rate = 2.0 * eps / L
    X = math.pi * N + 50.0
    for _ in range(40):
        X = math.pi * N + max(
            3.0 * operators._LOBE_HALF_WIDTH,
            math.log(max(C, 1e-300) / (target * math.pi * (X - math.pi * N))) / rate,
        )
    return X


def test_damped_cutoff_matches_the_fixed_point_iteration():
    """The Lambert-W cutoff against the fixed-point iteration it replaced, to
    4 ulp, where that iteration converges (W0 > 1 in every case here); at
    eps = 0.4, L = 2 pi, target 1e-3 both sit on the lobe floor."""
    for C in (1.0, 1.3, 2.0, 3.0 / math.e):
        for eps in (0.4, 0.2, 0.1, 0.05, 0.01, 1e-3):
            for L in (2.0 * math.pi, 8.0 * math.pi, 16.0 * math.pi):
                for target in (1e-7, 1e-10, 1e-11):
                    for N in (0, 72):
                        want = _cutoff_by_fixed_point(C, eps, L, N, target)
                        got = operators._cutoff_damped(C, eps, L, N, target)
                        assert abs(got - want) <= 4 * np.spacing(want), (C, eps, L, target, N)
    for C in (1.0, 1.3):
        floor = math.pi * 72 + 3.0 * operators._LOBE_HALF_WIDTH
        got = operators._cutoff_damped(C, 0.4, 2.0 * math.pi, 72, 1e-3)
        assert got == floor == _cutoff_by_fixed_point(C, 0.4, 2.0 * math.pi, 72, 1e-3)


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
def test_proxy_split_matches_the_dense_sum(k_max, bins, seed):
    """Unsorted node sets of crowded (more than 16 nodes) and sparse unit
    bins, plus nodes exactly on bin edges, on pi k, on pi k +- 1 and on the
    edges of each centre's near range, with weights of both signs:
    _half_line_integrals against the dense reference within the
    interpolation bound (test_operators)."""
    from test_operators import assert_proxy_sums_match_the_dense_sums

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
    rng.shuffle(xs)
    wv = rng.normal(scale=0.05, size=xs.size)
    assert_proxy_sums_match_the_dense_sums(xs, wv, k_max)
