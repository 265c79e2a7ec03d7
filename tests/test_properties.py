"""Property tests: Schwarz reflection of the zeta family, its outer-grid
path against plain point arrays, and symmetry and positive
semi-definiteness of W on both routes across the battery."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from tauberlab import special, transform
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
