"""Property tests: Schwarz reflection of the zeta family, and symmetry and
positive semi-definiteness of W on both routes across the battery."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from tauberlab import special
from tauberlab.operators import IntervalSpec, assemble_frequency_route, assemble_kernel_route
from tauberlab.special import prime_zeta_pair, zeta, zeta_deriv
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
)
def test_k1_batch_at_the_derivative_tolerance_meets_the_value_tolerance(points, log_tol):
    """prime_zeta_pair truncates its k = 1 zeta batch for zeta'/zeta alone;
    that N must also meet the tolerance of the log zeta term."""
    s = np.array([complex(sigma, t) for sigma, t in points])
    inner_v, inner_d = special._k1_tolerances(10.0**log_tol, *special._real_zeta_triple(float(s.real.min())))
    assert inner_d <= inner_v
    assert special._choose_N(s, inner_d, deriv=True) >= special._choose_N(s, inner_v)


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
