"""Transforms: closed forms vs quadrature vs exact step sums, with certified tails."""

import math

import numpy as np
import pytest

from tauberlab import transform as tr
from tauberlab.arith import GrowthFunction, StepFunction
from tauberlab.errors import DomainError
from tauberlab.special import psi_entire
from tauberlab.transform import (
    quadrature_tail_bound,
    transform_integers,
    transform_primes,
    transform_quadrature,
    transform_step_sum,
    transform_weighted_primes,
)


def test_step_sum_is_the_exact_finite_transform(rng):
    S = StepFunction([2.0, 3.0, 5.0, 7.0], [1.0, 1.0, 1.0, 1.0])
    for _ in range(10):
        s = complex(rng.uniform(1.2, 3.0), rng.uniform(-10, 10))
        expect = sum(x ** (-s) for x in (2.0, 3.0, 5.0, 7.0)) / s
        assert abs(transform_step_sum(S, s) - expect) < 1e-13


def test_truncated_integers_bracket_the_closed_form(rng):
    """zeta(s)/s minus the finite step sum stays inside the certified tail
    C X^{1-sigma} (1/|s| + 1/(sigma-1)) of the integer count (C = 1), from
    integration by parts of the tail integral past the last breakpoint X."""
    X = 2000
    bps = np.arange(1.0, X + 1.0)
    S = StepFunction(bps, np.ones_like(bps))
    for _ in range(20):
        s = complex(rng.uniform(1.5, 3.0), rng.uniform(-10, 10))
        gap = abs(transform_integers(s) - transform_step_sum(S, s))
        tail = X ** (1.0 - s.real) * (1.0 / abs(s) + 1.0 / (s.real - 1.0))
        assert gap <= tail + 1e-12


def test_singularity_split_matches_entire_part(rng):
    """Transform of the integer count minus its pole equals the psi remainder."""
    for eps in (0.01, 0.1):
        for _ in range(10):
            t = rng.uniform(-10, 10)
            s = complex(1.0 + eps, t)
            lhs = transform_integers(s) - 1.0 / (s - 1.0)
            assert abs(lhs - psi_entire(s)) < 1e-8


def _closed_form_sources(table):
    return [
        tr.source_identity(),
        tr.source_integers(),
        tr.source_primes_weighted(table),
        tr.source_sqrt_mix(2.0, 1.0),
        tr.source_log_oscillation(0.5),
        tr.source_slow_approach(),
        tr.source_single_jump(),
    ]


def test_quadrature_agrees_with_every_closed_form(small_table, rng):
    """|closed_form - quadrature| <= certified tail bound + 1e-6, per source."""
    for S in _closed_form_sources(small_table):
        U = min(18.0, S.u_cap)
        for _ in range(20):
            s = complex(rng.uniform(1.2, 3.0), rng.uniform(-10, 10))
            gap = abs(S.laplace(s) - transform_quadrature(S, s, U=U))
            allowance = quadrature_tail_bound(S, s, U) + 1e-6
            assert gap <= allowance, (S.label, s, gap, allowance)


def test_quadrature_is_vectorized_and_consistent(small_table):
    S = tr.source_integers()
    s = np.array([1.5 + 0j, 2.0 + 3j, 2.5 - 1j])
    batch = transform_quadrature(S, s, U=14.0)
    singles = np.array([transform_quadrature(S, v, U=14.0) for v in s])
    assert np.max(np.abs(batch - singles)) < 1e-13


def test_linearity_of_the_transform(rng):
    """sqrt_mix(2,1) - sqrt_mix(1,1) = identity, exactly, in closed form and quadrature."""
    A, B, X = tr.source_sqrt_mix(2.0, 1.0), tr.source_sqrt_mix(1.0, 1.0), tr.source_identity()
    for _ in range(10):
        s = complex(rng.uniform(1.3, 3.0), rng.uniform(-5, 5))
        assert abs(A.laplace(s) - B.laplace(s) - X.laplace(s)) < 1e-12
        q = (
            transform_quadrature(A, s, U=16.0)
            - transform_quadrature(B, s, U=16.0)
            - transform_quadrature(X, s, U=16.0)
        )
        assert abs(q) < 1e-9


def test_weighted_primes_is_minus_the_derivative():
    """Multiplying the source by u differentiates the transform in -s."""
    h = 1e-5
    for s0 in (2.0 + 0.5j, 1.8 - 2.0j, 2.5 + 0j):
        fd = -(transform_primes(s0 + h) - transform_primes(s0 - h)) / (2 * h)
        # G_w = (pzeta - s pzeta')/s^2 = -d/ds [pzeta/s]
        assert abs(transform_weighted_primes(s0) - fd) < 1e-6


def test_quadrature_guards(small_table):
    S = tr.source_primes_weighted(small_table)
    with pytest.raises(DomainError):
        transform_quadrature(S, 2.0 + 0j, U=S.u_cap + 1.0)
    with pytest.raises(DomainError):
        transform_quadrature(S, 2.0 + 0j, U=-1.0)


# jumps a_j at x_j, all below e^10, and the points s of the exactness tests
_XJ = np.array([1.5, 2.0, 7.0, 40.0, 1000.0, 20000.0])
_AJ = np.array([0.5, 1.0, 2.0, 0.25, 3.0, 1.0])
_S_PTS = np.array([1.5 + 0.3j, 2.0 + 5.0j, 1.2 - 3.0j, 3.0 + 0.0j, 1.05 + 12.0j])


def test_quadrature_is_exact_on_constant_pieces():
    """A step source: the oracle on [0, 10] against the exact step sum minus
    its part past U = 10, S_tot e^{-sU}/s."""
    step = StepFunction(_XJ, _AJ)
    S = GrowthFunction("steps", step, 1.0, breakpoints_in=step.breakpoints_in)
    U, s = 10.0, _S_PTS
    expect = transform_step_sum(step, s) - _AJ.sum() * np.exp(-s * U) / s
    assert np.max(np.abs(transform_quadrature(S, s, U=U) - expect)) < 1e-12


def test_quadrature_is_exact_on_pieces_linear_in_u():
    """S(x) = step(x) ln x, linear in u = ln x between jumps: the oracle on
    [0, 10] against sum a_j x_j^{-s} (s ln x_j + 1)/s^2 - S_tot e^{-sU} (sU + 1)/s^2,
    the sum over j of the integrals of a_j u e^{-su} from ln x_j to U = 10."""
    step = StepFunction(_XJ, _AJ)
    S = GrowthFunction(
        "steps_ln", lambda x: step(x) * np.log(np.maximum(x, 1.0)), 8.0,
        breakpoints_in=step.breakpoints_in,
    )
    U, s = 10.0, _S_PTS
    sl = np.multiply.outer(s, np.log(_XJ))
    expect = (np.exp(-sl) * (sl + 1.0)) @ _AJ / s**2
    expect -= _AJ.sum() * np.exp(-s * U) * (s * U + 1.0) / s**2
    assert np.max(np.abs(transform_quadrature(S, s, U=U) - expect)) < 1e-12
