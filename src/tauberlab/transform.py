"""Laplace transforms G(s) of counting functions, for Re(s) > 1.

Throughout, G(s) = integral over u >= 0 of S(e^u) e^{-su} du. Closed forms
are provided for the classical sources:

    integers            G(s) = zeta(s)/s
    primes              G(s) = pzeta(s)/s
    weighted primes     G(s) = (pzeta(s) - s pzeta'(s))/s^2
                             = -d/ds [pzeta(s)/s]          (S = pi_P ln)

The closed forms take an OuterGrid of points as well as an array and hand
it whole to the zeta family, which builds its powers from the grid's two
factors (special module docstring).

There are two general evaluators: an exact summation for pure step
sources (the integrand is piecewise e^{-su}, so each piece integrates in
closed form) and a composite 16-node Gauss-Legendre quadrature for
arbitrary sources. No pipeline path calls the quadrature (the kernel route
needs a closed form); it is the independent oracle the tests check the
closed forms against. For a source that declares breakpoints, it integrates
the step region exactly up to x = 2e5 (or e^U if smaller) and applies
Gauss-Legendre only beyond, where the remaining jumps are too small to
spoil the panel error; the tail past the cutoff U is certified from the
linear growth constant by quadrature_tail_bound. The step sum is exact and
has no tail.

The module also carries the catalog of named growth-function instances the
experiment battery runs on.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from scipy.special import exp1

from .arith import GrowthFunction, StepFunction, chebyshev_weighted, count_integers
from .errors import DomainError
from .special import (
    DEFAULT_TOL,
    EvalTolerance,
    _prep,
    _restore,
    prime_zeta,
    prime_zeta_pair,
    zeta,
)

__all__ = [
    "transform_integers",
    "transform_primes",
    "transform_weighted_primes",
    "transform_step_sum",
    "transform_quadrature",
    "quadrature_tail_bound",
    "source_identity",
    "source_integers",
    "source_primes_weighted",
    "source_sqrt_mix",
    "source_log_oscillation",
    "source_slow_approach",
    "source_single_jump",
]

_STEP_RESOLVE_CAP = 200_000.0  # resolve jumps exactly up to this x
_GL16 = np.polynomial.legendre.leggauss(16)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def transform_integers(s, tol: Optional[EvalTolerance] = None):
    """G(s) = zeta(s)/s, the transform of the integer count."""
    tol = tol or DEFAULT_TOL
    grid, scalar, shape = _prep(s)
    val = np.ravel(zeta(grid, tol)) / grid.points
    return _restore(val, scalar, shape)


def transform_primes(s, tol: Optional[EvalTolerance] = None):
    """G(s) = pzeta(s)/s, the transform of the prime count."""
    tol = tol or DEFAULT_TOL
    grid, scalar, shape = _prep(s)
    val = np.ravel(prime_zeta(grid, tol)) / grid.points
    return _restore(val, scalar, shape)


def transform_weighted_primes(s, tol: Optional[EvalTolerance] = None):
    """G(s) for S(x) = pi_P(x) ln x: (pzeta(s) - s pzeta'(s)) / s^2.

    This is -d/ds of the prime transform, since multiplying the source by u
    differentiates the transform."""
    tol = tol or DEFAULT_TOL
    grid, scalar, shape = _prep(s)
    flat = grid.points
    pz, pzd = prime_zeta_pair(grid, tol)
    val = (np.ravel(pz) - flat * np.ravel(pzd)) / flat**2
    return _restore(val, scalar, shape)


# ---------------------------------------------------------------------------
# exact step summation
# ---------------------------------------------------------------------------


def transform_step_sum(S: StepFunction, s):
    """Exact transform of a finite step function: sum of a_j x_j^{-s} / s.

    The sum is the complete transform of S itself, so it carries no tail."""
    grid, scalar, shape = _prep(s)
    flat = grid.points
    lnx = np.log(S.breakpoints)
    out = np.zeros(flat.size, dtype=complex)
    block = max(1, 4_000_000 // max(flat.size, 1))
    with np.errstate(under="ignore"):
        for lo in range(0, lnx.size, block):
            chunk = lnx[lo : lo + block]
            amp = S.jumps[lo : lo + block]
            out += np.exp(-np.multiply.outer(flat, chunk)) @ amp
    out /= flat
    return _restore(out, scalar, shape)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def quadrature_tail_bound(S: GrowthFunction, s, U: float):
    """Certified bound on the integral dropped beyond u = U.

    S(e^u) <= C e^u gives tail <= C e^{-(sigma-1)U} (U + 1/(sigma-1))."""
    grid, scalar, shape = _prep(s)
    flat = grid.points
    a = flat.real - 1.0
    bound = S.growth_constant * np.exp(-a * U) * (U + 1.0 / a)
    if scalar:
        return float(bound[0])
    return bound.reshape(shape)


def _gl_nodes_on(lo: np.ndarray, hi: np.ndarray, rule=_GL16):
    """Node/weight arrays of a Gauss-Legendre rule (nodes, weights on [-1, 1];
    16 points unless given) on each panel [lo[i], hi[i]]."""
    nodes, weights = rule
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    xs = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    ws = (half[:, None] * weights[None, :]).ravel()
    return xs, ws


def transform_quadrature(
    S: GrowthFunction,
    s,
    U: float = 18.0,
):
    """Brute-force G(s) by integrating S(e^u) e^{-su} over [0, U].

    Sources that declare breakpoints are assumed piecewise constant between
    them; the region up to x = min(e^U, 2e5) is integrated exactly piece by
    piece, and 16-point Gauss-Legendre on equal panels of width at most
    0.25 handles the rest. The dropped tail beyond U is NOT added to the
    result; its certified bound comes from quadrature_tail_bound."""
    grid, scalar, shape = _prep(s)
    flat = grid.points
    if not (U > 0) or not math.isfinite(U):
        raise DomainError("quadrature cutoff U must be positive and finite")
    if U > S.u_cap + 1e-12:
        raise DomainError(
            f"U = {U:g} exceeds the evaluable range of source '{S.label}' "
            f"(u_cap = {S.u_cap:g})"
        )
    out = np.zeros(flat.size, dtype=complex)
    gl_lo = 0.0

    if S.breakpoints_in is not None:
        x_cap = min(math.exp(U), _STEP_RESOLVE_CAP)
        bps = np.asarray(S.breakpoints_in(1.0 - 1e-12, x_cap), dtype=float)
        u_res = math.log(x_cap) if math.exp(U) > x_cap else U
        if bps.size:
            knots = np.concatenate(([0.0], np.log(bps[bps > 1.0]), [u_res]))
            knots = np.unique(np.clip(knots, 0.0, u_res))
            mids = 0.5 * (knots[:-1] + knots[1:])
            if S.between_jumps == "linear_u":
                # S(e^u) = c_i * u on each piece; antiderivative of
                # u e^{-su} is -e^{-su}(su+1)/s^2
                coeff = S.fn(np.exp(mids)) / mids
            else:
                coeff = S.fn(np.exp(mids))
            block = max(1, 4_000_000 // max(flat.size, 1))

            def anti(u_knots):
                E = np.exp(-np.multiply.outer(flat, u_knots))
                if S.between_jumps == "linear_u":
                    return E * (np.multiply.outer(flat, u_knots) + 1.0) / flat[:, None] ** 2
                return E / flat[:, None]

            with np.errstate(under="ignore"):
                for lo in range(0, mids.size, block):
                    hi = min(lo + block, mids.size)
                    piece = anti(knots[lo:hi]) - anti(knots[lo + 1 : hi + 1])
                    out += piece @ coeff[lo:hi]
            gl_lo = u_res

    if gl_lo < U:
        edges = np.linspace(gl_lo, U, max(1, math.ceil((U - gl_lo) / 0.25)) + 1)
        us, ws = _gl_nodes_on(edges[:-1], edges[1:])
        fv = S.fn(np.exp(us)) * ws
        block = max(1, 4_000_000 // max(us.size, 1))
        with np.errstate(under="ignore"):
            for lo in range(0, flat.size, block):
                sb = flat[lo : lo + block]
                out[lo : lo + block] += np.exp(-np.multiply.outer(sb, us)) @ fv
    return _restore(out, scalar, shape)


# ---------------------------------------------------------------------------
# source catalog
# ---------------------------------------------------------------------------


def _support_mask(x, expr):
    xs = np.asarray(x, dtype=float)
    safe = np.maximum(xs, 1.0)
    out = np.where(xs >= 1.0, expr(safe), 0.0)
    return float(out) if np.isscalar(x) or out.ndim == 0 else out


def source_identity() -> GrowthFunction:
    """S(x) = x: the cleanest ratio limit, g == 1, transform 1/(s-1)."""
    return GrowthFunction(
        label="identity",
        fn=lambda x: _support_mask(x, lambda v: v),
        growth_constant=1.0,
        laplace=lambda s: 1.0 / (np.asarray(s, dtype=complex) - 1.0),
        ratio_limit_A=1.0,
    )


def source_integers() -> GrowthFunction:
    """S = integer count (floor). Jumps at every integer; g -> 1."""

    def bps(lo, hi):
        first = max(1, math.floor(lo) + 1)
        return np.arange(first, math.floor(hi) + 1, dtype=float)

    return GrowthFunction(
        label="integer_count",
        fn=count_integers,
        growth_constant=1.0,
        laplace=transform_integers,
        breakpoints_in=bps,
        g_smooth=lambda u: 1.0 - 0.5 * np.exp(-np.asarray(u, dtype=float)),
        ratio_limit_A=1.0,
    )


def source_primes_weighted(table) -> GrowthFunction:
    """S(x) = pi_P(x) ln x. The prime-number-theorem source; g -> 1 slowly."""
    return GrowthFunction(
        label="weighted_primes",
        fn=lambda x: chebyshev_weighted(x, table),
        growth_constant=1.3,
        laplace=transform_weighted_primes,
        breakpoints_in=lambda lo, hi: table.primes_in(lo, hi).astype(float),
        u_cap=math.log(table.limit),
        ratio_limit_A=1.0,
        between_jumps="linear_u",
    )


def source_sqrt_mix(a: float = 1.0, b: float = 1.0) -> GrowthFunction:
    """S(x) = a x + b sqrt(x): ratio limit a, with an x^{-1/2} approach."""
    if a < 0 or b < 0 or a + b <= 0:
        raise DomainError("sqrt mix needs a, b >= 0, not both zero")
    return GrowthFunction(
        label=f"sqrt_mix(a={a:g},b={b:g})",
        fn=lambda x: _support_mask(x, lambda v: a * v + b * np.sqrt(v)),
        growth_constant=a + b,
        laplace=lambda s: a / (np.asarray(s, dtype=complex) - 1.0)
        + b / (np.asarray(s, dtype=complex) - 0.5),
        ratio_limit_A=a,
    )


def source_log_oscillation(amplitude: float = 0.5) -> GrowthFunction:
    """S(x) = x (1 + amplitude sin ln x): non-decreasing, but g has NO limit.

    The counterexample source: g(u) = 1 + amplitude sin u oscillates
    forever, so neither direction of the ratio-limit equivalence holds."""
    if not (0.0 < amplitude <= 0.7):
        raise DomainError("amplitude must lie in (0, 0.7] to keep S non-decreasing")
    return GrowthFunction(
        label=f"log_oscillation(amp={amplitude:g})",
        fn=lambda x: _support_mask(x, lambda v: v * (1.0 + amplitude * np.sin(np.log(v)))),
        growth_constant=1.0 + amplitude,
        laplace=lambda s: 1.0 / (np.asarray(s, dtype=complex) - 1.0)
        + amplitude / ((np.asarray(s, dtype=complex) - 1.0) ** 2 + 1.0),
        ratio_limit_A=None,
    )


def source_slow_approach() -> GrowthFunction:
    """S(x) = x + x/(1 + ln x): g -> 1 at a logarithmic crawl.

    Stresses every threshold: the ratio is still 1.05 at u = 19."""
    return GrowthFunction(
        label="slow_approach",
        fn=lambda x: _support_mask(x, lambda v: v + v / (1.0 + np.log(v))),
        growth_constant=2.0,
        laplace=lambda s: 1.0 / (np.asarray(s, dtype=complex) - 1.0)
        + np.exp(np.asarray(s, dtype=complex) - 1.0)
        * exp1(np.asarray(s, dtype=complex) - 1.0),
        ratio_limit_A=1.0,
    )


def source_single_jump(height: float = 3.0, location: float = math.e) -> GrowthFunction:
    """S = single jump of `height` at `location`: bounded, so g -> 0."""
    if not (height > 0 and location >= 1.0):
        raise DomainError("jump needs height > 0 and location >= 1")
    step = StepFunction(np.array([location]), np.array([height]))
    return GrowthFunction(
        label=f"single_jump(h={height:g},x0={location:g})",
        fn=step,
        growth_constant=height / location,
        laplace=lambda s: height
        * np.exp(-np.asarray(s, dtype=complex) * math.log(location))
        / np.asarray(s, dtype=complex),
        breakpoints_in=step.breakpoints_in,
        ratio_limit_A=0.0,
    )
