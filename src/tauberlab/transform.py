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
each piece between jumps exactly up to x = 2e5 (or e^U if smaller), S(e^u)
read off the source as affine in u there, and applies
Gauss-Legendre only beyond, where the remaining jumps are too small to
spoil the panel error; the tail past the cutoff U is certified from the
linear growth constant by quadrature_tail_bound. The step sum is exact and
has no tail.

The module also carries the catalog of named growth-function instances the
experiment battery runs on. The synthetic ones have elementary transforms
but one: slow_approach's carries e^w E1(w), w = s - 1, which
special.exp_e1 takes from the power series of E1 for |w| <= 2 and from
its continued fraction beyond.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .arith import GrowthFunction, StepFunction, count_integers, weighted_prime_count
from .errors import DomainError, PrecisionError
from .special import (
    EvalTolerance,
    _prep,
    _restore,
    exp_e1,
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
    grid, scalar, shape = _prep(s)
    val = np.ravel(zeta(grid, tol)) / grid.points
    return _restore(val, scalar, shape)


def transform_primes(s, tol: Optional[EvalTolerance] = None):
    """G(s) = pzeta(s)/s, the transform of the prime count."""
    grid, scalar, shape = _prep(s)
    val = np.ravel(prime_zeta(grid, tol)) / grid.points
    return _restore(val, scalar, shape)


def transform_weighted_primes(s, tol: Optional[EvalTolerance] = None):
    """G(s) for S(x) = pi_P(x) ln x: (pzeta(s) - s pzeta'(s)) / s^2.

    This is -d/ds of the prime transform, since multiplying the source by u
    differentiates the transform."""
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


def _gl_nodes_on(lo: np.ndarray, hi: np.ndarray):
    """Node/weight arrays of the 16-point Gauss-Legendre rule on each panel
    [lo[i], hi[i]]."""
    nodes, weights = _GL16
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    xs = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    ws = (half[:, None] * weights[None, :]).ravel()
    return xs, ws


def _resolved_u(S: GrowthFunction) -> float:
    """Top of the range [0, u] on which the integrators resolve the jumps of
    S one by one: ln _STEP_RESOLVE_CAP, or u_cap if smaller; 0 for a source
    without breakpoints."""
    if S.breakpoints_in is None:
        return 0.0
    return min(math.log(_STEP_RESOLVE_CAP), S.u_cap)


def _affine_pieces(S: GrowthFunction, u_hi: float):
    """The jumps of S on (0, u_hi] as knots 0 = u_0 < u_1 < ... < u_m = u_hi
    in u = ln x (u_hi at most _resolved_u(S)), and per gap [u_j, u_{j+1}]
    the level and slope with S(e^u) = level + slope u there, read off S at
    the two interior points a third of the way in from each end.

    That is exact for a source that is affine in u between its breakpoints
    (GrowthFunction). A non-finite sample is a PrecisionError naming the
    source and u."""
    lnx = np.log(np.asarray(S.breakpoints_in(1.0, math.exp(u_hi)), dtype=float))
    knots = np.concatenate(([0.0], lnx[lnx < u_hi], [u_hi]))
    third = np.diff(knots) / 3.0
    u12 = np.concatenate([knots[:-1] + third, knots[1:] - third])
    s12 = np.asarray(S.fn(np.exp(u12)), dtype=float)
    if not np.all(np.isfinite(s12)):
        u_bad = float(np.min(u12[~np.isfinite(s12)]))
        raise PrecisionError(f"S of source '{S.label}' is not finite at u = {u_bad!r}")
    (u1, u2), (s1, s2) = np.split(u12, 2), np.split(s12, 2)
    slope = np.divide(s2 - s1, u2 - u1, out=np.zeros_like(s1), where=u2 > u1)
    return knots, s1 - slope * u1, slope


def transform_quadrature(
    S: GrowthFunction,
    s,
    U: float = 18.0,
):
    """Brute-force G(s) by integrating S(e^u) e^{-su} over [0, U].

    On the jump-resolved range, u up to min(U, _resolved_u(S)), the pieces
    between consecutive jumps are integrated exactly, with S(e^u) = a + b u
    read off S by _affine_pieces: that is exact for a constant piece (a
    counting function) and for a piece linear in u (a count times ln x, as
    pi_P(x) ln x). 16-point Gauss-Legendre on equal panels of width at most
    0.25 handles the rest.
    The dropped tail beyond U is NOT added to the result; its certified
    bound comes from quadrature_tail_bound."""
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
    u_res = min(U, _resolved_u(S))

    if u_res > 0.0:
        knots, level, slope = _affine_pieces(S, u_res)
        # antiderivatives of e^{-su} and u e^{-su}: -e^{-su}/s, -e^{-su}(su + 1)/s^2
        block = max(1, 4_000_000 // max(flat.size, 1))
        with np.errstate(under="ignore"):
            for lo in range(0, level.size, block):
                hi = min(lo + block, level.size)
                su = np.multiply.outer(flat, knots[lo : hi + 1])
                E = np.exp(-su)
                Eu = E * (su + 1.0)
                out += (E[:, :-1] - E[:, 1:]) @ level[lo:hi] / flat
                out += (Eu[:, :-1] - Eu[:, 1:]) @ slope[lo:hi] / flat**2

    if u_res < U:
        edges = np.linspace(u_res, U, max(1, math.ceil((U - u_res) / 0.25)) + 1)
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
        ratio_limit_A=1.0,
    )


def source_primes_weighted(table) -> GrowthFunction:
    """S(x) = pi_P(x) ln x. The prime-number-theorem source; g -> 1 slowly."""
    return GrowthFunction(
        label="weighted_primes",
        fn=lambda x: weighted_prime_count(x, table),
        growth_constant=1.3,
        laplace=transform_weighted_primes,
        breakpoints_in=lambda lo, hi: table.primes_in(lo, hi).astype(float),
        u_cap=math.log(table.limit),
        ratio_limit_A=1.0,
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

    Stresses every threshold: the ratio is still 1.05 at u = 19. The
    transform is 1/(s-1) + e^w E1(w), w = s - 1, from special.exp_e1: the
    power series of E1 for |w| <= 2, the continued fraction beyond."""
    return GrowthFunction(
        label="slow_approach",
        fn=lambda x: _support_mask(x, lambda v: v + v / (1.0 + np.log(v))),
        growth_constant=2.0,
        laplace=lambda s: 1.0 / (np.asarray(s, dtype=complex) - 1.0)
        + exp_e1(np.asarray(s, dtype=complex) - 1.0),
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
