"""Laplace transforms G(s) of counting functions, for Re(s) > 1.

Throughout, G(s) = integral over u >= 0 of S(e^u) e^{-su} du. Closed forms
are provided for the classical sources:

    integers            G(s) = zeta(s)/s
    primes              G(s) = pzeta(s)/s
    weighted primes     G(s) = (pzeta(s) - s pzeta'(s))/s^2
                             = -d/ds [pzeta(s)/s]          (S = pi_P ln)

The closed forms take an OuterGrid of points as well as an array and
hand it whole to the zeta family, which builds its powers from each
block's two factors (special module docstring).

source_steps builds a finite step source S(x) = sum of a_j over x_j <= x
from its breakpoints and jumps. Its transform is the exact step sum
sum a_j x_j^{-s} / s: the integrand is piecewise e^{-su}, so each piece
integrates in closed form, and the sum has no tail. The sources that jump
declare their jumps (GrowthFunction.jumps_upto), which the operators'
frequency route integrates piece by piece, and every catalog source states
its tail, the exponential sum g is past some u_t (GrowthFunction.tail),
which the route integrates in closed form. The closed forms are checked in
the tests against a brute-force quadrature of the source's own g, and
those of the tail sources below against 30-digit mpmath.

The three jump sources (integers, weighted primes, steps) are each one
call to _jump_source, which states their g by one rule: below the edge
u_t = ln x_edge, g(u) reads S at x = e^u, as jumps_upto(e^u) does, so a
jump x_j that e^{ln x_j} rounds below is not yet counted there; from u_t
on, g is the stated tail, which counts the edge x_edge itself.

The four closed-form sources (identity, sqrt_mix, log_oscillation,
slow_approach) are each one call to _tail_source: g is the stated tail
from u = 0 on, and G the tail's transform term by term, the Laplace step
of Wiener-Ikehara (J. Korevaar, Tauberian Theory, ch. III). With
w = s - (1 - lam), c e^{-lam u} gives c / w and c e^{-lam u} / (u + b)
gives c e^{bw} E1(bw) (special.exp_e1); g is the real part, so a complex
term enters as half of itself plus half of its conjugate.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .arith import GrowthFunction
from .errors import ContractError, DomainError
from .special import (
    _POWER_CELLS,
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
    "source_steps",
    "source_identity",
    "source_integers",
    "source_primes_weighted",
    "source_sqrt_mix",
    "source_log_oscillation",
    "source_slow_approach",
    "source_single_jump",
]

# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def transform_integers(s, tol: Optional[EvalTolerance] = None):
    """G(s) = zeta(s)/s, the transform of the integer count."""
    return zeta(s, tol) / np.asarray(s, dtype=complex)


def transform_primes(s, tol: Optional[EvalTolerance] = None):
    """G(s) = pzeta(s)/s, the transform of the prime count."""
    return prime_zeta(s, tol) / np.asarray(s, dtype=complex)


def transform_weighted_primes(s, tol: Optional[EvalTolerance] = None):
    """G(s) for S(x) = pi_P(x) ln x: (pzeta(s) - s pzeta'(s)) / s^2.

    This is -d/ds of the prime transform, since multiplying the source by u
    differentiates the transform."""
    pz, pzd = prime_zeta_pair(s, tol)
    s = np.asarray(s, dtype=complex)
    return (pz - s * pzd) / s**2


# ---------------------------------------------------------------------------
# finite step sources
# ---------------------------------------------------------------------------


def _step_sum(lnx: np.ndarray, jumps: np.ndarray, s):
    """Exact transform of a finite step function: sum of a_j x_j^{-s} / s,
    for the jumps a_j at x_j = e^{lnx_j}.

    The sum is the complete transform of S itself, so it carries no tail."""
    grid, shape = _prep(s)
    flat = grid.points
    out = np.zeros(flat.size, dtype=complex)
    block = max(1, _POWER_CELLS // max(flat.size, 1))
    with np.errstate(under="ignore"):
        for lo in range(0, lnx.size, block):
            chunk = lnx[lo : lo + block]
            amp = jumps[lo : lo + block]
            out += np.exp(-np.multiply.outer(flat, chunk)) @ amp
    out /= flat
    return _restore(out, shape)


def _jump_source(label, count, x_edge, jumps_upto, laplace, *, C, A, lam, capped=False):
    """The GrowthFunction of a source that jumps, with growth constant C and
    ratio limit A, from its vectorized count S(x) on [1, x_edge]: fn(u) =
    S(e^u)/e^u below u_edge, the least u >= ln x_edge with e^u >= x_edge
    (e^{ln 7} = 6.999999999999999), and from there on the tail c e^{-lam u},
    c = S(x_edge)/x_edge^{1-lam}, also the stated tail. lam = 1 holds S at
    S(x_edge) (a finite source), lam = 0 holds g at g(u_edge). `capped`: S
    is unknown past x_edge (a table's limit), so u_cap = u_edge."""
    u_edge = math.log(x_edge)
    while np.exp(u_edge) < x_edge:  # fn's exp
        u_edge = math.nextafter(u_edge, math.inf)
    c = float(count(np.array(x_edge))) / x_edge ** (1.0 - lam)

    def fn(u):
        u = np.asarray(u, dtype=float)
        out, below = np.empty(u.shape), u < u_edge
        e = np.exp(u[below])
        out[below] = count(e) / e
        out[~below] = c * np.exp(-lam * u[~below])
        return out

    cap = u_edge if capped else math.inf
    return GrowthFunction(label, fn, C, laplace, jumps_upto, cap, A, (u_edge, ((c, lam),)))


def source_steps(breakpoints, jumps, label: str) -> GrowthFunction:
    """S(x) = sum of a_j over x_j <= x: the finite step source with the
    jumps a_j at the breakpoints x_j, bounded, so g -> 0.

    `breakpoints` must be strictly increasing and >= 1, `jumps` strictly
    positive, finite and of equal length (ContractError). From ln x_last on
    g is the stated tail (sum a_j) e^{-u}. The transform is the exact step
    sum. The frequency route resolves jumps up to x = 2e5 only and samples
    those past it (operators module docstring)."""
    xj = np.asarray(breakpoints, dtype=float)
    aj = np.asarray(jumps, dtype=float)
    if xj.ndim != 1 or aj.shape != xj.shape:
        raise ContractError("breakpoints and jumps must be 1-d arrays of equal length")
    if xj.size == 0:
        raise ContractError("a step function needs at least one breakpoint")
    if not np.all(np.isfinite(xj)) or not np.all(np.isfinite(aj)):
        raise ContractError("breakpoints and jumps must be finite")
    if xj[0] < 1.0 or np.any(np.diff(xj) <= 0):
        raise ContractError("breakpoints must be strictly increasing and >= 1")
    if np.any(aj <= 0):
        raise ContractError("jumps must be strictly positive")
    lnx = np.log(xj)
    level = np.concatenate(([0.0], np.cumsum(aj)))

    def jumps_upto(hi):
        j = np.searchsorted(xj, hi, side="right")
        return xj[:j], aj[:j], np.zeros(j)

    return _jump_source(label, lambda x: level[np.searchsorted(xj, x, side="right")], float(xj[-1]), jumps_upto,
                        lambda s: _step_sum(lnx, aj, s), C=float(np.max(level[1:] / xj)), A=0.0, lam=1.0)


# ---------------------------------------------------------------------------
# source catalog
# ---------------------------------------------------------------------------


def _tail_source(label, fn, terms, *, C, A):
    """The GrowthFunction of a source whose g is its stated tail from u = 0
    on, with growth constant C and ratio limit A. fn is that g written out,
    which the frequency route checks against the tail (operators._tail_of),
    and G the tail's transform term by term (module docstring)."""

    def term(s, c, lam, *b):
        w = s - (1.0 - lam)
        return c * exp_e1(b[0] * w) if b else c / w

    def laplace(s):
        s = np.asarray(s, dtype=complex)
        return sum(term(s, *t) if np.isrealobj(t[:2]) else 0.5 * (term(s, *t) + term(s, *np.conj(t[:2]), *t[2:]))
                   for t in terms)

    return GrowthFunction(label, fn, C, laplace, ratio_limit_A=A, tail=(0.0, terms))


def source_identity() -> GrowthFunction:
    """S(x) = x: the cleanest ratio limit, g == 1, transform 1/(s-1)."""
    return _tail_source("identity", np.ones_like, ((1.0, 0.0),), C=1.0, A=1.0)


def source_integers() -> GrowthFunction:
    """S = integer count (floor). Jumps at every integer; g -> 1, and is 1
    from 2^52 on, where every float is an integer."""

    def jumps_upto(hi):
        x = np.arange(1.0, math.floor(hi) + 1.0)
        return x, np.ones_like(x), np.zeros_like(x)

    return _jump_source("integer_count", np.floor, 2.0**52, jumps_upto, transform_integers, C=1.0, A=1.0, lam=0.0)


def source_primes_weighted(table) -> GrowthFunction:
    """S(x) = pi_P(x) ln x. The prime-number-theorem source; g -> 1 slowly.

    Each prime p adds 1 to the slope of S(e^u) = pi_P u: da = 0, db = 1.
    The table holds no jump past its limit: it refuses jumps asked for up
    to hi >= limit + 1 (TableExhaustedError). From u_cap = ln(limit) on, g
    is held at the table edge x = limit itself, so a prime limit counts."""

    def jumps_upto(hi):
        p = table.primes_in(0.0, hi).astype(float)
        return p, np.zeros_like(p), np.ones_like(p)

    return _jump_source("weighted_primes", lambda x: table.count(x) * np.log(x), float(table.limit), jumps_upto,
                        transform_weighted_primes, C=1.3, A=1.0, lam=0.0, capped=True)


def source_sqrt_mix(a: float = 1.0, b: float = 1.0) -> GrowthFunction:
    """S(x) = a x + b sqrt(x): ratio limit a, with an x^{-1/2} approach."""
    if a < 0 or b < 0 or a + b <= 0:
        raise DomainError("sqrt mix needs a, b >= 0, not both zero")
    return _tail_source(f"sqrt_mix(a={a:g},b={b:g})", lambda u: a + b * np.exp(-0.5 * u), ((a, 0.0), (b, 0.5)),
                        C=a + b, A=a)


def source_log_oscillation(amplitude: float = 0.5) -> GrowthFunction:
    """S(x) = x (1 + amplitude sin ln x): non-decreasing, but g has NO limit.

    The counterexample source: g(u) = 1 + amplitude sin u oscillates
    forever, so neither direction of the ratio-limit equivalence holds."""
    if not (0.0 < amplitude <= 0.7):
        raise DomainError("amplitude must lie in (0, 0.7] to keep S non-decreasing")
    return _tail_source(f"log_oscillation(amp={amplitude:g})", lambda u: 1.0 + amplitude * np.sin(u),
                        ((1.0, 0.0), (-1j * amplitude, -1j)), C=1.0 + amplitude, A=None)


def source_slow_approach() -> GrowthFunction:
    """S(x) = x + x/(1 + ln x): g -> 1 at a logarithmic crawl.

    Stresses every threshold: the ratio is still 1.05 at u = 19. The
    transform is 1/(s-1) + e^w E1(w), w = s - 1."""
    return _tail_source("slow_approach", lambda u: 1.0 + 1.0 / (1.0 + u), ((1.0, 0.0), (1.0, 0.0, 1.0)), C=2.0, A=1.0)


def source_single_jump(height: float = 3.0, location: float = math.e) -> GrowthFunction:
    """S = single jump of `height` at `location`: bounded, so g -> 0."""
    if not (height > 0 and location >= 1.0):
        raise DomainError("jump needs height > 0 and location >= 1")
    return source_steps([location], [height], f"single_jump(h={height:g},x0={location:g})")
