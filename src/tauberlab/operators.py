"""Truncated convolution operators on L^2 of a symmetric interval.

For a growth function S with transform G, the operator acts on f in L^2(I),
I = [-L/2, L/2], by

    (W f)(t) = (1/pi) * integral over I of f(tau) Re G(1+eps+i(t-tau)) dtau,

and this module builds its matrix truncation in the orthonormal exponential
basis e_n(t) = L^{-1/2} exp(2 pi i n t / L), n = -N..N, by two independent
routes.

Kernel route: the kernel K is even, so the double integral over I^2
collapses to one-dimensional moments on [0, L]. With alpha = 2 pi / L,

    s_n = int_0^L K(x) sin(alpha n x) dx,
    c_n = int_0^L 2 K(x) (1 - x/L) cos(alpha n x) dx,

and M[m][n] = (-1)^{n-m} (s_m - s_n) / (pi (n - m)) for m != n,
M[n][n] = c_n. The moments come from uniform Gauss-Legendre panels, one
kernel evaluation per node. This stays a time-side computation, independent
of the frequency route.

Frequency route: by the Plancherel identity the matrix element is a single
frequency integral against the windowed sine factors

    M[m][n] = ((-1)^{m+n} / pi) * integral of mt(x) sin^2 x
              / ((x - pi m)(x - pi n)) dx,      x = u L / 2,

with mt(x) = g(2|x|/L) e^{-2 eps |x|/L} and g(u) = S(e^u) e^{-u}. Partial
fractions reduce everything to the shared one-dimensional integrals

    F(k) = int_0^inf mt sin^2 x [1/(x - pi k) - 1/(x + pi k)] dx   (odd in k)
    D(n) = int_0^inf mt [sinc^2 + sinc^2] dx                        (even)

so a full order-N assembly costs 2(N+1) one-dimensional integrals over one
shared grid, and M is built from the moments -F/pi and D/pi by the same
formula as on the kernel route. Since sin^2(x -+ pi k) = sin^2 x, one sine
per node serves every k; near the removable singularities, |d| < 1 with
d = x -+ pi k, the terms are evaluated stably as sin(d) sinc(d/pi) and
sinc^2(d/pi). The nodes are sorted, so the near nodes of each k and sign
form one index range found by binary search: the far terms come from one
reciprocal block per sign with those ranges zeroed, the near terms from a
short per-k sum over each range.

The grid aligns panels with the jumps of step-backed sources (up to a
resolution cap, beyond which a declared between-jump mean replaces the
sawtooth when available), refines panels inside the Fejer main lobes
|x - pi n| < 3 pi, and cuts off at X chosen from the damping (eps > 0) or
at pi n_max + 500 with an integration-by-parts tail correction (eps = 0,
allowed because bounded g keeps the windowed integrand integrable).

Each panel gets 16 Gauss-Legendre nodes, except the panels narrower than
h0 = 0.05 that end inside the jump-resolved range, which get 4. Between
two resolved jumps the integrand mt(x) sin^2 x / (x -+ pi k)^j (j = 1 for
F, 2 for D) is entire: S is analytic between its jumps, and
sin x / (x - pi k) is entire. Map a panel of width h onto [-1, 1] and take
the Bernstein ellipse with rho - 1/rho = 4/h: in x it has semi-minor axis
1, and there |sin z| <= cosh 1 and |sin z / (z - pi k)| <= cosh 1 (sinh 1
inside |z - pi k| < 1), so the trigonometric factor stays below
cosh^2 1 < 2.4. The n-point rule then errs by at most
(h/2) (64/15) 2.4 G rho^{-2n} / (rho^2 - 1) (Trefethen, Approximation
Theory and Approximation Practice, Thm 19.3), G the maximum of |mt| on
the ellipse. At h = h0 (rho = 80) and n = 4 that is below 2.4e-20 G per
panel, and it falls like h^11. The eps = 0 grid of the pnt run has 17,683
such panels (median width 1.4e-3, all below x = 154) and G < 1.5, so the
rule moves each integral by less than 1e-15, under the rounding of the
16-point sums. Wider panels, and those past the resolved range, where
mt may be a declared mean or a closed form with singularities of its
own, keep 16 nodes. The kernel route keeps 16 nodes on every panel: its
kernel has a near-pole at distance eps from the real axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .arith import GrowthFunction, _atomic_write, _fields_dict
from .errors import ContractError, DomainError, PrecisionError
from .special import EvalTolerance
from .transform import _STEP_RESOLVE_CAP, _gl_nodes_on

__all__ = [
    "IntervalSpec",
    "OperatorTruncation",
    "WeakLimitReport",
    "kernel",
    "assemble_kernel_route",
    "assemble_frequency_route",
    "diagonal_sequence",
    "split_identity",
    "spectrum",
    "weak_limit_diagnostic",
]

_LOBE_HALF_WIDTH = 3.0 * math.pi  # refine |x - pi n| below this
_EPS0_X_PAD = 500.0  # undamped cutoff past the last lobe
_SMOOTH_RESOLVE = 1024.0  # resolve jumps exactly below this x when a mean model exists
_MAX_ORDER = 256
_NARROW_PANEL = 0.05  # panels below this width get _GL4 (module docstring)
_GL4 = np.polynomial.legendre.leggauss(4)


@dataclass(frozen=True)
class IntervalSpec:
    """The symmetric interval I = [-L/2, L/2]."""

    length: float

    def __post_init__(self):
        if not (self.length > 0.0) or not math.isfinite(self.length):
            raise ContractError("interval length must be positive and finite")


@dataclass
class OperatorTruncation:
    """A real symmetric matrix truncation of W (or of Psi = W - A Id).

    entries[i][j] is the element for basis indices m = i - N, n = j - N;
    rows and columns both run m, n = -N..N.
    """

    interval: IntervalSpec
    epsilon: float
    order: int
    entries: np.ndarray
    source: str
    route: str
    A: float = 0.0

    def diagonal(self) -> np.ndarray:
        return np.diag(self.entries)

    def csv_text(self) -> str:
        lines = [
            f"# tauberlab-matrix v1, L={self.interval.length!r}, eps={self.epsilon!r}, "
            f"N={self.order}, source={self.source}, route={self.route}, A={self.A!r}",
            "# rows m = -N..N, cols n = -N..N",
        ]
        for row in self.entries:
            lines.append(",".join(f"{v:.17g}" for v in row))
        return "\n".join(lines) + "\n"

    def to_csv(self, path) -> None:
        """Write the matrix with its metadata header, atomically."""
        _atomic_write(Path(path), self.csv_text())


# ---------------------------------------------------------------------------
# kernel route
# ---------------------------------------------------------------------------


def kernel(S: GrowthFunction, eps: float, x):
    """K_eps(x) = (1/pi) Re G(1 + eps + i x), the convolution kernel.

    Needs the source's closed-form transform (every catalog source declares
    one) and eps >= 1e-3: the kernel route never takes the eps -> 0 limit
    pointwise."""
    if eps < 1e-3:
        raise DomainError("kernel evaluation requires eps >= 1e-3")
    if S.laplace is None:
        raise ContractError(f"source '{S.label}' declares no closed-form transform for the kernel")
    arr = np.asarray(x, dtype=float)
    out = np.real(S.laplace(1.0 + eps + 1j * arr)) / math.pi
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def assemble_kernel_route(
    S: GrowthFunction,
    I: IntervalSpec,
    eps: float,
    N: int,
) -> OperatorTruncation:
    """Matrix truncation from the 1-D kernel moments s_n, c_n (module docstring).

    Uniform panels of width min(eps, 0.1, L/(3N)) with 16 Gauss-Legendre
    nodes each resolve both the kernel peak (scale eps) and the fastest
    basis oscillation (period L/N); the width depends on eps, L and N alone."""
    if eps < 1e-3:
        raise DomainError("kernel route requires eps >= 1e-3")
    if not (0 <= N <= _MAX_ORDER):
        raise ContractError(f"order N must lie in [0, {_MAX_ORDER}]")
    L = I.length
    w_target = min(eps, 0.1, L / (3 * N) if N > 0 else math.inf)
    edges = np.linspace(0.0, L, int(math.ceil(L / w_target)) + 1)
    xs, ws = _gl_nodes_on(edges[:-1], edges[1:])
    kv = np.asarray(kernel(S, eps, xs))
    if not np.all(np.isfinite(kv)):
        x_bad = float(xs[np.flatnonzero(~np.isfinite(kv))[0]])
        raise PrecisionError(f"kernel quadrature produced a non-finite value at x = {x_bad!r}")

    s, c = np.zeros(N + 1), np.zeros(N + 1)
    wk = ws * kv
    wc = 2.0 * wk * (1.0 - xs / L)
    alpha_n = (2.0 * math.pi / L) * np.arange(N + 1)
    block = max(1, 2_000_000 // (N + 1))
    for lo in range(0, xs.size, block):
        ph = np.exp(1j * np.multiply.outer(alpha_n, xs[lo : lo + block]))
        s += ph.imag @ wk[lo : lo + block]
        c += ph.real @ wc[lo : lo + block]
    return OperatorTruncation(
        interval=I,
        epsilon=eps,
        order=N,
        entries=_matrix_from_moments(s, c),
        source=S.label,
        route="kernel_quadrature",
        A=0.0,
    )


def _matrix_from_moments(odd: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """The order-N matrix from moments given for k = 0..N.

    M[m][n] = (-1)^{n-m} (o_m - o_n) / (pi (n - m)) off the diagonal and
    M[n][n] = diag[|n|], with o_k = sign(k) odd[|k|] (odd in k)."""
    N = odd.size - 1
    idx = np.arange(-N, N + 1)
    o = np.sign(idx) * odd[np.abs(idx)]
    signs = np.where(idx % 2 == 0, 1.0, -1.0)
    diff_idx = idx[None, :] - idx[:, None]  # n - m
    with np.errstate(divide="ignore", invalid="ignore"):
        M = np.multiply.outer(signs, signs) * (o[:, None] - o[None, :]) / (math.pi * diff_idx)
    np.fill_diagonal(M, diag[np.abs(idx)])
    return 0.5 * (M + M.T)


# ---------------------------------------------------------------------------
# frequency route: shared grid
# ---------------------------------------------------------------------------


def _resolve_u(S: GrowthFunction) -> float:
    """u below which jumps are resolved exactly by panel alignment."""
    if S.breakpoints_in is None:
        return 0.0
    cap = _SMOOTH_RESOLVE if S.g_smooth is not None else _STEP_RESOLVE_CAP
    return min(math.log(cap), S.u_cap)


def _cutoff_damped(C: float, eps: float, L: float, N: int, target: float) -> float:
    """Fixed point of e^{-2 eps X / L} C / (pi (X - pi N)) = target."""
    rate = 2.0 * eps / L
    X = math.pi * N + 50.0
    for _ in range(40):
        X = math.pi * N + max(
            3.0 * _LOBE_HALF_WIDTH,
            math.log(max(C, 1e-300) / (target * math.pi * (X - math.pi * N))) / rate,
        )
    return X


def _grid_edges(S: GrowthFunction, L: float, N: int, X: float):
    """Panel edges on [0, X]: jump-aligned, lobe-refined, growing in the tail."""
    half = L / 2.0
    lobe_end = math.pi * (N + 3)
    base_w = min(0.1, math.pi / L) * half  # at most pi/2, under the tail's width cap 2
    fine_w = base_w / 4.0

    cuts = [0.0]
    u_res = _resolve_u(S)
    a_end = min(half * u_res, X)
    if S.breakpoints_in is not None and a_end > 0.0:
        bps = np.asarray(S.breakpoints_in(1.0 - 1e-12, math.exp(a_end / half)))
        knots = half * np.log(bps[bps > 1.0].astype(float))
        cuts.extend(knots[(knots > 1e-12) & (knots < a_end - 1e-12)].tolist())
        cuts.append(a_end)
    if cuts[-1] < lobe_end < X:
        cuts.append(lobe_end)

    # k equal panels on each segment [a, b] between cuts; the ends
    # j (b - a)/k + a, j = 1..k, with the last set to b, are bit for bit
    # np.linspace(a, b, k + 1)[1:]
    cuts = np.asarray(cuts)
    a, b = cuts[:-1], cuts[1:]
    width = np.where(a < lobe_end, fine_w, base_w)
    k = np.maximum(1, np.ceil((b - a) / width).astype(np.int64))
    seg = np.repeat(np.arange(k.size), k)
    ends = np.cumsum(k)
    inner = (np.arange(1, seg.size + 1) - np.repeat(ends - k, k)) * ((b - a) / k)[seg] + a[seg]
    inner[ends - 1] = b

    # geometric growth out to the cutoff
    grow = []
    pos = float(cuts[-1])
    wcur = base_w
    while pos < X:
        pos = min(pos + wcur, X)
        grow.append(pos)
        wcur = min(wcur * 1.15, 2.0)
    return np.concatenate([cuts[:1], inner, grow])


def _route_nodes(S: GrowthFunction, L: float, edges: np.ndarray):
    """Gauss-Legendre nodes and weights on the route panels: 4 points on the
    panels narrower than _NARROW_PANEL that end inside the jump-resolved
    range, where the integrand is entire (module docstring), 16 elsewhere."""
    lo, hi = edges[:-1], edges[1:]
    narrow = (hi - lo < _NARROW_PANEL) & (hi <= (L / 2.0) * _resolve_u(S))
    if not narrow.any():  # skips copying the node arrays
        return _gl_nodes_on(lo, hi)
    xs, ws = _gl_nodes_on(lo[~narrow], hi[~narrow])
    x4, w4 = _gl_nodes_on(lo[narrow], hi[narrow], _GL4)
    return np.concatenate([xs, x4]), np.concatenate([ws, w4])


def _source_values(S: GrowthFunction, L: float, eps: float, xs: np.ndarray) -> np.ndarray:
    """mt(x) = g_eff(2x/L) e^{-2 eps x/L} on the grid nodes.

    g_eff is the ratio g, frozen at u_cap past the evaluable range, except
    that a source declaring a between-jump mean takes that mean past the
    jump-resolution point."""
    u = xs / (L / 2.0)
    g = np.asarray(S.g_clipped(u), dtype=float)
    if S.g_smooth is not None:
        rest = u > _resolve_u(S)
        g[rest] = S.g_smooth(u[rest])
    if eps > 0.0:
        return g * np.exp(-eps * u)
    return g


def _half_line_integrals(xs: np.ndarray, wv: np.ndarray, k_max: int, want_F: bool):
    """F(k) (optional) and D(k) for k = 0..k_max over the weighted nodes.

    sin^2(x -+ pi k) = sin^2 x, so one sine per node serves every k; the
    removable singularities |x -+ pi k| < 1 go through sinc instead. The
    nodes are sorted first (a stable sort, which leaves the route grids as
    they are), so the near nodes of each k and sign form one index range
    [lo_k, hi_k): the far pass zeroes those ranges of the reciprocal block by
    slicing, and the near pass loops over k on the contiguous slices."""
    order = np.argsort(xs, kind="stable")
    xs, wv = xs[order], wv[order]
    ks = math.pi * np.arange(k_max + 1)
    F = np.zeros(k_max + 1) if want_F else None
    D = np.zeros(k_max + 1)
    s2w = np.sin(xs) ** 2 * wv
    block = max(1, 2_000_000 // (k_max + 1))
    for sign in (1.0, -1.0):
        centres = sign * ks
        lo = np.searchsorted(xs, centres - 1.0, side="right")
        hi = np.searchsorted(xs, centres + 1.0, side="left")
        for start in range(0, xs.size, block):
            stop = min(start + block, xs.size)
            r = np.subtract(xs[None, start:stop], centres[:, None])
            with np.errstate(divide="ignore"):  # a node may sit exactly on pi k
                np.reciprocal(r, out=r)
            for k in np.flatnonzero((lo < stop) & (hi > start)):
                r[k, max(lo[k] - start, 0) : hi[k] - start] = 0.0
            if want_F:
                F += sign * (r @ s2w[start:stop])
            r *= r
            D += r @ s2w[start:stop]
        for k in np.flatnonzero(hi > lo):
            dn = xs[lo[k] : hi[k]] - centres[k]
            sn = np.sinc(dn / math.pi)
            if want_F:
                F[k] += sign * ((np.sin(dn) * sn) @ wv[lo[k] : hi[k]])
            D[k] += (sn * sn) @ wv[lo[k] : hi[k]]
    return F, D


def _tail_T(X: float, a: np.ndarray) -> np.ndarray:
    """Closed form of int_X^inf sin^2 x/(x-a)^2 dx up to O((X-a)^{-3}), per a."""
    d = X - a
    return 1.0 / (2.0 * d) + math.sin(2.0 * X) / (4.0 * d * d) - math.cos(2.0 * X) / (
        4.0 * d**3
    )


def _windowed_integrals(
    S: GrowthFunction,
    L: float,
    eps: float,
    N: int,
    tol: Optional[EvalTolerance],
    shift: float,
    want_F: bool,
):
    """F(k) (when want_F) and D(k), k = 0..N, of mt - shift on the route grid.

    The grid ends at the cutoff X. For eps > 0, X is where the damped tail
    bound C e^{-2 eps X/L} / (pi (X - pi N)) meets a tenth of tol.abs_tol
    (abs_tol 1e-9 without tol), C the growth constant (_cutoff_damped). At
    eps = 0, X = pi N + _EPS0_X_PAD and the part beyond X is added in closed
    form, with mt frozen at its value at X: a log term for F and _tail_T
    for D."""
    if eps > 0.0:
        target = (tol.abs_tol if tol else 1e-9) * 0.1
        X = _cutoff_damped(S.growth_constant, eps, L, N, target)
    else:
        X = math.pi * N + _EPS0_X_PAD
    xs, ws = _route_nodes(S, L, _grid_edges(S, L, N, X))
    vals = _source_values(S, L, eps, xs) - shift
    F, D = _half_line_integrals(xs, ws * vals, N, want_F)
    if eps == 0.0:
        f_inf = float(_source_values(S, L, eps, np.array([X]))[0]) - shift
        ks = math.pi * np.arange(N + 1)
        if want_F:
            with np.errstate(divide="ignore"):
                F += np.where(ks > 0, 0.5 * f_inf * np.log((X + ks) / (X - ks)), 0.0)
        D += f_inf * (_tail_T(X, ks) + _tail_T(X, -ks))
    return F, D


def assemble_frequency_route(
    S: GrowthFunction,
    I: IntervalSpec,
    eps: float,
    N: int,
    tol: Optional[EvalTolerance] = None,
) -> OperatorTruncation:
    """Matrix truncation from the frequency-side integrals F(k), D(n).

    eps = 0 is allowed here (bounded g keeps every entry absolutely
    convergent through the Fejer window). _windowed_integrals sets the
    cutoff: for eps > 0 from the exponential damping, at a tenth of
    tol.abs_tol (of 1e-9 without tol); for eps = 0 at pi N + _EPS0_X_PAD,
    with integration-by-parts tail corrections."""
    if eps < 0.0:
        raise DomainError("eps must be >= 0 on the frequency route")
    if not (0 <= N <= _MAX_ORDER):
        raise ContractError(f"order N must lie in [0, {_MAX_ORDER}]")
    F, D = _windowed_integrals(S, I.length, eps, N, tol, 0.0, want_F=True)
    return OperatorTruncation(
        interval=I,
        epsilon=eps,
        order=N,
        entries=_matrix_from_moments(-F / math.pi, D / math.pi),
        source=S.label,
        route="frequency_formula",
        A=0.0,
    )


def diagonal_sequence(
    S: GrowthFunction,
    I: IntervalSpec,
    eps: float,
    A: float,
    n_max: int,
    tol: Optional[EvalTolerance] = None,
) -> np.ndarray:
    """<Psi e_n, e_n> for n = 0..n_max, Psi = W - A Id, by the 1-D integral.

    At eps = 0 the integrand is h(u) = g(|u|) - A directly; at eps > 0 the
    damped g is integrated and A subtracted exactly (the Fejer window has
    unit mass). Diagonals are even in n. The grid and its cutoff are those
    of assemble_frequency_route at order n_max."""
    if eps < 0.0:
        raise DomainError("eps must be >= 0")
    if n_max < 0:
        raise ContractError("n_max must be >= 0")
    shift = A if eps == 0.0 else 0.0
    _, D = _windowed_integrals(S, I.length, eps, n_max, tol, shift, want_F=False)
    return D / math.pi - (A - shift)


# ---------------------------------------------------------------------------
# split, spectrum, weak-limit diagnostics
# ---------------------------------------------------------------------------


def split_identity(W: OperatorTruncation, A: float) -> OperatorTruncation:
    """Psi = W - A Id, recording A in the metadata."""
    if not math.isfinite(A):
        raise ContractError("A must be finite")
    ent = W.entries - A * np.eye(W.entries.shape[0])
    return OperatorTruncation(
        interval=W.interval,
        epsilon=W.epsilon,
        order=W.order,
        entries=ent,
        source=W.source,
        route=W.route,
        A=A,
    )


def spectrum(M) -> np.ndarray:
    """Eigenvalues of a symmetric truncation, sorted by |lambda| descending."""
    ent = M.entries if isinstance(M, OperatorTruncation) else np.asarray(M, dtype=float)
    if ent.ndim != 2 or ent.shape[0] != ent.shape[1]:
        raise ContractError("spectrum needs a square matrix")
    defect = float(np.max(np.abs(ent - ent.T))) if ent.size else 0.0
    if defect >= 1e-9:
        raise ContractError(f"matrix is not symmetric: max |M - M^T| = {defect:.3e} >= 1.0e-09")
    eig = np.linalg.eigvalsh(0.5 * (ent + ent.T))
    order = np.argsort(-np.abs(eig), kind="stable")
    return eig[order]


@dataclass
class WeakLimitReport:
    """Successive-difference diagnostic for the eps -> 0 weak limit."""

    source: str
    length: float
    order: int
    schedule: Sequence[float]
    deltas: np.ndarray
    ratios: np.ndarray
    cauchy: bool
    final_diagonal: np.ndarray = field(repr=False)

    def to_dict(self) -> dict:
        return _fields_dict(self)


def weak_limit_diagnostic(
    S: GrowthFunction,
    I: IntervalSpec,
    N: int,
    eps_schedule: Sequence[float],
) -> WeakLimitReport:
    """Assemble W across the eps schedule and test Cauchy-like decay.

    Reports Delta_k = max |M(eps_{k+1}) - M(eps_k)| and verdicts true when
    each Delta shrinks by >= 1.5x per step (the schedule is expected to
    halve eps each step)."""
    sched = [float(e) for e in eps_schedule]
    if len(sched) < 2:
        raise ContractError("eps schedule needs at least two values")
    if any(e <= 0 for e in sched) or any(b >= a for a, b in zip(sched, sched[1:])):
        raise ContractError("eps schedule must be strictly decreasing and positive")
    mats = [assemble_frequency_route(S, I, e, N) for e in sched]
    deltas = np.array(
        [float(np.max(np.abs(b.entries - a.entries))) for a, b in zip(mats, mats[1:])]
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = deltas[:-1] / deltas[1:]
    floor = 1e-14
    cauchy = all(
        (deltas[i + 1] < floor) or (ratios[i] >= 1.5) for i in range(len(deltas) - 1)
    )
    return WeakLimitReport(
        source=S.label,
        length=I.length,
        order=N,
        schedule=sched,
        deltas=deltas,
        ratios=np.where(np.isfinite(ratios), ratios, np.inf),
        cauchy=bool(cauchy),
        final_diagonal=mats[-1].diagonal(),
    )
