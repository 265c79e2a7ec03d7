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
M[n][n] = c_n. The moments come from P uniform panels of half-width h with
one shared 16-point Gauss-Legendre rule xi_i, so every node is
x = m_j + h xi_i with midpoint m_j = (2j + 1) h: a special.OuterGrid, on
which the kernel is evaluated once per node in one call. The phases factor
the same way, e^{i alpha n x} = E[j, n] F[i, n] with E = e^{i alpha n m_j}
(P x (N+1)) and F = e^{i alpha n h xi_i} (16 x (N+1)), so with the weighted
kernel values wk (P x 16)

    s_n + i (...) = sum_j E[j, n] (wk @ F)[j, n],

and c_n likewise, from (P + 16)(N + 1) complex exps in place of 16 P (N+1).
This stays a time-side computation, independent of the frequency route.

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
per node serves every k: on the grid both integrals sum s2w, the
quadrature weight times sin^2 x mt, against 1/(x - c) (F) and
1/(x - c)^2 (D) at the 2(N+1) centres c = +-pi k. Near the removable
singularities, |d| < 1 with d = x - c, the terms are evaluated stably as
sin(d) sinc(d/pi) and sinc^2(d/pi).

Far and near: the sorted nodes fall into bins of width w = 1 on the x
axis (_FAR_BIN). For each centre, its own bin and the 3 bins on either
side (_NEAR_BINS) are near, and their nodes are summed one by one. Every
other bin is far. A far bin with more than 16 nodes (_PROXIES; on the
pnt grid, the 236 bins below x = 236, where the panels resolve the prime
jumps and the Fejer lobes) enters through 16 first-kind Chebyshev
proxies weighted by the anterpolation of its nodes, as in the one-level
black-box fast multipole method (W. Fong and E. Darve, J. Comput. Phys.
228 (2009) 8712-8725): the proxies sum s2w against the degree-15
interpolant p of the kernel f on the bin in place of f. Sparse bins keep
their nodes. The far terms then come from one reciprocal block over the
far sources, with each centre's near bins zeroed; near and far split on
the same bin numbers, so each node counts once. On the pnt grid
(N = 72) the 86,924 nodes give 7,722 far sources, and the block has 1.1M
entries in place of 12.7M.

Bound: map a far bin onto [-1, 1]. Its centre lies at least
(_NEAR_BINS + 1/2) w = 7 half-widths from c, so f is analytic inside the
Bernstein ellipse E_rho with rho < 7 + sqrt 48 = 13.9. Take the ellipse
with real semi-axis 6, r = 6 + sqrt 35 = 11.9: its points lie at least
one half-width w/2 from c, so |f| <= M = 2/w for F and 4/w^2 for D, and
||f - p|| <= 4 M r^{-15} / (r - 1) (Trefethen, Approximation Theory and
Approximation Practice, Thm 8.2, n = 15; the first-kind interpolant
aliases the same Chebyshev tail). That is 5.3e-17 for F and 1.1e-16 for
D per unit of sum |s2w| over the bin, and it falls like r^{-15} for the
bins farther out, whose r grows with their distance from c.

The grid aligns panels with the jumps of step-backed sources (up to a
resolution cap, beyond which a declared between-jump mean replaces the
sawtooth when available), refines panels inside the Fejer main lobes
|x - pi n| < 3 pi, and cuts off at X chosen from the damping (eps > 0) or
at pi n_max + 500 with an integration-by-parts tail correction (eps = 0,
allowed because bounded g keeps the windowed integrand integrable). At
every eps the order-n entries read g near u = 2 pi n / L (the Fejer lobe
at x = pi n), so an order past N_max = L u_cap / (2 pi) would read the
constant a table-backed source freezes g at past u_cap; such orders are
refused (_check_resolvable) before the cutoff is chosen. Past the lobes the
panels are at most 2 wide with 16 nodes each, so a grid holds about 8X
nodes; a cutoff whose estimate passes _MAX_GRID_NODES (small eps: X grows
like (L / 2 eps) ln(1/target)) is refused with a ResourceError before any
grid is built.

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
from scipy.special import lambertw

from .arith import GrowthFunction, _atomic_write, _fields_dict
from .errors import ContractError, DomainError, PrecisionError, ResourceError
from .special import EvalTolerance, OuterGrid
from .transform import _GL16, _STEP_RESOLVE_CAP, _gl_nodes_on

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
_MAX_GRID_NODES = 4_000_000  # frequency-route grids past this are refused (ResourceError)
_NARROW_PANEL = 0.05  # panels below this width get _GL4 (module docstring)
_GL4 = np.polynomial.legendre.leggauss(4)
_FAR_BIN = 1.0  # bin width of the near/far split (module docstring)
_NEAR_BINS = 3  # bins on each side of a centre's bin summed node by node
_PROXIES = 16  # a bin with more nodes than this is replaced by as many proxies
_THETA = math.pi * (1.0 - (np.arange(_PROXIES) + 0.5) / _PROXIES)
_CHEB = np.cos(_THETA)  # first-kind Chebyshev points on [-1, 1], ascending
# mu_m -> w_j: (2 - [m = 0]) T_m(p_j) / _PROXIES, T_m(p_j) = cos(m theta_j)
_ANTERP = np.cos(np.outer(np.arange(_PROXIES), _THETA)) * np.where(
    np.arange(_PROXIES) == 0, 1.0, 2.0
)[:, None] / _PROXIES


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
    pointwise. x may be an OuterGrid, which reaches the transform as the
    grid 1 + eps + i x, and the result has its (P, Q) shape."""
    if eps < 1e-3:
        raise DomainError("kernel evaluation requires eps >= 1e-3")
    if S.laplace is None:
        raise ContractError(f"source '{S.label}' declares no closed-form transform for the kernel")
    if not isinstance(x, OuterGrid):
        x = np.asarray(x, dtype=float)
    out = np.real(S.laplace(1.0 + eps + 1j * x)) / math.pi
    return float(out) if np.ndim(out) == 0 else out


def assemble_kernel_route(
    S: GrowthFunction,
    I: IntervalSpec,
    eps: float,
    N: int,
) -> OperatorTruncation:
    """Matrix truncation from the 1-D kernel moments s_n, c_n (module docstring).

    P uniform panels of width at most min(eps, 0.1, L/(3N)) with 16
    Gauss-Legendre nodes each resolve both the kernel peak (scale eps) and
    the fastest basis oscillation (period L/N); the width depends on eps, L
    and N alone."""
    if eps < 1e-3:
        raise DomainError("kernel route requires eps >= 1e-3")
    _check_order(N)
    L = I.length
    P = int(math.ceil(L / min(eps, 0.1, L / (3 * N) if N > 0 else math.inf)))
    h = L / (2 * P)  # panel half-width
    xi, wi = _GL16
    x = OuterGrid((2 * np.arange(P) + 1) * h, h * xi)
    kv = np.asarray(kernel(S, eps, x))
    if not np.all(np.isfinite(kv)):
        x_bad = float(x.points[np.flatnonzero(~np.isfinite(kv))[0]])
        raise PrecisionError(f"kernel quadrature produced a non-finite value at x = {x_bad!r}")

    wk = kv * (h * wi)
    wc = 2.0 * wk * (1.0 - np.asarray(x) / L)
    alpha_n = (2.0 * math.pi / L) * np.arange(N + 1)
    E = np.exp(1j * np.multiply.outer(x.a, alpha_n))
    F = np.exp(1j * np.multiply.outer(x.b, alpha_n))
    s = np.sum(E * (wk @ F), axis=0).imag
    c = np.sum(E * (wc @ F), axis=0).real
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
    return M  # M[n][m] negates both o_m - o_n and n - m, exact in IEEE: M is symmetric


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
    """X = pi N + max(3 _LOBE_HALF_WIDTH, y), y > 0 the root of
    C e^{-r y} / (pi y) = target with r = 2 eps / L, y = X - pi N.

    The factor e^{-r y} = e^{-2 eps (X - pi N)/L} exceeds the damping
    e^{-2 eps X/L} of the tail past X, so the bound is conservative. The
    root is closed-form: r y e^{r y} = r C / (pi target), so
    r y = W0(r C / (pi target)), W0 the principal Lambert W branch."""
    rate = 2.0 * eps / L
    y = lambertw(rate * max(C, 1e-300) / (math.pi * target)).real / rate
    return math.pi * N + max(3.0 * _LOBE_HALF_WIDTH, y)


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

    # geometric growth out to the cutoff: widths base_w 1.15^j capped at 2,
    # ends the running sums from cuts[-1] below X, then X itself. Both
    # accumulates run in order, so the ends are bit for bit those of the
    # loop pos = min(pos + w, X), w = min(1.15 w, 2), while pos < X
    pos = float(cuts[-1])
    if pos >= X:
        return np.concatenate([cuts[:1], inner])
    n_geo = int(math.log(2.0 / base_w) / math.log(1.15)) + 3  # the last is past the cap
    w = np.full(n_geo + int((X - pos) / 2.0) + 1, 2.0)
    w[:n_geo] = np.minimum(np.multiply.accumulate([base_w] + [1.15] * (n_geo - 1)), 2.0)
    ends = np.add.accumulate(np.concatenate([[pos], w]))[1:]
    return np.concatenate([cuts[:1], inner, ends[ends < X], [X]])


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


def _far_sources(xs: np.ndarray, bins: np.ndarray, s2w: np.ndarray):
    """The far sources of the sorted nodes xs: positions, weights and bins.

    A bin holding more than _PROXIES nodes becomes its _PROXIES first-kind
    Chebyshev points p_j with weights w_j = sum_i s2w_i l_j(t_i), l_j the
    Lagrange basis of the p_j and t_i the bin's nodes mapped onto [-1, 1],
    so that sum_j w_j f(p_j) = sum_i s2w_i p(t_i) for the interpolant p of
    f at the p_j. The w_j come from the Chebyshev moments
    mu_m = sum_i s2w_i T_m(t_i) through _ANTERP. Sparse bins keep their
    nodes. The sources come out in bin order."""
    starts = np.flatnonzero(np.diff(bins, prepend=-np.inf))
    counts = np.diff(starts, append=xs.size)
    crowded = counts > _PROXIES
    raw = np.repeat(~crowded, counts)
    cb, cn = bins[starts[crowded]], counts[crowded]
    t = 2.0 * (xs[~raw] / _FAR_BIN - np.repeat(cb, cn)) - 1.0
    seg = np.cumsum(cn) - cn
    mu = np.empty((_PROXIES, cb.size))
    prev, cur = s2w[~raw], t * s2w[~raw]  # s2w T_0, s2w T_1
    mu[0], mu[1] = np.add.reduceat(prev, seg), np.add.reduceat(cur, seg)
    t2 = t + t
    for m in range(2, _PROXIES):  # s2w T_m = 2 t s2w T_{m-1} - s2w T_{m-2}
        prev, cur = cur, t2 * cur - prev
        mu[m] = np.add.reduceat(cur, seg)
    pw = mu.T @ _ANTERP
    sb = np.concatenate([np.repeat(cb, _PROXIES), bins[raw]])
    order = np.argsort(sb, kind="stable")
    sx = np.concatenate([((cb[:, None] + 0.5 * (_CHEB + 1.0)) * _FAR_BIN).ravel(), xs[raw]])
    sw = np.concatenate([pw.ravel(), s2w[raw]])
    return sx[order], sw[order], sb[order]


def _half_line_integrals(xs: np.ndarray, wv: np.ndarray, k_max: int, want_F: bool):
    """F(k) (optional) and D(k) for k = 0..k_max over the weighted nodes.

    The nodes are sorted first (a stable sort, which leaves the route grids
    as they are) and split into near and far bins (module docstring). The
    far pass zeroes each centre's near bins, a contiguous range of the
    bin-ordered far sources, in the reciprocal block by slicing; the near
    pass gathers each centre's near nodes, one contiguous range of the
    sorted nodes, and sums every range at once with np.add.reduceat."""
    order = np.argsort(xs, kind="stable")
    xs, wv = xs[order], wv[order]
    ks = math.pi * np.arange(k_max + 1)
    centres = np.concatenate([ks, -ks])
    s2w = np.sin(xs) ** 2 * wv
    bins = np.floor(xs / _FAR_BIN)
    near_lo = np.floor(centres / _FAR_BIN) - _NEAR_BINS
    near_hi = near_lo + 2 * _NEAR_BINS

    sx, sw, sb = _far_sources(xs, bins, s2w)
    lo = np.searchsorted(sb, near_lo, side="left")
    hi = np.searchsorted(sb, near_hi, side="right")
    F = np.zeros(centres.size)
    D = np.zeros(centres.size)
    block = max(1, 1_000_000 // centres.size)
    for start in range(0, sx.size, block):
        stop = min(start + block, sx.size)
        r = np.subtract(sx[None, start:stop], centres[:, None])
        with np.errstate(divide="ignore"):  # a near source may sit on pi k; zeroed below
            np.reciprocal(r, out=r)
        for c in np.flatnonzero((lo < stop) & (hi > start)):
            r[c, max(lo[c] - start, 0) : hi[c] - start] = 0.0
        if want_F:
            F += r @ sw[start:stop]
        r *= r
        D += r @ sw[start:stop]

    a = np.searchsorted(bins, near_lo, side="left")
    lens = np.searchsorted(bins, near_hi, side="right") - a
    offs = np.cumsum(lens) - lens
    idx = np.arange(lens.sum()) + np.repeat(a - offs, lens)
    d = xs[idx] - np.repeat(centres, lens)
    mid = np.flatnonzero(np.abs(d) < 1.0)
    dm = d[mid]
    sm = np.sin(dm)
    sn = np.divide(sm, dm, out=np.ones_like(dm), where=dm != 0.0)  # sinc(dm / pi)
    wm = wv[idx[mid]]
    with np.errstate(divide="ignore"):  # a node may sit on pi k; zeroed next
        r = 1.0 / d
    r[mid] = 0.0
    term = s2w[idx] * r
    seg = lens > 0
    if want_F:
        f = term.copy()
        f[mid] = sm * sn * wm
        F[seg] += np.add.reduceat(f, offs[seg])
    term *= r
    term[mid] = sn * sn * wm
    D[seg] += np.add.reduceat(term, offs[seg])
    K = k_max + 1
    return (F[:K] - F[K:] if want_F else None), D[:K] + D[K:]


def _tail_T(X: float, a: np.ndarray) -> np.ndarray:
    """Closed form of int_X^inf sin^2 x/(x-a)^2 dx up to O((X-a)^{-3}), per a."""
    d = X - a
    return 1.0 / (2.0 * d) + math.sin(2.0 * X) / (4.0 * d * d) - math.cos(2.0 * X) / (
        4.0 * d**3
    )


def _check_order(N: int) -> None:
    if not (0 <= N <= _MAX_ORDER):
        raise ContractError(f"order N must lie in [0, {_MAX_ORDER}]")


def _check_resolvable(S: GrowthFunction, L: float, N: int) -> None:
    """DomainError when the order-N entries would read the frozen tail, at
    any eps: past u_cap the source holds g at g(u_cap), so an order above
    N_max = L u_cap / (2 pi) reads that constant, not the source."""
    n_max = L * S.u_cap / (2.0 * math.pi)
    if N > n_max:
        raise DomainError(
            f"order N = {N} reads g past u_cap = {S.u_cap:g} of source '{S.label}'; "
            f"at L = {L:g} the largest resolvable order is N_max = {n_max:.4g}"
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

    N must lie in [0, _MAX_ORDER] and not pass N_max at any eps
    (_check_resolvable). The grid ends at the cutoff X. For eps > 0, X is
    where the damped tail bound C e^{-2 eps (X - pi N)/L} / (pi (X - pi N))
    meets a tenth of tol.abs_tol (abs_tol 1e-9 without tol), C the growth
    constant (_cutoff_damped). At eps = 0, X = pi N + _EPS0_X_PAD and the
    part beyond X is added in closed form, with mt frozen at its value at
    X: a log term for F and _tail_T for D. A cutoff whose grid would hold
    more than _MAX_GRID_NODES nodes (about 8X) is a ResourceError, raised
    before the grid is built."""
    _check_order(N)
    _check_resolvable(S, L, N)
    if eps > 0.0:
        target = (tol.abs_tol if tol else 1e-9) * 0.1
        X = _cutoff_damped(S.growth_constant, eps, L, N, target)
    else:
        X = math.pi * N + _EPS0_X_PAD
    nodes = 8.0 * X  # past the lobes the panels are at most 2 wide, 16 nodes each
    if nodes > _MAX_GRID_NODES:
        raise ResourceError(
            f"eps = {eps:g} puts the frequency-route cutoff at X = {X:.4g}, about "
            f"{nodes:.3g} grid nodes, past the cap of {_MAX_GRID_NODES:,} nodes"
        )
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
    of assemble_frequency_route at order n_max, and so is the order cap
    [0, _MAX_ORDER] (ContractError); at any eps an n_max past the frozen
    tail of a table-backed source is a DomainError."""
    if eps < 0.0:
        raise DomainError("eps must be >= 0")
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
