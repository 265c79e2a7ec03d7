"""Truncated convolution operators on L^2 of a symmetric interval.

For a growth function S with transform G, the operator acts on f in L^2(I),
I = [-L/2, L/2], by

    (W f)(t) = (1/pi) * integral over I of f(tau) Re G(1+eps+i(t-tau)) dtau,

and this module builds its matrix truncation in the orthonormal exponential
basis e_n(t) = L^{-1/2} exp(2 pi i n t / L), n = -N..N, by two independent
routes. Each route entry takes a sequence of sources and serves them all
from one grid: assemble_kernel_route and assemble_frequency_route return
one truncation per source, and diagonal_sequence, the frequency route's
diagonal of W alone, one row per source.

Kernel route: the kernel K is even, so the double integral over I^2
collapses to one-dimensional moments on [0, L]. With alpha = 2 pi / L,

    s_n = int_0^L K(x) sin(alpha n x) dx,
    c_n = int_0^L 2 K(x) (1 - x/L) cos(alpha n x) dx,

and M[m][n] = (-1)^{n-m} (s_m - s_n) / (pi (n - m)) for m != n,
M[n][n] = c_n. The moments come from 16-point Gauss-Legendre panels laid
by one plan (_kernel_plan, below): a few graded head panels, whose nodes
form one plain block, and uniform body panels, each gap between heads one
block of nodes x = m_j + h xi_i, midpoints m_j plus one scaled rule
h xi_i. The blocks form one special.OuterGrid, which reaches the transform
whole, and the kernel is evaluated once per node in one call. The phases
factor the same way, block by block, e^{i alpha n x} =
E[j, n] F[i, n] with E = e^{i alpha n m_j} (P x (N+1)) and
F = e^{i alpha n h xi_i} (16 x (N+1)), so with the weighted kernel values
wk (P x 16)

    s_n + i (...) = sum_j E[j, n] (wk @ F)[j, n],

and c_n likewise, from (P + 16)(N + 1) complex exps in place of
16 P (N + 1) (a head node is its own row, with F = 1). This stays a
time-side computation, independent of the frequency route.

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
formula as on the kernel route. On the grid both integrals sum wv, the
quadrature weight times mt, against the kernels f(x) = sin^2 x / (x - c)
(F) and sin^2 x / (x - c)^2 (D) at the 2(N+1) centres c = +-pi k. Both
are entire, since sin^2 has a double zero at every centre, and since
sin^2(x -+ pi k) = sin^2 x one sine per point serves every k. Within 1 of
a centre, d = x - c, they are evaluated stably as sin(d) sinc(d/pi) and
sinc^2(d/pi).

Direct sums: F and D are sums over the sorted nodes themselves. One
reciprocal block holds 1/(x - c) for the 2(N + 1) centres by the nodes,
with the nodes within 1 of each centre zeroed by slicing and added in the
stable forms; F is its product with sin^2 x times the weights, and D that
of its square. The weights are an (n, m) matrix, one column per source, so
a batch of m sources builds the block once and takes its sums in one
product. The pnt grid (N = 72) makes one 146 x 6,016 block, and the
battery's six sources share their grid at N = 64, at every eps they run
at: 1,920 nodes and one 130 x 1,920 block. Each fits in _BLOCK_ENTRIES;
a larger grid is summed in chunks of nodes of that size.

The route reads a source through three fields alone: fn, jumps_upto and
tail (GrowthFunction). Each source states g past some u_t as a short
exponential sum (tail; a table-backed source states g(u_cap), the value
its fn holds from u_cap on), and its jumps matter only below u_t. The
grid lays panels fine_w = min(0.1, pi/L) L/4 wide (_fine_width: at most
pi/4; pi/5 at L = 8 pi) on the resolved range
x <= a_end = (L/2) min(ln 2e5, the batch's largest u_t), for every source
whether or not it declares jumps. Past a_end it keeps them in the Fejer
main lobes |x - pi n| < 3 pi only while some source is still sampled
there, that is while x_smooth = (L/2) max u_t > a_end: a source that
jumps past 2e5, such as the integers or weighted primes on a 1e8 table,
whose staircase the panels sample (below). Where every source is its
stated tail past a_end, mt is there a sum of terms e^{-gamma x}, some over
x + p, and the kernels are entire, so the lobes need no panel of their
own. From the last cut the panels grow by 1.15 to the width cap (below),
each with 16 Gauss-Legendre nodes. The grid ends at
X = max((L/2) u_t, pi (N + 3)) at every eps, past the last lobe and past
every u_t, and the part past X is added in closed form from the stated
tails (_tail_integrals): moving X out by 300 changes no entry of any
catalog source, or of weighted primes on a 1e5 table, by more than 1e-15
(eps = 0, 0.001, 0.05; L = 2 pi, 8 pi, 8 pi + 0.37). At eps > 0 the
damping e^{-2 eps x/L} is 0.0 in floating point past
x = 746 (L/2) / eps (it underflows below e^{-745.13}): where that lies
before X, the lobe and cap runs stop there, and one panel, each of
whose nodes weighs 0, closes the grid to X. The route takes no
tolerance: the grid depends on L, N, eps and the tails alone
(_grid_edges), and on eps only through the cap and that stop. At
every eps the order-n entries read g near u = 2 pi n / L (the Fejer lobe
at x = pi n), so an order past N_max = L u_cap / (2 pi) would read the
constant a table-backed source holds past u_cap; such orders are refused
(_check_resolvable). A batch whose a_end lies past (L/2) u_cap asks the
table for jumps it does not hold (a 1e5 table with the integers), which
the table refuses (TableExhaustedError). A grid of more than
_MAX_GRID_NODES nodes (small L: the fine lobe panels of a sampled batch,
and at eps = 0 a cap of 8/r, grow in number like 1/L, while at eps > 0
the runs end at the underflow stop, at most about 93 r L / (2 eps)
cap-wide panels on; large L: X grows like L u_t), counted from its panel
widths (_grid_edges), is a ResourceError raised before any array is
built.

The fine panels resolve the damping e^{-kappa x}, kappa = 2 eps/L, while
kappa fine_w <= 16 (_DAMPING_RESOLVED), that is eps min(0.1, pi/L) <= 32
(eps <= 320 for L <= 10 pi, 1,280 at L = 40 pi); a larger eps is a
DomainError. At that limit the identity, slow_approach and the integers
agree with the kernel route to 3.4e-15 relative (L = 2 pi, 8 pi, 40 pi;
N = 8, 32); at twice it they differ by 1.1e-11.

The width cap rests on a Bernstein-ellipse bound, as the fine panels'
accuracy does (below), here on the analytic weight. Past x_t = (L/2) u_t a
stated term is c e^{-gamma x}, gamma = 2 (lam + eps) / L, over x + p for a
term with b; r = max |gamma| over the batch's terms is the fastest decay
or oscillation on the grid. Map a panel of width h onto [-1, 1] and take
the Bernstein ellipse E_rho, semi-axes (rho +- 1/rho)/2 there: on it the
real part of x strays at most (h/4)(rho + 1/rho) from the panel's middle
and the imaginary part at most (h/4)(rho - 1/rho), so e^{-gamma x} grows
by at most e^{r h (rho + 1/rho)/4} over its size at the middle and the
trigonometric factors by at most e^{h (rho - 1/rho)/2}. The 16-point rule
errs by at most (64/15) M rho^{-32} / (rho^2 - 1), M the maximum on E_rho
(Trefethen, Approximation Theory and Approximation Practice, Thm 19.3).
With h <= 2 and r h <= 8, ln M <= 3 rho + 1/rho, and rho = 10 leaves
5e-21 of the weight's size at the middle. So the panels past the fine
ones grow to cap = max(fine_w, min(2, 8/r)), from min(2 fine_w, cap): the
floor fine_w is the width whose damping eps <= eps_max covers (above). A
term's pole x = -p = -b L/2 lies left of 0, at least 10 widths of the
first panel away for the catalog's b = 1. lam = 0 for the integers and
weighted primes, so their cap is 2 at every eps <= 2 L; at L = 8 pi the
battery's largest rate, single_jump's lam = 1, gives r = 0.08 at
eps = 0. Without the cap log_oscillation at L = 0.03 (e^{i u},
r = 66.7) gives a diagonal of 1.001371 against 1.004775 on 0.12-wide
panels. Against panels half as wide every catalog source, and weighted
primes on a 1e5 table, agree to 1.7e-15 max(1, max |W|) at eps = 0,
0.05, 1, 0.1 eps_max and eps_max (L = 2 pi, 8 pi, 40 pi).

On the resolved range the nodes of a source that declares jumps do not
sample mt: S jumps inside the panels. Between two jumps S(e^u) = a + b u,
and the source declares the change (da, db) of a and b at each jump
(GrowthFunction.jumps_upto), which a cumulative sum turns into a and b;
S is never read there. mt times the kernel is (a + b u) phi with the
smooth factor phi = e^{-(1+eps) u} sin^2 x / (x -+ pi k)^j (j = 1 for F,
2 for D), and
product integration (K. E. Atkinson, The Numerical Solution of Integral
Equations of the Second Kind, 1997, ch. 4) replaces phi and u phi by their
interpolants p at the panel's 16 nodes and integrates the step data a and
b against them exactly (_step_values). It errs by int a (phi - p[phi]) +
int b (u phi - p[u phi]) per panel. sin z / (z - pi k) is entire and
|sin w / w| <= cosh(Im w), so on |Im z| <= s both trigonometric factors
stay below cosh^2 s. Map a panel of width h onto [-1, 1] and take the
Bernstein ellipse E_rho with rho - 1/rho = 4 s/h, whose semi-minor axis is
s in x. Chebyshev truncation errs by at most 2 M rho^{-15} / (rho - 1) at
degree 15 (Trefethen, Approximation Theory and Approximation Practice,
Thm 8.2), and interpolation at the 16 Gauss-Legendre nodes by at most
1 + Lambda times that, Lambda = 6.911 their Lebesgue constant. So a panel
errs by at most C h (max |a| Ge + max |b| Gu), Ge and Gu the maxima of
|e^{-(1+eps) u}| and |u e^{-(1+eps) u}| on the ellipse, and
C = 2 (1 + Lambda) cosh^2(s) rho^{-15} / (rho - 1). The ellipse reaches
less than s past the panel ends, so Ge <= e^{(1+eps)(2 s/L - u_lo)}, u_lo
at the panel's left end: on it the damping grows by at most
e^{2 (1+eps) s/L}. Take s = min(3, L / (2 (1 + eps))), so that it grows by
less than e. At s = 3, rho = 19.15 at h = pi/5 and 15.34 at h = pi/4, and
C = 5.2e-18 and 1.8e-16. On the pnt grid (b = pi(x) <= 1.26 x / ln x,
a = 0) the 245 resolved panels add up to 1.3e-15 per integral. The 3
in s binds until eps > L/6 - 1 (3.2 at L = 8 pi). Near eps_max, where
kappa h = 16, it leaves s near h/16 and the bound says nothing; even the
best ellipse there (rho = 4.3, on which the damping grows by e^10.2)
leaves C e^10.2 near 6e-5 at h = pi/5. There the entries rest on the
measurements: against the kernel route (above) and against panels half
as wide. Against 16 nodes on every panel between two jumps (the integers
at L = 2 pi, N = 16, jumps resolved to 2e4) the D sums agree to 2.7e-15
when that reference is summed exactly (math.fsum); its own sums over its
326,624 nodes round by up to 1.6e-14.

Past a_end the jumps are not resolved: where a source still jumps there
(x_smooth > a_end), the 16-node panels sample its staircase, fine ones
to the lobes' end and growing ones past it. On the pnt grid the primes
between 2e5 and 1e8 set a
floor. Halving every panel past a_end = 153.4 moves the eps = 0
diagonals by 2.1e-5, and quartering them by a further 9.0e-6, so those
diagonals hold to about 2e-5, not to the 1e-14 of the rule above. A step
source's jumps past 2e5 are sampled too: jumps at 1e6 and 1e7 miss the
kernel route by 2.1e-3 of max |W| (L = 8 pi, N = 8, eps = 0.05).

The kernel route's panels grade toward the singular points of G alone.
K(x) = (1/pi) Re G(1 + eps + i x) is singular only where G is: a stated
tail term c e^{-lam u} gives G a singularity at s = 1 - lam, a distance
Re lam + eps from the line, at x = -Im lam, and elsewhere K is smooth on
a scale of about 1/2 (for the zeta family, G continues across sigma = 1
off s = 1, and the nearest zero of zeta lies 0.55 from sigma = 1.05;
J. Korevaar, Tauberian Theory, ch. III). So _kernel_plan builds its
panels from eps, L, N and the batch's stated tails alone. The body width
is w_b = min(0.5, L/N), one period of the fastest phase at most. Each
term with Re lam + eps < w_b puts a head at x = +-|Im lam| (x = 0 for
every A = 1 source, the integers and weighted primes included, and
x = 1 for log_oscillation): on each side, panels eps, 2 eps, 4 eps, ...
wide while under w_b. A source that states no tail gets the head at
x = 0 that the pole of a ratio limit needs. The heads are clipped to
[0, L] and merged where they overlap, and each gap between them is one
uniform body grid of ceil(gap / w_b) panels. A panel at distance d from
a singular point is at most about d + eps wide, so the largest
Bernstein ellipse of each panel that the singularity leaves free has
rho of about 3.7 or more, and the 16-point rule's factor rho^{-32}
(Trefethen, Approximation Theory and Approximation Practice, Thm 19.3)
is near 1e-18 or below; the maximum of |K| on that ellipse has no
closed bound (below). On pnt (L = 8 pi, N = 72, eps = 0.05) that is 3
head panels and 71 body panels, 1,184 nodes; at eps = 0.001 it is 1,280
nodes.

The whole mesh reaches special as one batch, so every node shares each
Euler-Maclaurin order's N, and that N is the one the body's largest |t|
needs. The head alone would choose its own: N = 10 for zeta at pnt's
head, against 46 for the batch. The transforms are accurate to their
abs_tol, 1e-10, and the extra terms the body's |t| brings are what make
the head's values good to rounding: summed at N = 10, zeta misses
30-digit mpmath by 8.2e-13 at the head nodes (7.3e-15 at N = 46), and
the integers' moments miss the 30-digit oracle below by 3.5e-13, 21
times its bound.

This accuracy is measured, not certified. The strip bound of the
earlier uniform panels (at most 2 eps wide, each Bernstein ellipse
inside |Im x| < eps, where sigma > 1 and |G| <= C / (sigma - 1)) does not
cover a body panel, whose ellipse crosses sigma = 1; there no closed
bound of |G| exists for prime zeta. The evidence: against panels eps/2
wide every entry agrees to 3.8e-15 (integers, the six battery sources
and weighted primes; eps = 0.05 and 0.01; L = 2 pi, N = 8 and L = 8 pi,
N = 72; tested to 1e-13); against the 30-digit oracle of
tests/oracle_w.py (L = 8 pi, eps = 0.05, N = 8) the closed-form battery
sources err by at most 2.0e-15 and the integers by 3.6e-15, against a
bound of 1.6e-14; and against the uniform 2 eps panels every matrix of
those sources agrees within 6.5e-15 max(1, max |W|) (L = 8 pi, N = 72
and 64, L = 2 pi, N = 8; eps = 0.05 and 0.01). The rounding of the sums
scales with int_0^L |K|, not with the entries: a kernel that cancels
over [0, L] gives entries far below it, which lose relative digits. For
source_single_jump(1, 108) at L = 8 pi, N = 8, eps = 0.05,
max |W| = 8.71e-6 and int |K| = 5.74e-3, and against 30-digit mpmath
the kernel route errs by 1.9e-18, 2.1e-13 of max |W| but 3.3e-16 of
int |K|; the frequency route errs by 2.6e-20.

Spectrum: K is even, so W commutes with the reflection t -> -t, which maps
e_n to e_{-n}: M[-m][-n] = M[m][n]. A truncation is held as its moments
o_k and d_k, k = 0..N (OperatorTruncation), and M splits into an even
block on e_0 and (e_k + e_{-k}) / sqrt 2 and an odd block on
(e_k - e_{-k}) / sqrt 2, k = 1..N (A. Cantoni and P. Butler, Linear
Algebra Appl. 13 (1976) 275-288), whose entries are M[j][k] +- M[j][-k].
Putting M[j][k] and M[j][-k] from the formula above over the common
denominator pi (k^2 - j^2), the even block, (N + 1)^2, is
E[j][k] = (-1)^{j+k} 2 (j o_j - k o_k) / (pi (k^2 - j^2)) and the odd
block, N^2, O[j][k] = (-1)^{j+k} 2 (k o_j - j o_k) / (pi (k^2 - j^2)) for
j != k, with E[j][j] = d_j - o_j / (pi j) and O[j][j] = d_j + o_j / (pi j)
for j >= 1, E[0][0] = d_0, and E's row and column 0 scaled by 1/sqrt 2;
spectrum takes the union of their eigenvalues and never builds M.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .arith import GrowthFunction, _csv_text, _fields_dict
from .errors import ContractError, DomainError, PrecisionError, ResourceError
from .special import OuterGrid, exp_e1

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

_GL16 = np.polynomial.legendre.leggauss(16)
_GL8_T, _GL8_W = 0.5 * (np.array(np.polynomial.legendre.leggauss(8)) + [[1.0], [0.0]])  # on [0, 1]
_STEP_RESOLVE_CAP = 200_000.0  # resolve jumps exactly up to this x
_MAX_ORDER = 256
_MAX_GRID_NODES = 4_000_000  # route grids past this are refused (ResourceError)
_DAMPING_RESOLVED = 16.0  # largest kappa fine_w whose e^{-kappa x} the fine panels resolve
_TAIL_RTOL = 1e-13  # relative gap a stated tail may leave to g (the catalog leaves 1.1e-16)
# entries of one reciprocal block over the nodes, whatever the batch width m: the
# battery's 130 x 1,920 block and pnt's 146 x 6,016 fit in one. Do not shrink it:
# at 300,000 the battery's block of 130 x 5,360 on its earlier grid came in three
# chunks, which glibc maps afresh on every op, and a warm battery op took about
# 1,200 minor faults and 2.2 ms of system time against 0 and 0.01 ms
# (resource.getrusage, 30 ops); pnt's block would come in three chunks at that
# size. The chunks also change the order, and so the rounding, of the sums.
_BLOCK_ENTRIES = 1_000_000


def _lagrange_integrals() -> np.ndarray:
    """The (17, 16) matrix Lam with Lambda_i(t) = int_{-1}^t l_i =
    sum_n Lam[n, i] T_n(t), l_i the Lagrange basis of the 16 Gauss-Legendre
    nodes x_i. The Legendre coefficients (m + 1/2) w_i P_m(x_i) of l_i,
    which the rule integrates exactly, are integrated and then interpolated
    at 17 Chebyshev points, so that each jump takes the two-term recurrence
    of the T_n."""
    leg, cheb = np.polynomial.legendre, np.polynomial.chebyshev
    coef = leg.legvander(_GL16[0], 15).T * (np.arange(16)[:, None] + 0.5) * _GL16[1]
    pts = cheb.chebpts1(17)
    return cheb.chebfit(pts, leg.legval(pts, leg.legint(coef, lbnd=-1)).T, 16)


_LAMBDA = _lagrange_integrals()


def _gl_nodes_on(lo: np.ndarray, hi: np.ndarray):
    """Node/weight arrays of the 16-point Gauss-Legendre rule on each panel
    [lo[i], hi[i]], each node at its panel's exact left edge plus an offset,
    so that the panels tile the grid exactly."""
    nodes, weights = _GL16
    half = 0.5 * (hi - lo)
    xs = (lo[:, None] + half[:, None] * (1.0 + nodes)[None, :]).ravel()
    ws = (half[:, None] * weights[None, :]).ravel()
    return xs, ws


@dataclass(frozen=True)
class IntervalSpec:
    """The symmetric interval I = [-L/2, L/2]."""

    length: float

    def __post_init__(self):
        if not (self.length > 0.0) or not math.isfinite(self.length):
            raise ContractError("interval length must be positive and finite")


@dataclass
class OperatorTruncation:
    """A real symmetric truncation of W (or of Psi = W - A Id), held as the
    moments odd and diag, k = 0..N, that both routes build it from.

    entries[i][j] is the element for basis indices m = i - N, n = j - N
    (_matrix_from_moments); rows and columns both run m, n = -N..N. A is
    the total multiple of the identity taken off diag (split_identity).
    """

    interval: IntervalSpec
    epsilon: float
    odd: np.ndarray
    diag: np.ndarray
    source: str
    route: str
    A: float = 0.0

    def __post_init__(self):
        o, d = self.odd, self.diag
        if o.ndim != 1 or o.shape != d.shape or not d.size:
            raise ContractError(f"moments odd and diag must be 1-d, of one length N + 1 >= 1; got {o.shape}, {d.shape}")
        if not (np.all(np.isfinite(o)) and np.all(np.isfinite(d))):
            raise ContractError(f"the moments of '{self.source}' are not all finite")

    @property
    def order(self) -> int:
        return self.diag.size - 1

    @property
    def entries(self) -> np.ndarray:
        return _matrix_from_moments(self.odd, self.diag)

    def diagonal(self) -> np.ndarray:
        """M[n][n] = diag[|n|], n = -N..N."""
        return self.diag[np.abs(np.arange(-self.order, self.order + 1))]

    def csv_text(self) -> str:
        meta = {"L": self.interval.length, "eps": self.epsilon, "N": self.order,
                "source": self.source, "route": self.route, "A": self.A}
        return _csv_text("matrix", meta, self.entries, head=("# rows m = -N..N, cols n = -N..N",))


# ---------------------------------------------------------------------------
# kernel route
# ---------------------------------------------------------------------------


def kernel(S: GrowthFunction, eps: float, x):
    """K_eps(x) = (1/pi) Re G(1 + eps + i x), the convolution kernel.

    Needs the source's closed-form transform (every catalog source declares
    one) and a finite eps >= 1e-3: the kernel route never takes the
    eps -> 0 limit pointwise. x may be an OuterGrid, which reaches the
    transform as the grid of blocks (1 + eps + i a, i b), and gives a flat
    result."""
    _check_eps(eps, "kernel")
    if S.laplace is None:
        raise ContractError(f"source '{S.label}' declares no closed-form transform for the kernel")
    if isinstance(x, OuterGrid):
        s = OuterGrid((1.0 + eps + 1j * a, 1j * b) for a, b in x.blocks)
    else:
        s = 1.0 + eps + 1j * np.asarray(x, dtype=float)
    out = np.real(S.laplace(s)) / math.pi
    return float(out) if np.ndim(out) == 0 else out


# The three route entries take a batch yet keep their singular names:
# perfbench/workloads.py wraps them by name (ROADMAP item 15 may rename them).
def assemble_kernel_route(
    sources: Sequence[GrowthFunction],
    I: IntervalSpec,
    eps: float,
    N: int,
) -> list:
    """Matrix truncations from the 1-D kernel moments s_n, c_n (module
    docstring), one per source, on one grid and one set of phases.

    The panels come from _kernel_plan: graded heads at the singular points
    of the batch's G near the line, a uniform body of panels at most
    min(0.5, L/N) wide past them, 16 Gauss-Legendre nodes each.
    _kernel_grid counts them and refuses more than _MAX_GRID_NODES nodes
    (ResourceError) before it builds any. The plan depends on eps, L, N
    and the stated tails alone, so the nodes and the phase matrices are
    built once, every node reaches the transform in one OuterGrid (one
    Euler-Maclaurin N per order over head and body alike), and every
    source's kernel is contracted against them. The accuracy is measured,
    not certified (module docstring)."""
    _check_eps(eps, "kernel")
    _check_order(N)
    L = I.length
    x, w = _kernel_grid(L, N, eps, [S.tail for S in sources])
    alpha_n = (2.0 * math.pi / L) * np.arange(N + 1)
    E = np.exp(1j * np.multiply.outer(np.concatenate([a for a, _ in x.blocks]), alpha_n))
    F = [np.exp(1j * np.multiply.outer(b, alpha_n)) for _, b in x.blocks]

    def phase_rows(v):
        # row j of block g: sum_i v[j, i] e^{i alpha n b_i}; times E and
        # summed over the rows, sum over the nodes of v e^{i alpha n x}
        return np.concatenate(
            [v[c0 : c0 + a.size * b.size].reshape(a.size, b.size) @ Fg for (a, b), c0, Fg in zip(x.blocks, x.offsets, F)]
        )

    taper = 1.0 - x.points / L
    s, c = np.empty((2, N + 1, len(sources)))
    for j, S in enumerate(sources):
        kv = np.asarray(kernel(S, eps, x))
        if not np.all(np.isfinite(kv)):
            x_bad = float(x.points[np.flatnonzero(~np.isfinite(kv))[0]])
            raise PrecisionError(f"kernel quadrature produced a non-finite value at x = {x_bad!r}")
        wk = kv * w
        s[:, j] = np.sum(E * phase_rows(wk), axis=0).imag
        c[:, j] = np.sum(E * phase_rows(2.0 * wk * taper), axis=0).real
    return _truncations(sources, I, eps, s, c, "kernel_quadrature")


def _truncations(sources: Sequence[GrowthFunction], I: IntervalSpec, eps: float,
                 odd: np.ndarray, diag: np.ndarray, route: str) -> list:
    """One OperatorTruncation per source from the moments odd and diag,
    (N + 1, m) arrays whose column j belongs to sources[j]."""
    return [OperatorTruncation(interval=I, epsilon=eps, odd=odd[:, j], diag=diag[:, j], source=S.label, route=route)
            for j, S in enumerate(sources)]


def _kernel_plan(L: float, N: int, eps: float, tails: Sequence):
    """(head, body, nodes): the kernel route's panels on [0, L] for a batch
    whose sources state these tails (None for a source that states none),
    counted before any node is built.

    The body width is w_b = min(0.5, L/N) (0.5 at N = 0). A tail term
    c e^{-lam u} makes G singular at s = 1 - lam, a distance Re lam + eps
    from the line s = 1 + eps + i x, at x = -Im lam; each term with
    Re lam + eps < w_b, and a source without a tail (for the pole at s = 1
    of a ratio limit), puts a head at x = +-|Im lam|: on each side, panels
    eps, 2 eps, 4 eps, ... wide while under w_b. The heads, clipped to
    [0, L] and merged where they overlap, take the union of their panel
    edges: head is the (lo, hi) edge arrays of those panels. Each gap
    between heads is one uniform body grid of ceil(gap / w_b) panels:
    body lists (lo, hi, P). nodes counts 16 per panel."""
    w_b = min(0.5, L / N) if N > 0 else 0.5
    widths = []
    while eps * 2.0 ** len(widths) < w_b:
        widths.append(eps * 2.0 ** len(widths))
    steps = np.cumsum([0.0] + widths)  # edge offsets from a singular point
    centres = set()
    for tail in tails:
        terms = ((1.0, 0.0),) if tail is None else tail[1]
        for lam in (complex(t[1]) for t in terms):
            if lam.real + eps < w_b:
                centres |= {abs(lam.imag), -abs(lam.imag)}
    spans = []  # merged heads, clipped to [0, L]
    for c in sorted(centres):
        lo, hi = max(c - steps[-1], 0.0), min(c + steps[-1], L)
        if lo >= hi:
            continue
        if spans and lo <= spans[-1][1]:
            spans[-1][1] = max(spans[-1][1], hi)
        else:
            spans.append([lo, hi])
    cuts = np.concatenate([c + sign * steps for c in centres for sign in (-1.0, 1.0)] or [np.empty(0)])
    edges = []
    for lo, hi in spans:
        # where two heads' edges (nearly) meet, one serves: an edge within
        # eps/4 of the one before it is dropped, the last moved onto hi
        e = np.unique(np.concatenate([[lo, hi], cuts[(cuts > lo) & (cuts < hi)]]))
        e = e[np.concatenate([[True], np.diff(e) > eps / 4.0])]
        e[-1] = hi
        edges.append(e)
    head = (np.concatenate([e[:-1] for e in edges] or [np.empty(0)]),
            np.concatenate([e[1:] for e in edges] or [np.empty(0)]))
    ends = [0.0] + [v for span in spans for v in span] + [L]
    body = [(lo, hi, int(math.ceil(min((hi - lo) / w_b, 1e300))))
            for lo, hi in zip(ends[::2], ends[1::2]) if hi > lo]
    return head, body, 16.0 * (head[0].size + sum(P for *_, P in body))


def _kernel_grid(L: float, N: int, eps: float, tails: Sequence):
    """The nodes of the _kernel_plan of these arguments as one OuterGrid,
    the head's nodes as one plain block and each body gap as a block of
    panel midpoints plus one scaled Gauss-Legendre rule, and the flat
    quadrature weights. A plan of more than _MAX_GRID_NODES nodes is a
    ResourceError here, raised from its count before any node is built."""
    head, body, nodes = _kernel_plan(L, N, eps, tails)
    _check_nodes(nodes, f"kernel-route grid at L = {L:g}, eps = {eps:g}")
    xi, wi = _GL16
    hx, hw = _gl_nodes_on(*head)
    blocks, weights = [(hx, [0.0])], [hw]
    for lo, hi, P in body:
        h = (hi - lo) / (2 * P)  # panel half-width
        blocks.append((lo + (2 * np.arange(P) + 1) * h, h * xi))
        weights.append(np.tile(h * wi, P))
    return OuterGrid(blocks), np.concatenate(weights)


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


def _cutoff(tails: Sequence[tuple], L: float, N: int) -> float:
    """The grid end X of a batch with these tails (_tail_of): past the last
    lobe, pi (N + 3), and past every x_t = (L/2) u_t."""
    return max([math.pi * (N + 3)] + [(L / 2.0) * u_t for u_t, _ in tails])


def _tail_of(S: GrowthFunction) -> tuple:
    """S.tail, checked: a ContractError names a source without one, with
    u_t < 0, a Re lam < 0 or a b <= 0, or whose stated tail leaves S.fn by
    more than _TAIL_RTOL |g| at u_t, u_t + 1 or u_t + 10. A non-finite g
    is the grid's to refuse."""
    if S.tail is None:
        raise ContractError(f"source '{S.label}' states no tail of g, which the frequency route needs")
    u_t, terms = S.tail
    if not u_t >= 0.0 or any(complex(t[1]).real < 0 or not min(t[2:], default=1) > 0 for t in terms):
        raise ContractError(f"the tail of source '{S.label}' needs u_t >= 0, Re lam >= 0 and b > 0")
    u = u_t + np.array([0.0, 1.0, 10.0])
    g = np.asarray(S.fn(u), dtype=float)
    stated = np.real(sum(c * np.exp(-lam * u) / (u + b[0] if b else 1.0) for c, lam, *b in terms))
    if np.any(np.abs(stated - g) > _TAIL_RTOL * np.abs(g)):
        raise ContractError(f"the tail of source '{S.label}' is not its g at u = {u}: {stated} against {g}")
    return S.tail


def _fine_width(L: float) -> float:
    """Width of the fine panels: min(0.1, pi/L) L/4, at most pi/4 (pi/5 at
    L = 8 pi)."""
    return min(0.1, math.pi / L) * (L / 4.0)


def _check_nodes(nodes: float, what: str) -> None:
    """ResourceError when a grid would hold more than _MAX_GRID_NODES nodes."""
    if not nodes <= _MAX_GRID_NODES:
        raise ResourceError(f"the {what} would hold {nodes:.3g} nodes, past the cap of {_MAX_GRID_NODES:,}")


def _grid_edges(L: float, N: int, eps: float, tails: Sequence[tuple]):
    """(edges, a_end): panel edges on [0, X], X the batch's _cutoff, and
    the end a_end = (L/2) min(ln 2e5, max u_t) of the resolved range: a
    function of L, N, eps and the tails (_tail_of) alone, so sources that
    agree on those share the grid. Fine panels, fine_w = _fine_width(L)
    wide at most, fill [0, a_end], and while a source is still sampled
    past a_end (max u_t > ln 2e5) also the gap from a_end to the lobes'
    end pi (N + 3). From the last cut n_geo panels grow by 1.15 from
    base_w = min(2 fine_w, cap) past the width cap
    cap = max(fine_w, min(2, 8/r)), and cap-wide ones run to X;
    r = max |lam + eps| / (L/2) over the tail terms is the fastest decay
    or oscillation of any e^{-gamma x} on the grid (module docstring). At
    eps > 0 the lobe and cap runs stop at
    stop = min(X, max(a_end, 746 (L/2) / eps)) and one panel closes the
    grid from stop to X: past stop the damping e^{-eps u} is 0.0 in
    floating point (it underflows below e^{-745.13}), so every node there
    weighs 0. The nodes, 16 per panel, are counted from these widths,
    exact on the fine panels and a few panels over past them, and more than
    _MAX_GRID_NODES is a ResourceError raised before any edge is laid."""
    half = L / 2.0
    X = _cutoff(tails, L, N)
    # a source's jumps matter only below the u_t from which it states g in
    # closed form, so the resolved range ends at (L/2) min(ln 2e5, max u_t) <= X
    u_top, u_res = max(u_t for u_t, _ in tails), math.log(_STEP_RESOLVE_CAP)
    a_end = half * min(u_res, u_top)
    fine_w = _fine_width(L)
    r = max((abs(complex(t[1]) + eps) for _, terms in tails for t in terms), default=0.0) / half
    cap = 2.0 if r <= 4.0 else max(fine_w, 8.0 / r)
    base_w = min(2.0 * fine_w, cap)
    stop = min(X, max(a_end, 746.0 * half / eps)) if eps > 0.0 else X
    cuts = [0.0]
    if a_end > 0.0:
        cuts.append(a_end)
    lobe_end = min(math.pi * (N + 3), stop)
    if u_top > u_res and cuts[-1] < lobe_end:
        cuts.append(lobe_end)
    panels = [max(1.0, np.ceil((b - a) / fine_w)) for a, b in zip(cuts, cuts[1:])]
    n_geo = int(math.log(cap / base_w) / math.log(1.15)) + 3
    pos = cuts[-1]
    _check_nodes(16.0 * (sum(panels) + n_geo + (stop - pos) / cap + 2.0 + (stop < X)),
                 f"frequency-route grid at L = {L:g}, N = {N} to X = {X:.4g}")
    edges = [np.zeros(1)] + [np.linspace(a, b, int(k) + 1)[1:] for a, b, k in zip(cuts, cuts[1:], panels)]
    # geometric growth out to stop: widths base_w 1.15^j capped at cap (the
    # n_geo-th is past the cap), ends the running sums from cuts[-1] below
    # stop, then stop itself. Both accumulates run in order, so the ends are
    # bit for bit those of the loop pos = min(pos + w, stop), w = min(1.15 w, cap)
    if pos < stop:
        w = np.full(n_geo + int((stop - pos) / cap) + 1, cap)
        w[:n_geo] = np.minimum(np.multiply.accumulate([base_w] + [1.15] * (n_geo - 1)), cap)
        ends = np.add.accumulate(np.concatenate([[pos], w]))[1:]
        edges += [ends[ends < stop], [stop]]
    if stop < X:
        edges.append([X])
    return np.concatenate(edges), a_end


def _step_values(S: GrowthFunction, L: float, eps: float, edges: np.ndarray, xs: np.ndarray):
    """The weight times mt at the nodes xs, 16 on each panel of the
    jump-resolved range [0, edges[-1]], by product integration (module
    docstring).

    S(e^u) = a + b u between the jumps S declares (GrowthFunction), which
    change a and b by da_j and db_j. Node i of a panel of half-width h takes
    e^{-(1+eps) u_i} (A_i + u_i B_i), A_i = int a l_i dx over the panel, l_i
    its Lagrange basis. Summation by parts gives
    A_i = h (a_end w_i - sum_j da_j Lambda_i(t_j)): a_end the level at the
    panel's end, the sum of da over the jumps before it, and t_j in [-1, 1)
    the panel's jumps; a jump at x <= 1 sits at t = -1 of the first panel.
    B_i likewise from the db_j: one _anterpolate pass."""
    half = L / 2.0
    x, da, db = S.jumps_upto(math.exp(edges[-1] / half))
    xj = half * np.log(np.maximum(x, 1.0))
    # the jumps of panel k are xj[bounds[k]:bounds[k+1]]; a jump rounded
    # onto edges[-1] stays out
    bounds = np.searchsorted(xj, edges)
    J, hw = bounds[-1], 0.5 * np.diff(edges)
    p = np.repeat(np.arange(hw.size), np.diff(bounds))
    t = (xj[:J] - edges[p]) / hw[p] - 1.0
    w = np.stack([da[:J], db[:J]])
    level = np.zeros((2, J + 1))
    np.cumsum(w, axis=1, out=level[:, 1:])
    full = np.flatnonzero(bounds[1:] > bounds[:-1])
    Q = np.zeros((2, hw.size, _LAMBDA.shape[1]))
    Q[:, full] = _anterpolate(t, w, bounds[full])
    A, B = hw[:, None] * (level[:, bounds[1:], None] * _GL16[1] - Q)
    u = xs / half
    return np.exp(-(1.0 + eps) * u) * (A + u.reshape(A.shape) * B).ravel()


def _source_values(S: GrowthFunction, L: float, eps: float, xs: np.ndarray) -> np.ndarray:
    """mt(x) = g(2x/L) e^{-2 eps x/L} on the grid nodes, read from S.fn,
    which a table-backed source holds at g(u_cap) past u_cap.

    A non-finite g is a PrecisionError naming the source and u."""
    u = xs / (L / 2.0)
    g = np.asarray(S.fn(u), dtype=float)
    if not np.all(np.isfinite(g)):
        u_bad = float(np.min(u[~np.isfinite(g)]))
        raise PrecisionError(f"g of source '{S.label}' is not finite at u = {u_bad!r}")
    return g * np.exp(-eps * u) if eps > 0.0 else g


def _anterpolate(t: np.ndarray, w: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per-segment sums sum_i w[:, i] Lambda_j(t_i), (m, segments, 16), of
    the point masses w, (m, n) and C-contiguous, at t in [-1, 1]; segment s
    runs from starts[s] to the next start, and Lambda_j = sum_d
    _LAMBDA[d, j] T_d. The moments sum_i w_i T_d(t_i), one np.add.reduceat
    per degree, meet _LAMBDA in one product. w is one of the recurrence's
    three buffers: the caller's array is overwritten."""
    (degrees, k), m, segs = _LAMBDA.shape, w.shape[0], starts.size
    mu = np.empty((degrees, m, segs))
    prev, cur = w, t * w  # w T_0, w T_1
    mu[0], mu[1] = np.add.reduceat(prev, starts, axis=1), np.add.reduceat(cur, starts, axis=1)
    t2 = t + t
    spare = np.empty_like(cur)  # three buffers turn round the recurrence
    for d in range(2, degrees):  # w T_d = 2 t w T_{d-1} - w T_{d-2}
        np.multiply(t2, cur, out=spare)
        spare -= prev
        prev, cur, spare = cur, spare, prev
        mu[d] = np.add.reduceat(cur, starts, axis=1)
    # freed before the outputs are built, which then fill their room on the
    # heap, not the top that the reciprocal block of _half_line_integrals
    # goes to next: without this del, 2 of 7 pnt benchmark runs peaked at
    # 63.0 MB of RSS against 60.9-61.1 MB
    del t, w, t2, prev, cur, spare
    return (mu.reshape(degrees, m * segs).T @ _LAMBDA).reshape(m, segs, k)


def _half_line_integrals(xs: np.ndarray, wv: np.ndarray, k_max: int, want_F: bool):
    """F(k) (optional) and D(k) for k = 0..k_max over the weighted nodes.

    wv holds one column of weights per source, (n, m), and F and D one
    column per source, (k_max + 1, m): everything but the weights is built
    once per batch. The nodes must be sorted, as every route grid from
    _grid_edges and _gl_nodes_on is. The nodes within 1 of a centre, one
    contiguous range of the sorted nodes, are zeroed in the reciprocal
    block by slicing and added in the stable forms; the block is summed
    against the m columns in one product."""
    ks = math.pi * np.arange(k_max + 1)
    centres = np.concatenate([ks, -ks])
    sw = np.sin(xs)[:, None] ** 2 * wv
    lo = np.searchsorted(xs, centres - 1.0, side="right")
    hi = np.searchsorted(xs, centres + 1.0, side="left")
    F = np.zeros((centres.size, wv.shape[1]))
    D = np.zeros_like(F)
    block = max(1, _BLOCK_ENTRIES // centres.size)
    for start in range(0, xs.size, block):
        stop = min(start + block, xs.size)
        r = np.subtract(xs[None, start:stop], centres[:, None])
        with np.errstate(divide="ignore"):  # a node on pi k is zeroed below
            np.reciprocal(r, out=r)
        for c in np.flatnonzero((lo < stop) & (hi > start)):
            r[c, max(lo[c] - start, 0) : hi[c] - start] = 0.0
        if want_F:
            F += r @ sw[start:stop]
        r *= r
        D += r @ sw[start:stop]

    # each centre's nodes within 1: sin^2 d / d and sin^2 d / d^2 as
    # sin(d) sinc(d / pi) and sinc^2(d / pi), d = x - c
    lens = hi - lo
    near = np.repeat(np.arange(centres.size), lens)
    idx = np.arange(near.size) + np.repeat(lo - (np.cumsum(lens) - lens), lens)
    d = xs[idx] - centres[near]
    sn = np.sinc(d / math.pi)
    if want_F:
        np.add.at(F, near, (np.sin(d) * sn)[:, None] * wv[idx])
    np.add.at(D, near, (sn * sn)[:, None] * wv[idx])
    K = k_max + 1
    return (F[:K] - F[K:] if want_F else None), D[:K] + D[K:]


def _tail_integrals(X: float, N: int, terms: Sequence[tuple], m: int):
    """F and D, (N + 1, m), of the integrand on [X, inf): column j takes
    Re sum of coef e^{-gamma x} / (x + p) over its terms (j, coef, gamma, p)
    (no factor for p = None); Re gamma >= 0, p > 0 and X > pi N.

    With sin^2 x = 1/2 - (e^{2ix} + e^{-2ix})/4, J1 = int e^{-gamma x}
    sin^2 x / (x - d) dx sums e^{-beta X} exp_e1(beta (X - d)) over
    beta = gamma, gamma -+ 2i, and J2 and J3, over (x - d)^2 and (x - d)^3,
    follow by parts. A beta = 0 piece only enters differences of J1, where
    its ln is taken as -ln((X - d)/X). A pole term takes partial fractions
    over -p and the centre c, or where |c + p| < 1 the divided differences
    int_0^1 J2(d(t)) dt and int_0^1 2 t J3(d(t)) dt, d(t) = -p + t (c + p),
    by 8-node Gauss-Legendre. The terms that share (gamma, p) share these
    integrals, and one exp_e1 call serves every piece of every such key."""
    K = N + 1
    cs = np.concatenate([math.pi * np.arange(K), -math.pi * np.arange(K)])
    keys = list(dict.fromkeys((complex(g), p) for *_, g, p in terms))
    # each key reads J at the centres, then a pole's -p and its 8 nodes per near centre
    ds = [cs if p is None else np.r_[cs, -p, (np.outer(cs[np.abs(cs + p) < 1.0] + p, _GL8_T) - p).ravel()]
          for _, p in keys]
    d, starts = np.concatenate([cs[:0], *ds]), np.cumsum([0] + [x.size for x in ds])
    cen = np.arange(d.size) - np.repeat(starts[:-1], np.diff(starts)) < 2 * K
    gam = np.repeat([g for g, _ in keys], np.diff(starts))
    z = X - d
    # E[0..2] = exp_e1 at beta = gamma, gamma - 2i, gamma + 2i, one call on
    # the nonzero w
    w = np.stack([gam, gam - 2j, gam + 2j]) * z
    zero = w == 0.0
    E = np.empty_like(w)
    E[~zero] = exp_e1(w[~zero])
    E[zero] = np.broadcast_to(-np.log1p(-d / X), w.shape)[zero]
    # sin and e^{2ix} at x = X, read through z at a centre, where
    # sin^2 (z -+ pi k) = sin^2 z
    x0 = np.where(cen, z, X)
    ph, s2, sn2, eX = np.exp(2j * x0), np.sin(x0) ** 2, np.sin(2.0 * x0), np.exp(-gam * X)
    Qm, Qp = eX * ph * E[1], eX * ph.conj() * E[2]
    J1 = 0.5 * eX * E[0] - 0.25 * (Qm + Qp)
    S1 = (Qm - Qp) * -0.5j  # int e^{-gamma x} sin 2x / (x - d)
    J2 = eX * s2 / z + S1 - gam * J1
    J3 = 0.5 * (eX * s2 / z**2 + eX * sn2 / z + (Qm + Qp) - gam * S1 - gam * J2)

    odd_even = {}  # per key, the k = 0..N differences and sums of J over +-pi k
    for (g, p), i in zip(keys, starts + 2 * K):
        P1, P2 = J1[i - 2 * K : i], J2[i - 2 * K : i]
        if p is not None:
            q = cs + p
            near = np.abs(q) < 1.0
            jp, gl = J1[i], slice(i + 1, i + 1 + 8 * near.sum())
            with np.errstate(divide="ignore", invalid="ignore"):
                P1, P2 = (P1 - jp) / q, (jp - P1) / q**2 + P2 / q
            P1[near] = J2[gl].reshape(-1, 8) @ _GL8_W
            P2[near] = J3[gl].reshape(-1, 8) @ (2.0 * _GL8_T * _GL8_W)
        odd_even[g, p] = P1[:K] - P1[K:], P2[:K] + P2[K:]
    F, D = np.zeros((K, m)), np.zeros((K, m))
    for j, coef, g, p in terms:
        P1, P2 = odd_even[complex(g), p]
        F[:, j] += (coef * P1).real
        D[:, j] += (coef * P2).real
    return F, D


def _check_eps(eps: float, route: str) -> None:
    """DomainError unless eps is finite and >= 0, and on the kernel route,
    which never takes the eps -> 0 limit pointwise, >= 1e-3."""
    floor = 1e-3 if route == "kernel" else 0.0
    if not (math.isfinite(eps) and eps >= floor):
        raise DomainError(f"the {route} route requires a finite eps >= {floor:g}; got eps = {eps!r}")


def _check_A(A: float) -> None:
    if not math.isfinite(A):
        raise ContractError("A must be finite")


def _check_order(N: int) -> None:
    """ContractError unless N is an integer (numpy integers included) in
    [0, _MAX_ORDER]."""
    try:
        operator.index(N)
    except TypeError:
        raise ContractError(f"order N must be an integer, got {N!r}") from None
    if not (0 <= N <= _MAX_ORDER):
        raise ContractError(f"order N must lie in [0, {_MAX_ORDER}]")


def _check_resolvable(S: GrowthFunction, L: float, N: int) -> None:
    """Past u_cap a table-backed source holds g at g(u_cap): a DomainError
    when an order above N_max = L u_cap / (2 pi) would read that constant,
    at any eps."""
    n_max = L * S.u_cap / (2.0 * math.pi)
    if N > n_max:
        raise DomainError(
            f"order N = {N} reads g past u_cap = {S.u_cap:g} of source '{S.label}'; "
            f"at L = {L:g} the largest resolvable order is N_max = {n_max:.4g}"
        )


def _windowed_integrals(sources: Sequence[GrowthFunction], L: float, eps: float, N: int, want_F: bool):
    """F(k) (when want_F) and D(k), k = 0..N, of mt, one column per source:
    (N + 1, m) arrays for m sources.

    Every precondition of the frequency route is checked here: a finite
    eps >= 0 whose damping the fine panels resolve (DomainError; module
    docstring), N in [0, _MAX_ORDER], a tail for every source
    (ContractError), N_max (_check_resolvable), and, in _grid_edges, a
    grid of at most _MAX_GRID_NODES nodes (ResourceError). The grid, laid
    from L, N, eps and the tails, runs to the batch's _cutoff X, the same
    at every eps, where _tail_integrals takes over. On the resolved range
    [0, a_end] a source that declares jumps takes product-integration
    weights (_step_values); mt is read at the other nodes."""
    _check_eps(eps, "frequency")
    _check_order(N)
    if not sources:
        return np.zeros((N + 1, 0)), np.zeros((N + 1, 0))
    tails = [_tail_of(S) for S in sources]
    half = L / 2.0
    for S in sources:
        _check_resolvable(S, L, N)
    eps_max = _DAMPING_RESOLVED * L / (2.0 * _fine_width(L))  # kappa = 2 eps / L
    if eps > eps_max:
        raise DomainError(f"the frequency route resolves the damping at L = {L:g} only up to eps = {eps_max:.6g}; got {eps!r}")
    edges, a_end = _grid_edges(L, N, eps, tails)
    xs, ws = _gl_nodes_on(edges[:-1], edges[1:])
    n_res = int(np.searchsorted(edges, a_end))  # resolved panels
    wv = np.empty((xs.size, len(sources)))
    for j, S in enumerate(sources):
        m = _GL16[0].size * n_res if S.jumps_upto is not None else 0  # nodes on resolved jumps
        wv[m:, j] = ws[m:] * _source_values(S, L, eps, xs[m:])
        if m:
            wv[:m, j] = _step_values(S, L, eps, edges[: n_res + 1], xs[:m])
    F, D = _half_line_integrals(xs, wv, N, want_F)
    # past X, mt = Re sum c (L/2)^[b] e^{-gamma x} / (x + b L/2)^[b], gamma = 2 (lam + eps) / L
    rows = [
        (j, c * half if b else c, complex(lam + eps) / half, b[0] * half if b else None)
        for j, (_, tail) in enumerate(tails)
        for c, lam, *b in tail
    ]
    F_t, D_t = _tail_integrals(edges[-1], N, rows, len(sources))
    if want_F:
        F += F_t
    return F, D + D_t


def assemble_frequency_route(
    sources: Sequence[GrowthFunction],
    I: IntervalSpec,
    eps: float,
    N: int,
) -> list:
    """Matrix truncations from the frequency-side integrals F(k), D(n), one
    per source, on one shared grid.

    eps = 0 is allowed here (bounded g keeps every entry absolutely
    convergent through the Fejer window). _windowed_integrals lays the grid
    to X and adds each source's exact tail past it, at every eps, and
    makes every check."""
    F, D = _windowed_integrals(sources, I.length, eps, N, want_F=True)
    return _truncations(sources, I, eps, -F / math.pi, D / math.pi, "frequency_formula")


def diagonal_sequence(
    sources: Sequence[GrowthFunction],
    I: IntervalSpec,
    eps: float,
    n_max: int,
) -> np.ndarray:
    """<W e_n, e_n> for n = 0..n_max by the 1-D integral D/pi, for m sources
    on one shared grid: row j of the (m, n_max + 1) result is the diagonal
    of sources[j].

    Diagonals are even in n; a caller takes A Id off by subtracting A. The
    grid, its end X and its checks are those of assemble_frequency_route at
    order n_max (_windowed_integrals). No sources give a (0, n_max + 1)
    array."""
    _, D = _windowed_integrals(sources, I.length, eps, n_max, want_F=False)
    return (D / math.pi).T


# ---------------------------------------------------------------------------
# split, spectrum, weak-limit diagnostics
# ---------------------------------------------------------------------------


def split_identity(W: OperatorTruncation, A: float) -> OperatorTruncation:
    """Psi = W - A Id: A off every diagonal moment, and W.A + A, the total
    multiple of the identity removed, in the metadata."""
    _check_A(A)
    return replace(W, diag=W.diag - A, A=W.A + A)


def spectrum(W: OperatorTruncation) -> np.ndarray:
    """Eigenvalues of a truncation of order N, sorted by |lambda| descending.

    K is even, so M[-m][-n] = M[m][n], and the even vectors e_0 and
    v_k = (e_k + e_{-k}) / sqrt 2 and the odd vectors
    u_k = (e_k - e_{-k}) / sqrt 2, k = 1..N, split M into two blocks
    (A. Cantoni and P. Butler, Linear Algebra Appl. 13 (1976) 275-288):
    v_j^T M v_k = M[j][k] + M[j][-k] and u_j^T M u_k = M[j][k] - M[j][-k].
    With o = W.odd, M[j][k] = (-1)^{j+k} (o_j - o_k) / (pi (k - j)) and
    M[j][-k] = -(-1)^{j+k} (o_j + o_k) / (pi (j + k)); over pi (k^2 - j^2),

        E[j][k] = (-1)^{j+k} 2 (j o_j - k o_k) / (pi (k^2 - j^2)),
        O[j][k] = (-1)^{j+k} 2 (k o_j - j o_k) / (pi (k^2 - j^2)),   j != k.

    M[j][-j] = -o_j / (pi j) gives E[j][j] = d_j - o_j / (pi j) and
    O[j][j] = d_j + o_j / (pi j), d = W.diag; e_0^T M v_k = sqrt 2 M[0][k]
    is E[0][k] / sqrt 2 (o_0 drops out, as from M) and E[0][0] = d_0. The
    spectrum is the union of those of E, (N + 1)^2, and O, N^2 (j, k >= 1),
    from two half-size eigvalsh calls; M itself is never built."""
    o, d = W.odd, W.diag
    k = np.arange(d.size)
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    twice = 2.0 * np.multiply.outer(sign, sign)  # 2 (-1)^{j+k}
    with np.errstate(divide="ignore", invalid="ignore"):
        den = math.pi * (k[None, :] ** 2 - k[:, None] ** 2)  # pi (k^2 - j^2), row j
        even = twice * ((k * o)[:, None] - (k * o)[None, :]) / den
        odd = twice * (np.multiply.outer(o, k) - np.multiply.outer(k, o)) / den
    shift = np.r_[0.0, o[1:] / (math.pi * k[1:])]
    np.fill_diagonal(even, d - shift)
    np.fill_diagonal(odd, d + shift)
    even[0, 1:] = even[1:, 0] = even[0, 1:] / math.sqrt(2.0)
    eig = np.concatenate([np.linalg.eigvalsh(even), np.linalg.eigvalsh(odd[1:, 1:])])
    return eig[np.argsort(-np.abs(eig), kind="stable")]


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
    each Delta shrinks by >= 1.5x per step (the schedule, of at least three
    eps, is expected to halve eps each step). The verdict is a heuristic on
    a finite schedule, not a proof, and it errs both ways: on
    (0.4, 0.2, 0.1, 0.05) it says true for log_oscillation(0.5), whose g
    has no limit, at L = 16 pi, N = 8 (ratios 1.71, 1.84), and false for
    the integers at L = 8 pi, N = 64 (ratios 0.98, 1.00)."""
    sched = [float(e) for e in eps_schedule]
    if len(sched) < 3:  # two eps give one delta and no ratio to judge it by
        raise ContractError("eps schedule needs at least three values")
    if any(e <= 0 for e in sched) or any(b >= a for a, b in zip(sched, sched[1:])):
        raise ContractError("eps schedule must be strictly decreasing and positive")
    Ws = [assemble_frequency_route([S], I, e, N)[0] for e in sched]
    mats = [W.entries for W in Ws]  # each built once, though it enters two deltas
    deltas = np.array([float(np.max(np.abs(b - a))) for a, b in zip(mats, mats[1:])])
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
        final_diagonal=Ws[-1].diagonal(),
    )
