"""Truncated convolution operators: both assembly routes against direct quadrature."""

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from tauberlab import operators
from tauberlab import transform as tr
from tauberlab.arith import GrowthFunction
from tauberlab.errors import ContractError, DomainError, PrecisionError
from tauberlab.operators import (
    IntervalSpec,
    assemble_frequency_route,
    assemble_kernel_route,
    diagonal_sequence,
    kernel,
    spectrum,
    split_identity,
    weak_limit_diagnostic,
)
from tauberlab.special import EvalTolerance, psi_entire

L2PI = IntervalSpec(2.0 * math.pi)


# ---------------------------------------------------------------------------
# kernel evaluation
# ---------------------------------------------------------------------------


def test_identity_kernel_is_the_poisson_kernel(rng):
    """Transform 1/(s-1) makes K_eps(x) = eps / (pi (eps^2 + x^2)) exactly."""
    S = tr.source_identity()
    for eps in (0.05, 0.1, 0.5):
        xs = rng.uniform(-20, 20, size=50)
        expect = eps / (math.pi * (eps**2 + xs**2))
        got = kernel(S, eps, xs)
        assert np.max(np.abs(got - expect)) < 1e-12
    assert kernel(S, 0.1, 0.0) == pytest.approx(10.0 / math.pi, abs=1e-14)


def test_kernel_needs_positive_eps():
    with pytest.raises(DomainError):
        kernel(tr.source_identity(), 1e-4, 0.0)


def test_kernel_needs_a_closed_form_transform():
    bare = dataclasses.replace(tr.source_identity(), laplace=None)
    with pytest.raises(ContractError):
        kernel(bare, 0.1, 0.0)


# ---------------------------------------------------------------------------
# single-entry oracle: N = 0 reduces to a 1-d integral
# ---------------------------------------------------------------------------


def _m00_oracle(S, L, eps):
    """(1/L) * double integral over I^2 collapses to int (L-|x|)/L K(x) dx."""
    val, _ = quad(lambda x: 2.0 * (L - x) / L * kernel(S, eps, x), 0.0, L, limit=400)
    return val


def test_single_entry_against_direct_quadrature():
    for S in (tr.source_identity(), tr.source_integers()):
        for route in (assemble_kernel_route, assemble_frequency_route):
            W = route(S, L2PI, 0.1, 0)
            assert W.entries.shape == (1, 1)
            assert W.entries[0, 0] == pytest.approx(_m00_oracle(S, L2PI.length, 0.1), abs=5e-8)


def test_identity_center_entry_closed_form():
    """For the Poisson kernel the N=0 entry integrates in closed form."""
    L, eps = L2PI.length, 0.1
    expect = (2.0 / (math.pi * L)) * (L * math.atan(L / eps) - (eps / 2.0) * math.log(1.0 + (L / eps) ** 2))
    for route in (assemble_kernel_route, assemble_frequency_route):
        W = route(tr.source_identity(), L2PI, eps, 0)
        assert W.entries[0, 0] == pytest.approx(expect, abs=1e-10)


# ---------------------------------------------------------------------------
# route equivalence (the two assemblies must be the same operator)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "factory,eps,N",
    [
        (tr.source_identity, 0.05, 4),
        (tr.source_integers, 0.1, 8),
        (lambda: tr.source_sqrt_mix(1.0, 1.0), 0.05, 4),
    ],
)
def test_route_equivalence(factory, eps, N):
    S = factory()
    Wk = assemble_kernel_route(S, L2PI, eps, N)
    Wf = assemble_frequency_route(S, L2PI, eps, N)
    assert np.max(np.abs(Wk.entries - Wf.entries)) < 1e-5
    assert Wk.route == "kernel_quadrature" and Wf.route == "frequency_formula"


# ---------------------------------------------------------------------------
# kernel route: the 1-D moment collapse against the 2-D double integral
# ---------------------------------------------------------------------------


def _panels(L, eps, N):
    return math.ceil(L / min(eps, 0.1, L / (3 * N) if N > 0 else math.inf))


def _tensor_oracle(S, L, eps, N):
    """Brute-force tensor Gauss-Legendre quadrature of the double integral
    M[m][n] = (1/L) int_I int_I K(t - tau) e^{-i a m t} e^{i a n tau}, a = 2 pi/L,
    on the route's uniform panels. Kernel blocks per panel offset d >= 0;
    negative offsets follow from K being even."""
    P = _panels(L, eps, N)
    h = L / P
    x, w = np.polynomial.legendre.leggauss(16)
    xi, wi = 0.5 * h * (x + 1.0), 0.5 * h * w
    Kb = kernel(S, eps, np.arange(P)[:, None, None] * h + xi[None, :, None] - xi[None, None, :])
    p = np.arange(P)
    d = p[:, None] - p[None, :]
    K = np.where((d >= 0)[:, :, None, None], Kb[np.abs(d)], Kb[np.abs(d)].transpose(0, 1, 3, 2))
    K = K.transpose(0, 2, 1, 3).reshape(16 * P, 16 * P)
    t = (-L / 2 + p[:, None] * h + xi[None, :]).ravel()
    E = np.exp(2j * math.pi / L * np.outer(t, np.arange(-N, N + 1))) * np.tile(wi, P)[:, None]
    return (E.conj().T @ K @ E).real / L


@pytest.mark.parametrize("case", ["sqrt_mix", "integers", "weighted_primes"])
def test_kernel_route_matches_tensor_oracle(case, small_table):
    S, eps, N = {
        "sqrt_mix": (tr.source_sqrt_mix(1.0, 1.0), 0.05, 4),
        "integers": (tr.source_integers(), 0.1, 8),
        "weighted_primes": (tr.source_primes_weighted(small_table), 0.1, 8),
    }[case]
    W = assemble_kernel_route(S, L2PI, eps, N)
    assert np.max(np.abs(W.entries - _tensor_oracle(S, L2PI.length, eps, N))) <= 1e-12


def test_kernel_route_evaluates_the_kernel_once_per_node(monkeypatch):
    calls = []

    def counting_kernel(S, eps, x):
        calls.append(np.size(x))
        return kernel(S, eps, x)

    monkeypatch.setattr(operators, "kernel", counting_kernel)
    for L, eps, N in ((L2PI.length, 0.05, 4), (8 * math.pi, 0.05, 72), (L2PI.length, 0.1, 0)):
        calls.clear()
        assemble_kernel_route(tr.source_identity(), IntervalSpec(L), eps, N)
        assert calls == [16 * _panels(L, eps, N)]


def test_kernel_route_rejects_a_non_finite_kernel():
    S = GrowthFunction(
        label="nan_transform",
        fn=lambda x: np.asarray(x, dtype=float),
        growth_constant=1.0,
        laplace=lambda s: np.full(np.shape(s), np.nan, dtype=complex),
    )
    with pytest.raises(PrecisionError, match="x = "):
        assemble_kernel_route(S, L2PI, 0.1, 2)


def test_half_line_integrals_match_the_sinc_form():
    """Reference: every term through sinc, as sin(x -+ pi k) sinc((x -+ pi k)/pi).
    The first node set is unsorted and includes x = 0 and x = 3 pi, which sit
    exactly on pi k; the second is sorted, as the route grids are, and also
    has nodes on pi k -+ 1, the ends of the near ranges."""
    k_max = 6
    ks = math.pi * np.arange(k_max + 1)
    grid = np.linspace(1e-3, 40.0, 997)
    for xs in (
        np.concatenate([[0.0, 3.0 * math.pi], grid]),
        np.sort(np.concatenate([grid, ks, ks + 1.0, ks[1:] - 1.0])),
    ):
        wv = np.exp(-0.1 * xs) * 0.04
        dm, dp = xs[None, :] - ks[:, None], xs[None, :] + ks[:, None]
        sm, sp = np.sinc(dm / math.pi), np.sinc(dp / math.pi)
        F_ref = (np.sin(dm) * sm - np.sin(dp) * sp) @ wv
        D_ref = (sm * sm + sp * sp) @ wv
        F, D = operators._half_line_integrals(xs, wv, k_max, want_F=True)
        assert np.max(np.abs(F - F_ref)) < 1e-13
        assert np.max(np.abs(D - D_ref)) < 1e-13
        F0, D0 = operators._half_line_integrals(xs, wv, k_max, want_F=False)
        assert F0 is None and np.array_equal(D0, D)


def dense_half_line_integrals(xs, wv, k_max):
    """Reference: every node against every centre +-pi k, one reciprocal
    block per sign with the near ranges |x -+ pi k| < 1 zeroed and summed
    in the sinc form. Also returns sum |term| per k for F and D, the scale
    of the rounding in either sum."""
    order = np.argsort(xs, kind="stable")
    xs, wv = xs[order], wv[order]
    ks = math.pi * np.arange(k_max + 1)
    F, D, SF, SD = (np.zeros(k_max + 1) for _ in range(4))
    s2w = np.sin(xs) ** 2 * wv
    for sign in (1.0, -1.0):
        centres = sign * ks
        lo = np.searchsorted(xs, centres - 1.0, side="right")
        hi = np.searchsorted(xs, centres + 1.0, side="left")
        r = np.subtract(xs[None, :], centres[:, None])
        with np.errstate(divide="ignore"):
            np.reciprocal(r, out=r)
        for k in range(k_max + 1):
            r[k, lo[k] : hi[k]] = 0.0
        F += sign * (r @ s2w)
        SF += np.abs(r) @ np.abs(s2w)
        r *= r
        D += r @ s2w
        SD += r @ np.abs(s2w)
        for k in np.flatnonzero(hi > lo):
            dn = xs[lo[k] : hi[k]] - centres[k]
            sn = np.sinc(dn / math.pi)
            F[k] += sign * ((np.sin(dn) * sn) @ wv[lo[k] : hi[k]])
            SF[k] += np.abs(np.sin(dn) * sn) @ np.abs(wv[lo[k] : hi[k]])
            D[k] += (sn * sn) @ wv[lo[k] : hi[k]]
            SD[k] += (sn * sn) @ np.abs(wv[lo[k] : hi[k]])
    return F, D, SF, SD


def proxy_bound(xs, wv, k_max):
    """The interpolation bound of the operators module docstring, per k,
    for F and D: each far bin holding more than _PROXIES nodes adds
    4 M r^{-15} / (r - 1) times sum |s2w| over its nodes, with
    r = a + sqrt(a^2 - 1), a one less than the distance of the bin's centre
    from the centre c in half-widths, and M = 2/w (F) or 4/w^2 (D)."""
    w = operators._FAR_BIN
    bins, inv, counts = np.unique(np.floor(xs / w), return_inverse=True, return_counts=True)
    crowded = counts > operators._PROXIES
    mass = np.bincount(inv, np.abs(np.sin(xs) ** 2 * wv))[crowded]
    g = np.zeros(k_max + 1)
    for sign in (1.0, -1.0):
        c = sign * math.pi * np.arange(k_max + 1)
        near = np.abs(bins[crowded][None, :] - np.floor(c / w)[:, None]) <= operators._NEAR_BINS
        delta = np.abs((bins[crowded] + 0.5)[None, :] * w - c[:, None]) / (w / 2.0)
        a = np.where(near, 8.0, delta) - 1.0  # far bins have delta >= 7
        r = a + np.sqrt(a * a - 1.0)
        g += np.where(near, 0.0, 4.0 * r**-15 / (r - 1.0) * mass).sum(axis=1)
    return 2.0 / w * g, 4.0 / w**2 * g


def assert_proxy_sums_match_the_dense_sums(xs, wv, k_max):
    """Both outputs of _half_line_integrals within the interpolation bound
    plus 64 roundings of sum |term| (the two sums round differently), and
    within 1e-13; want_F = False gives the same D and no F."""
    F_ref, D_ref, SF, SD = dense_half_line_integrals(xs, wv, k_max)
    bF, bD = proxy_bound(xs, wv, k_max)
    u = 2.0**-53
    F, D = operators._half_line_integrals(xs, wv, k_max, want_F=True)
    assert np.all(np.abs(F - F_ref) <= bF + 64.0 * u * SF)
    assert np.all(np.abs(D - D_ref) <= bD + 64.0 * u * SD)
    assert np.max(np.abs(F - F_ref)) <= 1e-13 and np.max(np.abs(D - D_ref)) <= 1e-13
    F0, D0 = operators._half_line_integrals(xs, wv, k_max, want_F=False)
    assert F0 is None and np.array_equal(D0, D)


def _route_grids(monkeypatch, run):
    """The (xs, wv, k_max) of every _half_line_integrals call that run() makes."""
    grids = []
    original = operators._half_line_integrals

    def recording(xs, wv, k_max, want_F):
        grids.append((xs, wv, k_max))
        return original(xs, wv, k_max, want_F)

    monkeypatch.setattr(operators, "_half_line_integrals", recording)
    run()
    monkeypatch.setattr(operators, "_half_line_integrals", original)
    return grids


def test_proxy_sums_match_the_dense_sums_on_the_route_grids(big_table, monkeypatch):
    """The pnt diagonal grid (weighted primes on the 1e8 table, L = 8 pi,
    N = 72, eps = 0), the eps = 0 diagonal grid of every battery member at
    N = 64, and one eps = 0.05 frequency-route grid, against the dense
    reference."""
    from tauberlab import tauber

    L = tauber.DEFAULT_LENGTH
    pnt = tr.source_primes_weighted(big_table)

    def run():
        diagonal_sequence(pnt, IntervalSpec(L), 0.0, 1.0, tauber.PNT_ORDER)
        for S, *_ in tauber.battery_members():
            diagonal_sequence(S, IntervalSpec(L), 0.0, 1.0, tauber.DEFAULT_ORDER)
        assemble_frequency_route(tr.source_sqrt_mix(1.0, 1.0), IntervalSpec(L), 0.05, 32)

    grids = _route_grids(monkeypatch, run)
    assert len(grids) == 8
    for xs, wv, k_max in grids:
        assert_proxy_sums_match_the_dense_sums(xs, wv, k_max)


def test_pnt_grid_compresses_to_under_10000_far_sources(big_table, monkeypatch):
    """The 86,924 nodes of the pnt diagonal grid become fewer than 10,000
    far sources (7,722: 16 proxies for each of the 236 crowded bins below
    x = 236 and the raw nodes of the sparse bins past it)."""
    from tauberlab import tauber

    S, I = tr.source_primes_weighted(big_table), IntervalSpec(tauber.DEFAULT_LENGTH)
    ((xs, _, _),) = _route_grids(monkeypatch, lambda: diagonal_sequence(S, I, 0.0, 1.0, tauber.PNT_ORDER))
    xs = np.sort(xs)
    sx, _, _ = operators._far_sources(xs, np.floor(xs / operators._FAR_BIN), np.sin(xs) ** 2)
    assert xs.size > 80_000 and sx.size < 10_000


def _grid_edges_per_segment(S, L, N, X):
    """Reference: the grid built one np.linspace call per segment."""
    half = L / 2.0
    lobe_end = math.pi * (N + 3)
    base_w = min(0.1, math.pi / L) * half
    fine_w = base_w / 4.0

    def subdivide(a, b, out):
        width = fine_w if a < lobe_end else base_w
        k = max(1, int(math.ceil((b - a) / width)))
        out.extend(np.linspace(a, b, k + 1)[1:].tolist())

    edges = [0.0]
    cursor = 0.0
    a_end = min(half * operators._resolve_u(S), X)
    if S.breakpoints_in is not None and a_end > 0.0:
        bps = np.asarray(S.breakpoints_in(1.0 - 1e-12, math.exp(a_end / half)))
        knots = half * np.log(bps[bps > 1.0].astype(float))
        for knot in knots[(knots > 1e-12) & (knots < a_end - 1e-12)]:
            subdivide(cursor, float(knot), edges)
            cursor = float(knot)
        subdivide(cursor, a_end, edges)
        cursor = a_end
    if cursor < lobe_end < X:
        subdivide(cursor, lobe_end, edges)
        cursor = lobe_end
    wcur = base_w
    while cursor < X:
        cursor = min(cursor + wcur, X)
        edges.append(cursor)
        wcur = min(wcur * 1.15, 2.0)
    return np.asarray(edges)


@pytest.mark.parametrize("case", ["integer_count", "weighted_primes", "damped"])
def test_grid_edges_match_the_per_segment_linspace(case, small_table):
    S, L, N, X = {
        "integer_count": (tr.source_integers(), 2.0 * math.pi, 16, 300.0),
        "weighted_primes": (
            tr.source_primes_weighted(small_table), 8.0 * math.pi, 72, 72 * math.pi + 500.0
        ),
        # the eps > 0 cutoff
        "damped": (
            tr.source_sqrt_mix(2.0, 1.0),
            8.0 * math.pi,
            72,
            operators._cutoff_damped(3.0, 0.05, 8.0 * math.pi, 72, 1e-11),
        ),
    }[case]
    assert np.array_equal(operators._grid_edges(S, L, N, X), _grid_edges_per_segment(S, L, N, X))


def test_grid_edges_match_the_loop_on_the_battery_and_pnt_grids(big_table):
    """Every battery member at its eps = 0 and eps = 0.05 cutoffs, and the
    pnt diagonal grid (weighted primes on the 1e8 table, L = 8 pi, N = 72),
    edge for edge against the per-segment reference and its tail loop."""
    from tauberlab import tauber

    L, N = tauber.DEFAULT_LENGTH, tauber.DEFAULT_ORDER
    cases = [(tr.source_primes_weighted(big_table), 8.0 * math.pi, tauber.PNT_ORDER, 0.0)]
    for S, *_ in tauber.battery_members():
        cases += [(S, L, N, 0.0), (S, L, N, tauber.SPECTRAL_EPS)]
    for S, L, N, eps in cases:
        if eps > 0.0:
            X = operators._cutoff_damped(S.growth_constant, eps, L, N, 1e-10)
        else:
            X = math.pi * N + operators._EPS0_X_PAD
        edges = operators._grid_edges(S, L, N, X)
        assert np.array_equal(edges, _grid_edges_per_segment(S, L, N, X)), (S.label, eps)


def _all_16_node_rule(S, L, edges):
    """Reference: 16 Gauss-Legendre nodes on every panel."""
    return tr._gl_nodes_on(edges[:-1], edges[1:])


def test_narrow_panel_rule_matches_the_16_node_oracle(small_table, monkeypatch):
    """4 nodes on the narrow panels between resolved prime jumps against 16
    on every panel: weighted primes, L = 8 pi, the eps = 0 diagonals and the
    eps = 0.05 frequency route, both at N = 46 under N_max = 46.05 of the
    1e5 table."""
    S = tr.source_primes_weighted(small_table)
    I, N = IntervalSpec(8.0 * math.pi), 46
    edges = operators._grid_edges(S, I.length, N, math.pi * N + operators._EPS0_X_PAD)
    xs, _ = operators._route_nodes(S, I.length, edges)
    assert xs.size < 8 * (edges.size - 1)  # most panels take the 4-point rule
    diag = diagonal_sequence(S, I, 0.0, 1.0, N)
    W = assemble_frequency_route(S, I, 0.05, N)
    monkeypatch.setattr(operators, "_route_nodes", _all_16_node_rule)
    assert np.max(np.abs(diag - diagonal_sequence(S, I, 0.0, 1.0, N))) <= 1e-13
    assert np.max(np.abs(W.entries - assemble_frequency_route(S, I, 0.05, N).entries)) <= 1e-13


def test_battery_grids_have_no_narrow_panel():
    """The eps = 0 diagonal grid (run_battery) and the eps = 0.05
    frequency-route grid (operator assemble at SPECTRAL_EPS) of every
    battery member keep 16 nodes on every panel, so neither depends on the
    narrow-panel rule."""
    from tauberlab.tauber import DEFAULT_LENGTH, DEFAULT_ORDER, SPECTRAL_EPS, battery_members

    L, N = DEFAULT_LENGTH, DEFAULT_ORDER
    for S, *_ in battery_members():
        for X in (
            math.pi * N + operators._EPS0_X_PAD,
            operators._cutoff_damped(S.growth_constant, SPECTRAL_EPS, L, N, 1e-10),
        ):
            edges = operators._grid_edges(S, L, N, X)
            assert np.min(np.diff(edges)) >= operators._NARROW_PANEL, S.label


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------


def test_symmetry_realness_positivity():
    cases = [
        assemble_frequency_route(tr.source_integers(), L2PI, 0.1, 8),
        assemble_kernel_route(tr.source_sqrt_mix(1.0, 1.0), L2PI, 0.05, 4),
        assemble_frequency_route(tr.source_slow_approach(), IntervalSpec(8 * math.pi), 0.05, 8),
    ]
    for W in cases:
        assert W.entries.dtype == np.float64
        assert np.array_equal(W.entries, W.entries.T)
        eigs = np.linalg.eigvalsh(W.entries)
        assert eigs.min() >= -1e-8, W.source


def test_plancherel_normalization():
    W = assemble_frequency_route(tr.source_identity(), L2PI, 0.0, 16)
    assert np.max(np.abs(W.diagonal() - 1.0)) < 1e-8


def test_poisson_split_at_matrix_level():
    """W(integer count) - W(linear) equals the operator built from the
    entire remainder alone, entry by entry."""
    psi_src = GrowthFunction(
        label="entire_remainder",
        fn=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        growth_constant=1.0,
        laplace=lambda s: psi_entire(s),
    )
    eps, N = 0.1, 3
    Wn = assemble_kernel_route(tr.source_integers(), L2PI, eps, N)
    Wx = assemble_kernel_route(tr.source_identity(), L2PI, eps, N)
    Wp = assemble_kernel_route(psi_src, L2PI, eps, N)
    assert np.max(np.abs((Wn.entries - Wx.entries) - Wp.entries)) < 1e-6


# ---------------------------------------------------------------------------
# diagonals
# ---------------------------------------------------------------------------


def test_diagonal_sequence_matches_assembly():
    """Both entry points read one grid with one cutoff, so the diagonals
    agree exactly, with and without a tolerance."""
    from tauberlab.tauber import battery_members

    for S in [tr.source_integers()] + [m[0] for m in battery_members()]:
        for tol in (None, EvalTolerance(1e-6)):
            ds = diagonal_sequence(S, L2PI, 0.1, 0.0, 8, tol=tol)
            W = assemble_frequency_route(S, L2PI, 0.1, 8, tol=tol)
            assert np.array_equal(ds, W.diagonal()[8:]), (S.label, tol)


def test_diagonal_limit_against_direct_quadrature():
    """eps = 0 diagonals of the split operator, oracle = adaptive quadrature
    of the damped window integral (h(u) = e^{-u/2} for the sqrt mix)."""
    I8 = IntervalSpec(8 * math.pi)
    got = diagonal_sequence(tr.source_sqrt_mix(1.0, 1.0), I8, 0.0, 1.0, 8)
    L = I8.length

    def integrand(x, n):
        dm, dp = x - math.pi * n, x + math.pi * n
        sm, sp = np.sinc(dm / math.pi), np.sinc(dp / math.pi)
        return math.exp(-x / L) * (sm * sm + sp * sp)

    for n in (0, 3, 8):
        oracle, _ = quad(integrand, 0, 4000, args=(n,), limit=4000)
        oracle /= math.pi
        assert got[n] == pytest.approx(oracle, abs=5e-7)


def test_diagonal_sequence_guards():
    S = tr.source_identity()
    with pytest.raises(DomainError):
        diagonal_sequence(S, L2PI, -0.1, 0.0, 4)
    with pytest.raises(ContractError):
        diagonal_sequence(S, L2PI, 0.1, 0.0, -1)


# ---------------------------------------------------------------------------
# split, spectrum, weak limit
# ---------------------------------------------------------------------------


def test_split_identity_bookkeeping():
    W = assemble_frequency_route(tr.source_integers(), L2PI, 0.1, 4)
    P = split_identity(W, 1.0)
    assert P.A == 1.0
    assert np.allclose(P.entries, W.entries - np.eye(9))
    assert np.allclose(P.diagonal(), W.diagonal() - 1.0)
    with pytest.raises(ContractError):
        split_identity(W, float("nan"))


def test_spectrum_sorted_by_magnitude():
    vals = spectrum(np.diag([3.0, 1.0, -2.0]))
    assert np.allclose(vals, [3.0, -2.0, 1.0])
    W = assemble_frequency_route(tr.source_identity(), L2PI, 0.1, 4)
    sw = spectrum(W)
    assert sw.shape == (9,)
    assert np.all(np.abs(sw[:-1]) >= np.abs(sw[1:]) - 1e-15)


def test_spectrum_rejects_asymmetric_input():
    with pytest.raises(ContractError):
        spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_weak_limit_diagnostic_structure():
    rep = weak_limit_diagnostic(tr.source_identity(), IntervalSpec(16 * math.pi), 4, (0.4, 0.2, 0.1))
    assert len(rep.deltas) == 2
    assert len(rep.ratios) == 1
    assert all(d > 0 for d in rep.deltas)
    d = rep.to_dict()
    assert d["schedule"] == [0.4, 0.2, 0.1]
    with pytest.raises(ContractError):
        weak_limit_diagnostic(tr.source_identity(), L2PI, 4, (0.1,))
    with pytest.raises(ContractError):
        weak_limit_diagnostic(tr.source_identity(), L2PI, 4, (0.1, 0.2))


def test_weak_limit_report_dict_is_plain_json():
    """One key per field, and no tuple or array left in."""
    rep = weak_limit_diagnostic(tr.source_integers(), L2PI, 4, (0.4, 0.2, 0.1))
    d = rep.to_dict()
    assert json.loads(json.dumps(d)) == d
    assert list(d) == [f.name for f in dataclasses.fields(rep)]


# ---------------------------------------------------------------------------
# container plumbing
# ---------------------------------------------------------------------------


def test_interval_spec_validation():
    with pytest.raises(ContractError):
        IntervalSpec(0.0)
    with pytest.raises(ContractError):
        IntervalSpec(float("inf"))


def test_order_cap_enforced():
    """Both routes and the diagonals refuse N past _MAX_ORDER = 256, at any eps."""
    S = tr.source_identity()
    with pytest.raises(ContractError):
        assemble_frequency_route(S, L2PI, 0.1, 257)
    with pytest.raises(ContractError):
        assemble_kernel_route(S, L2PI, 0.1, 257)
    for eps in (0.0, 0.1):
        with pytest.raises(ContractError, match=r"\[0, 256\]"):
            diagonal_sequence(S, L2PI, eps, 1.0, 257)


def test_csv_round_trip(tmp_path):
    W = assemble_frequency_route(tr.source_integers(), L2PI, 0.1, 3)
    path = tmp_path / "w.csv"
    W.to_csv(path)
    R = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    assert np.array_equal(R, W.entries)  # %.17g is lossless for float64
    header = path.read_text().splitlines()[0]
    assert header == (
        f"# tauberlab-matrix v1, L={L2PI.length!r}, eps=0.1, N=3, "
        "source=integer_count, route=frequency_formula, A=0.0"
    )
    assert W.csv_text() == W.csv_text()


@pytest.mark.parametrize(
    "factory", [lambda: tr.source_sqrt_mix(1.0, 1.0), tr.source_single_jump]
)
def test_csv_round_trip_keeps_multi_parameter_labels(factory, tmp_path):
    """Labels such as sqrt_mix(a=1,b=1) carry commas; the header must keep them whole."""
    W = split_identity(assemble_frequency_route(factory(), L2PI, 0.1, 2), 0.5)
    path = tmp_path / "w.csv"
    W.to_csv(path)
    R = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    header = path.read_text().splitlines()[0]
    assert "," in W.source
    assert header.endswith(f", source={W.source}, route={W.route}, A={W.A!r}")
    assert np.array_equal(R, W.entries)
