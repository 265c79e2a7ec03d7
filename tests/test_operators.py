"""Truncated convolution operators: both assembly routes against direct quadrature."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from tauberlab import operators
from tauberlab import transform as tr
from tauberlab.arith import GrowthFunction, _atomic_write, build_prime_table
from tauberlab.errors import ContractError, DomainError, PrecisionError, ResourceError, TableExhaustedError
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
from tauberlab.special import psi_entire
from tauberlab.tauber import battery_members

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


def test_kernel_needs_positive_eps(monkeypatch):
    with pytest.raises(DomainError):
        kernel(tr.source_identity(), 1e-4, 0.0)

    # the route refuses eps < 1e-3 itself, before it lays out any panel
    def no_panels(*args):
        raise AssertionError("panels allocated")

    monkeypatch.setattr(operators, "OuterGrid", no_panels)
    with pytest.raises(DomainError, match="kernel route"):
        assemble_kernel_route([tr.source_identity()], L2PI, 5e-4, 4)


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
            W = route([S], L2PI, 0.1, 0)[0]
            assert W.entries.shape == (1, 1)
            assert W.entries[0, 0] == pytest.approx(_m00_oracle(S, L2PI.length, 0.1), abs=5e-8)


def test_identity_center_entry_closed_form():
    """For the Poisson kernel the N=0 entry integrates in closed form."""
    L, eps = L2PI.length, 0.1
    expect = (2.0 / (math.pi * L)) * (L * math.atan(L / eps) - (eps / 2.0) * math.log(1.0 + (L / eps) ** 2))
    for route in (assemble_kernel_route, assemble_frequency_route):
        W = route([tr.source_identity()], L2PI, eps, 0)[0]
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
    Wk = assemble_kernel_route([S], L2PI, eps, N)[0]
    Wf = assemble_frequency_route([S], L2PI, eps, N)[0]
    assert np.max(np.abs(Wk.entries - Wf.entries)) < 1e-5
    assert Wk.route == "kernel_quadrature" and Wf.route == "frequency_formula"


_CLOSED_FORM_SOURCES = {
    "integers": tr.source_integers,
    "identity": tr.source_identity,
    "sqrt_mix": lambda: tr.source_sqrt_mix(1.0, 1.0),
    "log_oscillation": lambda: tr.source_log_oscillation(0.5),
    "single_jump": tr.source_single_jump,
    "slow_approach": tr.source_slow_approach,
}


@pytest.mark.parametrize(
    "name,L,eps,N",
    [("integers", 2.0 * math.pi, 0.1, 8), ("integers", 8.0 * math.pi, 0.05, 32)]
    + [(name, 8.0 * math.pi, eps, 32) for name in _CLOSED_FORM_SOURCES for eps in (0.01, 0.005, 0.001)],
)
def test_integer_count_routes_agree_to_1e9(name, L, eps, N):
    """The frequency route reads the integer count's sawtooth itself, jumps
    resolved up to x = 2e5 and g read at the nodes past it, and meets the
    kernel route's closed form zeta(s)/s within 1e-9: past 2e5 the
    staircase is sampled. Every other closed-form catalog source is read
    on the grid to X and by its exact tail past it, and meets its kernel
    route within 1e-13 (measured: 2.2e-14 at most, at eps = 0.001)."""
    S, I = _CLOSED_FORM_SOURCES[name](), IntervalSpec(L)
    Wk = assemble_kernel_route([S], I, eps, N)[0]
    Wf = assemble_frequency_route([S], I, eps, N)[0]
    assert np.max(np.abs(Wk.entries - Wf.entries)) <= (1e-9 if name == "integers" else 1e-13)


# ---------------------------------------------------------------------------
# kernel route: the 1-D moment collapse against the 2-D double integral
# ---------------------------------------------------------------------------


def _tensor_oracle(S, L, eps, N):
    """Brute-force tensor Gauss-Legendre quadrature of the double integral
    M[m][n] = (1/L) int_I int_I K(t - tau) e^{-i a m t} e^{i a n tau}, a = 2 pi/L,
    on uniform panels of its own, min(2 eps, 0.1, L/(3N)) wide, 16 nodes
    each. Kernel blocks per panel offset d >= 0; negative offsets follow
    from K being even."""
    P = math.ceil(L / min(2 * eps, 0.1, L / (3 * N)))
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
    W = assemble_kernel_route([S], L2PI, eps, N)[0]
    assert np.max(np.abs(W.entries - _tensor_oracle(S, L2PI.length, eps, N))) <= 1e-12


def _fine_panel_reference(S, L, eps, N):
    """The kernel-route matrix from uniform panels eps/2 wide, 16
    Gauss-Legendre nodes each: s_n and c_n summed node by node, then M from
    the moments."""
    P = math.ceil(L / (eps / 2))
    h = L / (2 * P)
    xi, wi = np.polynomial.legendre.leggauss(16)
    x = ((2 * np.arange(P) + 1)[:, None] * h + h * xi[None, :]).ravel()
    wk = kernel(S, eps, x) * np.tile(h * wi, P)
    wc = 2.0 * wk * (1.0 - x / L)
    a = 2.0 * math.pi / L
    s = np.array([wk @ np.sin(a * n * x) for n in range(N + 1)])
    c = np.array([wc @ np.cos(a * n * x) for n in range(N + 1)])
    return operators._matrix_from_moments(s, c)


_BATTERY = {S.label: S for S, *_ in battery_members()}


@pytest.mark.parametrize("eps", [0.05, 0.01])
@pytest.mark.parametrize(
    "name,L,N",
    [(name, L, N) for name in ["integers", *_BATTERY] for L, N in ((2 * math.pi, 8), (8 * math.pi, 72))]
    + [("weighted_primes", 2 * math.pi, 8)],
)
def test_kernel_route_panels_match_a_fine_panel_reference(name, L, N, eps, small_table):
    """The route's plan, graded panels from eps wide at the singular points
    and body panels up to min(0.5, L/N) wide, against uniform panels eps/2
    wide: every entry within 1e-13 (3.8e-15 seen). This is the a-posteriori
    evidence the operators module docstring cites for the plan; the tensor
    oracle, on uniform panels up to 2 eps wide, checks the moment collapse,
    not the plan."""
    if name == "weighted_primes":
        S = tr.source_primes_weighted(small_table)
    else:
        S = {"integers": tr.source_integers(), **_BATTERY}[name]
    W = assemble_kernel_route([S], IntervalSpec(L), eps, N)[0]
    assert np.max(np.abs(W.entries - _fine_panel_reference(S, L, eps, N))) <= 1e-13


def test_kernel_route_evaluates_the_kernel_once_per_node(monkeypatch):
    """One kernel call per source, over every node of the batch's plan."""
    calls = []

    def counting_kernel(S, eps, x):
        calls.append(np.size(x))
        return kernel(S, eps, x)

    monkeypatch.setattr(operators, "kernel", counting_kernel)
    sources = [tr.source_identity(), tr.source_log_oscillation(0.5), tr.source_single_jump()]
    for L, eps, N in ((L2PI.length, 0.05, 4), (8 * math.pi, 0.05, 72), (L2PI.length, 0.1, 0)):
        calls.clear()
        assemble_kernel_route(sources, IntervalSpec(L), eps, N)
        nodes = operators._kernel_plan(L, N, eps, [S.tail for S in sources])[2]
        assert calls == [nodes] * len(sources)


@pytest.mark.parametrize(
    "eps, N, nodes",
    [(0.05, 72, 1_184), (0.01, 72, 1_232), (0.001, 72, 1_280), (0.05, 64, 1_072), (0.05, 0, 848)],
)
def test_the_kernel_plan_grades_its_head_and_leaves_the_body_uniform(eps, N, nodes):
    """The pnt plan (L = 8 pi, a weighted-primes tail with lam = 0): a head at
    x = 0 of panels eps, 2 eps, 4 eps, ... while under the body width
    min(0.5, L/N), then ceil((L - head)/width) body panels of one width,
    16 nodes each. At N = 72 that is 1,184 nodes at eps = 0.05 and 1,280 at
    eps = 0.001, where uniform panels min(2 eps, 0.1, L/(3N)) wide laid
    4,032 and 201,072."""
    L = 8.0 * math.pi
    (lo, hi), body, count = operators._kernel_plan(L, N, eps, [(math.log(1e8), ((1.0, 0.0),))])
    width = min(0.5, L / N) if N else 0.5
    assert count == nodes
    assert count <= 1_300 if eps >= 0.01 else count < 2_000
    assert lo[0] == 0.0 and np.array_equal(lo[1:], hi[:-1])
    assert np.allclose(hi - lo, eps * 2.0 ** np.arange(lo.size)) and (hi - lo)[-1] < width <= 2 * (hi - lo)[-1]
    ((b_lo, b_hi, P),) = body
    assert (b_lo, b_hi) == (hi[-1], L) and (b_hi - b_lo) / P <= width < (b_hi - b_lo) / (P - 1)


def test_the_kernel_plan_puts_a_head_at_every_singular_point_near_the_line():
    """A tail term c e^{-lam u} puts a head at x = |Im lam| when
    Re lam + eps is under the body width: x = 0 for lam = 0 and x = 1 for
    log_oscillation's lam = -i (its x = -1 lies off [0, L]); the sqrt mix's
    lam = 1/2 and a single jump's lam = 1 put none. Heads that overlap merge,
    and each gap between heads is one uniform body grid."""
    L, N, eps = 8.0 * math.pi, 64, 0.05
    plan = operators._kernel_plan
    assert plan(L, N, eps, [(0.0, ((1.0, 0.5),)), tr.source_single_jump().tail])[0][0].size == 0
    (lo, hi), body, count = plan(L, N, eps, [tr.source_log_oscillation(0.5).tail])
    assert np.allclose(lo, [0.0, 0.05, 0.15, 0.65, 0.85, 0.95, 1.0, 1.05, 1.15])
    assert np.allclose(hi, [0.05, 0.15, 0.35, 0.85, 0.95, 1.0, 1.05, 1.15, 1.35])
    assert [P for *_, P in body] == [1, 61] and count == 1_136
    (lo, hi), body, _ = plan(L, N, eps, [(0.0, ((1.0, 0.0), (1.0, -0.4j)))])  # heads at 0 and 0.4 overlap
    assert np.allclose(lo, [0.0, 0.05, 0.15, 0.25, 0.35, 0.4, 0.45, 0.55]) and hi[-1] == 0.75
    assert lo[0] == 0.0 and np.array_equal(lo[1:], hi[:-1])
    assert len(body) == 1 and body[0][:2] == (0.75, L)


def test_kernel_route_rejects_a_non_finite_kernel():
    S = GrowthFunction(
        label="nan_transform",
        fn=np.ones_like,
        growth_constant=1.0,
        laplace=lambda s: np.full(np.shape(s), np.nan, dtype=complex),
    )
    with pytest.raises(PrecisionError, match="x = "):
        assemble_kernel_route([S], L2PI, 0.1, 2)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_frequency_route_rejects_a_non_finite_g(bad):
    """A g that is inf or NaN past u = 20, on the grid to its tail at
    u_t = 30, is refused with the source and the u named, at every eps."""
    S = GrowthFunction(
        label="bad_past_20",
        fn=lambda u: np.where(u < 20.0, 1.0, bad),
        growth_constant=1.0,
        tail=(30.0, ((1.0, 0.0),)),
    )
    I = IntervalSpec(8 * math.pi)
    match = r"'bad_past_20' is not finite at u = 20\.\d"
    for eps in (0.0, 0.01):
        with pytest.raises(PrecisionError, match=match):
            assemble_frequency_route([S], I, eps, 8)
        with pytest.raises(PrecisionError, match=match):
            diagonal_sequence([S], I, eps, 8)


def test_frequency_route_refuses_a_source_without_a_tail():
    """A capless source that states no tail has no grid end: the route
    names it in a ContractError, alone or in a batch, before any grid."""
    bare = dataclasses.replace(tr.source_identity(), label="no_tail", tail=None)
    I = IntervalSpec(8 * math.pi)
    for eps in (0.0, 0.05):
        with pytest.raises(ContractError, match="'no_tail' states no tail"):
            assemble_frequency_route([bare], I, eps, 4)
        with pytest.raises(ContractError, match="'no_tail' states no tail"):
            diagonal_sequence([tr.source_identity(), bare], I, eps, 4)
    for tail in ((0.0, ((1.0, -0.5),)), (0.0, ((1.0, 0.0, 0.0),)), (-1.0, ((1.0, 0.0),))):
        bad = dataclasses.replace(tr.source_identity(), label="bad_tail", tail=tail)
        with pytest.raises(ContractError, match="'bad_tail' needs"):
            assemble_frequency_route([bad], I, 0.0, 4)


def test_a_batch_resolves_no_table_source_past_its_table(small_table, big_table):
    """Weighted primes on the 1e5 table hold jumps only up to the table
    limit, and past it their fn holds g(u_cap). A batch with the integers
    (a_end = (L/2) ln 2e5) or with a larger table would resolve those jumps
    past the table, and the table refuses: a TableExhaustedError asking
    for a table to 200,000 (unguarded, the 1e5 table's eps = 0 diagonal to
    N = 46 moved by 0.035, its largest entry being 1.19). A batch whose
    a_end stays within every table gives each source's diagonal as that
    source alone does: to 1e-14, or to 1e-9 for the 3e5 table, whose
    primes past 2e5 the nodes sample (module docstring) on a grid whose end
    moves with the batch (measured 1.8e-10)."""
    I, eps = IntervalSpec(8.0 * math.pi), 0.05
    small = tr.source_primes_weighted(small_table)
    mid = tr.source_primes_weighted(build_prime_table(300_000))
    big = tr.source_primes_weighted(big_table)
    for other in (tr.source_integers(), mid):
        with pytest.raises(TableExhaustedError, match="primes_in query up to 200000 exceeds table limit 100000") as ei:
            diagonal_sequence([small, other], I, eps, 8)
        assert ei.value.code == "table-exhausted" and ei.value.required == 200_000
    for batch in ([small, tr.source_identity()], [mid, tr.source_integers()], [big, mid]):
        both = diagonal_sequence(batch, I, eps, 8)
        for row, S in zip(both, batch):
            alone = diagonal_sequence([S], I, eps, 8)[0]
            tol = 1e-9 if S is mid else 1e-14
            assert np.max(np.abs(row - alone)) <= tol * np.max(np.abs(alone)), S.label


@pytest.mark.parametrize("L", [2.0 * math.pi, 8.0 * math.pi, 40.0 * math.pi])
def test_frequency_route_refuses_an_eps_past_its_damping_limit(L):
    """The fine panels resolve e^{-2 eps x / L} up to eps min(0.1, pi/L) = 32
    (320 at L <= 10 pi, 1,280 at L = 40 pi): just past it both entry points
    raise a DomainError that names the limit."""
    limit = 32.0 / min(0.1, math.pi / L)
    eps = math.nextafter(limit, math.inf)
    I = IntervalSpec(L)
    with pytest.raises(DomainError, match=f"up to eps = {limit:g}") as ei:
        assemble_frequency_route([tr.source_identity()], I, eps, 4)
    assert ei.value.code == "domain"
    with pytest.raises(DomainError, match=f"up to eps = {limit:g}"):
        diagonal_sequence([tr.source_identity()], I, eps, 4)


@pytest.mark.parametrize("L", [2.0 * math.pi, 8.0 * math.pi, 40.0 * math.pi])
def test_the_routes_agree_at_the_eps_limit(L):
    """At the largest eps the frequency route takes, the identity,
    slow_approach and the integers agree with the kernel route to 1e-13
    relative (measured: 3.4e-15); at twice it they differed by 1.1e-11."""
    eps, I = 32.0 / min(0.1, math.pi / L), IntervalSpec(L)
    for S in (tr.source_identity(), tr.source_slow_approach(), tr.source_integers()):
        Wk = assemble_kernel_route([S], I, eps, 8)[0].entries
        Wf = assemble_frequency_route([S], I, eps, 8)[0].entries
        assert np.max(np.abs(Wf - Wk)) <= 1e-13 * np.max(np.abs(Wk)), S.label


def test_frequency_route_refuses_a_tail_that_is_not_g():
    """sqrt_mix stating the tail 1 of the identity, where its g is
    1 + e^{-u/2}: the route compares the tail with g at u_t, u_t + 1 and
    u_t + 10 and names the source in a ContractError, alone or in a batch,
    at eps = 0 and 0.05."""
    wrong = dataclasses.replace(tr.source_sqrt_mix(1.0, 1.0), label="wrong_tail", tail=(0.0, ((1.0, 0.0),)))
    I = IntervalSpec(8 * math.pi)
    for eps in (0.0, 0.05):
        with pytest.raises(ContractError, match="'wrong_tail' is not its g"):
            assemble_frequency_route([wrong], I, eps, 4)
        with pytest.raises(ContractError, match="'wrong_tail' is not its g"):
            diagonal_sequence([tr.source_identity(), wrong], I, eps, 4)


def test_half_line_integrals_match_the_sinc_form():
    """Reference: every term through sinc, as sin(x -+ pi k) sinc((x -+ pi k)/pi).
    Both node sets are sorted, as the route grids are. The first includes
    x = 0 and x = 3 pi, which sit exactly on pi k; the second also has nodes
    on pi k -+ 1."""
    k_max = 6
    ks = math.pi * np.arange(k_max + 1)
    grid = np.linspace(1e-3, 40.0, 997)
    for xs in (
        np.sort(np.concatenate([[0.0, 3.0 * math.pi], grid])),
        np.sort(np.concatenate([grid, ks, ks + 1.0, ks[1:] - 1.0])),
    ):
        wv = np.exp(-0.1 * xs) * 0.04
        dm, dp = xs[None, :] - ks[:, None], xs[None, :] + ks[:, None]
        sm, sp = np.sinc(dm / math.pi), np.sinc(dp / math.pi)
        F_ref = (np.sin(dm) * sm - np.sin(dp) * sp) @ wv
        D_ref = (sm * sm + sp * sp) @ wv
        F, D = operators._half_line_integrals(xs, wv[:, None], k_max, want_F=True)
        assert np.max(np.abs(F[:, 0] - F_ref)) < 1e-13
        assert np.max(np.abs(D[:, 0] - D_ref)) < 1e-13
        F0, D0 = operators._half_line_integrals(xs, wv[:, None], k_max, want_F=False)
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


def assert_direct_sums_match_the_dense_sums(xs, wv, k_max):
    """Both outputs of _half_line_integrals on the (n, m) weights wv,
    column by column, within 64 roundings of sum |term| (the two sums
    round differently) and within 1e-13, both of the dense reference and
    of the column's own single-column call; want_F = False gives the same
    D and no F."""
    u = 2.0**-53
    F, D = operators._half_line_integrals(xs, wv, k_max, want_F=True)
    for j in range(wv.shape[1]):
        F_ref, D_ref, SF, SD = dense_half_line_integrals(xs, wv[:, j], k_max)
        F1, D1 = operators._half_line_integrals(xs, wv[:, [j]], k_max, want_F=True)
        for got in ((F[:, j], D[:, j]), (F1[:, 0], D1[:, 0])):
            assert np.all(np.abs(got[0] - F_ref) <= 64.0 * u * SF), j
            assert np.all(np.abs(got[1] - D_ref) <= 64.0 * u * SD), j
            assert np.max(np.abs(got[0] - F_ref)) <= 1e-13 and np.max(np.abs(got[1] - D_ref)) <= 1e-13
        assert np.all(np.abs(F[:, j] - F1[:, 0]) <= 64.0 * u * SF), j
        assert np.all(np.abs(D[:, j] - D1[:, 0]) <= 64.0 * u * SD), j
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


def test_direct_sums_match_the_dense_sums_on_the_route_grids(big_table, monkeypatch):
    """The pnt diagonal grid (weighted primes on the 1e8 table, L = 8 pi,
    N = 72, eps = 0), the eps = 0 diagonal grid of every battery member at
    N = 64, alone and as the one six-column batch that run_battery sums,
    one eps = 0.05 frequency-route grid, and the integers' grids at
    L = 8 pi, N = 16 and at L = 40 pi, N = 8, whose 2-wide tail panels run
    to X = 2,264, against the dense reference."""
    from tauberlab import tauber

    L = tauber.DEFAULT_LENGTH
    pnt = tr.source_primes_weighted(big_table)
    battery = [S for S, *_ in tauber.battery_members()]

    def run():
        diagonal_sequence([pnt], IntervalSpec(L), 0.0, tauber.PNT_ORDER)
        for S in battery:
            diagonal_sequence([S], IntervalSpec(L), 0.0, tauber.DEFAULT_ORDER)
        diagonal_sequence(battery, IntervalSpec(L), 0.0, tauber.DEFAULT_ORDER)
        assemble_frequency_route([tr.source_sqrt_mix(1.0, 1.0)], IntervalSpec(L), 0.05, 32)
        assemble_frequency_route([tr.source_integers()], IntervalSpec(8.0 * math.pi), 0.0, 16)
        assemble_frequency_route([tr.source_integers()], IntervalSpec(40.0 * math.pi), 0.0, 8)

    grids = _route_grids(monkeypatch, run)
    assert [wv.shape[1] for _, wv, _ in grids] == [1] * 7 + [6, 1, 1, 1]
    assert grids[-1][0].size == 27_632
    for xs, wv, k_max in grids:
        assert_direct_sums_match_the_dense_sums(xs, wv, k_max)


def test_half_line_integrals_hold_little_beside_the_reciprocal_block(big_table, monkeypatch):
    """One _half_line_integrals call on the battery's six-column grid
    (N = 64, 1,920 nodes) and on the pnt diagonal grid (N = 72, 6,016
    nodes: 245 panels on the jump-resolved range x <= 153.4 and 131 in the
    lobes up to the grid end X = pi (N + 3) = 235.6, 16 nodes each) peaks
    within 1 MiB of its one reciprocal block, 2 (N + 1) x nodes doubles
    (1.90 and 6.70 MiB), traced. Measured: 2.22 and 6.98 MiB."""
    from tauberlab import tauber

    L = tauber.DEFAULT_LENGTH
    battery = [S for S, *_ in tauber.battery_members()]
    grids = _route_grids(
        monkeypatch,
        lambda: (
            diagonal_sequence(battery, IntervalSpec(L), 0.0, tauber.DEFAULT_ORDER),
            diagonal_sequence([tr.source_primes_weighted(big_table)], IntervalSpec(L), 0.0, tauber.PNT_ORDER),
        ),
    )
    assert [xs.size for xs, _, _ in grids] == [1_920, 6_016]
    for xs, wv, k_max in grids:
        block = 8 * 2 * (k_max + 1) * xs.size
        tracemalloc.start()
        try:
            operators._half_line_integrals(xs, wv, k_max, want_F=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= block + 2**20, (xs.size, peak)


def _a_end(S, L):
    """End of the resolved range for S alone: (L/2) min(ln 2e5, u_t)."""
    return L / 2.0 * min(math.log(operators._STEP_RESOLVE_CAP), S.tail[0])


def _grid_edges_per_segment(S, L, N, X, eps=0.0):
    """Reference: the grid built one np.linspace call per segment, fine
    panels on [0, a_end], and on [a_end, pi (N + 3)] while S samples its
    staircase past a_end (u_t > ln 2e5), then the tail loop, whose widths
    grow from min(2 fine_w, cap) to the cap max(fine_w, min(2, 8/r)),
    r = max |lam + eps| / (L/2) over the stated tail. Every source takes
    the cut at a_end, whether or not it declares jumps. At eps > 0 the
    lobe and tail runs stop at min(X, max(a_end, 746 (L/2) / eps)), where
    e^{-eps u} is 0.0, and one panel runs from there to X."""
    half = L / 2.0
    a_end = _a_end(S, L)
    stop = min(X, max(a_end, 746.0 * half / eps)) if eps > 0.0 else X
    lobe_end = min(math.pi * (N + 3), stop)
    fine_w = min(0.1, math.pi / L) * half / 2.0
    r = max(abs(complex(t[1]) + eps) for t in S.tail[1]) / half
    cap = max(fine_w, min(2.0, 8.0 / r)) if r > 0.0 else 2.0
    sampled = S.tail[0] > math.log(operators._STEP_RESOLVE_CAP)

    edges = [0.0]
    cursor = 0.0
    for b in (a_end, lobe_end) if sampled else (a_end,):
        if cursor < b <= X:
            k = max(1, int(math.ceil((b - cursor) / fine_w)))
            edges.extend(np.linspace(cursor, b, k + 1)[1:].tolist())
            cursor = b
    wcur = min(2.0 * fine_w, cap)
    while cursor < stop:
        cursor = min(cursor + wcur, stop)
        edges.append(cursor)
        wcur = min(wcur * 1.15, cap)
    if cursor < X:
        edges.append(X)
    return np.asarray(edges)


def _cutoff(S, L, N):
    return operators._cutoff([operators._tail_of(S)], L, N)


@pytest.mark.parametrize(
    "case",
    ["integer_count", "weighted_primes", "integer_tail", "oscillation_cap", "damping_cap", "fine_cap",
     "lobe_stop", "resolved_stop"],
)
def test_grid_edges_match_the_per_segment_linspace(case, small_table, monkeypatch):
    S, L, N, X, eps = {
        "integer_count": (tr.source_integers(), 2.0 * math.pi, 16, 300.0, 0.0),
        # the 1e5 table's u_t = 11.5 is under ln 2e5: no fine lobe panels
        "weighted_primes": (
            tr.source_primes_weighted(small_table), 8.0 * math.pi, 72, 72 * math.pi + 500.0, 0.0
        ),
        # the integers' tail starts at u_t = 36.04, far past the lobes
        "integer_tail": (
            tr.source_integers(), 8.0 * math.pi, 72, _cutoff(tr.source_integers(), 8.0 * math.pi, 72), 0.0
        ),
        # e^{i u} at L = 0.3: r = |eps - i| / 0.15, cap 8/r = 1.2
        "oscillation_cap": (tr.source_log_oscillation(0.5), 0.3, 8, 11.0 * math.pi, 0.05),
        # e^{-eps u} at L = 2 pi, eps = 100: cap 8/r = 0.25 over fine_w = 0.157
        "damping_cap": (tr.source_identity(), 2.0 * math.pi, 8, 11.0 * math.pi, 100.0),
        # eps = 300: 8/r = 0.084, and the cap stops at fine_w
        "fine_cap": (tr.source_integers(), 2.0 * math.pi, 8, 300.0, 300.0),
        # eps = 50: e^{-eps u} underflows past 746 pi / 50 = 46.9, inside
        # the integers' lobe run (a_end = 38.3 to 19 pi), which stops there
        "lobe_stop": (tr.source_integers(), 2.0 * math.pi, 16, 300.0, 50.0),
        # eps = 100: it underflows past 23.4, inside the resolved range, so
        # one panel runs from a_end to X
        "resolved_stop": (tr.source_integers(), 2.0 * math.pi, 16, 300.0, 100.0),
    }[case]
    monkeypatch.setattr(operators, "_cutoff", lambda tails, L, N: X)
    counts, check_nodes = [], operators._check_nodes

    def recording_check(nodes, what):
        counts.append(nodes)
        return check_nodes(nodes, what)

    monkeypatch.setattr(operators, "_check_nodes", recording_check)
    edges, a_end = operators._grid_edges(L, N, eps, [S.tail])
    assert a_end == _a_end(S, L)
    assert np.array_equal(edges, _grid_edges_per_segment(S, L, N, X, eps))
    # the count behind the node cap: exact on the fine panels, a few panels over in the tail
    assert len(counts) == 1 and 0 <= counts[0] - 16 * (edges.size - 1) <= 16 * 32


def test_grid_edges_match_the_loop_on_the_battery_and_pnt_grids(big_table):
    """Every battery member at its grid end, and the pnt diagonal grid
    (weighted primes on the 1e8 table, L = 8 pi, N = 72), edge for edge
    against the per-segment reference and its tail loop, at eps = 0 and
    0.05."""
    from tauberlab import tauber

    L, N = tauber.DEFAULT_LENGTH, tauber.DEFAULT_ORDER
    cases = [(tr.source_primes_weighted(big_table), 8.0 * math.pi, tauber.PNT_ORDER)]
    cases += [(S, L, N) for S, *_ in tauber.battery_members()]
    for S, L, N in cases:
        X = _cutoff(S, L, N)
        for eps in (0.0, 0.05):
            edges, _ = operators._grid_edges(L, N, eps, [S.tail])
            assert np.array_equal(edges, _grid_edges_per_segment(S, L, N, X, eps)), (S.label, eps)


def _route_tail(S, L, eps, N):
    """F and D of the route's exact tail past its X: each stated term
    c e^{-lam u} / (u + b)^[b] at u = x / (L/2)."""
    half = L / 2.0
    terms = [
        (0, c * half if b else c, complex(lam + eps) / half, b[0] * half if b else None)
        for c, lam, *b in operators._tail_of(S)[1]
    ]
    F, D = operators._tail_integrals(_cutoff(S, L, N), N, terms, 1)
    return F[:, 0], D[:, 0]


def _jump_aligned_moments(S, L, eps, N):
    """Reference: F and D on the grid that cuts a panel at every resolved
    jump, 16 Gauss-Legendre nodes on each panel and mt read at the nodes,
    with the route's grid end and exact tail. Past the resolved range the
    panels are the route's own."""
    half = L / 2.0
    edges, a_end = operators._grid_edges(L, N, eps, [S.tail])
    if a_end > 0.0:
        knots = half * np.log(S.jumps_upto(math.exp(a_end / half))[0])
        fine = np.concatenate([edges[edges <= a_end], knots[knots < a_end]])
        edges = np.concatenate([np.unique(fine), edges[edges > a_end]])
    xs, ws = operators._gl_nodes_on(edges[:-1], edges[1:])
    u = xs / half
    vals = S.fn(u) * np.exp(-eps * u)
    F, D = operators._half_line_integrals(xs, (ws * vals)[:, None], N, want_F=True)
    F_tail, D_tail = _route_tail(S, L, eps, N)
    return F[:, 0] + F_tail, D[:, 0] + D_tail


@pytest.mark.parametrize("case", ["wprimes_1e5", "pnt", "integer_count", "single_jump", "no_jump"])
def test_step_weights_match_the_jump_aligned_oracle(case, small_table, big_table, monkeypatch):
    """Product integration over the resolved jumps against 16 nodes on
    every panel between two jumps: the eps = 0 diagonals and the eps = 0
    and eps = 0.05 frequency routes, every entry within 1e-13. The
    integers resolve their jumps up to 2e4 here, not 2e5, which keeps the
    oracle at 0.3M nodes; the densest panel still holds about 500 jumps.
    The resolved range of a source alone ends at its u_t, so the single
    jump at x = e lands on its end a_end = L/2 and the range holds none;
    at L = 40 pi, N = 8 a_end is also the grid end X."""
    S, L, N = {
        "wprimes_1e5": (tr.source_primes_weighted(small_table), 8.0 * math.pi, 46),
        "pnt": (tr.source_primes_weighted(big_table), 8.0 * math.pi, 72),
        "integer_count": (tr.source_integers(), 2.0 * math.pi, 16),
        "single_jump": (tr.source_single_jump(), 8.0 * math.pi, 64),
        "no_jump": (tr.source_single_jump(), 40.0 * math.pi, 8),
    }[case]
    if case == "integer_count":
        monkeypatch.setattr(operators, "_STEP_RESOLVE_CAP", 2e4)
    I = IntervalSpec(L)
    _, D = _jump_aligned_moments(S, L, 0.0, N)
    assert np.max(np.abs(diagonal_sequence([S], I, 0.0, N)[0] - D / math.pi)) <= 1e-13
    for eps in (0.0, 0.05):
        F, D = _jump_aligned_moments(S, L, eps, N)
        ref = operators._matrix_from_moments(-F / math.pi, D / math.pi)
        assert np.max(np.abs(assemble_frequency_route([S], I, eps, N)[0].entries - ref)) <= 1e-13, eps


def _half_panel_moments(S, L, eps, N):
    """Reference: F and D on the route's own grid with every panel split in
    two, the route's weights on each half (product integration on the
    resolved range for a source that declares jumps, mt read at the nodes
    elsewhere) and its exact tail past X. A source that declares jumps
    samples its staircase between a_end and its u_t (module docstring), and
    those panels stay whole: halving them moves the integers' entries by up
    to 1.6e-10, the floor of the sampled staircase, not of the panel
    width."""
    edges, a_end = operators._grid_edges(L, N, eps, [S.tail])
    lo, hi = edges[:-1], edges[1:]
    split = (hi <= a_end) | (lo >= L / 2.0 * S.tail[0]) if S.jumps_upto is not None else np.full(lo.size, True)
    edges = np.insert(edges, np.flatnonzero(split) + 1, 0.5 * (lo + hi)[split])
    xs, ws = operators._gl_nodes_on(edges[:-1], edges[1:])
    wv = ws * operators._source_values(S, L, eps, xs)
    if S.jumps_upto is not None:
        n_res = int(np.searchsorted(edges, a_end))
        wv[: 16 * n_res] = operators._step_values(S, L, eps, edges[: n_res + 1], xs[: 16 * n_res])
    F, D = operators._half_line_integrals(xs, wv[:, None], N, want_F=True)
    F_tail, D_tail = _route_tail(S, L, eps, N)
    return F[:, 0] + F_tail, D[:, 0] + D_tail


@pytest.mark.parametrize("L", [2.0 * math.pi, 8.0 * math.pi, 40.0 * math.pi])
@pytest.mark.parametrize("name", list(_CLOSED_FORM_SOURCES) + ["weighted_primes"])
def test_the_fine_panels_match_panels_half_as_wide(name, L, small_table):
    """Every catalog source, and weighted primes on the 1e5 table, against
    the route's own grid with every panel split in two: each truncation
    entry within 1e-14 max(1, max |M|) at eps = 0, 0.05, 1, 0.1 eps_max
    and the damping limit eps_max (module docstring); at 0.1 eps_max and
    eps_max the rate caps the tail panels under 2."""
    S = tr.source_primes_weighted(small_table) if name == "weighted_primes" else _CLOSED_FORM_SOURCES[name]()
    N = 8 if L < 7.0 else 32
    eps_max = operators._DAMPING_RESOLVED * L / (2.0 * operators._fine_width(L))
    for eps in (0.0, 0.05, 1.0, 0.1 * eps_max, eps_max):
        W = assemble_frequency_route([S], IntervalSpec(L), eps, N)[0].entries
        F, D = _half_panel_moments(S, L, eps, N)
        ref = operators._matrix_from_moments(-F / math.pi, D / math.pi)
        assert np.max(np.abs(W - ref)) <= 1e-14 * max(1.0, np.max(np.abs(W))), eps


@pytest.mark.parametrize("L", [0.03, 0.3])
def test_the_width_cap_resolves_a_fast_oscillation(L):
    """log_oscillation's e^{i u} oscillates at rate 2 / L in x: at L = 0.03
    the tail panels are capped at 8/r = 0.12 wide, r = |lam + eps| / (L/2),
    not 2 (module docstring). The frequency route then meets the kernel
    route within 1e-13 max |W| at eps = 0.05 (measured 1.0e-15), and the
    eps = 0 diagonals meet panels half as wide within 1e-14 (2.7e-15).
    2-wide panels give a route gap of 2.1e-11 and a diagonal of 1.00137
    against 1.00478."""
    S, I, N = tr.source_log_oscillation(0.5), IntervalSpec(L), 8
    Wf = assemble_frequency_route([S], I, 0.05, N)[0].entries
    Wk = assemble_kernel_route([S], I, 0.05, N)[0].entries
    assert np.max(np.abs(Wf - Wk)) <= 1e-13 * np.max(np.abs(Wk))
    _, D = _half_panel_moments(S, L, 0.0, N)
    assert np.max(np.abs(diagonal_sequence([S], I, 0.0, N)[0] - D / math.pi)) <= 1e-14


@pytest.mark.parametrize("m", [1, 6])
def test_anterpolate_matches_the_direct_chebyshev_sums(m, rng):
    """_anterpolate against sum_i w_i chebval(t_i, _LAMBDA[:, j]) per segment,
    segments of 1 to 40 points with t in [-1, 1], its ends included. Each
    |T_d(t)| <= 1, so the recurrence errs by at most 2 d^2 u |w_i| (an
    error made at step k reaches step d times U_{d-k}, |U_n| <= n + 1), a
    segment's sum of n terms by n u sum |w_i|, and the contraction with
    the D coefficients by D u more; Clenshaw's chebval and the reference
    sum err by as much again. No segments give an empty result."""
    u = 2.0**-53
    coef = operators._LAMBDA
    D, k = coef.shape
    sizes = rng.integers(1, 41, size=12)
    t = rng.uniform(-1.0, 1.0, sizes.sum())
    t[[0, -1]] = -1.0, 1.0
    w = rng.standard_normal((m, t.size))
    starts = np.cumsum(sizes) - sizes
    got = operators._anterpolate(t, w.copy(), starts)
    assert got.shape == (m, sizes.size, k)
    basis_at_t = np.polynomial.chebyshev.chebval(t, coef).T  # (n, k)
    for s, (a, n) in enumerate(zip(starts, sizes)):
        ref = w[:, a : a + n] @ basis_at_t[a : a + n]
        mass = np.abs(w[:, a : a + n]).sum(axis=1)[:, None] * np.abs(coef).sum(axis=0)[None, :]
        assert np.all(np.abs(got[:, s] - ref) <= 2.0 * (2 * D**2 + n + D) * u * mass), s
    empty = operators._anterpolate(np.empty(0), np.empty((2, 0)), np.empty(0, dtype=int))
    assert empty.shape == (2, 0, k)


def test_step_values_hold_no_array_of_every_degree():
    """On the integers' resolved range (L = 2 pi, J = 2e5 jumps up to
    x = 2e5) _step_values peaks under 20 J doubles traced, below the 34 J
    that an array of all 17 degrees of (da, db) would take alone (measured:
    15.2 J). The whole route at eps = 0.1, N = 8 peaks under 30 MiB
    (measured: 20.3 MiB; 66.3 MiB with such an array)."""
    S, L, N = tr.source_integers(), 2.0 * math.pi, 8
    edges, a_end = operators._grid_edges(L, N, 0.1, [S.tail])
    n_res = int(np.searchsorted(edges, a_end))
    xs, _ = operators._gl_nodes_on(edges[:n_res], edges[1 : n_res + 1])
    J = S.jumps_upto(math.exp(edges[n_res] / (L / 2.0)))[0].size
    assert J == 200_000
    tracemalloc.start()
    try:
        operators._step_values(S, L, 0.1, edges[: n_res + 1], xs)
        step_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assemble_frequency_route([S], IntervalSpec(L), 0.1, N)
        route_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert step_peak <= 20 * 8 * J
    assert route_peak <= 30 * 2**20


def test_the_resolved_range_never_reads_the_prime_table(big_table, monkeypatch):
    """The pnt source declares its jumps, so the frequency route reads the
    table only past a_end = 153.4, and fn reads it only below u_cap: at
    N = 72 the eps = 0 diagonals and the eps = 0.05 route both read the
    1,991 of the 2,096 nodes up to X = 235.6 that lie below
    (L/2) u_cap = 231.5; the tail check's u_t, u_t + 1 and u_t + 10 lie
    past u_cap, where fn is the stated tail and reads no table. The source
    reads g(u_cap) once when it is built, for its stated tail."""
    from tauberlab import tauber

    reads = []
    count = big_table.count
    monkeypatch.setattr(big_table, "count", lambda x: reads.append(np.size(x)) or count(x))
    S, I, N = tr.source_primes_weighted(big_table), IntervalSpec(tauber.DEFAULT_LENGTH), tauber.PNT_ORDER
    assert reads == [1]
    reads.clear()
    diagonal_sequence([S], I, 0.0, N)
    assert sorted(reads) == [0, 1_991]
    reads.clear()
    assemble_frequency_route([S], I, 0.05, N)
    assert sorted(reads) == [0, 1_991]


_TAIL_SOURCES = {**_CLOSED_FORM_SOURCES, "weighted_primes": None}


@pytest.mark.parametrize("name", list(_TAIL_SOURCES))
def test_moving_the_grid_end_changes_no_entry(name, small_table, monkeypatch):
    """Every source's tail past X is added in closed form at every eps, so
    moving X out by 300 changes no entry of the matrix or the diagonals by
    more than 1e-14 (eps = 0, 0.001, 0.05; L = 2 pi, 8 pi, 8 pi + 0.37),
    for every catalog source and for weighted primes on the 1e5 table at
    an N under its N_max."""
    S = _TAIL_SOURCES[name]() if _TAIL_SOURCES[name] else tr.source_primes_weighted(small_table)
    cutoff = operators._cutoff
    for L in (2.0 * math.pi, 8.0 * math.pi, 8.0 * math.pi + 0.37):
        I, N = IntervalSpec(L), (8 if L < 7.0 else 32)
        for eps in (0.0, 0.001, 0.05):
            monkeypatch.setattr(operators, "_cutoff", cutoff)
            W, d = assemble_frequency_route([S], I, eps, N)[0].entries, diagonal_sequence([S], I, eps, N)[0]
            monkeypatch.setattr(operators, "_cutoff", lambda *args: cutoff(*args) + 300.0)
            assert np.max(np.abs(assemble_frequency_route([S], I, eps, N)[0].entries - W)) <= 1e-14, (L, eps)
            assert np.max(np.abs(diagonal_sequence([S], I, eps, N)[0] - d)) <= 1e-14, (L, eps)


def test_the_pnt_diagonals_end_where_the_source_freezes(big_table, monkeypatch):
    """At eps = 0 the pnt grid ends at X = pi (N + 3) = 235.6, past
    x_cap = 231.5 where the 1e8 table freezes g; a grid out to
    X = pi N + 500 gives the same diagonals."""
    from tauberlab import tauber

    S, I, N = tr.source_primes_weighted(big_table), IntervalSpec(tauber.DEFAULT_LENGTH), tauber.PNT_ORDER
    assert _cutoff(S, I.length, N) == math.pi * (N + 3)
    diag = diagonal_sequence([S], I, 0.0, N)[0]
    monkeypatch.setattr(operators, "_cutoff", lambda tails, L, N: math.pi * N + 500.0)
    assert np.max(np.abs(diagonal_sequence([S], I, 0.0, N)[0] - diag)) <= 1e-14


def _tail_by_quadrature(X, N, coef, gamma, p, span=400.0):
    """F and D of one tail term on [X, X + span] by 16-node Gauss-Legendre
    on panels 1/2 wide, each sum taken with math.fsum."""
    edges = np.linspace(X, X + span, int(2 * span) + 1)
    xs, ws = operators._gl_nodes_on(edges[:-1], edges[1:])
    f = coef * np.exp(-gamma * xs) * np.sin(xs) ** 2 * ws
    f = (f if p is None else f / (xs + p)).real
    ks = math.pi * np.arange(N + 1)
    F = [math.fsum(f * (1.0 / (xs - k) - 1.0 / (xs + k))) for k in ks]
    D = [math.fsum(f * (1.0 / (xs - k) ** 2 + 1.0 / (xs + k) ** 2)) for k in ks]
    return np.array(F), np.array(D)


@pytest.mark.parametrize(
    "coef,gamma,p",
    [
        (1.0, 0.0, None),  # constant: the beta = 0 piece as a difference of logs
        (0.7, 0.05, None),  # damped
        (-0.5j, -0.08j, None),  # oscillating (log_oscillation)
        (0.3 + 0.2j, 0.04 - 0.1j, None),
        (1.0, -2.0j, None),  # gamma + 2i = 0: a second beta = 0 piece
        (1.0, 0.0, 4.0 * math.pi),  # a pole on the centre -4 pi (slow_approach at L = 8 pi)
        (1.0, 0.02, 4.0 * math.pi - 0.6),  # within 1 of it: the divided difference
        (1.0, 0.0, 7.3),  # partial fractions
        (2.0, 0.01, 0.4),  # within 1 of the centre 0
    ],
)
def test_each_tail_term_matches_quadrature(coef, gamma, p):
    """_tail_integrals at X minus its value at X + 400 against a 16-node
    Gauss-Legendre sum over [X, X + 400], every F and D within 1e-15."""
    N = 12
    X = math.pi * (N + 3) + 0.731
    F0, D0 = operators._tail_integrals(X, N, [(0, coef, gamma, p)], 1)
    F1, D1 = operators._tail_integrals(X + 400.0, N, [(0, coef, gamma, p)], 1)
    F, D = _tail_by_quadrature(X, N, coef, gamma, p)
    assert np.max(np.abs(F0[:, 0] - F1[:, 0] - F)) <= 1e-15
    assert np.max(np.abs(D0[:, 0] - D1[:, 0] - D)) <= 1e-15


@pytest.mark.parametrize("name", list(_TAIL_SOURCES))
def test_the_tail_terms_are_g(name, small_table):
    """Re sum of the stated tail terms equals g on [u_t, u_t + 50] to 1e-14
    relative, g read from fn; a table-backed source's tail is g(u_cap),
    which its fn holds past u_cap."""
    S = _TAIL_SOURCES[name]() if _TAIL_SOURCES[name] else tr.source_primes_weighted(small_table)
    u_t, terms = S.tail
    u = np.linspace(u_t, u_t + 50.0, 1001)
    tail = sum(c * np.exp(-lam * u) / (u + b[0] if b else 1.0) for c, lam, *b in terms).real
    g = S.fn(u)
    assert np.max(np.abs(tail - g) / np.abs(g)) <= 1e-14
    assert operators._tail_of(S) == (u_t, terms)  # the route's own check passes


def test_the_battery_grid_does_not_depend_on_eps(monkeypatch):
    """The battery's grid at N = 64 ends at X = 67 pi and holds 1,920 nodes
    at eps = 0.001, 0.05 and 0: 20 fine panels up to a_end = 4 pi, where
    the single jump's tail starts, then panels growing to width 2, for no
    rate |lam + eps| / (L/2) of its tails reaches 4, where the width cap
    would fall under 2."""
    from tauberlab import tauber

    battery, I = [S for S, *_ in tauber.battery_members()], IntervalSpec(8 * math.pi)
    sizes = []
    for eps in (0.0, 0.05, 0.001):
        grids = _route_grids(monkeypatch, lambda: diagonal_sequence(battery, I, eps, 64))
        sizes.append(grids[0][0].size)
    assert sizes == [1_920] * 3


@pytest.mark.parametrize(
    "route,L,N,eps,source",
    [
        ("frequency", 1e-9, 2, 0.0, tr.source_integers),  # fine panels 2.5e-11 wide
        ("frequency", 0.03, 64, 0.0, tr.source_integers),  # 4,491,296 nodes
        ("frequency", 1e6, 2, 0.05, tr.source_integers),  # X = 5e5 u_t = 1.8e7
        ("kernel", 1e6, 2, 0.05, tr.source_identity),  # 2 x 10^6 body panels 0.5 wide
    ],
)
def test_a_grid_past_the_node_cap_is_refused_before_it_is_built(route, L, N, eps, source, monkeypatch):
    """Each route counts its nodes from the panel widths it would lay and
    refuses more than 4,000,000 with a ResourceError before any grid array
    exists: in _grid_edges before any edge is laid (at L = 1e-9 the edge
    array would hold about 6e11 entries), and in _kernel_grid before any
    node."""

    def no_grid(*args):
        raise AssertionError("grid built")

    for name in ("_gl_nodes_on", "OuterGrid"):
        monkeypatch.setattr(operators, name, no_grid)
    run = {"frequency": assemble_frequency_route, "kernel": assemble_kernel_route}[route]
    with pytest.raises(ResourceError, match="past the cap of 4,000,000"):
        run([source()], IntervalSpec(L), eps, N)
    if route == "frequency":
        with pytest.raises(ResourceError, match="past the cap of 4,000,000"):
            diagonal_sequence([source()], IntervalSpec(L), eps, N)


def test_grids_under_the_node_cap_run_at_extreme_lengths():
    """The kernel route at L = 1e-9 lays N body panels L/N wide and no head
    (eps is past that width), and the frequency route at L = 1e6 lays
    panels growing from pi/2 to 2 wide to X = 5 pi for the identity, and
    at L = 0.03, N = 64, where the integers' fine lobe panels pass the
    cap, panels growing from 1.5e-3 to 2 wide: all run."""
    S = tr.source_identity()
    assert np.all(np.isfinite(assemble_kernel_route([S], IntervalSpec(1e-9), 0.05, 2)[0].entries))
    assert np.all(np.isfinite(assemble_frequency_route([S], IntervalSpec(1e6), 0.0, 2)[0].entries))
    assert np.max(np.abs(diagonal_sequence([S], IntervalSpec(0.03), 0.0, 64)[0] - 1.0)) <= 1e-13


@pytest.mark.parametrize("L", [1e-9, 1e-6])
def test_the_frequency_grid_stops_where_the_damping_underflows(L):
    """At eps = 0.05 the cap-wide run ends at 746 (L/2) / eps, where
    e^{-eps u} is 0.0, and one panel closes the grid to X = 11 pi: the
    identity runs on 2,256 nodes, where the run to X asked for 6.91e9
    (L = 1e-9) and 6.91e6 (L = 1e-6) and was refused. Every entry agrees
    with the kernel route within 1e-13 max |W|."""
    S, I = tr.source_identity(), IntervalSpec(L)
    edges, _ = operators._grid_edges(L, 8, 0.05, [S.tail])
    assert edges[-2] == 746.0 * (L / 2.0) / 0.05 and edges[-1] == 11.0 * math.pi
    assert 16 * (edges.size - 1) == 2_256
    Wf = assemble_frequency_route([S], I, 0.05, 8)[0].entries
    Wk = assemble_kernel_route([S], I, 0.05, 8)[0].entries
    assert np.max(np.abs(Wf - Wk)) <= 1e-13 * np.max(np.abs(Wk))


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------


def test_symmetry_realness_positivity():
    cases = [
        assemble_frequency_route([tr.source_integers()], L2PI, 0.1, 8)[0],
        assemble_kernel_route([tr.source_sqrt_mix(1.0, 1.0)], L2PI, 0.05, 4)[0],
        assemble_frequency_route([tr.source_slow_approach()], IntervalSpec(8 * math.pi), 0.05, 8)[0],
    ]
    for W in cases:
        assert W.entries.dtype == np.float64
        assert np.array_equal(W.entries, W.entries.T)
        eigs = np.linalg.eigvalsh(W.entries)
        assert eigs.min() >= -1e-8, W.source


def test_plancherel_normalization():
    W = assemble_frequency_route([tr.source_identity()], L2PI, 0.0, 16)[0]
    assert np.max(np.abs(W.diagonal() - 1.0)) < 1e-8


@pytest.mark.parametrize("L,N", [(8 * math.pi, 72), (8 * math.pi, 8), (2 * math.pi, 64)])
def test_identity_truncation_is_the_identity(L, N):
    """At eps = 0 the frequency route's truncation of w = 1 is Id to
    rounding, off the diagonal too (measured 6.7e-16 to 9.99e-16), and
    the parity blocks give every eigenvalue within 4e-15 of 1 (measured at
    most 2.9e-15)."""
    W = assemble_frequency_route([tr.source_identity()], IntervalSpec(L), 0.0, N)[0]
    assert np.max(np.abs(W.entries - np.eye(2 * N + 1))) <= 1e-15
    assert np.max(np.abs(spectrum(W) - 1.0)) <= 4e-15


def _dense_form(L, eps, N, u0, va, vb=math.inf):
    """(1/pi) int w phi_m phi_n dx over the real line for the even weight
    w = e^{u0 - v} e^{-eps v} on va <= v = 2|x|/L <= vb (0 elsewhere),
    phi_n(x) = sin(x - pi n)/(x - pi n), m, n = -N..N: 16-point
    Gauss-Legendre on panels of width pi/8. A weight on all of v >= va is
    cut off where it has fallen by e^-52."""
    rate = 2.0 * (1.0 + eps) / L  # w = e^{u0 - (1 + eps) v}, v = rate x / (1 + eps)
    xa = L * va / 2.0
    xb = L * vb / 2.0 if vb < math.inf else xa + 52.0 / rate
    h = math.pi / 8.0
    P = math.ceil((xb - xa) / h)
    h = (xb - xa) / P
    t, wt = np.polynomial.legendre.leggauss(16)
    x = (xa + h * (np.arange(P)[:, None] + (t + 1.0) / 2.0)).ravel()
    wq = np.tile(wt * h / 2.0, P) * np.exp(u0 - rate * x)
    M = np.zeros((2 * N + 1, 2 * N + 1))
    for side in (x, -x):
        phi = np.sinc(side[:, None] / math.pi - np.arange(-N, N + 1))
        M += phi.T @ (wq[:, None] * phi)
    return M / math.pi


@pytest.mark.parametrize("N,u0", [(72, 8.0), (72, 11.0), (8, 14.0)])
def test_the_forms_of_exponential_weights_are_single_jump_truncations(N, u0):
    """The form of e^{u0 - v} e^{-eps v} on v >= u0 (B+ of ROADMAP item 6)
    is the frequency-route truncation of source_single_jump(e^u0, e^u0),
    whose g is that weight over e^{-eps v}; on [u0 - 3, u0] (B-) it is the
    difference of two such jumps. So the forms need no weight entry of
    their own. At L = 8 pi, eps = 0.05, with each jump resolved by the
    route or at its grid end X, they meet a dense quadrature within 1e-14
    max(1, max|M|) (measured: 2.6e-15 for B+, where max|M| <= 0.48, and
    1.4e-14 for B-, where max|M| = 11.2)."""
    L, eps = 8.0 * math.pi, 0.05
    I = IntervalSpec(L)

    def jump(at):
        return assemble_frequency_route([tr.source_single_jump(math.exp(u0), math.exp(at))], I, eps, N)[0].entries

    for got, want in (
        (jump(u0), _dense_form(L, eps, N, u0, u0)),
        (jump(u0 - 3.0) - jump(u0), _dense_form(L, eps, N, u0, u0 - 3.0, u0)),
    ):
        assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


def test_poisson_split_at_matrix_level():
    """W(integer count) - W(linear) equals the operator built from the
    entire remainder alone, entry by entry."""
    psi_src = GrowthFunction(
        label="entire_remainder",
        fn=np.zeros_like,
        growth_constant=1.0,
        laplace=lambda s: psi_entire(s),
    )
    eps, N = 0.1, 3
    Wn = assemble_kernel_route([tr.source_integers()], L2PI, eps, N)[0]
    Wx = assemble_kernel_route([tr.source_identity()], L2PI, eps, N)[0]
    Wp = assemble_kernel_route([psi_src], L2PI, eps, N)[0]
    assert np.max(np.abs((Wn.entries - Wx.entries) - Wp.entries)) < 1e-6


# ---------------------------------------------------------------------------
# diagonals
# ---------------------------------------------------------------------------


def test_diagonal_sequence_matches_assembly():
    """Both entry points read one grid with one cutoff, so the diagonals
    agree exactly, undamped and damped."""
    from tauberlab.tauber import battery_members

    for S in [tr.source_integers()] + [m[0] for m in battery_members()]:
        for eps in (0.0, 0.1):
            ds = diagonal_sequence([S], L2PI, eps, 8)[0]
            W = assemble_frequency_route([S], L2PI, eps, 8)[0]
            assert np.array_equal(ds, W.diagonal()[8:]), (S.label, eps)


def test_diagonal_limit_against_direct_quadrature():
    """eps = 0 diagonals of the split operator, oracle = adaptive quadrature
    of the damped window integral (h(u) = e^{-u/2} for the sqrt mix)."""
    I8 = IntervalSpec(8 * math.pi)
    got = diagonal_sequence([tr.source_sqrt_mix(1.0, 1.0)], I8, 0.0, 8)[0] - 1.0
    L = I8.length

    def integrand(x, n):
        dm, dp = x - math.pi * n, x + math.pi * n
        sm, sp = np.sinc(dm / math.pi), np.sinc(dp / math.pi)
        return math.exp(-x / L) * (sm * sm + sp * sp)

    for n in (0, 3, 8):
        oracle, _ = quad(integrand, 0, 4000, args=(n,), limit=4000)
        oracle /= math.pi
        assert got[n] == pytest.approx(oracle, abs=5e-7)


def test_an_empty_batch_gives_an_empty_array():
    """No sources: a (0, n_max + 1) array, as assemble_kernel_route([])
    gives []; the eps and order checks still run."""
    for eps in (0.0, 0.05):
        out = diagonal_sequence([], L2PI, eps, 6)
        assert out.shape == (0, 7) and out.dtype == np.float64
    assert assemble_kernel_route([], L2PI, 0.05, 6) == []
    with pytest.raises(DomainError):
        diagonal_sequence([], L2PI, -1.0, 6)
    with pytest.raises(ContractError):
        diagonal_sequence([], L2PI, 0.0, 257)


def test_diagonal_sequence_guards():
    S = tr.source_identity()
    with pytest.raises(DomainError):
        diagonal_sequence([S], L2PI, -0.1, 4)
    with pytest.raises(DomainError):
        assemble_frequency_route([S], L2PI, -0.1, 4)
    with pytest.raises(ContractError):
        diagonal_sequence([S], L2PI, 0.1, -1)


# ---------------------------------------------------------------------------
# split, spectrum, weak limit
# ---------------------------------------------------------------------------


def test_split_identity_bookkeeping():
    W = assemble_frequency_route([tr.source_integers()], L2PI, 0.1, 4)[0]
    P = split_identity(W, 1.0)
    assert P.A == 1.0
    for a in (1.0, -0.37, 0.0):
        assert np.array_equal(split_identity(W, a).entries, W.entries - a * np.eye(9))
    assert np.allclose(P.diagonal(), W.diagonal() - 1.0)
    # A records the total multiple of the identity removed, header included
    PP = split_identity(P, 0.5)
    assert PP.A == 1.5
    assert PP.csv_text().splitlines()[0].endswith(", A=1.5")
    assert np.array_equal(PP.entries, P.entries - 0.5 * np.eye(9))
    # the split copies: W keeps its moments and its A
    assert W.A == 0.0 and np.array_equal(W.diag, assemble_frequency_route([tr.source_integers()], L2PI, 0.1, 4)[0].diag)
    with pytest.raises(ContractError):
        split_identity(W, float("nan"))


@pytest.mark.parametrize("route", ["kernel", "frequency"])
def test_diagonal_is_the_diagonal_of_entries(route):
    """diagonal() reads diag[|n|] off the moments, bit for bit the
    diagonal that _matrix_from_moments writes."""
    assemble = assemble_kernel_route if route == "kernel" else assemble_frequency_route
    for N in (0, 1, 8):
        W = assemble([tr.source_integers()], L2PI, 0.1, N)[0]
        for W in (W, split_identity(W, 0.73)):
            assert np.array_equal(W.diagonal(), np.diag(W.entries)), (route, N)


def _truncation(odd, diag):
    return operators.OperatorTruncation(
        interval=L2PI, epsilon=0.1, odd=np.asarray(odd, dtype=float), diag=np.asarray(diag, dtype=float),
        source="test", route="test",
    )


@pytest.mark.parametrize(
    "odd, diag, match",
    [
        ([0.0, 1.0], [1.0, math.nan], "not all finite"),
        ([0.0, math.inf], [1.0, 2.0], "not all finite"),
        ([0.0, 1.0], [1.0, 2.0, 3.0], "one length"),
        ([[0.0, 1.0]], [[1.0, 2.0]], "1-d"),
        ([], [], r"N \+ 1 >= 1"),
    ],
    ids=["nan-diag", "inf-odd", "mismatched", "2-d", "empty"],
)
def test_truncation_refuses_bad_moments(odd, diag, match):
    with pytest.raises(ContractError, match=match) as ei:
        _truncation(odd, diag)
    assert ei.value.code == "contract"


@pytest.mark.parametrize("N", [0, 1, 8])
@pytest.mark.parametrize("route, eps", [("kernel", 0.05), ("frequency", 0.0), ("frequency", 0.05)])
def test_W_commutes_with_the_reflection(route, eps, N, small_table):
    """The kernel is even, so W commutes with n -> -n: each truncation is
    centrosymmetric bit for bit, W and W - A Id alike, which spectrum's
    split into even and odd blocks needs."""
    assemble = assemble_kernel_route if route == "kernel" else assemble_frequency_route
    I = IntervalSpec(8.0 * math.pi)
    for S in [*_BATTERY.values(), tr.source_primes_weighted(small_table)]:
        W = assemble([S], I, eps, N)[0]
        for M in (W.entries, split_identity(W, 0.73).entries):
            assert np.array_equal(M, M[::-1, ::-1]), (S.label, route, N, eps)


def test_spectrum_sorted_by_magnitude():
    # odd = 0: M is diag(1, -2, 3, -2, 1)
    T = _truncation([0.0, 0.0, 0.0], [3.0, -2.0, 1.0])
    assert np.array_equal(T.entries, np.diag([1.0, -2.0, 3.0, -2.0, 1.0]))
    assert np.allclose(spectrum(T), [3.0, -2.0, -2.0, 1.0, 1.0])
    W = assemble_frequency_route([tr.source_identity()], L2PI, 0.1, 4)[0]
    sw = spectrum(W)
    assert sw.shape == (9,)
    assert np.all(np.abs(sw[:-1]) >= np.abs(sw[1:]) - 1e-15)


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
    # two eps give one delta and no ratio: no verdict, even for a source
    # whose g has no limit
    with pytest.raises(ContractError, match="at least three"):
        weak_limit_diagnostic(tr.source_log_oscillation(0.5), IntervalSpec(8 * math.pi), 8, (0.2, 0.1))
    for sched in ((0.1, 0.2, 0.05), (0.2, 0.1, 0.0)):
        with pytest.raises(ContractError, match="strictly decreasing and positive"):
            weak_limit_diagnostic(tr.source_identity(), L2PI, 4, sched)


def test_weak_limit_diagnostic_reaches_small_eps():
    """The schedule halves eps down to 0.00625 and each step moves W by
    less."""
    rep = weak_limit_diagnostic(
        tr.source_integers(), IntervalSpec(8 * math.pi), 16, (0.05, 0.025, 0.0125, 0.00625)
    )
    assert len(rep.deltas) == 3
    assert np.all(np.isfinite(rep.deltas)) and np.all(np.diff(rep.deltas) < 0), rep.deltas


def test_weak_limit_diagnostic_runs_to_eps_1e_3(monkeypatch):
    """Every eps lays the eps = 0 grid, so a schedule halving eps from 0.016
    to 0.001 costs five eps = 0 assemblies. W(eps) - W(0) is O(eps) for
    sqrt_mix, so each step moves W about half as much as the one before,
    and the last W lies within about the last step of W(0)."""
    S, I, sched = tr.source_sqrt_mix(1.0, 1.0), IntervalSpec(8 * math.pi), (0.016, 0.008, 0.004, 0.002, 0.001)
    grids = _route_grids(monkeypatch, lambda: weak_limit_diagnostic(S, I, 16, sched))
    assert len({xs.size for xs, _, _ in grids}) == 1 and len(grids) == len(sched)
    rep = weak_limit_diagnostic(S, I, 16, sched)
    assert np.all((rep.ratios > 1.9) & (rep.ratios < 2.0)) and rep.cauchy, rep.ratios
    W0 = assemble_frequency_route([S], I, 0.0, 16)[0].diagonal()
    assert np.max(np.abs(rep.final_diagonal - W0)) <= 1.1 * rep.deltas[-1]


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
        assemble_frequency_route([S], L2PI, 0.1, 257)
    with pytest.raises(ContractError):
        assemble_kernel_route([S], L2PI, 0.1, 257)
    for eps in (0.0, 0.1):
        with pytest.raises(ContractError, match=r"\[0, 256\]"):
            diagonal_sequence([S], L2PI, eps, 257)


def test_a_non_integer_order_is_refused():
    """Every entry point refuses N = 3.5 up front (unchecked, the kernel
    route labels a 9 x 9 matrix order 3.5 and the frequency route fails
    with a TypeError deep inside); a numpy integer passes."""
    S = tr.source_identity()
    for run in (
        lambda N: assemble_kernel_route([S], L2PI, 0.05, N)[0].entries,
        lambda N: assemble_frequency_route([S], L2PI, 0.05, N)[0].entries,
        lambda N: diagonal_sequence([S], L2PI, 0.0, N)[0],
    ):
        with pytest.raises(ContractError, match="must be an integer, got 3.5"):
            run(3.5)
        assert np.array_equal(run(np.int64(3)), run(3))


def test_csv_round_trip(tmp_path):
    W = assemble_frequency_route([tr.source_integers()], L2PI, 0.1, 3)[0]
    path = tmp_path / "w.csv"
    _atomic_write(path, W.csv_text())
    R = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    assert np.array_equal(R, W.entries)  # %.17g is lossless for float64
    header = path.read_text().splitlines()[0]
    assert header == (
        f"# tauberlab-matrix v1, L={L2PI.length!r}, eps=0.1, N=3, "
        "source=integer_count, route=frequency_formula, A=0.0"
    )
    assert W.csv_text() == W.csv_text()


def test_csv_text_from_numpy_scalars_is_the_text_from_python_scalars():
    """L, eps and A as numpy floats and N as a numpy integer write the
    bytes Python scalars do: header floats as repr(float(v)), never as
    np.float64(...)."""

    def text(L, eps, N, A):
        W = assemble_frequency_route([tr.source_integers()], IntervalSpec(L), eps, N)[0]
        return split_identity(W, A).csv_text()

    want = text(2.0 * math.pi, 0.1, 3, 0.5)
    assert text(np.float64(2.0 * math.pi), np.float64(0.1), np.int64(3), np.float64(0.5)) == want
    assert want.splitlines()[0].endswith(", A=0.5")


@pytest.mark.parametrize(
    "factory", [lambda: tr.source_sqrt_mix(1.0, 1.0), tr.source_single_jump]
)
def test_csv_round_trip_keeps_multi_parameter_labels(factory, tmp_path):
    """Labels such as sqrt_mix(a=1,b=1) carry commas; the header must keep them whole."""
    W = split_identity(assemble_frequency_route([factory()], L2PI, 0.1, 2)[0], 0.5)
    path = tmp_path / "w.csv"
    _atomic_write(path, W.csv_text())
    R = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    header = path.read_text().splitlines()[0]
    assert "," in W.source
    assert header.endswith(f", source={W.source}, route={W.route}, A={W.A!r}")
    assert np.array_equal(R, W.entries)
