"""Transforms: closed forms vs quadrature vs exact step sums, with certified tails.

The quadrature is the brute-force oracle of these tests: it integrates
S(e^u) e^{-su} with S(e^u) = e^u g(u) read off the source itself, so it
checks each closed form independently of the source's transform and of its
declared jumps."""

import math

import numpy as np
import pytest

from tauberlab import operators, special
from tauberlab import transform as tr
from tauberlab.arith import GrowthFunction, build_prime_table
from tauberlab.errors import ContractError, DomainError
from tauberlab.operators import _GL16, _STEP_RESOLVE_CAP, _gl_nodes_on
from tauberlab.special import OuterGrid, _prep, _restore, psi_entire
from tauberlab.transform import (
    transform_integers,
    transform_primes,
    transform_weighted_primes,
)


def quadrature_tail_bound(S: GrowthFunction, s, U: float):
    """Certified bound on the integral dropped beyond u = U.

    S(e^u) <= C e^u gives tail <= C e^{-(sigma-1)U} (U + 1/(sigma-1))."""
    grid, shape = _prep(s)
    a = grid.points.real - 1.0
    bound = S.growth_constant * np.exp(-a * U) * (U + 1.0 / a)
    return float(bound[0]) if shape == () else bound.reshape(shape)


def _sampled_pieces(S: GrowthFunction, u_hi: float):
    """The jumps of S on (0, u_hi) as knots 0 = u_0 < u_1 < ... < u_m = u_hi
    in u = ln x, and per gap [u_j, u_{j+1}] the level and slope with
    S(e^u) = level + slope u there, read off e^u g(u) at the two interior
    points a third of the way in from each end. Only the abscissae come
    from jumps_upto; the declared da and db are not used."""
    lnx = np.log(S.jumps_upto(math.exp(u_hi))[0])
    knots = np.concatenate(([0.0], lnx[(lnx > 0.0) & (lnx < u_hi)], [u_hi]))
    third = np.diff(knots) / 3.0
    u1, u2 = knots[:-1] + third, knots[1:] - third
    s1, s2 = np.exp(u1) * S.g(u1), np.exp(u2) * S.g(u2)
    slope = (s2 - s1) / (u2 - u1)
    return knots, s1 - slope * u1, slope


def transform_quadrature(S: GrowthFunction, s, U: float = 18.0):
    """Brute-force G(s) by integrating S(e^u) e^{-su} over [0, U].

    On the jump-resolved range of a source that declares jumps, u up to
    min(U, ln _STEP_RESOLVE_CAP), the pieces between consecutive jumps are
    integrated exactly, with S(e^u) = a + b u
    read off the source by _sampled_pieces: that is exact for a constant
    piece (a counting function) and for a piece linear in u (a count times
    ln x, as pi_P(x) ln x). 16-point Gauss-Legendre on equal panels of width at most
    0.25 handles the rest.
    The dropped tail beyond U is NOT added to the result; its certified
    bound comes from quadrature_tail_bound."""
    grid, shape = _prep(s)
    flat = grid.points
    if not (U > 0) or not math.isfinite(U):
        raise DomainError("quadrature cutoff U must be positive and finite")
    if U > S.u_cap + 1e-12:
        raise DomainError(f"U = {U:g} exceeds u_cap = {S.u_cap:g} of source '{S.label}'")
    out = np.zeros(flat.size, dtype=complex)
    u_res = min(U, math.log(_STEP_RESOLVE_CAP)) if S.jumps_upto is not None else 0.0

    if u_res > 0.0:
        knots, level, slope = _sampled_pieces(S, u_res)
        # antiderivatives of e^{-su} and u e^{-su}: -e^{-su}/s, -e^{-su}(su + 1)/s^2
        with np.errstate(under="ignore"):
            su = np.multiply.outer(flat, knots)
            E = np.exp(-su)
            Eu = E * (su + 1.0)
            out += (E[:, :-1] - E[:, 1:]) @ level / flat
            out += (Eu[:, :-1] - Eu[:, 1:]) @ slope / flat**2

    if u_res < U:
        edges = np.linspace(u_res, U, max(1, math.ceil((U - u_res) / 0.25)) + 1)
        us, ws = _gl_nodes_on(edges[:-1], edges[1:])
        with np.errstate(under="ignore"):
            out += np.exp(-np.multiply.outer(flat, us)) @ (np.exp(us) * S.g(us) * ws)
    return _restore(out, shape)


def test_step_sum_is_the_exact_finite_transform(rng):
    S = tr.source_steps([2.0, 3.0, 5.0, 7.0], [1.0, 1.0, 1.0, 1.0], "primes_to_7")
    for _ in range(10):
        s = complex(rng.uniform(1.2, 3.0), rng.uniform(-10, 10))
        expect = sum(x ** (-s) for x in (2.0, 3.0, 5.0, 7.0)) / s
        assert abs(S.laplace(s) - expect) < 1e-13


def test_truncated_integers_bracket_the_closed_form(rng):
    """zeta(s)/s minus the finite step sum stays inside the certified tail
    C X^{1-sigma} (1/|s| + 1/(sigma-1)) of the integer count (C = 1), from
    integration by parts of the tail integral past the last breakpoint X."""
    X = 2000
    bps = np.arange(1.0, X + 1.0)
    S = tr.source_steps(bps, np.ones_like(bps), "integers_to_2000")
    for _ in range(20):
        s = complex(rng.uniform(1.5, 3.0), rng.uniform(-10, 10))
        gap = abs(transform_integers(s) - S.laplace(s))
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


def test_each_closed_form_prepares_s_once(monkeypatch):
    """The zeta family checks and shapes s; a closed form hands s on as
    it came, so one call prepares it once, as a step source's exact sum,
    an evaluator itself, does."""
    calls = []

    def counted(s):
        calls.append(s)
        return _prep(s)

    monkeypatch.setattr(special, "_prep", counted)
    monkeypatch.setattr(tr, "_prep", counted)
    step = tr.source_steps(np.array([2.0, 3.0]), np.array([1.0, 1.0]), "steps")
    for f in (
        transform_integers,
        transform_primes,
        transform_weighted_primes,
        step.laplace,
    ):
        calls.clear()
        f(np.array([2.0 + 1j, 3.0]))
        assert len(calls) == 1, f


@pytest.mark.parametrize(
    "s",
    [
        1.5 + 2.0j,
        np.array([[1.01, 2.0 + 5.0j, 3.0 - 40.0j], [1.2, complex(1.3, -0.0), 7.0]]),
        1.05 + 1j * OuterGrid([(np.linspace(-30.0, 30.0, 7), np.linspace(0.0, 1.0, 3))]),
        1.05 + 1j * OuterGrid([(np.linspace(0.0, 0.3, 5), [0.0]), (np.linspace(1.0, 30.0, 4), np.linspace(0.0, 1.0, 3))]),
    ],
    ids=["scalar", "array", "grid", "batch"],
)
def test_closed_forms_are_the_zeta_family_over_s(s):
    """Each closed form is its zeta-family value divided by s, bit for bit,
    in the shape of its input, flat for a grid of one block or several; a
    scalar gives a complex."""
    z = np.asarray(s, dtype=complex)
    pz, pzd = special.prime_zeta_pair(s)
    for f, want in (
        (transform_integers, special.zeta(s) / z),
        (transform_primes, special.prime_zeta(s) / z),
        (transform_weighted_primes, (pz - z * pzd) / z**2),
    ):
        got = f(s)
        assert np.shape(got) == z.shape, f.__name__
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), f.__name__
        if z.ndim == 0:
            assert isinstance(got, complex), f.__name__


def test_quadrature_guards(small_table):
    S = tr.source_primes_weighted(small_table)
    with pytest.raises(DomainError):
        transform_quadrature(S, 2.0 + 0j, U=S.u_cap + 1.0)
    with pytest.raises(DomainError):
        transform_quadrature(S, 2.0 + 0j, U=-1.0)


# jumps a_j at x_j, all below e^10, and the points s of the exactness tests
_XJ = np.array([1.5, 2.0, 7.0, 40.0, 1000.0, 20000.0])
_AJ = np.array([0.5, 1.0, 2.0, 0.25, 3.0, 1.0])


def steps_times_log() -> GrowthFunction:
    """S(x) = step(x) ln x for the step a_j at x_j: linear in u = ln x
    between jumps, each adding a_j to the slope (da = 0, db = a_j)."""
    step = tr.source_steps(_XJ, _AJ, "steps")

    def jumps_upto(hi):
        x, a, zero = step.jumps_upto(hi)
        return x, zero, a

    return GrowthFunction("steps_ln", lambda u: step.fn(u) * u, 8.0, jumps_upto=jumps_upto)

_S_PTS = np.array([1.5 + 0.3j, 2.0 + 5.0j, 1.2 - 3.0j, 3.0 + 0.0j, 1.05 + 12.0j])


def test_quadrature_is_exact_on_constant_pieces():
    """A step source: the oracle on [0, 10] against the exact step sum minus
    its part past U = 10, S_tot e^{-sU}/s."""
    S = tr.source_steps(_XJ, _AJ, "steps")
    U, s = 10.0, _S_PTS
    expect = S.laplace(s) - _AJ.sum() * np.exp(-s * U) / s
    assert np.max(np.abs(transform_quadrature(S, s, U=U) - expect)) < 1e-12


def test_quadrature_is_exact_on_pieces_linear_in_u():
    """S(x) = step(x) ln x, linear in u = ln x between jumps: the oracle on
    [0, 10] against sum a_j x_j^{-s} (s ln x_j + 1)/s^2 - S_tot e^{-sU} (sU + 1)/s^2,
    the sum over j of the integrals of a_j u e^{-su} from ln x_j to U = 10."""
    S = steps_times_log()
    U, s = 10.0, _S_PTS
    sl = np.multiply.outer(s, np.log(_XJ))
    expect = (np.exp(-sl) * (sl + 1.0)) @ _AJ / s**2
    expect -= _AJ.sum() * np.exp(-s * U) * (s * U + 1.0) / s**2
    assert np.max(np.abs(transform_quadrature(S, s, U=U) - expect)) < 1e-12


@pytest.mark.parametrize(
    "build",
    [
        lambda: tr.source_sqrt_mix(-1.0, 1.0),
        lambda: tr.source_sqrt_mix(0.0, 0.0),
        lambda: tr.source_log_oscillation(0.8),
        lambda: tr.source_single_jump(0.0),
        lambda: tr.source_single_jump(3.0, 0.5),
    ],
    ids=["sqrt_mix(-1,1)", "sqrt_mix(0,0)", "log_oscillation(0.8)", "single_jump(0)", "single_jump(3,0.5)"],
)
def test_catalog_parameters_outside_their_range_are_refused(build):
    """Each would make S negative, decreasing or zero: a DomainError."""
    with pytest.raises(DomainError) as ei:
        build()
    assert ei.value.code == "domain"


# ---------------------------------------------------------------------------
# step sources
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "bp, jp, message",
    [
        ([], [], "at least one breakpoint"),
        ([2.0, 2.0], [1.0, 1.0], "strictly increasing and >= 1"),
        ([0.5], [1.0], "strictly increasing and >= 1"),
        ([2.0], [-1.0], "strictly positive"),
        ([2.0], [0.0], "strictly positive"),
        ([2.0, 3.0], [1.0], "1-d arrays of equal length"),
        ([[2.0]], [[1.0]], "1-d arrays of equal length"),
        ([2.0, np.nan], [1.0, 1.0], "finite"),
        ([2.0, np.inf], [1.0, 1.0], "finite"),
        ([2.0, 3.0], [1.0, np.nan], "finite"),
        ([2.0, 3.0], [np.inf, 1.0], "finite"),
    ],
    ids=["empty", "repeated", "below_1", "negative_jump", "zero_jump", "length_mismatch",
         "not_1d", "nan_x", "inf_x", "nan_jump", "inf_jump"],
)
def test_step_source_contract_errors(bp, jp, message):
    with pytest.raises(ContractError, match=message) as ei:
        tr.source_steps(bp, jp, "steps")
    assert ei.value.code == "contract"


def test_step_source_declares_its_jumps_up_to_hi():
    S = tr.source_steps([1.0, 2.0, 4.0], [1.0, 2.0, 0.5], "steps")
    x, da, db = S.jumps_upto(3.9)
    assert (list(x), list(da), list(db)) == ([1.0, 2.0], [1.0, 2.0], [0.0, 0.0])
    x, da, db = S.jumps_upto(4.0)
    assert (list(x), list(da), list(db)) == ([1.0, 2.0, 4.0], [1.0, 2.0, 0.5], [0.0, 0.0, 0.0])
    assert S.jumps_upto(0.5)[0].size == 0


def test_each_source_takes_its_side_of_a_jump_at_u_ln_x(small_table):
    """One side rule for every jump source (GrowthFunction, jumps_upto):
    below its edge g reads S at x = e^u, so at u = ln 7, where e^u rounds
    below 7, the step source with breakpoints [7, 11] reads 0, as
    jumps_upto(e^u), the integer and the prime counts do. So does a source
    whose last breakpoint is 7: its tail, which counts the jump, starts one
    float past ln 7, where e^u reaches 7."""
    u = math.log(7.0)
    x = math.exp(u)
    assert x == 6.999999999999999
    steps = tr.source_steps([7.0, 11.0], [1.0, 1.0], "seven_eleven")
    assert steps.g(u) == 0.0
    assert steps.jumps_upto(x)[0].size == 0
    assert list(steps.jumps_upto(7.0)[0]) == [7.0]
    assert tr.source_integers().g(u) * x == pytest.approx(6.0, rel=1e-14)
    wprimes = tr.source_primes_weighted(small_table)
    assert wprimes.g(u) * x / math.log(x) == pytest.approx(3.0, rel=1e-14)
    assert list(wprimes.jumps_upto(x)[0]) == [2.0, 3.0, 5.0]
    edge = tr.source_steps([7.0], [1.0], "seven")
    u_t = math.nextafter(u, math.inf)
    assert edge.tail[0] == u_t and np.exp(u_t) >= 7.0
    assert edge.g(u) == 0.0 and edge.jumps_upto(x)[0].size == 0
    assert edge.g(u_t) == np.exp(-u_t)


@pytest.mark.parametrize("which", ["integers", "steps", "weighted_primes_1e6"])
def test_the_tail_starts_where_e_u_reaches_the_edge(which):
    """A jump source's tail counts its edge x_edge, so it starts at the
    least u with e^u >= x_edge (numpy's exp, which fn takes): past ln x_edge
    where e^{ln x_edge} rounds below x_edge, as at 2^52, 7 and 10^6."""
    S, x_edge = {
        "integers": lambda: (tr.source_integers(), 2.0**52),
        "steps": lambda: (tr.source_steps([7.0], [1.0], "seven"), 7.0),
        "weighted_primes_1e6": lambda: (tr.source_primes_weighted(build_prime_table(10**6)), 1e6),
    }[which]()
    u_t = S.tail[0]
    assert u_t > math.log(x_edge)
    assert np.exp(u_t) >= x_edge > np.exp(np.nextafter(u_t, 0.0))


@pytest.mark.parametrize("which", ["integers", "weighted_primes", "steps"])
def test_past_the_edge_fn_is_its_stated_tail_bit_for_bit(which, small_table):
    """Each jump source's fn on [u_t, u_t + 40] is its one stated tail term
    c e^{-lam u}, bit for bit, and the frequency route's tail check
    (operators._tail_of) accepts it."""
    S = {
        "integers": tr.source_integers,
        "weighted_primes": lambda: tr.source_primes_weighted(small_table),
        "steps": lambda: tr.source_steps([2.0, 7.0, 11.0], [1.0, 0.5, 3.0], "steps"),
    }[which]()
    u_t, ((c, lam),) = S.tail
    u = np.linspace(u_t, u_t + 40.0, 801)
    assert S.fn(u).tobytes() == (c * np.exp(-lam * u)).tobytes()
    assert operators._tail_of(S) == S.tail


@pytest.mark.parametrize("which", ["integers", "weighted_primes_1e5", "weighted_primes_1e8", "steps", "single_jump"])
def test_jump_fn_reads_each_side_only_where_it_holds(which, small_table, big_table):
    """A jump source's fn forms S(e^u)/e^u only below u_edge and the tail
    c e^{-lam u} only from u_edge on, and equals, bit for bit, the form that
    computes both at every u and picks one: on [0, u_edge + 5], at u_edge
    and its two float neighbours, and on 0-d input there."""
    xj, aj = np.array([2.0, 7.0, 11.0]), np.array([1.0, 0.5, 3.0])
    level = np.concatenate(([0.0], np.cumsum(aj)))
    S, count = {
        "integers": lambda: (tr.source_integers(), np.floor),
        "weighted_primes_1e5": lambda: (tr.source_primes_weighted(small_table),
                                        lambda x: small_table.count(x) * np.log(x)),
        "weighted_primes_1e8": lambda: (tr.source_primes_weighted(big_table), lambda x: big_table.count(x) * np.log(x)),
        "steps": lambda: (tr.source_steps(xj, aj, "steps"), lambda x: level[np.searchsorted(xj, x, side="right")]),
        "single_jump": lambda: (tr.source_single_jump(), lambda x: np.where(x >= math.e, 3.0, 0.0)),
    }[which]()
    u_edge, ((c, lam),) = S.tail

    def both(u):
        e = np.exp(np.minimum(u, u_edge))
        return np.where(u < u_edge, count(e) / e, c * np.exp(-lam * u))

    edge = [np.nextafter(u_edge, 0.0), u_edge, np.nextafter(u_edge, np.inf)]
    u = np.concatenate((np.linspace(0.0, u_edge + 5.0, 2001), edge))
    assert S.fn(u).tobytes() == both(u).tobytes()
    for v in edge:
        assert np.ndim(S.fn(np.array(v))) == 0
        assert S.fn(np.array(v)).tobytes() == both(np.array(v)).tobytes()


@pytest.mark.parametrize("h, x0",[(3.0, math.e), (2.0, 1.0), (1.0, 108.0), (1.0, 7.0)])
def test_single_jump_is_its_closed_form_bit_for_bit(h, x0):
    """The single jump is a step source that keeps the closed forms it had
    when it was written out by hand: g = h e^{-u} from u_t on, the least
    u >= u0 = ln x0 with e^u >= x0 (one float past u0 at x0 = 7, where
    e^{ln 7} rounds below 7), and below u_t the count at e^u over e^u: 0,
    or h/e^u where e^u rounds up to x0 (x0 = e at the u just below u0), as
    jumps_upto(e^u) counts. G(s) = h e^{-s u0} / s,
    on an array and on an outer grid 1 + eps + i x of 4,032 nodes x, 252
    uniform panels on [0, 8 pi] at eps = 0.05."""
    S = tr.source_single_jump(h, x0)
    u0 = math.log(x0)
    u_t = np.nextafter(u0, math.inf) if x0 == 7.0 else u0
    u = np.concatenate((np.linspace(0.0, 2.0 * u0 + 1.0, 41), [u0, u_t, np.nextafter(u0, 0.0), u0 + 1e-15]))
    below = np.where(np.exp(u) >= x0, h / np.exp(u), 0.0)
    assert S.g(u).tobytes() == np.where(u >= u_t, h * np.exp(-u), below).tobytes()
    assert S.g(u_t) == h * np.exp(-u_t)
    P, L = 252, 8.0 * math.pi
    half = L / (2 * P)
    grid = 1.0 + 0.05 + 1j * OuterGrid([((2 * np.arange(P) + 1) * half, half * _GL16[0])])
    z = np.asarray(grid, dtype=complex)
    assert S.laplace(grid).tobytes() == (h * np.exp(-z * u0) / z).tobytes()
    s = _S_PTS
    assert S.laplace(s).tobytes() == (h * np.exp(-s * u0) / s).tobytes()
    assert S.tail == (u_t, ((h, 1.0),))
    assert S.growth_constant == h / x0
    assert S.ratio_limit_A == 0.0
