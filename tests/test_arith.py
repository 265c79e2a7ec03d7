"""Counting layer: sieve vs trial division, step functions, growth ratios."""

import math

import numpy as np
import pytest

from tauberlab import transform as tr
from tauberlab.arith import (
    StepFunction,
    build_prime_table,
    chebyshev_weighted,
    count_integers,
    count_primes,
    default_cache_dir,
)
from tauberlab.errors import ContractError, DomainError, ResourceError, TableExhaustedError


def _trial_division_primes(limit):
    """The slowest correct sieve there is; the point is independence."""
    out = []
    for n in range(2, limit + 1):
        d = 2
        while d * d <= n:
            if n % d == 0:
                break
            d += 1
        else:
            out.append(n)
    return out


def _registered_sources(table):
    return [
        tr.source_identity(),
        tr.source_integers(),
        tr.source_primes_weighted(table),
        tr.source_sqrt_mix(2.0, 1.0),
        tr.source_sqrt_mix(1.0, 1.0),
        tr.source_log_oscillation(0.5),
        tr.source_single_jump(),
        tr.source_slow_approach(),
    ]


# ---------------------------------------------------------------------------
# sieve and counting
# ---------------------------------------------------------------------------


def test_sieve_matches_trial_division(small_table):
    oracle = _trial_division_primes(10_000)
    counts = np.searchsorted(oracle, np.arange(1, 10_001), side="right")
    for x in range(1, 10_001):
        assert count_primes(x, small_table) == counts[x - 1]


def test_prime_count_landmarks(small_table):
    # classical values, reproduced by the trial-division oracle above
    assert count_primes(100, small_table) == 25
    assert count_primes(10_000, small_table) == 1229
    assert count_primes(100_000, small_table) == 9592


def test_count_primes_rejects_bad_arguments(small_table):
    assert count_primes(1.5, small_table) == 0
    assert count_primes(0, small_table) == 0
    with pytest.raises(DomainError):
        count_primes(-3, small_table)
    with pytest.raises(DomainError):
        count_primes(float("nan"), small_table)
    with pytest.raises(TableExhaustedError) as ei:
        count_primes(1e7, small_table)
    assert ei.value.required >= 1e7


def test_integer_keys_match_the_float_keys(small_table):
    """count and primes_in search with int64 keys; the answers are those of
    the float keys at 0, below 0, on primes, half-way off them and at the limit."""
    primes = small_table.primes
    p = primes[[0, 1, 2, 100, 1000, -1]].astype(float)
    limit = float(small_table.limit)
    keys = np.concatenate(([0.0, -0.5, -3.0, -np.inf, 1.0, limit, limit - 0.5], p, p - 0.5, p + 0.5))
    assert np.array_equal(small_table.count(keys), np.searchsorted(primes, np.floor(keys), side="right"))
    for x in keys:
        assert small_table.count(x) == int(np.searchsorted(primes, np.floor(x), side="right"))
    for lo in keys:
        for hi in (0.0, -1.0, 30.5, 31.0, 7919.0, limit, np.inf):
            assert np.array_equal(
                small_table.primes_in(lo, hi), primes[(primes > lo) & (primes <= hi)]
            ), (lo, hi)
    with pytest.raises(DomainError):
        small_table.count(float("nan"))
    with pytest.raises(DomainError):
        small_table.count(np.array([2.0, np.nan]))
    with pytest.raises(DomainError):
        small_table.count(np.array([np.nan, 1e20]))
    for x in (np.inf, np.array([2.0, np.inf])):
        with pytest.raises(DomainError):
            small_table.count(x)
    with pytest.raises(DomainError):
        small_table.primes_in(float("nan"), 100.0)
    with pytest.raises(DomainError):
        small_table.primes_in(1.0, float("nan"))


def test_count_integers_is_floor_on_positives():
    xs = np.array([0.0, 0.5, 1.0, 1.999, 2.0, 1e6 + 0.25])
    assert np.array_equal(count_integers(xs), np.floor(xs))
    assert count_integers(3.0) == 3


def test_chebyshev_weighted_matches_direct_count(small_table):
    primes = np.array(_trial_division_primes(5000), dtype=float)
    for x in (2, 10, 97.5, 4999):
        expect = float((primes <= x).sum()) * math.log(x)
        assert math.isclose(chebyshev_weighted(x, small_table), expect, rel_tol=0, abs_tol=1e-9)
    assert chebyshev_weighted(1.5, small_table) == 0.0


def test_primes_in_window(small_table):
    oracle = [p for p in _trial_division_primes(200) if 50 < p <= 150]
    got = small_table.primes_in(50, 150)
    assert list(got) == oracle


# ---------------------------------------------------------------------------
# prime table persistence
# ---------------------------------------------------------------------------


def test_table_cache_round_trip(tmp_path):
    t1 = build_prime_table(10_000, cache_dir=tmp_path)
    files = list(tmp_path.glob("*.ptbl"))
    assert len(files) == 1
    t2 = build_prime_table(10_000, cache_dir=tmp_path)
    assert t2.limit == t1.limit
    assert count_primes(10_000, t2) == 1229


def test_corrupt_cache_is_rebuilt_not_trusted(tmp_path):
    build_prime_table(10_000, cache_dir=tmp_path)
    victim = next(tmp_path.glob("*.ptbl"))
    victim.write_bytes(b"not a prime table")
    t = build_prime_table(10_000, cache_dir=tmp_path)
    assert count_primes(10_000, t) == 1229


def test_table_limit_validation(tmp_path):
    with pytest.raises(DomainError):
        build_prime_table(1, cache_dir=tmp_path)
    with pytest.raises(ResourceError):
        build_prime_table(10**13, cache_dir=tmp_path)


def test_cache_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("TAUBERLAB_CACHE_DIR", str(tmp_path))
    assert default_cache_dir() == tmp_path


# ---------------------------------------------------------------------------
# step functions
# ---------------------------------------------------------------------------


def test_step_function_evaluation():
    S = StepFunction([1.0, 2.0, 4.0], [1.0, 2.0, 0.5])
    xs = np.array([0.5, 1.0, 1.5, 2.0, 3.9, 4.0, 100.0])
    assert np.allclose(S(xs), [0.0, 1.0, 1.0, 3.0, 3.0, 3.5, 3.5])
    assert list(S.breakpoints_in(1.0, 4.0)) == [2.0, 4.0]


def test_step_function_contract_errors():
    with pytest.raises(ContractError):
        StepFunction([], [])
    with pytest.raises(ContractError):
        StepFunction([2.0, 2.0], [1.0, 1.0])  # not strictly increasing
    with pytest.raises(ContractError):
        StepFunction([0.5], [1.0])  # breakpoint below 1
    with pytest.raises(ContractError):
        StepFunction([2.0], [-1.0])  # negative jump
    with pytest.raises(ContractError):
        StepFunction([2.0, 3.0], [1.0])  # length mismatch


# ---------------------------------------------------------------------------
# growth-function properties (seeded, vectorized)
# ---------------------------------------------------------------------------


def test_every_source_is_monotone(small_table, rng):
    for S in _registered_sources(small_table):
        hi = math.exp(min(S.u_cap, 13.0))
        a = rng.uniform(0.0, hi, size=1000)
        b = rng.uniform(0.0, hi, size=1000)
        x, y = np.minimum(a, b), np.maximum(a, b)
        sx, sy = np.asarray(S(x), dtype=float), np.asarray(S(y), dtype=float)
        bad = np.nonzero(sx > sy + 1e-12)[0]
        assert bad.size == 0, f"{S.label}: S not monotone at x={x[bad[:3]]}, y={y[bad[:3]]}"


def test_growth_bound_holds_on_samples(small_table, rng):
    for S in _registered_sources(small_table):
        u = rng.uniform(0.0, min(S.u_cap, 30.0), size=1000)
        g = np.array([S.g(v) for v in u])
        assert np.all(g <= S.growth_constant * (1 + 1e-12)), S.label


def test_monotone_lower_bound_propagation(small_table, rng):
    # once g has been seen at height g0, it can only decay like e^{-du}
    for S in _registered_sources(small_table):
        top = min(S.u_cap, 25.0)
        u0 = rng.uniform(0.0, top, size=400)
        du = rng.uniform(0.0, top - u0)
        lhs = np.array([S.g(a + b) for a, b in zip(u0, du)])
        rhs = np.array([S.g(a) for a in u0]) * np.exp(-du)
        assert np.all(lhs >= rhs - 1e-12), S.label


def test_normalized_ratio_and_clipping(small_table):
    S = tr.source_primes_weighted(small_table)
    cap = S.u_cap
    assert math.isclose(cap, math.log(100_000), rel_tol=1e-12)
    v = S.g(cap - 0.25)
    assert 0.5 < v < 1.5
    with pytest.raises(TableExhaustedError):
        S.g(cap + 0.5)
    # clipped access freezes at the cap instead of raising
    assert S.g_clipped(cap + 0.5) == pytest.approx(S.g_clipped(cap), rel=1e-9)


def test_single_jump_is_a_bounded_step():
    S = tr.source_single_jump(height=3.0, location=math.e)
    assert S(1.0) == 0.0
    assert S(math.e) == pytest.approx(3.0)
    assert S(1e9) == pytest.approx(3.0)
    assert S.ratio_limit_A == 0.0
