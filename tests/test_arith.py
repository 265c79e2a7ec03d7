"""Counting layer: sieve vs trial division, growth ratios."""

import math
import os
import tracemalloc

import numpy as np
import pytest

from tauberlab import arith
from tauberlab import transform as tr
from tauberlab.arith import (
    PrimeTable,
    build_prime_table,
    count_primes,
)
from tauberlab.errors import DomainError, ResourceError, TableExhaustedError


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


def _dense_sieve(limit):
    """Primality of every integer 0..limit, marked from p*p by each p."""
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return is_prime


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


def _sieve_limits():
    seg = arith._SIEVE_SEGMENT
    # limits whose odd slots end one below, on and one above a segment
    # boundary (2 seg - 1 fills whole segments), after one and three segments
    edges = [2 * k * seg + d for k in (1, 3) for d in (-3, -2, -1, 0, 1, 2)]
    # a last segment of 100 slots, shorter than the largest base prime
    # (2,503 at the 2^20 segment)
    short_tail = 2 * (3 * seg + 100) - 1
    assert np.flatnonzero(_dense_sieve(math.isqrt(short_tail)))[-1] > 100
    return list(range(2, 3001)) + edges + [short_tail]


def _segment_copies(limit):
    """The sieve's segment stream, each view copied out of the reused buffer."""
    return [(lo, view.copy()) for lo, view in arith._sieve_segments(limit)]


def test_sieve_matches_a_dense_sieve():
    for limit in _sieve_limits():
        segments = _segment_copies(limit)
        assert [lo for lo, _ in segments] == list(range(0, (limit + 1) // 2, arith._SIEVE_SEGMENT))
        assert all(view.dtype == bool for _, view in segments)
        bits = np.concatenate([view for _, view in segments])
        assert np.array_equal(bits, _dense_sieve(limit)[1::2]), limit


def test_words_are_the_packed_odd_bitset():
    """The table's words are the odd bitset packed little-endian, then zero
    bits up to one word past the last whole word; the rank counts the
    primes below each word."""
    for limit in (2, 3, 127, 128, 129, 255, 256, 1000, 2 * arith._SIEVE_SEGMENT + 1):
        words = arith._sieved_words(limit)
        assert words.dtype == np.dtype("<u8") and words.size == (limit + 1) // 2 // 64 + 1
        odd = _dense_sieve(limit)[1::2]
        body = np.packbits(odd, bitorder="little").tobytes()
        assert words.tobytes() == body + bytes(words.nbytes - len(body)), limit
        table = PrimeTable(limit, words)
        assert table.rank.dtype == np.uint32
        padded = np.concatenate((odd, np.zeros(64 * words.size - odd.size, dtype=bool)))
        rank = np.concatenate(([0], np.cumsum(padded.reshape(-1, 64).sum(axis=1))[:-1]))
        assert np.array_equal(table.rank, rank), limit


def test_count_matches_a_dense_sieve_at_every_prime_and_its_neighbours():
    table = build_prime_table(10**6)
    is_prime = _dense_sieve(10**6)
    primes = np.flatnonzero(is_prime)
    keys = np.concatenate((primes - 1, primes, primes + 1))
    assert np.array_equal(table.count(keys.astype(float)), np.cumsum(is_prime)[keys])


def test_count_gives_pi_of_the_powers_of_ten(big_table):
    pi = [0, 4, 25, 168, 1229, 9592, 78_498, 664_579, 5_761_455]  # pi(10^k), k = 0..8
    assert big_table.count(10.0 ** np.arange(9)).tolist() == pi


def test_primes_in_matches_a_dense_sieve_on_word_edges(small_table):
    """Ranges that start and end inside a word, on a word boundary (odd
    slot 64w is the number 128w + 1), and at 0, 1, 2 and the limit."""
    limit = small_table.limit
    primes = np.flatnonzero(_dense_sieve(limit))
    edges = [0, 1, 2, 3, 127, 128, 129, 130, 1000, 128 * 500, 128 * 500 + 1, limit - 1, limit]
    inner = [200.5, 555, 4321, 128 * 700 + 37]
    for lo in edges + inner:
        for hi in edges + inner:
            got = small_table.primes_in(lo, hi)
            assert got.dtype == np.int64
            assert np.array_equal(got, primes[(primes > lo) & (primes <= hi)]), (lo, hi)


def test_table_is_built_in_one_allocation():
    """Over given words the rank is the only allocation: a popcount array
    or a cast would trace a second one."""
    words = arith._sieved_words(10**7)
    tracemalloc.start()
    try:
        table = PrimeTable(10**7, words)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.rank[-1] == 664_578  # 5e6 odd slots fill 78,125 words: all odd primes
    assert peak <= table.rank.nbytes + 2**14  # numpy's ufunc buffers


def test_build_holds_the_table_and_one_segment():
    """build_prime_table(1e7) traces at most the words, the rank and one
    segment's buffers: the segment, the wheel tile and one packed segment,
    with 64 KiB for the base primes and small objects."""
    seg = arith._SIEVE_SEGMENT
    buffers = seg + (seg + math.prod(arith._WHEEL_PRIMES)) + seg // 8
    tracemalloc.start()
    try:
        table = build_prime_table(10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.count(1e7) == 664_579
    assert peak <= table.words.nbytes + table.rank.nbytes + buffers + 2**16


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
    """count and primes_in read int64 keys; the answers are those of the
    float keys at 0, below 0, on primes, half-way off them and at the limit."""
    primes = np.flatnonzero(_dense_sieve(small_table.limit))
    p = primes[[0, 1, 2, 100, 1000, -1]].astype(float)
    limit = float(small_table.limit)
    keys = np.concatenate(([0.0, -0.5, -3.0, -np.inf, 1.0, limit, limit - 0.5], p, p - 0.5, p + 0.5))
    assert np.array_equal(small_table.count(keys), np.searchsorted(primes, np.floor(keys), side="right"))
    for x in keys:
        assert small_table.count(x) == int(np.searchsorted(primes, np.floor(x), side="right"))
    for lo in keys:
        for hi in (0.0, -1.0, 30.5, 31.0, 7919.0, limit):
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
    with pytest.raises(DomainError, match=r"\+inf"):
        small_table.primes_in(0.0, np.inf)


def test_primes_in_refuses_what_count_refuses(small_table):
    """The table states its edge once: primes_in answers every hi below
    limit + 1, as count does, and refuses the rest with count's errors.
    It never clips, so a staircase read past the edge is an error, not the
    primes up to the limit; the weighted-prime source passes the refusal
    on as it stands."""
    limit = small_table.limit
    primes = np.flatnonzero(_dense_sieve(limit))
    top = primes[primes > limit - 1000]
    for hi in (limit, limit + 0.5):
        assert np.array_equal(small_table.primes_in(limit - 1000, hi), top), hi
    errors = []
    for query in (
        small_table.count,
        lambda x: small_table.primes_in(0.0, x),
        tr.source_primes_weighted(small_table).jumps_upto,
    ):
        with pytest.raises(TableExhaustedError) as ei:
            query(limit + 1)
        assert ei.value.code == "table-exhausted" and ei.value.required == limit + 1
        errors.append(str(ei.value))
        for bad in (np.inf, float("nan")):
            with pytest.raises(DomainError):
                query(bad)
    assert errors[0] == f"count query up to {limit + 1} exceeds table limit {limit}; rebuild with limit >= {limit + 1}"
    assert errors[1] == errors[2] == errors[0].replace("count", "primes_in")


def test_a_query_past_the_hard_cap_names_the_cap(small_table):
    """No table is built past arith._HARD_LIMIT = 2^32 (ResourceError), so
    a query past it is not told to rebuild: the message names the cap, with
    the same class and required, and the query shows at most 17
    significant digits; up to the cap it keeps its wording."""
    cap = arith._HARD_LIMIT
    for x, needed, shown in ((cap + 1, cap + 1, "4294967297"), (1e300, math.floor(1e300), "1.0000000000000001e+300")):
        with pytest.raises(TableExhaustedError) as ei:
            small_table.count(x)
        assert ei.value.required == needed
        assert str(ei.value) == (
            f"count query up to {shown} exceeds table limit {small_table.limit}; "
            f"no prime table can be built past the hard cap 2^32 = {cap}"
        )
    with pytest.raises(TableExhaustedError, match=f"; rebuild with limit >= {cap}$") as ei:
        small_table.count(cap)
    assert ei.value.required == cap


def test_weighted_prime_count_matches_direct_count(small_table):
    """e^u g(u) of the weighted primes is pi_P(x) ln x at the float x = e^u
    that g reads, which for u = ln p can round below the prime p."""
    S = tr.source_primes_weighted(small_table)
    primes = np.array(_trial_division_primes(5000), dtype=float)
    for x in (2, 10, 97.5, 4999):
        u = math.log(x)
        e = math.exp(u)
        expect = float((primes <= e).sum()) * math.log(e)
        assert math.isclose(e * S.g(u), expect, rel_tol=0, abs_tol=1e-9)
    assert S.g(math.log(1.5)) == 0.0


def test_primes_in_window(small_table):
    oracle = [p for p in _trial_division_primes(200) if 50 < p <= 150]
    got = small_table.primes_in(50, 150)
    assert list(got) == oracle


# ---------------------------------------------------------------------------
# table builds and atomic writes
# ---------------------------------------------------------------------------


def test_counts_agree_with_a_dense_sieve_at_every_segment_start():
    """At every sieve limit the table counts pi(x) at every x within 4096
    of a segment's first number or of the limit."""
    for limit in _sieve_limits():
        is_prime = _dense_sieve(limit)
        table = build_prime_table(limit)
        keys = np.arange(limit + 1)
        if limit > 8192:
            edges = [*range(0, limit + 1, 2 * arith._SIEVE_SEGMENT), limit]
            keys = np.clip(np.add.outer(edges, np.arange(-4096, 4097)), 0, limit).ravel()
        assert np.array_equal(table.count(keys.astype(float)), np.cumsum(is_prime)[keys]), limit


def test_a_cache_dir_is_ignored(tmp_path):
    """build_prime_table writes nothing where cache_dir points, and sieves
    the table it sieves without one."""
    table = build_prime_table(10_000, cache_dir=tmp_path / "cache")
    assert not list(tmp_path.iterdir())
    assert np.array_equal(table.words, build_prime_table(10_000).words)


def test_atomic_write_failing_mid_write_leaves_nothing(tmp_path, monkeypatch):
    """A write that raises OSError leaves no temp file and no target, and
    the error reaches the caller."""
    fdopen = os.fdopen

    class FailingFile:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:10])
            raise OSError("disk full")

    monkeypatch.setattr(arith.os, "fdopen", lambda fd, mode: FailingFile(fdopen(fd, mode)))
    with pytest.raises(OSError, match="disk full"):
        arith._atomic_write(tmp_path / "sub" / "r.json", "x" * 1000)
    assert [p.name for p in tmp_path.rglob("*")] == ["sub"]


def test_table_limit_validation():
    with pytest.raises(DomainError):
        build_prime_table(1)
    with pytest.raises(ResourceError):
        build_prime_table(10**13)


# ---------------------------------------------------------------------------
# growth-function properties (seeded, vectorized)
# ---------------------------------------------------------------------------


def test_every_source_is_monotone(small_table, rng):
    for S in _registered_sources(small_table):
        # S(x) = e^u g(u) at u = ln x, for x in [1, e^13]; S = 0 below 1
        hi = math.exp(min(S.u_cap, 13.0))
        a = np.log(rng.uniform(1.0, hi, size=1000))
        b = np.log(rng.uniform(1.0, hi, size=1000))
        u, v = np.minimum(a, b), np.maximum(a, b)
        su, sv = np.exp(u) * S.g(u), np.exp(v) * S.g(v)
        bad = np.nonzero(su > sv + 1e-12)[0]
        assert bad.size == 0, f"{S.label}: e^u g not monotone at u={u[bad[:3]]}, v={v[bad[:3]]}"


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
    # fn, defined on every u >= 0, holds g(u_cap) past the cap instead of raising
    assert np.array_equal(S.fn(np.array([cap + 0.5, 40.0])), np.full(2, S.g(cap)))


@pytest.mark.parametrize("limit", [2, 3, 100_003, 999_983])
def test_frozen_tail_reads_a_prime_table_edge(limit):
    """A table whose limit is prime freezes g at the edge itself,
    pi(limit) ln(limit) / limit, fn holds it past u_cap and the stated
    tail is that value, bit for bit; a margin below the edge, or e^{u_cap}
    rounding below it, would miss the last prime (g = 0.0 and 0.3662 for
    limits 2 and 3, not 0.3466 and 0.7324). u_cap is ln(limit), raised
    one float at a time while e^{u_cap} < limit (at 100,003 by one ulp)."""
    table = build_prime_table(limit)
    S = tr.source_primes_weighted(table)
    edge = table.count(limit) * math.log(limit) / limit
    u_t = S.tail[0]
    assert np.exp(u_t) >= limit  # the tail counts the edge
    assert u_t == math.log(limit) or np.exp(np.nextafter(u_t, 0.0)) < limit  # and starts no later
    assert (u_t > math.log(limit)) == (limit == 100_003)
    assert S.tail == (u_t, ((edge, 0.0),)) and S.u_cap == u_t
    assert S.fn(np.array([S.u_cap + 1.0]))[0] == S.g(S.u_cap) == edge


def test_ratio_past_the_largest_float_is_table_exhausted(small_table):
    # e^800 is no float: the error names no table size, but it is still the
    # table error, not an OverflowError
    S = tr.source_primes_weighted(small_table)
    with pytest.raises(TableExhaustedError) as ei:
        S.g(800.0)
    assert ei.value.required is None
    with pytest.raises(TableExhaustedError) as ei:
        S.g(12.0)
    assert ei.value.required == math.ceil(math.exp(12.0))


def test_a_table_answers_every_x_below_its_limit_plus_one(small_table, big_table):
    """count reads only floor(x), so g at u_cap = ln limit, where exp rounds
    just above the limit, is the table's value there; floor(x) past the
    limit is what the table lacks, and the error names it."""
    for table in (small_table, big_table):
        S = tr.source_primes_weighted(table)
        assert math.exp(S.u_cap) > table.limit
        assert S.g(S.u_cap) == pytest.approx(table.count(table.limit) * S.u_cap / table.limit, rel=1e-12)
        assert table.count(table.limit + 0.5) == table.count(table.limit)
        with pytest.raises(TableExhaustedError) as ei:
            table.count(table.limit + 1.0)
        assert ei.value.required == table.limit + 1


def test_single_jump_is_a_bounded_step():
    S = tr.source_single_jump(height=3.0, location=math.e)
    assert S.g(0.0) == 0.0
    for u in (1.0, math.log(1e9)):
        assert math.exp(u) * S.g(u) == pytest.approx(3.0)
    assert S.ratio_limit_A == 0.0
