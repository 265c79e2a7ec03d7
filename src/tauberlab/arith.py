"""Counting functions and their normalized growth ratios.

The objects here are the raw material for everything downstream: prime
counting and the `GrowthFunction` wrapper that ties a non-decreasing S to
its growth constant C (S(x) <= C*x on x >= 1) and states it by its
normalized ratio in the log variable,

    g(u) = S(e^u) / e^u,   u >= 0,

whose limit behaviour the operator experiments probe; S(x) = x g(ln x).

Primes come from a segmented, odd-only sieve of Eratosthenes, with an
opt-in disk cache of its odd bitset in a directory the caller names (the
command-line tool never names one; the benchmark harness does). The
segments are sized to the L2 cache (C. Bays and R. H. Hudson, BIT 17
(1977) 121-127) and start from a copy of a wheel pattern that has the
multiples of 3, 5, 7, 11 and 13 struck out (P. Pritchard, Acta Inform. 17
(1982) 477-485). The table is the packed odd bitset itself, one bit per
odd number, with a uint32 rank per 64-bit word beside it: 9.4 MB at 1e8
against 44 MB for the primes as int64. A cold build packs each segment
into the bitset as it comes, so it holds the bitset and one segment's
buffers (about 2 MB); a warm one reads the cache file in one read. A cold
1e8 table takes about 0.15 s on a 2-vCPU machine and peaks at 37 MB of
RSS (32 MB of it interpreter and numpy); a load takes about 0.01 s.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import os
import struct
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .errors import ContractError, DomainError, ResourceError, TableExhaustedError

__all__ = [
    "PrimeTable",
    "GrowthFunction",
    "count_primes",
    "build_prime_table",
]

logger = logging.getLogger(__name__)

_CACHE_MAGIC = b"PTBL"
_CACHE_FORMAT = 1
_HARD_LIMIT = 2**32
# odd slots per sieve segment: 1 MB of bools, half of a 2 MB L2
_SIEVE_SEGMENT = 2**20
# the primes of the sieve's wheel: their multiples repeat every
# 3*5*7*11*13 = 15,015 odd slots
_WHEEL_PRIMES = (3, 5, 7, 11, 13)


# ---------------------------------------------------------------------------
# prime sieve and table
# ---------------------------------------------------------------------------


def _sieve_segments(limit: int):
    """Yield (lo, view): the view's slot i means that 2*(lo+i)+1 is prime,
    over every odd 2*(lo+i)+1 <= limit, in order.

    Segmented, odd-only sieve. Each segment of _SIEVE_SEGMENT odd slots
    (the last one shorter) starts as a copy of the wheel pattern, which has
    the odd multiples of 3, 5, 7, 11 and 13 already struck out; the base
    primes from 17 up to sqrt(limit) then mark the rest, each from its
    first odd multiple in the segment (at least p*p). The first segment
    puts the wheel primes back and strikes out 1. Every view is the same
    reused buffer, valid until the next segment is asked for.
    """
    n_odd = (limit + 1) // 2
    seg = min(_SIEVE_SEGMENT, n_odd)
    period = math.prod(_WHEEL_PRIMES)
    # the wheel pattern from any phase: tile[off : off + seg] for off < period
    tile = np.ones(seg + period, dtype=bool)
    for p in _WHEEL_PRIMES:
        tile[p // 2 :: p] = False
    # dense base sieve over the odds <= sqrt(limit), then the primes past the wheel
    root = math.isqrt(limit)
    base = np.ones((root + 1) // 2, dtype=bool)
    base[:1] = False  # 1 is not prime
    for i in range(1, (math.isqrt(root) + 1) // 2):  # p = 2i + 1 <= sqrt(root)
        if base[i]:
            p = 2 * i + 1
            base[(p * p - 1) // 2 :: p] = False
    base = 2 * np.flatnonzero(base).astype(np.int64) + 1
    base = base[base > _WHEEL_PRIMES[-1]]
    first = (base * base - 1) // 2  # slot of p*p
    buf = np.empty(seg, dtype=bool)
    for lo in range(0, n_odd, seg):
        view = buf[: min(seg, n_odd - lo)]
        off = lo % period
        view[:] = tile[off : off + view.size]
        # each base prime's first odd multiple in the segment, at least p*p
        starts = np.where(first >= lo, first - lo, (first - lo) % base)
        for p, start in zip(base.tolist(), starts.tolist()):
            view[start::p] = False
        if lo == 0:
            view[0] = False  # 1 is not prime
            for p in _WHEEL_PRIMES:
                if p <= limit:
                    view[p // 2] = True
        yield lo, view


def _body_size(limit: int) -> int:
    """Bytes of the cache file's body: the (limit + 1) // 2 odd slots, packed."""
    return ((limit + 1) // 2 + 7) // 8


def _word_count(limit: int) -> int:
    """uint64 words of the odd bitset up to limit: its (limit + 1) // 2
    slots, then the zero bits up to and including the word of slot
    (limit + 1) // 2, which a count at limit reads under an empty mask."""
    return (limit + 1) // 2 // 64 + 1


class PrimeTable:
    """All primes up to `limit` (>= 2), held as the packed odd bitset and a
    rank directory over it (G. Jacobson, FOCS 1989).

    `words` is the odd bitset as little-endian uint64: bit i of word w says
    whether 2*(64w + i) + 1 is prime, so its bytes are the cache file's
    body. `rank[w]` is the number of odd primes below word w, as uint32
    (pi(2^32) = 203,280,221). A count is one rank lookup and one masked
    popcount per point; `primes_in` unpacks only the words of its range.
    At 1e8 the two arrays take 6.25 and 3.1 MB.
    """

    def __init__(self, limit: int, words: np.ndarray):
        self.limit = int(limit)
        self.words = words
        # built in place: a cast or a popcount array would be a second rank
        self.rank = np.zeros(words.size, dtype=np.uint32)
        np.bitwise_count(words[:-1], out=self.rank[1:])
        np.cumsum(self.rank, out=self.rank)

    def _keys(self, x, query: str) -> np.ndarray:
        """floor(x) as int64, with x below 0 read as 0: p <= x exactly when
        p <= floor(x) for an integer p. The table's one edge: it answers
        every x < limit + 1, and refuses NaN, +inf (DomainError) and
        x >= limit + 1 (TableExhaustedError, required = floor(x), whose
        message says to rebuild, or past _HARD_LIMIT that no table reaches)."""
        arr = np.asarray(x, dtype=float)
        if np.isnan(arr).any():
            raise DomainError("prime table query must not be NaN")
        if arr.size and np.any(arr >= self.limit + 1):
            top = float(np.max(arr))
            if top == math.inf:
                raise DomainError(f"prime table {query} query must not be +inf")
            needed = math.floor(top)
            remedy = (
                f"rebuild with limit >= {needed}"
                if needed <= _HARD_LIMIT
                else f"no prime table can be built past the hard cap 2^32 = {_HARD_LIMIT}"
            )
            raise TableExhaustedError(
                f"{query} query up to {needed:.17g} exceeds table limit {self.limit}; {remedy}",
                required=needed,
            )
        return np.floor(np.maximum(arr, 0.0)).astype(np.int64)

    def count(self, x):
        """Vectorized count of primes <= x (x scalar or array, any real
        below limit + 1)."""
        keys = self._keys(x, "count")
        # the odd numbers <= k are the slots below m = (k + 1) // 2
        m = (keys + 1) >> 1
        w = m >> 6
        mask = np.left_shift(np.uint64(1), (m & 63).astype(np.uint64)) - np.uint64(1)
        out = self.rank[w].astype(np.intp)
        out += np.bitwise_count(self.words[w] & mask)
        out += keys >= 2
        return int(out) if np.isscalar(x) or keys.ndim == 0 else out

    def primes_in(self, lo: float, hi: float) -> np.ndarray:
        """Primes p with lo < p <= hi, as a sorted int64 array; hi is any
        real below limit + 1, as for count."""
        a, b = self._keys([lo, hi], "primes_in").tolist()
        # the odd p with a < p <= b are the slots ma <= i < mb
        ma, mb = (a + 1) // 2, (b + 1) // 2
        w0 = ma >> 6
        bits = np.unpackbits(self.words[w0 : (mb + 63) >> 6].view(np.uint8), bitorder="little")
        odd = 2 * (np.flatnonzero(bits[ma - 64 * w0 : mb - 64 * w0]) + ma) + 1
        return np.concatenate(([2], odd)) if a < 2 <= b else odd


# ---------------------------------------------------------------------------
# report dicts, CSV text, atomic writes and the prime cache file
# ---------------------------------------------------------------------------


def _plain(v):
    """v as a JSON-ready value: a tuple or list as a list of plain values, a
    numpy array or scalar as Python numbers (tolist), anything else as is."""
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    return v.tolist() if isinstance(v, (np.ndarray, np.generic)) else v


def _fields_dict(report) -> dict:
    """A dataclass report as JSON-ready values, one key per field (_plain)."""
    return {f.name: _plain(getattr(report, f.name)) for f in dataclasses.fields(report)}


def _csv_text(kind: str, meta: dict, rows, head=()) -> str:
    """A tauberlab CSV: `# tauberlab-<kind> v1, key=value, ...` (a float,
    numpy's too, as repr(float(v)), anything else as str(v)), the head
    lines, then a line per row, each number as %.17g (lossless for float64)."""
    fields = ", ".join(f"{k}={repr(float(v)) if isinstance(v, (float, np.floating)) else v}" for k, v in meta.items())
    lines = [f"# tauberlab-{kind} v1, {fields}", *head]
    lines += [",".join("%.17g" % v for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _atomic_write(path, *parts) -> None:
    """Write parts, all str or all bytes-like, to path (any path-like)
    through a temp file in the same directory. The file gets the mode of a
    plain open(), 0o666 less the umask, not mkstemp's 0o600."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        os.chmod(tmp, 0o666 & ~umask)
        with os.fdopen(fd, "w" if isinstance(parts[0], str) else "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _sieved_words(limit: int) -> np.ndarray:
    """The table's words up to limit, each sieve segment packed into them
    as it comes (a segment is a whole number of words)."""
    words = np.zeros(_word_count(limit), dtype="<u8")
    body = words.view(np.uint8)
    for lo, view in _sieve_segments(limit):
        packed = np.packbits(view, bitorder="little")
        body[lo // 8 : lo // 8 + packed.size] = packed
    return words


def _cached_words(path: Path, limit: int) -> np.ndarray:
    """The table's words read from limit's cache file in one read, after
    its header and size are checked: ContractError if the file is not
    limit's cache."""
    size = _body_size(limit)
    with open(path, "rb") as fh:
        head = fh.read(16)
        if len(head) < 16 or head[:4] != _CACHE_MAGIC:
            raise ContractError(f"not a prime table cache: {path}")
        version, cached = struct.unpack("<IQ", head[4:])
        if version != _CACHE_FORMAT:
            raise ContractError(f"unsupported prime cache version {version}")
        if cached != limit:
            raise ContractError(f"prime cache {path} holds limit {cached}, not {limit}")
        if os.fstat(fh.fileno()).st_size != 16 + size:
            raise ContractError(f"prime table cache of the wrong size: {path}")
        words = np.zeros(_word_count(limit), dtype="<u8")
        if fh.readinto(words.view(np.uint8)[:size]) != size:
            raise ContractError(f"prime table cache shrank while read: {path}")
    return words


def build_prime_table(limit: int, cache_dir: Optional[os.PathLike] = None) -> PrimeTable:
    """Sieve (or reload from cache) all primes up to `limit`.

    Without `cache_dir` the table is sieved in memory and no file is read or
    written; the command-line tool always builds it so, and only the
    benchmark harness names a directory. With it, the cache file is
    `primes_<limit>.ptbl` there: a 16-byte header, then the odd bitset
    packed little-endian, which are the table's words. A sieve writes it in
    one write after the last segment, and a load reads it in one read. A
    corrupt cache is rebuilt, never trusted, and a cache that cannot be
    written is skipped, each with a logged warning.
    """
    limit = int(limit)
    if limit < 2:
        raise DomainError("prime table limit must be >= 2")
    if limit > _HARD_LIMIT:
        raise ResourceError(f"prime table limit {limit} exceeds hard cap {_HARD_LIMIT}")
    if cache_dir is None:
        return PrimeTable(limit, _sieved_words(limit))
    cache_path = Path(cache_dir) / f"primes_{limit}.ptbl"
    if cache_path.exists():
        try:
            return PrimeTable(limit, _cached_words(cache_path, limit))
        except ContractError as exc:
            logger.warning("corrupt prime cache (%s); rebuilding", exc)
    table = PrimeTable(limit, _sieved_words(limit))
    header = _CACHE_MAGIC + struct.pack("<IQ", _CACHE_FORMAT, limit)
    try:
        _atomic_write(cache_path, header, table.words.view(np.uint8)[: _body_size(limit)])
    except OSError as exc:
        logger.warning("could not write prime cache %s: %s", cache_path, exc)
    return table


def count_primes(x, table: PrimeTable) -> int:
    """Number of primes <= x. Raises TableExhaustedError beyond table.limit."""
    xf = float(x)
    if not math.isfinite(xf) or xf < 0:
        raise DomainError("count_primes requires finite x >= 0")
    return table.count(xf)


# ---------------------------------------------------------------------------
# growth functions
# ---------------------------------------------------------------------------


@dataclass
class GrowthFunction:
    """A non-decreasing S on [0, inf) with certified linear growth bound.

    Each field states a fact about S; none is a hint to one integrator:

    - ``label``: the name reports and errors give the source.
    - ``fn``: the values g(u) = S(e^u) e^{-u}, vectorized in u and
      defined on every u >= 0, stated in u so that no e^u past the largest
      float is formed. A table-backed source holds g(u_cap) past u_cap.
    - ``growth_constant``: C with S(x) <= C x on x >= 1.
    - ``laplace``: closed form of G(s) = integral of S(e^u) e^{-su} du when
      one is known (vectorized in s).
    - ``jumps_upto(hi)``: the jumps of a pure jump source as arrays
      (x_j, da_j, db_j) over every 0 < x_j <= hi, with
      S(x) = sum over x_j <= x of (da_j + db_j ln x) on [1, hi]: S(e^u) is
      a + b u between consecutive jumps (a count, or a count times ln x),
      and the integrators integrate each such piece exactly. The table
      of a table-backed source refuses hi past its edge (TableExhaustedError).
      One rule sets the side of a jump where u lies within one rounding of
      ln x_j: below the stated tail's u_t, fn and jumps_upto read S at e^u,
      which may round below x_j (e^{ln 7} = 6.999999999999999 counts 6
      integers); a jump source's u_t is the least u with e^u >= x_edge, so
      its tail counts the edge. The frequency route places every jump at
      (L/2) ln x_j.
    - ``u_cap``: largest u at which g(u) is the source's own (ln of a
      prime table limit): ``g`` raises past it, while ``fn`` and ``tail``
      hold g(u_cap) there.
    - ``tail``: (u_t, terms) with fn(u) = Re sum c e^{-lam u} over the
      terms (c, lam) for u >= u_t, a term (c, lam, b) also divided by
      u + b; Re lam >= 0, b > 0. A table-backed source states g(u_cap)
      from u_t = u_cap on.
    - ``ratio_limit_A``: the declared limit A of g(u) when one exists
      (None for sources without a ratio limit); experiments that test the
      forward direction require it.
    """

    label: str
    fn: Callable
    growth_constant: float
    laplace: Optional[Callable] = None
    jumps_upto: Optional[Callable] = None
    u_cap: float = math.inf
    ratio_limit_A: Optional[float] = None
    tail: Optional[tuple] = None

    def g(self, u):
        """Normalized ratio g(u) = S(e^u)/e^u for u >= 0."""
        arr = np.asarray(u, dtype=float)
        if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr < 0)):
            raise DomainError("normalized ratio needs finite u >= 0")
        if arr.size and np.any(arr > self.u_cap):
            top = float(np.max(arr))
            raise TableExhaustedError(
                f"g(u) for source '{self.label}' is only evaluable up to "
                f"u = {self.u_cap:.6g}; got u = {top:.6g}",
                # e^u past the largest float names no table
                required=math.ceil(math.exp(top)) if top < math.log(sys.float_info.max) else None,
            )
        out = self.fn(arr)
        return float(out) if np.isscalar(u) or arr.ndim == 0 else out
