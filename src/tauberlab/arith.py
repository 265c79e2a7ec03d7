"""Counting functions and their normalized growth ratios.

The objects here are the raw material for everything downstream: prime
counting, user-supplied step functions, and the `GrowthFunction` wrapper
that ties a non-decreasing S to its growth constant C (S(x) <= C*x on
x >= 1) and states it by its normalized ratio in the log variable,

    g(u) = S(e^u) / e^u,   u >= 0,

whose limit behaviour the operator experiments probe; S(x) = x g(ln x).

Primes come from a segmented, odd-only sieve of Eratosthenes with a small
binary disk cache of its odd bitset, so the 1e8 table is built once per
machine. The segments are sized to the L2 cache (C. Bays and R. H. Hudson,
BIT 17 (1977) 121-127) and start from a copy of a wheel pattern that has
the multiples of 3, 5, 7, 11 and 13 struck out (P. Pritchard, Acta Inform.
17 (1982) 477-485). The table is assembled one segment at a time, from
the sieve or from the cache file, so a build holds the prime array and one
segment's buffers (about 2 MB), never the whole bitset. On a 2-vCPU
machine a cold 1e8 table takes about 0.2 s and peaks at 78 MB of RSS
(44 MB of it the table), and its load from the cache about 0.1 s.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import os
import struct
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .errors import ContractError, DomainError, ResourceError, TableExhaustedError

__all__ = [
    "StepFunction",
    "PrimeTable",
    "GrowthFunction",
    "count_primes",
    "build_prime_table",
    "default_cache_dir",
]

logger = logging.getLogger(__name__)

CACHE_ENV_VAR = "TAUBERLAB_CACHE_DIR"
_CACHE_MAGIC = b"PTBL"
_CACHE_FORMAT = 1
_HARD_LIMIT = 2**32
# odd slots per sieve segment: 1 MB of bools, half of a 2 MB L2
_SIEVE_SEGMENT = 2**20
# odd slots per flatnonzero of the table scan: its index array stays
# under 512 KB, a tenth of the 1e7 table
_SCAN_CHUNK = 2**16
# the primes of the sieve's wheel: their multiples repeat every
# 3*5*7*11*13 = 15,015 odd slots
_WHEEL_PRIMES = (3, 5, 7, 11, 13)


def default_cache_dir() -> Path:
    """Cache directory: $TAUBERLAB_CACHE_DIR, else ~/.cache/tauberlab."""
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "tauberlab"


# ---------------------------------------------------------------------------
# step functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepFunction:
    """Non-decreasing pure jump function S(x) = sum of a_j over x_j <= x.

    `breakpoints` must be strictly increasing and >= 1, `jumps` strictly
    positive and of equal length.
    """

    breakpoints: np.ndarray
    jumps: np.ndarray
    cumulative: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        jp = np.asarray(self.jumps, dtype=float)
        if bp.ndim != 1 or jp.shape != bp.shape:
            raise ContractError("breakpoints and jumps must be 1-d arrays of equal length")
        if bp.size == 0:
            raise ContractError("a step function needs at least one breakpoint")
        if not np.all(np.isfinite(bp)) or not np.all(np.isfinite(jp)):
            raise ContractError("breakpoints and jumps must be finite")
        if bp[0] < 1.0 or np.any(np.diff(bp) <= 0):
            raise ContractError("breakpoints must be strictly increasing and >= 1")
        if np.any(jp <= 0):
            raise ContractError("jumps must be strictly positive")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "jumps", jp)
        object.__setattr__(self, "cumulative", np.cumsum(jp))

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.breakpoints, arr, side="right")
        vals = np.concatenate(([0.0], self.cumulative))[idx]
        return float(vals) if np.isscalar(x) or arr.ndim == 0 else vals

    def jumps_upto(self, hi: float):
        """(x_j, a_j, 0) for the breakpoints x_j <= hi (GrowthFunction)."""
        j = np.searchsorted(self.breakpoints, hi, side="right")
        return self.breakpoints[:j], self.jumps[:j], np.zeros(j)


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


def _pi_bound(limit: int) -> int:
    """An integer >= pi(limit), for limit >= 2: P. Dusart's (2010)
    pi(x) <= x/ln x (1 + 1/ln x + 2.51/ln^2 x) from x = 355,991, within
    0.05% of pi(x) from 1e7 on, and below that J. B. Rosser and L.
    Schoenfeld's pi(x) < 1.25506 x/ln x (Illinois J. Math. 6 (1962),
    Cor. 1). The + 1 covers the rounding."""
    x = float(limit)
    ln = math.log(x)
    if limit >= 355_991:
        return math.floor(x / ln * (1.0 + 1.0 / ln + 2.51 / ln**2)) + 1
    return math.floor(1.25506 * x / ln) + 1


class PrimeTable:
    """All primes up to `limit` (>= 2), held as a sorted int64 array.

    Assembled from a stream of odd-bit segments (lo, view), as the sieve
    or the cache reader yields them: the one allocation is the prime array
    itself, sized by an upper bound on pi(limit) and trimmed in place at
    the end. Each segment is scanned in _SCAN_CHUNK slices while it is
    still in cache, and is left as it was. A count query binary-searches
    the prime array, O(log n) per point.
    """

    def __init__(self, limit: int, segments):
        self.limit = int(limit)
        primes = np.empty(_pi_bound(self.limit), dtype=np.int64)
        primes[0] = 2  # the odd slots stand for the odd numbers only
        n = 1
        for lo, view in segments:
            for c in range(0, view.size, _SCAN_CHUNK):
                idx = np.flatnonzero(view[c : c + _SCAN_CHUNK])
                out = np.multiply(idx, 2, out=primes[n : n + idx.size])
                out += 2 * (lo + c) + 1
                n += idx.size
        primes.resize(n, refcheck=False)
        self.primes = primes

    def _keys(self, x) -> np.ndarray:
        """floor(x) clipped to [0, limit] as int64 search keys.

        For an integer p, p <= x exactly when p <= floor(x), so the counts
        are those of the float keys; a float key would make searchsorted
        cast the whole prime array to float64 on every call."""
        arr = np.asarray(x, dtype=float)
        if np.isnan(arr).any():
            raise DomainError("prime table query must not be NaN")
        return np.floor(np.clip(arr, 0.0, float(self.limit))).astype(np.int64)

    def count(self, x):
        """Vectorized count of primes <= x (x scalar or array, any real but
        NaN and +inf). The table answers every x < limit + 1, since the
        count only reads floor(x)."""
        arr = np.asarray(x, dtype=float)
        keys = self._keys(arr)
        if arr.size and np.any(arr >= self.limit + 1):
            top = float(np.max(arr))
            if top == math.inf:
                raise DomainError("prime table count query must not be +inf")
            needed = math.floor(top)
            raise TableExhaustedError(
                f"count query up to {needed} exceeds table limit {self.limit}; "
                f"rebuild with limit >= {needed}",
                required=needed,
            )
        out = np.searchsorted(self.primes, keys, side="right")
        return int(out) if np.isscalar(x) or arr.ndim == 0 else out

    def primes_in(self, lo: float, hi: float) -> np.ndarray:
        """Primes p with lo < p <= hi (hi is clipped to the table limit)."""
        i, j = np.searchsorted(self.primes, self._keys([lo, hi]), side="right")
        return self.primes[i:j]


# ---------------------------------------------------------------------------
# report dicts, atomic writes and the prime cache file
# ---------------------------------------------------------------------------


def _fields_dict(report) -> dict:
    """A dataclass report as JSON-ready values, one key per field: arrays
    and tuples become lists, everything else is kept as it is."""
    out = {}
    for f in dataclasses.fields(report):
        v = getattr(report, f.name)
        if isinstance(v, np.ndarray):
            v = v.tolist()
        elif isinstance(v, (list, tuple)):
            v = list(v)
        out[f.name] = v
    return out


def _atomic_write(path: Path, data) -> None:
    """Write str or bytes to path through a temp file in the same directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cache_segments(path: Path, limit: int):
    """The odd-bit segments of limit's cache file, unpacked one at a time
    (the sieve's segments, as _sieve_segments yields them). The header and
    the file size are checked here, before any segment: ContractError if
    the file is not limit's cache."""
    fh = open(path, "rb")
    try:
        head = fh.read(16)
        n_odd = (limit + 1) // 2
        if len(head) < 16 or head[:4] != _CACHE_MAGIC:
            raise ContractError(f"not a prime table cache: {path}")
        version, cached = struct.unpack("<IQ", head[4:])
        if version != _CACHE_FORMAT:
            raise ContractError(f"unsupported prime cache version {version}")
        if cached != limit:
            raise ContractError(f"prime cache {path} holds limit {cached}, not {limit}")
        if os.fstat(fh.fileno()).st_size != 16 + (n_odd + 7) // 8:
            raise ContractError(f"prime table cache of the wrong size: {path}")
    except BaseException:
        fh.close()
        raise
    return _unpacked_segments(fh, n_odd)


def _unpacked_segments(fh, n_odd: int):
    # a segment is a whole number of bytes: _SIEVE_SEGMENT is a multiple
    # of 8, and only the last segment is shorter
    seg = min(_SIEVE_SEGMENT, n_odd)
    with fh:
        for lo in range(0, n_odd, seg):
            n = min(seg, n_odd - lo)
            packed = np.frombuffer(fh.read((n + 7) // 8), dtype=np.uint8)
            yield lo, np.unpackbits(packed, count=n, bitorder="little").view(bool)


def _teed_to_cache(segments, path: Path, limit: int):
    """Yield the segments unchanged while packing each into a temp file
    beside `path`, renamed onto it after the last one. A failed write is
    a logged warning: the temp file is removed and the rest of the
    segments still come."""
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            fh.write(_CACHE_MAGIC + struct.pack("<IQ", _CACHE_FORMAT, limit))
            for lo, view in segments:
                yield lo, view
                fh.write(np.packbits(view, bitorder="little"))
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:
        logger.warning("could not write prime cache %s: %s", path, exc)
        yield from segments
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def build_prime_table(limit: int, cache_dir: Optional[os.PathLike] = None) -> PrimeTable:
    """Sieve (or reload from cache) all primes up to `limit`.

    The cache file is `primes_<limit>.ptbl` under `cache_dir` (defaulting to
    $TAUBERLAB_CACHE_DIR or ~/.cache/tauberlab): a 16-byte header, then
    the odd bitset packed little-endian. A sieve writes it segment by
    segment as the table is assembled. A corrupt cache is rebuilt with a
    logged warning, never trusted.
    """
    limit = int(limit)
    if limit < 2:
        raise DomainError("prime table limit must be >= 2")
    if limit > _HARD_LIMIT:
        raise ResourceError(f"prime table limit {limit} exceeds hard cap {_HARD_LIMIT}")
    cdir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    cache_path = cdir / f"primes_{limit}.ptbl"
    if cache_path.exists():
        try:
            return PrimeTable(limit, _cache_segments(cache_path, limit))
        except ContractError as exc:
            logger.warning("corrupt prime cache (%s); rebuilding", exc)
    return PrimeTable(limit, _teed_to_cache(_sieve_segments(limit), cache_path, limit))


def count_primes(x, table: PrimeTable) -> int:
    """Number of primes <= x. Raises TableExhaustedError beyond table.limit."""
    xf = float(x)
    if not math.isfinite(xf) or xf < 0:
        raise DomainError("count_primes requires finite x >= 0")
    if xf < 2:
        return 0
    return table.count(xf)


# ---------------------------------------------------------------------------
# growth functions
# ---------------------------------------------------------------------------


@dataclass
class GrowthFunction:
    """A non-decreasing S on [0, inf) with certified linear growth bound.

    Each field states a fact about S; none is a hint to one integrator:

    - ``label``: the name reports and errors give the source.
    - ``fn``: the values g(u) = S(e^u) e^{-u}, vectorized in u >= 0 and
      stated in u, so that no e^u past the largest float is formed.
    - ``growth_constant``: C with S(x) <= C x on x >= 1.
    - ``laplace``: closed form of G(s) = integral of S(e^u) e^{-su} du when
      one is known (vectorized in s).
    - ``jumps_upto(hi)``: the jumps of a pure jump source as arrays
      (x_j, da_j, db_j) over every 0 < x_j <= hi, with
      S(x) = sum over x_j <= x of (da_j + db_j ln x) on [1, hi]: S(e^u) is
      a + b u between consecutive jumps (a count, or a count times ln x),
      and the integrators integrate each such piece exactly.
    - ``u_cap``: largest u at which g(u) is evaluable (ln of a prime table
      limit); integrators freeze g beyond it, direct evaluation raises.
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

    def g_clipped(self, u):
        """g with the argument clipped to u_cap (frozen-tail convention)."""
        arr = np.asarray(u, dtype=float)
        # the 1e-9 margin keeps exp(u_cap) from rounding past the table edge
        cap = self.u_cap - 1e-9 if math.isfinite(self.u_cap) else self.u_cap
        clipped = np.minimum(arr, cap)
        out = self.g(clipped)
        return float(out) if np.isscalar(u) or arr.ndim == 0 else out
