"""Counting functions and their normalized growth ratios.

The objects here are the raw material for everything downstream: integer
and prime counting, weighted prime counting S(x) = pi_P(x) * ln(x),
user-supplied step functions, and the `GrowthFunction` wrapper that ties a
non-decreasing S to its growth constant C (S(x) <= C*x on x >= 1) and to
the normalized ratio

    g(u) = S(e^u) / e^u,   u >= 0,

whose limit behaviour the operator experiments probe.

Primes come from a segmented, odd-only sieve of Eratosthenes with a small
binary disk cache of its odd bitset, so the 1e8 table is built once per
machine.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import os
import struct
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
    "count_integers",
    "count_primes",
    "build_prime_table",
    "chebyshev_weighted",
    "default_cache_dir",
]

logger = logging.getLogger(__name__)

CACHE_ENV_VAR = "TAUBERLAB_CACHE_DIR"
_CACHE_MAGIC = b"PTBL"
_CACHE_FORMAT = 1
_HARD_LIMIT = 2**32


def default_cache_dir() -> Path:
    """Cache directory: $TAUBERLAB_CACHE_DIR, else ~/.cache/tauberlab."""
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "tauberlab"


# ---------------------------------------------------------------------------
# counting functions
# ---------------------------------------------------------------------------


def count_integers(x):
    """Number of positive integers <= x, i.e. floor(x) for x >= 0.

    Returns the mathematical floor as a float; ties at integer x include x.
    Accepts scalars or arrays.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr < 0)):
        raise DomainError("count_integers requires finite x >= 0")
    out = np.floor(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


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

    def breakpoints_in(self, lo: float, hi: float) -> np.ndarray:
        """Breakpoints x_j with lo < x_j <= hi."""
        i = np.searchsorted(self.breakpoints, lo, side="right")
        j = np.searchsorted(self.breakpoints, hi, side="right")
        return self.breakpoints[i:j]


# ---------------------------------------------------------------------------
# prime sieve and table
# ---------------------------------------------------------------------------


def _sieve_odd_bits(limit: int) -> np.ndarray:
    """Boolean array b with b[i] meaning 2*i+1 is prime, for 2*i+1 <= limit.

    Segmented, odd-only sieve: base primes up to sqrt(limit) mark odd
    composites segment by segment (segments of 2^22 odd slots keep the
    working set cache-friendly at the 1e8 scale).
    """
    n_odd = (limit + 1) // 2
    bits = np.ones(n_odd, dtype=bool)
    bits[0] = False  # 1 is not prime
    root = int(math.isqrt(limit))
    if root >= 3:
        # dense base sieve over odds <= root
        n_base = (root + 1) // 2
        base = np.ones(n_base, dtype=bool)
        base[0] = False
        for i in range(1, (int(math.isqrt(root)) + 1) // 2 + 1):
            if base[i]:
                p = 2 * i + 1
                base[(p * p - 1) // 2 :: p] = False
        base_primes = 2 * np.flatnonzero(base) + 1
        seg = 1 << 22
        for lo in range(0, n_odd, seg):
            hi = min(lo + seg, n_odd)
            view = bits[lo:hi]
            for p in base_primes:
                # first odd multiple of p in the segment, at least p*p
                start = (p * p - 1) // 2
                if start < lo:
                    start = lo + (-(lo - start)) % p
                if start < hi:
                    view[start - lo :: p] = False
    return bits


class PrimeTable:
    """All primes up to `limit`, held as a sorted array.

    Built from the odd bitset of the sieve, which it does not keep. Count
    queries use binary search on the prime array, so repeated ratio-table
    evaluation costs O(log n) per point.
    """

    def __init__(self, limit: int, odd_bits: np.ndarray):
        self.limit = int(limit)
        primes = 2 * np.flatnonzero(odd_bits).astype(np.int64) + 1
        if self.limit >= 2:
            primes = np.concatenate(([np.int64(2)], primes))
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
        NaN and +inf)."""
        arr = np.asarray(x, dtype=float)
        keys = self._keys(arr)
        if arr.size and np.any(arr > self.limit):
            top = float(np.max(arr))
            if top == math.inf:
                raise DomainError("prime table count query must not be +inf")
            needed = int(math.ceil(top))
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


def _save_bits(path: Path, limit: int, odd_bits: np.ndarray) -> None:
    header = _CACHE_MAGIC + struct.pack("<IQ", _CACHE_FORMAT, limit)
    _atomic_write(path, header + np.packbits(odd_bits, bitorder="little").tobytes())


def _load_bits(path: Path):
    """(limit, odd bitset) from a cache file; ContractError if it is not one."""
    raw = path.read_bytes()
    if len(raw) < 16 or raw[:4] != _CACHE_MAGIC:
        raise ContractError(f"not a prime table cache: {path}")
    version, limit = struct.unpack("<IQ", raw[4:16])
    if version != _CACHE_FORMAT:
        raise ContractError(f"unsupported prime cache version {version}")
    n_odd = (limit + 1) // 2
    packed = np.frombuffer(raw, dtype=np.uint8, offset=16)
    if packed.size != (n_odd + 7) // 8:
        raise ContractError(f"truncated prime table cache: {path}")
    return int(limit), np.unpackbits(packed, bitorder="little")[:n_odd].astype(bool)


def build_prime_table(limit: int, cache_dir: Optional[os.PathLike] = None) -> PrimeTable:
    """Sieve (or reload from cache) all primes up to `limit`.

    The cache file is `primes_<limit>.ptbl` under `cache_dir` (defaulting to
    $TAUBERLAB_CACHE_DIR or ~/.cache/tauberlab). A corrupt cache is rebuilt
    with a logged warning, never trusted.
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
            cached_limit, bits = _load_bits(cache_path)
            if cached_limit == limit:
                return PrimeTable(limit, bits)
            logger.warning("prime cache %s has wrong limit; rebuilding", cache_path)
        except ContractError as exc:
            logger.warning("corrupt prime cache (%s); rebuilding", exc)
    bits = _sieve_odd_bits(limit)
    try:
        _save_bits(cache_path, limit, bits)
    except OSError as exc:
        logger.warning("could not write prime cache %s: %s", cache_path, exc)
    return PrimeTable(limit, bits)


def count_primes(x, table: PrimeTable) -> int:
    """Number of primes <= x. Raises TableExhaustedError beyond table.limit."""
    xf = float(x)
    if not math.isfinite(xf) or xf < 0:
        raise DomainError("count_primes requires finite x >= 0")
    if xf < 2:
        return 0
    return table.count(xf)


def chebyshev_weighted(x, table: PrimeTable):
    """Weighted prime count S(x) = pi_P(x) * ln(x); 0 below the first prime.

    Scalar or array x.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr <= 0)):
        raise DomainError("chebyshev_weighted requires finite x > 0")
    counts = table.count(arr)
    out = np.where(arr >= 2, counts * np.log(np.maximum(arr, 1.0)), 0.0)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# growth functions
# ---------------------------------------------------------------------------


@dataclass
class GrowthFunction:
    """A non-decreasing S on [0, inf) with certified linear growth bound.

    Fields beyond the evaluator exist so the transform and operator layers
    can pick the best strategy per source:

    - ``laplace``: closed form of G(s) = integral of S(e^u) e^{-su} du when
      one is known (vectorized in s).
    - ``breakpoints_in(lo, hi)``: jump abscissae of S in (lo, hi], so
      quadratures can split panels exactly at discontinuities.
    - ``g_smooth(u)``: local between-jump average of g; the frequency route
      swaps the sawtooth for it past its jump-resolution point, where
      individual jumps are too dense to resolve.
    - ``u_cap``: largest u at which g(u) is evaluable (ln of a prime table
      limit); integrators freeze g beyond it, direct evaluation raises.
    - ``ratio_limit_A``: the declared limit A of g(u) when one exists
      (None for sources without a ratio limit); experiments that test the
      forward direction require it.
    - ``between_jumps``: shape of S(e^u) between declared breakpoints —
      "constant" (pure counting) or "linear_u" (count times u, as for the
      log-weighted prime count); exact integrators pick the matching
      antiderivative.
    """

    label: str
    fn: Callable
    growth_constant: float
    laplace: Optional[Callable] = None
    breakpoints_in: Optional[Callable] = None
    g_smooth: Optional[Callable] = None
    u_cap: float = math.inf
    ratio_limit_A: Optional[float] = None
    between_jumps: str = "constant"

    def __call__(self, x):
        return self.fn(x)

    def g(self, u):
        """Normalized ratio g(u) = S(e^u)/e^u for u >= 0."""
        arr = np.asarray(u, dtype=float)
        if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr < 0)):
            raise DomainError("normalized ratio needs finite u >= 0")
        if arr.size and np.any(arr > self.u_cap):
            raise TableExhaustedError(
                f"g(u) for source '{self.label}' is only evaluable up to "
                f"u = {self.u_cap:.6g}; got u = {float(np.max(arr)):.6g}",
                required=int(math.ceil(math.exp(float(np.max(arr))))),
            )
        eu = np.exp(arr)
        out = self.fn(eu) / eu
        return float(out) if np.isscalar(u) or arr.ndim == 0 else out

    def g_clipped(self, u):
        """g with the argument clipped to u_cap (frozen-tail convention)."""
        arr = np.asarray(u, dtype=float)
        # the 1e-9 margin keeps exp(u_cap) from rounding past the table edge
        cap = self.u_cap - 1e-9 if math.isfinite(self.u_cap) else self.u_cap
        clipped = np.minimum(arr, cap)
        out = self.g(clipped)
        return float(out) if np.isscalar(u) or arr.ndim == 0 else out
