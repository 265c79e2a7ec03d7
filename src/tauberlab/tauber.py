"""Theorem-level experiments tying ratio limits to operator diagonals.

The machinery: for a growth function S with g(u) = S(e^u) e^{-u} bounded,
the truncated convolution operator splits as W = A Id + Psi, and the two
directions under test are

  forward:  g(u) -> A         implies the Psi diagonals decay,
  converse: Psi diagonals decay at high |n| implies g(u) -> A,

with the oscillating source x (1 + 0.5 sin ln x) as the mechanism that
breaks both at once. Experiments run on finite truncations with explicit
thresholds and report everything needed to recompute their verdicts.

Diagonals are evaluated at eps = 0 (the windowed integral of a bounded h
converges without damping). The spectral tail of Psi is taken at
eps = SPECTRAL_EPS on the kernel route, from the closed-form transform, for
every source; the reports record these two eps as their eps schedule. A* is
estimated exactly the way the underlying argument works: from the high-|n|
diagonal band, as the a in [0, 2C] that minimizes the worst
|<(W - a Id) e_n, e_n>|. That worst case is max(max b - a, a - min b) over
the band values b, V-shaped in a, so its minimizer is the band midrange
(max b + min b)/2 clipped into [0, 2C].

Every experiment runs through the one driver, _reports, which reads
S.g(u_max) for every member before any operator work. That is the one
range guard: a table-backed source refuses a u_max past its table with
TableExhaustedError, and any source refuses a NaN or negative u_max with
DomainError. It then takes every member's diagonal in one
diagonal_sequence call and its truncation in one assemble_kernel_route
call, and builds the reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .arith import GrowthFunction, PrimeTable, _atomic_write, _fields_dict
from .errors import ContractError
from .operators import (
    IntervalSpec,
    _check_order,
    _check_resolvable,
    assemble_frequency_route,  # not called here; perfbench/workloads.py wraps this name
    assemble_kernel_route,
    diagonal_sequence,
    spectrum,
    split_identity,
)
from .transform import (
    source_identity,
    source_log_oscillation,
    source_single_jump,
    source_slow_approach,
    source_sqrt_mix,
    source_primes_weighted,
)

__all__ = [
    "ExperimentReport",
    "WitnessWindow",
    "BatteryReport",
    "DEFAULT_LENGTH",
    "DEFAULT_ORDER",
    "forward_experiment",
    "converse_experiment",
    "lower_bound_witness",
    "pnt_pipeline",
    "run_battery",
    "battery_members",
]

DEFAULT_LENGTH = 8.0 * math.pi
DEFAULT_ORDER = 64
DIAG_THRESHOLD = 0.02
RATIO_THRESHOLD = 0.05
SPECTRAL_EPS = 0.05
SPECTRAL_TOP = 20
# The order-n diagonal at eps = 0 reads g near u = 2 pi n / L, and a 1e8 table
# freezes g past u = ln(1e8); at L = 8 pi, 72 sits under N_max = L ln(1e8)/(2 pi) = 73.7,
# past which diagonal_sequence refuses an order.
PNT_ORDER = 72
# u = ln 10^k, 3 <= k <= 25: the decade marks of a table-backed ratio table
_DECADE_MARKS = tuple(math.log(10.0**k) for k in range(3, 26))
# the ExperimentReport fields its JSON nests under "verdicts"
_VERDICTS = ("diag_decay", "ratio_limit", "consistent")


def _save_doc(path, key: str, body: dict, extra: Optional[dict]) -> None:
    """Write {"schema": "tauberlab/1", **extra, key: body} as sorted JSON."""
    doc = {"schema": "tauberlab/1", **(extra or {}), key: body}
    _atomic_write(Path(path), json.dumps(doc, indent=2, sort_keys=True) + "\n")


@dataclass
class ExperimentReport:
    """Self-contained record of one experiment; verdicts recomputable."""

    source: str
    length: float
    order: int
    eps_schedule: list
    A_estimate: float
    A_method: str  # "declared", or "minimax": the clipped band midrange
    diagonal: np.ndarray  # <Psi e_n, e_n> for n = 0..order (even in n)
    band: tuple  # (lo, hi) of |n| used for the decay verdict
    spectral_tail: np.ndarray  # top |eigenvalues| of Psi at eps_spectral
    eps_spectral: float
    ratio_u: np.ndarray
    ratio_g: np.ndarray
    ratio_window: tuple  # (u_lo, u_hi) where the ratio verdict samples
    diag_threshold: float
    ratio_threshold: float
    diag_decay: bool = False  # the verdicts, derived by recompute_verdicts
    ratio_limit: bool = False
    consistent: bool = False
    u_max: float = 0.0

    def recompute_verdicts(self) -> dict:
        """Re-derive the verdicts from the stored arrays alone."""
        decay = self.band_max() < self.diag_threshold
        u_lo, u_hi = self.ratio_window
        sel = (self.ratio_u >= u_lo) & (self.ratio_u <= u_hi)
        dev = np.abs(self.ratio_g[sel] - self.A_estimate)
        ratio = bool(dev.size and float(dev.max()) < self.ratio_threshold)
        return dict(zip(_VERDICTS, (decay, ratio, decay and ratio)))

    def band_max(self) -> float:
        lo, hi = self.band
        return float(np.max(np.abs(self.diagonal[lo : hi + 1])))

    def ratio_at(self, u: float) -> float:
        i = int(np.argmin(np.abs(self.ratio_u - u)))
        return float(self.ratio_g[i])

    def to_dict(self) -> dict:
        d = _fields_dict(self)
        d["verdicts"] = {k: d.pop(k) for k in _VERDICTS}
        return d

    def save_json(self, path, extra: Optional[dict] = None) -> None:
        _save_doc(path, "report", self.to_dict(), extra)

    def save_ratio_csv(self, path) -> None:
        lines = [
            f"# tauberlab-ratio v1, source={self.source}, L={self.length!r}, "
            f"A={self.A_estimate!r}",
            "u,g",
        ]
        lines += [f"{u:.17g},{g:.17g}" for u, g in zip(self.ratio_u, self.ratio_g)]
        _atomic_write(Path(path), "\n".join(lines) + "\n")


def _ratio_grid(S: GrowthFunction, u_max: float) -> np.ndarray:
    """40-point log-spaced e^u grid ending at u_max (within range, by the
    guard). A table-backed source (finite u_cap) adds the decade marks its
    table reaches."""
    grid = np.linspace(min(math.log(1e3), 0.5 * u_max), u_max, 40)
    if not math.isfinite(S.u_cap):
        return grid
    return np.unique(np.concatenate([grid, [u for u in _DECADE_MARKS if u <= S.u_cap]]))


def _minimax_a(diag_W: np.ndarray, lo: int, hi: int, hi_a: float) -> float:
    """argmin over a in [0, hi_a] of max_{band} |diag_W(n) - a|: the band
    midrange, clipped (module docstring)."""
    band = diag_W[lo : hi + 1]
    return min(max(0.5 * (float(band.max()) + float(band.min())), 0.0), hi_a)


def _reports(members, L: float, N: int, A=None) -> list:
    """The one experiment driver: the reports of members (S, u_max,
    diag_threshold, ratio_threshold), in order.

    It runs every member's range guard S.g(u_max), builds the interval,
    then takes the eps = 0 diagonals of W in one diagonal_sequence call and
    the kernel-route truncations at SPECTRAL_EPS in one
    assemble_kernel_route call, so the members share each grid. A is the
    declared limits (forward), or None (converse), where each A* is the
    clipped band midrange of the diagonal; either way A is taken off the
    diagonal here. Each report carries the top |eigenvalues| of W - A Id,
    the ratio table, its window [0.8 u_max, u_max], the eps schedule
    actually used, [0, SPECTRAL_EPS], and the verdicts."""
    for S, u_max, *_ in members:
        S.g(u_max)
    sources = [S for S, *_ in members]
    I = IntervalSpec(L)
    diag = diagonal_sequence(sources, I, 0.0, N)
    W = assemble_kernel_route(sources, I, SPECTRAL_EPS, N)
    lo, hi = N - N // 2, N
    declared = [None] * len(members) if A is None else A
    reports = []
    for (S, u_max, d_thr, r_thr), d, WS, a in zip(members, diag, W, declared):
        method = "declared" if a is not None else "minimax"
        if a is None:
            a = _minimax_a(d, lo, hi, 2.0 * S.growth_constant)
        grid = _ratio_grid(S, u_max)
        report = ExperimentReport(
            source=S.label,
            length=L,
            order=N,
            eps_schedule=[0.0, SPECTRAL_EPS],
            A_estimate=float(a),
            A_method=method,
            diagonal=d - a,
            band=(lo, hi),
            spectral_tail=np.abs(spectrum(split_identity(WS, a))[:SPECTRAL_TOP]),
            eps_spectral=SPECTRAL_EPS,
            ratio_u=grid,
            ratio_g=np.asarray(S.g(grid), dtype=float),
            ratio_window=(0.8 * u_max, u_max),
            diag_threshold=d_thr,
            ratio_threshold=r_thr,
            u_max=u_max,
        )
        for k, v in report.recompute_verdicts().items():
            setattr(report, k, v)
        reports.append(report)
    return reports


def forward_experiment(
    S: GrowthFunction,
    A: Optional[float],
    L: float = DEFAULT_LENGTH,
    N: int = DEFAULT_ORDER,
    u_max: float = 18.0,
) -> ExperimentReport:
    """Known-limit direction: declared A, test that Psi diagonals decay.

    Preconditions: u_max in range (module docstring), A declared (or
    readable off the source) and roughly consistent with the data,
    |g(u_max) - A| < 0.1, and N resolvable on the source (orders past
    the frozen tail are refused first, with the routes' own checks). The
    verdicts use DIAG_THRESHOLD and RATIO_THRESHOLD, the spectral tail is
    taken at SPECTRAL_EPS on the kernel route, and the report's eps
    schedule records the two eps in use, [0, SPECTRAL_EPS]."""
    if A is None:
        A = S.ratio_limit_A
    if A is None:
        raise ContractError(
            f"source {S.label!r} declares no ratio limit; forward_experiment needs A"
        )
    g_end = S.g(u_max)
    I = IntervalSpec(L)
    _check_order(N)  # an order the routes refuse wins over an inconsistent A
    _check_resolvable(S, I.length, N)
    if not abs(g_end - A) < 0.1:  # a NaN A fails it too, before operator work
        raise ContractError(
            f"declared A = {A:g} inconsistent with data: g({u_max:g}) = {g_end:.4f}"
        )
    return _reports([(S, u_max, DIAG_THRESHOLD, RATIO_THRESHOLD)], L, N, [A])[0]


def converse_experiment(
    S: GrowthFunction,
    L: float = DEFAULT_LENGTH,
    N: int = DEFAULT_ORDER,
    u_max: float = 18.0,
) -> ExperimentReport:
    """Estimate A from the diagonals, then test the ratio limit against it.

    A* minimizes the worst high-band |<(W - a Id) e_n, e_n>| over
    a in [0, 2C]: it is the clipped band midrange. The diagonal is taken in
    the eps -> 0 limit, which is where the split is read off, so N must be
    resolvable on the source (diagonal_sequence refuses orders past the
    frozen tail), and u_max must be in range (module docstring).
    consistent = diag_decay AND ratio_limit, at DIAG_THRESHOLD and
    RATIO_THRESHOLD. The spectral tail is taken at SPECTRAL_EPS on the
    kernel route, and the report's eps schedule records the two eps in
    use, [0, SPECTRAL_EPS]."""
    return _reports([(S, u_max, DIAG_THRESHOLD, RATIO_THRESHOLD)], L, N)[0]


@dataclass(frozen=True)
class WitnessWindow:
    """A certified interval on which h stays at least threshold/2."""

    u_start: float
    u_end: float
    h_at_start: float
    threshold: float
    certified_min: float


def lower_bound_witness(
    S: GrowthFunction,
    A: float,
    eps_threshold: float,
    u_max: float = 18.0,
) -> Optional[WitnessWindow]:
    """First u on the 0.01-step grid with h(u) >= threshold, certified on a forward window.

    Because S is non-decreasing, g(u + d) >= g(u) e^{-d}, hence
    h(u + d) >= (h(u) + A) e^{-d} - A; the window length is chosen so the
    certified lower bound is threshold/2. Returns None when no grid point
    reaches the threshold (a valid outcome, not an error)."""
    if not (eps_threshold > 0.0) or not math.isfinite(eps_threshold):
        raise ContractError("threshold must be positive and finite")
    if not math.isfinite(A) or A < 0.0:
        raise ContractError("A must be finite and non-negative")
    S.g(u_max)
    grid = np.arange(0.0, u_max, 0.01)
    h = np.asarray(S.g(grid), dtype=float) - A
    hits = np.flatnonzero(h >= eps_threshold)
    if hits.size == 0:
        return None
    i = int(hits[0])
    u0 = float(grid[i])
    h0 = float(h[i])
    du = math.log((A + h0) / (A + eps_threshold / 2.0))
    return WitnessWindow(
        u_start=u0,
        u_end=u0 + du,
        h_at_start=h0,
        threshold=eps_threshold,
        certified_min=eps_threshold / 2.0,
    )


def pnt_pipeline(
    table: PrimeTable,
    L: float = DEFAULT_LENGTH,
    N: int = PNT_ORDER,
    u_max: float = 18.0,
) -> ExperimentReport:
    """The prime-counting corollary at desk scale.

    The converse experiment on S(x) = pi_P(x) ln x: sieve-backed
    diagonals at eps = 0 give A*, the closed-form transform drives the
    spectral-tail assembly, and the ratio table g(u) = u pi_P(e^u)/e^u
    carries the decade marks the table reaches. The true limit A = 1 is
    out of reach here; the deliverable is the decreasing trend and an A*
    near 1."""
    return converse_experiment(source_primes_weighted(table), L=L, N=N, u_max=u_max)


def battery_members() -> list:
    """The synthetic test battery with per-member experiment settings.

    Entries: (source, u_max, diag_threshold, ratio_threshold). The slow
    logarithmic approach needs a longer range and relaxed thresholds to
    show its (genuine) limit at desk scale."""
    return [
        (source_identity(), 18.0, DIAG_THRESHOLD, RATIO_THRESHOLD),
        (source_sqrt_mix(2.0, 1.0), 18.0, DIAG_THRESHOLD, RATIO_THRESHOLD),
        (source_sqrt_mix(1.0, 1.0), 18.0, DIAG_THRESHOLD, RATIO_THRESHOLD),
        (source_log_oscillation(0.5), 18.0, DIAG_THRESHOLD, RATIO_THRESHOLD),
        (source_single_jump(), 18.0, DIAG_THRESHOLD, RATIO_THRESHOLD),
        (source_slow_approach(), 30.0, 0.1, 0.1),
    ]


@dataclass
class BatteryReport:
    """Converse runs over the battery plus the two-sided agreement verdict."""

    reports: dict
    equivalence: dict  # label -> diag_decay == ratio_limit
    all_equivalent: bool

    def to_dict(self) -> dict:
        return {
            "reports": {k: r.to_dict() for k, r in self.reports.items()},
            "equivalence": dict(self.equivalence),
            "all_equivalent": self.all_equivalent,
        }

    def save_json(self, path, extra: Optional[dict] = None) -> None:
        _save_doc(path, "battery", self.to_dict(), extra)


def run_battery(L: float = DEFAULT_LENGTH, N: int = DEFAULT_ORDER) -> BatteryReport:
    """Converse experiment across the battery; both verdicts must agree
    (both true for genuine limits, both false for the oscillator).

    The members run as one batch through _reports: the closed-form sources
    share the frequency-route grid at eps = 0 and the kernel-route grid and
    phases at SPECTRAL_EPS. Each report is converse_experiment's on its
    member, at the member's own thresholds, up to the rounding of the
    batched sums: the A_method is the same, and the diagonal and spectral
    tail agree to about 1e-15."""
    reports = _reports(battery_members(), L, N)
    equivalence = {rep.source: rep.diag_decay == rep.ratio_limit for rep in reports}
    return BatteryReport(
        reports={rep.source: rep for rep in reports},
        equivalence=equivalence,
        all_equivalent=all(equivalence.values()),
    )
