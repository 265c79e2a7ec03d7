"""The acceptance gate: one test per criterion, at the stated tolerances.

Criteria 3-7 write their CSV artifacts through module-level builders so the
determinism criterion (10) can re-run the identical computation and compare
bytes. Runtime budgets are asserted, not just hoped for.
"""

import json
import math
import time

import numpy as np
import pytest

from tauberlab import transform as tr
from tauberlab.arith import _atomic_write, _csv_text, count_primes
from tauberlab.operators import (
    IntervalSpec,
    assemble_frequency_route,
    assemble_kernel_route,
    diagonal_sequence,
    weak_limit_diagnostic,
)
from tauberlab.special import prime_zeta, psi_entire, zeta
from tauberlab.tauber import (
    converse_experiment,
    forward_experiment,
    lower_bound_witness,
    pnt_pipeline,
)
from tauberlab.transform import transform_integers

L8PI = 8 * math.pi


class _clock:
    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0
        return False


# ---------------------------------------------------------------------------
# artifact builders (criteria 3-7) — deliberately free of test state so
# criterion 10 can re-run them cold; c7 takes the session's 10^8 table
# ---------------------------------------------------------------------------


def _build_c3(outdir):
    outdir.mkdir(parents=True, exist_ok=True)
    S = tr.source_integers()
    I = IntervalSpec(2 * math.pi)
    Wk = assemble_kernel_route([S], I, 0.1, 8)[0]
    Wf = assemble_frequency_route([S], I, 0.1, 8)[0]
    paths = [outdir / "route_kernel.csv", outdir / "route_frequency.csv"]
    _atomic_write(paths[0], Wk.csv_text())
    _atomic_write(paths[1], Wf.csv_text())
    return paths, (Wk, Wf)


def _build_c4(outdir):
    outdir.mkdir(parents=True, exist_ok=True)
    diag = diagonal_sequence([tr.source_identity()], IntervalSpec(2 * math.pi), 0.0, 64)[0]
    p = outdir / "plancherel_diag.csv"
    p.write_text(_csv_text("diag", {"source": "identity", "eps": 0, "N": 64}, enumerate(diag)))
    return [p], diag


_C5_MEMBERS = (
    ("linear", tr.source_identity),
    ("two_linear_plus_root", lambda: tr.source_sqrt_mix(2.0, 1.0)),
    ("linear_plus_root", lambda: tr.source_sqrt_mix(1.0, 1.0)),
    ("bounded_step", tr.source_single_jump),
)


def _build_c5(outdir):
    outdir.mkdir(parents=True, exist_ok=True)
    paths, reports = [], {}
    for name, factory in _C5_MEMBERS:
        S = factory()
        rep = forward_experiment(S, None, L=L8PI, N=64)
        p = outdir / f"forward_{name}.ratio.csv"
        rep.save_ratio_csv(p)
        paths.append(p)
        reports[name] = rep
    return paths, reports


def _build_c6(outdir):
    outdir.mkdir(parents=True, exist_ok=True)
    rep = converse_experiment(tr.source_log_oscillation(0.5), L=L8PI, N=64)
    p = outdir / "oscillation.ratio.csv"
    rep.save_ratio_csv(p)
    return [p], rep


def _build_c7(outdir, table):
    outdir.mkdir(parents=True, exist_ok=True)
    rep = pnt_pipeline(table)
    p = outdir / "pnt.ratio.csv"
    rep.save_ratio_csv(p)
    return [p], (rep, table)


# ---------------------------------------------------------------------------
# criteria 1-2: analytic identities
# ---------------------------------------------------------------------------


def test_c01_pole_split_identity(rng):
    with _clock() as c:
        worst = 0.0
        for eps in (0.01, 0.1):
            for t in rng.uniform(-10.0, 10.0, size=10):
                s = complex(1.0 + eps, t)
                gap = abs(zeta(s) / s - 1.0 / (s - 1.0) - psi_entire(s))
                worst = max(worst, gap)
        assert worst < 1e-8, f"identity defect {worst:.3g}"
    assert c.elapsed < 1.0, f"{c.elapsed:.2f}s over the 1s budget"


def test_c02_log_zeta_equals_prime_zeta_sum(rng):
    with _clock() as c:
        for _ in range(20):
            s = complex(rng.uniform(1.5, 3.0), rng.uniform(-10.0, 10.0))
            total = 0.0 + 0.0j
            k = 1
            while True:
                term = prime_zeta(k * s) / k
                total += term
                k += 1
                if abs(term) < 1e-13 and k > 3:
                    break
            assert abs(np.log(zeta(s)) - total) < 1e-8, s
    assert c.elapsed < 5.0, f"{c.elapsed:.2f}s over the 5s budget"


# ---------------------------------------------------------------------------
# criteria 3-4: the operator core
# ---------------------------------------------------------------------------


def test_c03_route_equivalence(artifact_dir):
    with _clock() as c:
        _, (Wk, Wf) = _build_c3(artifact_dir / "c3")
        gap = float(np.max(np.abs(Wk.entries - Wf.entries)))
        assert gap < 1e-5, f"routes disagree by {gap:.3g}"
    assert c.elapsed < 60.0, f"{c.elapsed:.1f}s over the 60s budget"


def test_c04_plancherel_normalization(artifact_dir):
    with _clock() as c:
        _, diag = _build_c4(artifact_dir / "c4")
        assert diag.shape == (65,)
        defect = float(np.max(np.abs(diag - 1.0)))
        assert defect < 1e-8, f"diagonal off unity by {defect:.3g}"
    assert c.elapsed < 10.0, f"{c.elapsed:.1f}s over the 10s budget"


# ---------------------------------------------------------------------------
# criteria 5-6: the two directions of the limit theorem
# ---------------------------------------------------------------------------


def test_c05_forward_battery(artifact_dir):
    with _clock() as c:
        _, reports = _build_c5(artifact_dir / "c5")
        for name, rep in reports.items():
            assert rep.diag_decay, f"{name}: decay verdict false (band max {rep.band_max():.4f})"
            assert rep.band_max() < 0.02, f"{name}: band max {rep.band_max():.4f}"
    assert c.elapsed < 120.0, f"{c.elapsed:.1f}s over the 2min budget"


def test_c06_oscillating_counterexample(artifact_dir):
    with _clock() as c:
        _, rep = _build_c6(artifact_dir / "c6")
        lo, hi = rep.band
        assert (lo, hi) == (32, 64)
        assert rep.band_max() >= 0.05, f"floor not reached: {rep.band_max():.4f}"
        w = lower_bound_witness(
            tr.source_log_oscillation(0.5), rep.A_estimate, 0.25, u_max=18.0
        )
        assert w is not None, "no certified window at threshold 0.25"
        assert w.certified_min == pytest.approx(0.125)
        us = np.linspace(w.u_start, w.u_end, 100)
        h = np.asarray(tr.source_log_oscillation(0.5).g(us)) - rep.A_estimate
        assert np.min(h) >= w.certified_min - 1e-9
    assert c.elapsed < 60.0, f"{c.elapsed:.1f}s over the 1min budget"


# ---------------------------------------------------------------------------
# criterion 7: the prime pipeline
# ---------------------------------------------------------------------------


def test_c07_prime_counting_pipeline(artifact_dir, big_table):
    with _clock() as c:
        _, (rep, table) = _build_c7(artifact_dir / "c7", big_table)
        # sieve oracle at the decades, then the ratio table against it
        oracle_counts = {4: 1229, 6: 78498, 7: 664579}
        for k, pk in oracle_counts.items():
            assert count_primes(10**k, table) == pk, f"sieve disagrees at 10^{k}"
            u = math.log(10**k)
            want = pk * u / 10**k
            got = rep.ratio_at(u)
            assert abs(got - want) < 2e-4, f"g(ln 10^{k}) = {got:.6f} vs oracle {want:.6f}"
        # the fine grid wobbles below x ~ 1e4 (real prime fluctuations);
        # the decade marks are the monotone claim
        decades = [rep.ratio_at(k * math.log(10.0)) for k in range(3, 9)]
        assert np.all(np.diff(decades) < 0), f"decade ratios not decreasing: {decades}"
        assert 0.9 <= rep.A_estimate <= 1.1, f"A* = {rep.A_estimate:.4f}"
    assert c.elapsed < 300.0, f"{c.elapsed:.1f}s over the 5min budget"


# ---------------------------------------------------------------------------
# criteria 8-9: operator-level health of the whole battery
# ---------------------------------------------------------------------------


def test_c08_positivity_symmetry_suite(small_table):
    from tauberlab.tauber import battery_members

    with _clock() as c:
        I = IntervalSpec(L8PI)
        for S, _, _, _ in battery_members():
            W = assemble_frequency_route([S], I, 0.05, 64)[0]
            assert np.array_equal(W.entries, W.entries.T), S.label
            eig_min = float(np.linalg.eigvalsh(W.entries).min())
            assert eig_min >= -1e-8, f"{S.label}: min eigenvalue {eig_min:.3g}"
    assert c.elapsed < 120.0, f"{c.elapsed:.1f}s over the 2min budget"


def test_c09_weak_limit_schedule():
    with _clock() as c:
        rep = weak_limit_diagnostic(
            tr.source_integers(), IntervalSpec(16 * math.pi), 8, (0.4, 0.2, 0.1, 0.05)
        )
        assert len(rep.deltas) == 3
        for r in rep.ratios:
            assert r >= 1.5, f"contraction ratios {rep.ratios}"
        assert rep.cauchy
    assert c.elapsed < 120.0, f"{c.elapsed:.1f}s over the 2min budget"


# ---------------------------------------------------------------------------
# criterion 10: determinism of everything above
# ---------------------------------------------------------------------------


def test_c10_byte_identical_reruns(artifact_dir, big_table):
    builders = {
        "c3": _build_c3,
        "c4": _build_c4,
        "c5": _build_c5,
        "c6": _build_c6,
        "c7": lambda outdir: _build_c7(outdir, big_table),
    }
    for name, build in builders.items():
        first = artifact_dir / name
        if not first.exists():  # criterion test deselected: build the baseline here
            build(first)
        paths2, _ = build(artifact_dir / f"{name}_rerun")
        for p2 in paths2:
            p1 = first / p2.name
            assert p1.exists(), f"missing baseline artifact {p1}"
            assert p1.read_bytes() == p2.read_bytes(), f"{name}/{p2.name} differs between runs"
