"""Experiment layer: estimator sanity, witnesses, scaling, report plumbing."""

import dataclasses
import json
import math

import numpy as np
import pytest

from tauberlab import tauber
from tauberlab import transform as tr
from tauberlab.errors import ContractError, DomainError, TableExhaustedError
from tauberlab.operators import IntervalSpec, assemble_kernel_route, spectrum, split_identity
from tauberlab.tauber import (
    PNT_ORDER,
    SPECTRAL_EPS,
    SPECTRAL_TOP,
    battery_members,
    converse_experiment,
    forward_experiment,
    lower_bound_witness,
    pnt_pipeline,
    run_battery,
)
from tauberlab.operators import diagonal_sequence

I8 = IntervalSpec(8 * math.pi)


# ---------------------------------------------------------------------------
# forward direction
# ---------------------------------------------------------------------------


def test_forward_on_linear_source_is_exactly_flat():
    rep = forward_experiment(tr.source_identity(), None, N=16, u_max=14.0)
    assert rep.A_method == "declared"
    assert rep.A_estimate == 1.0
    assert rep.band_max() < 1e-12
    assert np.max(np.abs(rep.ratio_g - 1.0)) < 1e-12
    assert rep.diag_decay and rep.ratio_limit and rep.consistent


def test_forward_requires_a_declared_limit():
    with pytest.raises(ContractError):
        forward_experiment(tr.source_log_oscillation(0.5), None, N=8)


def test_forward_rejects_inconsistent_declared_limit():
    with pytest.raises(ContractError) as ei:
        forward_experiment(tr.source_identity(), 5.0, N=8)
    assert "inconsistent" in str(ei.value)


def test_forward_respects_source_range(small_table):
    S = tr.source_primes_weighted(small_table)  # u_cap = ln 1e5 < 18
    with pytest.raises(TableExhaustedError) as ei:
        forward_experiment(S, 1.0, N=8, u_max=18.0)
    assert ei.value.required > small_table.limit


# ---------------------------------------------------------------------------
# the one range guard: every driver reads S.g(u_max) before operator work
# ---------------------------------------------------------------------------

_DRIVERS = {
    "converse": lambda S, u_max: converse_experiment(S, N=8, u_max=u_max),
    "forward": lambda S, u_max: forward_experiment(S, 1.0, N=8, u_max=u_max),
    "witness": lambda S, u_max: lower_bound_witness(S, 1.0, 0.05, u_max=u_max),
}


@pytest.mark.parametrize("driver", ["converse", "witness"])  # forward: test above
def test_a_u_max_past_the_table_is_table_exhausted_from_every_driver(driver, small_table):
    with pytest.raises(TableExhaustedError) as ei:
        _DRIVERS[driver](tr.source_primes_weighted(small_table), 18.0)
    assert ei.value.required > small_table.limit


@pytest.mark.parametrize("u_max", [math.nan, -1.0])
@pytest.mark.parametrize("driver", sorted(_DRIVERS))
def test_a_nan_or_negative_u_max_is_refused_before_operator_work(driver, u_max, monkeypatch):
    def no_operator_work(*args):
        raise AssertionError("operator work ran before the range guard")

    for name in ("diagonal_sequence", "assemble_kernel_route"):
        monkeypatch.setattr(tauber, name, no_operator_work)
    with pytest.raises(DomainError):
        _DRIVERS[driver](tr.source_identity(), u_max)


def test_orders_past_the_frozen_tail_are_refused(small_table):
    """Past u_cap = ln 1e5 the table-backed g is frozen, so at L = 8 pi the
    largest order that reads the source is N_max = 4 ln 1e5 = 46.05."""
    S = tr.source_primes_weighted(small_table)
    with pytest.raises(DomainError, match="N_max = 46.05"):
        converse_experiment(S, N=47, u_max=11.0)
    with pytest.raises(DomainError, match="N_max = 46.05"):
        forward_experiment(S, 1.0, N=64, u_max=11.0)
    assert converse_experiment(S, N=46, u_max=11.0).order == 46


def test_forward_refuses_an_inconsistent_A_before_operator_work(monkeypatch):
    # the identity source has g = 1, so a declared A = 5, NaN or inf is
    # refused before the eps = 0 diagonal or the kernel route runs
    def no_operator_work(*args):
        raise AssertionError("operator work ran before the A check")

    for name in ("diagonal_sequence", "assemble_kernel_route"):
        monkeypatch.setattr(tauber, name, no_operator_work)
    for A in (5.0, math.nan, math.inf):
        with pytest.raises(ContractError, match="inconsistent with data"):
            forward_experiment(tr.source_identity(), A, N=8)


# ---------------------------------------------------------------------------
# converse direction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("a", [0.5, 1.0, 3.0])
def test_a_star_recovers_linear_slope(a):
    S = tr.source_sqrt_mix(a, 0.0)  # a x, transform a/(s-1)
    rep = converse_experiment(S, N=16, u_max=14.0)
    assert rep.A_method == "minimax"
    assert abs(rep.A_estimate - a) < 0.02


def test_converse_flags_the_oscillating_source():
    rep = converse_experiment(tr.source_log_oscillation(0.5), N=16, u_max=14.0)
    assert not rep.ratio_limit
    assert not rep.consistent


def test_spectral_tail_comes_from_the_kernel_route(small_table):
    """Converse and forward runs report the top |eigenvalues| of W - A Id
    with W from the kernel route at SPECTRAL_EPS. On weighted primes the
    frequency route, which reads the frozen table tail, moves this tail by
    about 1e-3; at N = 4 there are 9 eigenvalues, fewer than SPECTRAL_TOP.
    The eps schedule each report records is the two eps that ran: 0 for
    the diagonals, SPECTRAL_EPS for the tail."""
    Sw, Si = tr.source_primes_weighted(small_table), tr.source_identity()
    runs = [
        (Sw, 40, converse_experiment(Sw, N=40, u_max=11.0)),
        (Sw, 40, forward_experiment(Sw, 1.1, N=40, u_max=11.0)),
        (Si, 4, converse_experiment(Si, N=4, u_max=10.0)),
    ]
    for S, N, rep in runs:
        W = assemble_kernel_route([S], I8, SPECTRAL_EPS, N)[0]
        want = np.abs(spectrum(split_identity(W, rep.A_estimate))[:SPECTRAL_TOP])
        assert np.array_equal(rep.spectral_tail, want), (S.label, rep.A_method)
        assert rep.eps_schedule == [0.0, SPECTRAL_EPS]


# ---------------------------------------------------------------------------
# scaling equivariance (exact, by linearity)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_psi_diagonal_scales_linearly(eps):
    """Linearity is exact for the integral; numerically each evaluation
    carries its own <= 1e-10 certified cutoff, hence the tolerance."""
    c = 2.5
    base = diagonal_sequence([tr.source_sqrt_mix(1.0, 1.0)], I8, eps, 8)[0] - 1.0
    scaled = diagonal_sequence([tr.source_sqrt_mix(c, c)], I8, eps, 8)[0] - c * 1.0
    assert np.max(np.abs(scaled - c * base)) < 1e-9


# ---------------------------------------------------------------------------
# lower-bound witness
# ---------------------------------------------------------------------------


def test_witness_soundness_on_the_oscillating_source():
    S = tr.source_log_oscillation(0.5)
    w = lower_bound_witness(S, 1.0, 0.25, u_max=18.0)
    assert w is not None
    assert w.h_at_start >= w.threshold
    assert w.certified_min == pytest.approx(0.125)
    assert w.u_end > w.u_start
    # the certificate: h on 100 points of the window really sits above it
    us = np.linspace(w.u_start, w.u_end, 100)
    h = np.asarray(S.g(us)) - 1.0
    assert np.min(h) >= w.certified_min - 1e-12


def test_witness_absent_when_the_limit_holds():
    assert lower_bound_witness(tr.source_identity(), 1.0, 0.25) is None


def test_witness_guards():
    with pytest.raises(ContractError):
        lower_bound_witness(tr.source_identity(), 1.0, -0.1)
    with pytest.raises(ContractError):
        lower_bound_witness(tr.source_identity(), -1.0, 0.25)


# ---------------------------------------------------------------------------
# battery
# ---------------------------------------------------------------------------


def test_battery_member_roster():
    members = battery_members()
    labels = [m[0].label for m in members]
    assert len(members) == 6
    assert "identity" in labels and "slow_approach" in labels
    slow = next(m for m in members if m[0].label == "slow_approach")
    assert slow[1] == 30.0 and slow[2] == 0.1 and slow[3] == 0.1


def test_battery_equivalence_at_full_size():
    """Both verdict routes agree for every member, the slow one included."""
    bat = run_battery()
    assert set(bat.equivalence) == {m[0].label for m in battery_members()}
    assert bat.all_equivalent, bat.equivalence
    for label, rep in bat.reports.items():
        v = rep.recompute_verdicts()
        assert v["diag_decay"] == rep.diag_decay, label
        assert v["ratio_limit"] == rep.ratio_limit, label


def test_the_battery_runs_as_one_batch(monkeypatch):
    """One run_battery() sums one frequency-route grid, adds one exact tail
    and builds one pair of kernel-route phase matrices for all six members
    (one converse experiment per member makes 6, 6 and 12)."""
    from tauberlab import operators

    calls = dict.fromkeys(("_half_line_integrals", "_tail_integrals", "_unit_phases"), 0)
    for name in calls:

        def counting(*args, _name=name, _original=getattr(operators, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(operators, name, counting)
    run_battery()
    assert calls == {"_half_line_integrals": 1, "_tail_integrals": 1, "_unit_phases": 2}


def test_experiments_never_build_the_full_matrix(monkeypatch):
    """A truncation is its moments: the battery and a converse experiment
    take their spectral tails from the parity blocks and never build the
    (2N + 1)^2 matrix."""
    from tauberlab import operators

    def refuse(*args):
        raise AssertionError("_matrix_from_moments called")

    monkeypatch.setattr(operators, "_matrix_from_moments", refuse)
    assert run_battery().all_equivalent
    rep = converse_experiment(tr.source_sqrt_mix(1.0, 1.0), N=16, u_max=12.0)
    assert rep.spectral_tail.size == SPECTRAL_TOP


def test_each_battery_report_is_its_converse_experiment():
    """The batch changes no report beyond the rounding of its sums: each
    member's diagonal and spectral tail within 1e-14 of converse_experiment
    on that member alone, the same A_method, and the same verdicts at the
    member's own thresholds."""
    bat = run_battery()
    for S, u_max, d_thr, r_thr in battery_members():
        want = converse_experiment(S, u_max=u_max)
        want.diag_threshold, want.ratio_threshold = d_thr, r_thr
        got = bat.reports[S.label]
        assert (got.diag_threshold, got.ratio_threshold) == (d_thr, r_thr), S.label
        assert got.A_method == want.A_method, S.label
        assert got.to_dict()["verdicts"] == want.recompute_verdicts(), S.label
        assert np.max(np.abs(got.diagonal - want.diagonal)) <= 1e-14, S.label
        assert np.max(np.abs(got.spectral_tail - want.spectral_tail)) <= 1e-14, S.label


# ---------------------------------------------------------------------------
# reports on disk
# ---------------------------------------------------------------------------


def test_report_json_and_csv_round_trip(tmp_path):
    rep = converse_experiment(tr.source_identity(), N=8, u_max=12.0)
    jpath, cpath = tmp_path / "rep.json", tmp_path / "rep.ratio.csv"
    rep.save_json(jpath, extra={"config": {"order": 8}, "version": "0.1.0"})
    doc = json.loads(jpath.read_text())
    assert doc["schema"] == "tauberlab/1"
    assert doc["version"] == "0.1.0"
    assert doc["config"] == {"order": 8}
    assert doc["report"]["verdicts"]["consistent"] == rep.consistent
    assert doc["report"]["diagonal"] == rep.diagonal.tolist()

    rep.save_ratio_csv(cpath)
    lines = cpath.read_text().splitlines()
    assert lines[0].startswith("# tauberlab-ratio v1")
    assert lines[1] == "u,g"
    u0, g0 = map(float, lines[2].split(","))
    assert u0 == pytest.approx(rep.ratio_u[0])
    assert g0 == pytest.approx(rep.ratio_g[0])
    assert len(lines) == 2 + len(rep.ratio_u)


def test_report_dict_is_plain_json():
    """One key per field, the verdicts nested, and no tuple or array left in."""
    rep = converse_experiment(tr.source_sqrt_mix(1.0, 1.0), N=8, u_max=12.0)
    d = rep.to_dict()
    assert json.loads(json.dumps(d)) == d
    fields = {f.name for f in dataclasses.fields(rep)}
    assert set(d) | set(d["verdicts"]) == fields | {"verdicts"}


def test_numpy_scalar_arguments_write_the_bytes_python_scalars_do(tmp_path):
    """Orders are accepted as numpy integers, and L, A and u_max as numpy
    floats: the JSON reports (order, band, ratio_window) and the ratio
    table (its L and A header fields) come out byte for byte as from
    Python scalars, not as np.int64(8) or a TypeError."""
    S = tr.source_identity()
    runs = {
        "converse.json": lambda L, N, a: converse_experiment(S, N=N).save_json,
        "battery.json": lambda L, N, a: run_battery(N=N).save_json,
        "forward.json": lambda L, N, a: forward_experiment(S, a, L=L, N=N, u_max=a * 12.0).save_json,
        "forward.ratio.csv": lambda L, N, a: forward_experiment(S, a, L=L, N=N, u_max=a * 12.0).save_ratio_csv,
    }
    for name, save in runs.items():
        save(8 * math.pi, 8, 1.0)(tmp_path / "py")
        save(np.float64(8 * math.pi), np.int64(8), np.float64(1.0))(tmp_path / "np")
        assert (tmp_path / "np").read_bytes() == (tmp_path / "py").read_bytes(), name


def test_recompute_verdicts_tracks_thresholds():
    rep = converse_experiment(tr.source_log_oscillation(0.5), N=8, u_max=12.0)
    assert not rep.recompute_verdicts()["ratio_limit"]
    rep.ratio_threshold = 10.0  # absurdly lax: everything passes
    assert rep.recompute_verdicts()["ratio_limit"]


def test_ratio_at_reads_the_grid():
    rep = converse_experiment(tr.source_identity(), N=4, u_max=10.0)
    mid = float(rep.ratio_u[len(rep.ratio_u) // 2])
    assert rep.ratio_at(mid) == rep.ratio_g[len(rep.ratio_u) // 2]


# ---------------------------------------------------------------------------
# the prime pipeline: its guard, and the one experiment path it takes (the
# full run is an acceptance criterion)
# ---------------------------------------------------------------------------

DECADE_MARKS = [math.log(10.0**k) for k in range(3, 26)]


def test_pnt_is_the_converse_experiment_on_the_table_source(big_table):
    """pnt_pipeline adds nothing to the converse run on pi(x) ln x: the
    decade marks ln 1e3 .. ln 1e8 come with the table-backed source, and
    ln 1e3 already opens the 40-point grid."""
    pnt = pnt_pipeline(big_table)
    conv = converse_experiment(tr.source_primes_weighted(big_table), N=PNT_ORDER)
    assert pnt.to_dict() == conv.to_dict()
    assert conv.ratio_u.size == 45
    assert [u for u in DECADE_MARKS if u in conv.ratio_u] == DECADE_MARKS[:6]


def test_a_table_backed_ratio_grid_holds_the_marks_its_table_reaches(small_table):
    rep = converse_experiment(tr.source_primes_weighted(small_table), N=8, u_max=11.0)
    assert [u for u in DECADE_MARKS if u in rep.ratio_u] == DECADE_MARKS[:3]
    assert rep.ratio_u.size == 43 and np.all(np.diff(rep.ratio_u) > 0)


def test_closed_form_sources_keep_the_plain_ratio_grid():
    """An infinite u_cap names no table, so no battery member gets marks."""
    for S, u_max, _, _ in battery_members():
        rep = converse_experiment(S, N=4, u_max=u_max)
        want = np.linspace(min(math.log(1e3), 0.5 * u_max), u_max, 40)
        assert np.array_equal(rep.ratio_u, want), S.label


def test_pnt_pipeline_demands_enough_primes(small_table):
    with pytest.raises(TableExhaustedError) as ei:
        pnt_pipeline(small_table, u_max=18.0)
    assert ei.value.required > small_table.limit
