"""Experiment layer: estimator sanity, witnesses, scaling, report plumbing."""

import dataclasses
import json
import math

import numpy as np
import pytest

from tauberlab import transform as tr
from tauberlab.errors import ContractError, DomainError, TableExhaustedError
from tauberlab.operators import IntervalSpec
from tauberlab.tauber import (
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
    with pytest.raises(DomainError):
        forward_experiment(S, 1.0, N=8, u_max=18.0)


# ---------------------------------------------------------------------------
# converse direction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("a", [0.5, 1.0, 3.0])
def test_a_star_recovers_linear_slope(a):
    S = tr.source_sqrt_mix(a, 0.0)  # a x, transform a/(s-1)
    rep = converse_experiment(S, N=16, u_max=14.0)
    assert rep.A_method == "golden_section_minimax"
    assert abs(rep.A_estimate - a) < 0.02


def test_converse_flags_the_oscillating_source():
    rep = converse_experiment(tr.source_log_oscillation(0.5), N=16, u_max=14.0)
    assert not rep.ratio_limit
    assert not rep.consistent


def test_converse_kernel_spectral_route():
    rep = converse_experiment(tr.source_identity(), N=4, u_max=10.0, spectral_route="kernel")
    assert rep.spectral_tail.shape[0] <= 20
    assert np.all(np.abs(rep.spectral_tail[:-1]) >= np.abs(rep.spectral_tail[1:]))


# ---------------------------------------------------------------------------
# scaling equivariance (exact, by linearity)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_psi_diagonal_scales_linearly(eps):
    """Linearity is exact for the integral; numerically each evaluation
    carries its own <= 1e-10 certified cutoff, hence the tolerance."""
    c = 2.5
    base = diagonal_sequence(tr.source_sqrt_mix(1.0, 1.0), I8, eps, 1.0, 8)
    scaled = diagonal_sequence(tr.source_sqrt_mix(c, c), I8, eps, c * 1.0, 8)
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
# prime pipeline guard (the full run is an acceptance criterion)
# ---------------------------------------------------------------------------


def test_pnt_pipeline_demands_enough_primes(small_table):
    with pytest.raises(TableExhaustedError) as ei:
        pnt_pipeline(small_table, u_max=18.0)
    assert ei.value.required > small_table.limit
