"""Command-line behavior: dispatch, config precedence, exit codes, determinism."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tauberlab
from tauberlab import cli, operators
from tauberlab.cli import RunConfig, load_config, main
from tauberlab.errors import ConfigError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv):
    """`python -m tauberlab.cli` in a child process that imports the same
    package as this test, installed or not."""
    src = str(Path(tauberlab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "tauberlab.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# config file handling
# ---------------------------------------------------------------------------


def test_defaults_without_a_file():
    cfg = load_config(None)
    assert cfg.prime_limit == 100_000_000
    assert cfg.length == pytest.approx(8 * math.pi)
    assert cfg.order == 64
    assert cfg.format == "json"


def test_config_file_overlay(tmp_path):
    p = tmp_path / "t.conf"
    p.write_text("# comment line\nprime_limit = 5000\nlength = 6.5  # trailing comment\nformat = csv\n")
    cfg = load_config(str(p))
    assert cfg.prime_limit == 5000
    assert cfg.length == 6.5
    assert cfg.format == "csv"
    assert cfg.order == 64  # untouched default


def test_config_file_sets_every_key(tmp_path):
    """Each RunConfig field is a config key, read with its default's type."""
    expect = {
        "cache_dir": str(tmp_path / "cache"),
        "prime_limit": 5000,
        "length": 6.5,
        "order": 12,
        "abs_tol": 1e-8,
        "format": "csv",
    }
    assert set(expect) == {f.name for f in dataclasses.fields(RunConfig)}
    p = tmp_path / "all.conf"
    p.write_text("".join(f"{k} = {v}\n" for k, v in expect.items()))
    cfg = load_config(str(p))
    assert cfg.as_dict() == expect
    assert {k: type(v) for k, v in cfg.as_dict().items()} == {k: type(v) for k, v in expect.items()}
    assert cfg.explicit == set(expect)


@pytest.mark.parametrize(
    "text,needle",
    [
        ("what is this\n", ":1:"),
        ("prime_limit = 10\nnonsense_key = 3\n", "nonsense_key"),
        ("prime_limit = not_a_number\n", "prime_limit"),
        ("prime_limit = -5\n", "prime_limit"),
        ("format = yaml\n", "format"),
        ("abs_tol = 0.5\n", "abs_tol"),
    ],
)
def test_config_rejections_name_the_problem(tmp_path, text, needle):
    p = tmp_path / "bad.conf"
    p.write_text(text)
    with pytest.raises(ConfigError) as ei:
        load_config(str(p))
    assert needle in str(ei.value)


def test_missing_config_file_is_an_error():
    with pytest.raises(ConfigError):
        load_config("/no/such/file.conf")


def test_runconfig_validate_bounds():
    with pytest.raises(ConfigError):
        RunConfig(order=-1).validate()
    with pytest.raises(ConfigError):
        RunConfig(length=0.0).validate()


# ---------------------------------------------------------------------------
# spec'd example invocations
# ---------------------------------------------------------------------------


def test_special_eval_zeta_at_two(capsys):
    code, out, _ = run_cli(capsys, "special", "eval", "--fn", "zeta", "--sigma", "2", "--t", "0")
    assert code == 0
    doc = last_json(out)
    assert doc["re"] == pytest.approx(1.6449340668, abs=1e-9)
    assert doc["im"] == 0.0
    assert doc["est_error"] <= 1e-9


def test_prime_zeta_family_needs_no_sieve(capsys, monkeypatch):
    """P, psi_P and the prime transforms are closed forms in zeta: no table."""
    import tauberlab.arith

    def refuse(*args, **kwargs):
        raise AssertionError("the prime-zeta family must not build a prime table")

    monkeypatch.setattr(tauberlab.arith, "build_prime_table", refuse)
    code, out, _ = run_cli(capsys, "special", "eval", "--fn", "pzeta", "--sigma", "2")
    assert code == 0
    assert json.loads(out)["re"] == pytest.approx(0.45224742004106549851, abs=1e-10)
    code, _, _ = run_cli(capsys, "special", "eval", "--fn", "psip", "--sigma", "1.5", "--t", "2")
    assert code == 0
    code, _, _ = run_cli(capsys, "transform", "eval", "--source", "wprimes", "--sigma", "1.5", "--t", "0.3")
    assert code == 0


def test_primes_count_100(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "--prime-limit", "10000", "primes", "--count", "100")
    assert code == 0
    assert out.strip() == "25"


def test_pnt_on_an_insufficient_cache(capsys, tmp_path):
    code, out, err = run_cli(
        capsys,
        "--cache-dir", str(tmp_path), "--prime-limit", "200000",
        "experiment", "pnt", "--umax", "14",
    )
    assert code == 2
    doc = json.loads(err.strip())  # single-line JSON on stderr
    assert doc["code"] == "table-exhausted"


def test_converse_refuses_an_order_past_the_frozen_tail(capsys, tmp_path):
    # at L = 8 pi a 1e5 table resolves orders up to N_max = 46.05; the default is 64
    code, _, err = run_cli(
        capsys,
        "--cache-dir", str(tmp_path), "--prime-limit", "100000",
        "experiment", "converse", "--source", "wprimes", "--umax", "11",
    )
    assert code == 1
    doc = json.loads(err.strip())
    assert doc["code"] == "domain" and "N_max = 46.05" in doc["message"]


def test_operator_diag_refuses_an_order_past_the_frozen_tail(capsys, tmp_path):
    # the diagonals past N_max = 46.05 would read the frozen g(ln 1e5), with
    # or without damping
    for eps in ("0", "0.05"):
        code, out, err = run_cli(
            capsys,
            "--cache-dir", str(tmp_path), "--prime-limit", "100000",
            "operator", "diag", "--source", "wprimes", "--eps", eps, "--order", "64", "--A", "1",
        )
        assert code == 1 and out == "", eps
        doc = json.loads(err.strip())
        assert doc["code"] == "domain" and "N_max = 46.05" in doc["message"], eps


def test_operator_diag_refuses_an_order_past_the_cap(capsys):
    # the cap of both assembly routes, N <= 256, holds for the diagonals too
    code, out, err = run_cli(
        capsys, "operator", "diag", "--source", "linear", "--eps", "0", "--order", "257", "--A", "1",
    )
    assert code == 1 and out == ""
    assert json.loads(err.strip())["code"] == "contract"


def test_operator_refuses_a_frequency_grid_past_the_node_cap(capsys, monkeypatch):
    # at eps = 1e-7 the damped cutoff sits near X = 5.9e8, some 4.7e9 nodes;
    # the refusal comes before any grid is built
    def no_grid(*args):
        raise AssertionError("grid built")

    monkeypatch.setattr(operators, "_grid_edges", no_grid)
    for cmd, *extra in (("diag", "--A", "1"), ("assemble",)):
        code, out, err = run_cli(
            capsys, "operator", cmd, "--source", "sqrt_mix", "--eps", "1e-7", "--order", "64", *extra,
        )
        assert code == 2 and out == "", cmd
        doc = json.loads(err.strip())
        assert doc["code"] == "resource", cmd
        assert "eps = 1e-07" in doc["message"] and "X = 5.886e+08" in doc["message"], cmd
        assert "4,000,000 nodes" in doc["message"], cmd


def test_pnt_takes_length_and_order_from_the_config_file(capsys, tmp_path):
    conf = tmp_path / "pnt.conf"
    # a 3e4 table resolves orders up to N_max = L ln(3e4)/(2 pi) = 20.6 at L = 4 pi
    conf.write_text("length = 12.566370614359172\norder = 20\n")
    report = tmp_path / "pnt.json"
    code, _, _ = run_cli(
        capsys,
        "--cache-dir", str(tmp_path), "--prime-limit", "30000", "--config", str(conf),
        "experiment", "pnt", "--umax", "10", "--report", str(report),
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["report"]["length"] == 12.566370614359172
    assert doc["report"]["order"] == 20
    assert doc["config"]["order"] == 20


# ---------------------------------------------------------------------------
# exit-code taxonomy
# ---------------------------------------------------------------------------


def test_no_arguments_is_a_usage_error(capsys):
    assert run_cli(capsys)[0] == 64


def test_bare_group_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "operator")
    assert code == 64
    assert err.startswith("usage: tauberlab operator")
    assert run_cli(capsys, "special")[0] == 64


def test_term_budget_exhaustion_exits_2(capsys):
    code, _, err = run_cli(capsys, "special", "eval", "--fn", "zeta", "--sigma", "1.5", "--t", "2e6")
    assert code == 2
    assert last_json(err)["code"] == "precision"


def test_unknown_choice_exits_64():
    r = run_module("frobnicate")
    assert r.returncode == 64
    assert "usage:" in r.stderr


def test_missing_required_flag_exits_64():
    r = run_module("special", "eval", "--fn", "zeta")
    assert r.returncode == 64


def test_domain_errors_exit_1(capsys):
    code, _, err = run_cli(capsys, "special", "eval", "--fn", "zeta", "--sigma", "0.5")
    assert code == 1
    assert json.loads(err.strip())["code"] == "domain"


def test_contract_errors_exit_1(capsys):
    code, _, err = run_cli(capsys, "operator", "diag", "--source", "nosuch", "--eps", "0.1")
    assert code == 1
    assert "nosuch" in json.loads(err.strip())["message"]


def test_bad_jobs_value(capsys):
    code, _, err = run_cli(capsys, "--jobs", "0", "primes", "--count", "10")
    assert code == 1


def test_config_errors_exit_1(capsys, tmp_path):
    p = tmp_path / "c.conf"
    p.write_text("frobs = 3\n")
    code, _, err = run_cli(capsys, "--config", str(p), "primes", "--count", "10")
    assert code == 1
    assert json.loads(err.strip())["code"] == "config"


# ---------------------------------------------------------------------------
# precedence: defaults < file < flags
# ---------------------------------------------------------------------------


def test_flag_beats_file_beats_default(capsys, tmp_path):
    p = tmp_path / "t.conf"
    p.write_text("prime_limit = 200000\n")
    # file value: count inside 2e5 succeeds
    code, out, _ = run_cli(capsys, "--config", str(p), "--cache-dir", str(tmp_path), "primes", "--count", "150000")
    assert code == 0 and int(out.strip()) == 13848
    # flag tightens the limit below the query: must exhaust
    code, _, err = run_cli(
        capsys, "--config", str(p), "--cache-dir", str(tmp_path), "--prime-limit", "1000",
        "primes", "--count", "150000",
    )
    assert code == 2
    assert json.loads(err.strip())["code"] == "table-exhausted"


def test_shared_flags_accepted_after_the_subcommand(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "primes", "--count", "100", "--prime-limit", "5000", "--cache-dir", str(tmp_path))
    assert code == 0 and out.strip() == "25"


# ---------------------------------------------------------------------------
# transforms and operators through the front end
# ---------------------------------------------------------------------------


def test_transform_eval_from_file(capsys, tmp_path):
    f = tmp_path / "steps.csv"
    f.write_text("2,1\n3,1\n5,1\n7,1\n")
    code, out, _ = run_cli(capsys, "transform", "eval", "--source", "file", "--file", str(f), "--sigma", "2")
    assert code == 0
    expect = sum(x ** -2.0 for x in (2, 3, 5, 7)) / 2.0
    assert last_json(out)["re"] == pytest.approx(expect, abs=1e-12)


def test_transform_eval_bad_file(capsys, tmp_path):
    f = tmp_path / "steps.csv"
    f.write_text("2,1\nbroken line\n")
    code, _, err = run_cli(capsys, "transform", "eval", "--source", "file", "--file", str(f), "--sigma", "2")
    assert code == 1
    assert ":2:" in json.loads(err.strip())["message"]


def test_operator_assemble_stdout_and_file_agree(capsys, tmp_path):
    args = ["operator", "assemble", "--source", "integers", "--length", str(2 * math.pi),
            "--eps", "0.1", "--order", "2"]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    out_path = tmp_path / "w.csv"
    code2, _, _ = run_cli(capsys, *args, "--out", str(out_path))
    assert code2 == 0
    assert out == out_path.read_text()


def test_operator_csv_outputs_are_deterministic(capsys, tmp_path):
    args = ["operator", "assemble", "--source", "sqrt_mix", "--length", str(2 * math.pi),
            "--eps", "0.1", "--order", "3"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(capsys, *args, "--out", str(a))[0] == 0
    assert run_cli(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_operator_diag_json(capsys):
    code, out, _ = run_cli(capsys, "operator", "diag", "--source", "linear",
                           "--length", str(2 * math.pi), "--eps", "0.1", "--order", "4")
    assert code == 0
    vals = json.loads(out)
    assert len(vals) == 5
    assert vals[0] == pytest.approx(0.9479158012, abs=1e-9)


def test_operator_spectrum_csv(capsys):
    code, out, _ = run_cli(capsys, "--format", "csv", "operator", "spectrum", "--source", "linear",
                           "--length", str(2 * math.pi), "--eps", "0.1", "--order", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# tauberlab-spectrum v1")
    assert lines[1].split(",")[0] == "0"
    assert len(lines) == 1 + 5


def test_experiment_report_files(capsys, tmp_path):
    rep = tmp_path / "fwd.json"
    code, out, _ = run_cli(capsys, "experiment", "forward", "--source", "linear",
                           "--order", "8", "--umax", "12", "--report", str(rep))
    assert code == 0
    summary = last_json(out)
    assert summary["consistent"] is True
    doc = json.loads(rep.read_text())
    assert doc["schema"] == "tauberlab/1"
    assert doc["version"] == tauberlab.__version__
    assert doc["config"]["order"] == 8
    ratio = tmp_path / "fwd.ratio.csv"
    assert ratio.exists()
    assert ratio.read_text().splitlines()[1] == "u,g"


def test_experiment_battery_summary(capsys, tmp_path):
    rep = tmp_path / "bat.json"
    code, out, _ = run_cli(capsys, "experiment", "battery", "--order", "8", "--report", str(rep))
    assert code == 0
    summary = last_json(out)
    assert set(summary) == {"all_equivalent", "equivalence"}
    doc = json.loads(rep.read_text())
    assert doc["schema"] == "tauberlab/1"
    assert set(doc["battery"]["reports"]) == set(summary["equivalence"])


@pytest.mark.parametrize("fn", list(cli._SPECIAL_FNS))
def test_every_special_fn_evaluates(capsys, fn):
    code, out, _ = run_cli(capsys, "special", "eval", "--fn", fn, "--sigma", "1.5", "--t", "2")
    assert code == 0
    doc = last_json(out)
    assert math.isfinite(doc["re"]) and math.isfinite(doc["im"])


@pytest.mark.parametrize("source", list(cli._TRANSFORMS))
def test_every_transform_source_evaluates(capsys, tmp_path, source):
    steps = tmp_path / "steps.csv"
    steps.write_text("2,1\n3,1\n5,1\n")
    code, out, _ = run_cli(
        capsys, "transform", "eval", "--source", source, "--file", str(steps), "--sigma", "1.5", "--t", "2"
    )
    assert code == 0
    doc = last_json(out)
    assert math.isfinite(doc["re"]) and math.isfinite(doc["im"])


@pytest.mark.parametrize("source", list(cli._SOURCES))
def test_every_catalog_source_runs_diag(capsys, tmp_path, source):
    code, out, _ = run_cli(
        capsys, "--prime-limit", "30000", "--cache-dir", str(tmp_path),
        "operator", "diag", "--source", source, "--eps", "0.1", "--order", "2",
    )
    assert code == 0
    vals = json.loads(out)
    assert len(vals) == 3 and all(math.isfinite(v) for v in vals)


def test_version_flag():
    r = run_module("--version")
    assert r.returncode == 0
    assert r.stdout.strip() == f"tauberlab {tauberlab.__version__}"
