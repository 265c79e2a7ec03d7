"""Command-line behavior: dispatch, config precedence, exit codes, determinism."""

import dataclasses
import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tauberlab
from tauberlab import arith, cli, errors, operators, tauber
from tauberlab import transform as tr
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


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_a_length_that_is_no_finite_number_is_a_config_error(capsys, tmp_path, value):
    """From a config file or from --length, a NaN or infinite length is
    refused by the configuration (exit 1, code config), before any
    operator work."""
    conf = tmp_path / "len.conf"
    conf.write_text(f"length = {value}\n")
    cmd = ("operator", "diag", "--source", "linear", "--eps", "0", "--order", "2")
    for argv in (("--config", str(conf), *cmd), (*cmd, "--length", value)):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "", argv
        doc = json.loads(err.strip())
        assert doc["code"] == "config" and "length must be positive and finite" in doc["message"], argv


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
    code, out, _ = run_cli(capsys, "--prime-limit", "10000", "primes", "--count", "100")
    assert code == 0
    assert out.strip() == "25"


def test_a_run_writes_only_the_files_it_names(capsys, tmp_path, monkeypatch):
    """The prime table is sieved in memory: a build and the CLI commands
    leave a fresh home and working directory holding exactly the --out and
    --report files they name, and each report's .ratio.csv."""
    home, cwd = tmp_path / "home", tmp_path / "cwd"
    home.mkdir()
    cwd.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.chdir(cwd)
    assert arith.build_prime_table(1000).count(1000) == 168
    assert run_cli(capsys, "--prime-limit", "1000", "primes", "--count", "100")[:2] == (0, "25\n")
    for argv in (
        ("special", "eval", "--fn", "pzeta", "--sigma", "2"),
        ("transform", "eval", "--source", "integers", "--sigma", "2"),
        ("operator", "diag", "--source", "linear", "--eps", "0", "--order", "2"),
        ("operator", "assemble", "--source", "linear", "--eps", "0", "--order", "2", "--out", "w.csv"),
        ("experiment", "converse", "--source", "linear", "--order", "4", "--report", "c.json"),
        ("experiment", "pnt", "--prime-limit", "100000", "--order", "8", "--umax", "11", "--report", "r.json"),
    ):
        assert run_cli(capsys, *argv)[0] == 0, argv
    assert list(home.iterdir()) == []
    assert sorted(p.name for p in cwd.iterdir()) == ["c.json", "c.ratio.csv", "r.json", "r.ratio.csv", "w.csv"]


def test_the_cache_dir_flag_and_key_are_refused(capsys, tmp_path, monkeypatch):
    """The CLI has no prime table cache: --cache-dir, before or after the
    command, is a usage error (exit 64), and a cache_dir config line an
    unknown key (exit 1), and neither writes a file."""
    monkeypatch.chdir(tmp_path)
    cmd = ("--prime-limit", "1000", "primes", "--count", "100")
    for argv in (("--cache-dir", "d", *cmd), (*cmd, "--cache-dir", "d")):
        with pytest.raises(SystemExit) as ei:
            main(list(argv))
        assert ei.value.code == 64, argv
        assert "unrecognized arguments: --cache-dir" in capsys.readouterr().err, argv
    (tmp_path / "c.conf").write_text("cache_dir = d\n")
    code, out, err = run_cli(capsys, "--config", "c.conf", *cmd)
    assert code == 1 and out == ""
    assert json.loads(err) == {"code": "config", "message": "c.conf:1: unknown config key 'cache_dir'"}
    assert [p.name for p in tmp_path.iterdir()] == ["c.conf"]


def test_primes_count_past_the_hard_cap(capsys):
    """A count past 2^32, where no table can be built, names the cap in
    place of a limit to rebuild with; below it the message is unchanged."""
    code, out, err = run_cli(capsys, "--prime-limit", "1000", "primes", "--count", "1e300")
    assert code == 2 and out == ""
    doc = json.loads(err.strip())
    assert doc["code"] == "table-exhausted"
    assert doc["message"].startswith("count query up to 1.0000000000000001e+300 exceeds table limit 1000; ")
    assert doc["message"].endswith("; no prime table can be built past the hard cap 2^32 = 4294967296")
    code, _, err = run_cli(capsys, "--prime-limit", "1000", "primes", "--count", "2000")
    assert code == 2
    assert json.loads(err.strip())["message"] == "count query up to 2000 exceeds table limit 1000; rebuild with limit >= 2000"


def test_pnt_on_an_insufficient_table(capsys):
    code, out, err = run_cli(capsys, "--prime-limit", "200000", "experiment", "pnt", "--umax", "14")
    assert code == 2
    doc = json.loads(err.strip())  # single-line JSON on stderr
    assert doc["code"] == "table-exhausted"


def test_converse_refuses_an_order_past_the_frozen_tail(capsys):
    # at L = 8 pi a 1e5 table resolves orders up to N_max = 46.05; the default is 64
    code, _, err = run_cli(
        capsys, "--prime-limit", "100000", "experiment", "converse", "--source", "wprimes", "--umax", "11",
    )
    assert code == 1
    doc = json.loads(err.strip())
    assert doc["code"] == "domain" and "N_max = 46.05" in doc["message"]


def test_converse_past_the_table_is_table_exhausted(capsys):
    # ln 1e5 = 11.5 < 14: the range guard refuses before the N_max check
    code, _, err = run_cli(
        capsys, "--prime-limit", "100000", "experiment", "converse", "--source", "wprimes", "--umax", "14",
    )
    assert code == 2
    assert json.loads(err.strip())["code"] == "table-exhausted"


def test_operator_diag_refuses_an_order_past_the_frozen_tail(capsys):
    # the diagonals past N_max = 46.05 would read the frozen g(ln 1e5), with
    # or without damping
    for eps in ("0", "0.05"):
        code, out, err = run_cli(
            capsys,
            "--prime-limit", "100000",
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
    # the integers sample their staircase past the resolved range, so at
    # L = 0.03 their fine panels are 7.5e-4 wide out to the lobes' end
    # X = 67 pi: some 4.49e6 nodes; L = 1e-9 would ask for terabytes of
    # edges. The refusal comes before any grid is built, on both routes
    # (the kernel route's at L = 1e6: 2 x 10^6 body panels)
    def no_grid(*args):
        raise AssertionError("grid built")

    for name in ("_gl_nodes_on", "OuterGrid"):
        monkeypatch.setattr(operators, name, no_grid)
    for length, cmd, source, *extra in (
        ("0.03", "diag", "integers", "--A", "1"),
        ("0.03", "assemble", "integers"),
        ("1e-9", "diag", "integers", "--A", "1"),
        ("1e6", "assemble", "linear", "--route", "kernel"),
    ):
        code, out, err = run_cli(
            capsys, "operator", cmd, "--source", source, "--length", length, "--eps",
            "0.05" if "kernel" in extra else "0", "--order", "64" if length == "0.03" else "2", *extra,
        )
        assert code == 2 and out == "", (length, cmd)
        doc = json.loads(err.strip())
        assert doc["code"] == "resource", (length, cmd)
        assert f"L = {float(length):g}" in doc["message"], (length, cmd)
        assert "past the cap of 4,000,000" in doc["message"], (length, cmd)
    code, _, err = run_cli(capsys, "operator", "diag", "--source", "integers", "--length", "0.03",
                           "--eps", "0", "--order", "64", "--A", "1")
    assert "4.49e+06 nodes" in json.loads(err.strip())["message"]


def test_operator_diag_runs_a_closed_form_source_at_a_small_length(capsys):
    # g = 1 is analytic past the resolved range, so no fine lobe panels are
    # laid: at L = 0.03, N = 64 the grid holds 2,416 nodes, not the
    # integers' 4.49e6, and Psi = W - Id has every diagonal within 1e-13
    # of 0 (measured 1.1e-15)
    code, out, err = run_cli(capsys, "operator", "diag", "--source", "linear", "--length", "0.03",
                             "--eps", "0", "--order", "64", "--A", "1")
    assert code == 0 and err == ""
    vals = json.loads(out)
    assert len(vals) == 65 and max(abs(v) for v in vals) < 1e-13


def test_pnt_takes_length_and_order_from_the_config_file(capsys, tmp_path):
    conf = tmp_path / "pnt.conf"
    # a 3e4 table resolves orders up to N_max = L ln(3e4)/(2 pi) = 20.6 at L = 4 pi
    conf.write_text("length = 12.566370614359172\norder = 20\n")
    report = tmp_path / "pnt.json"
    code, _, _ = run_cli(
        capsys,
        "--prime-limit", "30000", "--config", str(conf),
        "experiment", "pnt", "--umax", "10", "--report", str(report),
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["report"]["length"] == 12.566370614359172
    assert doc["report"]["order"] == 20
    assert doc["config"]["order"] == 20


def test_pnt_report_records_the_order_it_ran_at(capsys, tmp_path):
    # the configuration chain: with no order set, pnt runs at its own
    # PNT_ORDER = 72, over the tool's 64; a config file's order wins over
    # that, and --order over the file. A 3e4 table resolves orders up to
    # N_max = L ln(3e4)/(2 pi) = 82.5 at L = 16 pi
    conf = tmp_path / "pnt.conf"
    report = tmp_path / "pnt.json"
    for text, flags, order in (("", (), 72), ("order = 50\n", (), 50), ("order = 50\n", ("--order", "40"), 40)):
        conf.write_text(text)
        code, _, err = run_cli(
            capsys,
            "--prime-limit", "30000", "--config", str(conf),
            "experiment", "pnt", "--length", repr(16 * math.pi), "--umax", "10", *flags, "--report", str(report),
        )
        assert code == 0, err
        doc = json.loads(report.read_text())
        assert doc["report"]["order"] == order, (text, flags)
        assert doc["config"]["order"] == doc["report"]["order"]


# ---------------------------------------------------------------------------
# exit-code taxonomy
# ---------------------------------------------------------------------------


def test_each_error_family_sets_its_exit_code_once():
    """Contract-style errors exit 1 and resource-style ones 2; the
    subclasses inherit the code from their family's base."""
    classes = [getattr(errors, name) for name in errors.__all__]
    assert {c.__name__: c.exit_code for c in classes} == {
        "TauberlabError": 1, "DomainError": 1, "ContractError": 1, "ConfigError": 1,
        "ResourceError": 2, "PrecisionError": 2, "TableExhaustedError": 2,
    }
    assert [c.__name__ for c in classes if "exit_code" in vars(c)] == ["TauberlabError", "ResourceError"]


def test_no_arguments_is_a_usage_error(capsys):
    assert run_cli(capsys)[0] == 64


def test_operator_runs_at_small_eps(capsys):
    # every eps lays the eps = 0 grid and adds the exact tail past it, so a
    # small eps costs what eps = 0 costs and every value stays finite
    for argv in (
        ("diag", "--source", "sqrt_mix", "--eps", "1e-3", "--order", "8", "--A", "1"),
        ("diag", "--source", "integers", "--eps", "1e-3", "--order", "8", "--A", "1"),
        ("spectrum", "--source", "linear", "--eps", "0.01", "--order", "4"),
    ):
        code, out, _ = run_cli(capsys, "operator", *argv)
        assert code == 0, argv
        vals = json.loads(out)
        assert len(vals) == 9 and np.all(np.isfinite(vals)), argv


def test_bare_group_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "operator")
    assert code == 64
    assert err.startswith("usage: tauberlab operator")
    assert run_cli(capsys, "special")[0] == 64


def test_battery_takes_no_umax(capsys, monkeypatch):
    # each battery member carries its own u_max; the flag was accepted and
    # ignored, so `--umax nan` exited 0
    def no_battery(*args, **kwargs):
        raise AssertionError("battery ran")

    monkeypatch.setattr(tauber, "run_battery", no_battery)
    for umax in ("5", "nan"):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "battery", "--umax", umax])
        assert exc.value.code == 64, umax
        assert "unrecognized arguments: --umax" in capsys.readouterr().err, umax


def test_term_budget_exhaustion_exits_2(capsys):
    code, _, err = run_cli(capsys, "special", "eval", "--fn", "zeta", "--sigma", "1.5", "--t", "2e6")
    assert code == 2
    assert last_json(err)["code"] == "precision"


def test_overflowing_remainder_bound_exits_2(capsys):
    # at |t| = 1e300 the constant of the Euler-Maclaurin bound overflows: a
    # precision error that names the inf, not an OverflowError
    code, out, err = run_cli(capsys, "special", "eval", "--fn", "zeta", "--sigma", "2", "--t", "1e300")
    assert code == 2 and out == ""
    doc = last_json(err)
    assert doc["code"] == "precision" and "achieved inf" in doc["message"]


def test_operator_refuses_a_non_finite_eps(capsys):
    # NaN fails every comparison: the frequency route took the eps = 0 cutoff
    # without its tail correction and printed numbers, the kernel route
    # failed on int(nan); inf printed [-1, ...] or a zero matrix
    for eps in ("nan", "inf"):
        for argv in (
            ("diag", "--source", "sqrt_mix", "--eps", eps, "--order", "4", "--A", "1"),
            ("assemble", "--source", "sqrt_mix", "--eps", eps, "--order", "1"),
            ("spectrum", "--source", "sqrt_mix", "--eps", eps, "--order", "1"),
            ("spectrum", "--source", "sqrt_mix", "--eps", eps, "--order", "1", "--route", "kernel"),
        ):
            code, out, err = run_cli(capsys, "operator", *argv)
            assert code == 1 and out == "", argv
            doc = json.loads(err.strip())
            assert doc["code"] == "domain" and "finite eps" in doc["message"], argv


def test_a_negative_value_in_exponent_form_is_a_value(capsys):
    """Stock argparse reads only -1 and -1.5 as values and took --t -1e3 or
    --eps -inf for a missing value (exit 64): exponent forms and -inf are
    values too."""
    base = ("special", "eval", "--fn", "zeta", "--sigma", "2")
    spaced = run_cli(capsys, *base, "--t", "-1e3")
    assert spaced == run_cli(capsys, *base, "--t=-1e3") and spaced[0] == 0
    for eps in ("-1e-3", "-inf", "-Infinity"):
        code, out, err = run_cli(capsys, "operator", "diag", "--source", "linear", "--eps", eps, "--order", "2")
        assert code == 1 and out == "", eps
        assert json.loads(err)["code"] == "domain", eps
    code, out, _ = run_cli(
        capsys, "operator", "diag", "--source", "linear", "--eps", "0", "--order", "2", "--A", "-2.5e-1", "--format", "csv",
    )
    assert code == 0 and out.splitlines()[0].endswith(", A=-0.25")


def test_operator_diag_refuses_a_non_finite_A(capsys, monkeypatch):
    # the command's own check of --A, run before any grid is built
    def no_grid(*args):
        raise AssertionError("grid built")

    monkeypatch.setattr(operators, "_grid_edges", no_grid)
    for A in ("nan", "inf"):
        code, out, err = run_cli(
            capsys, "operator", "diag", "--source", "sqrt_mix", "--eps", "0", "--order", "4", "--A", A,
        )
        assert code == 1 and out == "", A
        doc = json.loads(err.strip())
        assert doc["code"] == "contract" and doc["message"] == "A must be finite", A


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "converse", "--source", "linear", "--order", "4", "--report"],
        ["experiment", "battery", "--order", "4", "--report"],
        ["operator", "diag", "--source", "linear", "--eps", "0", "--order", "4", "--out"],
        ["operator", "assemble", "--source", "linear", "--eps", "0.05", "--order", "4", "--out"],
        ["operator", "spectrum", "--source", "linear", "--eps", "0.05", "--order", "4", "--out"],
    ],
    ids=["converse", "battery", "diag", "assemble", "spectrum"],
)
def test_an_unwritable_output_is_a_contract_error(capsys, tmp_path, argv):
    """A directory given as --report or --out cannot be written: a contract
    error (exit 1) that names the path, as an unreadable input is."""
    code, out, err = run_cli(capsys, *argv, str(tmp_path))
    assert code == 1 and out == "", argv
    doc = json.loads(err.strip())
    assert doc["code"] == "contract" and doc["message"].startswith(f"cannot write {tmp_path}: "), doc


def test_an_unwritable_ratio_table_is_a_contract_error(capsys, tmp_path):
    """The report's .ratio.csv companion is written like the report itself,
    and before it: when the companion cannot be written, no report JSON is
    left without it."""
    (tmp_path / "r.ratio.csv").mkdir()
    code, out, err = run_cli(
        capsys, "experiment", "converse", "--source", "linear", "--order", "4", "--report", str(tmp_path / "r.json"),
    )
    assert code == 1 and out == ""
    doc = json.loads(err.strip())
    assert doc["code"] == "contract" and doc["message"].startswith(f"cannot write {tmp_path / 'r.ratio.csv'}: "), doc
    assert not (tmp_path / "r.json").exists()


def test_written_files_take_the_umask_mode(capsys, tmp_path):
    """A report JSON, its .ratio.csv and an --out CSV come out 0644 under
    umask 022, as a plain open() would make them."""
    old = os.umask(0o022)
    try:
        report, out = tmp_path / "r.json", tmp_path / "d.csv"
        argv = ("experiment", "converse", "--source", "linear", "--order", "4", "--report", str(report))
        assert run_cli(capsys, *argv)[0] == 0
        argv = ("operator", "diag", "--source", "linear", "--eps", "0", "--order", "2", "--out", str(out))
        assert run_cli(capsys, *argv)[0] == 0
    finally:
        os.umask(old)
    for path in (report, tmp_path / "r.ratio.csv", out):
        assert path.stat().st_mode & 0o777 == 0o644, path


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


def test_an_unexpected_error_exits_2_as_internal(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("broken on purpose")

    monkeypatch.setattr(operators, "diagonal_sequence", broken)
    code, out, err = run_cli(capsys, "operator", "diag", "--source", "linear", "--eps", "0.1", "--order", "2")
    assert code == 2 and out == ""
    assert json.loads(err.strip()) == {"code": "internal", "message": "ValueError: broken on purpose"}


def test_warnings_reach_stderr_as_json_lines(capsys):
    """Prime zeta below sigma = 1.0027 warns that it cannot certify the log
    branch. In a child process, where logging has no other handler, every
    stderr line is JSON: the warning, then, at sigma = 1.001, t = 1e8, the
    precision error. In process, repeated calls print one warning each and
    leave the logger's handlers as they found them."""
    pzeta = ("special", "eval", "--fn", "pzeta", "--sigma")
    for argv, status, codes in (
        ((*pzeta, "1.001", "--t", "1e8"), 2, ["warning", "precision"]),
        ((*pzeta, "1.002", "--t", "5"), 0, ["warning"]),
    ):
        r = run_module(*argv)
        lines = [json.loads(line) for line in r.stderr.splitlines()]
        assert r.returncode == status and [doc["code"] for doc in lines] == codes, argv
        assert "too close to 1 to certify the logarithm branch" in lines[0]["message"], argv
    log = logging.getLogger("tauberlab")
    handlers = list(log.handlers)
    for _ in range(2):
        code, out, err = run_cli(capsys, *pzeta, "1.002", "--t", "5")
        assert code == 0 and json.loads(out)["re"] == pytest.approx(-0.30778793225)
        assert [json.loads(line)["code"] for line in err.splitlines()] == ["warning"]
    assert log.handlers == handlers


def test_jobs_is_an_unknown_flag(capsys):
    """The thread pools take the standard environment variables
    (OMP_NUM_THREADS, OPENBLAS_NUM_THREADS, ...): the CLI has no flag for them."""
    for argv in (["--jobs=2", "primes", "--count", "10"], ["primes", "--count", "10", "--jobs=2"]):
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == 64
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err


@pytest.mark.parametrize("bogus", [["--bogus", "2"], ["--bogus"]], ids=["with_value", "bare"])
def test_an_unknown_option_before_the_command_is_unrecognized(capsys, bogus):
    """Refused as after the command: argparse alone took the 2 of
    `--bogus 2` for the command name, an invalid choice."""
    with pytest.raises(SystemExit) as ei:
        main([*bogus, "primes", "--count", "10"])
    assert ei.value.code == 64
    err = capsys.readouterr().err
    assert "unrecognized arguments: --bogus" in err and "invalid choice" not in err


def test_known_options_before_the_command_keep_working(capsys, tmp_path):
    conf = tmp_path / "t.conf"
    conf.write_text("prime_limit = 5000\n")
    for lead in (
        ["--prime-limit", "1000"],
        ["--prime-limit=1000"],
        ["--prime", "1000"],  # argparse's abbreviation
        ["--config", str(conf), "--format", "csv"],
    ):
        assert run_cli(capsys, *lead, "primes", "--count", "100") == (0, "25\n", ""), lead
    # the config file before the command set the table limit
    code, _, err = run_cli(capsys, "--config", str(conf), "primes", "--count", "6000")
    assert code == 2 and "exceeds table limit 5000" in json.loads(err)["message"]
    code, _, err = run_cli(capsys, "--prime-limit", "-5", "primes", "--count", "10")
    assert code == 1 and json.loads(err)["code"] == "config"
    with pytest.raises(SystemExit) as ei:
        main(["--version"])
    assert ei.value.code == 0 and capsys.readouterr().out == f"tauberlab {tauberlab.__version__}\n"


def test_config_errors_exit_1(capsys, tmp_path):
    p = tmp_path / "c.conf"
    p.write_text("frobs = 3\n")
    code, _, err = run_cli(capsys, "--config", str(p), "primes", "--count", "10")
    assert code == 1
    assert json.loads(err.strip())["code"] == "config"


# ---------------------------------------------------------------------------
# precedence: defaults < the command's own defaults < file < flags
# ---------------------------------------------------------------------------


def test_flag_beats_file_beats_default(capsys, tmp_path):
    p = tmp_path / "t.conf"
    p.write_text("prime_limit = 200000\n")
    # file value: count inside 2e5 succeeds
    code, out, _ = run_cli(capsys, "--config", str(p), "primes", "--count", "150000")
    assert code == 0 and int(out.strip()) == 13848
    # flag tightens the limit below the query: must exhaust
    code, _, err = run_cli(
        capsys, "--config", str(p), "--prime-limit", "1000", "primes", "--count", "150000",
    )
    assert code == 2
    assert json.loads(err.strip())["code"] == "table-exhausted"


def test_shared_flags_accepted_after_the_subcommand(capsys, tmp_path):
    conf = tmp_path / "t.conf"
    conf.write_text("prime_limit = 1000\n")
    code, out, _ = run_cli(capsys, "primes", "--count", "100", "--prime-limit", "5000", "--format", "csv")
    assert code == 0 and out.strip() == "25"
    code, _, err = run_cli(capsys, "primes", "--count", "2000", "--config", str(conf))
    assert code == 2 and "exceeds table limit 1000" in json.loads(err)["message"]


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


def test_transform_eval_file_edge_cases(capsys, tmp_path):
    """--source file without --file, a missing file and a directory (each
    exits 1 with code contract, as a malformed file does), a file whose
    blank and comment-only lines are skipped, and a line whose jump is no
    number."""
    code, out, err = run_cli(capsys, "transform", "eval", "--source", "file", "--sigma", "2")
    assert code == 1 and out == ""
    doc = json.loads(err.strip())
    assert doc["code"] == "contract" and "needs --file" in doc["message"]

    for f in (tmp_path / "no_such.csv", tmp_path):
        code, out, err = run_cli(capsys, "transform", "eval", "--source", "file", "--file", str(f), "--sigma", "2")
        assert code == 1 and out == "", f
        doc = json.loads(err.strip())
        assert doc["code"] == "contract" and doc["message"].startswith(f"cannot read step file {f}: "), f

    f = tmp_path / "steps.csv"
    f.write_text("# primes\n\n2,1\n   \n3,1  # the second\n# done\n")
    code, out, _ = run_cli(capsys, "transform", "eval", "--source", "file", "--file", str(f), "--sigma", "2")
    assert code == 0
    assert last_json(out)["re"] == pytest.approx((2.0**-2 + 3.0**-2) / 2.0, abs=1e-14)

    f.write_text("2,1\n\n2,x\n")
    code, out, err = run_cli(capsys, "transform", "eval", "--source", "file", "--file", str(f), "--sigma", "2")
    assert code == 1 and out == ""
    doc = json.loads(err.strip())
    assert doc["code"] == "contract" and ":3: bad number in '2,x'" in doc["message"]


@pytest.mark.parametrize("lines", ["2,1\n2,1\n", "0.5,1\n3,1\n"], ids=["repeated", "below_1"])
def test_transform_eval_refuses_a_file_that_is_no_step_source(capsys, tmp_path, lines):
    """The file is read as a step source, whose breakpoints must be
    strictly increasing and >= 1."""
    f = tmp_path / "steps.csv"
    f.write_text(lines)
    code, out, err = run_cli(capsys, "transform", "eval", "--source", "file", "--file", str(f), "--sigma", "2")
    assert code == 1 and out == ""
    doc = json.loads(err.strip())
    assert doc["code"] == "contract"
    assert doc["message"] == "breakpoints must be strictly increasing and >= 1"


def test_operator_refuses_an_eps_past_the_frequency_route_limit(capsys):
    # at the default L = 8 pi the fine panels resolve the damping up to eps = 320
    for cmd, *extra in (("diag", "--A", "1"), ("assemble",), ("spectrum",)):
        code, out, err = run_cli(capsys, "operator", cmd, "--source", "linear", "--eps", "321", "--order", "4", *extra)
        assert code == 1 and out == "", cmd
        doc = json.loads(err.strip())
        assert doc["code"] == "domain" and "up to eps = 320" in doc["message"], cmd


def test_operator_assemble_stdout_and_file_agree(capsys, tmp_path):
    args = ["operator", "assemble", "--source", "integers", "--length", str(2 * math.pi),
            "--eps", "0.1", "--order", "2"]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    out_path = tmp_path / "w.csv"
    code2, _, _ = run_cli(capsys, *args, "--out", str(out_path))
    assert code2 == 0
    assert out == out_path.read_text()


@pytest.mark.parametrize("cmd", ["diag", "spectrum"])
def test_operator_sequence_out_file_is_the_csv_stdout(capsys, tmp_path, cmd):
    """--out writes the sequence as CSV whatever --format says: exactly the
    text that --format csv prints."""
    args = ["operator", cmd, "--source", "sqrt_mix", "--length", repr(2 * math.pi), "--eps", "0.1", "--order", "4"]
    code, out, _ = run_cli(capsys, "--format", "csv", *args)
    assert code == 0
    out_path = tmp_path / f"{cmd}.csv"
    code, printed, _ = run_cli(capsys, *args, "--out", str(out_path))
    assert code == 0 and printed == ""
    assert out_path.read_text() == out


def test_operator_cli_prints_what_the_library_computes(capsys):
    # the frequency route and the diagonals take no tolerance, so the CLI's
    # abs_tol cannot move their grid
    code, out, _ = run_cli(capsys, "operator", "assemble", "--source", "integers",
                           "--length", repr(2 * math.pi), "--eps", "0.1", "--order", "8")
    assert code == 0
    W = operators.assemble_frequency_route([tr.source_integers()], operators.IntervalSpec(2 * math.pi), 0.1, 8)[0]
    assert out == W.csv_text()
    code, out, _ = run_cli(capsys, "operator", "diag", "--source", "sqrt_mix",
                           "--eps", "0.05", "--order", "16", "--A", "1")
    assert code == 0
    diag = operators.diagonal_sequence([tr.source_sqrt_mix(1.0, 1.0)], operators.IntervalSpec(8 * math.pi), 0.05, 16)[0] - 1.0
    assert json.loads(out) == diag.tolist()


def test_operator_kernel_route_through_the_cli(capsys):
    args = ["--source", "integers", "--length", repr(2 * math.pi), "--eps", "0.1", "--order", "4",
            "--route", "kernel"]
    code, out, _ = run_cli(capsys, "operator", "assemble", *args)
    assert code == 0
    W = operators.assemble_kernel_route([tr.source_integers()], operators.IntervalSpec(2 * math.pi), 0.1, 4)[0]
    assert out == W.csv_text()
    code, out, _ = run_cli(capsys, "--format", "csv", "operator", "spectrum", *args)
    assert code == 0
    assert out.splitlines()[0].endswith(", route=kernel_quadrature")


def test_operator_csv_outputs_are_deterministic(capsys, tmp_path):
    args = ["operator", "assemble", "--source", "sqrt_mix", "--length", str(2 * math.pi),
            "--eps", "0.1", "--order", "3"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(capsys, *args, "--out", str(a))[0] == 0
    assert run_cli(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_battery_report_is_byte_identical_across_runs(tmp_path):
    """Two identical runs, each in its own process, write the same JSON."""
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        assert run_module("experiment", "battery", "--order", "8", "--report", str(p)).returncode == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("route", ["kernel", "frequency"])
def test_operator_spectrum_csv_is_byte_identical_across_runs(route):
    args = ["--format", "csv", "operator", "spectrum", "--source", "integers", "--eps", "0.05",
            "--order", "8", "--route", route]
    first, second = run_module(*args), run_module(*args)
    assert first.returncode == 0 and first.stdout.count("\n") == 1 + 17
    assert first.stdout == second.stdout


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
def test_every_catalog_source_runs_diag(capsys, source):
    code, out, _ = run_cli(
        capsys, "--prime-limit", "30000",
        "operator", "diag", "--source", source, "--eps", "0.1", "--order", "2",
    )
    assert code == 0
    vals = json.loads(out)
    assert len(vals) == 3 and all(math.isfinite(v) for v in vals)


def test_version_flag():
    r = run_module("--version")
    assert r.returncode == 0
    assert r.stdout.strip() == f"tauberlab {tauberlab.__version__}"
