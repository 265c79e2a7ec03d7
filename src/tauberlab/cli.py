"""Command-line front end: configuration, dispatch, and result emission.

Exit codes: 0 success, 1 domain/contract errors, 2 resource/precision
errors, 64 usage errors. All failures print a single-line JSON object
{"code": ..., "message": ...} to standard error, and so does each warning
the package logs while a command runs, with code "warning". Outputs
carry no timestamps, so identical invocations produce byte-identical
files, and a run writes no file but its --out or --report (and the
report's .ratio.csv).

Configuration is a flat `key = value` file ('#' starts a comment).
Precedence: defaults < the command's own defaults (`pnt`: order 72) <
config file < flags. The effective configuration and tool version are
embedded in every report.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import re
import sys
from dataclasses import dataclass
from typing import Optional

from . import __version__, arith, operators, special, tauber, transform
from .errors import ConfigError, ContractError, TauberlabError

@dataclass
class RunConfig:
    """Tool-wide knobs; field names double as the config-file keys."""

    prime_limit: int = 100_000_000
    length: float = tauber.DEFAULT_LENGTH
    order: int = tauber.DEFAULT_ORDER
    abs_tol: float = special.DEFAULT_TOL.abs_tol
    format: str = "json"

    def validate(self) -> "RunConfig":
        if self.prime_limit < 2:
            raise ConfigError(f"prime_limit must be >= 2, got {self.prime_limit}")
        if not (0 < self.length < math.inf):
            raise ConfigError(f"length must be positive and finite, got {self.length}")
        if self.order < 0:
            raise ConfigError(f"order must be >= 0, got {self.order}")
        if not (0 < self.abs_tol <= 1e-4):
            raise ConfigError(f"abs_tol must lie in (0, 1e-4], got {self.abs_tol}")
        if self.format not in ("json", "csv"):
            raise ConfigError(f"format must be json or csv, got {self.format!r}")
        return self

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _lines(path: str, what: str, error: type):
    """(lineno, stripped line, its text before any '#') for each line of the
    file with text left; an unreadable file raises error, naming what."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, raw.strip(), line


def load_config(path: Optional[str], **own) -> RunConfig:
    """RunConfig(**own), a command's own defaults over the tool's, overlaid
    by the flat key-value file (if given).

    The keys are RunConfig's fields; each value is converted with the type of
    the field's default."""
    cfg = RunConfig(**own)
    if path is None:
        return cfg.validate()
    defaults = cfg.as_dict()
    for lineno, raw, line in _lines(path, "config", ConfigError):
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in defaults:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            setattr(cfg, key, type(defaults[key])(value))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return cfg.validate()


# `special eval --fn` name -> evaluator of tauberlab.special
_SPECIAL_FNS = {
    "zeta": "zeta",
    "zetad": "zeta_deriv",
    "pzeta": "prime_zeta",
    "pzetad": "prime_zeta_deriv",
    "psi": "psi_entire",
    "psip": "psi_prime_part",
}

# `transform eval --source` name -> G(s, tol, args)
_TRANSFORMS = {
    "integers": lambda s, tol, args: transform.transform_integers(s, tol),
    "primes": lambda s, tol, args: transform.transform_primes(s, tol),
    "wprimes": lambda s, tol, args: transform.transform_weighted_primes(s, tol),
    "file": lambda s, tol, args: _load_step_file(args.file).laplace(s),
}

# catalog source name (operator and experiment --source) -> factory(cfg)
_SOURCES = {
    "linear": lambda cfg: transform.source_identity(),
    "integers": lambda cfg: transform.source_integers(),
    "wprimes": lambda cfg: transform.source_primes_weighted(_table(cfg)),
    "sqrt_mix": lambda cfg: transform.source_sqrt_mix(1.0, 1.0),
    "log_osc": lambda cfg: transform.source_log_oscillation(0.5),
    "single_jump": lambda cfg: transform.source_single_jump(),
    "slow": lambda cfg: transform.source_slow_approach(),
}
_SOURCE_HELP = "one of: " + ", ".join(_SOURCES)

# `operator assemble|spectrum --route` name -> batched assembly function of tauberlab.operators
_ROUTES = {
    "kernel": "assemble_kernel_route",
    "frequency": "assemble_frequency_route",
}


class _Parser(argparse.ArgumentParser):
    """argparse with the usage exit code the tool's taxonomy wants (64), that
    reads -1e3, -.5 and -inf as values, as stock argparse reads only -1 and
    -1.5: it takes --t -1e3 or --eps -inf for a missing value."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self._negative_number_matcher = re.compile(r"-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|-(inf(inity)?|nan)$", re.I)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(64)


def _shared_flags(p: argparse.ArgumentParser, suppress: bool = False) -> None:
    # Subparser copies default to SUPPRESS: a value parsed before the
    # subcommand name must survive the subparser's own defaulting pass.
    d = {"default": argparse.SUPPRESS} if suppress else {}
    p.add_argument("--config", help="flat key = value config file", **d)
    p.add_argument("--prime-limit", type=int, help="sieve/table limit", **d)
    p.add_argument("--format", choices=["json", "csv"], help="stdout format for sequences", **d)


def _build_parser() -> _Parser:
    """The command tree; each leaf names its handler in args.run, which a
    bare group or an empty command line leaves unset, its own RunConfig
    defaults in args.defaults, and each group its usage printer in
    args.usage."""
    shared = argparse.ArgumentParser(add_help=False)
    _shared_flags(shared, suppress=True)
    p = _Parser(prog="tauberlab", description="Numerical laboratory for ratio limits, transforms, and truncated convolution operators.")
    _shared_flags(p)
    p.add_argument("--version", action="version", version=f"tauberlab {__version__}")
    # the dest names the group in argparse's invalid-choice message
    sub = p.add_subparsers(dest="command", parser_class=_Parser)

    def group(name, help):
        gp = sub.add_parser(name, help=help)
        gp.set_defaults(usage=gp.print_usage)
        return gp.add_subparsers(dest=f"{name}_command", parser_class=_Parser)

    def leaf(parent, name, run, **kw):
        lp = parent.add_parser(name, parents=[shared], **kw)
        lp.set_defaults(run=run, defaults={})
        return lp

    sp = leaf(sub, "primes", _cmd_primes, help="prime counting against the prime table")
    sp.add_argument("--count", type=float, required=True, metavar="X", help="count primes <= X")

    ssub = group("special", "zeta-family special functions")
    se = leaf(ssub, "eval", _cmd_special, help="evaluate one function at s = sigma + it")
    se.add_argument("--fn", required=True, choices=list(_SPECIAL_FNS))
    se.add_argument("--sigma", type=float, required=True)
    se.add_argument("--t", type=float, default=0.0)

    tsub = group("transform", "Laplace-type transforms of counting functions")
    te = leaf(tsub, "eval", _cmd_transform, help="evaluate a transform at s = sigma + it")
    te.add_argument("--source", required=True, choices=list(_TRANSFORMS))
    te.add_argument("--file", help="step function as CSV lines x_j,a_j (for --source file)")
    te.add_argument("--sigma", type=float, required=True)
    te.add_argument("--t", type=float, default=0.0)

    osub = group("operator", "assemble truncations, diagonals, spectra")
    for name, hlp in (("assemble", "full matrix"), ("diag", "diagonal sequence"), ("spectrum", "eigenvalues")):
        op = leaf(osub, name, _cmd_operator, help=hlp)
        op.add_argument("--source", required=True, help=_SOURCE_HELP)
        op.add_argument("--length", type=float, help="interval length L")
        op.add_argument("--eps", type=float, required=True)
        op.add_argument("--order", type=int, help="truncation order N")
        if name != "diag":
            op.add_argument("--route", choices=list(_ROUTES), default="frequency")
        else:
            op.add_argument("--A", type=float, default=0.0, help="identity multiple to subtract")
        op.add_argument("--out", help="write CSV here instead of stdout")

    esub = group("experiment", "theorem-level experiments")
    for name in ("forward", "converse", "pnt", "battery"):
        ep = leaf(esub, name, _cmd_experiment)
        if name == "pnt":
            ep.set_defaults(defaults={"order": tauber.PNT_ORDER})
        if name in ("forward", "converse"):
            ep.add_argument("--source", required=True, help=_SOURCE_HELP)
        ep.add_argument("--length", type=float)
        ep.add_argument("--order", type=int)
        if name != "battery":  # each battery member carries its own u_max
            ep.add_argument("--umax", type=float)
        ep.add_argument("--report", help="write the full JSON report here (plus .ratio.csv companion)")
    return p


def _overlay(cfg: RunConfig, args) -> RunConfig:
    """The RunConfig fields a command-line flag set, over cfg."""
    for key in cfg.as_dict():
        if getattr(args, key, None) is not None:
            setattr(cfg, key, getattr(args, key))
    return cfg.validate()


def _table(cfg: RunConfig):
    return arith.build_prime_table(cfg.prime_limit)


def _source(name: str, cfg: RunConfig):
    if name not in _SOURCES:
        raise ContractError(f"unknown source {name!r}; expected {_SOURCE_HELP}")
    return _SOURCES[name](cfg)


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _save(save, path, *args, **kw) -> None:
    """save(path, *args, **kw); an OSError from writing the file is a
    ContractError that names it, as an unreadable input file is (_lines)."""
    try:
        save(path, *args, **kw)
    except OSError as exc:
        raise ContractError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write(text: str, out: Optional[str]) -> None:
    """text to the file out, atomically, or to stdout without one."""
    if out:
        _save(arith._atomic_write, out, text)
    else:
        sys.stdout.write(text)


def _cmd_primes(args, cfg: RunConfig) -> int:
    print(int(arith.count_primes(args.count, _table(cfg))))
    return 0


def _emit_value(args, cfg: RunConfig, f) -> int:
    tol = special.EvalTolerance(cfg.abs_tol)
    val = complex(f(complex(args.sigma, args.t), tol))
    _emit({"re": val.real, "im": val.imag, "est_error": tol.abs_tol})
    return 0


def _cmd_special(args, cfg: RunConfig) -> int:
    return _emit_value(args, cfg, getattr(special, _SPECIAL_FNS[args.fn]))


def _load_step_file(path: str):
    if not path:
        raise ContractError("--source file needs --file with x_j,a_j lines")
    xs, js = [], []
    for lineno, raw, line in _lines(path, "step file", ContractError):
        parts = line.split(",")
        if len(parts) != 2:
            raise ContractError(f"{path}:{lineno}: expected 'x,jump', got {raw!r}")
        try:
            xs.append(float(parts[0]))
            js.append(float(parts[1]))
        except ValueError as exc:
            raise ContractError(f"{path}:{lineno}: bad number in {raw!r}") from exc
    return transform.source_steps(xs, js, path)


def _cmd_transform(args, cfg: RunConfig) -> int:
    return _emit_value(args, cfg, lambda s, tol: _TRANSFORMS[args.source](s, tol, args))


def _cmd_operator(args, cfg: RunConfig) -> int:
    S = _source(args.source, cfg)
    I = operators.IntervalSpec(cfg.length)
    N = cfg.order
    cmd = args.operator_command
    meta = {"L": cfg.length, "eps": args.eps, "N": N, "source": S.label}
    if cmd == "diag":
        operators._check_A(args.A)
        vals = operators.diagonal_sequence([S], I, args.eps, N)[0] - args.A
        meta["A"] = args.A
    else:
        W = getattr(operators, _ROUTES[args.route])([S], I, args.eps, N)[0]
        if cmd == "assemble":
            _write(W.csv_text(), args.out)
            return 0
        vals = operators.spectrum(W)
        meta["route"] = W.route
    if args.out or cfg.format == "csv":
        _write(arith._csv_text(cmd, meta, enumerate(vals)), args.out)
    else:
        _emit([float(v) for v in vals])
    return 0


def _report_extra(cfg: RunConfig) -> dict:
    return {"config": cfg.as_dict(), "version": __version__}


def _cmd_experiment(args, cfg: RunConfig) -> int:
    cmd = args.experiment_command
    if cmd == "battery":
        bat = tauber.run_battery(L=cfg.length, N=cfg.order)
        if args.report:
            _save(bat.save_json, args.report, extra=_report_extra(cfg))
        _emit({"all_equivalent": bat.all_equivalent, "equivalence": bat.equivalence})
        return 0
    kw = {} if args.umax is None else {"u_max": args.umax}
    if cmd == "pnt":
        rep = tauber.pnt_pipeline(_table(cfg), L=cfg.length, N=cfg.order, **kw)
    elif cmd == "forward":
        S = _source(args.source, cfg)
        rep = tauber.forward_experiment(S, None, L=cfg.length, N=cfg.order, **kw)
    else:
        rep = tauber.converse_experiment(_source(args.source, cfg), L=cfg.length, N=cfg.order, **kw)
    if args.report:
        # the ratio table first: a report JSON never stands without it
        stem = args.report[:-5] if args.report.endswith(".json") else args.report
        _save(rep.save_ratio_csv, stem + ".ratio.csv")
        _save(rep.save_json, args.report, extra=_report_extra(cfg))
    _emit(
        {
            "source": rep.source,
            "A_estimate": rep.A_estimate,
            "A_method": rep.A_method,
            "diag_decay": rep.diag_decay,
            "ratio_limit": rep.ratio_limit,
            "consistent": rep.consistent,
        }
    )
    return 0


def _check_leading_options(parser: _Parser, argv: list) -> None:
    """Refuse an unknown option before the command name as argparse refuses
    one after it (exit 64): argparse itself would take the option's value
    for the command name. Each known option's value is skipped, and an
    option may be abbreviated, as argparse allows; at an ambiguous one the
    check stops and argparse names the candidates."""
    takes_value = {o: a.nargs != 0 for a in parser._actions for o in a.option_strings}
    i = 0
    while i < len(argv) and argv[i].startswith("-"):
        name, eq, _ = argv[i].partition("=")
        known = [name] if name in takes_value else [o for o in takes_value if o.startswith(name)]
        if not known:
            parser.error(f"unrecognized arguments: {argv[i]}")
        if len(known) > 1:
            return
        i += 1 if eq or not takes_value[known[0]] else 2


class _JsonWarnings(logging.Handler):
    """Each tauberlab log record as one JSON line on stderr, the form of
    the errors: {"code": "warning", "message": ...}."""

    def emit(self, record):
        print(json.dumps({"code": "warning", "message": record.getMessage()}), file=sys.stderr)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    _check_leading_options(parser, argv)
    args = parser.parse_args(argv)
    if getattr(args, "run", None) is None:  # no command, or a bare group
        getattr(args, "usage", parser.print_usage)(sys.stderr)
        return 64
    log, handler = logging.getLogger("tauberlab"), _JsonWarnings()
    log.addHandler(handler)  # removed below, so repeated calls do not stack
    try:
        return args.run(args, _overlay(load_config(args.config, **args.defaults), args))
    except TauberlabError as exc:
        print(json.dumps({"code": exc.code, "message": str(exc)}), file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # keep the taxonomy: unexpected -> resource-class
        print(json.dumps({"code": "internal", "message": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return 2
    finally:
        log.removeHandler(handler)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
