"""The three benchmark workloads: pnt, battery and points.

Each is a closed loop with one caller. A workload hands out one *unit* of
work at a time: a list of ops, each a (thunk, check) pair. The run loop
times every thunk, then checks every result outside the timed region;
check(result) returns (passed, err_ratio), where err_ratio is the worst
|value - reference| / allowed over the op's numeric checks (above 1 the op
has failed). `call(name, fn, *args)` is how an op calls into the package:
a plain call in untraced units, a span in traced ones.

A workload class also names the prime table its set-up builds
(`table_limit`, 0 for none), holds that table as `table` once
`prepare(call)` has run, and does its other untimed preparation there.

Imports tauberlab, so it is imported only after run.py has pinned the
thread pools and put the checkout's src/ first on sys.path.
"""

from __future__ import annotations

import json
import math

import mpmath
import numpy as np

from tauberlab import arith, operators, special, tauber, transform

__all__ = ["WORKLOADS", "instrumentation", "plain_call"]


def plain_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def instrumentation(tracer, table=None):
    """(obj, attr, wrapper) for every layer boundary the package crosses.

    Each wrapper closes over the original attribute, read here before any
    patch is applied."""
    wrap = tracer.wrap

    def instrumented(S):
        S.fn = tracer.counting("transform.source_evals", S.fn)
        if S.laplace is not None:
            S.laplace = wrap("transform.laplace", S.laplace, "transform.laplace_points")
        return S

    weighted = tauber.source_primes_weighted
    members = tauber.battery_members
    out = [
        (operators, "kernel", wrap("operators.kernel", operators.kernel, "operators.kernel_points", 2)),
        (transform, "zeta", wrap("special.zeta", transform.zeta)),
        (transform, "prime_zeta", wrap("special.prime_zeta", transform.prime_zeta)),
        (transform, "prime_zeta_pair", wrap("special.prime_zeta_pair", transform.prime_zeta_pair,
                                            "special.prime_zeta_pair_points")),
        (tauber, "converse_experiment", wrap("tauber.converse_experiment", tauber.converse_experiment)),
        (tauber, "source_primes_weighted", lambda t: instrumented(weighted(t))),
        (tauber, "battery_members", lambda: [(instrumented(S), *rest) for S, *rest in members()]),
    ]
    for fn in ("assemble_kernel_route", "assemble_frequency_route", "diagonal_sequence", "spectrum"):
        out.append((tauber, fn, wrap("operators." + fn, getattr(tauber, fn))))
    if table is not None:
        out.append((table, "count", wrap("arith.count", table.count, "arith.count_points")))
        out.append((table, "primes_in", wrap("arith.primes_in", table.primes_in)))
    return out


# ---------------------------------------------------------------------------
# pnt: the prime-counting pipeline at its defaults
# ---------------------------------------------------------------------------


class Pnt:
    """One op: pnt_pipeline(table) at its defaults plus both report files."""

    table_limit = 10**8
    table = None  # built by prepare()
    ORACLE = {4: 1229, 6: 78498, 7: 664579}  # pi(10^k)
    RATIO_TOL = 2e-4  # ratio table against the oracle counts
    A_TOL = 0.1  # 0.9 <= A* <= 1.1

    def __init__(self, seed, workdir):
        self.workdir = workdir

    def prepare(self, call):
        self.table = call("arith.build_prime_table", arith.build_prime_table,
                          self.table_limit, cache_dir=self.workdir / "cache")

    def ops(self, call):
        def op():
            rep = call("tauber.pnt_pipeline", tauber.pnt_pipeline, self.table)
            call("tauber.report_write", self._write, rep)
            return rep

        return [(op, self.check)]

    def _write(self, rep):
        rep.save_json(self.workdir / "pnt.json")
        rep.save_ratio_csv(self.workdir / "pnt.ratio.csv")

    def check(self, rep):
        passed = True
        errs = [abs(rep.A_estimate - 1.0) / self.A_TOL]
        for k, count in self.ORACLE.items():
            passed &= arith.count_primes(10**k, self.table) == count
            u = math.log(10**k)
            errs.append(abs(rep.ratio_at(u) - count * u / 10**k) / self.RATIO_TOL)
        decades = [rep.ratio_at(k * math.log(10.0)) for k in range(3, 9)]
        passed &= bool(np.all(np.diff(decades) < 0))
        saved = json.loads((self.workdir / "pnt.json").read_text())["report"]
        passed &= saved["A_estimate"] == rep.A_estimate
        passed &= (self.workdir / "pnt.ratio.csv").stat().st_size > 0
        worst = max(errs)
        return passed and worst <= 1.0, worst


# ---------------------------------------------------------------------------
# battery: six converse experiments on closed-form synthetic sources
# ---------------------------------------------------------------------------


class Battery:
    """One op: run_battery() at its defaults."""

    table_limit = 0
    table = None
    # both verdicts true for a genuine ratio limit, both false for the oscillator
    EXPECTED = {
        "identity": True,
        "sqrt_mix(a=2,b=1)": True,
        "sqrt_mix(a=1,b=1)": True,
        "log_oscillation(amp=0.5)": False,
        "single_jump(h=3,x0=2.71828)": True,
        "slow_approach": True,
    }

    def __init__(self, seed, workdir):
        # declared limit and ratio threshold of each member, for the A* check
        self.limits = {
            S.label: (S.ratio_limit_A, r_thr) for S, _, _, r_thr in tauber.battery_members()
        }

    def prepare(self, call):
        pass

    def ops(self, call):
        return [(lambda: call("tauber.run_battery", tauber.run_battery), self.check)]

    def check(self, bat):
        passed = bat.all_equivalent and set(bat.reports) == set(self.EXPECTED)
        errs = [0.0]
        for label, want in self.EXPECTED.items():
            rep = bat.reports[label]
            passed &= rep.diag_decay == want and rep.ratio_limit == want
            A, r_thr = self.limits[label]
            if A is not None:
                errs.append(abs(rep.A_estimate - A) / r_thr)
        worst = max(errs)
        return passed and worst <= 1.0, worst


# ---------------------------------------------------------------------------
# points: scalar special-function and transform calls against mpmath
# ---------------------------------------------------------------------------


def _mobius(k):
    mu, p = 1, 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if k > 1 else mu


def references(s, dps=30):
    """mpmath values of the nine point functions at s (dps >= 30).

    zeta, zeta' and P come from mpmath directly; P'(s) is the Moebius sum
    of zeta'(ks)/zeta(ks), truncated once 2^(-k sigma) < 1e-33 (it agrees
    with mpmath.diff(primezeta) to ~1e-31 at a fraction of the cost)."""
    with mpmath.workdps(dps):
        z = mpmath.mpc(s.real, s.imag)
        zeta = mpmath.zeta(z)
        zeta_d = mpmath.zeta(z, derivative=1)
        pz = mpmath.primezeta(z)
        pz_d = mpmath.mpf(0)
        k = 1
        while 2.0 ** (-k * s.real) >= 1e-33:
            mu = _mobius(k)
            if mu:
                pz_d += mu * mpmath.zeta(k * z, derivative=1) / mpmath.zeta(k * z)
            k += 1
        vals = {
            "zeta": zeta,
            "zeta_deriv": zeta_d,
            "prime_zeta": pz,
            "prime_zeta_deriv": pz_d,
            "psi_entire": zeta / z - 1 / (z - 1),
            "psi_prime_part": pz / z + mpmath.log(z - 1),
            "transform_integers": zeta / z,
            "transform_primes": pz / z,
            "transform_weighted_primes": (pz - z * pz_d) / z**2,
        }
        return {name: complex(v) for name, v in vals.items()}


def sample_points(seed, n_wide=12, n_pole=4):
    """Seeded points s = sigma + it, stratified so every seed has the same mix.

    Wide points: log(sigma - 1) in [log 2e-4, log 0.5] and t in [-40, 40],
    Latin-hypercube stratified. Pole points: |s - 1| < 1e-3 with
    sigma - 1 log-stratified in [2e-4, 7e-4]."""
    rng = np.random.default_rng(seed)

    def strata(n):
        return (np.arange(n) + rng.random(n)) / n

    lo, hi = math.log(2e-4), math.log(0.5)
    a = np.exp(lo + (hi - lo) * strata(n_wide))
    t = -40.0 + 80.0 * rng.permutation(strata(n_wide))
    pts = [complex(1.0 + x, y) for x, y in zip(a, t)]
    lo, hi = math.log(2e-4), math.log(7e-4)
    for x in np.exp(lo + (hi - lo) * strata(n_pole)):
        y = math.sqrt(1e-6 - x * x) * rng.uniform(-0.99, 0.99)
        pts.append(complex(1.0 + x, y))
    return [pts[i] for i in rng.permutation(len(pts))]


class Points:
    """One op: one scalar call at default tolerance, table=None.

    A unit is one cycle: every point, and at each point the nine functions
    in turn."""

    table_limit = 0
    table = None
    FUNCTIONS = (
        special.zeta, special.zeta_deriv, special.prime_zeta, special.prime_zeta_deriv,
        special.psi_entire, special.psi_prime_part, transform.transform_integers,
        transform.transform_primes, transform.transform_weighted_primes,
    )
    ULPS = 4  # allowed rounding on top of abs_tol, in units of |ref| * eps

    def __init__(self, seed, workdir):
        self.points = sample_points(seed)
        self.refs = None

    def prepare(self, call):
        self.refs = [references(s) for s in self.points]

    def ops(self, call):
        out = []
        for s, ref in zip(self.points, self.refs):
            for fn in self.FUNCTIONS:
                label = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
                out.append((
                    lambda fn=fn, label=label, s=s: call(label, fn, s),
                    lambda v, r=ref[fn.__name__]: self.check(v, r),
                ))
        return out

    def check(self, value, ref):
        allowed = special.DEFAULT_TOL.abs_tol + self.ULPS * np.finfo(float).eps * abs(ref)
        ratio = abs(complex(value) - ref) / allowed
        return ratio <= 1.0, ratio


WORKLOADS = {"pnt": Pnt, "battery": Battery, "points": Points}
